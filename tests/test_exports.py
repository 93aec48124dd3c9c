import importlib
import pkgutil

import pytest

import cbindex

# every module of the package; ``__main__`` runs the CLI when imported
MODULES = ["cbindex"] + [
    f"cbindex.{m.name}" for m in pkgutil.iter_modules(cbindex.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", [
    name for name in MODULES if hasattr(importlib.import_module(name), "__all__")
])
def test_every_exported_name_resolves(name):
    """A stale ``__all__`` entry breaks ``from module import *``."""
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
