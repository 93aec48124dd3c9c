import importlib
import pkgutil
import sys

import pytest

import cbindex

# every module of the package
MODULES = ["cbindex"] + [f"cbindex.{m.name}" for m in pkgutil.iter_modules(cbindex.__path__)]


def test_importing_main_runs_nothing(monkeypatch):
    """``python -m cbindex`` runs the CLI; importing the module does not
    (with no command given, a run would exit 1)."""
    monkeypatch.delitem(sys.modules, "cbindex.__main__", raising=False)
    monkeypatch.setattr(sys, "argv", ["cbindex"])
    importlib.import_module("cbindex.__main__")


@pytest.mark.parametrize("name", [
    name for name in MODULES if hasattr(importlib.import_module(name), "__all__")
])
def test_every_exported_name_resolves(name):
    """A stale ``__all__`` entry breaks ``from module import *``."""
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
