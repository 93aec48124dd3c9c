import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

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


def test_every_traced_benchmark_target_resolves():
    """``bench/tracer.py`` patches each ``TARGETS`` entry by name, so a
    removed or renamed function breaks the traced benchmark (``--trace 1``)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *classes, name = attr.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name, None)
        if owner is None or name not in vars(owner):
            missing.append(f"{module_name}.{attr}")
    assert tracer.TARGETS and not missing
