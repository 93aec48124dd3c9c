import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import cbindex
from cbindex import _parallel
from cbindex.inference import IntervalEstimate, OptimismResult
from cbindex.nbglm import FitMeta
from cbindex.trial_data import TrialDataset

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


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_benchmark_target_resolves():
    """``bench/tracer.py`` patches each ``TARGETS`` entry by name, so a
    removed or renamed function breaks the traced benchmark (``--trace 1``)."""
    tracer = load_tracer()
    missing = []
    for module_name, attr in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *classes, name = attr.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name, None)
        if owner is None or name not in vars(owner):
            missing.append(f"{module_name}.{attr}")
    assert tracer.TARGETS and not missing


def test_every_attribute_the_tracer_counters_read_exists():
    """``bench/tracer.py``'s ``COUNTERS`` read these attributes of what the
    traced functions return, and these parameters of ``run_indexed``; a
    counter added there adds what it reads here."""
    assert set(load_tracer().COUNTERS) == {
        "nbglm.fit", "nbglm.fit_alternating", "trial_data.load_dataset",
        "inference.bootstrap_intervals", "inference.optimism_adjust_all", "parallel.run_indexed",
    }
    fields = {cls: {f.name for f in dataclasses.fields(cls)}
              for cls in (FitMeta, TrialDataset, IntervalEstimate, OptimismResult)}
    assert {"iterations", "converged", "dispersion_rounds"} <= fields[FitMeta]
    assert "n_missing_excluded" in fields[TrialDataset] and isinstance(TrialDataset.n, property)
    assert {"replicate_values", "n_failed"} <= fields[IntervalEstimate]
    assert {"n_replicates", "n_failed"} <= fields[OptimismResult]
    assert {"indices", "shared"} <= set(inspect.signature(_parallel.run_indexed).parameters)
