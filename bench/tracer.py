"""Span tracer for in-process runs of the cbindex CLI.

The tracer wraps the public functions of each cbindex module from the
outside: it replaces the function object wherever a cbindex module
holds it, so a call through a by-name import (``cli`` imports
``load_dataset``, ``pipeline`` imports ``standardize``) is traced as
well as a call through the defining module.  Spans stay in memory, each
with the id of the span that was open when it started, and counters are
read from return values (``FitMeta``, ``IntervalEstimate.n_failed``,
``OptimismResult.n_failed``).  Nothing under ``src/`` changes; the
wrappers are removed when the ``installed`` block ends.

Calls run in one thread, so a span's children are nested and
non-overlapping, and its self time is its duration minus the sum of its
children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pickle
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced call.  The span name is the module
# name without the package and without a leading underscore (metric
# names must start with a letter), then the attribute.
TARGETS = (
    ("cbindex.nbglm", "fit"),
    ("cbindex.nbglm", "fit_alternating"),
    ("cbindex.nbglm", "estimate_dispersion"),
    ("cbindex.nbglm", "cross_validate_lambda"),
    ("cbindex.nbglm", "default_lambda_grid"),
    ("cbindex.nbglm", "build_design_matrix"),
    ("cbindex.trial_data", "load_dataset"),
    ("cbindex.trial_data", "standardize"),
    ("cbindex.trial_data", "TrialDataset.subset"),
    ("cbindex.benefit", "predicted_benefit"),
    ("cbindex.benefit", "cb_parametric"),
    ("cbindex.benefit", "cb_semiparametric"),
    ("cbindex.pipeline", "BenefitPipeline.estimate"),
    ("cbindex.pipeline", "BenefitPipeline.evaluate"),
    ("cbindex.inference", "bootstrap_intervals"),
    ("cbindex.inference", "optimism_adjust_all"),
    ("cbindex.simulation", "generate_population"),
    ("cbindex.simulation", "population_cb"),
    ("cbindex.simulation", "run_simulation"),
    ("cbindex._parallel", "run_indexed"),
    ("cbindex.cli", "main"),
    ("cbindex.cli", "cmd_estimate"),
    ("cbindex.cli", "cmd_simulate"),
)

# Spans whose calls and self time are both reported; the others report
# only the figures the layer table asks for.
CALL_COUNTED = (
    "nbglm.fit", "nbglm.fit_alternating", "nbglm.estimate_dispersion",
    "nbglm.cross_validate_lambda", "nbglm.default_lambda_grid",
    "nbglm.build_design_matrix",
    "trial_data.load_dataset", "trial_data.standardize", "trial_data.TrialDataset.subset",
    "benefit.predicted_benefit", "benefit.cb_parametric", "benefit.cb_semiparametric",
    "pipeline.BenefitPipeline.estimate", "pipeline.BenefitPipeline.evaluate",
)
SELF_TIMED_ONLY = (
    "inference.bootstrap_intervals", "inference.optimism_adjust_all",
    "simulation.generate_population", "simulation.population_cb",
    "simulation.run_simulation",
    "cli.main", "cli.cmd_estimate", "cli.cmd_simulate",
)

# Metrics that count work; two traced runs of one command must agree on
# every one of them exactly.
COUNT_SUFFIXES = (
    ".calls", ".iterations", ".rounds", ".replicates", ".failed", ".tasks",
    ".shared_bytes", ".fits_per_call",
)


def span_name(module: str, attr: str) -> str:
    return f"{module.split('.')[-1].lstrip('_')}.{attr}"


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "extra")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        out = {"id": self.id, "parent": self.parent, "name": self.name,
               "start": self.start, "end": self.end}
        out.update(self.extra or {})
        return out


def _fit_counters(result, bound):
    return {"iterations": result.fit_meta.iterations,
            "converged": bool(result.fit_meta.converged)}


def _alternating_counters(result, bound):
    return {"rounds": result.fit_meta.dispersion_rounds}


def _load_counters(result, bound):
    return {"rows": result.n + result.n_missing_excluded}


def _interval_counters(result, bound):
    # One replicate per estimator kind is one attempt.
    return {"replicates": sum(iv.replicate_values.size + iv.n_failed for iv in result.values()),
            "failed": sum(iv.n_failed for iv in result.values())}


def _optimism_counters(result, bound):
    return {"replicates": sum(r.n_replicates + r.n_failed for r in result.values()),
            "failed": sum(r.n_failed for r in result.values())}


def _parallel_counters(result, bound):
    # The shared state is pickled after the run, outside every span.
    return {"tasks": len(bound.arguments["indices"]), "shared": bound.arguments["shared"]}


COUNTERS = {
    "nbglm.fit": _fit_counters,
    "nbglm.fit_alternating": _alternating_counters,
    "trial_data.load_dataset": _load_counters,
    "inference.bootstrap_intervals": _interval_counters,
    "inference.optimism_adjust_all": _optimism_counters,
    "parallel.run_indexed": _parallel_counters,
}


class Tracer:
    """Records one span per traced call while :meth:`installed` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name)
        signature = inspect.signature(fn) if counters is not None else None
        spans, open_ids, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), open_ids[-1] if open_ids else None, name)
            spans.append(span)
            open_ids.append(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_ids.pop()
            if counters is not None:
                span.extra = counters(result, signature.bind(*args, **kwargs))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        restore = []
        try:
            for module_name, attr in TARGETS:
                module = importlib.import_module(module_name)
                name = span_name(module_name, attr)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    restore.append((owner, method, original))
                    setattr(owner, method, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "cbindex" and not mod_name.startswith("cbindex."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def finish(self) -> None:
        """Replace kept shared state by its pickled size."""
        for span in self.spans:
            if span.extra and "shared" in span.extra:
                shared = span.extra.pop("shared")
                span.extra["shared_bytes"] = len(pickle.dumps(shared, pickle.HIGHEST_PROTOCOL))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures from one traced run's spans."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    sums: dict[str, float] = defaultdict(float)
    by_id = {span.id: span for span in spans}
    fits_in_cv = 0
    for span in spans:
        calls[span.name] += 1
        self_s[span.name] += span.duration - child_time[span.id]
        for key, value in (span.extra or {}).items():
            sums[f"{span.name}.{key}"] += value
        if span.name == "nbglm.fit":
            parent = span.parent
            while parent is not None:
                if by_id[parent].name == "nbglm.cross_validate_lambda":
                    fits_in_cv += 1
                    break
                parent = by_id[parent].parent

    out: dict[str, float] = {}
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in SELF_TIMED_ONLY:
        out[f"{name}.self_s"] = self_s[name]
    fits = calls["nbglm.fit"]
    iterations = sums["nbglm.fit.iterations"]
    out["nbglm.fit.iterations"] = iterations
    out["nbglm.fit.s_per_iter"] = self_s["nbglm.fit"] / iterations if iterations else 0.0
    out["nbglm.fit.converged_share"] = sums["nbglm.fit.converged"] / fits if fits else 0.0
    out["nbglm.fit_alternating.rounds"] = sums["nbglm.fit_alternating.rounds"]
    cv_calls = calls["nbglm.cross_validate_lambda"]
    out["nbglm.cross_validate_lambda.fits_per_call"] = fits_in_cv / cv_calls if cv_calls else 0.0
    load_s = self_s["trial_data.load_dataset"]  # it has no traced children
    out["trial_data.load_dataset.rows_per_s"] = (
        sums["trial_data.load_dataset.rows"] / load_s if load_s else 0.0
    )
    for name in ("inference.bootstrap_intervals", "inference.optimism_adjust_all"):
        out[f"{name}.replicates"] = sums[f"{name}.replicates"]
        out[f"{name}.failed"] = sums[f"{name}.failed"]
    out["parallel.run_indexed.calls"] = calls["parallel.run_indexed"]
    out["parallel.run_indexed.tasks"] = sums["parallel.run_indexed.tasks"]
    out["parallel.run_indexed.shared_bytes"] = sums["parallel.run_indexed.shared_bytes"]
    return out
