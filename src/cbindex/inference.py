"""Resampling-based uncertainty and optimism correction.

Confidence intervals come from the nonparametric bootstrap: subjects are
resampled with replacement and the *entire* estimation pipeline --
standardization, penalty selection, dispersion profiling, fitting, and
the concentration estimators -- is repeated on every replicate.
Optimism correction quantifies in-sample flattery: a model fitted to a
bootstrap sample is scored both on that sample and on the original one,
and the average gap is subtracted from the naive estimate.

Every replicate is a pure function of (data, master seed, replicate
index), so runs are reproducible and independent of worker count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _parallel
from .errors import CbIndexError, EstimationError
from .pipeline import ESTIMATOR_KINDS, BenefitPipeline, PipelineResult
from .trial_data import TrialDataset

__all__ = [
    "BootstrapConfig",
    "IntervalEstimate",
    "OptimismResult",
    "bootstrap_intervals",
    "optimism_adjust_all",
]

# Coverage of every percentile interval.
CI_LEVEL = 0.95


@dataclass(frozen=True)
class BootstrapConfig:
    """Resampling settings: subjects are resampled with replacement and
    penalty selection is repeated inside every replicate."""

    replicates: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("need at least two replicates")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass
class IntervalEstimate:
    """Point estimate with a percentile bootstrap interval.

    Percentiles use the nearest-rank rule: with R sorted replicate
    values, the q-th percentile is the value at rank ceil(q * R),
    clamped to [1, R].  ``n_failed`` counts degenerate replicates that
    were dropped (orientation failures, undefined denominators,
    non-convergence).
    """

    point: float
    lower: float
    upper: float
    level: float
    replicate_values: np.ndarray
    n_failed: int
    unreliable: bool = False

    def __post_init__(self):
        self.replicate_values = np.asarray(self.replicate_values, dtype=np.float64)
        if self.lower > self.upper:
            raise ValueError("interval bounds out of order")


@dataclass
class OptimismResult:
    """Optimism-corrected concentration estimate for one estimator kind.

    ``adjusted = unadjusted - mean(within - out)`` over successful
    replicates, the standard resampling correction for in-sample
    optimism.  Replicates whose within- or out-of-sample value errored
    or carried the out-of-range flag are dropped and counted, not
    imputed, so one unstable ratio cannot dominate the mean.  The
    parametric variant is experimental: the adjustment is defined for
    model-only estimates but was designed around the outcome-anchored
    estimator.
    """

    estimator_kind: str
    unadjusted: float
    optimism: float
    adjusted: float
    n_replicates: int
    n_failed: int


def _replicate_sample(data: TrialDataset, seed: int, r: int) -> tuple[TrialDataset, int]:
    """Per-replicate bootstrap sample and pipeline fold seed, both pure
    functions of (master seed, replicate index).  Key 0 is reserved for
    the original-sample run; replicate r maps to key r + 1."""
    key = r + 1
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key, 0)))
    fold_seed = int(
        np.random.SeedSequence(entropy=seed, spawn_key=(key, 1)).generate_state(1)[0]
    )
    return data.subset(rng.integers(0, data.n, size=data.n)), fold_seed


def _original_seed(seed: int) -> int:
    """Fold seed for the original-sample run (reserved key 0)."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(0, 1)).generate_state(1)[0])


def _ci_task(r: int):
    data, pipeline, cfg = _parallel.shared_state()
    sample, fold_seed = _replicate_sample(data, cfg.seed, r)
    try:
        result = pipeline.estimate(sample, seed=fold_seed)
    except CbIndexError as exc:
        return {"error": str(exc)}
    return {kind: result.cb_value(kind) for kind in ESTIMATOR_KINDS}


def _percentile_nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    r = len(sorted_values)
    rank = min(max(math.ceil(q * r), 1), r)
    return float(sorted_values[rank - 1])


def bootstrap_intervals(
    data: TrialDataset,
    pipeline: BenefitPipeline,
    cfg: BootstrapConfig,
    original: PipelineResult | None = None,
) -> dict[str, IntervalEstimate]:
    """Percentile bootstrap intervals for both estimator kinds at once.

    The point estimates come from ``original``, the pipeline's result on
    ``data``; omitted, the pipeline is first run on the original data (a
    failure there is a hard error).  Replicates that fail an estimator
    are dropped from that estimator's interval and counted.  More than
    20% drops triggers a reliability warning and marks the interval.
    """
    if original is None:
        original = pipeline.estimate(data, seed=_original_seed(cfg.seed))
    rows = _parallel.run_indexed(
        _ci_task,
        range(cfg.replicates),
        cfg.workers,
        shared=(data, pipeline, cfg),
    )
    alpha = (1.0 - CI_LEVEL) / 2.0
    out: dict[str, IntervalEstimate] = {}
    for kind in ESTIMATOR_KINDS:
        point = original.cb_value(kind)
        if point is None:
            continue
        values = np.array(
            [row[kind] for row in rows if row.get(kind) is not None],
            dtype=np.float64,
        )
        n_failed = cfg.replicates - values.size
        if values.size == 0:
            raise EstimationError(
                f"every bootstrap replicate failed for the {kind} estimator"
            )
        unreliable = n_failed > 0.2 * cfg.replicates
        if unreliable:
            warnings.warn(
                f"{n_failed}/{cfg.replicates} bootstrap replicates degenerate "
                f"for the {kind} estimator; interval may be unreliable",
                stacklevel=2,
            )
        svals = np.sort(values)
        out[kind] = IntervalEstimate(
            point=point,
            lower=_percentile_nearest_rank(svals, alpha),
            upper=_percentile_nearest_rank(svals, 1.0 - alpha),
            level=CI_LEVEL,
            replicate_values=values,
            n_failed=n_failed,
            unreliable=unreliable,
        )
    return out


def _optimism_task(r: int):
    data, pipeline, cfg = _parallel.shared_state()
    sample, fold_seed = _replicate_sample(data, cfg.seed, r)
    try:
        fitted = pipeline.estimate(sample, seed=fold_seed)
        applied = pipeline.evaluate(fitted, data)
    except CbIndexError as exc:
        return {"error": str(exc)}
    out = {}
    for kind in ESTIMATOR_KINDS:
        w_est = fitted.estimates.get(kind)
        o_est = applied.estimates.get(kind)
        if w_est is None or o_est is None or w_est.out_of_range or o_est.out_of_range:
            out[kind] = None  # degenerate pair: dropped and counted
        else:
            out[kind] = (w_est.cb, o_est.cb)
    return out


def optimism_adjust_all(
    data: TrialDataset,
    pipeline: BenefitPipeline,
    cfg: BootstrapConfig,
    original: PipelineResult | None = None,
) -> dict[str, OptimismResult]:
    """Optimism correction for both estimator kinds.

    Per replicate: refit the full pipeline on a bootstrap sample, score
    the concentration index within that sample and again by applying the
    same fitted model to the original sample, and average the gap.
    """
    if original is None:
        original = pipeline.estimate(data, seed=_original_seed(cfg.seed))
    rows = _parallel.run_indexed(
        _optimism_task,
        range(cfg.replicates),
        cfg.workers,
        shared=(data, pipeline, cfg),
    )
    out: dict[str, OptimismResult] = {}
    for kind in ESTIMATOR_KINDS:
        point = original.cb_value(kind)
        if point is None:
            continue
        pairs = [
            row[kind]
            for row in rows
            if "error" not in row and row.get(kind) is not None
        ]
        n_failed = cfg.replicates - len(pairs)
        if not pairs:
            raise EstimationError(
                f"every optimism replicate failed for the {kind} estimator"
            )
        within = np.array([p[0] for p in pairs])
        outv = np.array([p[1] for p in pairs])
        optimism = float(np.mean(within - outv))
        out[kind] = OptimismResult(
            estimator_kind=kind,
            unadjusted=point,
            optimism=optimism,
            adjusted=point - optimism,
            n_replicates=len(pairs),
            n_failed=n_failed,
        )
    return out

