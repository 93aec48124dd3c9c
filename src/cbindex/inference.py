"""Resampling-based uncertainty and optimism correction.

Confidence intervals come from the nonparametric bootstrap: subjects are
resampled with replacement and the *entire* estimation pipeline --
standardization, penalty selection, dispersion profiling, fitting, and
the concentration estimators -- is repeated on every replicate.
Optimism correction quantifies in-sample flattery: a model fitted to a
bootstrap sample is scored both on that sample and on the original one,
and the average gap is subtracted from the naive estimate.

Replicates are fitted as their subjects' counts over the original
sample's standardized design, in batches with the other replicates of
their chunk (``BenefitPipeline.estimate_resamples``).  The ML fit is
equivariant under the affine map a standardization applies to the
covariates (the interaction design spans the same columns either way),
so its benefits do not depend on which sample the scaling came from,
and an ML replicate uses the original one.  Ridge penalizes the
standardized coefficients, so a ridge replicate, its cross-validation
folds included, works in the coordinates of its own standardization:
it takes its own pipeline's Newton steps, and chooses its penalty, up to
rounding.  Its checks and estimators read its draw, never a copy of it,
and rank tied subjects by position in the draw, as the copy would.

A chunk holds a fixed run of replicate indices (see ``_chunk_size``);
every chunk is a pure function of (data, master seed, chunk index), so
runs are reproducible and independent of worker count.
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
# At most this many replicates per task, and per batch.  The chunk of a
# replicate is fixed, so its batch, and its rounding, do not depend on the
# worker count; small, because every member of a batch holds its weights,
# means and working arrays, and a larger batch gains little more.
_CHUNK = 10
# Fewer replicates per chunk when their batch members would hold more
# design rows than this: a batch's cost grows faster than its member count.
_BATCH_ROWS = 20_000


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


def _fold_seed(seed: int, key: int) -> int:
    """Pipeline fold seed of key 0 (the original-sample run) or r + 1
    (replicate r), a pure function of the master seed."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(key, 1)).generate_state(1)[0])


def _resample(n: int, seed: int, r: int) -> np.ndarray:
    """Subject indices of replicate ``r``'s bootstrap sample of ``n``."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r + 1, 0)))
    return rng.integers(0, n, size=n)


def _chunk_size(pipeline: BenefitPipeline, n: int) -> int:
    """Replicates per task: ``estimate_resamples`` fits a chunk's
    resamples as batches of one member per replicate for maximum
    likelihood, and one per cross-validation fold for ridge."""
    members = pipeline.cv_folds if pipeline.model == "ridge" else 1
    return max(1, min(_CHUNK, _BATCH_ROWS // (members * n)))


def _chunk_task(c: int) -> list[dict[str, tuple[float, float | None, bool] | None]]:
    """``_replicate_scores`` of chunk ``c`` of the replicates."""
    data, pipeline, seed, score_original, replicates = _parallel.shared_state()
    chunk = _chunk_size(pipeline, data.n)
    indices = range(c * chunk, min(replicates, (c + 1) * chunk))
    draws = [_resample(data.n, seed, r) for r in indices]
    seeds = [_fold_seed(seed, r + 1) for r in indices]
    fits = pipeline.estimate_resamples(data, draws, seeds)
    return [_replicate_scores(fitted, pipeline, data, score_original) for fitted in fits]


def _replicate_scores(
    fitted: PipelineResult | CbIndexError,
    pipeline: BenefitPipeline,
    data: TrialDataset,
    score_original: bool,
) -> dict[str, tuple[float, float | None, bool] | None]:
    """One replicate's pipeline result, or the error that ended it, scored.

    Per estimator kind: (cb within the sample, cb of the same model
    applied to the original data, whether either is out of range), or
    None when the kind failed.  The original data are scored only when
    ``score_original`` is set; otherwise the second value is None.
    """
    if isinstance(fitted, CbIndexError):
        return dict.fromkeys(ESTIMATOR_KINDS)
    try:
        applied = pipeline.evaluate(fitted, data) if score_original else None
    except CbIndexError:
        return dict.fromkeys(ESTIMATOR_KINDS)
    out = {}
    for kind in ESTIMATOR_KINDS:
        scored = [res.estimates.get(kind) for res in (fitted, applied) if res is not None]
        if any(est is None for est in scored):
            out[kind] = None
        else:
            on_original = scored[1].cb if score_original else None
            out[kind] = (scored[0].cb, on_original, any(est.out_of_range for est in scored))
    return out


def _run_replicates(
    data: TrialDataset,
    pipeline: BenefitPipeline,
    cfg: BootstrapConfig,
    original: PipelineResult | None,
    score_original: bool,
) -> list[tuple[str, float, list]]:
    """(kind, point estimate, every replicate's ``_replicate_scores`` entry
    for that kind) for each kind estimated on the original data.

    The point estimates come from ``original``, the pipeline's result on
    ``data``; omitted, the pipeline is first run on the original data,
    and a failure there is a hard error.
    """
    if original is None:
        original = pipeline.estimate(data, seed=_fold_seed(cfg.seed, 0))
    shared = (data, pipeline, cfg.seed, score_original, cfg.replicates)
    chunks = range(-(-cfg.replicates // _chunk_size(pipeline, data.n)))
    rows = [
        row
        for chunk in _parallel.run_indexed(_chunk_task, chunks, cfg.workers, shared)
        for row in chunk
    ]
    return [
        (kind, original.cb_value(kind), [row[kind] for row in rows])
        for kind in ESTIMATOR_KINDS
        if original.cb_value(kind) is not None
    ]


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
    """Percentile bootstrap intervals for every estimator kind with a
    point estimate, at once.

    The point estimates come from ``original``, the pipeline's result on
    ``data``; omitted, the pipeline is first run on the original data (a
    failure there is a hard error).  A kind with no point estimate there
    gets no interval and cannot fail the run; one that has one fails it
    (``EstimationError``) when every replicate fails it.  Replicates
    that fail an estimator are dropped from that estimator's interval
    and counted; raw values out of range are kept.  More than 20% drops
    triggers a reliability warning and marks the interval.
    """
    alpha = (1.0 - CI_LEVEL) / 2.0
    out: dict[str, IntervalEstimate] = {}
    for kind, point, entries in _run_replicates(data, pipeline, cfg, original, False):
        values = np.array([e[0] for e in entries if e is not None], dtype=np.float64)
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


def optimism_adjust_all(
    data: TrialDataset,
    pipeline: BenefitPipeline,
    cfg: BootstrapConfig,
    original: PipelineResult | None = None,
) -> dict[str, OptimismResult]:
    """Optimism correction for every estimator kind with a point estimate
    in ``original`` (see ``bootstrap_intervals``).

    Per replicate: refit the full pipeline on a bootstrap sample, score
    the concentration index within that sample and again by applying the
    same fitted model to the original sample, and average the gap.
    """
    out: dict[str, OptimismResult] = {}
    for kind, point, entries in _run_replicates(data, pipeline, cfg, original, True):
        # a failed or out-of-range pair is dropped and counted
        pairs = [e for e in entries if e is not None and not e[2]]
        if not pairs:
            raise EstimationError(
                f"every optimism replicate failed for the {kind} estimator"
            )
        optimism = float(np.mean([within - on_original for within, on_original, _ in pairs]))
        out[kind] = OptimismResult(
            estimator_kind=kind,
            unadjusted=point,
            optimism=optimism,
            adjusted=point - optimism,
            n_replicates=len(pairs),
            n_failed=cfg.replicates - len(pairs),
        )
    return out
