"""Per-subject treatment benefit and its concentration across subjects.

Benefit for a covariate profile is the expected number of events
prevented by treatment over one year: the difference between the
untreated and treated model rates at unit time.  Given a benefit
distribution B, the quantities computed here are

    delta_b = E{max(B1, B2)} - E(B) = 0.5 * E|B1 - B2|
    gini_b  = E|B1 - B2| / (2 * E(B))
    cb      = 1 - E(B) / E{max(B1, B2)} = gini_b / (1 + gini_b)

where B1, B2 are independent draws.  ``cb`` is the fraction of the
pair-allocation benefit lost by ignoring covariates; it is 0 for a
constant benefit, at most 0.5 when every benefit is non-negative, and
can approach 1 under qualitative interaction (benefit of mixed sign).

Two estimation routes are provided: a parametric one using model
predictions only, and a semi-parametric one where prefix sums of
predicted benefit are replaced by observed arm-wise person-time event
rates among the top-k predicted-benefit subjects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateEstimateError,
    EstimatorUndefinedError,
    InsufficientDataError,
    NumericalError,
    OrientationError,
)
from .nbglm import FittedBenefitModel
from .trial_data import TrialDataset, _unit_columns

__all__ = [
    "BenefitVector",
    "CbEstimate",
    "PartialSumCurve",
    "BenefitCurve",
    "predicted_benefit",
    "mean_benefit",
    "pair_max_parametric",
    "delta_b",
    "gini_b",
    "cb_parametric",
    "partial_sums_parametric",
    "semiparametric_partial_sums",
    "observed_mean_benefit",
    "cb_semiparametric",
    "benefit_curve",
]


@dataclass
class BenefitVector:
    """One benefit per subject of a dataset in ``values``, and a sample of
    those subjects ranked: ``order`` holds the sample's subject indices, a
    subject once per copy, such that ``values[order]`` is non-increasing."""

    values: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.order = np.asarray(self.order, dtype=np.intp)
        if self.values.ndim != 1:
            raise ValueError("benefit values must be a 1-d vector")
        if self.order.ndim != 1 or not np.all((self.order >= 0) & (self.order < self.values.size)):
            raise ValueError("order must index the benefit values")
        if np.any(np.diff(self.sorted_values) > 0):
            raise ValueError("order must sort values descending")

    @classmethod
    def from_values(cls, values: np.ndarray | Sequence[float]) -> "BenefitVector":
        """Every subject once, ranked descending, ties by original index."""
        values = np.asarray(values, dtype=np.float64)
        return cls(values=values, order=np.argsort(-values, kind="stable"))

    @property
    def n(self) -> int:
        return self.order.size

    @property
    def sorted_values(self) -> np.ndarray:
        return self.values[self.order]


def _sample_sum(bv: BenefitVector, x: np.ndarray, rows: np.ndarray | bool = True):
    """Sum of ``x[i]`` over the copies of the subjects i in ``rows`` that
    ``bv``'s sample holds, in subject order: ``x[rows].sum()`` for all once."""
    counts = np.bincount(bv.order, minlength=bv.values.size)
    rows = rows & (counts > 0)
    return (x[rows] * counts[rows]).sum()


@dataclass(frozen=True)
class CbEstimate:
    """Concentration summary: components and the index itself.

    ``delta_b`` always equals ``pair_max - mean_benefit``;
    ``gini_b`` may be ``inf`` when the mean benefit is zero.
    ``out_of_range`` marks raw semi-parametric values outside [0, 1],
    which are reported unclamped.
    """

    mean_benefit: float
    pair_max: float
    delta_b: float
    gini_b: float
    cb: float
    estimator_kind: str
    out_of_range: bool = False


@dataclass(frozen=True)
class PartialSumCurve:
    """Running sums S(k) of benefit over the top-k ranked subjects."""

    k: np.ndarray
    values: np.ndarray
    kind: str

    def sum(self) -> float:
        return float(self.values.sum())


@dataclass(frozen=True)
class BenefitCurve:
    """benefit(p): mean per-capita benefit of treating the top fraction p."""

    p: np.ndarray
    values: np.ndarray

    def integral(self) -> float:
        """Trapezoid integral over the stored grid, anchored at p=0."""
        p = np.concatenate([[0.0], self.p])
        v = np.concatenate([[0.0], self.values])
        return float(np.trapezoid(v, p))


def predicted_benefit(
    model: FittedBenefitModel, d: TrialDataset, draw: np.ndarray | None = None
) -> BenefitVector:
    """Model-estimated benefit per subject: untreated minus treated rate
    at one year, on the dataset's raw covariate scale, ranked over the
    sample ``draw`` (all once by default), ties by position in the draw.

    Raises
    ------
    NumericalError
        If a sampled subject's benefit is not finite (a rate overflows),
        naming the first such subject and its linear predictors.
    """
    if d.m != model.m:
        raise ValueError(f"model expects {model.m} covariates, dataset has {d.m}")
    z = model.scaling.transform(d.covariates)
    eta0 = model.intercept + z @ model.main_effects
    eta1 = eta0 + model.treatment_effect + z @ model.interactions
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(eta0) - np.exp(eta1)
    sample = values if draw is None else values[draw]
    bad = np.flatnonzero(~np.isfinite(sample))
    if bad.size:
        i = int(bad[0] if draw is None else draw[bad[0]])
        raise NumericalError(
            f"benefit of subject {d.ids[i]!r} is not finite: its linear predictors are "
            f"{eta0[i]:.6g} untreated and {eta1[i]:.6g} treated (exp overflows above 709.78)"
        )
    order = np.argsort(-sample, kind="stable")
    return BenefitVector(values=values, order=order if draw is None else draw[order])


def _readout(bv: BenefitVector, pairs: bool = True) -> tuple[float, float, int]:
    """The mean benefit and the pairwise maximum of ``bv``'s sample, both
    times 2**k, and k, which brings benefits far from unit size near it: the
    power-of-two rescale is exact, and keeps the sums from underflowing
    (subnormal benefits) or overflowing.  The mean sums the sample in subject
    order; the pairwise maximum averages max(B_i, B_j) over all n^2 ordered
    pairs including i=j, via the ranked partial sums, the form that agrees
    exactly with a brute-force pairwise mean.  ``pairs`` asks for two subjects.
    """
    n = bv.n
    if n < 1:
        raise InsufficientDataError("mean benefit needs at least one subject")
    if pairs and n < 2:
        raise InsufficientDataError("pairwise maximum needs at least two subjects")
    ranked, k = _unit_columns(bv.sorted_values[:, None])
    ranked, k = ranked[:, 0], int(k[0])
    if ranked[0] == ranked[-1]:
        # n copies of c: the mean and the maximum of equals are c, with no summation
        # rounding; keeps the constant-vector identities (delta 0, index 0) exact
        return float(ranked[0]), float(ranked[0]), k
    with np.errstate(over="ignore"):  # a subject outside the sample may overflow
        mean = float(_sample_sum(bv, np.ldexp(bv.values, k) if k else bv.values)) / n
    return mean, _pair_max(float(np.cumsum(ranked).sum()), mean, n), k


def _pair_max(partial_sum_total: float, mean: float, n: int) -> float:
    """E{max(B1, B2)} from the total of the partial sums S(1..n) and the mean."""
    return 2.0 * partial_sum_total / n**2 - mean / n


def mean_benefit(bv: BenefitVector) -> float:
    mean, _, k = _readout(bv, pairs=False)
    return math.ldexp(mean, -k)


def pair_max_parametric(bv: BenefitVector) -> float:
    """Mean of max(B_i, B_j) over all ordered pairs of subjects."""
    _, pair_max, k = _readout(bv)
    return math.ldexp(pair_max, -k)


def delta_b(bv: BenefitVector) -> float:
    """Expected gain of treating the better of a random pair instead of
    a random member; equals half the mean absolute pairwise difference."""
    mean, pair_max, k = _readout(bv)
    return math.ldexp(pair_max - mean, -k)


def _gini(mean: float, pair_max: float) -> float:
    """The Gini from the mean benefit and the pairwise maximum: their
    difference over the mean, 0 without spread and ``inf`` at a zero mean."""
    d = pair_max - mean
    if d == 0:
        return 0.0
    if mean == 0:
        return math.inf
    return d / mean


def gini_b(bv: BenefitVector) -> float:
    """Mean absolute pairwise difference over twice the mean benefit.

    Returns 0 for constant vectors (including all-zero) and ``inf``
    when the mean benefit is exactly zero with any spread; with mixed
    signs it may exceed 1.
    """
    mean, pair_max, _ = _readout(bv)
    return _gini(mean, pair_max)


def _cb_estimate(kind: str, mean: float, pair_max: float, k: int = 0) -> CbEstimate:
    """The ``kind`` estimate from the mean benefit and a positive pairwise
    maximum, both times 2**k; a semi-parametric index outside [0, 1] is
    flagged."""
    cb = 1.0 - mean / pair_max
    return CbEstimate(
        mean_benefit=math.ldexp(mean, -k),
        pair_max=math.ldexp(pair_max, -k),
        delta_b=math.ldexp(pair_max - mean, -k),
        gini_b=_gini(mean, pair_max),
        cb=cb,
        estimator_kind=kind,
        out_of_range=kind == "semiparametric" and not 0.0 <= cb <= 1.0,
    )


def cb_parametric(bv: BenefitVector) -> CbEstimate:
    """Concentration index from model-predicted benefits.

    Requires a non-negative mean benefit (labels oriented so treatment
    helps on average).  A zero mean with positive spread gives exactly
    1; a constant vector gives exactly 0.

    Raises
    ------
    OrientationError
        If the mean benefit is negative.
    DegenerateEstimateError
        If both the mean and the pairwise maximum are zero (constant
        zero benefit), where the index is undefined.
    """
    mean, pair_max, k = _readout(bv)
    if mean < 0:
        raise OrientationError(math.ldexp(mean, -k))
    if pair_max <= 0:
        raise DegenerateEstimateError("pairwise maximum benefit is non-positive; index undefined")
    est = _cb_estimate("parametric", mean, pair_max, k)
    if math.isfinite(g := est.gini_b):
        check = g / (1.0 + g)
        if abs(est.cb - check) > 1e-12 * max(1.0, abs(est.cb)):
            raise ArithmeticError(
                f"internal identity violated: cb={est.cb!r} vs gini route {check!r}"
            )
    return est


def partial_sums_parametric(bv: BenefitVector) -> PartialSumCurve:
    s = np.cumsum(bv.sorted_values)
    return PartialSumCurve(k=np.arange(1, bv.n + 1), values=s, kind="parametric")


def semiparametric_partial_sums(d: TrialDataset, bv: BenefitVector) -> PartialSumCurve:
    """Observed-outcome analogue of the benefit partial sums.

    Subjects are ranked by predicted benefit; among the top k,
    S(k) = k * (arm-0 event rate - arm-1 event rate), with rates as
    events per person-year.  While one arm has not yet appeared in the
    prefix, its rate is filled by carrying its first defined value
    backward.  A rate that overflows is returned as it is.

    Raises
    ------
    ValueError
        If ``bv`` does not rank a sample of ``d``'s subjects.
    EstimatorUndefinedError
        If either arm is absent from the sample.
    """
    if bv.values.size != d.n:
        raise ValueError("the benefits do not index the dataset's subjects")
    order = bv.order
    a, y, t = d.treatment[order], d.events[order].astype(np.float64), d.time[order]
    if a.size == 0 or a.min() == a.max():
        raise EstimatorUndefinedError("semi-parametric estimator needs subjects in both arms")
    rates = []
    with np.errstate(over="ignore", invalid="ignore"):  # named by ``cb_semiparametric``
        for arm in (a == 0, a == 1):
            cum_y, cum_t = np.cumsum(np.where(arm, y, 0.0)), np.cumsum(np.where(arm, t, 0.0))
            first = np.argmax(cum_t > 0)  # the arm's first ranked subject
            cum_y[:first], cum_t[:first] = cum_y[first], cum_t[first]
            rates.append(cum_y / cum_t)
        k = np.arange(1, bv.n + 1, dtype=np.float64)
        values = k * (rates[0] - rates[1])
    return PartialSumCurve(k=k.astype(np.intp), values=values, kind="semiparametric")


def observed_mean_benefit(d: TrialDataset, bv: BenefitVector) -> float:
    """Observed arm-0 minus arm-1 event rate of the sample ``bv`` ranks, in
    events per unit of follow-up time; NaN when the sample lacks an arm, and
    not finite when an arm's events overflow its total follow-up."""
    if bv.values.size != d.n:
        raise ValueError("the benefits do not index the dataset's subjects")
    with np.errstate(over="ignore", invalid="ignore"):  # 0/0, x/tiny, inf - inf
        r0, r1 = (_sample_sum(bv, d.events, arm) / _sample_sum(bv, d.time, arm)
                  for arm in (d.treatment == 0, d.treatment == 1))
        return float(r0 - r1)


def cb_semiparametric(d: TrialDataset, bv: BenefitVector) -> CbEstimate:
    """Concentration index anchored in observed outcomes.

    The mean benefit is the raw difference in person-time event rates
    between arms; the pairwise maximum reuses the parametric formula
    with observed prefix rates in place of predicted partial sums.
    Values outside [0, 1] are reported raw and flagged, never clamped,
    so resampling distributions stay unbiased.

    Raises
    ------
    EstimatorUndefinedError
        If either arm is absent from the sample.
    NumericalError
        If a partial sum, or their total, is not finite.
    DegenerateEstimateError
        If the estimated pairwise maximum is non-positive, leaving the
        index undefined.
    """
    values = semiparametric_partial_sums(d, bv).values
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(total := float(values.sum())):
            k = np.argmax(~np.isfinite(np.cumsum(values))) + 1
            raise NumericalError(f"semi-parametric partial sums are not finite from k={k}: "
                                 "the observed event rates of the top-ranked subjects overflow")
    mean = observed_mean_benefit(d, bv)
    pair_max = _pair_max(total, mean, bv.n)
    if pair_max <= 0:
        raise DegenerateEstimateError(
            f"semi-parametric pairwise maximum {pair_max:.6g} is non-positive"
        )
    return _cb_estimate("semiparametric", mean, pair_max)


def benefit_curve(bv: BenefitVector, grid: Sequence[float] | np.ndarray) -> BenefitCurve:
    """Per-capita benefit of treating the top fraction p of subjects.

    Interpolates the running mean of sorted benefits: at p = k/n the
    value is (1/n) * sum of the k largest benefits, with linear
    interpolation between those knots, which makes the integral over
    p in (0, 1] exactly half the pairwise maximum up to grid error.
    """
    p = np.asarray(grid, dtype=np.float64)
    if p.size == 0:
        raise ValueError("empty evaluation grid")
    if np.any(np.diff(p) < 0):
        raise ValueError("grid must be sorted ascending")
    if np.any((p <= 0) | (p > 1)):
        raise ValueError("grid values must lie in (0, 1]")
    n = bv.n
    knots = np.arange(n + 1, dtype=np.float64)
    sums = np.concatenate([[0.0], np.cumsum(bv.sorted_values)])
    values = np.interp(p * n, knots, sums) / n
    return BenefitCurve(p=p, values=values)
