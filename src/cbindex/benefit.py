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
from .trial_data import TrialDataset

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
    """Estimated benefits in subject order plus their descending ranking.

    ``order`` is a permutation such that ``values[order]`` is
    non-increasing; ties keep original subject order.  ``subject_ids``,
    when given, labels the subjects in the same order.
    """

    values: np.ndarray
    order: np.ndarray
    subject_ids: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.order = np.asarray(self.order, dtype=np.intp)
        if self.values.ndim != 1:
            raise ValueError("benefit values must be a 1-d vector")
        n = self.values.size
        order = self.order
        if order.shape != (n,) or (
            n > 0
            and (order.min() < 0 or order.max() >= n or np.bincount(order, minlength=n).max() > 1)
        ):
            raise ValueError("order must be a permutation of subject indices")
        s = self.values[self.order]
        if np.any(np.diff(s) > 0):
            raise ValueError("order must sort values descending")
        if self.subject_ids is not None and len(self.subject_ids) != self.values.size:
            raise ValueError("subject_ids must align with values")

    @classmethod
    def from_values(
        cls,
        values: np.ndarray | Sequence[float],
        subject_ids: Sequence[str] | None = None,
    ) -> "BenefitVector":
        """Rank benefits descending, ties by original index."""
        values = np.asarray(values, dtype=np.float64)
        order = np.argsort(-values, kind="stable")
        ids = list(subject_ids) if subject_ids is not None else None
        return cls(values=values, order=order, subject_ids=ids)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def sorted_values(self) -> np.ndarray:
        return self.values[self.order]


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


def predicted_benefit(model: FittedBenefitModel, d: TrialDataset) -> BenefitVector:
    """Model-estimated benefit per subject: untreated minus treated rate
    at one year, on the dataset's raw covariate scale.

    Raises
    ------
    NumericalError
        If a subject's benefit is not finite (a rate overflows), naming
        the first such subject and its linear predictors.
    """
    if d.m != model.m:
        raise ValueError(f"model expects {model.m} covariates, dataset has {d.m}")
    z = model.scaling.transform(d.covariates)
    eta0 = model.intercept + z @ model.main_effects
    eta1 = eta0 + model.treatment_effect + z @ model.interactions
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(eta0) - np.exp(eta1)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise NumericalError(
            f"benefit of subject {d.ids[i]!r} is not finite: its linear predictors are "
            f"{eta0[i]:.6g} untreated and {eta1[i]:.6g} treated (exp overflows above 709.78)"
        )
    return BenefitVector.from_values(values, subject_ids=d.ids)


def mean_benefit(bv: BenefitVector) -> float:
    if bv.n < 1:
        raise InsufficientDataError("mean benefit needs at least one subject")
    values = bv.values
    if values[0] == values.min() == values.max():
        # the mean of n copies of c is c, with no summation rounding;
        # keeps the constant-vector identities (delta 0, index 0) exact
        return float(values[0])
    return float(values.mean())


def pair_max_parametric(bv: BenefitVector) -> float:
    """Mean of max(B_i, B_j) over pairs of subjects, via sorted partial sums.

    Averages over all n^2 ordered pairs including i=j, the form that
    agrees exactly with a brute-force pairwise mean.
    """
    n = bv.n
    if n < 2:
        raise InsufficientDataError("pairwise maximum needs at least two subjects")
    sorted_values = bv.sorted_values
    if sorted_values[0] == sorted_values[-1]:
        # constant vector: the maximum of equals is the value itself,
        # exactly, with no summation rounding
        return float(sorted_values[0])
    sum_s = float(np.cumsum(sorted_values).sum())
    mean = float(bv.values.mean())
    return 2.0 * sum_s / n**2 - mean / n


def delta_b(bv: BenefitVector) -> float:
    """Expected gain of treating the better of a random pair instead of
    a random member; equals half the mean absolute pairwise difference."""
    return pair_max_parametric(bv) - mean_benefit(bv)


def _unit_scaled(bv: BenefitVector) -> tuple[BenefitVector, int]:
    """``bv`` times 2**k, with k bringing benefits far from unit size near it.

    The index and the Gini are scale-free, and a power-of-two rescale is
    exact; it keeps their means and partial sums from underflowing
    (subnormal benefits) or overflowing.  k is 0 for benefits of ordinary
    size, which are returned unchanged.
    """
    amax = float(np.max(np.abs(bv.values))) if bv.n else 0.0
    if amax == 0 or 2.0**-500 < amax < 2.0**500:
        return bv, 0
    k = -math.frexp(amax)[1]
    return BenefitVector(values=np.ldexp(bv.values, k), order=bv.order,
                         subject_ids=bv.subject_ids), k


def gini_b(bv: BenefitVector) -> float:
    """Mean absolute pairwise difference over twice the mean benefit.

    Returns 0 for constant vectors (including all-zero) and ``inf``
    when the mean benefit is exactly zero with any spread; with mixed
    signs it may exceed 1.
    """
    bv, _ = _unit_scaled(bv)
    d = delta_b(bv)
    if d == 0:
        return 0.0
    m = mean_benefit(bv)
    if m == 0:
        return math.inf
    return d / m


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
    bv, k = _unit_scaled(bv)
    m = mean_benefit(bv)
    pm = pair_max_parametric(bv)
    if m < 0:
        raise OrientationError(math.ldexp(m, -k))
    if pm <= 0:
        raise DegenerateEstimateError(
            "pairwise maximum benefit is non-positive; index undefined"
        )
    cb = 1.0 - m / pm
    g = gini_b(bv)
    if math.isfinite(g):
        check = g / (1.0 + g)
        if abs(cb - check) > 1e-12 * max(1.0, abs(cb)):
            raise ArithmeticError(
                f"internal identity violated: cb={cb!r} vs gini route {check!r}"
            )
    return CbEstimate(
        mean_benefit=math.ldexp(m, -k),
        pair_max=math.ldexp(pm, -k),
        delta_b=math.ldexp(pm - m, -k),
        gini_b=g,
        cb=cb,
        estimator_kind="parametric",
    )


def partial_sums_parametric(bv: BenefitVector) -> PartialSumCurve:
    s = np.cumsum(bv.sorted_values)
    return PartialSumCurve(k=np.arange(1, bv.n + 1), values=s, kind="parametric")


def semiparametric_partial_sums(d: TrialDataset, bv: BenefitVector) -> PartialSumCurve:
    """Observed-outcome analogue of the benefit partial sums.

    Subjects are ranked by predicted benefit; among the top k,
    S(k) = k * (arm-0 event rate - arm-1 event rate), with rates as
    events per person-year.  While one arm has not yet appeared in the
    prefix, its rate is filled by carrying its first defined value
    backward.

    Raises
    ------
    EstimatorUndefinedError
        If either arm is absent from the whole dataset.
    """
    if not d.has_both_arms:
        raise EstimatorUndefinedError(
            "semi-parametric estimator needs subjects in both arms"
        )
    order = bv.order
    a = d.treatment[order]
    y = d.events[order].astype(np.float64)
    t = d.time[order]
    is0 = a == 0
    cum_y0 = np.cumsum(np.where(is0, y, 0.0))
    cum_t0 = np.cumsum(np.where(is0, t, 0.0))
    cum_y1 = np.cumsum(np.where(~is0, y, 0.0))
    cum_t1 = np.cumsum(np.where(~is0, t, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        r0 = np.where(cum_t0 > 0, cum_y0 / np.where(cum_t0 > 0, cum_t0, 1.0), np.nan)
        r1 = np.where(cum_t1 > 0, cum_y1 / np.where(cum_t1 > 0, cum_t1, 1.0), np.nan)
    for rates in (r0, r1):
        defined = np.flatnonzero(~np.isnan(rates))
        first = defined[0]
        rates[:first] = rates[first]
    k = np.arange(1, d.n + 1, dtype=np.float64)
    return PartialSumCurve(k=k.astype(np.intp), values=k * (r0 - r1), kind="semiparametric")


def observed_mean_benefit(d: TrialDataset) -> float:
    """Observed arm-0 minus arm-1 event rate, in events per unit of
    follow-up time; ``d`` must hold both arms."""
    r0, r1 = (d.events[d.treatment == a].sum() / d.time[d.treatment == a].sum() for a in (0, 1))
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
        If either arm is absent.
    DegenerateEstimateError
        If the estimated pairwise maximum is non-positive, leaving the
        index undefined.
    """
    if not d.has_both_arms:
        raise EstimatorUndefinedError(
            "semi-parametric estimator needs subjects in both arms"
        )
    n = d.n
    e_b = observed_mean_benefit(d)
    curve = semiparametric_partial_sums(d, bv)
    pair_max = 2.0 * curve.sum() / n**2 - e_b / n
    if pair_max <= 0:
        raise DegenerateEstimateError(
            f"semi-parametric pairwise maximum {pair_max:.6g} is non-positive"
        )
    cb = 1.0 - e_b / pair_max
    dlt = pair_max - e_b
    gini = 0.0 if dlt == 0 else (math.inf if e_b == 0 else dlt / e_b)
    return CbEstimate(
        mean_benefit=e_b,
        pair_max=pair_max,
        delta_b=dlt,
        gini_b=gini,
        cb=cb,
        estimator_kind="semiparametric",
        out_of_range=not 0.0 <= cb <= 1.0,
    )


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
