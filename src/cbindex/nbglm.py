"""Penalized negative-binomial regression with a log link and exposure offset.

The model for subject i with arm A, covariates x (already standardized),
events y, and follow-up T is

    E(y) = exp(b0 + ba*A + sum_j bj*x_j + sum_j baj*A*x_j + ln T)

with variance mu + mu^2/theta.  Coefficients are estimated by penalized
Newton steps on the observed information (at fixed dispersion), step-halved,
maximizing the log-likelihood minus an l2 penalty ``lam * sum(beta^2)`` over
every coefficient except the intercept.  Each step is halved until the
penalized objective does not increase, so the penalized deviance is
non-increasing across iterations up to rounding.  The dispersion is profiled
by Newton steps on log(theta), and the two updates are alternated to a joint
fixed point.  One kernel fits many members at once, each a weighting of the
design's rows with its own penalty: cross-validation training splits,
bootstrap resamples as subject counts (and a resample's training splits as
the counts outside a fold), or a single fit.  A member standardized
unlike the design works in its own coordinates through a p x p basis
over the design.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DispersionError,
    FoldingError,
    NumericalError,
)
from .trial_data import ScalingParams, TrialDataset

__all__ = [
    "DesignMatrix",
    "FitMeta",
    "FittedBenefitModel",
    "PRECISIONS",
    "CvResult",
    "build_design_matrix",
    "fit",
    "fit_alternating",
    "estimate_dispersion",
    "default_lambda_grid",
    "cross_validate_lambda",
]

THETA_MIN = 1e-3
THETA_MAX = 1e8

_MAX_ITER = 100
_MAX_HALVINGS = 40
# A Newton step d near the optimum lowers the objective by about d'Hd/2;
# below this size that is as small as the objective's rounding, about eps
# times the sum of its terms' sizes (a 3e-8 step of a 300-subject fit
# passed the descent test in one summation order and failed it in another).
_UNTESTED_STEP = 1e-6
_MAX_ROUNDS = 50
_THETA_INIT = 1.0
# Fit precision -> (coefficient tolerance, relative dispersion change that
# ends the alternation, dispersion search step tolerance on log theta).
# Penalty selection and Monte Carlo studies need no final-fit precision.
PRECISIONS = {"final": (1e-8, 1e-4, 1e-6), "relaxed": (1e-6, 1e-2, 5e-4)}


@dataclass
class DesignMatrix:
    """Fixed design for the interaction model.

    Columns are ordered [intercept, treatment, x_1..x_m, A*x_1..A*x_m];
    the offset is ln(T) and is never penalized or estimated.
    """

    X: np.ndarray
    offset: np.ndarray
    response: np.ndarray
    column_names: list[str]
    scaling: ScalingParams

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.offset = np.asarray(self.offset, dtype=np.float64)
        self.response = np.asarray(self.response, dtype=np.float64)
        n, p = self.X.shape
        if p % 2 != 0 or p < 4:
            raise ValueError("design must have 2m+2 columns with m >= 1")
        m = (p - 2) // 2
        if len(self.column_names) != p:
            raise ValueError("column_names must match column count")
        if self.offset.shape != (n,) or self.response.shape != (n,):
            raise ValueError("offset and response must have one entry per row")
        if not np.array_equal(self.X[:, 2 + m :], self.X[:, 1:2] * self.X[:, 2 : 2 + m]):
            raise ValueError("interaction columns must equal treatment * main effect")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def m(self) -> int:
        return (self.X.shape[1] - 2) // 2

    @property
    def treatment(self) -> np.ndarray:
        return self.X[:, 1]


@dataclass
class FitMeta:
    iterations: int
    converged: bool
    penalized_deviance: float
    deviance_path: tuple[float, ...]
    dispersion_rounds: int = 0


@dataclass
class FittedBenefitModel:
    """Coefficients plus everything needed to score new subjects."""

    coefficients: np.ndarray
    coefficient_names: list[str]
    dispersion: float
    penalty: float
    scaling: ScalingParams
    fit_meta: FitMeta

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.dispersion <= 0:
            raise ValueError("dispersion must be positive")
        if self.penalty < 0:
            raise ValueError("penalty must be non-negative")

    @property
    def m(self) -> int:
        return (self.coefficients.shape[0] - 2) // 2

    @property
    def intercept(self) -> float:
        return float(self.coefficients[0])

    @property
    def treatment_effect(self) -> float:
        return float(self.coefficients[1])

    @property
    def main_effects(self) -> np.ndarray:
        return self.coefficients[2 : 2 + self.m]

    @property
    def interactions(self) -> np.ndarray:
        return self.coefficients[2 + self.m :]

    def to_dict(self) -> dict:
        # coefficients as an ordered list: design order is part of the
        # contract and must survive key-sorted serialization
        return {
            "coefficients": [
                {"name": name, "value": float(v)}
                for name, v in zip(self.coefficient_names, self.coefficients)
            ],
            "dispersion": float(self.dispersion),
            "penalty": float(self.penalty),
            "scaling_means": [float(v) for v in self.scaling.means],
            "scaling_sds": [float(v) for v in self.scaling.sds],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FittedBenefitModel":
        entries = payload["coefficients"]
        return cls(
            coefficients=np.array([e["value"] for e in entries]),
            coefficient_names=[e["name"] for e in entries],
            dispersion=float(payload["dispersion"]),
            penalty=float(payload["penalty"]),
            scaling=ScalingParams(
                means=np.array(payload["scaling_means"]),
                sds=np.array(payload["scaling_sds"]),
            ),
            fit_meta=FitMeta(0, True, math.nan, ()),
        )

    @classmethod
    def load(cls, path: str) -> "FittedBenefitModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class CvResult:
    """Cross-validated penalty path: descending grid, loss, and choice."""

    lambda_grid: np.ndarray
    cv_error: np.ndarray
    cv_se: np.ndarray
    chosen_index: int
    folds: int

    def __post_init__(self):
        grid = np.asarray(self.lambda_grid, dtype=np.float64)
        if np.any(grid <= 0) or np.any(np.diff(grid) >= 0):
            raise ValueError("lambda grid must be positive and strictly descending")
        if np.any(np.isnan(self.cv_error)):
            raise ValueError("cv errors must not be NaN")

    @property
    def chosen_lambda(self) -> float:
        return float(self.lambda_grid[self.chosen_index])


def build_design_matrix(
    d: TrialDataset, scaling: ScalingParams | None = None
) -> DesignMatrix:
    """Assemble the interaction design from a standardized dataset.

    ``scaling`` should be the parameters returned by ``standardize`` so
    the fitted model can map raw covariates from new samples; omitted,
    an identity scaling is recorded.
    """
    a = d.treatment.astype(np.float64)
    X = np.column_stack(
        [
            np.ones(d.n),
            a,
            d.covariates,
            a[:, None] * d.covariates,
        ]
    )
    names = (
        ["intercept", "treatment"]
        + list(d.covariate_names)
        + [f"treatment:{c}" for c in d.covariate_names]
    )
    return DesignMatrix(
        X=X,
        offset=np.log(d.time),
        response=d.events.astype(np.float64),
        column_names=names,
        scaling=scaling if scaling is not None else ScalingParams.identity(d.m),
    )


def _deviance_constant(y, weights, theta):
    """Twice the saturated log-likelihood in the terms the fit's objective
    keeps, subject i weighed ``weights[i]``, so that the deviance is twice
    the objective plus this."""
    pos = y > 0
    ypos = y[pos]
    return 2.0 * float(weights[pos] @ (ypos * np.log(ypos) - (ypos + theta) * np.log1p(ypos / theta)))


def _start_coefficients(design: DesignMatrix, weights: np.ndarray) -> np.ndarray:
    """Intercept-only coefficients, one row per weight row: the log weighted
    event rate, half an event added so that an eventless member starts finite."""
    beta = np.zeros((weights.shape[0], design.p))
    beta[:, 0] = np.log((weights @ design.response + 0.5) / (weights @ np.exp(design.offset)))
    return beta


# Counts up to this are summed exactly by the dispersion profiles; the terms
# j >= _EXACT_COUNT of a larger count come from asymptotic series, whose
# first omitted terms are there below 1e-20 relative.  The loader accepts
# counts up to 2**63, so no sum may run over every j below the largest.
_EXACT_COUNT = 4096
# The dispersion search's largest step in log theta, and its step cap.
_SEARCH_MAX_STEP = 2.0
_SEARCH_MAX_STEPS = 100


def _stirling_tail(x):
    """lgamma(x) - [(x - 1/2)*log(x) - x + log(2*pi)/2], to four terms."""
    inv = 1.0 / x
    inv2 = inv * inv
    return inv * (1.0 / 12 - inv2 * (1.0 / 360 - inv2 * (1.0 / 1260 - inv2 / 1680)))


def _digamma_tail(x):
    """digamma(x) - log(x), to four terms."""
    inv = 1.0 / x
    inv2 = inv * inv
    return -0.5 * inv - inv2 * (1.0 / 12 - inv2 * (1.0 / 120 - inv2 / 252))


def _trigamma(x):
    """trigamma(x), to five terms."""
    inv = 1.0 / x
    inv2 = inv * inv
    return inv * (1.0 + inv * (0.5 + inv * (1.0 / 6 - inv2 * (1.0 / 30 - inv2 / 42))))


def _large_count_terms(v, theta):
    """The terms j in [_EXACT_COUNT, v) of the sums over j of counts ``v``
    above ``_EXACT_COUNT``: of log1p(j/theta), of theta/(theta+j) and of
    -theta^2/(theta+j)^2, from lgamma, digamma and trigamma at v+theta and
    _EXACT_COUNT+theta (Abramowitz & Stegun 6.1.41, 6.3.18, 6.4.12)."""
    c = float(_EXACT_COUNT)
    x1, x0 = v + theta, c + theta
    value = (
        (x1 - 0.5) * np.log1p(v / theta) - (x0 - 0.5) * np.log1p(c / theta) - (v - c)
        + (_stirling_tail(x1) - _stirling_tail(x0))
    )
    digamma = theta * (np.log1p((v - c) / x0) + (_digamma_tail(x1) - _digamma_tail(x0)))
    return value, digamma, theta * theta * (_trigamma(x1) - _trigamma(x0))


class _Profiles:
    """The dispersion profiles of K members at fixed means: member k's
    log-likelihood in theta, subject i weighed ``weights[k, i]`` (lgamma(y+1)
    left out), with its score and curvature in log(theta).

    For an integer count y, lgamma(y+theta) - lgamma(theta) - y*log(theta)
    is the finite sum over j < y of log1p(j/theta), and the digamma and
    trigamma terms of its derivatives are finite sums too.  A member's
    terms over all subjects are therefore sums over j weighed by its tail
    weights T_j = sum_i w_i [y_i > j], which ``np.bincount`` gives at once
    and which may be counts.  The rest is written in log1p form:

        l(theta) = sum_j T_j log1p(j/theta) - sum_i w_i (y_i+theta) log1p(mu_i/theta)
                   + sum_i w_i y_i eta_i

    where no term cancels at large theta.

    Raises
    ------
    NumericalError
        If a count or linear predictor is not finite, or a fitted mean
        overflows.
    DispersionError
        If a member has no events on its rows.
    """

    def __init__(self, y, weights, eta_full, mu):
        if not np.all(np.isfinite(y)):
            raise NumericalError("dispersion profile is not finite: an event count is not finite")
        if np.any(weights @ y == 0):
            raise DispersionError("dispersion undefined: all event counts are zero")
        # A batch's accepted steps keep every row's objective, so its means,
        # finite: only coefficients given from outside can fail these.
        if not np.all(np.isfinite(eta_full)):
            raise NumericalError("coefficients produce non-finite linear predictor")
        if not np.all(np.isfinite(mu)):
            raise NumericalError(
                f"fitted means overflow: linear predictor reaches {float(np.max(eta_full)):.4g}"
            )
        self.y, self.weights, self.mu = y, weights, mu
        self.wy_eta = (weights * (y * eta_full)).sum(axis=1)
        top = np.minimum(y, _EXACT_COUNT).astype(np.intp)
        size = int(top.max()) + 1
        below = np.array([np.bincount(top, weights=w, minlength=size) for w in weights])
        self.tail = np.cumsum(below[:, :0:-1], axis=1)[:, ::-1]
        self.j = np.arange(size - 1, dtype=np.float64)
        self.y_exact = np.minimum(y, _EXACT_COUNT)
        self.large = np.flatnonzero(y > _EXACT_COUNT)
        self.large_y, self.large_w = y[self.large], weights[:, self.large]

    def loglik(self, theta):
        """Each member's profile at its entry of ``theta``."""
        th = theta[:, None]
        ll = (self.tail * np.log1p(self.j / th)).sum(axis=1)
        ll -= (self.weights * ((self.y + th) * np.log1p(self.mu / th))).sum(axis=1)
        ll += self.wy_eta
        if self.large_y.size:
            ll += (self.large_w * _large_count_terms(self.large_y, th)[0]).sum(axis=1)
        return ll

    def slopes(self, theta, members):
        """Score g and curvature h of each member's profile in log(theta).

        A count above ``_EXACT_COUNT`` enters the subject terms at
        ``_EXACT_COUNT``; the rest of it, v, joins its terms j >=
        ``_EXACT_COUNT`` as -v*theta/(theta+mu), so that no two terms of
        the size of the count cancel."""
        th = theta[:, None]
        mu, w, y = self.mu[members], self.weights[members], self.y_exact
        jt = self.j / (th + self.j)
        tail = self.tail[members]
        g = -(tail * jt).sum(axis=1)
        h = (tail * (jt * (1.0 - jt))).sum(axis=1)
        u = mu / (th + mu)
        f = u - np.log1p(mu / th)
        g += (w * (th * f + y * u)).sum(axis=1)
        h += (w * (th * (f + u * u) - y * (u * (1.0 - u)))).sum(axis=1)
        if self.large_y.size:
            _, digamma, trigamma = _large_count_terms(self.large_y, th)
            rest = (self.large_y - _EXACT_COUNT) * (th / (th + mu[:, self.large]))
            g += (self.large_w[members] * (digamma - rest)).sum(axis=1)
            h += (self.large_w[members] * (digamma + trigamma - rest * u[:, self.large])).sum(axis=1)
        return g, h


def _search_dispersion(profiles: _Profiles, theta: np.ndarray, xatol: float) -> np.ndarray:
    """Every member's profile maximizer over [THETA_MIN, THETA_MAX], by one
    Newton search on log(theta) for all members at once (Venables & Ripley
    2002, *MASS* 7.4), each started from its entry of ``theta``.

    A step is capped at ``_SEARCH_MAX_STEP``; where the curvature is not
    negative it is a capped step in the direction of the score.  Above
    theta=1 the step is Newton's on 1/theta instead, see below.  Each
    member keeps a bracket of points where its score was positive and
    negative (its ends start just outside the range), and a step that does
    not land strictly inside it bisects the bracket instead.  A member
    stops on a step below ``xatol``.  A profile still climbing at the upper
    bound, to within 1e-8 of its maximum (no overdispersion beyond
    Poisson), returns the bound itself: that comparison is made for all
    members together, from the same tail weights.

    Raises
    ------
    NumericalError
        If a profile is not finite where the search evaluates it, or the
        search reaches its step cap.
    """
    lo, hi = math.log(THETA_MIN), math.log(THETA_MAX)
    size = theta.size
    log_theta = np.clip(np.log(theta), lo, hi)
    low, high = np.full(size, lo - 1.0), np.full(size, hi + 1.0)
    active = np.arange(size)
    for _ in range(_SEARCH_MAX_STEPS):
        sel = slice(None) if active.size == size else active
        x = log_theta[sel]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g, h = profiles.slopes(np.exp(x), sel)
            finite = np.isfinite(g) & np.isfinite(h)
            if not finite.all():
                raise NumericalError(
                    f"dispersion profile is not finite at theta={math.exp(x[~finite][0]):.6g}"
                )
            step = np.where(h < 0, -g / h, np.sign(g) * _SEARCH_MAX_STEP)
            step = np.clip(step, -_SEARCH_MAX_STEP, _SEARCH_MAX_STEP)
            # Above theta=1 the step is Newton's on 1/theta, in which the
            # profile is close to quadratic for large theta: it scales 1/theta
            # by 1 + g/(g+h), and reaches the Poisson plateau at once where
            # steps on log(theta) climb it by about one e-fold each.  Where
            # the profile is convex in 1/theta and climbing, the step goes to
            # the upper bound.
            scale = np.where(g + h < 0, 1.0 + g / (g + h), 0.0)
            step = np.where(
                (x > 0) & ((g + h < 0) | (g > 0)), -np.log(np.maximum(scale, 0.0)), step
            )
        low[sel] = np.where(g > 0, x, low[sel])
        high[sel] = np.where(g < 0, x, high[sel])
        new = np.clip(x + step, lo, hi)
        bisect = np.clip(0.5 * (low[sel] + high[sel]), lo, hi)
        new = np.where((new <= low[sel]) | (new >= high[sel]), bisect, new)
        moving = np.abs(new - x) >= xatol
        log_theta[sel] = new  # ``x`` may be a view of it
        active = active[moving]
        if active.size == 0:
            break
    else:
        raise NumericalError(f"dispersion search stopped at its {_SEARCH_MAX_STEPS}-step cap")
    theta_hat = np.exp(log_theta)
    with np.errstate(over="ignore", invalid="ignore"):
        ll_hat = profiles.loglik(theta_hat)
    if not np.all(np.isfinite(ll_hat)):
        bad = int(np.flatnonzero(~np.isfinite(ll_hat))[0])
        raise NumericalError(f"dispersion profile is not finite at theta={theta_hat[bad]:.6g}")
    ll_hi = profiles.loglik(np.full(size, THETA_MAX))
    return np.where(ll_hi >= ll_hat - 1e-8 * (1.0 + np.abs(ll_hat)), THETA_MAX, theta_hat)


def estimate_dispersion(design: DesignMatrix, coefficients: np.ndarray) -> float:
    """Profile the dispersion at fixed fitted means.

    Maximizes the likelihood in theta over [1e-3, 1e8] by Newton steps on
    the log scale, from theta=1 to the ``"final"`` step tolerance.  A
    likelihood still climbing at the upper bound (no overdispersion beyond
    Poisson) returns the bound itself.

    Raises
    ------
    DispersionError
        If every response is zero, in which case no dispersion is
        identifiable.
    NumericalError
        If a fitted mean overflows, the profile is not finite where the
        search evaluates it, or the search reaches its step cap.
    """
    batch = _Batch(design, np.ones((1, design.n)), [_THETA_INIT], coefficients)
    return float(batch.profile(slice(None), PRECISIONS["final"][2])[0])


def default_lambda_grid(
    design: DesignMatrix, weights: np.ndarray, size: int, min_ratio: float,
    scalings: Sequence[ScalingParams] | None = None,
) -> np.ndarray:
    """One descending log-spaced penalty grid per row of the (R, n)
    ``weights``, anchored at the null-model score: row r's subject counts
    give its intercept-only fit, its dispersion (1 for a row with no
    events) and its unpenalized score there, in the coordinates of
    ``scalings[r]`` when given (see ``_basis``).  The grid's top is the
    score's largest penalized component in absolute value, where every
    penalized coefficient is crushed toward zero, and it descends by
    ``min_ratio`` over ``size`` values."""
    batch = _Batch(design, weights, np.full(weights.shape[0], _THETA_INIT), scalings=scalings)
    events = np.flatnonzero(weights @ design.response > 0)
    if events.size:
        batch.theta[events] = batch.profile(events, PRECISIONS["final"][2])
    theta0, mu0 = batch.theta[:, None], batch.mu
    resid = (design.response - mu0) * theta0 / (theta0 + mu0)
    score = _product(weights * resid, design.X)
    if batch.basis is not None:
        score = np.matmul(score[:, None, :], batch.basis)[:, 0, :]
    lam_max = np.maximum(np.abs(score[:, 1:]).max(axis=1), 1e-8)
    return np.array([np.geomspace(top, top * min_ratio, size) for top in lam_max])


def _basis(origin: ScalingParams, own: ScalingParams) -> np.ndarray:
    """The p x p map T with X_own = X_origin @ T, for the interaction
    designs of one sample's rows standardized by ``origin`` and by
    ``own``: x_own = (s0/s)*x_origin + (m0 - m)/s for every covariate, on
    the main effect and, times the arm, on its interaction."""
    m = own.means.size
    basis = np.eye(2 + 2 * m)
    main = np.arange(2, 2 + m)
    ratio, shift = origin.sds / own.sds, (origin.means - own.means) / own.sds
    basis[main, main] = basis[main + m, main + m] = ratio
    basis[0, main] = basis[1, main + m] = shift
    return basis


def _bases(design: DesignMatrix, scalings: Sequence[ScalingParams]) -> np.ndarray | None:
    """The basis of each of ``scalings`` over ``design``, or None when every
    one is the identity (every scaling is the design's) and none is needed."""
    bases = np.array([_basis(design.scaling, own) for own in scalings])
    return None if np.all(bases == np.eye(design.p)) else bases


def _held_out_loss(y, mu, theta, kind):
    """Per-subject prediction loss of means ``mu`` (dispersion ``theta``,
    one per subject) against the observed counts ``y``; inf or NaN where
    it overflows, under the caller's ``np.errstate``."""
    if kind == "squared":
        return (y - mu) ** 2
    if kind == "deviance":
        term = np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0) / mu), 0.0)
        return 2.0 * (term - (y + theta) * np.log((y + theta) / (mu + theta)))
    raise ValueError(f"unknown cv loss {kind!r}")


# OpenBLAS runs a GEMM on the calling thread only while m*n*k stays below
# 2**18 (its SMP_THRESHOLD_MIN times GEMM_MULTITHREAD_THRESHOLD).  The
# batch's products are too small to gain from threads, and when pool
# workers hold every core the BLAS threads only wait on each other: with
# two processes on a 2-core VM, a (10x1000)@(1000x105) Gram product took
# 1.0 ms whole and 0.13 ms in single-threaded blocks.
_BLAS_SINGLE_THREAD_WORK = 1 << 18


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in column blocks of ``b`` small enough for OpenBLAS to
    keep each block on the calling thread."""
    m, n = a.shape
    cols = b.shape[1]
    block = max(1, (_BLAS_SINGLE_THREAD_WORK - 1) // (m * n))
    if block >= cols:
        return a @ b
    return np.concatenate([a @ b[:, s : s + block] for s in range(0, cols, block)], axis=1)


class _Batch:
    """The module's one fitting kernel, penalized Newton (observed
    information), step-halved, run for K members at once.

    Member k fits the design rows weighed by row k of a (K, n) weight
    matrix, with its own penalty, dispersion and coefficients: 0/1
    weights mark a cross-validation training split, counts a bootstrap
    resample, and a resample's training split holds its subjects' counts
    outside the fold.  ``irls`` holds each member to the rules ``fit``
    documents, and a stall or the iteration cap ends that member only.
    Each member's linear predictor and means are carried from its
    accepted step into the next iteration, the dispersion profile and
    the held-out loss.

    Member k works in the coordinates of its own standardization,
    ``scalings[k]`` (the design's by default).  Unless every member's is
    the design's, it does so through the basis T_k of ``_basis``: its
    linear predictor is X (T_k beta), its Gram matrix T_k' G T_k and its
    right-hand side T_k' X'z.  The penalty, the start, the step halving
    and the stop tests all stay in its own coordinates, and Newton's
    method is affine-invariant, so the member takes the steps of a fit of
    the design standardized its own way, up to rounding.  Ridge is not
    equivariant under standardization; this lets a resample's fit run
    over the original sample's design.
    """

    def __init__(
        self,
        design: DesignMatrix,
        weights: np.ndarray,
        theta: Sequence[float],
        beta: np.ndarray | None = None,
        scalings: Sequence[ScalingParams] | None = None,
    ):
        size = weights.shape[0]
        self.design = design
        self.weights = weights
        self.theta = np.array(theta, dtype=np.float64)
        self.lam = np.zeros(size)
        self.scalings = [design.scaling] * size if scalings is None else scalings
        self.basis = _bases(design, self.scalings)
        if beta is None:
            self.beta = _start_coefficients(design, weights)
        else:
            self.beta = np.array(beta, dtype=np.float64).reshape(size, design.p)
        self.pen = np.ones(design.p)
        self.pen[0] = 0.0  # intercept unpenalized
        self.pen_diag = np.diag(self.pen)
        self.products = None
        if size > 1:
            # Products of every column pair (i <= j): one weighted sum over
            # rows gives the upper triangle of a member's Gram matrix, and
            # ``square`` spreads it over the p x p matrix.  One member is
            # faster without building this n x p(p+1)/2 table.  It is filled
            # in place, p columns at a time, and in column order, where
            # ``_product``'s column blocks of it are contiguous.
            iu, ju = np.triu_indices(design.p)
            self.products = np.empty((design.n, iu.size), order="F")
            for s in range(0, iu.size, design.p):
                block = slice(s, s + design.p)
                np.multiply(design.X[:, iu[block]], design.X[:, ju[block]],
                            out=self.products[:, block])
            square = np.empty((design.p, design.p), dtype=np.intp)
            square[iu, ju] = square[ju, iu] = np.arange(iu.size)
            self.square = square.ravel()
        self.eta, self.mu, _ = self._evaluate(self.beta, slice(None))
        self.iterations = np.zeros(size, dtype=np.int64)
        self.rounds = np.zeros(size, dtype=np.int64)
        self.converged = np.zeros(size, dtype=bool)
        # each member's objective path in its last ``irls``, and the theta it used
        self.paths: list[list[float]] = [[] for _ in range(size)]
        self.path_theta = self.theta.copy()

    def _evaluate(self, beta, members):
        """Linear predictor (offset excluded), means and ``_nll`` of rows of coefficients."""
        if self.basis is not None:
            beta = np.matmul(self.basis[members], beta[:, :, None])[:, :, 0]
        eta = _product(beta, self.design.X.T)
        with np.errstate(over="ignore", invalid="ignore"):
            eta_full = eta + self.design.offset
            mu = np.exp(eta_full)
            return eta, mu, self._nll(eta_full, mu, members)

    def _nll(self, eta_full, mu, members):
        """Each member's negative log-likelihood on its rows, in log1p form:
        -sum[y*eta - (y+theta)*log1p(mu/theta)], the beta-free
        -(y+theta)*log(theta) left out.  ``ndarray.sum`` adds pairwise: a
        sequential sum leaves rounding noise the descent test takes for ascent."""
        y = self.design.response
        theta = self.theta[members, None]
        loglik = y * eta_full - (y + theta) * np.log1p(mu / theta)
        return -(self.weights[members] * loglik).sum(axis=1)

    def _penalized(self, nll, beta, lam):
        """Each member's objective, ``nll`` plus its penalty: inf or NaN for
        coefficients too large to square, which the descent test rejects."""
        with np.errstate(over="ignore", invalid="ignore"):
            return nll + lam * ((beta * beta) @ self.pen)

    def _solve(self, lam, members):
        """Penalized Newton (observed information) update of each member
        from its current means, at its entry of ``lam``.

        Subject i weighs theta*mu*(y+theta)/(theta+mu)^2, the second
        derivative of its negative log-likelihood in the linear predictor
        at fixed theta, which is never negative.  The log link is not
        canonical for this model, so that is not the expected (Fisher)
        information mu*theta/(theta+mu) (McCullagh & Nelder 1989, 2.5).
        """
        X, y = self.design.X, self.design.response
        mu, theta, weights = self.mu[members], self.theta[members, None], self.weights[members]
        shrink = theta / (theta + mu)
        w = weights * (mu * shrink * ((y + theta) / (theta + mu)))
        z = w * self.eta[members] + weights * ((y - mu) * shrink)
        if self.products is None:
            A = ((X * w[0, :, None]).T @ X)[None]
        else:
            A = _product(w, self.products)[:, self.square].reshape(-1, *self.pen_diag.shape)
        rhs = _product(z, X)
        if self.basis is not None:
            basis = self.basis[members]
            A = np.matmul(basis.transpose(0, 2, 1), np.matmul(A, basis))
            rhs = np.matmul(rhs[:, None, :], basis)[:, 0, :]
        A += (2.0 * lam)[:, None, None] * self.pen_diag
        try:
            beta_new = np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"singular penalized system (cond~{np.max(np.linalg.cond(A)):.3e})"
            ) from exc
        if not np.all(np.isfinite(beta_new)):
            raise NumericalError(
                f"non-finite update (cond~{np.max(np.linalg.cond(A)):.3e})"
            )
        return beta_new

    def irls(self, lam, precision: str, members: np.ndarray | None = None) -> None:
        """Refit ``members`` (all by default) at penalty ``lam``, one for
        all members or one per member, each warm-started from its current
        coefficients and dispersion."""
        tol = PRECISIONS[precision][0]
        size = self.theta.size
        active = np.arange(size) if members is None else members
        self.lam[active] = np.broadcast_to(lam, (size,))[active]
        obj = np.empty(size)
        beta = self.beta[active]
        with np.errstate(invalid="ignore"):
            nll = self._nll(self.eta[active] + self.design.offset, self.mu[active], active)
        obj[active] = self._penalized(nll, beta, self.lam[active])
        if not np.all(np.isfinite(obj[active])):
            raise NumericalError("starting point has non-finite objective")
        self.converged[active] = False
        self.path_theta[active] = self.theta[active]
        for k in active.tolist():
            self.paths[k] = [float(obj[k])]
        for iteration in range(1, _MAX_ITER + 1):
            # While every member is active a slice reads them without copies.
            sel = slice(None) if active.size == size else active
            self.iterations[sel] = iteration
            beta, lam = self.beta[sel], self.lam[sel]
            candidate = self._solve(lam, sel)
            direction = candidate - beta
            cand_eta, cand_mu, cand_nll = self._evaluate(candidate, sel)
            cand_obj = self._penalized(cand_nll, candidate, lam)
            # not "cand_obj > obj": a NaN objective must count as worse
            worse = ~(cand_obj <= obj[sel])
            # Near the optimum Newton converges quadratically, and a step
            # below ``_UNTESTED_STEP`` changes the objective by about its
            # rounding: whether the test above accepts it depends on
            # summation order.  Such a step is taken while its objective is
            # finite, so a batch and a lone member stop at the same step.
            small = np.abs(direction).max(axis=1) < max(tol, _UNTESTED_STEP)
            worse &= ~(small & np.isfinite(cand_obj))
            any_worse = worse.any()
            step = 1.0
            for _ in range(_MAX_HALVINGS):
                if not any_worse:
                    break
                step *= 0.5
                h = np.flatnonzero(worse)
                candidate[h] = beta[h] + step * direction[h]
                cand_eta[h], cand_mu[h], cand_nll = self._evaluate(candidate[h], active[h])
                cand_obj[h] = self._penalized(cand_nll, candidate[h], lam[h])
                worse[h] = ~(cand_obj[h] <= obj[active[h]])
                any_worse = worse.any()
            done = np.abs(candidate - beta).max(axis=1) < tol
            if any_worse:
                # Still worse after every halving: no descent direction is
                # left at fp resolution, and the member stops where it is.
                candidate[worse], cand_obj[worse] = beta[worse], obj[sel][worse]
                cand_eta[worse], cand_mu[worse] = self.eta[sel][worse], self.mu[sel][worse]
                done |= worse
            self.beta[sel], self.eta[sel], self.mu[sel] = candidate, cand_eta, cand_mu
            obj[sel] = cand_obj
            for k, value in zip(active.tolist(), cand_obj.tolist()):
                self.paths[k].append(value)
            if done.any():
                self.converged[active[done]] = True
                active = active[~done]
            if active.size == 0:
                break

    def alternate(self, lam, precision: str) -> None:
        """``fit_alternating``'s rounds for every member at penalty ``lam``
        (one for all members or one per member), each profiled on
        its own weights and ended when its own dispersion settles; a member
        still unsettled after ``_MAX_ROUNDS`` rounds is non-converged.  The
        dispersion searches of a round run as one, each warm-started from
        the member's current theta."""
        _, theta_rtol, xatol = PRECISIONS[precision]
        size = self.theta.size
        active = np.arange(size)
        for rounds in range(1, _MAX_ROUNDS + 1):
            self.irls(lam, precision, active)
            self.rounds[active] = rounds
            theta = self.theta[active]
            theta_new = self.profile(slice(None) if active.size == size else active, xatol)
            done = np.abs(theta_new - theta) <= theta_rtol * theta
            self.theta[active] = theta_new
            active = active[~done]
            if active.size == 0:
                break
        self.converged[active] = False

    def profile(self, members, xatol: float) -> np.ndarray:
        """The dispersion that maximizes each of ``members``' profile at its
        current means, searched from its current theta to step tolerance
        ``xatol`` (see ``_Profiles`` and ``_search_dispersion``)."""
        design = self.design
        profiles = _Profiles(design.response, self.weights[members],
                             self.eta[members] + design.offset, self.mu[members])
        return _search_dispersion(profiles, self.theta[members], xatol)

    def model(self, k: int) -> FittedBenefitModel:
        """Member ``k``, described by its last ``irls``, with the scaling of
        its own coordinates."""
        dev_const = _deviance_constant(self.design.response, self.weights[k], self.path_theta[k])
        path = tuple(2.0 * v + dev_const for v in self.paths[k])
        meta = FitMeta(
            int(self.iterations[k]), bool(self.converged[k]), path[-1], path, int(self.rounds[k])
        )
        return FittedBenefitModel(
            coefficients=self.beta[k].copy(),
            coefficient_names=list(self.design.column_names),
            dispersion=float(self.theta[k]),
            penalty=float(self.lam[k]),
            scaling=self.scalings[k],
            fit_meta=meta,
        )


def fit(
    design: DesignMatrix,
    lam: float,
    theta: float,
    beta_start: np.ndarray | None = None,
    precision: str = "final",
) -> FittedBenefitModel:
    """Estimate coefficients for a fixed penalty and fixed dispersion.

    Each penalized Newton (observed information) step is halved, at most
    ``_MAX_HALVINGS`` times, until the penalized objective does not
    increase; a step whose largest coefficient change is below
    ``_UNTESTED_STEP`` (or the tolerance of ``precision``, if larger), and
    so too small for that test to judge, is taken without it unless its
    objective is not finite.  Convergence is declared when the largest
    absolute coefficient change falls below the tolerance, or when no
    descent is left at fp resolution; otherwise the model is returned
    flagged non-converged after ``_MAX_ITER`` iterations.

    Raises
    ------
    NumericalError
        If the penalized normal equations are singular or produce
        non-finite coefficients (e.g. separation or collinearity).
    """
    if lam < 0:
        raise ValueError("penalty must be non-negative")
    if theta <= 0:
        raise ValueError("dispersion must be positive")
    batch = _Batch(design, np.ones((1, design.n)), [theta], beta_start)
    batch.irls(lam, precision)
    return batch.model(0)


def fit_alternating(
    design: DesignMatrix, lam: float, precision: str = "final"
) -> FittedBenefitModel:
    """Alternate coefficient fitting with dispersion profiling.

    Starts at dispersion ``_THETA_INIT`` and repeats fit -> profile-theta
    until theta moves by less than the relative change ``precision``
    allows, then returns the model from the final coefficient fit with
    the settled dispersion attached.
    """
    return fit_weighted(design, np.ones((1, design.n)), lam, precision)[0]


def fit_weighted(
    design: DesignMatrix,
    weights: np.ndarray,
    lam,
    precision: str = "final",
    scalings: Sequence[ScalingParams] | None = None,
) -> list[FittedBenefitModel]:
    """``fit_alternating`` of every row of the (K, n) ``weights`` at once,
    at penalty ``lam`` (one for all members or one per member): member k
    weighs design row i by ``weights[k, i]``, so that a bootstrap
    resample is the vector of its subjects' counts.  Member k's model is
    the fit of the design with row i repeated ``weights[k, i]`` times, up
    to rounding; given ``scalings``, of those rows standardized by
    ``scalings[k]`` (see ``_Batch``).

    Raises
    ------
    NumericalError, DispersionError
        If any member's fit or dispersion search fails: the whole batch
        fails.
    """
    batch = _Batch(design, weights, np.full(weights.shape[0], _THETA_INIT), scalings=scalings)
    batch.alternate(lam, precision)
    return [batch.model(k) for k in range(weights.shape[0])]


def _stratified_folds(treatment: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Arm-stratified fold labels: each arm, in a seeded random order, is
    dealt round the folds from fold 0.

    Raises
    ------
    FoldingError
        If an arm has fewer than 2 subjects (some training split would lack
        it) or the larger arm fewer than ``folds`` (some fold would hold
        out no one).
    """
    sizes = np.bincount(treatment, minlength=2)
    if sizes.min() < 2 or sizes.max() < folds:
        raise FoldingError(
            f"cannot build {folds} cross-validation folds from {sizes[0]} control and "
            f"{sizes[1]} treated subjects: every training split needs both arms (2 or more "
            f"subjects in each) and every fold a held-out subject ({folds} or more in the "
            "larger arm)"
        )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    fold_id = np.empty(treatment.shape[0], dtype=np.int64)
    for arm in (0, 1):
        perm = rng.permutation(np.flatnonzero(treatment == arm))
        fold_id[perm] = np.arange(perm.size) % folds
    return fold_id


def cross_validate_lambda(
    design: DesignMatrix,
    draws: Sequence[np.ndarray],
    fold_ids: Sequence[np.ndarray],
    folds: int,
    grids: np.ndarray,
    loss: str,
    scalings: Sequence[ScalingParams],
) -> list[CvResult]:
    """Pick the penalty of each of R samples by off-sample prediction loss:
    sample r is the design rows ``draws[r]`` with fold labels
    ``fold_ids[r]``, its descending grid ``grids[r]`` and its coordinates
    ``scalings[r]``.  Each penalty's error is the mean loss over the
    held-out subjects of fits on the other K-1 folds (dispersion profiled
    at the top of the grid), its SE the spread of the fold means.  A
    penalty whose error is not finite scores ``inf``; ties break toward
    the larger penalty.

    Every fold of every sample is a member of one batch with its own
    penalty path, at the ``"relaxed"`` precision, weighing each subject
    by its copies outside the fold (copies of one subject may sit in
    different folds).  A subject held out by the fold counts as many
    times as it has copies there.

    Raises
    ------
    NumericalError
        If no penalty on some sample's grid has a finite error.
    """
    n, samples = design.n, len(draws)
    members = samples * folds
    held = np.array([
        np.bincount(fold_id * n + draw, minlength=folds * n).reshape(folds, n)
        for draw, fold_id in zip(draws, fold_ids)
    ], dtype=np.float64)
    train = np.array([np.bincount(draw, minlength=n) for draw in draws])[:, None, :] - held
    batch = _Batch(
        design,
        train.reshape(members, n),
        np.full(members, _THETA_INIT),
        scalings=[s for s in scalings for _ in range(folds)],
    )
    lam = np.repeat(grids, folds, axis=0)
    # Dispersion is profiled on each training split once, at the top of
    # its path; coefficient fits are then warm-started down the
    # descending grid at that fixed dispersion, all folds at once.
    batch.alternate(lam[:, 0], "relaxed")
    member, subject = np.nonzero(held.reshape(members, n))
    copies = held.reshape(members, n)[member, subject]
    y = design.response[subject]
    fold_sums = np.empty((members, grids.shape[1]))
    for g in range(grids.shape[1]):
        if g > 0:
            batch.irls(lam[:, g], "relaxed")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            losses = _held_out_loss(y, batch.mu[member, subject], batch.theta[member], loss)
            fold_sums[:, g] = np.bincount(member, weights=copies * losses, minlength=members)
    fold_sums = fold_sums.reshape(samples, folds, -1)
    sizes = held.sum(axis=2)
    with np.errstate(over="ignore", invalid="ignore"):
        cv_error = fold_sums.sum(axis=1) / sizes.sum(axis=1)[:, None]
        cv_se = (fold_sums / sizes[:, :, None]).std(axis=1, ddof=1) / math.sqrt(folds)
    cv_error[~np.isfinite(cv_error)] = np.inf
    if np.any(np.isinf(cv_error).all(axis=1)):
        raise NumericalError(
            "cross-validation cannot choose a penalty: the held-out loss is not finite at "
            f"any of the {grids.shape[1]} penalties on the grid"
        )
    return [
        CvResult(
            lambda_grid=grids[r],
            cv_error=cv_error[r],
            cv_se=cv_se[r],
            chosen_index=int(np.argmin(cv_error[r])),
            folds=folds,
        )
        for r in range(samples)
    ]
