"""Penalized negative-binomial regression with a log link and exposure offset.

The model for subject i with arm A, covariates x (already standardized),
events y, and follow-up T is

    E(y) = exp(b0 + ba*A + sum_j bj*x_j + sum_j baj*A*x_j + ln T)

with variance mu + mu^2/theta.  Coefficients are estimated by iteratively
reweighted least squares on the working response, maximizing the
log-likelihood minus an l2 penalty ``lam * sum(beta^2)`` over every
coefficient except the intercept.  Each step is halved until the penalized
objective does not increase, so the penalized deviance is non-increasing
across iterations.  The dispersion is profiled on a log scale and the two
updates are alternated to a joint fixed point.
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
    "CvResult",
    "build_design_matrix",
    "fit",
    "fit_alternating",
    "estimate_dispersion",
    "default_lambda_grid",
    "cross_validate_lambda",
    "predict_rate",
]

THETA_MIN = 1e-3
THETA_MAX = 1e8
# Above this the variance term mu^2/theta is numerically irrelevant for
# unit-scale rates; the profile likelihood is a plateau and chasing its
# jitter would keep the alternation loop spinning.
THETA_PLATEAU = 1e5

_MAX_ITER = 100
_COEF_TOL = 1e-8
_THETA_RTOL = 1e-4


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

    def subset(self, idx: np.ndarray) -> "DesignMatrix":
        return DesignMatrix(
            X=self.X[idx],
            offset=self.offset[idx],
            response=self.response[idx],
            column_names=self.column_names,
            scaling=self.scaling,
        )


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

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

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
    chosen_lambda: float
    folds: int
    seed: int

    def __post_init__(self):
        grid = np.asarray(self.lambda_grid, dtype=np.float64)
        if np.any(grid <= 0) or np.any(np.diff(grid) >= 0):
            raise ValueError("lambda grid must be positive and strictly descending")
        if not np.all(np.isfinite(self.cv_error)):
            raise ValueError("cv errors must be finite")
        if self.chosen_lambda not in grid:
            raise ValueError("chosen lambda must come from the grid")


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


def _neg_loglik_beta(eta_full, y, theta):
    """-loglik up to beta-independent constants; eta_full includes offset."""
    log_theta_mu = np.logaddexp(math.log(theta), eta_full)
    return -float(np.sum(y * eta_full - (y + theta) * log_theta_mu))


def _deviance_constant(y, theta):
    ypos = y[y > 0]
    c = 2.0 * float(np.sum(ypos * np.log(ypos) - (ypos + theta) * np.log(ypos + theta)))
    y0 = int(np.sum(y == 0))
    c += 2.0 * y0 * float(-theta * math.log(theta))
    return c


def _start_coefficients(design: DesignMatrix) -> np.ndarray:
    beta = np.zeros(design.p)
    total = design.response.sum()
    exposure = np.exp(design.offset).sum()
    beta[0] = math.log((total + 0.5) / exposure) if total > 0 else math.log(0.5 / exposure)
    return beta


def fit(
    design: DesignMatrix,
    lam: float,
    theta: float,
    beta_start: np.ndarray | None = None,
    max_iter: int = _MAX_ITER,
    tol: float = _COEF_TOL,
) -> FittedBenefitModel:
    """Estimate coefficients for a fixed penalty and fixed dispersion.

    Convergence is declared when the largest absolute coefficient change
    falls below ``tol``; otherwise the model is returned flagged
    non-converged after ``max_iter`` iterations.

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
    X, y, offset = design.X, design.response, design.offset
    pen = np.ones(design.p)
    pen[0] = 0.0  # intercept unpenalized
    beta = _start_coefficients(design) if beta_start is None else beta_start.astype(np.float64).copy()

    def objective(b):
        return _neg_loglik_beta(X @ b + offset, y, theta) + lam * float(np.sum(pen * b * b))

    obj = objective(beta)
    if not math.isfinite(obj):
        raise NumericalError("starting point has non-finite objective")
    obj_path = [obj]
    converged = False
    iterations = 0
    diag = np.diag_indices(design.p)
    ridge_diag = 2.0 * lam * pen

    for iterations in range(1, max_iter + 1):
        eta_lin = X @ beta
        eta_full = eta_lin + offset
        mu = np.exp(eta_full)
        w = mu * theta / (theta + mu)
        score_resid = (y - mu) * theta / (theta + mu)
        A = (X * w[:, None]).T @ X
        A[diag] += ridge_diag
        rhs = X.T @ (w * eta_lin + score_resid)
        try:
            beta_new = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"singular penalized system (cond~{np.linalg.cond(A):.3e})"
            ) from exc
        if not np.all(np.isfinite(beta_new)):
            raise NumericalError(
                f"non-finite update (cond~{np.linalg.cond(A):.3e})"
            )

        direction = beta_new - beta
        step = 1.0
        candidate = beta_new
        cand_obj = objective(candidate)
        halvings = 0
        while cand_obj > obj and halvings < 40:
            step *= 0.5
            candidate = beta + step * direction
            cand_obj = objective(candidate)
            halvings += 1
        if cand_obj > obj:
            converged = True  # no descent direction left at fp resolution
            break
        delta = float(np.max(np.abs(candidate - beta)))
        beta = candidate
        obj = cand_obj
        obj_path.append(obj)
        if delta < tol:
            converged = True
            break

    dev_const = _deviance_constant(y, theta)
    deviance_path = tuple(2.0 * v + dev_const for v in obj_path)
    meta = FitMeta(
        iterations=iterations,
        converged=converged,
        penalized_deviance=deviance_path[-1],
        deviance_path=deviance_path,
    )
    return FittedBenefitModel(
        coefficients=beta,
        coefficient_names=list(design.column_names),
        dispersion=theta,
        penalty=lam,
        scaling=design.scaling,
        fit_meta=meta,
    )


# From this dispersion up, lgamma(v+theta) - lgamma(theta) comes from
# Stirling's series: differencing two lgamma values there cancels (at
# theta=1e8 a 500-subject profile lost up to 3e-5, above the plateau
# test's tolerance), while the first term left out of the series is below
# 2e-15 from theta=20 up.
_STIRLING_THETA = 20.0


def _stirling_tail(x):
    """lgamma(x) - [(x - 1/2)*log(x) - x + log(2*pi)/2], to four terms."""
    inv = 1.0 / x
    inv2 = inv * inv
    return inv * (1.0 / 12 - inv2 * (1.0 / 360 - inv2 * (1.0 / 1260 - inv2 / 1680)))


def _log_gamma_ratio(values, counts, theta):
    """Sum over distinct counts v (with multiplicities ``counts``) of
    lgamma(v+theta) - lgamma(theta) - v*log(theta)."""
    if theta < _STIRLING_THETA:
        lgamma_theta, log_theta = math.lgamma(theta), math.log(theta)
        return sum(
            n * (math.lgamma(v + theta) - lgamma_theta - v * log_theta)
            for v, n in zip(values.tolist(), counts.tolist())
        )
    terms = (
        (values + (theta - 0.5)) * np.log1p(values / theta)
        - values
        + (_stirling_tail(values + theta) - _stirling_tail(theta))
    )
    return float(counts @ terms)


def _profile_loglik(y, eta_full):
    """The log-likelihood at fixed means ``exp(eta_full)``, as a function
    of the dispersion theta (lgamma(y+1) left out).

    theta*log(theta) - (y+theta)*log(theta+mu) is written as
    -y*log(theta) - (y+theta)*log1p(mu/theta), and the -y*log(theta) part
    joins the log-gamma terms, which are summed once per distinct positive
    count; no term cancels at large theta.

    Raises
    ------
    NumericalError
        If a fitted mean overflows.
    """
    with np.errstate(over="ignore"):
        mu = np.exp(eta_full)
    if not np.all(np.isfinite(mu)):
        raise NumericalError(
            f"fitted means overflow: linear predictor reaches {float(np.max(eta_full)):.4g}"
        )
    values, counts = np.unique(y[y > 0], return_counts=True)
    counts = counts.astype(np.float64)
    y_eta = float(y @ eta_full)

    def loglik(theta: float) -> float:
        ratio = mu / theta
        np.log1p(ratio, out=ratio)
        return _log_gamma_ratio(values, counts, theta) - float((y + theta) @ ratio) + y_eta

    return loglik


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_SEARCH_MAX_EVALS = 500


def _bounded_minimize(func, lo, hi, xatol, max_evals):
    """Minimize ``func`` on [lo, hi] by Brent's bounded search: golden
    sections with parabolic steps (Brent 1973, *Algorithms for
    Minimization without Derivatives*, ch. 5).

    Step for step the method of scipy's ``minimize_scalar(method=
    "bounded")``, on plain floats.  Returns the best point, its value
    and the number of evaluations, which reaches ``max_evals`` only when
    the search was cut off there.
    """
    a, b = lo, hi
    fulc = nfc = xf = x = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = func(x)
    evals = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points so far
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        evals += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if evals >= max_evals:
            break
    return xf, fx, evals


def estimate_dispersion(
    design: DesignMatrix, coefficients: np.ndarray, xatol: float = 1e-6
) -> float:
    """Profile the dispersion at fixed fitted means.

    Maximizes the likelihood in theta over [1e-3, 1e8] on the log scale
    (``xatol`` is the log-scale search tolerance).  A likelihood still
    climbing at the upper bound (no overdispersion beyond Poisson)
    returns the bound itself.

    Raises
    ------
    DispersionError
        If every response is zero, in which case no dispersion is
        identifiable.
    NumericalError
        If a fitted mean overflows, the profile is not finite at the
        optimum found, or the search runs out of evaluations.
    """
    y = design.response
    if y.sum() == 0:
        raise DispersionError("dispersion undefined: all event counts are zero")
    eta_full = design.X @ np.asarray(coefficients, dtype=np.float64) + design.offset
    if not np.all(np.isfinite(eta_full)):
        raise NumericalError("coefficients produce non-finite linear predictor")

    loglik = _profile_loglik(y, eta_full)
    lo, hi = math.log(THETA_MIN), math.log(THETA_MAX)
    log_theta, neg_ll, evals = _bounded_minimize(
        lambda lt: -loglik(math.exp(lt)), lo, hi, xatol, _SEARCH_MAX_EVALS
    )
    theta_hat = math.exp(log_theta)
    if not math.isfinite(neg_ll):
        raise NumericalError(
            f"dispersion profile is not finite at theta={theta_hat:.6g}"
        )
    if evals >= _SEARCH_MAX_EVALS:
        raise NumericalError(
            f"dispersion search stopped at its {_SEARCH_MAX_EVALS}-evaluation cap"
        )
    ll_hat = -neg_ll
    ll_hi = loglik(THETA_MAX)
    if ll_hi >= ll_hat - 1e-8 * (1.0 + abs(ll_hat)):
        return THETA_MAX
    return theta_hat


def fit_alternating(
    design: DesignMatrix,
    lam: float,
    theta_init: float = 1.0,
    beta_start: np.ndarray | None = None,
    max_rounds: int = 50,
    theta_rtol: float = _THETA_RTOL,
    max_iter: int = _MAX_ITER,
    tol: float = _COEF_TOL,
    profile_xatol: float = 1e-6,
) -> FittedBenefitModel:
    """Alternate coefficient fitting with dispersion profiling.

    Repeats fit -> profile-theta until theta moves by less than
    ``theta_rtol`` relative, then returns the model from the final
    coefficient fit with the settled dispersion attached.  Once theta
    sits on the Poisson plateau (both consecutive values above
    ``THETA_PLATEAU``) the alternation stops: up there the profile is
    flat and its jitter carries no information.
    """
    theta = theta_init
    beta = beta_start
    model = None
    rounds = 0
    settled = False
    # The profile search must resolve theta finer than the alternation
    # tolerance, or the loop can oscillate inside optimizer noise.
    profile_xatol = min(profile_xatol, theta_rtol / 10.0)
    for rounds in range(1, max_rounds + 1):
        model = fit(design, lam, theta, beta_start=beta, max_iter=max_iter, tol=tol)
        beta = model.coefficients
        theta_new = estimate_dispersion(design, beta, xatol=profile_xatol)
        if abs(theta_new - theta) <= theta_rtol * theta or (
            theta >= THETA_PLATEAU and theta_new >= THETA_PLATEAU
        ):
            theta = theta_new
            settled = True
            break
        theta = theta_new
    assert model is not None
    model.dispersion = theta
    model.fit_meta.dispersion_rounds = rounds
    if not settled:
        model.fit_meta.converged = False
    return model


def default_lambda_grid(
    design: DesignMatrix, size: int = 100, min_ratio: float = 1e-4
) -> np.ndarray:
    """Descending log-spaced penalty grid anchored at the null-model score.

    The top of the grid is the largest absolute component of the
    unpenalized score at the intercept-only fit, the scale at which all
    penalized coefficients are crushed toward zero; the grid descends by
    ``min_ratio`` over ``size`` log-spaced values.
    """
    beta0 = _start_coefficients(design)
    mu0 = np.exp(design.X @ beta0 + design.offset)
    try:
        theta0 = estimate_dispersion(design, beta0)
    except DispersionError:
        theta0 = 1.0
    resid = (design.response - mu0) * theta0 / (theta0 + mu0)
    score = design.X[:, 1:].T @ resid
    lam_max = max(float(np.max(np.abs(score))), 1e-8)
    return np.geomspace(lam_max, lam_max * min_ratio, size)


def _held_out_loss(y, mu, theta, kind):
    """Per-subject prediction loss of means ``mu`` (dispersion ``theta``,
    one per subject) against the observed counts ``y``."""
    if kind == "squared":
        return (y - mu) ** 2
    if kind == "deviance":
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0) / mu), 0.0)
        return 2.0 * (term - (y + theta) * np.log((y + theta) / (mu + theta)))
    raise ValueError(f"unknown cv loss {kind!r}")


# OpenBLAS runs a GEMM on the calling thread only while m*n*k stays below
# 2**18 (its SMP_THRESHOLD_MIN times GEMM_MULTITHREAD_THRESHOLD).  The
# fold products are far too small to gain from threads, and when pool
# workers already hold every core the BLAS threads only wait on each
# other: with two processes on a 2-core VM, a (10x1000)@(1000x105) Gram
# product took 1.0 ms whole and 0.13 ms in single-threaded blocks.
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


class _FoldBatch:
    """The K training folds of one design, fitted together down a penalty
    path.

    Fold k's training rows are row k of a (K, n) 0/1 weight matrix over
    the full design; the fold has its own dispersion and coefficient row.
    ``fit_path_step`` repeats ``fit``'s warm-started IRLS for every
    member at once, each to the same rules: convergence on the largest
    coefficient change, at most 40 step halvings, a stall (no descent)
    or the iteration cap ends that member only, and a singular or
    non-finite solve raises ``NumericalError``.  Each member's linear
    predictor and means are carried from its accepted step, so the
    held-out loss reads them without a refit.
    """

    def __init__(
        self, design: DesignMatrix, fold_id: np.ndarray, theta: np.ndarray, beta: np.ndarray
    ):
        self.X = design.X
        self.XT = np.ascontiguousarray(design.X.T)
        self.offset = design.offset
        self.y = design.response
        self.train = (fold_id != np.arange(theta.size)[:, None]).astype(np.float64)
        self.theta = theta[:, None]
        p = design.p
        self.pen = np.ones(p)
        self.pen[0] = 0.0  # intercept unpenalized
        # Products of every column pair (i <= j): one weighted sum over
        # rows gives the upper triangle of a member's Gram matrix, and
        # ``square`` spreads that triangle over the full p x p matrix.
        iu, ju = np.triu_indices(p)
        self.products = design.X[:, iu] * design.X[:, ju]
        square = np.empty((p, p), dtype=np.intp)
        square[iu, ju] = square[ju, iu] = np.arange(iu.size)
        self.square = square.ravel()
        self.pen_diag = np.diag(self.pen).ravel()
        self.beta = np.array(beta, dtype=np.float64)
        self.nll, self.eta, self.mu = self._nll(self.beta, np.arange(theta.size))

    def _nll(self, beta, members):
        """Negative log-likelihood (up to beta-free constants) of each
        coefficient row on its member's training fold, with the linear
        predictor (offset excluded) and the means; a non-finite value
        counts as +inf so step halving rejects it."""
        eta = _product(beta, self.XT)
        eta_full = eta + self.offset
        theta = self.theta[members]
        with np.errstate(over="ignore", invalid="ignore"):
            mu = np.exp(eta_full)
            loglik = self.y * eta_full - (self.y + theta) * np.log(theta + mu)
            nll = -np.einsum("kn,kn->k", self.train[members], loglik)
        nll[~np.isfinite(nll)] = np.inf
        return nll, eta, mu

    def _solve(self, lam, members):
        """Penalized IRLS update for each member from its current means."""
        mu, theta, train = self.mu[members], self.theta[members], self.train[members]
        shrink = theta / (theta + mu)
        w = mu * shrink
        score_resid = (self.y - mu) * shrink
        A = _product(w * train, self.products)[:, self.square]
        A += 2.0 * lam * self.pen_diag
        A = A.reshape(members.size, self.pen.size, self.pen.size)
        rhs = _product(train * (w * self.eta[members] + score_resid), self.X)
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

    def fit_path_step(self, lam: float, tol: float) -> None:
        """Refit every member at penalty ``lam``, warm-started from its
        current coefficients."""
        obj = self.nll + lam * ((self.beta * self.beta) @ self.pen)
        if not np.all(np.isfinite(obj)):
            raise NumericalError("starting point has non-finite objective")
        active = np.arange(self.beta.shape[0])
        for _ in range(_MAX_ITER):
            beta = self.beta[active]
            candidate = self._solve(lam, active)
            direction = candidate - beta
            cand_nll, cand_eta, cand_mu = self._nll(candidate, active)
            cand_obj = cand_nll + lam * ((candidate * candidate) @ self.pen)
            worse = cand_obj > obj[active]
            step = 1.0
            for _ in range(40):
                if not worse.any():
                    break
                step *= 0.5
                h = np.flatnonzero(worse)
                candidate[h] = beta[h] + step * direction[h]
                cand_nll[h], cand_eta[h], cand_mu[h] = self._nll(candidate[h], active[h])
                cand_obj[h] = cand_nll[h] + lam * ((candidate[h] * candidate[h]) @ self.pen)
                worse[h] = cand_obj[h] > obj[active[h]]
            # A member still worse after 40 halvings has no descent
            # direction left at fp resolution and stops where it is.
            moved = ~worse
            rows = active[moved]
            delta = np.max(np.abs(candidate[moved] - beta[moved]), axis=1)
            self.beta[rows] = candidate[moved]
            self.nll[rows] = cand_nll[moved]
            self.eta[rows] = cand_eta[moved]
            self.mu[rows] = cand_mu[moved]
            obj[rows] = cand_obj[moved]
            active = rows[delta >= tol]
            if active.size == 0:
                break


def _stratified_folds(treatment: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Arm-stratified fold labels; retries seeds until every training
    split contains both arms, erroring after 10 attempts."""
    n = treatment.shape[0]
    for attempt in range(10):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        fold_id = np.empty(n, dtype=np.int64)
        for arm in (0, 1):
            idx = np.flatnonzero(treatment == arm)
            perm = rng.permutation(idx)
            fold_id[perm] = np.arange(perm.size) % folds
        ok = all(
            np.any(treatment[fold_id != f] == 0) and np.any(treatment[fold_id != f] == 1)
            for f in range(folds)
        )
        if ok:
            return fold_id
    raise FoldingError(
        "could not build folds with both arms in every training split"
    )


def cross_validate_lambda(
    design: DesignMatrix,
    folds: int,
    grid: Sequence[float] | np.ndarray,
    seed: int,
    loss: str = "squared",
    theta_init: float = 1.0,
    fold_tol: float = 1e-6,
    fold_theta_rtol: float = 1e-2,
) -> CvResult:
    """Pick the penalty that minimizes off-sample prediction loss.

    Folds are assigned by a seeded permutation stratified by arm.  For
    each penalty, the model (dispersion re-profiled on the training
    folds) is fitted on the other K-1 folds and scored on the held-out
    subjects; the per-penalty error is the mean over all held-out
    subjects and its SE comes from the spread of fold means.  Ties break
    toward the larger penalty.  The folds are fitted together: each is a
    0/1 weight row over the full design, and one batched IRLS walks all
    of them down the grid.

    Fold fits use relaxed convergence tolerances (``fold_tol`` on
    coefficients, ``fold_theta_rtol`` on the dispersion alternation):
    penalty selection does not need final-fit precision, and the choice
    stays deterministic.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if design.n < folds:
        raise ValueError("need at least one subject per fold")
    grid = np.sort(np.asarray(grid, dtype=np.float64))[::-1]
    if grid.size == 0:
        raise ValueError("empty penalty grid")
    if np.any(grid <= 0):
        raise ValueError("penalties must be positive")

    fold_id = _stratified_folds(design.treatment.astype(np.int64), folds, seed)
    # Dispersion is profiled on each training split once, at the top of
    # the path; coefficient fits are then warm-started down the
    # descending grid at that fixed dispersion, all folds at once.
    theta = np.empty(folds)
    beta = np.empty((folds, design.p))
    for f in range(folds):
        model = fit_alternating(
            design.subset(np.flatnonzero(fold_id != f)),
            float(grid[0]),
            theta_init=theta_init,
            theta_rtol=fold_theta_rtol,
            tol=fold_tol,
            profile_xatol=5e-4,
        )
        theta[f] = model.dispersion
        beta[f] = model.coefficients
    batch = _FoldBatch(design, fold_id, theta, beta)
    # Every subject is held out by exactly one fold: score it with that
    # fold's means.
    rows = np.arange(design.n)
    fold_sums = np.empty((folds, grid.size))
    for g, lam in enumerate(grid):
        if g > 0:
            batch.fit_path_step(float(lam), fold_tol)
        losses = _held_out_loss(design.response, batch.mu[fold_id, rows], theta[fold_id], loss)
        fold_sums[:, g] = np.bincount(fold_id, weights=losses, minlength=folds)
    total = fold_sums.sum(axis=0)
    fold_means = fold_sums / np.bincount(fold_id, minlength=folds)[:, None]
    cv_error = total / design.n
    cv_se = fold_means.std(axis=0, ddof=1) / math.sqrt(folds)
    chosen = float(grid[int(np.argmin(cv_error))])
    return CvResult(
        lambda_grid=grid,
        cv_error=cv_error,
        cv_se=cv_se,
        chosen_lambda=chosen,
        folds=folds,
        seed=seed,
    )


def predict_rate(
    model: FittedBenefitModel,
    covariates: np.ndarray,
    treatment: int,
    time: float | np.ndarray = 1.0,
) -> float | np.ndarray:
    """Expected event count for raw (unstandardized) covariates.

    ``covariates`` may be a single length-m vector or a (k, m) matrix;
    the model's stored scaling maps them into the training space.
    """
    x = np.asarray(covariates, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != model.m:
        raise ValueError(
            f"expected {model.m} covariates, got {x.shape[1]}"
        )
    if treatment not in (0, 1):
        raise ValueError("treatment must be 0 or 1")
    z = model.scaling.transform(x)
    eta = model.intercept + z @ model.main_effects
    if treatment == 1:
        eta = eta + model.treatment_effect + z @ model.interactions
    rate = np.exp(eta) * np.asarray(time, dtype=np.float64)
    return float(rate[0]) if single and np.ndim(rate) == 1 and rate.shape[0] == 1 else rate
