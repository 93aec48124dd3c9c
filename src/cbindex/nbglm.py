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
_MAX_HALVINGS = 40
_MAX_ROUNDS = 50
_COEF_TOL = 1e-8
_THETA_RTOL = 1e-4
_THETA_INIT = 1.0
# Cross-validation fits use relaxed tolerances on the coefficients and on
# the dispersion alternation: penalty selection does not need final-fit
# precision, and the choice stays deterministic.
_FOLD_TOL = 1e-6
_FOLD_THETA_RTOL = 1e-2
_FOLD_PROFILE_XATOL = 5e-4


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


def _deviance_constant(y, theta):
    """Twice the saturated log-likelihood in the terms the IRLS objective
    keeps, so that the deviance is twice the objective plus this."""
    ypos = y[y > 0]
    return 2.0 * float(np.sum(ypos * np.log(ypos) - (ypos + theta) * np.log1p(ypos / theta)))


def _start_coefficients(design: DesignMatrix, weights: np.ndarray) -> np.ndarray:
    """Intercept-only coefficients, one row per weight row: the log weighted
    event rate, half an event added so that an eventless member starts finite."""
    beta = np.zeros((weights.shape[0], design.p))
    beta[:, 0] = np.log((weights @ design.response + 0.5) / (weights @ np.exp(design.offset)))
    return beta


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


def _profile_dispersion(y: np.ndarray, eta_full: np.ndarray, xatol: float) -> float:
    """``estimate_dispersion`` for counts ``y`` at the linear predictor
    ``eta_full`` (offset included)."""
    if y.sum() == 0:
        raise DispersionError("dispersion undefined: all event counts are zero")
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
    eta_full = design.X @ np.asarray(coefficients, dtype=np.float64) + design.offset
    return _profile_dispersion(design.response, eta_full, xatol)


def default_lambda_grid(
    design: DesignMatrix, size: int = 100, min_ratio: float = 1e-4
) -> np.ndarray:
    """Descending log-spaced penalty grid anchored at the null-model score.

    The top of the grid is the largest absolute component of the
    unpenalized score at the intercept-only fit, the scale at which all
    penalized coefficients are crushed toward zero; the grid descends by
    ``min_ratio`` over ``size`` log-spaced values.
    """
    beta0 = _start_coefficients(design, np.ones((1, design.n)))[0]
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
    """The module's one penalized IRLS, run for K members at once.

    Member k fits the design rows marked by row k of a (K, n) 0/1 weight
    matrix, with its own dispersion and coefficients.  ``irls`` holds each
    member to the rules ``fit`` documents, and a stall or the iteration
    cap ends that member only.  Each member's linear predictor and means
    are carried from its accepted step into the next iteration, the
    dispersion profile and the held-out loss.
    """

    def __init__(
        self,
        design: DesignMatrix,
        weights: np.ndarray,
        theta: Sequence[float],
        beta: np.ndarray | None = None,
    ):
        size = weights.shape[0]
        self.design = design
        self.weights = weights
        self.theta = np.array(theta, dtype=np.float64)
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
            # faster without building this n x p(p+1)/2 table.
            iu, ju = np.triu_indices(design.p)
            self.products = design.X[:, iu] * design.X[:, ju]
            square = np.empty((design.p, design.p), dtype=np.intp)
            square[iu, ju] = square[ju, iu] = np.arange(iu.size)
            self.square = square.ravel()
        self.rows = weights > 0
        self.eta, self.mu, _ = self._evaluate(self.beta, slice(None))
        self.iterations = np.zeros(size, dtype=np.int64)
        self.rounds = np.zeros(size, dtype=np.int64)
        self.converged = np.zeros(size, dtype=bool)
        # each member's objective path in its last ``irls``, and the theta it used
        self.paths: list[list[float]] = [[] for _ in range(size)]
        self.path_theta = self.theta.copy()

    def _evaluate(self, beta, members):
        """Linear predictor (offset excluded), means and ``_nll`` of rows of coefficients."""
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

    def _solve(self, lam, members):
        """Penalized IRLS update of each member from its current means."""
        X, y = self.design.X, self.design.response
        mu, theta, weights = self.mu[members], self.theta[members, None], self.weights[members]
        shrink = theta / (theta + mu)
        w = weights * (mu * shrink)
        z = w * self.eta[members] + weights * ((y - mu) * shrink)
        if self.products is None:
            A = ((X * w[0, :, None]).T @ X)[None]
        else:
            A = _product(w, self.products)[:, self.square].reshape(-1, *self.pen_diag.shape)
        A += (2.0 * lam) * self.pen_diag
        rhs = _product(z, X)
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

    def irls(self, lam: float, tol: float, members: np.ndarray | None = None) -> None:
        """Refit ``members`` (all by default) at penalty ``lam``, each
        warm-started from its current coefficients and dispersion."""
        size = self.theta.size
        active = np.arange(size) if members is None else members
        obj = np.empty(size)
        beta = self.beta[active]
        with np.errstate(invalid="ignore"):
            nll = self._nll(self.eta[active] + self.design.offset, self.mu[active], active)
        obj[active] = nll + lam * ((beta * beta) @ self.pen)
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
            beta = self.beta[sel]
            candidate = self._solve(lam, sel)
            direction = candidate - beta
            cand_eta, cand_mu, cand_nll = self._evaluate(candidate, sel)
            cand_obj = cand_nll + lam * ((candidate * candidate) @ self.pen)
            # not "cand_obj > obj": a NaN objective must count as worse
            worse = ~(cand_obj <= obj[sel])
            any_worse = worse.any()
            step = 1.0
            for _ in range(_MAX_HALVINGS):
                if not any_worse:
                    break
                step *= 0.5
                h = np.flatnonzero(worse)
                candidate[h] = beta[h] + step * direction[h]
                cand_eta[h], cand_mu[h], cand_nll = self._evaluate(candidate[h], active[h])
                cand_obj[h] = cand_nll + lam * ((candidate[h] * candidate[h]) @ self.pen)
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

    def alternate(self, lam: float, tol: float, theta_rtol: float, xatol: float) -> None:
        """``fit_alternating``'s rounds for every member, each profiled on
        its own rows and ended when its own dispersion settles; a member
        still unsettled after ``_MAX_ROUNDS`` rounds is non-converged."""
        # The profile search must resolve theta finer than the alternation
        # tolerance, or the loop can oscillate inside optimizer noise.
        xatol = min(xatol, theta_rtol / 10.0)
        y, offset = self.design.response, self.design.offset
        active = np.arange(self.theta.size)
        for rounds in range(1, _MAX_ROUNDS + 1):
            self.irls(lam, tol, active)
            self.rounds[active] = rounds
            theta = self.theta[active]
            theta_new = np.array([
                _profile_dispersion(y[self.rows[k]], (self.eta[k] + offset)[self.rows[k]], xatol)
                for k in active.tolist()
            ])
            done = (np.abs(theta_new - theta) <= theta_rtol * theta) | (
                (theta >= THETA_PLATEAU) & (theta_new >= THETA_PLATEAU)
            )
            self.theta[active] = theta_new
            active = active[~done]
            if active.size == 0:
                break
        self.converged[active] = False

    def model(self, k: int, lam: float) -> FittedBenefitModel:
        """Member ``k`` at penalty ``lam``, described by its last ``irls``."""
        dev_const = _deviance_constant(self.design.response[self.rows[k]], self.path_theta[k])
        path = tuple(2.0 * v + dev_const for v in self.paths[k])
        meta = FitMeta(
            int(self.iterations[k]), bool(self.converged[k]), path[-1], path, int(self.rounds[k])
        )
        return FittedBenefitModel(
            coefficients=self.beta[k].copy(),
            coefficient_names=list(self.design.column_names),
            dispersion=float(self.theta[k]),
            penalty=lam,
            scaling=self.design.scaling,
            fit_meta=meta,
        )


def fit(
    design: DesignMatrix,
    lam: float,
    theta: float,
    beta_start: np.ndarray | None = None,
    tol: float = _COEF_TOL,
) -> FittedBenefitModel:
    """Estimate coefficients for a fixed penalty and fixed dispersion.

    Each IRLS step is halved, at most ``_MAX_HALVINGS`` times, until the
    penalized objective does not increase.  Convergence is declared when
    the largest absolute coefficient change falls below ``tol``, or when
    no descent is left at fp resolution; otherwise the model is returned
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
    batch.irls(lam, tol)
    return batch.model(0, lam)


def fit_alternating(
    design: DesignMatrix,
    lam: float,
    theta_rtol: float = _THETA_RTOL,
    tol: float = _COEF_TOL,
    profile_xatol: float = 1e-6,
) -> FittedBenefitModel:
    """Alternate coefficient fitting with dispersion profiling.

    Starts at dispersion ``_THETA_INIT`` and repeats fit -> profile-theta
    until theta moves by less than ``theta_rtol`` relative, or sits on the
    Poisson plateau (two consecutive values above ``THETA_PLATEAU``), then
    returns the model from the final coefficient fit with the settled
    dispersion attached.
    """
    batch = _Batch(design, np.ones((1, design.n)), [_THETA_INIT])
    batch.alternate(lam, tol, theta_rtol, profile_xatol)
    return batch.model(0, lam)


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
) -> CvResult:
    """Pick the penalty that minimizes off-sample prediction loss.

    Folds are assigned by a seeded permutation stratified by arm.  For
    each penalty, the model (dispersion re-profiled on the training
    folds) is fitted on the other K-1 folds and scored on the held-out
    subjects; the per-penalty error is the mean over all held-out
    subjects and its SE comes from the spread of fold means.  Ties break
    toward the larger penalty.  The folds are fitted together, to the
    relaxed ``_FOLD_*`` tolerances: each is a 0/1 weight row over the full
    design, and one batched IRLS walks all of them down the grid.
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
    train = (fold_id != np.arange(folds)[:, None]).astype(np.float64)
    batch = _Batch(design, train, np.full(folds, _THETA_INIT))
    # Dispersion is profiled on each training split once, at the top of
    # the path; coefficient fits are then warm-started down the
    # descending grid at that fixed dispersion, all folds at once.
    batch.alternate(float(grid[0]), _FOLD_TOL, _FOLD_THETA_RTOL, _FOLD_PROFILE_XATOL)
    # Every subject is held out by exactly one fold: score it with that
    # fold's means.
    rows = np.arange(design.n)
    fold_sums = np.empty((folds, grid.size))
    for g, lam in enumerate(grid):
        if g > 0:
            batch.irls(float(lam), _FOLD_TOL)
        losses = _held_out_loss(
            design.response, batch.mu[fold_id, rows], batch.theta[fold_id], loss
        )
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
