"""End-to-end estimation runs: data in, concentration estimates out.

A pipeline bundles every choice a run depends on (penalized or plain
maximum likelihood, cross-validation settings, fit precision) so that
resampling procedures can repeat the *whole* calculation -- including
penalty selection -- on each replicate, and so a model fitted on one
sample can be applied unchanged to another.  Resamples are fitted many at
once, as subject counts over the original design; a single run is the
one-sample case of the same code.  A resample is its draw of subject
indices over the original data, never a copy; tied benefits in it rank
by position in the draw, as in the copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import benefit as bn
from . import nbglm
from .errors import (
    CbIndexError,
    ConvergenceError,
    DispersionError,
    EstimationError,
    EstimatorUndefinedError,
    NumericalError,
    OrientationError,
)
from .trial_data import ScalingParams, TrialDataset, _column_scaling, standardize

__all__ = ["BenefitPipeline", "PipelineResult", "ESTIMATOR_KINDS", "CV_LOSSES", "MODELS"]

ESTIMATOR_KINDS = ("parametric", "semiparametric")
# The cross-validation scorer's held-out losses, and the models; each first is the default.
CV_LOSSES = ("squared", "deviance")
MODELS = ("ridge", "ml")


@dataclass
class PipelineResult:
    """Everything produced by one pipeline run on one dataset."""

    model: nbglm.FittedBenefitModel
    benefit: bn.BenefitVector
    estimates: dict[str, bn.CbEstimate]
    failures: dict[str, str]
    cv: nbglm.CvResult | None = None

    def cb_value(self, kind: str) -> float | None:
        est = self.estimates.get(kind)
        return est.cb if est is not None else None


@dataclass(frozen=True)
class _Member:
    """A sample that passed ``estimate``'s checks: its place among the
    draws, its rows of the original data, their counts, its own scaling
    and, for ridge, its fold labels."""

    index: int
    draw: np.ndarray
    counts: np.ndarray
    scaling: ScalingParams
    fold_id: np.ndarray | None


@dataclass(frozen=True)
class BenefitPipeline:
    """Configuration for a full estimation run.

    ``model`` selects ridge (cross-validated l2 penalty) or ``ml``
    (unpenalized).  The penalty grid defaults to 100 log-spaced values
    spanning a 1e-4 ratio under 10-fold cross-validation; the simulation
    study's ``SIM_PIPELINE`` shrinks these for speed.  ``precision``, a
    key of ``nbglm.PRECISIONS``, sets the reported fit's tolerances; CV
    folds always run at ``"relaxed"``.  Every setting is checked on
    construction (``ValueError``).
    """

    model: str = MODELS[0]
    cv_folds: int = 10
    lambda_grid_size: int = 100
    lambda_min_ratio: float = 1e-4
    cv_loss: str = CV_LOSSES[0]
    precision: str = "final"

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {', '.join(MODELS)}")
        if self.cv_folds < 2:
            raise ValueError("cv folds must be at least 2")
        if self.lambda_grid_size < 1:
            raise ValueError("penalty grid size must be at least 1")
        if not 0.0 < self.lambda_min_ratio < 1.0:
            raise ValueError("penalty grid min ratio must lie in (0, 1)")
        if self.cv_loss not in CV_LOSSES:
            raise ValueError(f"cv loss must be one of {', '.join(CV_LOSSES)}")
        if self.precision not in nbglm.PRECISIONS:
            raise ValueError(f"precision must be one of {', '.join(nbglm.PRECISIONS)}")

    def estimate(self, data: TrialDataset, seed: int | None = None) -> PipelineResult:
        """Standardize, select the penalty, fit, and compute both
        concentration estimators on ``data``.

        ``seed`` drives cross-validation fold assignment and is required
        for the ridge model.  Raises on fitting failures; estimator-level
        failures (orientation, degenerate denominators) are recorded per
        estimator instead so callers can count them.  This is the
        one-sample case of ``estimate_resamples``: all-ones counts, in the
        sample's own coordinates.
        """
        (result,) = self._estimate(data, None, [seed])
        if isinstance(result, CbIndexError):
            raise result
        return result

    def estimate_resamples(
        self, data: TrialDataset, draws: list[np.ndarray], seeds: list[int] | None = None
    ) -> list[PipelineResult | CbIndexError]:
        """``estimate`` of every resample ``data.subset(draw)``, draw i
        with fold seed ``seeds[i]`` (required for ridge): per draw, the
        result, or the error that ended that resample.

        The resamples are fitted together, as members of batches over the
        design of ``data`` weighed by their subject counts (see ``_fit``).
        None is copied: its checks (arms, covariate spread, ridge folds, events,
        ML existence) and estimators read its draw, ties ranked as in the copy.
        """
        return self._estimate(data, draws, seeds)

    def _estimate(
        self, data: TrialDataset, draws: list[np.ndarray] | None, seeds: list[int | None] | None
    ) -> list[PipelineResult | CbIndexError]:
        """``estimate_resamples``, or, when ``draws`` is None, ``estimate`` of
        ``data`` read without indexing: the identity draw gives the same numbers
        at 9% more peak RSS (100k rows; glibc's heap layout).  Each sample is
        decided before any fit: arms, covariate spread, ridge folds, events, then
        ML existence on the design, built lazily so a constant covariate fails alone."""
        resampled = draws is not None
        draws = [np.asarray(draw) for draw in draws] if resampled else [np.arange(data.n)]
        if seeds is not None and len(seeds) != len(draws):
            raise ValueError(f"{len(seeds)} fold seeds given for {len(draws)} draws")
        if self.model == "ridge" and (seeds is None or None in seeds):
            raise ValueError("ridge pipeline needs a seed for fold assignment")
        out: list[PipelineResult | CbIndexError | None] = []
        group, design = [], None
        for i, draw in enumerate(draws):
            rows = draw if resampled else slice(None)
            counts = np.bincount(draw, minlength=data.n).astype(np.float64)
            try:
                _reject_unfit_arms(data, counts)
                *_, scaling = _column_scaling(data.covariates[rows], data.covariate_names)
                fold_id = None if self.model == "ml" else nbglm._stratified_folds(
                    data.treatment[rows], self.cv_folds, int(seeds[i]))
                if counts @ data.events == 0:
                    raise DispersionError("dispersion undefined: all event counts are zero")
                design = design or nbglm.build_design_matrix(*standardize(data))
                if self.model == "ml" and (error := _infinite_estimate(design, counts)) is not None:
                    raise error
            except CbIndexError as exc:
                out.append(exc)
                continue
            out.append(None)
            group.append(_Member(i, draw, counts, scaling, fold_id))
        for member, fitted in zip(group, self._fit(design, group) if group else []):
            try:
                if isinstance(fitted, CbIndexError):
                    raise fitted
                _require_converged(fitted[0])
                out[member.index] = self._evaluate_model(
                    *fitted, data, member.draw if resampled else None)
            except CbIndexError as exc:
                out[member.index] = exc
        return out

    def _fit(
        self, design: nbglm.DesignMatrix, group: list[_Member]
    ) -> list[tuple[nbglm.FittedBenefitModel, nbglm.CvResult | None] | CbIndexError]:
        """Model and penalty choice of each member of ``group``, fitted as
        count rows over ``design``: or, if the batch fails numerically,
        each member alone, a failing member giving its error.

        Maximum likelihood is one ``nbglm.fit_weighted`` batch.  ML
        predictions do not depend on how the covariates were standardized
        (the design spans the same columns either way), so its members use
        the design's.  Ridge penalizes the standardized coefficients: each
        member works in the coordinates of its own scaling, its
        penalty grid comes from its counts, every fold of every member is
        one member of a cross-validation batch, and the chosen penalties
        are fitted as one more batch.
        """
        try:
            counts = np.array([m.counts for m in group])
            if self.model == "ml":
                models = nbglm.fit_weighted(design, counts, 0.0, self.precision)
                return [(model, None) for model in models]
            scalings = [m.scaling for m in group]
            grids = nbglm.default_lambda_grid(
                design, counts, self.lambda_grid_size, self.lambda_min_ratio, scalings
            )
            cvs = nbglm.cross_validate_lambda(
                design,
                [m.draw for m in group],
                [m.fold_id for m in group],
                self.cv_folds,
                grids,
                self.cv_loss,
                scalings,
            )
            lam = np.array([cv.chosen_lambda for cv in cvs])
            models = nbglm.fit_weighted(design, counts, lam, self.precision, scalings)
            return list(zip(models, cvs))
        except (NumericalError, DispersionError) as exc:
            if len(group) == 1:
                return [exc]
        return [fitted for member in group for fitted in self._fit(design, [member])]

    def evaluate(self, fitted: PipelineResult, data: TrialDataset) -> PipelineResult:
        """Apply an already-fitted model to a new dataset: no refitting,
        the model only ranks and predicts; observed outcomes in ``data``
        feed the semi-parametric estimator."""
        return self._evaluate_model(fitted.model, None, data)

    def _evaluate_model(self, model: nbglm.FittedBenefitModel, cv: nbglm.CvResult | None,
                        data: TrialDataset, draw: np.ndarray | None = None) -> PipelineResult:
        bv = bn.predicted_benefit(model, data, draw)
        estimates: dict[str, bn.CbEstimate] = {}
        failures: dict[str, str] = {}
        try:
            estimates["parametric"] = bn.cb_parametric(bv)
        except OrientationError as exc:
            failures["parametric"] = _orientation_failure(exc, data, bv)
        except EstimationError as exc:
            failures["parametric"] = str(exc)
        try:
            estimates["semiparametric"] = bn.cb_semiparametric(data, bv)
        except EstimationError as exc:
            failures["semiparametric"] = str(exc)
        return PipelineResult(model, bv, estimates, failures, cv)


def _require_converged(model: nbglm.FittedBenefitModel) -> None:
    meta = model.fit_meta
    # At its bound the dispersion search returns exp(log(THETA_MIN)), a rounding above it.
    if meta.converged and model.dispersion <= nbglm.THETA_MIN * (1.0 + 1e-9):
        raise ConvergenceError(
            f"the dispersion ended at its lower bound theta={nbglm.THETA_MIN:g}: "
            "the fitted means cannot describe the counts"
        )
    if meta.converged:
        return
    if meta.dispersion_rounds >= nbglm._MAX_ROUNDS:
        raise ConvergenceError(f"the dispersion did not settle in {meta.dispersion_rounds} rounds")
    raise ConvergenceError(f"fit did not converge in {meta.iterations} iterations")


def _orientation_failure(exc: OrientationError, data: TrialDataset, bv: bn.BenefitVector) -> str:
    """The parametric failure for a negative model mean benefit: flipped
    labels are blamed only when the sample's observed event rates agree."""
    if not np.isfinite(observed := bn.observed_mean_benefit(data, bv)):
        return (
            f"model mean benefit {exc.mean_benefit:.6g} is negative, and the observed "
            f"control-minus-treated event rate difference is {observed}, so the labels "
            "cannot be checked: an arm of the sample is empty, or its events overflow "
            "a tiny follow-up"
        )
    if observed >= 0:
        return (
            f"model mean benefit {exc.mean_benefit:.6g} is negative, but the observed "
            f"control-minus-treated event rate difference is {observed:+.6g} per unit of "
            "follow-up time: the labels are not reversed; the fitted model contradicts "
            "the observed outcomes"
        )
    return str(exc)


def _reject_unfit_arms(data: TrialDataset, counts: np.ndarray) -> None:
    """Raise before any fit if an arm of the sample with ``counts`` has no subjects."""
    subjects = np.bincount(data.treatment, weights=counts, minlength=2)
    for arm, name in enumerate(("control", "treated")):
        if subjects[arm] == 0:
            raise EstimatorUndefinedError(
                f"no subjects in the {name} arm (treatment={arm}): the treatment effect "
                "and its interactions cannot be estimated"
            )


def _infinite_estimate(design: nbglm.DesignMatrix, counts: np.ndarray) -> EstimationError | None:
    """The error that the maximum-likelihood estimate on the rows ``counts``
    weighs is infinite, or None: it is when some z = X g is 0 on every row with
    events and <= 0, not all 0, on the rest (Santos Silva & Tenreyro 2010).  Per
    arm z = [1, x] N u, N the null space of the rows with events, and no u exists
    iff -1'B is a nonnegative combination of the rows of B, the eventless rows
    times N (Stiemke); a nonzero nonnegative least-squares residual is such a u."""
    mains, treated = np.r_[0, 2:2 + design.m], np.r_[1, 2 + design.m:2 + 2 * design.m]
    weighed, events = counts > 0, design.response > 0
    if not (weighed & events).any():
        return None  # left to the fit
    for arm, name in enumerate(("control arm (treatment=0)", "treated arm (treatment=1)")):
        in_arm = weighed & (design.treatment == arm)
        if not (in_arm & events).any():
            direction, why = -np.eye(len(mains))[0], f"no events in the {name}"
        else:
            event_rows, r = np.flatnonzero(in_arm & events), np.zeros((0, len(mains)))
            # R of the rows with events, in blocks small enough for one BLAS thread
            for part in np.array_split(event_rows, event_rows.size * len(mains) // 8192 + 1):
                r = np.linalg.qr(np.vstack([r, design.X[np.ix_(part, mains)]]), mode="r")
            _, sigma, vt = np.linalg.svd(r)
            if not (null := vt[np.sum(sigma > 1e-5 * sigma[0]):].T).size:
                continue
            rows, with_events = design.X[np.ix_(in_arm, mains)], events[in_arm]
            b = rows[~with_events] @ null
            z = rows @ (direction := null @ _nnls_residual(b.T, -b.sum(axis=0)))
            tol = 1e-7 * np.abs(z).max()
            if not tol or z.max() > tol or np.abs(z[with_events]).max() > tol:
                continue  # no z that holds on the design
            why = (f"the covariates separate {int(counts[in_arm] @ (z < -tol))} subjects "
                   f"without events in the {name} from those with events")
        support = np.abs(direction) > 1e-7 * np.abs(direction).max()
        named = treated[support] if arm else np.sort(np.r_[mains[support], treated[support]])
        return EstimationError(f"{why}: the maximum-likelihood estimate is infinite in "
                               f"{', '.join(design.column_names[j] for j in named)}; "
                               "the ridge model gives a finite estimate")
    return None


def _nnls_residual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b - a v at the v >= 0 of least norm (Lawson & Hanson 1974, ch. 23)."""
    v, passive, r = np.zeros(a.shape[1]), np.zeros(a.shape[1], dtype=bool), b
    tol = 1e-10 * np.abs(a).sum(axis=0).max(initial=0) * np.abs(b).max(initial=0)
    while (gradient := np.where(passive, -np.inf, a.T @ r)).max(initial=0) > tol:
        passive[gradient.argmax()] = True
        while True:
            s = np.zeros_like(v)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if (s[passive] > 0).all():
                break
            blocked = np.flatnonzero(passive & (s <= 0))
            step = v[blocked] / (v[blocked] - s[blocked])
            v += step.min() * (s - v)
            passive[blocked[step.argmin()]] = False
            passive &= v > 0
        if not np.linalg.norm(b - a @ s) < np.linalg.norm(r):
            return r  # a step that gains nothing: rounding, at the optimum
        v, r = s, b - a @ s
    return r
