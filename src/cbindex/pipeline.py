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

import math
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

__all__ = ["BenefitPipeline", "PipelineResult", "ESTIMATOR_KINDS", "CV_LOSSES"]

ESTIMATOR_KINDS = ("parametric", "semiparametric")
# Held-out losses the cross-validation scorer understands; the first is
# the default.
CV_LOSSES = ("squared", "deviance")
# Log of the smallest positive double: below it, a mean has underflowed.
_LOG_TINY = math.log(math.ulp(0.0))


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

    model: str = "ridge"
    cv_folds: int = 10
    lambda_grid_size: int = 100
    lambda_min_ratio: float = 1e-4
    cv_loss: str = CV_LOSSES[0]
    precision: str = "final"

    def __post_init__(self):
        if self.model not in ("ridge", "ml"):
            raise ValueError("model must be 'ridge' or 'ml'")
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
        None is copied: its checks (arms, events, covariate spread, ridge
        folds) and estimators read its draw, ties ranked as in the copy.
        """
        return self._estimate(data, draws, seeds)

    def _estimate(
        self, data: TrialDataset, draws: list[np.ndarray] | None, seeds: list[int | None] | None
    ) -> list[PipelineResult | CbIndexError]:
        """``estimate_resamples``, or ``estimate`` of ``data`` itself, read
        without indexing, when ``draws`` is None."""
        resampled = draws is not None
        draws = [np.asarray(draw) for draw in draws] if resampled else [np.arange(data.n)]
        if seeds is not None and len(seeds) != len(draws):
            raise ValueError(f"{len(seeds)} fold seeds given for {len(draws)} draws")
        if self.model == "ridge" and (seeds is None or None in seeds):
            raise ValueError("ridge pipeline needs a seed for fold assignment")
        out: list[PipelineResult | CbIndexError] = []
        group = []
        for i, draw in enumerate(draws):
            rows = draw if resampled else slice(None)
            counts = np.bincount(draw, minlength=data.n).astype(np.float64)
            try:
                _reject_unfit_arms(data, counts, self.model)
                *_, scaling = _column_scaling(data.covariates[rows], data.covariate_names)
                fold_id = None if self.model == "ml" else nbglm._stratified_folds(
                    data.treatment[rows], self.cv_folds, int(seeds[i]))
            except CbIndexError as exc:
                out.append(exc)
                continue
            out.append(None)
            group.append(_Member(i, draw, counts, scaling, fold_id))
        if not group:
            return out
        std, scaling = standardize(data)
        design = nbglm.build_design_matrix(std, scaling=scaling)
        for member, fitted in zip(group, self._fit(design, group)):
            if isinstance(fitted, CbIndexError):
                out[member.index] = fitted
                continue
            model, cv = fitted
            try:
                _require_converged(model)
                if self.model == "ml":
                    _require_finite_estimate(model, design, member.counts)
                draw = member.draw if resampled else None
                out[member.index] = self._evaluate_model(model, data, draw)
            except CbIndexError as exc:
                out[member.index] = exc
            else:
                out[member.index].cv = cv
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
            return self._fit_batch(design, group)
        except (NumericalError, DispersionError) as exc:
            if len(group) == 1:
                return [exc]
        return [fitted for member in group for fitted in self._fit(design, [member])]

    def _fit_batch(self, design, group):
        """``_fit`` of the whole group at once; raises if any member fails."""
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

    def evaluate(self, fitted: PipelineResult, data: TrialDataset) -> PipelineResult:
        """Apply an already-fitted model to a new dataset: no refitting,
        the model only ranks and predicts; observed outcomes in ``data``
        feed the semi-parametric estimator."""
        return self._evaluate_model(fitted.model, data)

    def _evaluate_model(
        self, model: nbglm.FittedBenefitModel, data: TrialDataset, draw: np.ndarray | None = None
    ) -> PipelineResult:
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
        return PipelineResult(model=model, benefit=bv, estimates=estimates, failures=failures)


def _require_converged(model: nbglm.FittedBenefitModel) -> None:
    meta = model.fit_meta
    if meta.converged:
        return
    if meta.dispersion_rounds >= nbglm._MAX_ROUNDS:
        raise ConvergenceError(f"the dispersion did not settle in {meta.dispersion_rounds} rounds")
    raise ConvergenceError(f"fit did not converge in {meta.iterations} iterations")


def _require_finite_estimate(
    model: nbglm.FittedBenefitModel, design: nbglm.DesignMatrix, counts: np.ndarray
) -> None:
    """Raise if the fitted mean of a subject with a positive count
    underflows: only coefficients running toward an infinite estimate take
    a linear predictor below ``_LOG_TINY``.  The coefficients named are
    those whose term alone does so on such a subject, or else the largest."""
    underflow = counts > 0
    underflow &= design.X @ model.coefficients + design.offset < _LOG_TINY
    if not underflow.any():
        return
    terms = np.abs(design.X[underflow] * model.coefficients).max(axis=0)
    names = [name for name, term in zip(model.coefficient_names, terms)
             if term >= min(terms.max(), -_LOG_TINY)]
    raise EstimationError(
        f"the maximum-likelihood estimate is infinite in {', '.join(names)}: the fitted "
        f"means of {int(underflow.sum())} subjects underflow to 0; the ridge model gives a "
        "finite estimate"
    )


def _orientation_failure(exc: OrientationError, data: TrialDataset, bv: bn.BenefitVector) -> str:
    """The parametric failure for a negative model mean benefit: flipped
    labels are blamed only when the sample's observed event rates agree."""
    if (observed := bn.observed_mean_benefit(data, bv)) >= 0:
        return (
            f"model mean benefit {exc.mean_benefit:.6g} is negative, but the observed "
            f"control-minus-treated event rate difference is {observed:+.6g} per unit of "
            "follow-up time: the labels are not reversed; the fitted model contradicts "
            "the observed outcomes"
        )
    return str(exc)


def _reject_unfit_arms(data: TrialDataset, counts: np.ndarray, model: str) -> None:
    """Raise before any fit if an arm of the sample with ``counts`` has no
    subjects (no treatment term is identifiable), or, for maximum
    likelihood, if one arm has no events while the other has events: the
    unpenalized treatment-effect estimate is then infinite, and IRLS would
    only walk toward it until its iteration cap."""
    subjects = np.bincount(data.treatment, weights=counts, minlength=2)
    events = np.bincount(data.treatment, weights=counts * data.events, minlength=2)
    for arm, name in enumerate(("control", "treated")):
        if subjects[arm] == 0:
            raise EstimatorUndefinedError(
                f"no subjects in the {name} arm (treatment={arm}): the treatment effect "
                "and its interactions cannot be estimated"
            )
        if model == "ml" and events[arm] == 0 and events[1 - arm] > 0:
            raise EstimationError(
                f"no events in the {name} arm (treatment={arm}): the maximum-likelihood "
                "treatment effect is infinite; the ridge model gives a finite estimate"
            )
