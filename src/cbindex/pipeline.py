"""End-to-end estimation runs: data in, concentration estimates out.

A pipeline bundles every choice a run depends on (penalized or plain
maximum likelihood, cross-validation settings, fit precision) so that
resampling procedures can repeat the *whole* calculation -- including
penalty selection -- on each replicate, and so a model fitted on one
sample can be applied unchanged to another.  Maximum-likelihood resamples
are fitted many at once, as subject counts over the original design.
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
from .trial_data import TrialDataset, standardize

__all__ = ["BenefitPipeline", "PipelineResult", "ESTIMATOR_KINDS", "CV_LOSSES"]

ESTIMATOR_KINDS = ("parametric", "semiparametric")
# Held-out losses the cross-validation scorer understands; the first is
# the default.
CV_LOSSES = ("squared", "deviance")


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
        estimator instead so callers can count them.
        """
        _reject_unfit_arms(data, self.model)
        std, scaling = standardize(data)
        design = nbglm.build_design_matrix(std, scaling=scaling)
        cv = None
        if self.model == "ridge":
            if seed is None:
                raise ValueError("ridge pipeline needs a seed for fold assignment")
            grid = nbglm.default_lambda_grid(
                design, size=self.lambda_grid_size, min_ratio=self.lambda_min_ratio
            )
            cv = nbglm.cross_validate_lambda(
                design, folds=self.cv_folds, grid=grid, seed=int(seed), loss=self.cv_loss
            )
            lam = cv.chosen_lambda
        else:
            lam = 0.0
        model = nbglm.fit_alternating(design, lam, precision=self.precision)
        _require_converged(model)
        result = self._evaluate_model(model, data)
        result.cv = cv
        return result

    def estimate_resamples(
        self, data: TrialDataset, draws: list[np.ndarray]
    ) -> list[PipelineResult | CbIndexError]:
        """Maximum-likelihood ``estimate`` of every resample
        ``data.subset(draw)``: per draw, the result, or the error that
        ended that resample.

        The resamples are fitted together, as members of one
        ``nbglm.fit_weighted`` batch over the design of ``data`` weighed by
        their subject counts.  ML predictions do not depend on how the
        covariates were standardized (the design spans the same columns
        either way), so each result equals ``estimate``'s on that resample
        up to rounding, and the resample's own standardization is not
        computed.  Each resample still passes ``estimate``'s checks, its
        arms and its covariate spread, before it joins the batch.  A batch
        that fails numerically is refitted one member at a time, so that
        only the failing resample fails.  The estimators run on each
        materialized resample.
        """
        if self.model != "ml":
            raise ValueError("only maximum-likelihood resamples are fitted as one batch")
        samples = [data.subset(draw) for draw in draws]
        out: list[PipelineResult | CbIndexError] = []
        members = []
        for i, sample in enumerate(samples):
            try:
                _reject_unfit_arms(sample, self.model)
                standardize(sample)  # raises on a constant covariate
            except CbIndexError as exc:
                out.append(exc)
            else:
                out.append(None)
                members.append(i)
        if not members:
            return out
        std, scaling = standardize(data)
        design = nbglm.build_design_matrix(std, scaling=scaling)
        counts = np.array(
            [np.bincount(draws[i], minlength=data.n) for i in members], dtype=np.float64
        )
        for i, model in zip(members, self._fit_counts(design, counts)):
            if isinstance(model, CbIndexError):
                out[i] = model
                continue
            try:
                _require_converged(model)
                out[i] = self._evaluate_model(model, samples[i])
            except CbIndexError as exc:
                out[i] = exc
        return out

    def _fit_counts(
        self, design: nbglm.DesignMatrix, counts: np.ndarray
    ) -> list[nbglm.FittedBenefitModel | CbIndexError]:
        """ML fits of the count rows as one batch, or, if the batch fails
        numerically, of each row alone, a failing row giving its error."""
        try:
            return nbglm.fit_weighted(design, counts, 0.0, self.precision)
        except (NumericalError, DispersionError) as exc:
            if counts.shape[0] == 1:
                return [exc]
        return [model for row in counts for model in self._fit_counts(design, row[None])]

    def evaluate(self, fitted: PipelineResult, data: TrialDataset) -> PipelineResult:
        """Apply an already-fitted model to a new dataset: no refitting,
        the model only ranks and predicts; observed outcomes in ``data``
        feed the semi-parametric estimator."""
        return self._evaluate_model(fitted.model, data)

    def _evaluate_model(
        self, model: nbglm.FittedBenefitModel, data: TrialDataset
    ) -> PipelineResult:
        bv = bn.predicted_benefit(model, data)
        estimates: dict[str, bn.CbEstimate] = {}
        failures: dict[str, str] = {}
        try:
            estimates["parametric"] = bn.cb_parametric(bv)
        except OrientationError as exc:
            failures["parametric"] = _orientation_failure(exc, data)
        except EstimationError as exc:
            failures["parametric"] = str(exc)
        try:
            estimates["semiparametric"] = bn.cb_semiparametric(data, bv)
        except EstimationError as exc:
            failures["semiparametric"] = str(exc)
        return PipelineResult(model=model, benefit=bv, estimates=estimates, failures=failures)


def _require_converged(model: nbglm.FittedBenefitModel) -> None:
    if not model.fit_meta.converged:
        raise ConvergenceError(f"fit did not converge in {model.fit_meta.iterations} iterations")


def _orientation_failure(exc: OrientationError, data: TrialDataset) -> str:
    """The parametric failure for a negative model mean benefit: flipped
    labels are blamed only when the observed event rates agree."""
    if data.has_both_arms and (observed := bn.observed_mean_benefit(data)) >= 0:
        return (
            f"model mean benefit {exc.mean_benefit:.6g} is negative, but the observed "
            f"control-minus-treated event rate difference is {observed:+.6g} per unit of "
            "follow-up time: the labels are not reversed; the fitted model contradicts "
            "the observed outcomes"
        )
    return str(exc)


def _reject_unfit_arms(data: TrialDataset, model: str) -> None:
    """Raise before any fit if an arm has no subjects (no treatment term is
    identifiable), or, for maximum likelihood, if one arm has no events
    while the other has events: the unpenalized treatment-effect estimate
    is then infinite, and IRLS would only walk toward it until its
    iteration cap."""
    subjects = np.bincount(data.treatment, minlength=2)
    events = np.bincount(data.treatment, weights=data.events, minlength=2)
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
