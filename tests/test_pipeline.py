import numpy as np
import pytest

from cbindex import nbglm
from cbindex.benefit import mean_benefit, observed_mean_benefit
from cbindex.errors import EstimationError
from cbindex.pipeline import BenefitPipeline
from cbindex.trial_data import make_dataset

from conftest import simulate_trial

MILD = np.array([0.3, -0.5, 0.4, -0.3, 0.3, -0.2])


class TestBenefitPipeline:
    def test_ridge_needs_seed(self, small_trial):
        with pytest.raises(ValueError, match="seed"):
            BenefitPipeline(model="ridge").estimate(small_trial)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            BenefitPipeline(model="lasso")

    @pytest.mark.parametrize("bad", [
        {"cv_folds": 1},
        {"lambda_grid_size": 0},
        {"lambda_min_ratio": 0.0},
        {"lambda_min_ratio": 1.0},
        {"cv_loss": "abs"},
        {"precision": "loose"},
    ])
    def test_bad_settings_rejected(self, bad):
        with pytest.raises(ValueError):
            BenefitPipeline(**bad)

    def test_estimate_produces_both_kinds(self, small_trial):
        result = BenefitPipeline(model="ml").estimate(small_trial)
        assert set(result.estimates) == {"parametric", "semiparametric"}
        assert result.cv is None
        assert result.model.penalty == 0.0

    def test_ridge_records_cv_choice(self, small_trial):
        pipe = BenefitPipeline(model="ridge", cv_folds=3, lambda_grid_size=4,
                               lambda_min_ratio=1e-2, precision="relaxed")
        result = pipe.estimate(small_trial, seed=5)
        assert result.cv is not None
        assert result.model.penalty == result.cv.chosen_lambda

    def test_evaluate_reuses_model(self):
        train = simulate_trial(MILD, n=400, seed=51, theta=2.0, m=2)
        test = simulate_trial(MILD, n=300, seed=52, theta=2.0, m=2)
        pipe = BenefitPipeline(model="ml")
        fitted = pipe.estimate(train)
        applied = pipe.evaluate(fitted, test)
        assert applied.model is fitted.model
        assert applied.benefit.n == test.n
        # out-of-sample semi estimate uses the new outcomes
        assert "semiparametric" in applied.estimates

    @pytest.mark.parametrize("empty_arm, name", [(1, "treated"), (0, "control")])
    def test_ml_rejects_an_arm_without_events_before_fitting(self, monkeypatch,
                                                              empty_arm, name):
        d = simulate_trial(MILD, n=300, seed=53, theta=2.0, m=2)
        separated = make_dataset(d.treatment, np.where(d.treatment == empty_arm, 0, d.events),
                                 d.time, d.covariates)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit called")

        monkeypatch.setattr(nbglm, "fit", no_fit)
        with pytest.raises(EstimationError, match=f"no events in the {name} arm.*infinite"):
            BenefitPipeline(model="ml").estimate(separated)

    def test_ridge_still_fits_an_arm_without_events(self):
        d = simulate_trial(MILD, n=300, seed=53, theta=2.0, m=2)
        separated = make_dataset(d.treatment, np.where(d.treatment == 1, 0, d.events),
                                 d.time, d.covariates)
        pipe = BenefitPipeline(model="ridge", cv_folds=3, lambda_grid_size=4,
                               lambda_min_ratio=1e-2)
        result = pipe.estimate(separated, seed=5)
        assert np.all(np.isfinite(result.model.coefficients))
        assert result.model.treatment_effect < 0

    @pytest.mark.parametrize("seed, labels_reversed", [(2, False), (0, True)])
    def test_negative_model_benefit_blames_the_labels_only_when_the_outcomes_agree(
            self, seed, labels_reversed):
        # on these 20-subject draws the ridge model's mean benefit comes
        # out negative; only on the second do the observed rates agree
        coefs = np.array([0.3, -0.5, 0.35, -0.25, 0.2, 0.15, -0.1, 0.05,
                          -0.3, 0.2, -0.15, 0.1, 0.05, -0.05])
        d = simulate_trial(coefs, n=20, seed=seed, theta=2.0, m=6, fixed_time=False)
        result = BenefitPipeline().estimate(d, seed=1)
        model_mean = mean_benefit(result.benefit)
        observed = observed_mean_benefit(d)
        assert model_mean < 0 and (observed < 0) == labels_reversed
        message = result.failures["parametric"]
        assert f"{model_mean:.6g}" in message
        if labels_reversed:
            assert "flip the treatment labels" in message
        else:
            assert f"{observed:+.6g}" in message
            assert "flip" not in message
        assert "parametric" not in result.estimates
