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
        ridge, draws = BenefitPipeline(model="ridge"), [np.arange(small_trial.n)] * 2
        for run in (lambda: ridge.estimate(small_trial),
                    lambda: ridge.estimate_resamples(small_trial, draws),
                    lambda: ridge.estimate_resamples(small_trial, draws, [1, None])):
            with pytest.raises(ValueError, match="ridge pipeline needs a seed for fold assignment"):
                run()

    def test_resamples_need_one_seed_per_draw(self, small_trial):
        draws = [np.arange(small_trial.n)] * 2
        for model in ("ridge", "ml"):
            with pytest.raises(ValueError, match="1 fold seeds given for 2 draws"):
                BenefitPipeline(model=model).estimate_resamples(small_trial, draws, [1])

    @pytest.mark.parametrize("pipeline", [
        BenefitPipeline(model="ridge", cv_folds=3, lambda_grid_size=6, lambda_min_ratio=1e-2),
        BenefitPipeline(model="ml"),
    ], ids=["ridge", "ml"])
    def test_one_sample_run_is_the_identity_draw(self, small_trial, monkeypatch, pipeline):
        """``estimate`` equals, bit for bit, the resample run of the draw
        of every subject once, whose scaling is the design's: its members
        run without a basis."""
        alone = pipeline.estimate(small_trial, seed=7)
        bases, bases_of = [], nbglm._bases

        def recorded(*args):
            bases.append(bases_of(*args))
            return bases[-1]

        monkeypatch.setattr(nbglm, "_bases", recorded)
        (drawn,) = pipeline.estimate_resamples(small_trial, [np.arange(small_trial.n)], [7])
        assert bases and all(basis is None for basis in bases)
        assert np.array_equal(drawn.model.coefficients, alone.model.coefficients)
        assert drawn.model.penalty == alone.model.penalty
        assert drawn.model.dispersion == alone.model.dispersion
        for kind in ("parametric", "semiparametric"):
            assert drawn.cb_value(kind) == alone.cb_value(kind) is not None

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
