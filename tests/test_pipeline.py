import numpy as np
import pytest

from scipy.optimize import linprog

from cbindex import nbglm
from cbindex.benefit import BenefitVector, mean_benefit, observed_mean_benefit
from cbindex.errors import (
    ConvergenceError,
    DegenerateCovariateError,
    DispersionError,
    EstimationError,
    EstimatorUndefinedError,
    NumericalError,
    OrientationError,
)
from cbindex.nbglm import FitMeta, FittedBenefitModel
from cbindex.pipeline import (BenefitPipeline, PipelineResult, _infinite_estimate,
                              _orientation_failure)
from cbindex.trial_data import ScalingParams, TrialDataset, make_dataset, standardize

from conftest import separated_trial, simulate_trial

MILD = np.array([0.3, -0.5, 0.4, -0.3, 0.3, -0.2])
PIPELINES = [
    BenefitPipeline(model="ridge", cv_folds=3, lambda_grid_size=4, lambda_min_ratio=1e-2),
    BenefitPipeline(model="ml"),
]


def binary_trial(n=200, seed=61):
    """A trial whose two covariates are 0/1: its subjects share four
    covariate profiles, so distinct subjects tie in benefit."""
    rng = np.random.default_rng(seed)
    a, x = rng.integers(0, 2, n), rng.integers(0, 2, (n, 2)).astype(np.float64)
    mu = np.exp(0.3 - 0.5 * a + x @ [0.4, -0.3] + (a[:, None] * x) @ [-0.6, 0.3])
    return make_dataset(a, rng.negative_binomial(2.0, 2.0 / (2.0 + mu)), np.ones(n), x)


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

    @pytest.mark.parametrize("pipeline", PIPELINES, ids=["ridge", "ml"])
    def test_resamples_rank_ties_by_position_in_the_draw(self, pipeline):
        """A resample's subjects tie across copies and across subjects of
        one covariate profile; each replicate ranks them as the copied
        resample does, so both estimators match ``estimate`` of
        ``data.subset(draw)``."""
        d = binary_trial()
        rng = np.random.default_rng(62)
        draws = [rng.integers(0, d.n, d.n) for _ in range(6)]
        seeds = list(range(11, 17))
        for draw, seed, res in zip(draws, seeds, pipeline.estimate_resamples(d, draws, seeds)):
            ref = pipeline.estimate(d.subset(draw), seed=seed)
            np.testing.assert_allclose(res.benefit.sorted_values, ref.benefit.sorted_values,
                                       rtol=1e-12, atol=0)
            assert np.array_equal(draw[ref.benefit.order], res.benefit.order)
            for kind in ("parametric", "semiparametric"):
                assert res.cb_value(kind) == pytest.approx(ref.cb_value(kind), rel=1e-12, abs=0)

    @pytest.mark.parametrize("pipeline", PIPELINES, ids=["ridge", "ml"])
    def test_resamples_build_no_dataset(self, small_trial, monkeypatch, pipeline):
        """A batch of resamples copies no dataset: it reads their draws, and
        builds one dataset, ``standardize(data)``, for the shared design."""
        built, subsets = [], []
        post_init, subset = TrialDataset.__post_init__, TrialDataset.subset
        monkeypatch.setattr(TrialDataset, "__post_init__",
                            lambda d: built.append(1) or post_init(d))
        monkeypatch.setattr(TrialDataset, "subset",
                            lambda d, idx: subsets.append(1) or subset(d, idx))
        rng = np.random.default_rng(63)
        draws = [rng.integers(0, small_trial.n, small_trial.n) for _ in range(10)]
        results = pipeline.estimate_resamples(small_trial, draws, list(range(10)))
        assert all(isinstance(r, PipelineResult) for r in results)
        assert (len(built), len(subsets)) == (1, 0)

    @pytest.mark.parametrize("pipeline", PIPELINES, ids=["ridge", "ml"])
    def test_an_eventless_resample_fails_alone_before_any_fit(self, small_trial, monkeypatch,
                                                              pipeline):
        """A resample that draws no subject with events has no dispersion: it
        fails before the batch with the kernel's message, and its chunk-mates
        are fitted by one batch, as if it were absent."""
        batches, fit_weighted = [], nbglm.fit_weighted

        def recorded(design, counts, *args):
            batches.append(len(counts))
            return fit_weighted(design, counts, *args)

        monkeypatch.setattr(nbglm, "fit_weighted", recorded)
        rng = np.random.default_rng(64)
        n, eventless = small_trial.n, np.flatnonzero(small_trial.events == 0)
        draws = [rng.integers(0, n, n), rng.choice(eventless, n), rng.integers(0, n, n)]
        first, failed, last = pipeline.estimate_resamples(small_trial, draws, [1, 2, 3])
        assert isinstance(failed, DispersionError)
        assert str(failed) == "dispersion undefined: all event counts are zero"
        assert batches == [2]
        (alone,) = pipeline.estimate_resamples(small_trial, draws[1:2], [2])
        assert str(alone) == str(failed) and batches == [2]
        without = pipeline.estimate_resamples(small_trial, draws[::2], [1, 3])
        for res, ref in zip((first, last), without):
            assert np.array_equal(res.model.coefficients, ref.model.coefficients)

    @pytest.mark.parametrize("arms, x, error", [
        ([0, 1] * 10, np.r_[1.0, np.zeros(19)], DispersionError),
        ([0, 1] * 10, np.ones(20), DegenerateCovariateError),
        ([1] * 20, np.r_[1.0, np.zeros(19)], EstimatorUndefinedError),
    ], ids=["no-events", "constant-covariate", "one-arm"])
    @pytest.mark.parametrize("model", ["ridge", "ml"])
    def test_a_sample_without_events_fails_after_its_arms_and_covariates(self, monkeypatch,
                                                                          arms, x, error, model):
        """The pre-fit checks keep their order: an arm, then the covariates'
        spread, then the events; none of them fits."""
        monkeypatch.setattr(nbglm, "fit_weighted", None)
        d = make_dataset(arms, np.zeros(20, dtype=int), np.ones(20), x[:, None])
        with pytest.raises(error):
            BenefitPipeline(model=model, cv_folds=2).estimate(d, seed=1)

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
        assert result.cv.chosen_index == np.argmin(result.cv.cv_error)

    @pytest.mark.parametrize("model, calls", [("ridge", 1), ("ml", 0)])
    def test_each_ridge_batch_runs_the_kernel_grid_and_cv_once(self, small_trial, monkeypatch,
                                                                model, calls):
        """The benchmark's layer table times these two kernel functions by
        name: one sample or a batch of resamples calls each once, and
        maximum likelihood neither."""
        counts = {}
        for name in ("default_lambda_grid", "cross_validate_lambda"):
            counts[name] = 0

            def counted(*args, _name=name, _run=getattr(nbglm, name)):
                counts[_name] += 1
                return _run(*args)

            monkeypatch.setattr(nbglm, name, counted)
        pipe = BenefitPipeline(model=model, cv_folds=3, lambda_grid_size=4, lambda_min_ratio=1e-2)
        pipe.estimate(small_trial, seed=5)
        assert set(counts.values()) == {calls}
        rng = np.random.default_rng(8)
        draws = [rng.integers(0, small_trial.n, small_trial.n) for _ in range(3)]
        results = pipe.estimate_resamples(small_trial, draws, [1, 2, 3])
        assert all(isinstance(r, PipelineResult) for r in results)
        assert set(counts.values()) == {2 * calls}

    def test_penalties_whose_held_out_loss_overflows_cannot_be_chosen(self):
        d = simulate_trial(MILD, n=300, seed=0, m=2)
        x = d.covariates.copy()
        x[0, 0] = 1e3
        cv = BenefitPipeline().estimate(make_dataset(d.treatment, d.events, d.time, x),
                                        seed=1).cv
        overflowed = np.isinf(cv.cv_error)
        assert 0 < overflowed.sum() < overflowed.size
        assert cv.chosen_lambda == cv.lambda_grid[np.argmin(cv.cv_error)]
        assert not overflowed[cv.lambda_grid == cv.chosen_lambda].any()

    def test_a_grid_with_no_finite_held_out_loss_is_a_numerical_error(self):
        d = simulate_trial(MILD, n=300, seed=0, m=2)
        time = d.time.copy()
        time[0] = 1e300
        with pytest.raises(NumericalError,
                           match="held-out loss is not finite at any of the 100 penalties"):
            BenefitPipeline().estimate(make_dataset(d.treatment, d.events, time, d.covariates),
                                       seed=1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ml_steps_too_large_to_square_are_rejected_without_a_warning(self):
        """Subject 1's offset of 690 drags the fit to finite coefficients
        with every other mean underflowing and the dispersion on its lower
        bound: the fit ends without a warning, and the pipeline names the
        bound instead of reporting that fit."""
        d = simulate_trial(MILD, n=150, seed=42, theta=2.0, m=2)
        time = d.time.copy()
        time[1] = 1e300
        data = make_dataset(d.treatment, d.events, time, d.covariates)
        std, scaling = standardize(data)
        design = nbglm.build_design_matrix(std, scaling=scaling)
        (model,) = nbglm.fit_weighted(design, np.ones((1, data.n)), 0.0, "final")
        assert np.all(np.isfinite(model.coefficients))
        assert model.fit_meta.converged and model.dispersion == pytest.approx(nbglm.THETA_MIN)
        with pytest.raises(ConvergenceError, match="lower bound theta=0.001"):
            BenefitPipeline(model="ml").estimate(data)

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

        monkeypatch.setattr(nbglm, "fit_weighted", no_fit)
        names = "treatment" if empty_arm else "intercept, treatment"
        with pytest.raises(EstimationError, match=f"no events in the {name} arm.*infinite"
                           f" in {names}; the ridge model gives a finite estimate"):
            BenefitPipeline(model="ml").estimate(separated)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_ml_names_the_infinite_coefficients_before_fitting(self, monkeypatch, seed):
        """On every separated trial the estimate is infinite in the same two
        coefficients; the check names them, and no fit runs."""
        def no_fit(*args, **kwargs):
            raise AssertionError("fit called")

        monkeypatch.setattr(nbglm, "fit_weighted", no_fit)
        with pytest.raises(EstimationError, match=r"subjects without events in the treated arm "
                           r"\(treatment=1\) from those with events: the maximum-likelihood "
                           r"estimate is infinite in treatment, treatment:x1; the ridge model"):
            BenefitPipeline(model="ml").estimate(separated_trial(seed))

    def test_existence_check_agrees_with_linear_programming(self):
        """The estimate on the rows a sample weighs is infinite exactly when
        some z = X g is 0 on the rows with events and <= 0, not all 0, on the
        rest: when min sum(z) over eventless rows, with -1 <= z <= 0 there and
        z = 0 on the rows with events, is below 0.  Random small designs mix
        binary, three-level and normal covariates; half zero the events of a
        covariate-defined subgroup of one arm, half weigh bootstrap counts."""
        rng = np.random.default_rng(2026)
        checked = infinite = 0
        while checked < 300:
            n, m = int(rng.integers(8, 81)), int(rng.integers(1, 4))
            columns = [rng.integers(0, 2, n), rng.integers(0, 3, n), rng.standard_normal(n)]
            x = np.column_stack([columns[k] for k in rng.integers(0, 3, m)]).astype(np.float64)
            a, y = rng.integers(0, 2, n), rng.poisson(np.exp(rng.normal(-0.5, 0.7)), n)
            counts = np.ones(n)
            if checked % 2:
                counts = np.bincount(rng.integers(0, n, n), minlength=n).astype(np.float64)
            else:
                j = rng.integers(m)
                cut = rng.choice(x[:, j])
                y[(a == rng.integers(2)) & ((x[:, j] >= cut) == (rng.random() < 0.5))] = 0
            weighed = counts > 0
            if len(set(a[weighed])) < 2 or not y[weighed].any() or np.ptp(x, axis=0).min() == 0:
                continue
            std, scaling = standardize(make_dataset(a, y, np.ones(n), x))
            design = nbglm.build_design_matrix(std, scaling=scaling)
            X, events = design.X[weighed], y[weighed] > 0
            eventless = X[~events]
            lp = linprog(eventless.sum(axis=0), A_ub=np.vstack([eventless, -eventless]),
                         b_ub=np.r_[np.zeros(len(eventless)), np.ones(len(eventless))],
                         A_eq=X[events], b_eq=np.zeros(events.sum()), bounds=(None, None),
                         method="highs")
            assert lp.status == 0
            expected = lp.fun < -1e-7
            assert (_infinite_estimate(design, counts) is not None) == expected, checked
            checked += 1
            infinite += expected
        assert 100 < infinite < 200

    def test_an_overflowing_prefix_rate_is_the_semiparametric_failure(self):
        """Subject 0, ranked first, has 1e15 events over 1e-300 years: the
        prefix rate at k = 1 overflows, and the evaluation records that as
        the semi-parametric failure, with no warning."""
        d = make_dataset([1, 0, 1, 0], [10**15, 1, 2, 1], [1e-300, 1, 1, 1],
                         [[0.0], [1.0], [2.0], [3.0]])
        # benefit exp(-x) (1 - exp(-1)) falls with x: subject 0 ranks first
        model = FittedBenefitModel([0.0, -1.0, -1.0, 0.0], ["intercept", "treatment", "x1",
                                   "treatment:x1"], 1.0, 0.0, ScalingParams.identity(1),
                                   FitMeta(0, True, 0.0, ()))
        pipe = BenefitPipeline(model="ml")
        applied = pipe.evaluate(PipelineResult(model, None, {}, {}), d)
        assert applied.failures == {"semiparametric": "semi-parametric partial sums are not "
                                    "finite from k=1: the observed event rates of the "
                                    "top-ranked subjects overflow"}
        assert "parametric" in applied.estimates

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
        observed = observed_mean_benefit(d, result.benefit)
        assert model_mean < 0 and (observed < 0) == labels_reversed
        message = result.failures["parametric"]
        assert f"{model_mean:.6g}" in message
        if labels_reversed:
            assert "flip the treatment labels" in message
        else:
            assert f"{observed:+.6g}" in message
            assert "flip" not in message
        assert "parametric" not in result.estimates

    @pytest.mark.parametrize("treatment, events, time, observed", [
        ([1, 0, 1, 0], [10**15, 10**15, 0, 0], [1e-300] * 4, "nan"),
        ([1, 0, 0, 0], [10**15, 1, 2, 1], [1e-300, 1, 1, 1], "-inf"),
    ], ids=["both-arms-overflow", "treated-arm-overflows"])
    def test_overflowing_observed_rates_do_not_blame_the_labels(
            self, treatment, events, time, observed):
        # events overflow a tiny follow-up: the observed difference is not
        # finite, and that, not the labels, is named (no RuntimeWarning)
        d = make_dataset(treatment, events, time, [[0.0], [1.0], [2.0], [3.0]])
        bv = BenefitVector.from_values([-4.0, -3.0, -2.0, -1.0])
        assert str(observed_mean_benefit(d, bv)) == observed
        message = _orientation_failure(OrientationError(-2.5), d, bv)
        assert message == (
            "model mean benefit -2.5 is negative, and the observed control-minus-treated "
            f"event rate difference is {observed}, so the labels cannot be checked: an arm "
            "of the sample is empty, or its events overflow a tiny follow-up")
