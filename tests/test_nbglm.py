import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar
from scipy.special import gammaln

from cbindex import nbglm
from cbindex.errors import DispersionError, FoldingError, NumericalError
from cbindex.nbglm import (
    DesignMatrix,
    FitMeta,
    FittedBenefitModel,
    build_design_matrix,
    cross_validate_lambda,
    default_lambda_grid,
    estimate_dispersion,
    fit,
    fit_alternating,
    predict_rate,
    _bounded_minimize,
    _log_gamma_ratio,
    _profile_loglik,
    _stratified_folds,
)
from cbindex.simulation import ML_COEFFICIENTS
from cbindex.trial_data import ScalingParams, make_dataset, standardize

from conftest import simulate_trial


def nb_neg_loglik(beta, X, y, offset, theta):
    """Reference NB log-likelihood, written independently of the fitter."""
    eta = X @ beta + offset
    return -np.sum(
        gammaln(y + theta) - gammaln(theta) - gammaln(y + 1)
        + theta * np.log(theta) + y * eta
        - (y + theta) * np.logaddexp(np.log(theta), eta)
    )


def design_from(dataset):
    std, scaling = standardize(dataset)
    return build_design_matrix(std, scaling=scaling)


class TestDesignMatrix:
    def test_fourteen_columns_for_six_covariates(self):
        d = simulate_trial(np.zeros(14), n=50, seed=0, m=6)
        design = design_from(d)
        assert design.p == 14
        assert design.column_names[0] == "intercept"
        assert design.column_names[1] == "treatment"
        assert design.column_names[8].startswith("treatment:")

    def test_untreated_rows_have_zero_interactions(self):
        d = simulate_trial(np.zeros(6), n=40, seed=1, m=2)
        design = design_from(d)
        untreated = design.X[:, 1] == 0
        assert np.all(design.X[untreated][:, 4:] == 0)

    def test_unit_time_gives_zero_offset(self):
        d = simulate_trial(np.zeros(6), n=30, seed=2, m=2, fixed_time=True)
        design = design_from(d)
        np.testing.assert_array_equal(design.offset, np.zeros(30))

    def test_inconsistent_interaction_columns_rejected(self):
        d = simulate_trial(np.zeros(6), n=20, seed=3, m=2)
        design = design_from(d)
        broken = design.X.copy()
        broken[0, 4] += 1.0
        with pytest.raises(ValueError, match="interaction"):
            DesignMatrix(
                X=broken,
                offset=design.offset,
                response=design.response,
                column_names=design.column_names,
                scaling=design.scaling,
            )


class TestFit:
    def test_matches_generic_optimizer_at_zero_penalty(self):
        coefs = np.array([-0.5, -0.3, 0.4, -0.2, 0.1, 0.2, -0.15, 0.05])
        d = simulate_trial(coefs, n=2500, seed=7, theta=1.5, m=3, fixed_time=False)
        design = design_from(d)
        model = fit(design, lam=0.0, theta=1.5)
        assert model.fit_meta.converged
        res = minimize(
            nb_neg_loglik,
            np.zeros(design.p),
            args=(design.X, design.response, design.offset, 1.5),
            method="L-BFGS-B",
            options={"maxiter": 5000, "ftol": 1e-14, "gtol": 1e-10},
        )
        assert np.max(np.abs(res.x - model.coefficients)) < 1e-4

    def test_huge_penalty_crushes_all_but_intercept(self):
        d = simulate_trial(np.array([0.1, -0.4, 0.5, -0.3, 0.2, 0.1]), n=800, seed=8, m=2)
        model = fit(design_from(d), lam=1e6, theta=1.0)
        assert np.max(np.abs(model.coefficients[1:])) < 1e-3

    def test_poisson_limit_matches_poisson_irls(self):
        coefs = np.array([0.3, -0.5, 0.4, -0.25, 0.15, 0.1])
        rng = np.random.default_rng(9)
        n = 1500
        x = rng.standard_normal((n, 2))
        a = rng.integers(0, 2, n)
        t = rng.uniform(0.5, 1.5, n)
        eta = coefs[0] + coefs[1] * a + x @ coefs[2:4] + (a[:, None] * x) @ coefs[4:] + np.log(t)
        y = rng.poisson(np.exp(eta))
        d = make_dataset(a, y, t, x)
        design = design_from(d)
        model = fit(design, lam=0.0, theta=1e8)

        # plain Poisson IRLS as an independent reference
        X, yv, off = design.X, design.response, design.offset
        beta = np.zeros(design.p)
        beta[0] = math.log(yv.sum() / np.exp(off).sum())
        for _ in range(60):
            mu = np.exp(X @ beta + off)
            z = (X @ beta) + (yv - mu) / mu
            beta_new = np.linalg.solve((X * mu[:, None]).T @ X, X.T @ (mu * z))
            if np.max(np.abs(beta_new - beta)) < 1e-12:
                beta = beta_new
                break
            beta = beta_new
        assert np.max(np.abs(beta - model.coefficients)) < 1e-5

    def test_parameter_validation(self):
        d = simulate_trial(np.zeros(6), n=30, seed=9, m=2)
        design = design_from(d)
        with pytest.raises(ValueError, match="non-negative"):
            fit(design, lam=-1.0, theta=1.0)
        with pytest.raises(ValueError, match="positive"):
            fit(design, lam=0.0, theta=0.0)

    def test_penalized_deviance_non_increasing(self):
        d = simulate_trial(np.array([0.2, -0.3, 0.6, -0.4, 0.2, 0.3]), n=600, seed=10, m=2)
        model = fit(design_from(d), lam=3.0, theta=1.0)
        path = np.array(model.fit_meta.deviance_path)
        assert np.all(np.diff(path) <= 1e-8 * np.maximum(1.0, np.abs(path[:-1])))

    def test_monotone_shrinkage_along_path(self):
        d = simulate_trial(np.array([0.2, -0.4, 0.5, -0.3, 0.25, 0.15]), n=700, seed=11, m=2)
        design = design_from(d)
        grid = np.geomspace(50.0, 0.005, 12)
        norms = []
        beta = None
        for lam in grid:
            model = fit(design, lam=float(lam), theta=1.0, beta_start=beta)
            beta = model.coefficients
            norms.append(float(np.sum(beta[1:] ** 2)))
        # larger penalty, smaller coefficient norm
        assert np.all(np.diff(norms) >= -1e-10)


class TestDispersion:
    def test_recovers_unit_theta(self):
        coefs = np.array([0.2, -0.3, 0.4, -0.2, 0.1, 0.15])
        d = simulate_trial(coefs, n=20_000, seed=12, theta=1.0, m=2)
        design = design_from(d)
        # evaluate at the data-generating coefficients: the standardized
        # design reproduces them up to sampling noise in the scaling
        model = fit(design, lam=0.0, theta=1.0)
        theta_hat = estimate_dispersion(design, model.coefficients)
        assert 0.9 <= theta_hat <= 1.1

    def test_poisson_data_hits_upper_bound(self):
        rng = np.random.default_rng(13)
        n = 20_000
        x = rng.standard_normal((n, 1))
        a = rng.integers(0, 2, n)
        mu = np.exp(0.3 - 0.4 * a + 0.5 * x[:, 0])
        d = make_dataset(a, rng.poisson(mu), np.ones(n), x)
        design = design_from(d)
        model = fit(design, lam=0.0, theta=100.0)
        theta_hat = estimate_dispersion(design, model.coefficients)
        assert theta_hat >= 1e6

    def test_all_zero_response_undefined(self):
        d = make_dataset([0, 1, 0, 1], [0, 0, 0, 0], [1, 1, 1, 1],
                         np.array([[0.5], [-0.5], [1.5], [-1.5]]))
        design = design_from(d)
        with pytest.raises(DispersionError):
            estimate_dispersion(design, np.zeros(4))

    def test_non_finite_profile_is_named(self):
        design = design_from(simulate_trial(np.zeros(6), n=200, seed=14, m=2))
        response = design.response.copy()
        response[0] = np.nan
        broken = dataclasses.replace(design, response=response)
        with pytest.raises(NumericalError, match="profile is not finite"):
            estimate_dispersion(broken, np.zeros(6))

    def test_search_cap_is_named(self, monkeypatch):
        design = design_from(simulate_trial(np.zeros(6), n=200, seed=15, m=2))
        monkeypatch.setattr(nbglm, "_SEARCH_MAX_EVALS", 5)
        with pytest.raises(NumericalError, match="5-evaluation cap"):
            estimate_dispersion(design, np.zeros(6))

    def test_overflowing_means_are_named(self):
        design = design_from(simulate_trial(np.zeros(6), n=200, seed=16, m=2))
        coefficients = np.zeros(6)
        coefficients[0] = 800.0  # finite linear predictor, exp() overflows
        with pytest.raises(NumericalError, match="fitted means overflow"):
            estimate_dispersion(design, coefficients)


def random_profile(rng):
    """Counts and linear predictors of one random trial: NB draws with
    dispersion from 0.05 to 8000, or Poisson draws, whose profile climbs
    to the upper search bound."""
    while True:
        n = int(rng.integers(20, 400))
        eta = rng.normal(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 1.5), n)
        mu = np.exp(eta)
        if rng.uniform() < 0.2:
            y = rng.poisson(mu)
        else:
            theta = float(np.exp(rng.uniform(-3.0, 9.0)))
            y = rng.negative_binomial(theta, theta / (theta + mu))
        if y.sum() > 0:
            return y.astype(np.float64), eta


def gammaln_profile(y, eta, theta):
    """The dispersion profile as a per-subject gammaln expression."""
    return float(
        np.sum(
            gammaln(y + theta) - gammaln(theta) + theta * math.log(theta)
            - (y + theta) * np.logaddexp(math.log(theta), eta) + y * eta
        )
    )


class TestDispersionProfile:
    LO, HI = math.log(nbglm.THETA_MIN), math.log(nbglm.THETA_MAX)

    @pytest.mark.parametrize("xatol", [1e-6, 5e-4])
    def test_search_matches_scipy_bounded(self, xatol):
        rng = np.random.default_rng(17)
        for _ in range(120):
            loglik = _profile_loglik(*random_profile(rng))

            def neg(log_theta):
                return -loglik(math.exp(log_theta))

            ref = minimize_scalar(neg, bounds=(self.LO, self.HI), method="bounded",
                                  options={"xatol": xatol})
            got = _bounded_minimize(neg, self.LO, self.HI, xatol, 500)
            assert got == (float(ref.x), float(ref.fun), int(ref.nfev))

    def test_profile_matches_gammaln_expression(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            y, eta = random_profile(rng)
            loglik = _profile_loglik(y, eta)
            for theta in np.geomspace(1e-3, 1e5, 41):
                theta = float(theta)
                ref = gammaln_profile(y, eta, theta)
                # The reference differences per-subject terms of size
                # |lgamma(theta)| + theta*|log(theta)| (1e6 at theta=1e5),
                # so its own rounding reaches n*eps times that.
                rounding = y.size * np.finfo(float).eps * (
                    abs(math.lgamma(theta)) + theta * abs(math.log(theta))
                )
                assert abs(loglik(theta) - ref) <= 1e-10 * abs(ref) + rounding

    def test_log_gamma_terms_match_rising_factorial(self):
        # lgamma(v+theta) - lgamma(theta) - v*log(theta) is exactly
        # sum_{k<v} log1p(k/theta) for integer v, summed here without
        # cancellation up to the top of the search range.
        values = np.arange(1.0, 61.0)
        counts = np.random.default_rng(19).integers(1, 50, values.size).astype(np.float64)
        for theta in np.concatenate([np.geomspace(1e-3, 1e8, 67), [19.999999, 20.0]]):
            theta = float(theta)
            exact = math.fsum(
                c * math.fsum(math.log1p(k / theta) for k in range(int(v)))
                for v, c in zip(values, counts)
            )
            got = _log_gamma_ratio(values, counts, theta)
            assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact))


def reference_cv(design, folds, grid, seed, loss, fold_tol=1e-6):
    """Cross-validation the slow, plain way: a copied training and held-out
    design per fold, then one warm-started ``fit`` per (fold, penalty).

    Returns the chosen penalty, ``cv_error``, ``cv_se``, the fold labels
    and each fold's IRLS iteration counts down the grid.
    """
    grid = np.sort(np.asarray(grid, dtype=np.float64))[::-1]
    fold_id = _stratified_folds(design.treatment.astype(np.int64), folds, seed)
    total = np.zeros(grid.size)
    fold_means = np.zeros((folds, grid.size))
    iterations = np.zeros((folds, grid.size), dtype=int)
    for f in range(folds):
        design_tr = design.subset(np.flatnonzero(fold_id != f))
        design_ho = design.subset(np.flatnonzero(fold_id == f))
        model = fit_alternating(design_tr, float(grid[0]), theta_rtol=1e-2,
                                tol=fold_tol, profile_xatol=5e-4)
        theta, beta = model.dispersion, model.coefficients
        for g, lam in enumerate(grid):
            if g > 0:
                model = fit(design_tr, float(lam), theta, beta_start=beta, tol=fold_tol)
                beta = model.coefficients
                iterations[f, g] = model.fit_meta.iterations
            y = design_ho.response
            mu = np.exp(design_ho.X @ beta + design_ho.offset)
            if loss == "squared":
                losses = (y - mu) ** 2
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    term = np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0) / mu), 0.0)
                losses = 2.0 * (term - (y + theta) * np.log((y + theta) / (mu + theta)))
            total[g] += losses.sum()
            fold_means[f, g] = losses.mean()
    cv_error = total / design.n
    cv_se = fold_means.std(axis=0, ddof=1) / math.sqrt(folds)
    return float(grid[int(np.argmin(cv_error))]), cv_error, cv_se, fold_id, iterations


class TestCrossValidation:
    @pytest.mark.parametrize("loss", ["squared", "deviance"])
    @pytest.mark.parametrize("folds, n, data_seed", [
        pytest.param(3, 301, 0, id="3-folds-step-halving"),
        pytest.param(3, 301, 3, id="3-folds-no-descent-stop"),
        pytest.param(4, 258, 4, id="4-folds"),
        pytest.param(10, 403, 10, id="10-folds"),
    ])
    def test_batched_folds_match_per_fold_fits(self, folds, n, data_seed, loss):
        # strong overdispersion makes some IRLS steps overshoot
        coefs = np.array([0.3, -0.5, 0.4, -0.3, 0.2, 0.25, -0.2, 0.1])
        d = simulate_trial(coefs, n=n, seed=data_seed, theta=0.3, m=3, fixed_time=False)
        design = design_from(d)
        grid = default_lambda_grid(design, size=15, min_ratio=1e-3)
        chosen, cv_error, cv_se, fold_id, iterations = reference_cv(
            design, folds, grid, seed=7, loss=loss
        )
        # the cases cover unequal folds that converge at different speeds
        assert np.unique(np.bincount(fold_id)).size > 1
        assert np.any(iterations.min(axis=0) != iterations.max(axis=0))
        res = cross_validate_lambda(design, folds=folds, grid=grid, seed=7, loss=loss)
        assert res.chosen_lambda == chosen
        np.testing.assert_allclose(res.cv_error, cv_error, rtol=1e-10, atol=0)
        np.testing.assert_allclose(res.cv_se, cv_se, rtol=1e-10, atol=0)

    def test_deterministic_given_seed(self):
        d = simulate_trial(np.array([0.2, -0.3, 0.5, -0.2, 0.2, 0.1]), n=400, seed=14, m=2)
        design = design_from(d)
        grid = np.geomspace(10, 0.01, 6)
        a = cross_validate_lambda(design, folds=4, grid=grid, seed=99)
        b = cross_validate_lambda(design, folds=4, grid=grid, seed=99)
        assert a.chosen_lambda == b.chosen_lambda
        np.testing.assert_array_equal(a.cv_error, b.cv_error)

    def test_single_value_grid(self):
        d = simulate_trial(np.array([0.2, -0.3, 0.5, -0.2, 0.2, 0.1]), n=200, seed=15, m=2)
        res = cross_validate_lambda(design_from(d), folds=4, grid=[0.7], seed=1)
        assert res.chosen_lambda == 0.7

    def test_large_sample_prefers_weak_penalty(self):
        # strong log-scale interactions, n=5000: little shrinkage needed
        d = simulate_trial(np.array(ML_COEFFICIENTS), n=5000, seed=16, theta=1.0, m=6)
        design = design_from(d)
        grid = default_lambda_grid(design, size=12, min_ratio=1e-3)
        res = cross_validate_lambda(design, folds=5, grid=grid, seed=21)
        assert res.chosen_lambda < np.median(res.lambda_grid)

    def test_deviance_loss_available(self):
        d = simulate_trial(np.array([0.2, -0.3, 0.5, -0.2, 0.2, 0.1]), n=300, seed=17, m=2)
        res = cross_validate_lambda(design_from(d), folds=3, grid=[5.0, 0.5], seed=2,
                                    loss="deviance")
        assert np.all(np.isfinite(res.cv_error))

    def test_unfoldable_arm_errors_after_retries(self):
        # a single treated subject always leaves one training split
        # without that arm, whatever the seed
        rng = np.random.default_rng(18)
        n = 30
        a = np.zeros(n, dtype=int)
        a[0] = 1
        d = make_dataset(a, rng.integers(0, 3, n), np.ones(n), rng.normal(0, 1, (n, 1)))
        with pytest.raises(FoldingError):
            cross_validate_lambda(design_from(d), folds=3, grid=[1.0], seed=4)


class TestPredictRate:
    def _table1_ml_model(self):
        means = np.array([0.4, 65.0, 0.3, 0.5, 1.4, 50.0])
        sds = np.array([0.49, 8.0, 0.46, 0.5, 0.5, 17.0])
        return FittedBenefitModel(
            coefficients=np.array(ML_COEFFICIENTS),
            coefficient_names=[f"c{i}" for i in range(14)],
            dispersion=1.0,
            penalty=0.0,
            scaling=ScalingParams(means=means, sds=sds),
            fit_meta=FitMeta(0, True, 0.0, ()),
        )

    def test_rate_at_training_means_is_exp_intercept(self):
        model = self._table1_ml_model()
        rate = predict_rate(model, model.scaling.means, treatment=0, time=1.0)
        assert rate == pytest.approx(math.exp(-1.959), rel=1e-12)
        assert rate == pytest.approx(0.141, abs=2e-4)

    def test_time_is_multiplicative(self):
        model = self._table1_ml_model()
        x = model.scaling.means + model.scaling.sds
        one = predict_rate(model, x, treatment=1, time=1.0)
        two = predict_rate(model, x, treatment=1, time=2.0)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_zero_coefficients_predict_time(self):
        model = FittedBenefitModel(
            coefficients=np.zeros(6),
            coefficient_names=[f"c{i}" for i in range(6)],
            dispersion=1.0,
            penalty=0.0,
            scaling=ScalingParams.identity(2),
            fit_meta=FitMeta(0, True, 0.0, ()),
        )
        assert predict_rate(model, [0.3, -0.7], 0, time=3.5) == pytest.approx(3.5)

    def test_dimension_mismatch(self):
        model = self._table1_ml_model()
        with pytest.raises(ValueError, match="covariates"):
            predict_rate(model, np.zeros(5), 0, 1.0)


class TestPipelineLevelInvariants:
    def test_prediction_invariant_to_covariate_rescaling(self):
        d = simulate_trial(np.array([0.2, -0.4, 0.5, -0.3, 0.25, 0.15]), n=500, seed=18, m=2)
        scaled = make_dataset(
            d.treatment, d.events, d.time,
            d.covariates * np.array([10.0, 1.0]),
            covariate_names=d.covariate_names,
        )
        models = []
        for data in (d, scaled):
            std, sc = standardize(data)
            design = build_design_matrix(std, scaling=sc)
            models.append(fit_alternating(design, lam=0.8, theta_init=1.0))
        raw = d.covariates[:25]
        p0 = predict_rate(models[0], raw, 1, 1.0)
        p1 = predict_rate(models[1], raw * np.array([10.0, 1.0]), 1, 1.0)
        assert np.max(np.abs(p0 - p1)) < 1e-6

    def test_ridge_shrinks_relative_to_ml(self):
        d = simulate_trial(np.array(ML_COEFFICIENTS), n=1200, seed=19, theta=1.0, m=6)
        design = design_from(d)
        ml = fit_alternating(design, lam=0.0)
        ridge = fit_alternating(design, lam=20.0)
        assert np.sum(ridge.coefficients[1:] ** 2) < np.sum(ml.coefficients[1:] ** 2)

    def test_model_json_roundtrip(self, tmp_path):
        d = simulate_trial(np.array([0.2, -0.3, 0.4, -0.2, 0.2, 0.1]), n=200, seed=20, m=2)
        std, sc = standardize(d)
        model = fit_alternating(build_design_matrix(std, sc), lam=0.5)
        path = tmp_path / "model.json"
        model.save(str(path))
        loaded = FittedBenefitModel.load(str(path))
        np.testing.assert_allclose(loaded.coefficients, model.coefficients)
        assert loaded.dispersion == model.dispersion
        x = d.covariates[:10]
        np.testing.assert_allclose(
            predict_rate(loaded, x, 1, 1.0), predict_rate(model, x, 1, 1.0)
        )
