import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize, minimize_scalar
from scipy.special import digamma, gammaln

from cbindex import nbglm
from cbindex.benefit import predicted_benefit
from cbindex.errors import DispersionError, FoldingError, NumericalError
from cbindex.nbglm import (
    DesignMatrix,
    FittedBenefitModel,
    build_design_matrix,
    cross_validate_lambda,
    default_lambda_grid,
    estimate_dispersion,
    fit,
    fit_alternating,
    fit_weighted,
    _Profiles,
    _search_dispersion,
    _stratified_folds,
)
from cbindex.simulation import ML_COEFFICIENTS
from cbindex.trial_data import make_dataset, standardize

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


def lambda_grid(design, size, min_ratio):
    """The penalty grid of the whole design: all-ones counts."""
    return default_lambda_grid(design, np.ones((1, design.n)), size, min_ratio)[0]


def cross_validate(design, folds, grid, seed, loss="squared"):
    """Cross-validation of the whole design along ``grid``, sorted
    descending, with folds dealt from ``seed``."""
    grid = np.sort(np.asarray(grid, dtype=np.float64))[::-1]
    fold_id = _stratified_folds(design.treatment.astype(np.int64), folds, seed)
    return cross_validate_lambda(
        design, [np.arange(design.n)], [fold_id], folds, grid[None], loss, [design.scaling]
    )[0]


def reference_fit(design, lam, theta, beta_start=None, tol=1e-8, max_iter=100, max_halvings=40):
    """Penalized Fisher scoring on one design, written independently of
    the package's batched kernel.  It weighs subjects by the expected
    information, where the package takes Newton steps on the observed
    information: the two take different paths to the same optimum.  The
    objective uses logaddexp and ``np.sum``, each step is halved up to
    ``max_halvings`` times until the objective does not increase, and the
    fit stops when the largest coefficient change falls below ``tol`` or
    no descent is left.  Returns the coefficients and the iteration
    count."""
    X, y, offset = design.X, design.response, design.offset
    pen = np.ones(design.p)
    pen[0] = 0.0
    beta = np.zeros(design.p)
    beta[0] = math.log((y.sum() + 0.5) / np.exp(offset).sum())
    if beta_start is not None:
        beta = np.array(beta_start, dtype=np.float64)

    def objective(b):
        eta_full = X @ b + offset
        log_theta_mu = np.logaddexp(math.log(theta), eta_full)
        nll = -float(np.sum(y * eta_full - (y + theta) * log_theta_mu))
        return nll + lam * float(np.sum(pen * b * b))

    obj = objective(beta)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        eta_lin = X @ beta
        mu = np.exp(eta_lin + offset)
        w = mu * theta / (theta + mu)
        score_resid = (y - mu) * theta / (theta + mu)
        A = (X * w[:, None]).T @ X
        A[np.diag_indices(design.p)] += 2.0 * lam * pen
        beta_new = np.linalg.solve(A, X.T @ (w * eta_lin + score_resid))
        direction = beta_new - beta
        step = 1.0
        candidate = beta_new
        cand_obj = objective(candidate)
        halvings = 0
        while cand_obj > obj and halvings < max_halvings:
            step *= 0.5
            candidate = beta + step * direction
            cand_obj = objective(candidate)
            halvings += 1
        if cand_obj > obj:
            break
        delta = float(np.max(np.abs(candidate - beta)))
        beta = candidate
        obj = cand_obj
        if delta < tol:
            break
    return beta, iterations


def reference_designs():
    """Six mild designs of 1-3 covariates, and two with strong effects and
    heavy overdispersion."""
    designs = []
    for seed in range(6):
        m = 1 + seed % 3
        coefs = np.random.default_rng(seed).uniform(-0.5, 0.5, 2 * m + 2)
        designs.append(design_from(simulate_trial(
            coefs, n=200 + 150 * seed, seed=40 + seed, theta=(0.5, 2.0, 1e6)[seed % 3], m=m,
            fixed_time=seed % 2 == 0,
        )))
    strong = np.array([0.5, -1.0, 1.2, -0.8, 0.6, 0.9, -0.7, 0.5])
    for seed in (0, 3):
        designs.append(design_from(simulate_trial(strong, n=300, seed=seed, theta=0.3, m=3,
                                                  fixed_time=False)))
    return designs


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

    @pytest.mark.parametrize("theta", [0.3, 2.0, 1e8])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 20.0])
    def test_matches_reference_irls(self, lam, theta):
        for design, start in itertools.product(reference_designs(), ("default", "far")):
            # From slopes of 1 the first Newton steps can overshoot and be halved.
            beta_start = None if start == "default" else np.r_[0.0, np.ones(design.p - 1)]
            model = fit(design, lam=lam, theta=theta, beta_start=beta_start)
            assert model.fit_meta.converged
            ref, _ = reference_fit(design, lam, theta, beta_start=beta_start)
            # At theta=1e8 the reference's terms (y+theta)*log(theta+mu)
            # are of size theta*log(theta), so its objective resolves a
            # step only coarsely and it can stop short of the optimum.  One
            # exact Newton step from its stop measures how far short; at
            # the smaller thetas that step is negligible.
            X, y, offset = design.X, design.response, design.offset
            mu = np.exp(X @ ref + offset)
            pen = np.r_[0.0, np.ones(design.p - 1)]
            grad = -X.T @ ((y - mu) * theta / (theta + mu)) + 2.0 * lam * pen * ref
            hess = (X * (mu * theta / (theta + mu))[:, None]).T @ X + np.diag(2.0 * lam * pen)
            short = np.max(np.abs(np.linalg.solve(hess, grad)))
            assert np.max(np.abs(model.coefficients - ref)) <= 1e-6 + short

    @pytest.mark.parametrize("design_index", [0, 5, 6])
    def test_count_weighted_member_equals_fit_on_repeated_rows(self, design_index):
        design = reference_designs()[design_index]
        rng = np.random.default_rng(37 + design_index)
        counts = np.array([np.bincount(rng.integers(0, design.n, design.n), minlength=design.n)
                           for _ in range(3)])
        counts[0, :4] = [5, 6, 0, 9]
        assert (counts == 0).any() and (counts >= 5).any()
        members = fit_weighted(design, counts.astype(np.float64), 0.0)
        for k, member in enumerate(members):
            ref = fit_alternating(subset(design, np.repeat(np.arange(design.n), counts[k])), 0.0)
            assert member.fit_meta.converged and ref.fit_meta.converged
            np.testing.assert_allclose(member.coefficients, ref.coefficients, rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(ref.coefficients)))
            assert abs(member.dispersion - ref.dispersion) <= 1e-10 * ref.dispersion
            assert abs(member.fit_meta.penalized_deviance - ref.fit_meta.penalized_deviance) \
                <= 1e-10 * abs(ref.fit_meta.penalized_deviance)

    def test_no_descent_stop_matches_reference(self, monkeypatch):
        # With halving switched off, the first step that overshoots ends
        # the fit where it is, flagged converged, far from the optimum.
        design = reference_designs()[-1]
        beta_start = np.r_[0.0, np.ones(design.p - 1)]
        monkeypatch.setattr(nbglm, "_MAX_HALVINGS", 0)
        model = fit(design, lam=0.0, theta=0.3, beta_start=beta_start)
        ref, iterations = reference_fit(design, 0.0, 0.3, beta_start=beta_start, max_halvings=0)
        assert model.fit_meta.converged and model.fit_meta.iterations == iterations
        assert np.max(np.abs(model.coefficients - ref)) <= 1e-10
        optimum, _ = reference_fit(design, 0.0, 0.3)
        assert np.max(np.abs(model.coefficients - optimum)) > 1e-3

    @pytest.mark.parametrize("theta", [0.3, 2.0])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_one_step_is_the_newton_step(self, monkeypatch, lam, theta):
        design = reference_designs()[6]
        X, y, offset = design.X, design.response, design.offset
        beta = np.r_[math.log(y.sum() / np.exp(offset).sum()), np.full(design.p - 1, 0.1)]
        monkeypatch.setattr(nbglm, "_MAX_HALVINGS", 0)
        monkeypatch.setattr(nbglm, "_MAX_ITER", 1)
        model = fit(design, lam=lam, theta=theta, beta_start=beta, precision="final")
        # gradient and Hessian (observed information) of the penalized
        # negative log-likelihood at beta, for fixed theta
        mu = np.exp(X @ beta + offset)
        pen = np.r_[0.0, np.ones(design.p - 1)]
        grad = -X.T @ (theta * (y - mu) / (theta + mu)) + 2.0 * lam * pen * beta
        info = theta * mu * (y + theta) / (theta + mu) ** 2
        hess = (X * info[:, None]).T @ X + np.diag(2.0 * lam * pen)
        newton = beta - np.linalg.solve(hess, grad)
        path = model.fit_meta.deviance_path
        assert model.fit_meta.iterations == 1 and path[1] < path[0]
        np.testing.assert_allclose(model.coefficients, newton, rtol=1e-10, atol=1e-12)

    def test_sub_tolerance_step_with_nan_objective_is_not_taken(self, monkeypatch):
        design = reference_designs()[0]
        start = fit(design, lam=0.5, theta=2.0).coefficients
        # from the optimum the next step is below the tolerance, and is
        # taken without the descent test while its objective is finite
        step = fit(design, lam=0.5, theta=2.0, beta_start=start).coefficients - start
        assert 0 < np.max(np.abs(step)) < nbglm.PRECISIONS["final"][0]
        evaluate = nbglm._Batch._evaluate

        def nan_objective(self, beta, members):
            eta, mu, nll = evaluate(self, beta, members)
            return eta, mu, np.full_like(nll, np.nan)

        monkeypatch.setattr(nbglm._Batch, "_evaluate", nan_objective)
        model = fit(design, lam=0.5, theta=2.0, beta_start=start)
        np.testing.assert_array_equal(model.coefficients, start)
        assert model.fit_meta.iterations == 1 and np.all(np.isfinite(model.fit_meta.deviance_path))

    def test_caps_flag_non_convergence(self, monkeypatch):
        design = reference_designs()[0]
        monkeypatch.setattr(nbglm, "_MAX_ITER", 2)
        model = fit(design, lam=0.0, theta=1.0)
        assert not model.fit_meta.converged and model.fit_meta.iterations == 2
        monkeypatch.setattr(nbglm, "_MAX_ITER", 100)
        monkeypatch.setattr(nbglm, "_MAX_ROUNDS", 1)
        model = fit_alternating(design, lam=0.0)
        assert not model.fit_meta.converged and model.fit_meta.dispersion_rounds == 1

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
        theta = estimate_dispersion(design, np.zeros(6))
        assert 0.5 < theta < 5.0  # two steps from theta=1 do not settle
        monkeypatch.setattr(nbglm, "_SEARCH_MAX_STEPS", 2)
        with pytest.raises(NumericalError, match="2-step cap"):
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


def profile(y, eta, weights=None):
    """The package's dispersion profiles of one member (or one per row of
    ``weights``) at the means ``exp(eta)``."""
    if weights is None:
        weights = np.ones((1, y.size))
    eta = np.broadcast_to(eta, weights.shape)
    return _Profiles(y, weights, eta, np.exp(eta))


def loglik(prof, theta):
    """Every member's profile at ``theta``."""
    return prof.loglik(np.full(prof.weights.shape[0], theta))


def search(prof, xatol):
    """Every member's dispersion, searched from theta=1."""
    return _search_dispersion(prof, np.ones(prof.weights.shape[0]), xatol)


def bounded_reference(prof):
    """The maximizer of a one-member profile by scipy's bounded Brent
    search, to 1e-10 on log theta, with the plateau rule, and the profile's
    value there.  The profile's values are checked against the gammaln
    expression below, whose own rounding at large theta is too coarse for
    the plateau rule."""
    lo, hi = math.log(nbglm.THETA_MIN), math.log(nbglm.THETA_MAX)
    ref = minimize_scalar(lambda lt: -loglik(prof, math.exp(lt))[0], bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-10})
    ll_hat = -float(ref.fun)
    if loglik(prof, nbglm.THETA_MAX)[0] >= ll_hat - 1e-8 * (1.0 + abs(ll_hat)):
        return nbglm.THETA_MAX, ll_hat
    return math.exp(float(ref.x)), ll_hat


class TestDispersionProfile:
    @pytest.mark.parametrize("xatol", [1e-6, 5e-4])
    def test_search_matches_scipy_bounded(self, xatol):
        rng = np.random.default_rng(17)
        plateaus = 0
        for _ in range(120):
            prof = profile(*random_profile(rng))
            ref, ll_ref = bounded_reference(prof)
            got = float(search(prof, xatol)[0])
            if ref == nbglm.THETA_MAX:
                plateaus += 1
                assert got == nbglm.THETA_MAX
                continue
            # Where the profile is flat the reference resolves its maximum
            # only to about sqrt(eps) of the profile's value, which Newton
            # steps on the score pass; so the values are compared as well.
            assert abs(math.log(got) - math.log(ref)) < 2e-5
            assert loglik(prof, got)[0] >= ll_ref - 1e-13 * abs(ll_ref)
        assert 10 < plateaus < 60

    def test_search_from_any_start_finds_the_maximum(self):
        # members warm-started anywhere in the range reach the same theta
        rng = np.random.default_rng(23)
        for _ in range(30):
            y, eta = random_profile(rng)
            starts = np.array([nbglm.THETA_MIN, 0.05, 1.0, 40.0, 3e4, nbglm.THETA_MAX])
            prof = profile(y, eta, np.ones((starts.size, y.size)))
            got = _search_dispersion(prof, starts, 1e-6)
            np.testing.assert_allclose(np.log(got), np.log(got[2]), rtol=0, atol=1e-7)

    def test_count_weighted_profile_equals_repeated_rows(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            y, eta = random_profile(rng)
            counts = rng.multinomial(y.size, np.full(y.size, 1.0 / y.size)).astype(np.float64)
            if counts @ y == 0:
                continue
            weighted = profile(y, eta, counts[None])
            rows = np.repeat(np.arange(y.size), counts.astype(int))
            repeated = profile(y[rows], eta[rows])
            for theta in np.geomspace(1e-3, 1e8, 12):
                a, b = loglik(weighted, theta)[0], loglik(repeated, theta)[0]
                assert abs(a - b) <= 1e-12 * abs(b)
                sa = weighted.slopes(np.array([theta]), slice(None))
                sb = repeated.slopes(np.array([theta]), slice(None))
                np.testing.assert_allclose(sa, sb, rtol=1e-9, atol=1e-12 * abs(b))
            for xatol in (1e-6, 5e-4):
                theta_w = float(search(weighted, xatol)[0])
                theta_r = float(search(repeated, xatol)[0])
                assert abs(math.log(theta_w) - math.log(theta_r)) < 1e-9

    @pytest.mark.parametrize("count", [1e6, 1e12])
    def test_counts_above_the_exact_cap_match_gammaln(self, count):
        # Counts above the exact-sum cap come from asymptotic series.  The
        # reference's own terms are of the size of lgamma(count), and its
        # score (digamma) has no such terms, so the maximizer is checked as
        # the root of that score.
        assert count > nbglm._EXACT_COUNT
        rng = np.random.default_rng(31)
        n = 200
        eta = rng.normal(1.0, 0.8, n)
        y = rng.negative_binomial(2.0, 2.0 / (2.0 + np.exp(eta))).astype(np.float64)
        y[:5] = np.round(count * rng.uniform(0.5, 2.0, 5))
        y[5] = nbglm._EXACT_COUNT + 1
        eta[:6] = np.log(y[:6]) + rng.normal(0.0, 0.5, 6)
        mu = np.exp(eta)
        prof = profile(y, eta)
        for theta in np.geomspace(1e-3, 1e8, 23):
            ref = gammaln_profile(y, eta, float(theta))
            rounding = 4 * n * np.finfo(float).eps * float(np.max(np.abs(gammaln(y + theta))))
            assert abs(loglik(prof, theta)[0] - ref) <= 1e-12 * abs(ref) + rounding

        def score(log_theta):
            theta = math.exp(log_theta)
            return float(np.sum(digamma(y + theta) - digamma(theta) - np.log1p(mu / theta)
                                + (mu - y) / (theta + mu)))

        root = brentq(score, math.log(1e-2), math.log(1e4), xtol=1e-14)
        got = float(search(prof, 1e-6)[0])
        assert abs(math.log(got) - root) < 1e-9

    def test_profile_matches_gammaln_expression(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            y, eta = random_profile(rng)
            prof = profile(y, eta)
            for theta in np.geomspace(1e-3, 1e5, 41):
                theta = float(theta)
                ref = gammaln_profile(y, eta, theta)
                # The reference differences per-subject terms of size
                # |lgamma(theta)| + theta*|log(theta)| (1e6 at theta=1e5),
                # so its own rounding reaches n*eps times that.
                rounding = y.size * np.finfo(float).eps * (
                    abs(math.lgamma(theta)) + theta * abs(math.log(theta))
                )
                assert abs(loglik(prof, theta)[0] - ref) <= 1e-10 * abs(ref) + rounding

    def test_log_gamma_terms_match_rising_factorial(self):
        # lgamma(v+theta) - lgamma(theta) - v*log(theta) is exactly
        # sum_{k<v} log1p(k/theta) for integer v; the profile sums it by
        # tail weights, here counts, without cancellation up to the top of
        # the search range.
        values = np.arange(1.0, 61.0)
        counts = np.random.default_rng(19).integers(1, 50, values.size).astype(np.float64)
        # means and linear predictors of 0 leave only the log-gamma terms
        prof = _Profiles(values, counts[None], np.zeros((1, values.size)),
                         np.zeros((1, values.size)))
        for theta in np.geomspace(1e-3, 1e8, 67):
            theta = float(theta)
            exact = math.fsum(
                c * math.fsum(math.log1p(k / theta) for k in range(int(v)))
                for v, c in zip(values, counts)
            )
            got = loglik(prof, theta)[0]
            assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact))


def subset(design, rows):
    """The design restricted to ``rows``."""
    return DesignMatrix(X=design.X[rows], offset=design.offset[rows],
                        response=design.response[rows],
                        column_names=design.column_names, scaling=design.scaling)


def reference_cv(design, folds, grid, seed, loss):
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
        design_tr = subset(design, fold_id != f)
        design_ho = subset(design, fold_id == f)
        model = fit_alternating(design_tr, float(grid[0]), precision="relaxed")
        theta, beta = model.dispersion, model.coefficients
        for g, lam in enumerate(grid):
            if g > 0:
                model = fit(design_tr, float(lam), theta, beta_start=beta, precision="relaxed")
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
    @pytest.mark.parametrize("folds, n, data_seed, theta, effects, halvings, slopes", [
        # From the intercept-only start no Newton step of these cases
        # overshoots.  From slopes of 2 some do: this case takes 2 single
        # step halvings
        pytest.param(3, 301, 0, 0.3, 1.0, None, 2.0, id="3-folds-step-halving"),
        # with halving switched off, a fold whose full step overshoots
        # stops on no descent (3 times here) while the others go on
        pytest.param(3, 301, 3, 0.3, 1.0, 0, 2.0, id="3-folds-no-descent-stop"),
        pytest.param(4, 258, 4, 0.3, 1.0, None, None, id="4-folds"),
        pytest.param(10, 403, 10, 0.3, 1.0, None, None, id="10-folds"),
        # Poisson-like counts: two folds settle on the Poisson plateau
        # after 2 dispersion rounds, two at theta 28 and 45 after 4
        pytest.param(4, 300, 6, 1e6, 0.3, None, None, id="4-folds-poisson-plateau"),
        # the same recipe, where a flat fold profile let a bracketing search
        # end 7e-7 apart on the two paths
        pytest.param(4, 300, 124, 1e6, 0.3, None, None, id="4-folds-poisson-plateau-124"),
    ])
    def test_batched_folds_match_per_fold_fits(self, monkeypatch, folds, n, data_seed, theta,
                                               effects, halvings, slopes, loss):
        if halvings is not None:
            monkeypatch.setattr(nbglm, "_MAX_HALVINGS", halvings)
        coefs = np.array([0.3, -0.5, 0.4, -0.3, 0.2, 0.25, -0.2, 0.1])
        coefs[2:] *= effects
        d = simulate_trial(coefs, n=n, seed=data_seed, theta=theta, m=3, fixed_time=False)
        design = design_from(d)
        grid = lambda_grid(design, size=15, min_ratio=1e-3)
        if slopes is not None:
            # every member of both paths starts from these slopes
            start = nbglm._start_coefficients

            def far_start(*args):
                beta = start(*args)
                beta[:, 1:] = slopes
                return beta

            monkeypatch.setattr(nbglm, "_start_coefficients", far_start)
        chosen, cv_error, cv_se, fold_id, iterations = reference_cv(
            design, folds, grid, seed=7, loss=loss
        )
        # the cases cover unequal folds that converge at different speeds
        assert np.unique(np.bincount(fold_id)).size > 1
        assert np.any(iterations.min(axis=0) != iterations.max(axis=0))
        res = cross_validate(design, folds=folds, grid=grid, seed=7, loss=loss)
        assert res.chosen_lambda == chosen
        # Near the Poisson limit the dispersion profile is flat.  The
        # Newton search stops where the score's root is, whatever rounding
        # the two paths' profiles differ by, so the plateau cases hold the
        # overdispersed cases' bound too (a bracketing search on values
        # had ended up to 7e-7 apart on data seed 124).
        np.testing.assert_allclose(res.cv_error, cv_error, rtol=1e-10, atol=0)
        np.testing.assert_allclose(res.cv_se, cv_se, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("loss", ["squared", "deviance"])
    def test_resamples_in_own_coordinates_equal_cv_on_each_resample(self, loss):
        """A batch of resamples, each fold a count-weighted member over the
        original design in its resample's own coordinates, gives each
        resample's own grid and cross-validation."""
        coefs = np.array([0.3, -0.5, 0.4, -0.3, 0.2, 0.25, -0.2, 0.1])
        d = simulate_trial(coefs, n=300, seed=31, theta=0.8, m=3, fixed_time=False)
        design = design_from(d)
        rng = np.random.default_rng(5)
        draws = [rng.integers(0, d.n, d.n) for _ in range(3)]
        references, scalings, fold_ids = [], [], []
        for r, draw in enumerate(draws):
            sample = d.subset(draw)
            std, scaling = standardize(sample)
            own = build_design_matrix(std, scaling=scaling)
            grid = lambda_grid(own, size=8, min_ratio=1e-3)
            references.append(cross_validate(own, folds=4, grid=grid, seed=r, loss=loss))
            scalings.append(scaling)
            fold_ids.append(_stratified_folds(sample.treatment, 4, r))
            # copies of one subject are held out by different folds
            subject_folds = np.unique(np.column_stack([draw, fold_ids[r]]), axis=0)
            assert np.any(np.bincount(subject_folds[:, 0]) > 1)
        counts = np.array([np.bincount(draw, minlength=d.n) for draw in draws], dtype=np.float64)
        grids = default_lambda_grid(design, counts, 8, 1e-3, scalings)
        results = cross_validate_lambda(design, draws, fold_ids, 4, grids, loss, scalings)
        for res, ref in zip(results, references):
            np.testing.assert_allclose(res.lambda_grid, ref.lambda_grid, rtol=1e-12, atol=0)
            assert np.argmin(res.cv_error) == np.argmin(ref.cv_error)
            np.testing.assert_allclose(res.cv_error, ref.cv_error, rtol=1e-12, atol=0)
            np.testing.assert_allclose(res.cv_se, ref.cv_se, rtol=1e-12, atol=0)

    def test_resample_fit_in_own_coordinates_equals_fit_of_the_resample(self):
        d = simulate_trial(np.array([0.2, -0.4, 0.5, -0.3, 0.25, 0.15]), n=250, seed=32, m=2)
        design = design_from(d)
        rng = np.random.default_rng(6)
        draws = [rng.integers(0, d.n, d.n) for _ in range(2)]
        scalings = [standardize(d.subset(draw))[1] for draw in draws]
        counts = np.array([np.bincount(draw, minlength=d.n) for draw in draws], dtype=np.float64)
        lam = np.array([0.7, 3.0])
        members = fit_weighted(design, counts, lam, scalings=scalings)
        for member, draw, penalty, scaling in zip(members, draws, lam, scalings):
            ref = fit_alternating(design_from(d.subset(draw)), penalty)
            assert member.penalty == penalty and member.scaling is scaling
            np.testing.assert_allclose(member.coefficients, ref.coefficients, rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(ref.coefficients)))
            assert abs(member.dispersion - ref.dispersion) <= 1e-10 * ref.dispersion

    def test_deterministic_given_seed(self):
        d = simulate_trial(np.array([0.2, -0.3, 0.5, -0.2, 0.2, 0.1]), n=400, seed=14, m=2)
        design = design_from(d)
        grid = np.geomspace(10, 0.01, 6)
        a = cross_validate(design, folds=4, grid=grid, seed=99)
        b = cross_validate(design, folds=4, grid=grid, seed=99)
        assert a.chosen_lambda == b.chosen_lambda
        np.testing.assert_array_equal(a.cv_error, b.cv_error)

    def test_single_value_grid(self):
        d = simulate_trial(np.array([0.2, -0.3, 0.5, -0.2, 0.2, 0.1]), n=200, seed=15, m=2)
        res = cross_validate(design_from(d), folds=4, grid=[0.7], seed=1)
        assert res.chosen_lambda == 0.7

    def test_large_sample_prefers_weak_penalty(self):
        # strong log-scale interactions, n=5000: little shrinkage needed
        d = simulate_trial(np.array(ML_COEFFICIENTS), n=5000, seed=16, theta=1.0, m=6)
        design = design_from(d)
        grid = lambda_grid(design, size=12, min_ratio=1e-3)
        res = cross_validate(design, folds=5, grid=grid, seed=21)
        assert res.chosen_lambda < np.median(res.lambda_grid)

    def test_deviance_loss_available(self):
        d = simulate_trial(np.array([0.2, -0.3, 0.5, -0.2, 0.2, 0.1]), n=300, seed=17, m=2)
        res = cross_validate(design_from(d), folds=3, grid=[5.0, 0.5], seed=2,
                             loss="deviance")
        assert np.all(np.isfinite(res.cv_error))

    def test_unfoldable_arm_errors_after_retries(self):
        # a single treated subject always leaves one training split
        # without that arm, whatever the seed: rejected before any fit
        rng = np.random.default_rng(18)
        n = 30
        a = np.zeros(n, dtype=int)
        a[0] = 1
        d = make_dataset(a, rng.integers(0, 3, n), np.ones(n), rng.normal(0, 1, (n, 1)))
        with pytest.raises(FoldingError, match="from 29 control and 1 treated subjects"):
            cross_validate(design_from(d), folds=3, grid=[1.0], seed=4)

    @pytest.mark.parametrize("control, treated, folds", [
        (0, 5, 2), (1, 7, 3), (2, 2, 3), (3, 9, 10), (2, 2, 2), (2, 3, 3), (9, 10, 10),
    ])
    def test_folds_need_two_per_arm_and_k_in_the_larger(self, control, treated, folds):
        """The single deal gives every training split both arms and every
        fold a held-out subject exactly when the check lets it through."""
        a = np.repeat([0, 1], [control, treated])
        dealable = min(control, treated) >= 2 and max(control, treated) >= folds
        if not dealable:
            with pytest.raises(FoldingError, match=f"{control} control and {treated} treated"):
                nbglm._stratified_folds(a, folds, seed=3)
            return
        fold_id = nbglm._stratified_folds(a, folds, seed=3)
        assert np.bincount(fold_id, minlength=folds).min() >= 1
        for f in range(folds):
            assert set(a[fold_id != f]) == {0, 1}


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
            models.append(fit_alternating(design, lam=0.8))
        head = np.arange(25)
        b0 = predicted_benefit(models[0], d.subset(head)).values
        b1 = predicted_benefit(models[1], scaled.subset(head)).values
        assert np.max(np.abs(b0 - b1)) < 1e-6

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
        path.write_text(json.dumps(model.to_dict()))
        loaded = FittedBenefitModel.load(str(path))
        np.testing.assert_array_equal(loaded.coefficients, model.coefficients)
        assert loaded.dispersion == model.dispersion
        assert loaded.coefficient_names == model.coefficient_names
        np.testing.assert_array_equal(
            predicted_benefit(loaded, d).values, predicted_benefit(model, d).values
        )
