from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from cbindex.cli import _write_csv
from cbindex.simulation import (
    COVARIATE_NAMES,
    ESTIMATOR_LABELS,
    SIM_PIPELINE,
    STRONG_SCENARIO_COEFFICIENTS,
    WEAK_SCENARIO_COEFFICIENTS,
    Scenario,
    SimSettings,
    SimulationRow,
    _simulate_trial,
    generate_population,
    population_cb,
    run_simulation,
)

FAST = SimSettings(
    pipeline=replace(SIM_PIPELINE, cv_folds=3, lambda_grid_size=4),
    population_size=20_000,
    optimism_replicates=4,
    workers=1,
)


class TestScenario:
    def test_by_name(self):
        assert Scenario.by_name("strong").coefficients == STRONG_SCENARIO_COEFFICIENTS
        assert Scenario.by_name("weak").coefficients == WEAK_SCENARIO_COEFFICIENTS
        assert Scenario.by_name("null").kind == "constant-benefit"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            Scenario.by_name("mystery")

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario("bad", (0.0,) * 5)
        with pytest.raises(ValueError):
            Scenario("bad", (0.0,) * 14, theta=-1.0)
        with pytest.raises(ValueError):
            Scenario("bad", (0.0,) * 14, followup="monthly")

    @pytest.mark.parametrize("theta", [0.0, float("nan"), float("inf")])
    def test_theta_must_be_finite_and_positive(self, theta):
        with pytest.raises(ValueError, match="theta must be finite and positive"):
            Scenario.by_name("strong", theta=theta)


class TestSimSettings:
    @pytest.mark.parametrize("bad", [
        {"population_size": 500},
        {"optimism_replicates": 1},
        {"workers": 0},
        {"pipeline": replace(SIM_PIPELINE, model="ml")},
    ])
    def test_bad_settings_rejected(self, bad):
        with pytest.raises(ValueError):
            SimSettings(**bad)


class TestGeneratePopulation:
    def test_deterministic(self):
        a = generate_population("strong", 20_000, seed=3)
        b = generate_population("strong", 20_000, seed=3)
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.true_benefit, b.true_benefit)

    def test_null_benefit_constant_and_oracle_zero(self):
        pop = generate_population("null", 20_000, seed=4)
        assert np.all(pop.true_benefit == pop.true_benefit[0])
        assert pop.true_benefit[0] > 0
        assert population_cb(pop) == 0.0

    def test_strong_mean_benefit_positive(self):
        pop = generate_population("strong", 50_000, seed=5)
        assert pop.true_benefit.mean() > 0

    def test_oracles_positive_for_heterogeneous_scenarios(self):
        # Under the independence generator the weak scenario's oracle
        # sits slightly above the strong one's (its small mean benefit
        # inflates relative heterogeneity), so only positivity and the
        # mean-benefit ordering are asserted here.
        strong_pop = generate_population("strong", 50_000, seed=6)
        weak_pop = generate_population("weak", 50_000, seed=6)
        assert population_cb(strong_pop) > 0
        assert population_cb(weak_pop) > 0
        assert strong_pop.true_benefit.mean() > weak_pop.true_benefit.mean()

    def test_oracle_stable_under_doubling(self):
        small = population_cb(generate_population("strong", 100_000, seed=7))
        big = population_cb(generate_population("strong", 200_000, seed=7))
        assert abs(big - small) < 0.005

    def test_rates_positive_and_consistent(self):
        pop = generate_population("weak", 20_000, seed=8)
        assert np.all(pop.mu0 > 0) and np.all(pop.mu1 > 0)
        np.testing.assert_allclose(pop.mu0 - pop.mu1, pop.true_benefit, atol=1e-12)

    def test_size_floor(self):
        with pytest.raises(ValueError):
            generate_population("weak", 500, seed=0)


class TestSimulateTrial:
    def test_shapes_and_names(self):
        pop = generate_population("weak", 20_000, seed=9)
        d = _simulate_trial(pop, 200, np.random.default_rng(0))
        assert d.n == 200 and d.m == 6
        assert d.covariate_names == COVARIATE_NAMES
        assert np.all(d.time == 1.0)

    def test_uniform_followup(self):
        pop = generate_population(Scenario.by_name("weak", followup="uniform"), 20_000, seed=9)
        d = _simulate_trial(pop, 200, np.random.default_rng(0))
        assert np.all((d.time >= 0.5) & (d.time <= 1.0))
        assert d.time.std() > 0


class TestRunSimulation:
    def test_deterministic_and_worker_invariant(self):
        a = run_simulation("weak", 200, replicates=3, seed=5, settings=FAST)
        b = run_simulation("weak", 200, replicates=3, seed=5, settings=FAST)
        par = run_simulation(
            "weak", 200, replicates=3, seed=5,
            settings=replace(FAST, workers=2),
        )
        for x, y in zip(a.rows, b.rows):
            assert x == y
        for x, y in zip(a.rows, par.rows):
            assert x == y

    def test_rmse_identity(self):
        rep = run_simulation("weak", 200, replicates=4, seed=6, settings=FAST)
        for row in rep.rows:
            if row.n_replicates > 0:
                assert row.rmse**2 == pytest.approx(
                    row.bias**2 + row.sd**2, abs=1e-10
                )

    def test_rows_cover_all_estimators(self):
        rep = run_simulation("null", [150, 250], replicates=2, seed=7, settings=FAST)
        keys = {(r.n, r.estimator) for r in rep.rows}
        assert keys == {(n, e) for n in (150, 250) for e in ESTIMATOR_LABELS}

    def test_report_serialization(self, tmp_path):
        rep = run_simulation("weak", 200, replicates=2, seed=9, settings=FAST)
        path = tmp_path / "table.csv"
        columns = [f.name for f in fields(SimulationRow)]
        _write_csv(path, [f"seed={rep.seed}"], columns, (astuple(r) for r in rep.rows))
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=9"
        assert lines[1].startswith("scenario,n,estimator,bias,sd,rmse")
        assert len(lines) == 2 + len(rep.rows)
        for line, row in zip(lines[2:], rep.rows):
            assert line == ",".join(str(getattr(row, c)) for c in columns)
