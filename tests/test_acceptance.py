"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <k>: PASS ...`` line (visible
with ``pytest -s`` or in captured output) after all of its assertions
hold at the stated tolerances.  The heavy Monte Carlo criteria (6, 7, 9)
dominate the runtime; the whole module is expected to finish well
within its stated budgets on a 2-core machine.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import gammaln

from cbindex import (
    BenefitPipeline,
    BenefitVector,
    BootstrapConfig,
    SimSettings,
    benefit_curve,
    bootstrap_intervals,
    build_design_matrix,
    cb_parametric,
    cb_semiparametric,
    delta_b,
    fit,
    generate_population,
    gini_b,
    make_dataset,
    mean_benefit,
    pair_max_parametric,
    population_cb,
    run_simulation,
    semiparametric_partial_sums,
    standardize,
)
from cbindex.simulation import _simulate_trial

from conftest import simulate_trial
from test_cli import write_trial_csv

WORKERS = max(1, min(4, os.cpu_count() or 1))


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  {detail}")


class TestCriterion1OracleEquivalence:
    def test_pairwise_formulas_match_brute_force(self):
        rng = np.random.default_rng(1001)
        start = time.monotonic()
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 501))
            values = rng.normal(loc=rng.uniform(-1, 2), scale=rng.uniform(0.1, 5), size=n)
            v = BenefitVector.from_values(values)
            brute_max = float(np.maximum.outer(values, values).mean())
            brute_abs = float(np.abs(np.subtract.outer(values, values)).mean())
            d_max = abs(pair_max_parametric(v) - brute_max)
            d_delta = abs(delta_b(v) - brute_abs / 2)
            g = gini_b(v)
            m = float(values.mean())
            if m != 0:
                d_gini = abs(g - brute_abs / (2 * m))
            else:
                d_gini = 0.0 if math.isinf(g) else math.inf
            worst = max(worst, d_max, d_delta, d_gini)
            assert d_max < 1e-12
            assert d_delta < 1e-12
            assert d_gini < 1e-12
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        _report(1, f"1000 vectors, worst |formula - brute force| = {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2IdentitySuite:
    def test_identities_on_random_vectors(self):
        rng = np.random.default_rng(1002)
        worst_static, worst_integral = 0.0, 0.0
        grid = np.linspace(1e-6, 1.0, 10_000)
        for _ in range(100):
            n = int(rng.integers(100, 401))
            values = rng.normal(0.6, 1.0, n)
            if values.mean() <= 0:
                values = values - 2 * values.mean()  # reorient, keep spread
            v = BenefitVector.from_values(values)
            m, pm = mean_benefit(v), pair_max_parametric(v)
            g = gini_b(v)
            est = cb_parametric(v)
            assert abs(est.cb - g / (1 + g)) < 1e-12
            assert abs(delta_b(v) - (pm - m)) < 1e-12
            brute_abs = float(np.abs(np.subtract.outer(values, values)).mean())
            assert abs(delta_b(v) - brute_abs / 2) < 1e-12
            worst_static = max(worst_static, abs(est.cb - g / (1 + g)))
            integral = benefit_curve(v, grid).integral()
            rel = abs(integral - 0.5 * pm) / abs(0.5 * pm)
            worst_integral = max(worst_integral, rel)
            assert rel < 1e-3
        _report(2, f"identities <= {worst_static:.1e}; integral rel err <= {worst_integral:.1e}")


class TestCriterion3BoundSuite:
    def test_bounds(self):
        rng = np.random.default_rng(1003)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            values = np.abs(rng.normal(1.0, 2.0, n)) + rng.uniform(0, 0.1)
            est = cb_parametric(BenefitVector.from_values(values))
            assert -1e-12 <= est.cb <= 0.5 + 1e-12
        for a in (1e-6, 0.25, 1.0, 17.5, 1e6):
            assert cb_parametric(BenefitVector.from_values([a, -a])).cb == 1.0
        for c in (1e-9, 0.3, 2.0, 1e7):
            for n in (2, 5, 117):
                assert cb_parametric(BenefitVector.from_values([c] * n)).cb == 0.0
        _report(3, "non-negative in [0, 0.5]; [a,-a] = 1 exactly; constants = 0 exactly")


class TestCriterion4GlmCorrectness:
    @staticmethod
    def _reference_nll(beta, X, y, offset, theta):
        eta = X @ beta + offset
        return -np.sum(
            gammaln(y + theta) - gammaln(theta) - gammaln(y + 1)
            + theta * np.log(theta) + y * eta
            - (y + theta) * np.logaddexp(np.log(theta), eta)
        )

    def test_fit_matches_independent_maximizer(self):
        rng = np.random.default_rng(1004)
        worst = 0.0
        for i in range(20):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(200, 5001))
            theta = float(rng.uniform(0.8, 3.0))
            coefs = np.concatenate([
                rng.uniform(-0.6, 0.6, 2), rng.uniform(-0.4, 0.4, 2 * m),
            ])
            d = simulate_trial(coefs, n=n, seed=2000 + i, theta=theta, m=m,
                               fixed_time=(i % 2 == 0))
            std, scaling = standardize(d)
            design = build_design_matrix(std, scaling)
            model = fit(design, lam=0.0, theta=theta)
            assert model.fit_meta.converged
            path = np.array(model.fit_meta.deviance_path)
            assert np.all(np.diff(path) <= 1e-8 * np.maximum(1.0, np.abs(path[:-1])))
            res = minimize(
                self._reference_nll,
                np.zeros(design.p),
                args=(design.X, design.response, design.offset, theta),
                method="L-BFGS-B",
                options={"maxiter": 5000, "ftol": 1e-14, "gtol": 1e-10},
            )
            gap = float(np.max(np.abs(res.x - model.coefficients)))
            worst = max(worst, gap)
            assert gap < 1e-4
        _report(4, f"20 instances, worst coefficient gap vs optimizer = {worst:.2e}")

    def test_monotone_shrinkage_on_penalty_path(self):
        d = simulate_trial(np.array([0.2, -0.4, 0.5, -0.3, 0.25, 0.15]),
                           n=900, seed=2100, theta=1.5, m=2)
        std, scaling = standardize(d)
        design = build_design_matrix(std, scaling)
        grid = np.geomspace(100.0, 0.001, 25)
        beta = None
        norms = []
        for lam in grid:
            model = fit(design, lam=float(lam), theta=1.5, beta_start=beta)
            beta = model.coefficients
            norms.append(float(np.sum(beta[1:] ** 2)))
        assert np.all(np.diff(norms) >= -1e-10)
        _report(4.1, "penalized norm monotone over a 25-point descending path")


class TestCriterion5SemiparametricWorkedExample:
    def test_exact_values(self):
        d = make_dataset(
            treatment=[0, 1, 0, 1],
            events=[2, 0, 1, 1],
            time=[1.0, 1.0, 1.0, 1.0],
            covariates=np.array([[4.0], [3.0], [2.0], [1.0]]),
        )
        v = BenefitVector.from_values([4.0, 3.0, 2.0, 1.0])
        curve = semiparametric_partial_sums(d, v)
        assert curve.values.tolist() == [2.0, 4.0, 4.5, 4.0]
        est = cb_semiparametric(d, v)
        assert est.mean_benefit == 1.0
        assert est.cb == 0.36
        _report(5, "S = [2, 4, 4.5, 4], E(B) = 1, index = 0.36, all exact")


class TestCriterion6EstimatorConsistency:
    def test_large_sample_parametric_ml_hits_oracle(self):
        start = time.monotonic()
        pop = generate_population("strong", 200_000, seed=606)
        oracle = population_cb(pop)
        rng = np.random.default_rng(6006)
        data = _simulate_trial(pop, 50_000, rng)
        result = BenefitPipeline(model="ml").estimate(data)
        estimate = result.cb_value("parametric")
        elapsed = time.monotonic() - start
        assert estimate is not None
        assert abs(estimate - oracle) <= 0.02
        assert elapsed < 300.0
        _report(6, f"n=50000 estimate {estimate:.4f} vs oracle {oracle:.4f} "
                   f"(gap {abs(estimate - oracle):.4f}), {elapsed:.0f}s")


REPLICATES_7 = 50
N_VALUES_7 = (400, 1000, 5000)


@pytest.fixture(scope="module")
def reports():
    settings = SimSettings(workers=WORKERS)
    start = time.monotonic()
    out = {
        name: run_simulation(name, N_VALUES_7, REPLICATES_7,
                             seed=7777, settings=settings)
        for name in ("strong", "weak", "null")
    }
    out["elapsed"] = time.monotonic() - start
    return out


@pytest.mark.slow
class TestCriterion7SimulationPatterns:
    REPLICATES = REPLICATES_7
    N_VALUES = N_VALUES_7

    def test_runtime_budget(self, reports):
        assert reports["elapsed"] < 1800.0
        _report("7-runtime", f"3 scenarios x 3 sizes x 50 replicates in "
                             f"{reports['elapsed']:.0f}s with {WORKERS} workers")

    def test_a_null_bias_positive_and_ml_decreasing(self, reports):
        rep = reports["null"]
        for row in rep.rows:
            assert row.n_replicates > 0
            assert row.bias > 0, f"{row.estimator} at n={row.n} has bias {row.bias}"
        ml_bias = [rep.row("null", n, "parametric-ml").bias for n in self.N_VALUES]
        assert ml_bias[0] > ml_bias[1] > ml_bias[2]
        _report("7a", f"null bias positive everywhere; parametric-ml bias "
                      f"{ml_bias[0]:.3f} > {ml_bias[1]:.3f} > {ml_bias[2]:.3f}")

    def test_b_rmse_decreasing_in_sample_size(self, reports):
        checked = 0
        for name in ("strong", "weak", "null"):
            rep = reports[name]
            for est in {r.estimator for r in rep.rows}:
                rmses = [rep.row(name, n, est).rmse for n in self.N_VALUES]
                assert rmses[0] > rmses[1] > rmses[2], (
                    f"{name}/{est}: RMSE {rmses}"
                )
                checked += 1
        _report("7b", f"RMSE strictly decreasing in n for all {checked} cells")

    def test_c_semiparametric_disperses_more(self, reports):
        for name in ("strong", "weak", "null"):
            rep = reports[name]
            semi = np.mean([
                rep.row(name, n, est).sd
                for n in self.N_VALUES for est in ("semi-ridge", "semi-ml")
            ])
            par = np.mean([
                rep.row(name, n, est).sd
                for n in self.N_VALUES for est in ("parametric-ridge", "parametric-ml")
            ])
            assert semi >= par, f"{name}: semi SD {semi} < parametric SD {par}"
        _report("7c", "mean semi-parametric SD >= mean parametric SD in every scenario")

    def test_d_optimism_adjustment_reduces_null_bias(self, reports):
        rep = reports["null"]
        for model in ("ridge", "ml"):
            raw = rep.row("null", 400, f"semi-{model}").bias
            adj = rep.row("null", 400, f"semi-{model}-adjusted").bias
            assert adj < raw, f"{model}: adjusted {adj} !< unadjusted {raw}"
        _report("7d", "null n=400: adjusted semi bias below unadjusted for both models")


class TestCriterion8Determinism:
    def _run(self, args, out):
        cmd = [sys.executable, "-m", "cbindex"] + [str(a) for a in args] + ["--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_estimate_and_simulate_worker_invariant(self, tmp_path):
        csv = write_trial_csv(tmp_path / "trial.csv", n=150, seed=88)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "columns": {"treatment": "arm", "events": "y", "time": "t",
                        "covariates": ["x1", "x2"], "id": "id"},
            "cv": {"folds": 3, "grid_size": 4, "min_ratio": 0.01},
        }))
        est_args = ["estimate", "--input", csv, "--config", config,
                    "--model", "ridge", "--seed", "31", "--bootstrap", "16"]
        runs = [
            self._run(est_args + ["--workers", w], tmp_path / f"est_{tag}")
            for tag, w in (("a", "1"), ("b", "1"), ("c", "8"))
        ]
        assert runs[0] == runs[1] == runs[2]

        sim_args = ["simulate", "--scenario", "null", "--n", "150",
                    "--replicates", "4", "--seed", "9", "--population-size",
                    "20000", "--optimism", "2"]
        sims = [
            self._run(sim_args + ["--workers", w], tmp_path / f"sim_{tag}")
            for tag, w in (("a", "1"), ("b", "1"), ("c", "8"))
        ]
        assert sims[0] == sims[1] == sims[2]
        _report(8, "estimate and simulate outputs byte-identical across reruns "
                   "and across 1 vs 8 workers")


@pytest.mark.slow
class TestCriterion9BootstrapCoverage:
    OUTER = 100
    BOOT = 200

    def test_percentile_interval_covers_oracle(self):
        pop = generate_population("strong", 200_000, seed=909)
        oracle = population_cb(pop)
        pipeline = BenefitPipeline(model="ml", precision="relaxed")
        rng = np.random.default_rng(9009)
        covered = 0
        failures = 0
        for i in range(self.OUTER):
            data = _simulate_trial(pop, 1000, rng)
            cfg = BootstrapConfig(replicates=self.BOOT, seed=10_000 + i,
                                  workers=WORKERS)
            try:
                iv = bootstrap_intervals(data, pipeline, cfg)["parametric"]
            except Exception:
                failures += 1
                continue
            if iv.lower <= oracle <= iv.upper:
                covered += 1
        assert failures <= 5
        assert covered >= 80
        _report(9, f"interval covered the oracle in {covered}/100 runs "
                   f"({failures} failures)")
