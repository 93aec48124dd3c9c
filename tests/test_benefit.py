import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cbindex.benefit import (
    BenefitVector,
    benefit_curve,
    cb_parametric,
    cb_semiparametric,
    delta_b,
    gini_b,
    mean_benefit,
    pair_max_parametric,
    partial_sums_parametric,
    predicted_benefit,
    semiparametric_partial_sums,
)
from cbindex.errors import (
    DegenerateEstimateError,
    EstimatorUndefinedError,
    InsufficientDataError,
    NumericalError,
    OrientationError,
)
from cbindex.nbglm import FitMeta, FittedBenefitModel
from cbindex.pipeline import BenefitPipeline
from cbindex.simulation import WEAK_SCENARIO_COEFFICIENTS
from cbindex.trial_data import ScalingParams, make_dataset

from conftest import simulate_trial


def brute_pair_max(values):
    return float(np.maximum.outer(values, values).mean())


def brute_mean_abs_diff(values):
    return float(np.abs(np.subtract.outer(values, values)).mean())


def bv(values):
    return BenefitVector.from_values(np.asarray(values, dtype=np.float64))


benefit_vectors = arrays(
    np.float64,
    st.integers(min_value=2, max_value=120),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False, width=64),
)


class TestPairwiseQuantities:
    def test_three_one(self):
        v = bv([3.0, 1.0])
        assert pair_max_parametric(v) == pytest.approx(2.5, abs=1e-15)
        assert delta_b(v) == pytest.approx(0.5, abs=1e-15)
        assert gini_b(v) == pytest.approx(0.25, abs=1e-15)
        assert cb_parametric(v).cb == pytest.approx(1 - 2 / 2.5, abs=1e-15)

    def test_one_minus_one(self):
        v = bv([1.0, -1.0])
        assert pair_max_parametric(v) == pytest.approx(0.5, abs=1e-15)
        assert delta_b(v) == pytest.approx(0.5, abs=1e-15)
        assert gini_b(v) == math.inf

    def test_constant_vector(self):
        v = bv([0.7, 0.7, 0.7])
        assert pair_max_parametric(v) == pytest.approx(0.7, abs=1e-15)
        assert delta_b(v) == pytest.approx(0.0, abs=1e-15)
        assert gini_b(v) == 0.0
        assert cb_parametric(v).cb == 0.0

    def test_mean_examples(self):
        assert mean_benefit(bv([0.1, 0.2, 0.3])) == pytest.approx(0.2)
        assert mean_benefit(bv([3.0, 1.0])) == 2.0

    def test_needs_two_subjects(self):
        with pytest.raises(InsufficientDataError):
            pair_max_parametric(bv([1.0]))

    @settings(max_examples=120, deadline=None)
    @given(values=benefit_vectors)
    def test_sorted_formula_equals_brute_force(self, values):
        v = bv(values)
        assert pair_max_parametric(v) == pytest.approx(brute_pair_max(values), abs=1e-10)
        assert delta_b(v) == pytest.approx(brute_mean_abs_diff(values) / 2, abs=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(values=benefit_vectors)
    def test_identities(self, values):
        v = bv(values)
        m = mean_benefit(v)
        if m <= 0:
            values = values - values.min() + 0.5  # reorient to positive mean
            v = bv(values)
            m = mean_benefit(v)
        est = cb_parametric(v)
        g = gini_b(v)
        assert est.delta_b == pytest.approx(est.pair_max - est.mean_benefit, abs=1e-12)
        if math.isfinite(g) and g > 0:
            assert est.cb == pytest.approx(g / (1 + g), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        values=benefit_vectors,
        scale=st.floats(min_value=0.01, max_value=1000.0),
    )
    def test_scale_equivariance(self, values, scale):
        values = np.abs(values) + 0.1
        v, vs = bv(values), bv(values * scale)
        assert cb_parametric(vs).cb == pytest.approx(cb_parametric(v).cb, abs=1e-9)
        assert delta_b(vs) == pytest.approx(scale * delta_b(v), rel=1e-9, abs=1e-9)


class TestBounds:
    @settings(max_examples=80, deadline=None)
    @given(values=benefit_vectors)
    def test_nonnegative_vectors_bounded_by_half(self, values):
        values = np.abs(values)
        if values.max() == 0:
            values = values + 1.0
        est = cb_parametric(bv(values))
        assert -1e-12 <= est.cb <= 0.5 + 1e-12

    @pytest.mark.parametrize("values, cb", [
        ([5e-324, 0.0], 1 / 3),             # the mean underflows to 0 unscaled
        ([5e-324, 0.0, 0.0, 0.0], 3 / 7),   # the pairwise maximum underflows to 0
        ([1.7e308, 1.7e308, 0.0], 1 / 4),   # the sums overflow to inf
    ])
    def test_subnormal_and_huge_benefits_keep_their_index(self, values, cb):
        est = cb_parametric(bv(values))
        assert est.cb == pytest.approx(cb, abs=1e-12)
        assert est.mean_benefit == pytest.approx(np.mean(np.asarray(values) / 4) * 4)

    def test_antisymmetric_pair_is_exactly_one(self):
        for a in (0.5, 1.0, 3.75, 1e-4):
            assert cb_parametric(bv([a, -a])).cb == 1.0

    def test_mixed_sign_positive_mean_in_unit_interval(self):
        est = cb_parametric(bv([2.0, 1.0, -0.5, 0.4]))
        assert 0.0 < est.cb <= 1.0

    def test_negative_mean_raises_orientation(self):
        with pytest.raises(OrientationError, match="flip"):
            cb_parametric(bv([-1.0, -2.0]))

    def test_constant_zero_is_degenerate(self):
        with pytest.raises(DegenerateEstimateError):
            cb_parametric(bv([0.0, 0.0]))


class TestPredictedBenefit:
    def _model(self, coefficients, m):
        return FittedBenefitModel(
            coefficients=np.asarray(coefficients, dtype=np.float64),
            coefficient_names=[f"c{i}" for i in range(2 * m + 2)],
            dispersion=1.0,
            penalty=0.0,
            scaling=ScalingParams.identity(m),
            fit_meta=FitMeta(0, True, 0.0, ()),
        )

    def test_no_treatment_terms_means_zero_benefit(self):
        model = self._model([0.4, 0.0, 0.3, -0.2, 0.0, 0.0], m=2)
        d = simulate_trial(np.zeros(6), n=30, seed=21, m=2)
        values = predicted_benefit(model, d).values
        np.testing.assert_array_equal(values, np.zeros(30))

    def test_intercept_only_halving_effect(self):
        b0 = 0.3
        model = self._model([b0, -math.log(2), 0.0, 0.0], m=1)
        d = simulate_trial(np.zeros(4), n=10, seed=22, m=1)
        values = predicted_benefit(model, d).values
        np.testing.assert_allclose(values, math.exp(b0) * 0.5, rtol=1e-12)

    def test_overflowing_rate_is_named(self):
        model = self._model([0.0, 0.0, 0.0, 1.0], m=1)  # treated rate exp(x)
        d = make_dataset([0, 1, 0], [1, 0, 2], [1.0, 1.0, 1.0], np.array([[0.5], [800.0], [-0.2]]))
        with pytest.raises(NumericalError,
                           match=r"subject '2' is not finite.* 0 untreated and 800 treated"):
            predicted_benefit(model, d)

    def test_mean_benefit_tracks_arm_rate_difference(self):
        d = simulate_trial(np.array(WEAK_SCENARIO_COEFFICIENTS), n=20_000,
                           seed=23, theta=10.0, m=6)
        result = BenefitPipeline(model="ml").estimate(d)
        mask0 = d.treatment == 0
        observed = d.events[mask0].mean() - d.events[~mask0].mean()
        assert result.benefit.values.mean() == pytest.approx(observed, abs=0.03)


class TestSemiparametric:
    def worked_example(self):
        d = make_dataset(
            treatment=[0, 1, 0, 1],
            events=[2, 0, 1, 1],
            time=[1.0, 1.0, 1.0, 1.0],
            covariates=np.array([[4.0], [3.0], [2.0], [1.0]]),
        )
        return d, BenefitVector.from_values([4.0, 3.0, 2.0, 1.0], subject_ids=d.ids)

    def test_partial_sums_worked_example(self):
        d, v = self.worked_example()
        curve = semiparametric_partial_sums(d, v)
        np.testing.assert_array_equal(curve.values, [2.0, 4.0, 4.5, 4.0])

    def test_cb_worked_example_exact(self):
        d, v = self.worked_example()
        est = cb_semiparametric(d, v)
        assert est.mean_benefit == 1.0
        assert est.pair_max == 1.5625
        assert est.cb == 0.36
        assert not est.out_of_range

    def test_full_sample_value_matches_mean_difference(self):
        rng = np.random.default_rng(24)
        n = 40
        a = np.tile([0, 1], n // 2)  # every prefix of even length balanced
        y = rng.integers(0, 5, n)
        d = make_dataset(a, y, np.ones(n), rng.normal(0, 1, (n, 1)))
        v = BenefitVector.from_values(np.arange(n, 0, -1, dtype=float), subject_ids=d.ids)
        curve = semiparametric_partial_sums(d, v)
        expected = n * (y[a == 0].mean() - y[a == 1].mean())
        assert curve.values[-1] == pytest.approx(expected, rel=1e-12)

    def test_single_arm_undefined(self):
        d = make_dataset([1, 1, 1], [1, 0, 2], [1, 1, 1], np.zeros((3, 1)) + [[1], [2], [3]])
        v = BenefitVector.from_values([3.0, 2.0, 1.0], subject_ids=d.ids)
        with pytest.raises(EstimatorUndefinedError):
            semiparametric_partial_sums(d, v)
        with pytest.raises(EstimatorUndefinedError):
            cb_semiparametric(d, v)

    def test_identical_prefix_rates_degenerate(self):
        # every subject has the same outcome: both arms show rate 1 in
        # every prefix (carry-back included), the whole curve is zero,
        # and the index is undefined
        d = make_dataset(
            treatment=[0, 1, 0, 1, 0, 1],
            events=[1, 1, 1, 1, 1, 1],
            time=np.ones(6),
            covariates=np.arange(6.0)[::-1][:, None],
        )
        v = BenefitVector.from_values(np.arange(6.0)[::-1], subject_ids=d.ids)
        curve = semiparametric_partial_sums(d, v)
        np.testing.assert_allclose(curve.values, np.zeros(6), atol=1e-12)
        with pytest.raises(DegenerateEstimateError):
            cb_semiparametric(d, v)

    def test_semi_curve_tracks_parametric_on_large_calm_sample(self):
        d = simulate_trial(np.array([0.3, -0.5, 0.4, -0.3, 0.3, -0.2]), n=20_000,
                           seed=25, theta=50.0, m=2)
        result = BenefitPipeline(model="ml").estimate(d)
        par = partial_sums_parametric(result.benefit)
        semi = semiparametric_partial_sums(d, result.benefit)
        gap = np.max(np.abs(par.values - semi.values)) / d.n
        assert gap < 0.05

    def test_raw_out_of_range_reported_with_flag(self):
        # ranking rewards the untreated arm early while the treated arm
        # wins overall: observed mean difference is negative but the
        # prefix sums stay positive, pushing the raw value above 1;
        # it must be reported unclamped with the flag set
        d = make_dataset(
            treatment=[0, 1, 0, 1],
            events=[5, 0, 0, 6],
            time=np.ones(4),
            covariates=np.array([[4.0], [3.0], [2.0], [1.0]]),
        )
        v = BenefitVector.from_values([4.0, 3.0, 2.0, 1.0], subject_ids=d.ids)
        est = cb_semiparametric(d, v)
        assert est.mean_benefit == pytest.approx(-0.5)
        assert est.pair_max == pytest.approx(2.6875)
        assert est.cb > 1.0
        assert est.out_of_range


class TestBenefitCurve:
    def test_values_on_three_one(self):
        v = bv([3.0, 1.0])
        curve = benefit_curve(v, [0.5, 1.0])
        np.testing.assert_allclose(curve.values, [1.5, 2.0])

    def test_integral_is_half_pair_max(self):
        v = bv([3.0, 1.0])
        curve = benefit_curve(v, np.linspace(1e-9, 1.0, 100_001))
        assert curve.integral() == pytest.approx(1.25, abs=1e-6)
        assert curve.integral() == pytest.approx(0.5 * pair_max_parametric(v), abs=1e-6)

    def test_constant_vector_gives_line(self):
        c = 0.37
        v = bv([c] * 7)
        p = np.array([0.1, 0.33, 0.5, 0.91, 1.0])
        curve = benefit_curve(v, p)
        np.testing.assert_allclose(curve.values, p * c, rtol=1e-12)

    def test_p_one_returns_mean(self):
        v = bv([3.0, 1.0, 0.5])
        curve = benefit_curve(v, [1.0])
        assert curve.values[0] == pytest.approx(mean_benefit(v), rel=1e-12)

    def test_monotone_for_nonnegative_benefits(self):
        rng = np.random.default_rng(26)
        v = bv(np.abs(rng.normal(1, 2, 200)))
        curve = benefit_curve(v, np.linspace(0.01, 1.0, 250))
        assert np.all(np.diff(curve.values) >= -1e-12)

    def test_bad_grids_rejected(self):
        v = bv([1.0, 2.0])
        with pytest.raises(ValueError):
            benefit_curve(v, [])
        with pytest.raises(ValueError):
            benefit_curve(v, [0.5, 0.2])
        with pytest.raises(ValueError):
            benefit_curve(v, [0.0, 0.5])

    @settings(max_examples=40, deadline=None)
    @given(values=benefit_vectors)
    def test_fine_grid_integral_identity(self, values):
        v = bv(values)
        curve = benefit_curve(v, np.linspace(1e-9, 1.0, 20_001))
        target = 0.5 * pair_max_parametric(v)
        assert curve.integral() == pytest.approx(target, abs=1e-3 * max(1.0, abs(target)))


class TestOrderingAndCurveShape:
    def test_parametric_partial_sums_concave(self):
        rng = np.random.default_rng(27)
        v = bv(rng.normal(0, 3, 150))
        curve = partial_sums_parametric(v)
        increments = np.diff(curve.values)
        assert np.all(np.diff(increments) <= 1e-12)

    def test_order_breaks_ties_by_index(self):
        v = BenefitVector.from_values([1.0, 2.0, 1.0, 2.0])
        assert v.order.tolist() == [1, 3, 0, 2]

    @pytest.mark.parametrize("order", [[0, 0, 1], [-1, 0, 1], [0, 1, 3], [0, 1], [[0, 1, 2]]])
    def test_order_must_be_a_permutation(self, order):
        with pytest.raises(ValueError, match="permutation"):
            BenefitVector(values=np.array([3.0, 2.0, 1.0]), order=np.array(order),
                          subject_ids=["a", "b", "c"])

    def test_empty_vector_has_empty_order(self):
        assert BenefitVector.from_values([]).n == 0

    def test_curve_export(self, tmp_path):
        v = bv([3.0, 1.0])
        path = tmp_path / "sums.csv"
        partial_sums_parametric(v).to_csv(str(path), header_lines=["seed=1"])
        text = path.read_text()
        assert text.startswith("# seed=1\nk,partial_sum\n1,3.0\n2,4.0\n")
