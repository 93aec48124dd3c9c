import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbindex.errors import DegenerateCovariateError, RowParseError, SchemaError
from cbindex.trial_data import (
    balance_check,
    load_dataset,
    make_dataset,
    standardize,
)

SCHEMA = {"treatment": "arm", "events": "y", "time": "t", "covariates": ["x1"], "id": "id"}

CSV_4ROW = """id,arm,y,t,x1
a,0,2,1.0,0.5
b,1,0,0.8,-0.2
c,0,1,1.2,1.5
d,1,3,0.9,0.1
"""


class TestLoadDataset:
    def test_four_row_csv(self):
        d = load_dataset(io.StringIO(CSV_4ROW), SCHEMA)
        assert d.n == 4 and d.m == 1
        assert d.ids == ["a", "b", "c", "d"]
        assert d.treatment.tolist() == [0, 1, 0, 1]
        assert d.events.tolist() == [2, 0, 1, 3]
        np.testing.assert_allclose(d.time, [1.0, 0.8, 1.2, 0.9])

    def test_missing_time_column_is_schema_error(self):
        text = CSV_4ROW.replace(",t,", ",followup,")
        with pytest.raises(SchemaError, match="'t'"):
            load_dataset(io.StringIO(text), SCHEMA)

    def test_zero_time_is_row_error(self):
        text = CSV_4ROW.replace("b,1,0,0.8", "b,1,0,0.0")
        with pytest.raises(RowParseError, match="row 2.*'t'"):
            load_dataset(io.StringIO(text), SCHEMA)

    def test_non_integer_count_is_row_error(self):
        text = CSV_4ROW.replace("c,0,1,", "c,0,1.5,")
        with pytest.raises(RowParseError, match="row 3.*'y'"):
            load_dataset(io.StringIO(text), SCHEMA)

    def test_bad_arm_label_is_row_error(self):
        text = CSV_4ROW.replace("d,1,3", "d,2,3")
        with pytest.raises(RowParseError, match="row 4.*'arm'"):
            load_dataset(io.StringIO(text), SCHEMA)

    def test_missing_values_drop_rows_with_count(self):
        text = CSV_4ROW.replace("b,1,0,0.8,-0.2", "b,1,,0.8,-0.2")
        d = load_dataset(io.StringIO(text), SCHEMA)
        assert d.n == 3
        assert d.n_missing_excluded == 1

    def test_same_bytes_same_dataset(self):
        d1 = load_dataset(io.StringIO(CSV_4ROW), SCHEMA)
        d2 = load_dataset(io.StringIO(CSV_4ROW), SCHEMA)
        assert d1 == d2

    def test_file_path_roundtrip(self, tmp_path):
        p = tmp_path / "trial.csv"
        p.write_text(CSV_4ROW, encoding="utf-8")
        assert load_dataset(str(p), SCHEMA) == load_dataset(io.StringIO(CSV_4ROW), SCHEMA)

    def test_stream_input(self):
        d = load_dataset(io.StringIO(CSV_4ROW), SCHEMA)
        assert d.n == 4


class TestStandardize:
    def test_three_point_column(self):
        d = make_dataset([0, 1, 0], [1, 0, 2], [1, 1, 1], np.array([[1.0], [2.0], [3.0]]))
        scaled, params = standardize(d)
        np.testing.assert_allclose(scaled.covariates[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)
        assert params.means[0] == 2.0 and params.sds[0] == 1.0

    def test_moments_within_tolerance(self):
        rng = np.random.default_rng(3)
        d = make_dataset(
            rng.integers(0, 2, 50), rng.integers(0, 4, 50), np.ones(50),
            rng.uniform(-5, 20, (50, 3)),
        )
        scaled, _ = standardize(d)
        assert np.all(np.abs(scaled.covariates.mean(axis=0)) < 1e-12)
        assert np.all(np.abs(scaled.covariates.std(axis=0, ddof=1) - 1) < 1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        d = make_dataset(
            rng.integers(0, 2, 30), rng.integers(0, 3, 30), np.ones(30),
            rng.normal(3, 2, (30, 2)),
        )
        once, _ = standardize(d)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.covariates, once.covariates, atol=1e-12)

    def test_constant_column_rejected(self):
        d = make_dataset([0, 1, 0], [0, 1, 0], [1, 1, 1], np.array([[5.0], [5.0], [5.0]]),
                         covariate_names=["flat"])
        with pytest.raises(DegenerateCovariateError, match="flat"):
            standardize(d)

    def test_arm_blind(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 3, (40, 2))
        a = rng.integers(0, 2, 40)
        d1 = make_dataset(a, np.zeros(40, dtype=int), np.ones(40), x)
        d2 = make_dataset(rng.permutation(a), np.zeros(40, dtype=int), np.ones(40), x)
        s1, _ = standardize(d1)
        s2, _ = standardize(d2)
        np.testing.assert_array_equal(s1.covariates, s2.covariates)


class TestBalanceCheck:
    def test_identical_arms_zero_smd(self):
        x = np.array([[1.0], [2.0], [1.0], [2.0]])
        d = make_dataset([0, 0, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1], x)
        res = balance_check(d)
        assert res.smd[0] == 0.0
        assert res.flagged == []

    def test_separated_constant_arms_flagged(self):
        # Within-arm SDs are zero, so the combined-sample SD (of all
        # four values, n-1 divisor) is the denominator: SMD = sqrt(3).
        d = make_dataset([0, 0, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1],
                         np.array([[0.0], [0.0], [1.0], [1.0]]))
        res = balance_check(d)
        assert res.smd[0] == pytest.approx(math.sqrt(3), abs=1e-12)
        assert res.flagged == ["x1"]

    def test_constant_everywhere_undefined(self):
        d = make_dataset([0, 0, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1],
                         np.array([[2.0], [2.0], [2.0], [2.0]]))
        res = balance_check(d)
        assert math.isnan(res.smd[0])
        assert res.flagged == []

    @settings(max_examples=25, deadline=None)
    @given(
        scale=st.floats(min_value=0.01, max_value=100.0),
        shift=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_affine_invariance(self, scale, shift):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (60, 1))
        a = np.repeat([0, 1], 30)
        base = make_dataset(a, np.zeros(60, dtype=int), np.ones(60), x)
        moved = make_dataset(a, np.zeros(60, dtype=int), np.ones(60), x * scale + shift)
        s0 = balance_check(base).smd[0]
        s1 = balance_check(moved).smd[0]
        assert s1 == pytest.approx(s0, rel=1e-9)

    def test_needs_both_arms(self):
        d = make_dataset([1, 1], [0, 0], [1, 1], np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            balance_check(d)


class TestDatasetInvariants:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="positive"):
            make_dataset([0, 1], [0, 0], [1.0, -1.0], np.zeros((2, 1)))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_dataset([0, 1], [0, -1], [1.0, 1.0], np.zeros((2, 1)))

    def test_rejects_bad_arm(self):
        with pytest.raises(ValueError, match="0 or 1"):
            make_dataset([0, 2], [0, 0], [1.0, 1.0], np.zeros((2, 1)))

    def test_rejects_non_finite_covariates(self):
        with pytest.raises(ValueError, match="finite"):
            make_dataset([0, 1], [0, 0], [1.0, 1.0], np.array([[0.0], [np.inf]]))

    def test_subset_resamples(self):
        d = make_dataset([0, 1, 0], [1, 2, 3], [1, 1, 1], np.arange(3.0)[:, None])
        s = d.subset([2, 2, 0])
        assert s.events.tolist() == [3, 3, 1]
        assert s.ids == ["3", "3", "1"]
