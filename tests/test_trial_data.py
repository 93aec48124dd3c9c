import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbindex import trial_data
from cbindex.errors import DataError, DegenerateCovariateError, RowParseError, SchemaError
from cbindex.trial_data import (
    TrialDataset,
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

_REFERENCE_MISSING = {"", "na", "nan", "null", "none"}


def _reference_float(raw, row, column):
    try:
        value = float(raw)
    except ValueError:
        raise RowParseError(row, column, f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise RowParseError(row, column, f"not finite: {raw!r}")
    return value


def _reference_count(raw, row, column):
    value = _reference_float(raw, row, column)
    if value != int(value):
        raise RowParseError(row, column, f"not an integer count: {raw!r}")
    if value < 0:
        raise RowParseError(row, column, f"negative count: {raw!r}")
    # The one intended difference from the per-row loader: a count of
    # 2**63 or more passed this parser and then failed in TrialDataset
    # with an OverflowError; now it is a RowParseError naming the cell.
    if value >= 2**63:
        raise RowParseError(row, column, f"count not below 2**63: {raw!r}")
    return int(value)


def reference_load(source, schema):
    """The per-row loader that ``load_dataset`` reads blocks in place of:
    one dict of stripped cells per row, parsed cell by cell.  Kept as the
    oracle for the block reader, from a stream with a valid schema."""
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty input: no header row") from None
    header = [h.strip() for h in header]
    cov_cols = schema["covariates"]
    positions = {}
    wanted = [str(schema["treatment"]), str(schema["events"]), str(schema["time"])]
    wanted += cov_cols
    id_col = schema.get("id")
    if id_col is not None:
        wanted.append(str(id_col))
    for name in wanted:
        if name not in header:
            raise SchemaError(f"column '{name}' not found in header {header}")
        positions[name] = header.index(name)

    treatment, events, time, covariates, ids = [], [], [], [], []
    n_missing = 0
    for row_number, row in enumerate(reader, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise RowParseError(
                row_number, "<row>", f"expected {len(header)} cells, got {len(row)}"
            )
        cells = {name: row[pos].strip() for name, pos in positions.items()}
        if any(c.lower() in _REFERENCE_MISSING for c in cells.values()):
            n_missing += 1
            continue

        t_col = str(schema["treatment"])
        arm = _reference_float(cells[t_col], row_number, t_col)
        if arm not in (0.0, 1.0):
            raise RowParseError(row_number, t_col, f"arm must be 0 or 1: {cells[t_col]!r}")
        y_col = str(schema["events"])
        count = _reference_count(cells[y_col], row_number, y_col)
        time_col = str(schema["time"])
        followup = _reference_float(cells[time_col], row_number, time_col)
        if followup <= 0:
            raise RowParseError(row_number, time_col, f"time must be positive: {cells[time_col]!r}")
        x = [_reference_float(cells[str(c)], row_number, str(c)) for c in cov_cols]

        treatment.append(int(arm))
        events.append(count)
        time.append(followup)
        covariates.append(x)
        ids.append(cells[str(id_col)] if id_col is not None else str(len(ids) + 1))

    if not treatment:
        raise SchemaError("no usable data rows after exclusions")
    return TrialDataset(
        treatment=np.array(treatment),
        events=np.array(events),
        time=np.array(time),
        covariates=np.array(covariates),
        covariate_names=list(cov_cols),
        ids=ids,
        n_missing_excluded=n_missing,
    )


# Cells of the generated CSVs, by column: values every row check accepts,
# then values some check rejects.  Padding and case vary throughout.
_GOOD = {
    "id": ["s1", "s2", " s3 ", '"a,b"', '" q, r "'],
    "arm": ["0", "1", " 1 ", "-0", "1.0", '"0"'],
    "y": ["0", "3", " 12 ", "2.0", "-0", "9223372036854774784"],
    "t": ["1.0", "0.5", " 2 ", "1e-3"],
    "x": ["0.25", "-1.5", "3", " 1e-3 ", "1e300", "-0", "1_5"],
}
_BAD = {
    "arm": ["2", "0.5", "-1"],
    "y": ["1.5", "-1", "1e20", "9223372036854775808"],
    "t": ["0", "-1", "-0"],
    "x": ["abc", "1.2.3", "0x1p3"],
}
_MISSING = ["", "NA", " na ", "NaN", " nan", "NULL", "None", " NONE ", "nUlL"]
_NON_FINITE = ["-nan", "+nan", "-NaN", "inf", "+inf", "-Infinity", "1e500", "-1e500"]
_COLUMNS = ["id", "arm", "y", "t", "x", "x"]
_HEADER = "id,arm,y,t,x1,x2,note"
_BLANK_LINES = ["   ", " , ,\t, , , , "]


@st.composite
def trial_csvs(draw):
    """A CSV with columns id, arm, y, t, x1, x2, note: mostly valid rows,
    with missing cells and blank and whitespace-only lines mixed in, and
    in half the files rejected or non-finite cells and rows of the wrong
    width too."""
    kinds = ["valid"] * 6 + ["missing"] * 3 + ["blank", "spaces"]
    if draw(st.booleans()):
        kinds += ["bad", "non-finite", "width"]
    lines = [_HEADER]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        cells = [draw(st.sampled_from(_GOOD[c])) for c in _COLUMNS] + ["n"]
        j = draw(st.integers(0, len(_COLUMNS) - 1))
        if kind == "bad":
            j = draw(st.integers(1, len(_COLUMNS) - 1))
            cells[j] = draw(st.sampled_from(_BAD[_COLUMNS[j]]))
        elif kind == "non-finite":
            cells[j] = draw(st.sampled_from(_NON_FINITE))
        elif kind == "missing":
            cells[j] = draw(st.sampled_from(_MISSING))
        elif kind == "width":
            cells = cells[:j] if draw(st.booleans()) else cells + ["extra"]
        line = ",".join(cells)
        if kind == "blank":
            line = ""
        elif kind == "spaces":
            line = draw(st.sampled_from(_BLANK_LINES))
        lines.append(line)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _outcome(load, text, schema):
    """The dataset a loader returns with what ``==`` leaves out, or the
    class and message of the data error it raises."""
    try:
        d = load(io.StringIO(text, newline=""), schema)
    except DataError as exc:
        return type(exc), str(exc)
    arrays = (d.treatment, d.events, d.time, d.covariates)
    return d, d.n_missing_excluded, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


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

    def test_repeated_mapped_column_is_schema_error(self):
        text = "id,arm,y,t,x1,x1\na,0,2,1.0,0.5,7\nb,1,0,0.8,-0.2,7\n"
        with pytest.raises(SchemaError, match="column 'x1' appears more than once in header"):
            load_dataset(io.StringIO(text), SCHEMA)

    def test_repeated_unmapped_column_is_allowed(self):
        lines = CSV_4ROW.splitlines()
        text = "\n".join([lines[0] + ",z,z"] + [row + ",7,8" for row in lines[1:]]) + "\n"
        assert load_dataset(io.StringIO(text), SCHEMA) == load_dataset(io.StringIO(CSV_4ROW), SCHEMA)

    @pytest.mark.parametrize("covariates", [5, "x1", None, ["x1", 2], {"x1": 1}])
    def test_covariates_must_be_a_list_of_column_names(self, covariates):
        with pytest.raises(SchemaError, match="covariates.*list of column names"):
            load_dataset(io.StringIO(CSV_4ROW), dict(SCHEMA, covariates=covariates))

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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet programs save UTF-8 with a leading byte-order mark,
        # which must not become part of the first header cell ('id' here)
        p = tmp_path / "trial.csv"
        p.write_bytes(b"\xef\xbb\xbf" + CSV_4ROW.encode("utf-8"))
        assert load_dataset(str(p), SCHEMA) == load_dataset(io.StringIO(CSV_4ROW), SCHEMA)

    def test_stream_input(self):
        d = load_dataset(io.StringIO(CSV_4ROW), SCHEMA)
        assert d.n == 4

    @pytest.mark.parametrize("count", ["1e20", "9223372036854775808"])
    def test_count_of_two_to_the_63_is_row_error(self, count):
        text = CSV_4ROW.replace("c,0,1,", f"c,0,{count},")
        with pytest.raises(RowParseError, match=r"row 3, column 'y': count not below 2\*\*63"):
            load_dataset(io.StringIO(text), SCHEMA)

    def test_error_names_the_first_bad_row_across_blocks(self, monkeypatch):
        monkeypatch.setattr(trial_data, "_BLOCK_ROWS", 2)
        rows = CSV_4ROW.splitlines()[1:] * 2
        rows[4] = rows[4].replace(",1.0,", ",0,")  # row 5: zero time
        rows[6] = "g,2,1,1.0,0.3"  # row 7: bad arm
        text = "\n".join(["id,arm,y,t,x1", *rows]) + "\n"
        with pytest.raises(RowParseError, match=r"row 5, column 't'"):
            load_dataset(io.StringIO(text), SCHEMA)

    def test_each_trouble_at_each_row_matches_per_row_reference(self, monkeypatch):
        """One troubled cell or line at each of the 7 rows of an otherwise
        valid file read in blocks of 3: the first, middle and last row of
        a block, and of the last, short block."""
        monkeypatch.setattr(trial_data, "_BLOCK_ROWS", 3)
        schema = dict(SCHEMA, covariates=["x1", "x2"])
        valid = ["s1", "1", "3", "1.0", "0.25", "-1.5", "n"]
        troubled = ["", *_BLANK_LINES, ",".join(valid[:4]), ",".join(valid + ["extra"])]
        for j, column in enumerate(_COLUMNS):
            for value in _BAD.get(column, []) + _MISSING + _NON_FINITE:
                troubled.append(",".join(valid[:j] + [value] + valid[j + 1:]))
        for line in troubled:
            for at in range(7):
                rows = [",".join(valid)] * 7
                rows[at] = line
                text = "\n".join([_HEADER, *rows]) + "\n"
                assert (_outcome(load_dataset, text, schema)
                        == _outcome(reference_load, text, schema)), (line, at)

    def test_block_with_missing_and_blank_rows_is_read_whole(self):
        """The block reader drops and counts rows with missing cells and
        skips blank rows of any width, as the reference does."""
        schema = dict(SCHEMA, covariates=["x1", "x2"])
        valid = ["s1", "1", "3", "1.0", "0.25", "-1.5", "n"]
        rows = [",".join(valid)] * 9
        for at, (j, token) in enumerate([(0, " NA "), (1, "nan"), (2, ""), (4, "None"),
                                         (5, " nUlL ")]):
            rows[2 * at] = ",".join(valid[:j] + [token] + valid[j + 1:])
        rows[3] = _BLANK_LINES[1]
        rows[5] = ""
        rows[7] = _BLANK_LINES[0]
        text = "\n".join([_HEADER, *rows]) + "\n"
        assert _outcome(load_dataset, text, schema) == _outcome(reference_load, text, schema)
        assert load_dataset(io.StringIO(text), schema).n_missing_excluded == 5

    def test_first_broken_rule_in_file_order_is_the_error(self):
        """Trouble from row 3 on, in one block: the first troubled row is
        the error, a row of the wrong width included; in a row, the first
        column in role order (arm, count, time, x1, x2), which is not the
        header's order; in a cell, the first rule its role breaks."""
        schema = dict(SCHEMA, covariates=["x1", "x2"])
        valid = "0.25,1.0,s1,3,1,-1.5,n"
        cases = [
            (["0.25,1.0,s1,3,2,-1.5,n", "0.25,1.0"], "'arm': arm must be 0 or 1: '2'"),
            (["0.25,1.0", "0.25,1.0,s1,3,2,-1.5,n"], "'<row>': expected 7 cells, got 2"),
            (["0.25,1.0,s1,3,1,inf,n", "0.25,1.0,s1,3,2,-1.5,n"], "'x1': not finite: 'inf'"),
            (["abc,0,s1,3,1,-1.5,n"], "'t': time must be positive: '0'"),
            (["inf,1.0,s1,3,1,x,n"], "'x1': not a number: 'x'"),
            (["0.25,1.0,s1,-1.5,1,-1.5,n"], "'y': not an integer count: '-1.5'"),
        ]
        for lines, message in cases:
            text = "\n".join(["x2,t,id,y,arm,x1,note", valid, " , ", *lines, valid]) + "\n"
            expected = (RowParseError, f"row 3, column {message}")
            assert _outcome(load_dataset, text, schema) == expected, lines
            assert _outcome(reference_load, text, schema) == expected, lines

    def test_bad_row_before_an_unreadable_row_is_the_error(self):
        """A stray quote on row 10 runs the field past the csv module's
        size limit; the bad arm on row 2 of the same block is still the
        error raised, and without it the csv error is."""
        rows = ["a,0,2,1.0,0.5", "b,2,0,0.5,-1.0"] + ["c,0,1,1.2,1.5"] * 7
        rows.append('j,0,1,1.0,"' + "9" * (csv.field_size_limit() + 1))
        text = "\n".join(["id,arm,y,t,x1", *rows]) + "\n"
        for load in (load_dataset, reference_load):
            with pytest.raises(RowParseError, match=r"row 2, column 'arm'"):
                load(io.StringIO(text), SCHEMA)
        text = text.replace("b,2,", "b,1,")
        for load in (load_dataset, reference_load):
            with pytest.raises(csv.Error, match="field larger than field limit"):
                load(io.StringIO(text), SCHEMA)

    @settings(max_examples=300, deadline=None)
    @given(text=trial_csvs(), with_id=st.booleans())
    def test_block_reader_matches_per_row_reference(self, text, with_id):
        """Blocks of 3 rows put trouble in later blocks and on block
        boundaries; the loader gives the reference's dataset (ids and
        exclusions included, bit for bit) or its error."""
        schema = dict(SCHEMA, covariates=["x1", "x2"])
        if not with_id:
            del schema["id"]
        expected = _outcome(reference_load, text, schema)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trial_data, "_BLOCK_ROWS", 3)
            assert _outcome(load_dataset, text, schema) == expected


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

    def test_columns_far_from_unit_size_are_rescaled_exactly(self):
        """Squares of covariates of size 2**-700 underflow and of 2**700
        overflow; an exact power-of-two rescale gives the spreads of the
        unscaled columns."""
        rng = np.random.default_rng(6)
        x, a, powers = rng.normal(0, 1, (40, 3)), np.repeat([0, 1], 20), [-700, 700, 0]
        plain = make_dataset(a, np.zeros(40, dtype=int), np.ones(40), x)
        far = make_dataset(a, np.zeros(40, dtype=int), np.ones(40), np.ldexp(x, powers))
        (s0, p0), (s1, p1) = standardize(plain), standardize(far)
        np.testing.assert_array_equal(s1.covariates, s0.covariates)
        np.testing.assert_array_equal(p1.means, np.ldexp(p0.means, powers))
        np.testing.assert_array_equal(p1.sds, np.ldexp(p0.sds, powers))
        np.testing.assert_array_equal(balance_check(far).smd, balance_check(plain).smd)

    @pytest.mark.parametrize("power", [-1060, -600, -503, -502, -501, -300, 0, 300, 497, 498,
                                       499, 600])
    def test_rescale_exponents_follow_the_largest_magnitude(self, power):
        """The sum-of-squares shortcut gives the exponents of the max-abs rule."""
        x = np.ldexp(np.random.default_rng(7).normal(0, 1, (50, 3)), power)
        amax = np.abs(x).max(axis=0)
        far = (amax > 0) & ((amax <= 2.0**-500) | (amax >= 2.0**500))
        expected = np.where(far, -np.frexp(amax)[1], 0)
        np.testing.assert_array_equal(trial_data._unit_columns(x)[1], expected)


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
