"""Ingestion and preparation of two-arm trial count data.

A dataset is a flat table of subjects: treatment arm (0/1), an event
count, a positive follow-up time in years, and a fixed-length covariate
vector.  This module loads such tables from CSV, scales covariates to
zero mean and unit variance, and checks randomization balance between
arms.  All operations are pure: they never mutate their inputs.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DataError,
    DegenerateCovariateError,
    RowParseError,
    SchemaError,
)

__all__ = [
    "TrialDataset",
    "ScalingParams",
    "BalanceResult",
    "load_dataset",
    "standardize",
    "balance_check",
]

# Cell values treated as missing rather than malformed.  Rows containing
# any of these are dropped (complete-case analysis) and counted.
_MISSING_TOKENS = {"", "na", "nan", "null", "none"}


@dataclass(eq=False)
class TrialDataset:
    """Immutable column-oriented view of a two-arm trial.

    Parameters
    ----------
    treatment : (n,) int array of 0/1 arm labels.
    events : (n,) non-negative int array of event counts.
    time : (n,) positive float array of follow-up times in years.
    covariates : (n, m) float array, all entries finite.
    covariate_names : m column labels.
    ids : optional subject labels; defaults to 1-based row numbers.
    n_missing_excluded : rows dropped during loading for missing cells.

    Notes
    -----
    Datasets with a single arm are constructible: arm-dependent
    operations raise their own errors so callers can distinguish
    "unusable file" from "estimator undefined on this data".
    """

    treatment: np.ndarray
    events: np.ndarray
    time: np.ndarray
    covariates: np.ndarray
    covariate_names: list[str]
    ids: list[str] = field(default_factory=list)
    n_missing_excluded: int = 0

    def __post_init__(self):
        self.treatment = np.asarray(self.treatment, dtype=np.int64)
        self.events = np.asarray(self.events, dtype=np.int64)
        self.time = np.asarray(self.time, dtype=np.float64)
        self.covariates = np.atleast_2d(np.asarray(self.covariates, dtype=np.float64))
        self.covariate_names = list(self.covariate_names)
        n = self.treatment.shape[0]
        if self.events.shape != (n,) or self.time.shape != (n,):
            raise ValueError("treatment, events, and time must share length")
        if self.covariates.shape[0] != n:
            raise ValueError("covariate rows must match the number of subjects")
        if self.covariates.shape[1] != len(self.covariate_names):
            raise ValueError("covariate_names must match covariate columns")
        if not np.all((self.treatment == 0) | (self.treatment == 1)):
            raise ValueError("treatment labels must be 0 or 1")
        if np.any(self.events < 0):
            raise ValueError("event counts must be non-negative")
        if not np.all(self.time > 0):
            raise ValueError("follow-up times must be positive")
        if not np.all(np.isfinite(self.covariates)):
            raise ValueError("covariates must be finite")
        if not self.ids:
            self.ids = [str(i + 1) for i in range(n)]
        elif len(self.ids) != n:
            raise ValueError("ids must match the number of subjects")

    @property
    def n(self) -> int:
        return self.treatment.shape[0]

    @property
    def m(self) -> int:
        return self.covariates.shape[1]

    @property
    def has_both_arms(self) -> bool:
        return bool(np.any(self.treatment == 0) and np.any(self.treatment == 1))

    def subset(self, indices: Sequence[int] | np.ndarray) -> "TrialDataset":
        """Row-subset (or resample, when indices repeat) of the dataset."""
        idx = np.asarray(indices, dtype=np.intp)
        ids = self.ids
        return TrialDataset(
            treatment=self.treatment[idx],
            events=self.events[idx],
            time=self.time[idx],
            covariates=self.covariates[idx],
            covariate_names=self.covariate_names,
            ids=[ids[i] for i in idx.tolist()],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialDataset):
            return NotImplemented
        return (
            np.array_equal(self.treatment, other.treatment)
            and np.array_equal(self.events, other.events)
            and np.array_equal(self.time, other.time)
            and np.array_equal(self.covariates, other.covariates)
            and self.covariate_names == other.covariate_names
            and self.ids == other.ids
        )


@dataclass(frozen=True)
class ScalingParams:
    """Per-covariate location/scale recorded at standardization time.

    Stored so subjects from a *new* sample can be mapped into the space
    the model was trained in.  ``sds`` uses the n-1 divisor.
    """

    means: np.ndarray
    sds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=np.float64))
        object.__setattr__(self, "sds", np.asarray(self.sds, dtype=np.float64))
        if self.means.shape != self.sds.shape or self.means.ndim != 1:
            raise ValueError("means and sds must be 1-d arrays of equal length")
        if not np.all(self.sds > 0):
            raise ValueError("all scale parameters must be positive")

    @classmethod
    def identity(cls, m: int) -> "ScalingParams":
        return cls(means=np.zeros(m), sds=np.ones(m))

    def transform(self, covariates: np.ndarray) -> np.ndarray:
        x = np.asarray(covariates, dtype=np.float64)
        return (x - self.means) / self.sds


# Rows that load_dataset reads and checks at once.  Only one block's
# cell strings are alive at a time.
_BLOCK_ROWS = 4096


# Each role's rules, in the order a row is judged, after "not a number":
# the message of a cell that breaks the rule, and the test of the values
# that keep it.
_FINITE = ("not finite", np.isfinite)
_RULES = {
    "treatment": [_FINITE, ("arm must be 0 or 1", lambda v: (v == 0) | (v == 1))],
    "events": [
        _FINITE,
        ("not an integer count", lambda v: v == np.floor(v)),
        ("negative count", lambda v: v >= 0),
        ("count not below 2**63", lambda v: v < 2.0**63),
    ],
    "time": [_FINITE, ("time must be positive", lambda v: v > 0)],
    "covariates": [_FINITE],
}


@dataclass(frozen=True)
class _Layout:
    """Where each role's cell sits in a data row of ``width`` cells."""

    width: int
    positions: dict[str, int]  # mapped column name -> cell index
    roles: list[tuple[str, list]]  # (column, its role's rules), in role order
    id: str | None


@dataclass(frozen=True)
class _Block:
    """The kept rows of one block, in the dtypes TrialDataset holds."""

    treatment: np.ndarray
    events: np.ndarray
    time: np.ndarray
    covariates: np.ndarray
    ids: list[str]
    n_missing: int


def _float_or_nan(cell: str) -> float:
    """``float(cell)``, or NaN for a cell that is not a number."""
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _numbers(column: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The column's cells through ``float``, NaN for a cell that is not a
    number, with a mask of its missing cells and one of its cells that
    are not numbers."""
    try:
        values = np.fromiter(map(float, column), np.float64, len(column))
    except ValueError:  # text, or a missing token other than nan
        values = np.fromiter(map(_float_or_nan, column), np.float64, len(column))
    missing = np.zeros(len(column), dtype=bool)
    text = np.zeros(len(column), dtype=bool)
    for i in np.flatnonzero(np.isnan(values)):
        cell = column[i].strip().lower()
        missing[i] = cell in _MISSING_TOKENS
        # Besides the missing token nan, float reads only +nan and -nan as NaN.
        text[i] = not missing[i] and cell not in ("+nan", "-nan")
    return values, missing, text


def _convert_block(rows: list[list[str]], first_row: int, layout: _Layout) -> _Block:
    """The rows of one block, numbered from ``first_row``, converted a
    column at a time.

    Blank rows of any width are skipped, and a row with a missing token
    in a mapped cell is dropped and counted.  Each rule of ``_RULES``
    judges its role's cells of the other rows once, and the first broken
    (row, role, rule) in file order is the RowParseError raised.  A row
    of the wrong width ends the block; it is the error when no row
    before it breaks a rule.
    """
    numbers = range(first_row, first_row + len(rows))
    width_error = None
    if set(map(len, rows)) != {layout.width}:
        kept = [(n, row) for n, row in zip(numbers, rows) if any(map(str.strip, row))]
        end = next((j for j, (_, row) in enumerate(kept) if len(row) != layout.width), len(kept))
        if end < len(kept):
            n, row = kept[end]
            width_error = RowParseError(n, "<row>", f"expected {layout.width} cells, got {len(row)}")
        numbers, rows = [n for n, _ in kept[:end]], [row for _, row in kept[:end]]
    cells = list(zip(*rows)) or [()] * layout.width
    columns = [_numbers(cells[layout.positions[name]]) for name, _ in layout.roles]
    missing = np.logical_or.reduce([mask for _, mask, _ in columns])
    ids = [] if layout.id is None else list(map(str.strip, cells[layout.positions[layout.id]]))
    if not _MISSING_TOKENS.isdisjoint(map(str.lower, ids)):
        missing |= [c.lower() in _MISSING_TOKENS for c in ids]
    broken = []  # (column, message, the cells that break the rule), in judging order
    for (name, rules), (values, _, text) in zip(layout.roles, columns):
        broken.append((name, "not a number", text))
        broken += [(name, message, ~keeps(values)) for message, keeps in rules]
    bad = np.array([mask for *_, mask in broken]) & ~missing
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        name, message, _ = broken[int(np.argmax(bad[:, i]))]
        cell = cells[layout.positions[name]][i].strip()
        raise RowParseError(numbers[i], name, f"{message}: {cell!r}")
    if width_error is not None:
        raise width_error
    (arm, *_), (count, *_), (time, *_), *x_columns = columns
    x = np.column_stack([values for values, *_ in x_columns])
    n_missing = 0
    if missing.any():
        keep = ~missing
        arm, count, time, x = arm[keep], count[keep], time[keep], x[keep]
        ids = list(itertools.compress(ids, keep))
        n_missing = sum(any(map(str.strip, rows[i])) for i in np.flatnonzero(missing))
    return _Block(arm.astype(np.int64), count.astype(np.int64), time, x, ids, n_missing)


def _read_block(
    reader: Iterable[list[str]], first_row: int, layout: _Layout
) -> list[list[str]]:
    """The next rows of ``reader``, up to ``_BLOCK_ROWS``.  When the reader
    fails on a row, the rows read before it are converted first, so that
    a bad row earlier in the file is the error raised."""
    rows: list[list[str]] = []
    try:
        for row in itertools.islice(reader, _BLOCK_ROWS):
            rows.append(row)
    except csv.Error:
        _convert_block(rows, first_row, layout)
        raise
    return rows


def load_dataset(
    source: str | IO[str], schema: Mapping[str, object]
) -> TrialDataset:
    """Read a trial dataset from CSV.

    Parameters
    ----------
    source : path or open text stream.  UTF-8 (a path's leading
        byte-order mark is skipped), header row, comma separated, ``.``
        decimal separator.
    schema : column-role mapping with keys ``treatment``, ``events``,
        ``time``, ``covariates`` (list of one or more column names) and
        optionally ``id``.

    Returns
    -------
    TrialDataset with the file's row order preserved.

    Notes
    -----
    Rows are read in blocks of ``_BLOCK_ROWS`` and converted a column at
    a time.  Each cell is judged once by its role's rules, and a block
    raises the error of its first bad row, a row of the wrong cell count
    included.  Blocks are read in file order, so an error names the
    first bad row of the file.

    Raises
    ------
    SchemaError
        If a mapped column is absent from the header or named in it more
        than once, the mapping is incomplete, or ``covariates`` is not a
        list of column names.
    RowParseError
        On rows of the wrong cell count and on malformed cells: values
        that are not numbers or not finite, negative or non-integer counts,
        counts of 2**63 or more, non-positive times, arm labels other
        than 0/1.  Rows with *missing* cells (empty, NA, NaN,
        null, none) are not errors; they are dropped and counted on
        ``n_missing_excluded``.
    """
    for key in _RULES:
        if key not in schema:
            raise SchemaError(f"schema is missing the '{key}' role")
    cov_cols = schema["covariates"]
    if not (isinstance(cov_cols, (list, tuple)) and all(isinstance(c, str) for c in cov_cols)):
        raise SchemaError(f"schema 'covariates' must be a list of column names, got {cov_cols!r}")
    if not cov_cols:
        raise SchemaError("schema must name at least one covariate column")

    if isinstance(source, (str, bytes)):
        try:
            stream: IO[str] = open(source, "r", encoding="utf-8-sig", newline="")
        except OSError as exc:
            raise DataError(f"cannot read input: {exc}") from exc
        close = True
    else:
        stream = source
        close = False
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty input: no header row") from None
        header = [h.strip() for h in header]
        positions: dict[str, int] = {}
        roles = [(str(schema[key]), _RULES[key]) for key in ("treatment", "events", "time")]
        roles += [(c, _RULES["covariates"]) for c in cov_cols]
        id_col = None if schema.get("id") is None else str(schema["id"])
        wanted = [name for name, _ in roles] + ([] if id_col is None else [id_col])
        for name in wanted:
            if name not in header:
                raise SchemaError(f"column '{name}' not found in header {header}")
            if header.count(name) > 1:
                raise SchemaError(f"column '{name}' appears more than once in header {header}")
            positions[name] = header.index(name)
        layout = _Layout(len(header), positions, roles, id_col)

        blocks: list[_Block] = []
        first_row = 1
        while rows := _read_block(reader, first_row, layout):
            blocks.append(_convert_block(rows, first_row, layout))
            first_row += len(rows)
    finally:
        if close:
            stream.close()

    if not any(b.time.size for b in blocks):
        raise SchemaError("no usable data rows after exclusions")
    return TrialDataset(
        treatment=np.concatenate([b.treatment for b in blocks]),
        events=np.concatenate([b.events for b in blocks]),
        time=np.concatenate([b.time for b in blocks]),
        covariates=np.concatenate([b.covariates for b in blocks]),
        covariate_names=list(cov_cols),
        ids=[i for b in blocks for i in b.ids],
        n_missing_excluded=sum(b.n_missing for b in blocks),
    )


def _unit_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` with column j times 2**k[j], and k: k[j] brings a column whose
    largest magnitude lies outside (2**-500, 2**500), where its squares or
    sums would underflow or overflow, near unit size, and is 0 otherwise.
    A power-of-two rescale is exact.  ``x`` itself when every k[j] is 0."""
    with np.errstate(over="ignore"):
        squares = np.einsum("ij,ij->j", x, x)
    # A sum of squares in (n * 2**-1000, 2**1000) puts the largest magnitude
    # inside (2**-500, 2**500), at a fraction of the cost of the passes below.
    if np.all((squares > x.shape[0] * 2.0**-1000) & (squares < 2.0**1000)):
        return x, np.zeros(x.shape[1], dtype=np.intp)
    amax = np.maximum(x.max(axis=0, initial=0.0), -x.min(axis=0, initial=0.0))
    k = np.where((amax > 0) & ((amax <= 2.0**-500) | (amax >= 2.0**500)), -np.frexp(amax)[1], 0)
    return (np.ldexp(x, k) if k.any() else x), k


def standardize(d: TrialDataset) -> tuple[TrialDataset, ScalingParams]:
    """Scale every covariate column to sample mean 0 and sample SD 1.

    The treatment, events, and time columns are never read or changed.
    Uses the n-1 divisor.  Binary covariates are scaled like continuous
    ones.

    Raises
    ------
    DegenerateCovariateError
        If any covariate column is constant.
    """
    x, k = _unit_columns(d.covariates)
    means = x.mean(axis=0)
    sds = x.std(axis=0, ddof=1) if d.n > 1 else np.zeros(d.m)
    for j, sd in enumerate(sds):
        if sd == 0 or not np.isfinite(sd):
            raise DegenerateCovariateError(d.covariate_names[j])
    scaled = (x - means) / sds
    params = ScalingParams(means=np.ldexp(means, -k), sds=np.ldexp(sds, -k))
    return replace(d, covariates=scaled), params


@dataclass(frozen=True)
class BalanceResult:
    """Standardized mean differences between arms, one per covariate.

    ``smd[j]`` is NaN where the difference is undefined (zero spread).
    ``flagged`` lists covariate names whose SMD exceeds the threshold,
    including infinite SMDs (arms constant at different values).
    """

    covariate_names: list[str]
    smd: np.ndarray
    threshold: float
    flagged: list[str]

    def as_dict(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.covariate_names, self.smd)}


def balance_check(d: TrialDataset, threshold: float = 0.05) -> BalanceResult:
    """Compare covariate means between arms on a scale-free footing.

    For covariate ``j`` the statistic is ``|mean1 - mean0| / s`` with
    ``s = sqrt((sd0^2 + sd1^2) / 2)``.  When both within-arm SDs are
    zero but the column still varies overall (each arm constant at a
    different value), the combined-sample SD is used instead so the
    imbalance is still quantified; a column constant everywhere has no
    defined difference and reports NaN.
    """
    if not d.has_both_arms:
        raise ValueError("balance check needs both arms present")
    mask0 = d.treatment == 0
    mask1 = ~mask0
    x, _ = _unit_columns(d.covariates)
    x0, x1 = x[mask0], x[mask1]
    smd = np.full(d.m, np.nan)
    for j in range(d.m):
        diff = abs(x1[:, j].mean() - x0[:, j].mean())
        s0 = x0[:, j].std(ddof=1) if mask0.sum() > 1 else 0.0
        s1 = x1[:, j].std(ddof=1) if mask1.sum() > 1 else 0.0
        pooled = math.sqrt((s0**2 + s1**2) / 2)
        if pooled == 0:
            pooled = x[:, j].std(ddof=1)
        if pooled > 0:
            smd[j] = diff / pooled
    flagged = [
        name
        for name, v in zip(d.covariate_names, smd)
        if np.isfinite(v) and v > threshold
    ]
    return BalanceResult(
        covariate_names=list(d.covariate_names),
        smd=smd,
        threshold=threshold,
        flagged=flagged,
    )


def make_dataset(
    treatment: Iterable[int],
    events: Iterable[int],
    time: Iterable[float],
    covariates: np.ndarray,
    covariate_names: Sequence[str] | None = None,
    ids: Sequence[str] | None = None,
) -> TrialDataset:
    """Build a dataset from plain arrays, naming covariates x1..xm."""
    covariates = np.atleast_2d(np.asarray(covariates, dtype=np.float64))
    if covariate_names is None:
        covariate_names = [f"x{j + 1}" for j in range(covariates.shape[1])]
    return TrialDataset(
        treatment=np.asarray(list(treatment)),
        events=np.asarray(list(events)),
        time=np.asarray(list(time)),
        covariates=covariates,
        covariate_names=list(covariate_names),
        ids=list(ids) if ids is not None else [],
    )
