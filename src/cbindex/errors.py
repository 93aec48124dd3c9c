"""Exception hierarchy shared across the package.

Errors are split into data-shape problems (schema, parsing, degenerate
columns), numerical problems (non-convergence, ill-conditioning), and
estimator-level problems (orientation, undefined estimands).  The CLI maps
these groups onto distinct exit codes.
"""


class CbIndexError(Exception):
    """Base class for all errors raised by this package."""


class DataError(CbIndexError):
    """Base class for dataset construction and ingestion errors."""


class SchemaError(DataError):
    """A required column is missing or the column mapping is invalid."""


class RowParseError(DataError):
    """A cell value violates its column contract.

    Carries the 1-based data row (header excluded) and column name so the
    offending cell can be located in the source file.
    """

    def __init__(self, row: int, column: str, message: str):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column '{column}': {message}")


class DegenerateCovariateError(DataError):
    """A covariate column has zero sample variance and cannot be scaled."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"covariate '{column}' has zero sample variance")


class EstimationError(CbIndexError):
    """Base class for model fitting and estimator failures."""


class ConvergenceError(EstimationError):
    """An iterative fit did not converge and its output cannot be used."""


class NumericalError(EstimationError):
    """A linear system was ill-conditioned or produced non-finite values."""


class DispersionError(EstimationError):
    """The dispersion parameter is undefined for the given response."""


class FoldingError(EstimationError):
    """Cross-validation folds could not be built with both arms present."""


class InsufficientDataError(EstimationError):
    """An estimator needs more subjects than the dataset provides."""


class OrientationError(EstimationError):
    """Mean estimated benefit is negative; treatment labels look flipped.

    The concentration index assumes labels are oriented so the average
    benefit is positive.  Swap the arm coding and re-run.  Carries the
    negative ``mean_benefit``.
    """

    def __init__(self, mean_benefit: float):
        self.mean_benefit = mean_benefit
        super().__init__(f"mean benefit {mean_benefit:.6g} is negative; flip the treatment labels")


class EstimatorUndefinedError(EstimationError):
    """The estimator is undefined on this dataset (e.g. a missing arm)."""


class DegenerateEstimateError(EstimationError):
    """An estimand denominator is non-positive; no index value exists."""


class ConfigError(CbIndexError):
    """Invalid or incomplete run configuration."""
