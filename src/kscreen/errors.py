"""Exception hierarchy and warning categories used across the toolkit.

Each error family carries the process exit code the CLI maps it to.
"""


class KScreenError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ArgumentError(KScreenError):
    """Invalid argument, shape mismatch, or bad configuration."""

    exit_code = 2


class UnsupportedMethodError(ArgumentError):
    """The requested method is unknown or cannot be applied to data of this shape."""


class DataError(KScreenError):
    """Malformed, missing, or non-numeric input data."""

    exit_code = 3


class DegenerateDataError(DataError):
    """Data admits no meaningful statistic (zero spread, constant response)."""


class NumericError(KScreenError):
    """Numerical linear-algebra failure."""

    exit_code = 4


class TuningError(KScreenError):
    """Ridge-parameter selection could not produce a usable value."""

    exit_code = 5


class DegenerateDataWarning(UserWarning):
    """A degenerate feature forced a documented fallback (e.g. unit bandwidth)."""


class NumericGuardWarning(UserWarning):
    """A numerical guard dropped terms from an aggregate (e.g. GCV summands)."""
