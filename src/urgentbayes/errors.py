"""Exception types shared across the package.

Each class corresponds to one failure category and declares the CLI's
exit code for it in `exit_code`: 1 usage or configuration (the default),
2 data, format or checkpoint, 3 numerical divergence. The CLI reports any
of them as one `error:` line and exits with that code.
"""


class UrgentBayesError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class DomainError(UrgentBayesError, ValueError):
    """A value lies outside the documented domain of an operation."""

    exit_code = 2


class ConfigurationError(UrgentBayesError, ValueError):
    """Invalid configuration value or unknown configuration key."""


class UsageError(UrgentBayesError, ValueError):
    """An operation was called in a way its contract forbids."""


class ShapeError(UrgentBayesError, ValueError):
    """Array shapes are inconsistent with the operation."""

    exit_code = 2


class NonFiniteError(UrgentBayesError, ValueError):
    """NaN or Inf encountered at an operation boundary."""

    exit_code = 3


class ParseError(UrgentBayesError, ValueError):
    """A malformed line or record in an input file; carries the location."""

    exit_code = 2

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(UrgentBayesError, ValueError):
    """An input file does not match its declared format."""

    exit_code = 2


class DataError(UrgentBayesError, ValueError):
    """Invalid dataset content (bad labels, empty text, missing columns)."""

    exit_code = 2


class StratificationError(UrgentBayesError, ValueError):
    """A stratified split cannot be formed from the given examples."""

    exit_code = 2


class DivergenceError(UrgentBayesError, ArithmeticError):
    """Training produced a non-finite loss."""

    exit_code = 3


class CheckpointError(UrgentBayesError, ValueError):
    """A checkpoint file is truncated, of the wrong version, or inconsistent."""

    exit_code = 2


class InsufficientDataError(UrgentBayesError, ValueError):
    """Too few usable observations for a statistical test."""

    exit_code = 2
