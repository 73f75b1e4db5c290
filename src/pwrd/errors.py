"""Exception types shared across the package.

Each class carries the process exit code the command line layer maps it to.
"""


class PwrdError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(PwrdError, ValueError):
    """Malformed input data, schema, or configuration.

    Also a ``ValueError``, so callers that catch bare validation errors
    keep working.
    """

    exit_code = 2


class DegenerateDataError(PwrdError):
    """Data too thin or too degenerate to estimate the requested quantity."""

    exit_code = 3


class NumericalError(PwrdError):
    """Numerical failure, typically a singular or indefinite matrix."""

    exit_code = 4
