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


def attempt(compute):
    """``compute()``, or the package error it raises: how a batched stage
    records one item's refusal without stopping its neighbours."""
    try:
        return compute()
    except PwrdError as exc:
        return exc


def one(results):
    """The single result of a batched stage run on one item, raising it if
    it is a package error."""
    (result,) = results
    if isinstance(result, PwrdError):
        raise result
    return result
