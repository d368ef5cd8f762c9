"""Exception types shared across the package, and the size check that raises one."""

import numbers


class CylccError(Exception):
    """Base class for all package errors."""


class DomainError(CylccError, ValueError):
    """A parameter lies outside the operator's admissible range."""


class ValidationError(CylccError, ValueError):
    """An input record or object violates a structural invariant."""


class IllConditionedInputError(CylccError, ValueError):
    """Numeric input too degenerate to process (origin hit, angular jump)."""


class NumericError(CylccError, RuntimeError):
    """A numerical routine failed to converge; carries a residual report."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class DegeneracyError(CylccError, ValueError):
    """A root or intersection fails the transversality check.

    ``where`` names the offending parameter value.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class DatasetError(CylccError, ValueError):
    """Dataset validation failed; ``diagnostics`` lists every violation."""

    def __init__(self, diagnostics):
        lines = "; ".join(str(d) for d in diagnostics)
        super().__init__(f"dataset validation failed: {lines}")
        self.diagnostics = list(diagnostics)


class IntegerCoefficientWarning(UserWarning):
    """A differential/chain-map coefficient is not an integer."""


def check_size(name: str, value, least: int) -> None:
    """Raise DomainError unless ``value`` is an integer >= ``least``.

    A bool is not taken as a size, although Python counts it as an integer.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
