"""Shared exception types for the package."""


class PssKitError(Exception):
    """Base class for every error raised by this package."""


class VectorInputError(PssKitError, ValueError):
    """Invalid vector data.  ``index`` names the offending vector when known."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ZeroVectorError(VectorInputError):
    pass


class DuplicateVectorError(VectorInputError):
    pass


class DimensionMismatchError(VectorInputError):
    pass


class PreconditionError(PssKitError, ValueError):
    """An operation was called on input outside its contract."""


class PropertyViolation(PssKitError, RuntimeError):
    """A certified internal invariant failed to re-check.

    The one exception of every failed re-check, from an LP certificate in
    ``ratlin`` up to a suite bound: a result the library guarantees by
    construction turned out false on verification, which means a bug, not
    bad input.  ``verify`` fails the check that raised it; any other
    command exits 3.
    """
