"""Shared error types for the elstable package."""


class DegenerateSeriesError(ValueError):
    """Raised when an input series cannot be normalized (all zeros, NaN/inf)."""


class DomainError(ValueError):
    """Raised when a parameter value lies outside a score's domain."""


class NumericalError(RuntimeError):
    """Raised when a computed quantity violates a numerical sanity bound."""


class TruncationWarning(UserWarning):
    """Emitted when a truncated series expansion looks unconverged."""
