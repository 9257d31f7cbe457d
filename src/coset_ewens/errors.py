"""Shared exception types."""


class ResourceLimitError(Exception):
    """Raised when a request exceeds a documented brute-force or memory cap."""


class NumericRangeError(ArithmeticError):
    """Raised when a result would overflow float64."""
