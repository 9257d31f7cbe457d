"""Shared exception types, and the one check of a real parameter."""
import math


class ResourceLimitError(Exception):
    """Raised when a request exceeds a documented brute-force or memory cap."""


class NumericRangeError(ArithmeticError):
    """Raised when a result would overflow float64."""


def _finite(x, name: str) -> float:
    """float(x); nan, +-inf, or an int or Fraction past float64 is a
    ValueError naming the parameter, whose message never prints x.

    >>> _finite(3, "beta"), _finite(10**5000, "c")
    Traceback (most recent call last):
    ValueError: c must be finite, got a number past float64
    """
    try:
        f = float(x)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got a number past float64") from None
    if not math.isfinite(f):
        raise ValueError(f"{name} must be finite, got {f}")
    return f
