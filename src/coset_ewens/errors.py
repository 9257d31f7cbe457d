"""Shared exception types, the one check of a real parameter and the one
of an integer parameter, which is also the one check of an integer cap."""
import math
import operator


class ResourceLimitError(Exception):
    """Raised when a request exceeds a documented brute-force or memory cap."""


class NumericRangeError(ArithmeticError):
    """Raised when a result would overflow float64."""


def _finite(x, name: str) -> float:
    """float(x); text (which float() would parse), a value float() refuses
    (None, a list), nan, +-inf, or an int or Fraction past float64 is a
    ValueError naming the parameter, whose message never prints x.

    >>> _finite(3, "beta"), _finite(10**5000, "c")
    Traceback (most recent call last):
    ValueError: c must be finite, got a number past float64
    """
    try:
        if isinstance(x, (str, bytes, bytearray)):
            raise TypeError
        f = float(x)
    except TypeError:
        raise ValueError(f"{name} must be a real number, got {type(x).__name__}") from None
    except OverflowError:
        raise ValueError(f"{name} must be finite, got a number past float64") from None
    if not math.isfinite(f):
        raise ValueError(f"{name} must be finite, got {f}")
    return f


def _integer(x, name: str, least: float = -math.inf, most: float = math.inf,
             what: str = "") -> int:
    """int(operator.index(x)); a value it refuses (2.0, "3", None), or one below
    ``least``, is a ValueError that names the parameter and never prints x.  One
    above ``most`` is the resource cap "``what`` limited to ``name`` <= ``most``"."""
    try:
        n = int(operator.index(x))
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {type(x).__name__}") from None
    if n < least:
        raise ValueError(f"{name} must be >= {least}" if least else f"{name} must be nonnegative")
    if n > most:
        raise ResourceLimitError(f"{what} limited to {name} <= {most}")
    return n
