"""Argument validation helpers used by every module."""

import math

import numpy as np

from .errors import ParameterError

# Exponentials are evaluated at most at (twice) this value. Beyond it the
# retain probability is 1.0 in double precision anyway, so larger inputs are
# accepted but capped before exponentiation.
EPSILON_CAP = 50.0


def cap_epsilon(eps: float) -> float:
    """The exponent-safe stand-in for a privacy parameter; see `EPSILON_CAP`."""
    return min(eps, EPSILON_CAP)


def check_epsilon(eps: float, name: str = "epsilon") -> float:
    eps = float(eps)
    if not math.isfinite(eps) or eps <= 0.0:
        raise ParameterError(f"{name} must be positive and finite, got {eps}")
    return eps


def check_domain_size(m: int, name: str = "m") -> int:
    m = int(m)
    if m < 2:
        raise ParameterError(f"{name} must be at least 2, got {m}")
    return m


def check_value(x: int, m: int, name: str = "value") -> int:
    if not isinstance(x, (int, np.integer)) and not float(x).is_integer():
        raise ParameterError(f"{name} must be an integer, got {x}")
    x = int(x)
    if not 0 <= x < m:
        raise ParameterError(f"{name} must be in [0, {m}), got {x}")
    return x


def check_values(values, m: int, name: str = "values") -> np.ndarray:
    given = np.asarray(values)
    if given.dtype.kind in "biu":  # integer input: no integrality check to pay for
        values = given.astype(np.int64, copy=False)
    else:
        with np.errstate(invalid="ignore"):
            values = given.astype(np.int64)
        if not np.array_equal(values, given):
            raise ParameterError(f"{name} must all be integers")
    if values.size and (values.min() < 0 or values.max() >= m):
        raise ParameterError(f"{name} must all be in [0, {m})")
    return values


def check_count(n: int, name: str = "n", minimum: int = 1) -> int:
    n = int(n)
    if n < minimum:
        raise ParameterError(f"{name} must be at least {minimum}, got {n}")
    return n
