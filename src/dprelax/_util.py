"""Argument validation helpers used by every module.

Each input rule lives here once; public functions apply it once per call.
"""

import math

import numpy as np

from .errors import BudgetDecreaseError, ParameterError

# Exponentials are evaluated at most at (twice) this value. Beyond it the
# retain probability is 1.0 in double precision anyway, so larger inputs are
# accepted but capped before exponentiation.
EPSILON_CAP = 50.0


def cap_epsilon(eps: float) -> float:
    """The exponent-safe stand-in for a privacy parameter; see `EPSILON_CAP`."""
    return min(eps, EPSILON_CAP)


def as_float(x, name: str) -> float:
    """``float(x)`` of a real number, with one beyond double range (a large
    Python int) read as ±inf; a string, or anything ``float`` refuses, raises
    `ParameterError` naming the argument."""
    if type(x) is float:  # the common case, kept cheap
        return x
    if not isinstance(x, (str, bytes, bytearray)):
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf
        except (TypeError, ValueError):
            pass
    raise ParameterError(f"{name} must be a real number, got {x!r}")


def check_epsilon(eps: float, name: str = "epsilon") -> float:
    eps = as_float(eps, name)
    if not math.isfinite(eps) or eps <= 0.0:
        raise ParameterError(f"{name} must be positive and finite, got {eps}")
    return eps


def check_next_epsilon(last: float, eps, name: str, schedule: str) -> float:
    """``eps`` as a float that may follow ``last``, a checked entry of the
    schedule named ``schedule`` (0.0 before its first): positive and finite,
    else `ParameterError` naming ``name``, and not below ``last``, else
    `BudgetDecreaseError`."""
    eps = as_float(eps, name)
    if not 0.0 < eps < math.inf:  # NaN fails both comparisons
        raise ParameterError(f"{name} must be positive and finite, got {eps}")
    if eps < last:
        raise BudgetDecreaseError(f"{schedule} must be non-decreasing: {eps} follows {last}")
    return eps


def check_schedule(schedule, name: str = "schedule") -> tuple:
    """A relaxation schedule as a tuple of floats: non-empty, each entry
    positive and finite, non-decreasing (else `BudgetDecreaseError`)."""
    checked = []
    last = 0.0
    for i, eps in enumerate(schedule):
        last = check_next_epsilon(last, eps, f"{name}[{i}]", name)
        checked.append(last)
    if not checked:
        raise ParameterError(f"{name} must be non-empty")
    return tuple(checked)


def _check_integer(x, name: str) -> int:
    if not isinstance(x, (int, np.integer)) and not as_float(x, name).is_integer():
        raise ParameterError(f"{name} must be an integer, got {x}")
    return int(x)


def check_count(n: int, name: str = "n", minimum: int = 1) -> int:
    n = _check_integer(n, name)
    if n < minimum:
        raise ParameterError(f"{name} must be at least {minimum}, got {n}")
    return n


def check_domain_size(m: int, name: str = "m") -> int:
    return check_count(m, name, minimum=2)


def check_value(x: int, m: int, name: str = "value") -> int:
    x = _check_integer(x, name)
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
