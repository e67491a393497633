"""Argument validation helpers used by every module.

Each input rule lives here once; public functions apply it once per call.
"""

import math
import reprlib

import numpy as np

from .errors import BudgetDecreaseError, ParameterError

# Exponentials are evaluated at most at (twice) this value. Beyond it the
# retain probability is 1.0 in double precision anyway, so larger inputs are
# accepted but capped before exponentiation.
EPSILON_CAP = 50.0
# The largest domain a step table may have.  A table holds m**3 doubles, 2 MiB
# at 64 values, and is made fresh for its caller.  Each domain size's entry
# pattern (`mechanism._entry_classes`) holds m**3 integers and is kept: 2 MiB
# at 64 values, and 33 MiB with every m up to 64 in use in one process.
MAX_DOMAIN = 64
# The longest schedule a count builds, and the most noisy samples per client.
MAX_ROUNDS = 100_000
# The most values of a run's largest array: objects * m for a trial's state,
# bits * K for noisy samples; 128 MiB of doubles.
MAX_OBJECT_VALUES = 2**24


def cap_epsilon(eps: float) -> float:
    """The exponent-safe stand-in for a privacy parameter; see `EPSILON_CAP`."""
    return min(eps, EPSILON_CAP)


def shown(x) -> str:
    """``repr(x)`` cut short by `reprlib`, so a refusal can print any value:
    a long string, int or list is elided in the middle or at its end, and a
    nesting deeper than six levels as ``[...]``.  An int too long for
    Python's digit limit is shown by its type alone."""
    try:
        return reprlib.repr(x)
    except ValueError:
        return f"<{type(x).__name__} too long to print>"


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, its write flag cleared."""
    array.setflags(write=False)
    return array


def as_float(x, name: str) -> float:
    """``float(x)`` of a real number, with one beyond double range (a large
    Python int) read as ±inf; a string, a boolean, or anything ``float``
    refuses, raises `ParameterError` naming the argument."""
    if type(x) is float:  # the common case, kept cheap
        return x
    if not isinstance(x, (str, bytes, bytearray, bool, np.bool_)):
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf
        except (TypeError, ValueError):
            pass
    raise ParameterError(f"{name} must be a real number, got {shown(x)}")


def as_sequence(x, name: str) -> tuple:
    """``tuple(x)``; anything that is not a sequence raises `ParameterError`
    naming the argument."""
    try:
        return tuple(x)
    except TypeError:
        raise ParameterError(f"{name} must be a sequence, got {shown(x)}") from None


def check_instance(x, cls: type, name: str) -> None:
    """Refuse, naming the argument, anything but a ``cls``: valid once built."""
    if not isinstance(x, cls):
        raise ParameterError(f"{name} must be a {cls.__name__}, got {type(x).__name__}")


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
    if type(eps) is float and 0.0 < eps < math.inf and eps >= last:  # the common case, kept cheap
        return eps
    eps = check_epsilon(eps, name)
    if eps < last:
        raise BudgetDecreaseError(f"{schedule} must be non-decreasing: {eps} follows {last}")
    return eps


def check_schedule(schedule, name: str = "schedule") -> tuple:
    """A relaxation schedule as a tuple of floats: a sequence, non-empty, each
    entry positive and finite, non-decreasing (else `BudgetDecreaseError`)."""
    checked = []
    last = 0.0
    for i, eps in enumerate(as_sequence(schedule, name)):
        last = check_next_epsilon(last, eps, f"{name}[{i}]", name)
        checked.append(last)
    if not checked:
        raise ParameterError(f"{name} must be non-empty")
    return tuple(checked)


def _check_integer(x, name: str) -> int:
    # a bool is no int here: `as_float` refuses it
    if type(x) is not int and not isinstance(x, np.integer) and not as_float(x, name).is_integer():
        raise ParameterError(f"{name} must be an integer, got {x}")
    return int(x)


# The largest count or domain size: every integer up to 2**53 is a double, so
# a count is exact in float arithmetic and a distribution's ``m - 1`` weights
# never overflow.
_LARGEST_COUNT = 2**53


def check_count(n: int, name: str = "n", minimum: int = 1) -> int:
    """``n`` as an integer from ``minimum`` to 2**53."""
    n = _check_integer(n, name)
    if n < minimum:
        raise ParameterError(f"{name} must be at least {minimum}, got {n}")
    if n > _LARGEST_COUNT:  # the value itself may be too long to print
        raise ParameterError(f"{name} must be at most 2**53")
    return n


def check_domain_size(m: int, name: str = "m", most: int = _LARGEST_COUNT) -> int:
    """``m`` as a domain size: from 2 to ``most``, itself at most 2**53."""
    m = check_count(m, name, minimum=2)
    if m > most:
        raise ParameterError(f"{name} must be at most {most}, got {m}")
    return m


def check_table_domain(m: int, name: str = "m") -> int:
    """``m`` as a domain size with a step table: from 2 to `MAX_DOMAIN`."""
    return check_domain_size(m, name, MAX_DOMAIN)


def check_rounds(n: int, name: str = "rounds") -> int:
    """``n`` as a count of rounds or samples: from 1 to `MAX_ROUNDS`.  A count
    given as a float is bounded before it is checked integral, so an infinite
    one is refused for its size."""
    if as_float(n, name) > MAX_ROUNDS:
        raise ParameterError(f"{name} must be at most the limit of {MAX_ROUNDS} rounds, got {n}")
    return check_count(n, name)


def check_value(x: int, m: int, name: str = "value") -> int:
    x = _check_integer(x, name)
    if not 0 <= x < m:
        raise ParameterError(f"{name} must be in [0, {m}), got {x}")
    return x


def as_real_array(x, name: str) -> np.ndarray:
    """``x`` as an array of booleans, integers or floats; anything else (a
    string, None, an int beyond 64 bits, a ragged nesting) raises
    `ParameterError` naming the argument."""
    try:
        given = np.asarray(x)
    except ValueError:  # a ragged nesting
        given = np.asarray(None)
    if given.dtype.kind not in "biuf":
        raise ParameterError(f"{name} must be real numbers, got dtype {given.dtype}")
    return given


def check_in_range(x, lo, hi, name: str) -> np.ndarray:
    """``x`` as a float array of real numbers in [lo, hi], each bound
    included; NaN is refused.  An empty array passes."""
    x = as_real_array(x, name).astype(float, copy=False)
    if x.size and not (x.min() >= lo and x.max() <= hi):  # NaN fails both
        raise ParameterError(f"{name} must be in [{lo}, {hi}]")
    return x


def check_distribution(p, m: int | None, name: str) -> np.ndarray:
    """``p`` as an (m,) float64 array of non-negative entries summing to 1
    within 1e-12 as float64, so float32 [0.2, 0.3, 0.5] (1 + 1.5e-8) is
    refused; with m None, a 1-D one of any length from 2."""
    p = as_real_array(p, name).astype(float, copy=False)
    if p.shape != (m or max(p.size, 2),):
        raise ParameterError(f"{name} must have shape ({m or 'm >= 2'},), got {p.shape}")
    # as Python floats, at a fraction of two numpy reductions' cost; a NaN or
    # an infinite entry fails the sum's test (a leading NaN `min`'s too)
    values = p.tolist()
    if not (min(values) >= 0.0 and abs(sum(values) - 1.0) <= 1e-12):
        raise ParameterError(f"{name} must be finite, non-negative and sum to 1")
    return p


def check_values(values, m: int, name: str = "values") -> np.ndarray:
    given = as_real_array(values, name)
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
