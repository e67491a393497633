"""Unbiased frequency and mean estimators for (relaxed) randomized responses.

A histogram is its (m,) count vector; `estimate_poly` decodes one.  Every
decode, binary or m-ary, is one closed form, the generalized randomized
response estimator of Wang et al. (USENIX Security 2017): with g = e^eps - 1,
a value seen c times in n responses has frequency c/n + (m c - n) / (n g).
Estimates are deliberately not clamped to [0, 1]: clamping would break
unbiasedness.  Covariances are in closed form too, with the generalized
randomized response variance on the diagonal; `estimate_poly` plugs the
decoded frequencies in as the composition, while
`frequency_estimate_covariance` takes a known one for theoretical values.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import (
    MAX_OBJECT_VALUES,
    as_float,
    as_real_array,
    cap_epsilon,
    check_count,
    check_distribution,
    check_domain_size,
    check_epsilon,
    check_in_range,
    check_values,
    read_only,
)
from .errors import IllConditionedError, ParameterError

__all__ = [
    "FrequencyEstimate",
    "histogram",
    "estimate_binary",
    "estimate_poly",
    "frequency_estimate_covariance",
    "variance_binary_estimate",
    "discretize_mean",
    "estimate_mean",
]

# The largest domain of an (m, m) covariance: 128 MiB.
MAX_DECODE_DOMAIN = math.isqrt(MAX_OBJECT_VALUES)


@dataclass(frozen=True)
class FrequencyEstimate:
    """Debiased frequency vector with the plug-in covariance it determines.

    Checked when built: ``estimate`` is 1-D with 2 to `MAX_DECODE_DOMAIN` real
    numbers, ``epsilon`` a privacy parameter and ``n`` positive and at most
    2**53.  ``estimate`` is kept as a read-only float copy, and the read-only
    ``covariance``, that of the decoded frequencies over ``n`` objects of
    composition ``estimate``, is set once when built.
    """

    estimate: np.ndarray
    epsilon: float
    n: float  # the decoded counts' total
    covariance: np.ndarray = field(init=False)

    def __post_init__(self):
        estimate = as_real_array(self.estimate, "estimate")
        if estimate.ndim != 1 or estimate.size < 2:
            raise ParameterError(
                f"estimate must be 1-D with at least 2 values, got shape {estimate.shape}"
            )
        if estimate.size > MAX_DECODE_DOMAIN:
            raise ParameterError(
                f"estimate must hold at most {MAX_DECODE_DOMAIN} values, got {estimate.size}"
            )
        eps = check_epsilon(self.epsilon)
        n = as_float(self.n, "n")
        if not 0.0 < n <= 2**53:
            raise ParameterError(f"n must be positive and at most 2**53, got {n}")
        estimate = read_only(estimate.astype(float))
        # The composition's total is taken as 1, which a decode preserves and
        # its float sum may lose: decoded entries of size about m / g cancel,
        # to 0.0 at m = 2 below ε = 1e-16.  A total far below one count, or an
        # entry near double range, which no decode of counts gives, puts the
        # covariance beyond double range: it reads inf or nan, unwarned.
        with np.errstate(over="ignore", invalid="ignore"):
            covariance = read_only(_decoded_covariance(estimate, eps, n, 1.0))
        self.__dict__.update(estimate=estimate, epsilon=eps, n=n, covariance=covariance)


def histogram(responses, m: int) -> np.ndarray:
    """The (m,) int64 counts of responses (integers in [0, m)) per value; m is
    at most `MAX_OBJECT_VALUES`."""
    m = check_domain_size(m, most=MAX_OBJECT_VALUES)
    responses = check_values(responses, m, "responses")
    if responses.ndim != 1 or responses.size == 0:
        raise ParameterError(f"responses must be 1-D and non-empty, got shape {responses.shape}")
    return np.bincount(responses, minlength=m)


# The smallest privacy parameter any estimator accepts.  A variance grows as
# eps**-2 and `estimate_poly`'s plug-in covariance as eps**-3, so they leave
# double range below about 1e-154 and 1e-103; at 1e-100 the largest entry of
# either, for m up to the decode bound of 4096, is below 1e291.
MIN_EPSILON = 1e-100


def _growth(eps: float, name: str = "epsilon") -> float:
    """e^eps - 1, refusing an eps below `MIN_EPSILON` with `IllConditionedError`
    naming ``name``."""
    if eps < MIN_EPSILON:
        raise IllConditionedError(
            f"{name} is too small to debias responses: {eps} is below {MIN_EPSILON}"
        )
    return math.expm1(cap_epsilon(eps))


def _debias(counts, n, eps: float, m: int):
    """The decoded frequencies of ``counts`` among ``n`` responses of the
    ``eps``-randomized response over ``m`` values: the channel's inverse, a
    diagonal plus a rank-one matrix, applied in closed form.  Takes a scalar or
    an array of counts, unchecked; for integer counts m * counts - n is exact."""
    return counts / n + (m * counts - n) / (n * _growth(eps))


def estimate_binary(lambda_b, eps: float):
    """Debias an observed frequency of ones from a binary randomized response.

    Accepts a scalar or an array of observed frequencies in [0, 1]; the result
    may fall outside [0, 1], which keeps the estimator unbiased.
    """
    eps = check_epsilon(eps)
    lam = check_in_range(lambda_b, 0, 1, "lambda_b")
    out = _debias(lam, 1.0, eps, 2)
    return float(out) if lam.ndim == 0 else out


def _decoded_covariance(weights, eps: float, n: float, total: float) -> np.ndarray:
    # Covariance of the decoded frequencies over n objects of composition w.
    # The responses' covariance, (diag(D*S + g*m*w) - S*J - g*(w 1' + 1 w')) / D**2
    # for g = e^eps - 1, D = e^eps + m - 1, S = sum(w) (``total``) and J all
    # ones, has zero row sums, so the decode, the inverse channel (D/g)I + bJ,
    # only scales it by (D/g)**2.  The diagonal is written free of cancellation:
    # (e^eps + m - 2)*S + (m - 2)*g*w.
    g = _growth(eps)
    m = len(weights)
    spread = g * weights
    cov = np.subtract.outer(-total - spread, spread)
    cov.flat[:: m + 1] = (math.exp(cap_epsilon(eps)) + m - 2) * total + (m - 2) * spread
    cov /= n * g**2
    return cov


def estimate_poly(counts, eps: float) -> FrequencyEstimate:
    """Debias response counts per value, as `histogram` returns them, with covariance.

    The covariance plugs the decoded frequencies into the per-object response
    covariance; when the true composition is known, prefer
    `frequency_estimate_covariance` for the theoretical value.  The counts
    total at most 2**53, and there are at most `MAX_DECODE_DOMAIN` of them.
    """
    counts = check_in_range(counts, 0, math.inf, "counts")
    if counts.ndim != 1 or counts.size < 2:
        raise ParameterError(f"counts must be 1-D with at least 2 values, got {counts.shape}")
    # with no count negative, a positive total up to 2**53 means that every
    # count is finite and not all are zero, and that m * counts stays finite
    with np.errstate(over="ignore"):
        n = float(counts.sum())
    if not 0.0 < n <= 2**53:
        raise ParameterError("counts must be non-negative, not all zero and total at most 2**53")
    eps = check_epsilon(eps)
    m = check_domain_size(counts.size, most=MAX_DECODE_DOMAIN)
    return FrequencyEstimate(estimate=_debias(counts, n, eps, m), epsilon=eps, n=n)


def frequency_estimate_covariance(freq, eps: float, n: int) -> np.ndarray:
    """Covariance of the decoded estimate for a population with composition
    ``freq``, read as float64 and summing to 1 within 1e-12 there."""
    freq = as_real_array(freq, "freq")
    # bounded before the rule reads each entry; lengths 0 and 1 fail its shape test
    check_domain_size(max(freq.size, 2), most=MAX_DECODE_DOMAIN)
    freq = check_distribution(freq, None, "freq")
    n = check_count(n, "n")
    eps = check_epsilon(eps)
    return _decoded_covariance(freq, eps, n, math.fsum(freq))


def variance_binary_estimate(eps: float, n: int) -> float:
    """Variance of the debiased frequency of ones over ``n`` binary responses."""
    eps = check_epsilon(eps)
    n = check_count(n, "n")
    return math.exp(cap_epsilon(eps)) / (n * _growth(eps) ** 2)


def _check_interval(l, h) -> tuple:
    # [l, h] as floats; without a finite width h - l the rounding probability
    # and the debiased mean are NaN or infinite
    l, h = as_float(l, "l"), as_float(h, "h")
    if not (l < h and math.isfinite(h - l)):
        raise ParameterError(f"interval needs l < h and a finite h - l, got l={l}, h={h}")
    return l, h


def discretize_mean(value, l: float, h: float, rng: np.random.Generator):
    """Round each value in [l, h] to one of the interval endpoints, unbiasedly.

    Takes a scalar or an array, and draws one uniform per value, in order: a
    value goes to h with probability (value - l) / (h - l).  A scalar gives a
    float, an array an array of its shape.
    """
    l, h = _check_interval(l, h)
    value = check_in_range(value, l, h, "value")
    out = np.where(rng.random(value.shape) < (value - l) / (h - l), h, l)
    return float(out) if value.ndim == 0 else out


def estimate_mean(lambda_h: float, eps: float, l: float, h: float) -> float:
    """Debiased mean of a population discretized to {l, h} and randomized.

    Uses the interval-width coefficient so the estimator stays unbiased; with
    l = 0, h = 1 it reduces exactly to `estimate_binary`.
    """
    l, h = _check_interval(l, h)
    return l + (h - l) * estimate_binary(check_in_range(lambda_h, 0, 1, "lambda_h"), eps)
