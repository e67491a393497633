"""Unbiased frequency and mean estimators for (relaxed) randomized responses.

A histogram is its (m,) count vector; `estimate_poly` decodes one.  Estimates
are deliberately not clamped to [0, 1]: clamping would break unbiasedness.
Covariances use the closed-form per-object response covariance;
`estimate_poly` plugs the decoded frequencies into it, while
`frequency_estimate_covariance` accepts a known composition for theoretical
reference values.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import (
    as_float,
    cap_epsilon,
    check_count,
    check_distribution,
    check_domain_size,
    check_epsilon,
    check_in_range,
    check_values,
)
from .errors import IllConditionedError, ParameterError

__all__ = [
    "FrequencyEstimate",
    "histogram",
    "estimate_binary",
    "perturbation_matrix",
    "estimate_poly",
    "frequency_estimate_covariance",
    "variance_binary_estimate",
    "discretize_mean",
    "estimate_mean",
]


@dataclass(frozen=True)
class FrequencyEstimate:
    """Debiased frequency vector with its plug-in covariance."""

    estimate: np.ndarray
    covariance: np.ndarray
    epsilon: float
    n: float  # the decoded counts' total


def histogram(responses, m: int) -> np.ndarray:
    """The (m,) int64 counts of responses (integers in [0, m)) per value."""
    m = check_domain_size(m)
    responses = check_values(responses, m, "responses")
    if responses.ndim != 1 or responses.size == 0:
        raise ParameterError(f"responses must be 1-D and non-empty, got shape {responses.shape}")
    return np.bincount(responses, minlength=m)


# The smallest privacy parameter any estimator accepts.  A variance grows as
# eps**-2 and `estimate_poly`'s plug-in covariance as eps**-3, so they leave
# double range below about 1e-154 and 1e-103; at 1e-100 the largest entry of
# either, for m up to 1000, is about 1e291.
MIN_EPSILON = 1e-100


def _growth(eps: float, name: str = "epsilon") -> float:
    """e^eps - 1, refusing an eps below `MIN_EPSILON` with `IllConditionedError`
    naming ``name``."""
    if eps < MIN_EPSILON:
        raise IllConditionedError(
            f"{name} is too small to debias responses: {eps} is below {MIN_EPSILON}"
        )
    return math.expm1(cap_epsilon(eps))


def estimate_binary(lambda_b, eps: float):
    """Debias an observed frequency of ones from a binary randomized response.

    Accepts a scalar or an array of observed frequencies in [0, 1]; the result
    may fall outside [0, 1], which keeps the estimator unbiased.
    """
    eps = check_epsilon(eps)
    lam = check_in_range(lambda_b, 0, 1, "lambda_b")
    out = _debias_binary(lam, eps)
    return float(out) if lam.ndim == 0 else out


def _debias_binary(lam, eps: float):
    # The affine map of `estimate_binary`, for a validated eps and unchecked lam.
    g = _growth(eps)
    return ((g + 2.0) * lam - 1.0) / g


def perturbation_matrix(eps: float, m: int) -> np.ndarray:
    """The (m, m) inverse of the channel of `mechanism.rr_distribution`: the
    decode matrix of the ``eps``-randomized response over ``m`` values.

    It uses the diagonal-plus-rank-one form, which stays exact where generic
    inversion would lose digits at small eps.
    """
    eps = check_epsilon(eps)
    m = check_domain_size(m)
    big = math.exp(cap_epsilon(eps))
    scale = (big + m - 1) / _growth(eps)
    inv = np.full((m, m), -scale / (big + m - 1))
    np.fill_diagonal(inv, scale * (1.0 - 1.0 / (big + m - 1)))
    return inv


def _response_covariance(eps: float, m: int, x: int) -> np.ndarray:
    # Covariance of the one-hot response indicator for an object with value
    # ``x``, for a validated eps and m and an x in [0, m).
    big = math.exp(cap_epsilon(eps))
    cov = np.full((m, m), -1.0)
    cov[x, :] = -big
    cov[:, x] = -big
    idx = np.arange(m)
    cov[idx, idx] = big + m - 2
    cov[x, x] = big * (m - 1)
    cov /= (big + m - 1) ** 2
    return cov


def _decoded_covariance(weights, inverse, eps: float, n: float) -> np.ndarray:
    # Covariance of ``inverse @ (counts / n)`` over n objects of composition
    # ``weights``, for the ``eps`` decode matrix ``inverse``.
    m = len(inverse)
    cov = np.zeros((m, m))
    for value, w in enumerate(weights):
        if w != 0.0:
            cov += w * _response_covariance(eps, m, value)
    return inverse @ cov @ inverse.T / n


def estimate_poly(counts, eps: float) -> FrequencyEstimate:
    """Debias response counts per value, as `histogram` returns them, with covariance.

    The covariance plugs the decoded frequencies into the per-object response
    covariance; when the true composition is known, prefer
    `frequency_estimate_covariance` for the theoretical value.
    """
    counts = check_in_range(counts, 0, math.inf, "counts")
    if counts.ndim != 1 or counts.size < 2:
        raise ParameterError(f"counts must be 1-D with at least 2 values, got {counts.shape}")
    # with no count negative, a finite positive total means that every count
    # is finite and not all are zero (and that the total is a double)
    with np.errstate(over="ignore"):
        n = float(counts.sum())
    if not 0.0 < n < math.inf:
        raise ParameterError("counts must be finite, non-negative and not all zero")
    eps = check_epsilon(eps)
    inverse = perturbation_matrix(eps, counts.size)
    est = _decode_counts(counts, n, inverse)
    cov = _decoded_covariance(est, inverse, eps, n)
    return FrequencyEstimate(estimate=est, covariance=cov, epsilon=eps, n=n)


def _decode_counts(counts, n: float, inverse) -> np.ndarray:
    # `estimate_poly`'s decode, for (m,) counts of total n known to be valid;
    # integer counts divide to the same doubles as float ones
    return inverse @ (counts / n)


def frequency_estimate_covariance(freq, eps: float, n: int) -> np.ndarray:
    """Covariance of the decoded estimate for a population with composition ``freq``."""
    freq = check_distribution(freq, None, "freq")
    n = check_count(n, "n")
    eps = check_epsilon(eps)
    return _decoded_covariance(freq, perturbation_matrix(eps, freq.size), eps, n)


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
