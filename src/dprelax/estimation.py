"""Unbiased frequency and mean estimators for (relaxed) randomized responses.

Estimates are deliberately not clamped to [0, 1]: clamping would break
unbiasedness.  Covariances use the closed-form per-object response covariance;
`estimate_poly` plugs the decoded frequencies into it, while
`frequency_estimate_covariance` accepts a known composition for theoretical
reference values.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import (
    cap_epsilon,
    check_count,
    check_domain_size,
    check_epsilon,
    check_values,
)
from .errors import IllConditionedError, ParameterError

__all__ = [
    "Histogram",
    "PerturbationMatrix",
    "FrequencyEstimate",
    "histogram",
    "estimate_binary",
    "perturbation_matrix",
    "estimate_poly",
    "decode_histogram",
    "frequency_estimate_covariance",
    "variance_binary_estimate",
    "discretize_mean",
    "estimate_mean",
]


@dataclass(frozen=True)
class Histogram:
    """Counts of observed responses per domain value."""

    counts: np.ndarray
    n: int

    @property
    def m(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class PerturbationMatrix:
    """Channel matrix P of a randomized response and its closed-form inverse.

    ``matrix[i, j]`` is the probability of observing value i when the true
    value is j.  The inverse uses the diagonal-plus-rank-one form, which stays
    exact where generic inversion would lose digits at small eps.
    """

    epsilon: float
    m: int
    matrix: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True)
class FrequencyEstimate:
    """Debiased frequency vector with its plug-in covariance."""

    estimate: np.ndarray
    covariance: np.ndarray
    epsilon: float
    n: int


def histogram(responses, m: int) -> Histogram:
    """Tally responses (integers in [0, m)) into a Histogram."""
    m = check_domain_size(m)
    responses = check_values(responses, m, "responses")
    if responses.size == 0:
        raise ParameterError("responses must be non-empty")
    counts = np.bincount(responses, minlength=m)
    return Histogram(counts=counts, n=int(responses.size))


# The smallest privacy parameter any estimator accepts.  A variance grows as
# eps**-2 and `estimate_poly`'s plug-in covariance as eps**-3, so they leave
# double range below about 1e-154 and 1e-103; at 1e-100 the largest entry of
# either, for m up to 1000, is about 1e291.
MIN_EPSILON = 1e-100


def _growth(eps: float) -> float:
    """e^eps - 1, refusing an eps below `MIN_EPSILON` with `IllConditionedError`."""
    if eps < MIN_EPSILON:
        raise IllConditionedError(
            f"epsilon={eps} is below {MIN_EPSILON}: too small to debias responses"
        )
    return math.expm1(cap_epsilon(eps))


def estimate_binary(lambda_b, eps: float):
    """Debias an observed frequency of ones from a binary randomized response.

    Accepts a scalar or an array of observed frequencies in [0, 1]; the result
    may fall outside [0, 1], which keeps the estimator unbiased.
    """
    eps = check_epsilon(eps)
    lam = np.asarray(lambda_b, dtype=float)
    if np.any(lam < 0.0) or np.any(lam > 1.0):
        raise ParameterError("observed frequency must be in [0, 1]")
    out = _debias_binary(lam, eps)
    return float(out) if np.ndim(lambda_b) == 0 else out


def _debias_binary(lam, eps: float):
    # The affine map of `estimate_binary`, for a validated eps and unchecked lam.
    g = _growth(eps)
    return ((g + 2.0) * lam - 1.0) / g


def perturbation_matrix(eps: float, m: int) -> PerturbationMatrix:
    """Channel matrix of the ``eps``-randomized response over ``m`` values."""
    eps = check_epsilon(eps)
    m = check_domain_size(m)
    big = math.exp(cap_epsilon(eps))
    p = np.full((m, m), 1.0 / (big + m - 1))
    np.fill_diagonal(p, big / (big + m - 1))
    scale = (big + m - 1) / _growth(eps)
    inv = np.full((m, m), -scale / (big + m - 1))
    np.fill_diagonal(inv, scale * (1.0 - 1.0 / (big + m - 1)))
    return PerturbationMatrix(epsilon=eps, m=m, matrix=p, inverse=inv)


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


def _decoded_covariance(weights, pm: PerturbationMatrix, n: int) -> np.ndarray:
    # Covariance of ``P^-1 @ (counts / n)`` over n objects of composition ``weights``.
    cov = np.zeros((pm.m, pm.m))
    for value, w in enumerate(weights):
        if w != 0.0:
            cov += w * _response_covariance(pm.epsilon, pm.m, value)
    return pm.inverse @ cov @ pm.inverse.T / n


def estimate_poly(hist: Histogram, eps: float) -> FrequencyEstimate:
    """Debias a response histogram into a frequency estimate with covariance.

    The covariance plugs the decoded frequencies into the per-object response
    covariance; when the true composition is known, prefer
    `frequency_estimate_covariance` for the theoretical value.
    """
    pm = perturbation_matrix(eps, hist.m)
    est = decode_histogram(hist, pm)
    cov = _decoded_covariance(est, pm, hist.n)
    return FrequencyEstimate(estimate=est, covariance=cov, epsilon=pm.epsilon, n=hist.n)


def decode_histogram(hist: Histogram, pm: PerturbationMatrix) -> np.ndarray:
    """Debiased frequencies ``P^-1 @ (counts / n)`` of a histogram, no covariance.

    Runs that decode many histograms at one parameter build ``pm`` once and
    call this directly; `estimate_poly` decodes through it too.
    """
    n = check_count(hist.n, "n")
    counts = np.asarray(hist.counts, dtype=float)
    if counts.shape != (pm.m,):
        raise ParameterError(f"histogram has {counts.size} values, channel has m={pm.m}")
    if np.any(counts < 0) or abs(float(counts.sum()) - n) > 1e-6 * n:
        raise ParameterError("histogram counts must be non-negative and sum to n")
    return _decode_counts(counts, n, pm)


def _decode_counts(counts, n: int, pm: PerturbationMatrix) -> np.ndarray:
    # `decode_histogram`'s arithmetic, for (m,) counts of n responses known to
    # be valid; integer counts divide to the same doubles as float ones
    return pm.inverse @ (counts / n)


def frequency_estimate_covariance(freq, eps: float, n: int) -> np.ndarray:
    """Covariance of the decoded estimate for a population with composition ``freq``."""
    freq = np.asarray(freq, dtype=float)
    n = check_count(n, "n")
    if abs(float(freq.sum()) - 1.0) > 1e-9:
        raise ParameterError("composition must sum to 1")
    return _decoded_covariance(freq, perturbation_matrix(eps, len(freq)), n)


def variance_binary_estimate(eps: float, n: int) -> float:
    """Variance of the debiased frequency of ones over ``n`` binary responses."""
    eps = check_epsilon(eps)
    n = check_count(n, "n")
    return math.exp(cap_epsilon(eps)) / (n * _growth(eps) ** 2)


def discretize_mean(value: float, l: float, h: float, rng: np.random.Generator) -> float:
    """Round a bounded value to one of the interval endpoints, unbiasedly."""
    l, h = float(l), float(h)
    if not l < h:
        raise ParameterError(f"interval must satisfy l < h, got [{l}, {h}]")
    value = float(value)
    if not l <= value <= h:
        raise ParameterError(f"value {value} outside [{l}, {h}]")
    return h if rng.random() < (value - l) / (h - l) else l


def estimate_mean(lambda_h: float, eps: float, l: float, h: float) -> float:
    """Debiased mean of a population discretized to {l, h} and randomized.

    Uses the interval-width coefficient so the estimator stays unbiased; with
    l = 0, h = 1 it reduces exactly to `estimate_binary`.
    """
    l, h = float(l), float(h)
    if not l < h:
        raise ParameterError(f"interval must satisfy l < h, got [{l}, {h}]")
    return l + (h - l) * estimate_binary(lambda_h, eps)
