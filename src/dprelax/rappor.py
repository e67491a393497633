"""Per-bit RAPPOR baseline: permanent randomized response plus repeated noisy sampling.

Each client perturbs its bit once ("permanent" response, retain probability
alpha) and then reports many independent re-perturbations of that stored bit
("noisy sampling", retain probability beta).  Only the symmetric case is
implemented, where a noisy sample keeps the stored bit with the same
probability regardless of its value; bits are treated independently, so no
Bloom-filter machinery appears here.

Parameters are specified through the per-stage privacy parameters, with
``alpha = e^eps_alpha / (e^eps_alpha + 1)`` and likewise for beta.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import cap_epsilon, check_count, check_epsilon
from .errors import ParameterError
from .estimation import estimate_binary

__all__ = [
    "RapporParams",
    "NoisyReport",
    "rappor_params",
    "eps_noisy_sampling",
    "noisy_sampling_schedule",
    "simulate_noisy_sampling",
    "simulate_noisy_sampling_batch",
    "decode_noisy_sampling",
    "decode_noisy_sampling_counts",
    "variance_noisy_sampling",
]


@dataclass(frozen=True)
class RapporParams:
    """Retain probabilities of the permanent (alpha) and instantaneous (beta) stages."""

    eps_alpha: float
    eps_beta: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class NoisyReport:
    """Number of one-bits among a client's noisy samples."""

    k_ones: int
    n_samples: int

    def __post_init__(self):
        if not 0 <= self.k_ones <= self.n_samples:
            raise ParameterError(
                f"k_ones must be in [0, {self.n_samples}], got {self.k_ones}"
            )


def rappor_params(eps_alpha: float, eps_beta: float) -> RapporParams:
    """Build parameters from the per-stage privacy parameters (both > 0)."""
    eps_alpha = check_epsilon(eps_alpha, "eps_alpha")
    eps_beta = check_epsilon(eps_beta, "eps_beta")
    alpha = 1.0 / (1.0 + math.exp(-cap_epsilon(eps_alpha)))
    beta = 1.0 / (1.0 + math.exp(-cap_epsilon(eps_beta)))
    return RapporParams(eps_alpha=eps_alpha, eps_beta=eps_beta, alpha=alpha, beta=beta)


def eps_noisy_sampling(K: int, params: RapporParams) -> float:
    """Privacy parameter of the original bit after K noisy samples.

    Strictly increasing in K and bounded above by ``eps_alpha``, which it
    saturates to in double precision for large K.  Evaluated in a
    cancellation-free form so saturation approaches the bound cleanly.
    """
    K = check_count(K, "K")
    a = cap_epsilon(params.eps_alpha)
    b = K * cap_epsilon(params.eps_beta)
    value = min(a, b) + math.log1p(math.exp(-(a + b))) - math.log1p(math.exp(-abs(a - b)))
    # within rounding distance of the bound, the bound is the correctly
    # rounded result; snapping keeps deep saturation flat instead of wobbly
    if value >= a - 2 * math.ulp(a):
        return a
    return value


def noisy_sampling_schedule(eps_alpha: float, eps_beta: float, rounds: int) -> list:
    """Relaxation schedule matching the leak rate of repeated noisy sampling.

    Guaranteed non-decreasing: rounding wobble at saturation is absorbed by a
    running maximum (within one ulp of the exact values).
    """
    rounds = check_count(rounds, "rounds")
    params = rappor_params(eps_alpha, eps_beta)
    schedule, level = [], 0.0
    for k in range(1, rounds + 1):
        level = max(level, eps_noisy_sampling(k, params))
        schedule.append(level)
    return schedule


def simulate_noisy_sampling(
    b: int, params: RapporParams, K: int, rng: np.random.Generator
) -> NoisyReport:
    """One client: a one-row `simulate_noisy_sampling_batch` reporting all K samples."""
    if b not in (0, 1):
        raise ParameterError(f"bit must be 0 or 1, got {b}")
    counts = simulate_noisy_sampling_batch([b], params, K, rng)
    return NoisyReport(k_ones=int(counts[0, -1]), n_samples=counts.shape[1])


def simulate_noisy_sampling_batch(
    bits, params: RapporParams, K: int, rng: np.random.Generator
) -> np.ndarray:
    """Running one-bit counts for many clients; shape (n_clients, K).

    Column k holds each client's count after k + 1 samples, so a single
    simulation serves every report length up to K.
    """
    K = check_count(K, "K")
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ParameterError("bits must all be 0 or 1")
    keep = rng.random(bits.shape) < params.alpha
    permanent = np.where(keep, bits, 1 - bits)
    p_one = np.where(permanent == 1, params.beta, 1.0 - params.beta)
    ones = rng.random((bits.size, K)) < p_one[:, None]
    return np.cumsum(ones, axis=1)


def decode_noisy_sampling_counts(k_ones, K: int, params: RapporParams) -> float:
    """Two-stage decode from per-client one-bit counts after K samples."""
    K = check_count(K, "K")
    k_ones = np.atleast_1d(np.asarray(k_ones, dtype=float))
    if k_ones.size == 0:
        raise ParameterError("need at least one report")
    if np.any(k_ones < 0) or np.any(k_ones > K):
        raise ParameterError(f"counts must be in [0, {K}]")
    per_client = estimate_binary(k_ones / K, params.eps_beta)
    return _unclamped_binary(float(per_client.mean()), params.eps_alpha)


def _unclamped_binary(lam: float, eps: float) -> float:
    # The per-client stage is already debiased and routinely leaves [0, 1],
    # so the second stage applies the same affine map without the range check
    # estimate_binary performs on raw observed frequencies.
    g = math.expm1(cap_epsilon(check_epsilon(eps)))
    return ((g + 2.0) * lam - 1.0) / g


def decode_noisy_sampling(reports, params: RapporParams) -> float:
    """Estimate the frequency of original one-bits from client reports."""
    reports = list(reports)
    if not reports:
        raise ParameterError("need at least one report")
    K = reports[0].n_samples
    if any(r.n_samples != K for r in reports):
        raise ParameterError("all reports must share the same number of samples")
    counts = np.array([r.k_ones for r in reports], dtype=float)
    return decode_noisy_sampling_counts(counts, K, params)


def variance_noisy_sampling(params: RapporParams, N: int, K: int) -> float:
    """Variance of the decoded frequency over N clients reporting K samples each."""
    N = check_count(N, "N")
    K = check_count(K, "K")
    a, b = params.alpha, params.beta
    if a == 0.5 or b == 0.5:
        raise ParameterError("retain probability 0.5 makes the decode degenerate")
    return b * (1 - b) / (N * K * (1 - 2 * b) ** 2 * (1 - 2 * a) ** 2) + a * (1 - a) / (
        N * (1 - 2 * a) ** 2
    )
