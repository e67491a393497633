"""Per-bit RAPPOR baseline: permanent randomized response plus repeated noisy sampling.

Each client perturbs its bit once ("permanent" response, retain probability
alpha) and then reports many independent re-perturbations of that stored bit
("noisy sampling", retain probability beta).  Only the symmetric case is
implemented, where a noisy sample keeps the stored bit with the same
probability regardless of its value; bits are treated independently, so no
Bloom-filter machinery appears here.  Clients are simulated as a batch
(`simulate_noisy_sampling_batch`) and decoded from the clients' total of ones
(`decode_noisy_sampling_counts`); one client is a one-row batch.

Parameters are specified through the per-stage privacy parameters: alpha is
the retain probability of the binary randomized response at ``eps_alpha``
(`mechanism.rr_distribution`, ``e^eps_alpha / (e^eps_alpha + 1)``), and
likewise for beta.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import (
    MAX_OBJECT_VALUES, cap_epsilon, check_count, check_epsilon, check_in_range, check_rounds,
    check_values,
)
from .errors import ParameterError
from .estimation import _debias
from .mechanism import rr_distribution

__all__ = [
    "RapporParams",
    "rappor_params",
    "eps_noisy_sampling",
    "noisy_sampling_schedule",
    "simulate_noisy_sampling_batch",
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


def rappor_params(eps_alpha: float, eps_beta: float) -> RapporParams:
    """Build parameters from the per-stage privacy parameters (both > 0)."""
    eps_alpha = check_epsilon(eps_alpha, "eps_alpha")
    eps_beta = check_epsilon(eps_beta, "eps_beta")
    alpha = rr_distribution(eps_alpha, 2).p_retain
    beta = rr_distribution(eps_beta, 2).p_retain
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
    running maximum (within one ulp of the exact values).  ``rounds`` is at
    most `MAX_ROUNDS`.
    """
    rounds = check_rounds(rounds)
    params = rappor_params(eps_alpha, eps_beta)
    schedule, level = [], 0.0
    for k in range(1, rounds + 1):
        level = max(level, eps_noisy_sampling(k, params))
        schedule.append(level)
    return schedule


def simulate_noisy_sampling_batch(
    bits, params: RapporParams, K: int, rng: np.random.Generator
) -> np.ndarray:
    """Running one-bit counts for many clients; shape (n_clients, K).

    Column k holds each client's count after k + 1 samples, so a single
    simulation serves every report length up to K.  K is at most
    `MAX_ROUNDS`, and the (n_clients, K) samples at most `MAX_OBJECT_VALUES`:
    a larger K is refused before any draw.
    """
    K = check_rounds(K, "K")
    bits = check_values(bits, 2, "bits")
    if bits.ndim != 1:
        raise ParameterError(f"bits must be 1-D, got shape {bits.shape}")
    if bits.size * K > MAX_OBJECT_VALUES:
        raise ParameterError(
            f"K times the bits ({K} * {bits.size}) must be at most {MAX_OBJECT_VALUES}"
        )
    keep = rng.random(bits.shape) < params.alpha
    permanent = np.where(keep, bits, 1 - bits)
    p_one = np.where(permanent == 1, params.beta, 1.0 - params.beta)
    ones = rng.random((bits.size, K)) < p_one[:, None]
    return np.cumsum(ones, axis=1)


def decode_noisy_sampling_counts(k_ones, K: int, params: RapporParams) -> float:
    """Two-stage decode from per-client one-bit counts after K samples."""
    K = check_count(K, "K")
    k_ones = check_in_range(k_ones, 0, K, "k_ones")
    if k_ones.size == 0:
        raise ParameterError("k_ones must hold at least one report")
    check_epsilon(params.eps_beta, "eps_beta")
    check_epsilon(params.eps_alpha, "eps_alpha")
    return float(_decode_noisy_counts(k_ones.sum(), k_ones.size * K, params))


def _decode_noisy_counts(ones, reports, params: RapporParams):
    # `decode_noisy_sampling_counts`'s arithmetic, for checked parameters and
    # ``ones`` ones among ``reports`` > 0 noisy samples (scalars, or arrays of
    # one shape): the decode of `estimate_binary` at eps_beta, then at eps_alpha.
    # The decode is affine, so this is the mean of the clients' own decodes.
    # The first stage routinely leaves [0, 1], so neither checks the range
    # `estimate_binary` checks on raw observed frequencies.
    first = _debias(ones, reports, params.eps_beta, 2)
    return _debias(first, 1.0, params.eps_alpha, 2)


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
