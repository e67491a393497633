"""Per-bit RAPPOR baseline: permanent randomized response plus repeated noisy sampling.

Each client perturbs its bit once ("permanent" response, retain probability
alpha) and then reports many independent re-perturbations of that stored bit
("noisy sampling", retain probability beta).  Only the symmetric case is
implemented, where a noisy sample keeps the stored bit with the same
probability regardless of its value; bits are treated independently, so no
Bloom-filter machinery appears here.  Clients are simulated as a batch
(`simulate_noisy_sampling_batch`) and decoded from the clients' total of ones
(`decode_noisy_sampling_counts`); one client is a one-row batch.

A `RapporParams` is built from the two per-stage privacy parameters alone:
alpha is the retain probability of the binary randomized response at
``eps_alpha`` (`mechanism.rr_distribution`,
``e^eps_alpha / (e^eps_alpha + 1)``), and likewise for beta, each set once
when the parameters are built.  So the pair a run simulates at is the pair
it decodes at, and a function given parameters checks only that they are a
`RapporParams`.  A `NoisySamplingSchedule` holds such parameters and a round
count, and sets the relaxation schedule matched to them once when built.
"""

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from ._util import (
    MAX_OBJECT_VALUES, cap_epsilon, check_count, check_epsilon, check_in_range, check_instance,
    check_rounds, check_values,
)
from .errors import ParameterError
from .estimation import _debias
from .mechanism import rr_distribution

__all__ = [
    "RapporParams",
    "rappor_params",
    "eps_noisy_sampling",
    "NoisySamplingSchedule",
    "noisy_sampling_schedule",
    "simulate_noisy_sampling_batch",
    "decode_noisy_sampling_counts",
    "variance_noisy_sampling",
]


@dataclass(frozen=True)
class RapporParams:
    """Per-stage privacy parameters (both > 0) of the permanent (``eps_alpha``)
    and instantaneous (``eps_beta``) stages, with the retain probabilities
    ``alpha`` and ``beta`` they determine, set once when built."""

    eps_alpha: float
    eps_beta: float
    alpha: float = field(init=False)
    beta: float = field(init=False)

    def __post_init__(self):
        eps_alpha, eps_beta = (check_epsilon(getattr(self, k), k) for k in ("eps_alpha", "eps_beta"))
        alpha, beta = (rr_distribution(eps, 2).p_retain for eps in (eps_alpha, eps_beta))
        self.__dict__.update(eps_alpha=eps_alpha, eps_beta=eps_beta, alpha=alpha, beta=beta)


rappor_params = RapporParams


def eps_noisy_sampling(K: int, params: RapporParams) -> float:
    """Privacy parameter of the original bit after K noisy samples.

    Strictly increasing in K and bounded above by ``eps_alpha``, which it
    saturates to in double precision for large K.  With a = ``eps_alpha``
    and b = K * ``eps_beta`` (each capped), it is evaluated as
    min(a, b) + log1p(e^-(a+b)) - log1p(e^-|a-b|), which is not free of
    cancellation: for a small ``eps_alpha`` the value, about a * tanh(b / 2),
    is min(a, b) plus two logarithms that nearly cancel, and it keeps their
    rounding error (about 1e-17 at b = 3) whatever its own size.  At
    ``eps_alpha`` 1e-12 (``eps_beta`` 1, K 3) it is 1.2e-5 off relatively,
    and at 1e-20 it is 0.0; `noisy_sampling_schedule` (`NoisySamplingSchedule`)
    refuses a pair whose first entry cancels to 0.0.  The arithmetic is kept
    as it is: shipped schedule entries, and so the runs' outputs, depend on
    it bit for bit.
    """
    K = check_count(K, "K")
    check_instance(params, RapporParams, "params")
    a = cap_epsilon(params.eps_alpha)
    b = K * cap_epsilon(params.eps_beta)
    value = min(a, b) + math.log1p(math.exp(-(a + b))) - math.log1p(math.exp(-abs(a - b)))
    # within rounding distance of the bound, the bound is the correctly
    # rounded result; snapping keeps deep saturation flat instead of wobbly
    if value >= a - 2 * math.ulp(a):
        return a
    return value


@dataclass(frozen=True)
class NoisySamplingSchedule:
    """Relaxation schedule matching the leak rate of repeated noisy sampling at
    ``params`` over ``rounds`` (at most `MAX_ROUNDS`): round k's ε is
    `eps_noisy_sampling` after k samples, and ``epsilons`` is set once when
    built.

    Guaranteed non-decreasing: rounding wobble at saturation is absorbed by a
    running maximum from 0.0 (within one ulp of the exact values).  An
    ``eps_alpha`` so small that the first entry cancels to 0.0 (about 1e-20
    at ``eps_beta`` 1) is refused, naming it.
    """

    params: RapporParams
    rounds: int
    epsilons: tuple = field(init=False)

    def __post_init__(self):
        rounds, params = check_rounds(self.rounds), self.params
        check_instance(params, RapporParams, "params")
        leaks = (eps_noisy_sampling(k, params) for k in range(1, rounds + 1))
        epsilons = tuple(accumulate(leaks, max, initial=0.0))[1:]
        if not epsilons[0] > 0.0:  # the schedule is non-decreasing: its first entry is its least
            raise ParameterError(
                f"eps_alpha {params.eps_alpha!r} is too small for the matched schedule: its first "
                f"round's privacy parameter rounds to {epsilons[0]}"
            )
        self.__dict__.update(rounds=rounds, epsilons=epsilons)


def noisy_sampling_schedule(eps_alpha: float, eps_beta: float, rounds: int) -> list:
    """The ε of ``NoisySamplingSchedule(rappor_params(eps_alpha, eps_beta), rounds)``, as a list."""
    return list(NoisySamplingSchedule(rappor_params(eps_alpha, eps_beta), rounds).epsilons)


def simulate_noisy_sampling_batch(
    bits, params: RapporParams, K: int, rng: np.random.Generator
) -> np.ndarray:
    """Running one-bit counts for many clients; shape (n_clients, K).

    Column k holds each client's count after k + 1 samples, so a single
    simulation serves every report length up to K.  K is at most
    `MAX_ROUNDS`, and the (n_clients, K) samples at most `MAX_OBJECT_VALUES`:
    a larger K is refused before any draw.
    """
    check_instance(params, RapporParams, "params")
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
    check_instance(params, RapporParams, "params")
    K = check_count(K, "K")
    k_ones = check_in_range(k_ones, 0, K, "k_ones")
    if k_ones.size == 0:
        raise ParameterError("k_ones must hold at least one report")
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
    check_instance(params, RapporParams, "params")
    N = check_count(N, "N")
    K = check_count(K, "K")
    a, b = params.alpha, params.beta
    if a == 0.5 or b == 0.5:
        raise ParameterError("retain probability 0.5 makes the decode degenerate")
    return b * (1 - b) / (N * K * (1 - 2 * b) ** 2 * (1 - 2 * a) ** 2) + a * (1 - a) / (
        N * (1 - 2 * a) ** 2
    )
