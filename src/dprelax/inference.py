"""Adversarial inference over relaxation chains and the matching error-rate floor.

Four guessing strategies are implemented: take the last output, maximize the
sequence likelihood, take the most frequent output, and take the output with
the largest privacy-parameter-weighted count.  `iter_attack_guesses` scores a
batch of chains after every round in one pass and `attack_guesses_matrix`
after the last; one chain is a one-row batch.  Error rates are always
computed over a balanced subset (equal object count per value) so they are
comparable with the uniform-prior floor.  Ties break toward the smallest value
index everywhere.
"""

import itertools
import math

import numpy as np

from ._util import cap_epsilon, check_domain_size, check_epsilon, check_values
from .errors import ParameterError
from .mechanism import RelaxationChain, chain_log_likelihoods, iter_log_likelihoods

__all__ = [
    "ATTACK_METHODS",
    "uniform_prior",
    "posterior",
    "iter_attack_guesses",
    "attack_guesses_matrix",
    "min_error_rate",
    "balanced_subset",
]

ATTACK_METHODS = ("last_output", "mle", "highest_frequency", "weighted_highest_frequency")


def uniform_prior(m: int) -> np.ndarray:
    m = check_domain_size(m)
    return np.full(m, 1.0 / m)


def _check_prior(prior, m: int) -> np.ndarray:
    prior = np.asarray(prior, dtype=float)
    if prior.shape != (m,):
        raise ParameterError(f"prior must have shape ({m},), got {prior.shape}")
    total = float(prior.sum())
    if not math.isfinite(total):  # a NaN or infinite entry makes the sum non-finite
        raise ParameterError("prior must be finite, non-negative and sum to 1")
    if np.any(prior < 0.0) or abs(total - 1.0) > 1e-12:
        raise ParameterError("prior must be non-negative and sum to 1")
    return prior


def posterior(chain: RelaxationChain, prior) -> np.ndarray:
    """Bayesian belief over the true value given every released output."""
    prior = _check_prior(prior, chain.m)
    lik = np.exp(chain_log_likelihoods([chain.outputs], chain.schedule, chain.m)[0])
    weighted = lik * prior
    z = float(weighted.sum())
    if z <= 0.0:
        raise ParameterError("observed sequence has zero probability under the prior support")
    return weighted / z


def iter_attack_guesses(outputs, schedule, m: int):
    """All four methods' guesses after each round of a batch of chains, in one pass.

    ``outputs`` has shape (n_objects, n_rounds) under one shared ``schedule``.
    Yields one dict per round, keyed by method name with one guess per object,
    scoring the outputs released up to that round.  The log-likelihood, the
    per-value counts and the parameter-weighted counts are carried from round
    to round, so scoring every round costs O(n_rounds); each step's log kernel
    comes from the step memo behind `iter_log_likelihoods`, so trials scored
    under one schedule share it.
    """
    likelihoods = iter_log_likelihoods(outputs, schedule, m)
    first = next(likelihoods)  # validates the batch before any state is built
    outputs = np.asarray(outputs, dtype=np.int64)
    schedule = np.asarray(schedule, dtype=float)
    rows = np.arange(outputs.shape[0])
    counts = np.zeros(first.shape, dtype=np.int64)
    weighted = np.zeros(first.shape)
    for r, loglik in enumerate(itertools.chain((first,), likelihoods)):
        last = outputs[:, r]
        counts[rows, last] += 1
        weighted[rows, last] += schedule[r]
        yield {
            "last_output": last.copy(),
            "mle": np.argmax(loglik, axis=1),
            "highest_frequency": np.argmax(counts, axis=1),
            "weighted_highest_frequency": np.argmax(weighted, axis=1),
        }


def attack_guesses_matrix(outputs, schedule, m: int) -> dict:
    """All four methods' guesses for a batch of chains sharing one schedule.

    The final round of `iter_attack_guesses`: a dict keyed by method name with
    one guess per object.
    """
    for guesses in iter_attack_guesses(outputs, schedule, m):
        pass
    return guesses


def min_error_rate(eps: float, m: int) -> float:
    """Lowest achievable error rate when guessing a uniformly drawn value."""
    eps = check_epsilon(eps)
    m = check_domain_size(m)
    w = np.exp(-cap_epsilon(eps))
    return float((m - 1) * w / (1.0 + (m - 1) * w))


def balanced_subset(truth, m: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of an equal-count-per-value subsample of the population.

    Every value keeps min-count objects; overrepresented values are thinned
    uniformly at random.  Raises if some value has no objects at all.
    """
    m = check_domain_size(m)
    truth = check_values(truth, m, "truth")
    counts = np.bincount(truth, minlength=m)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ParameterError(f"cannot build a balanced subset: value {missing} has no objects")
    quota = int(counts.min())
    picks = []
    for value in range(m):
        idx = np.flatnonzero(truth == value)
        if idx.size > quota:
            idx = rng.choice(idx, size=quota, replace=False)
        picks.append(np.sort(idx))
    return np.sort(np.concatenate(picks))
