"""Adversarial inference over relaxation chains and the matching error-rate floor.

Four guessing strategies are implemented: take the last output, maximize the
sequence likelihood, take the most frequent output, and take the output with
the largest privacy-parameter-weighted count.  `iter_attack_guesses` scores a
batch of chains after every round in one pass and `attack_guesses_matrix`
after the last; one chain is a one-row batch.  The pass takes one output
column per round, so the experiment runner feeds it each round as it is
sampled and never holds a whole (objects, rounds) matrix; the runner carries
the count attacks only at the rows it scores.  Error rates are
always computed over a balanced subset (equal object count per value) so they
are comparable with the uniform-prior floor.  Ties break toward the smallest
value index everywhere.
"""

import math

import numpy as np

from ._util import cap_epsilon, check_domain_size, check_epsilon, check_values
from .errors import ParameterError
from .mechanism import (
    RelaxationChain,
    _check_batch,
    _check_chain,
    _running_log_likelihoods,
)

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
    if prior.min() < 0.0 or abs(total - 1.0) > 1e-12:
        raise ParameterError("prior must be non-negative and sum to 1")
    return prior


def posterior(chain: RelaxationChain, prior) -> np.ndarray:
    """Bayesian belief over the true value given every released output.

    Reads the log-likelihood the chain carries, so a posterior after every
    release costs O(1) in the chain length.
    """
    _check_chain(chain)
    prior = _check_prior(prior, chain.m)
    lik = np.exp(chain._log_likelihood)
    weighted = lik * prior
    z = float(weighted.sum())
    if z <= 0.0:
        raise ParameterError("observed sequence has zero probability under the prior support")
    return weighted / z


def iter_attack_guesses(outputs, schedule, m: int):
    """All four methods' guesses after each round of a batch of chains, in one pass.

    ``outputs`` has shape (n_objects, n_rounds) under one shared ``schedule``.
    Yields one dict per round, keyed by method name with one guess per object,
    scoring the outputs released up to that round; each round's arrays are
    its own, untouched as iteration moves on.  The matrix's columns are fed
    one per round to the same running update that `experiments` feeds its
    freshly sampled rounds, so scoring every round costs O(n_rounds).
    Validation runs once, when iteration starts.
    """
    outputs, schedule, m = _check_batch(outputs, schedule, m)
    rows = np.arange(outputs.shape[0])
    for _, _, guesses in _running_guesses(outputs.T, schedule, m, rows):
        yield {method: guess.copy() for method, guess in guesses.items()}


def _running_guesses(columns, schedule: tuple, m: int, rows):
    # The per-round update behind `iter_attack_guesses`, for a validated
    # schedule and m: takes one (n,) int64 output column in [0, m) per round,
    # as it comes, and yields the column, the MLE guess of every object, and
    # each method's guesses at the objects ``rows`` only.  The log-likelihood
    # is carried over the whole population, since `lo_mle_identical` compares
    # every object; the per-value counts and the parameter-weighted counts
    # (flat, row-major (rows, m)), and each count's best value per row, are
    # carried at ``rows`` alone, and the yielded guesses of both counts are
    # that state, updated in place by the next round.
    k = len(rows)
    offsets = np.arange(k) * m
    counts = np.zeros(k * m, dtype=np.int64)
    weighted = np.zeros(k * m)
    top_count, top_weighted = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    best_count, best_weighted = np.zeros(k, dtype=np.int64), np.zeros(k)
    for eps, (last, loglik) in zip(schedule, _running_log_likelihoods(columns, schedule, m)):
        picked = last[rows]
        grown = offsets + picked
        count = counts[grown] + 1
        counts[grown] = count
        weight = weighted[grown] + eps
        weighted[grown] = weight
        _running_argmax(count, picked, top_count, best_count)
        _running_argmax(weight, picked, top_weighted, best_weighted)
        mle = np.argmax(loglik, axis=1)
        yield last, mle, {
            "last_output": picked,
            "mle": mle[rows],
            "highest_frequency": top_count,
            "weighted_highest_frequency": top_weighted,
        }


def _running_argmax(value, grown, top, best):
    """Update each row's argmax ``top`` and maximum ``best``, in place, after
    only entry ``grown`` changed, to ``value``.

    Entries never shrink, so this is exactly `np.argmax` over the whole row: a
    grown entry that ties the maximum takes over only from a larger index.
    """
    take = value > best
    take |= (value == best) & (grown < top)
    np.copyto(top, grown, where=take)
    np.copyto(best, value, where=take)


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
