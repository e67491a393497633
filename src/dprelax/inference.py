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
import sys

import numpy as np

from ._util import (
    cap_epsilon, check_distribution, check_domain_size, check_epsilon, check_instance,
    check_table_domain, check_values,
)
from .errors import ParameterError
from .mechanism import (
    RelaxationChain,
    _check_batch,
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
    """The uniform prior over ``m`` values, m at most `MAX_DOMAIN`: the
    largest chain `posterior` takes."""
    m = check_table_domain(m)
    return np.full(m, 1.0 / m)


def posterior(chain: RelaxationChain, prior) -> np.ndarray:
    """Bayesian belief over the true value given every released output.

    ``prior`` is read as float64 and must sum to 1 within 1e-12 there, so a
    float32 prior is refused unless its float64 values sum to 1 that closely.
    Reads the log-likelihood the chain carries, so a posterior after every
    release costs O(1) in the chain length.  Where the likelihoods underflow,
    the belief is normalised in log space instead.
    """
    check_instance(chain, RelaxationChain, "chain")
    prior = check_distribution(prior, chain.m, "prior")
    weighted = np.exp(chain._log_likelihood)
    weighted *= prior
    z = np.add.reduce(weighted)  # `weighted.sum()`, without its Python wrapper
    if z < sys.float_info.min:
        # shift by the largest log-likelihood on the prior's support: each
        # term is then at most its prior, and the largest one equals its prior
        loglik = np.where(prior > 0.0, chain._log_likelihood, -math.inf)
        shift = loglik.max()
        if shift == -math.inf:
            raise ParameterError("observed sequence has zero probability under the prior support")
        weighted = np.exp(loglik - shift) * prior
        z = weighted.sum()
    weighted /= z
    return weighted


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
    outputs, plan, m = _check_batch(outputs, schedule, m)
    rows = np.arange(outputs.shape[0])
    for *_, guesses in _running_guesses(outputs.T, plan, m, rows):
        yield {method: guess.copy() for method, guess in guesses.items()}


def _running_guesses(columns, plan: tuple, m: int, rows):
    # The per-round update behind `iter_attack_guesses`, for a plan of valid
    # steps and m: takes one (n,) int64 output column in [0, m) per step, as
    # it comes, and yields the column, whether each object's last output is
    # its MLE, and each method's guesses at the objects ``rows`` only.  The
    # log-likelihood is carried over the whole population, since
    # `lo_mle_identical` compares every object: each object's entry at its
    # last output (``own``) is held against the largest other (``rival``),
    # m - 1 column maxima with the own entry set to -inf, restored bit for bit
    # before the yield.  Two tie rules read the pair.  The MLE guess is
    # `np.argmax`'s, so it is the last output where ``own > rival`` exactly:
    # by collusion-proofness almost every row; the others (ties, all -inf
    # rows, every row below about ε = 1e-16) take an argmax.  ``last_is_mle``
    # allows 1e-12: below about ε = 1e-16 every value's likelihood ties to an
    # ulp, and rounding alone must not count the last output as beaten.  The
    # per-value counts and the counts weighted by each step's eps_next (flat,
    # row-major (rows, m)), and each count's best value per row, are carried
    # at ``rows`` alone, and the yielded guesses of both counts are that
    # state, updated in place by the next round.
    k = len(rows)
    offsets = np.arange(k) * m
    counts = np.zeros(k * m, dtype=np.int64)
    weighted = np.zeros(k * m)
    top_count, top_weighted = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    best_count, best_weighted = np.zeros(k, dtype=np.int64), np.zeros(k)
    for (_, eps), (last, loglik) in zip(plan, _running_log_likelihoods(columns, plan, m)):
        picked = last[rows]
        grown = offsets + picked
        count = counts[grown] + 1
        counts[grown] = count
        weight = weighted[grown] + eps
        weighted[grown] = weight
        _running_argmax(count, picked, top_count, best_count)
        _running_argmax(weight, picked, top_weighted, best_weighted)
        flat, at = loglik.reshape(-1), np.arange(0, loglik.size, m) + last  # loglik is C order
        own = flat[at]
        flat[at] = -math.inf
        rival = np.maximum(loglik[:, 0], loglik[:, 1])
        for value in range(2, m):
            np.maximum(rival, loglik[:, value], out=rival)
        flat[at] = own
        mle = picked.copy()
        tied = np.flatnonzero((own <= rival)[rows])
        if tied.size:
            mle[tied] = np.argmax(loglik[rows[tied]], axis=1)
        yield last, own >= rival - 1e-12, {
            "last_output": picked,
            "mle": mle,
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
    top[...] = np.where(take, grown, top)
    np.maximum(best, value, out=best)


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
    uniformly at random.  Raises if some value has no objects at all.  m is at
    most `MAX_DOMAIN`, the largest domain a chain may have, and is checked
    before any value is scanned.
    """
    m = check_table_domain(m)
    truth = check_values(truth, m, "truth")
    return _balanced_draw(_value_indices(truth, m), rng)


def _value_indices(truth, m: int) -> list:
    # each value's object indices in a validated ``truth``, ascending: what
    # `_balanced_draw` draws from, built once for any number of subsets
    indices = [np.flatnonzero(truth == value) for value in range(m)]
    for value, idx in enumerate(indices):
        if not idx.size:
            raise ParameterError(f"cannot build a balanced subset: value {value} has no objects")
    return indices


def _balanced_draw(indices: list, rng: np.random.Generator) -> np.ndarray:
    # `balanced_subset`'s draws, from `_value_indices`
    quota = min(idx.size for idx in indices)
    picks = []
    for idx in indices:
        if idx.size > quota:
            idx = np.sort(rng.choice(idx, size=quota, replace=False))
        picks.append(idx)
    return np.sort(np.concatenate(picks))
