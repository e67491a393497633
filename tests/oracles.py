"""Independent reference computations used by the tests.

Everything here is written from first principles (direct formula
transcription, matrix folds, generic inversion) so that it cannot share a bug
with the package's stable-form implementations.  The enumeration code at the
end is the exception.  Its two views read `audit.chain_log_probs`, so that
tests can compare the package's one enumerator against the references above.
Its two one-schedule forms repeat the audit's arithmetic without a batch axis,
so that tests can hold the batched enumeration to it bit for bit.
"""

import math
from itertools import product

import numpy as np

from dprelax.audit import chain_log_probs
from dprelax.mechanism import relax_kernel, rr_distribution


def binary_pa(e1: float, e2: float) -> float:
    """Stay probability at the true value, binary closed form."""
    return (math.exp(e2) - math.exp(-e1)) / (math.exp(e2) - math.exp(-e2))


def binary_pb(e1: float, e2: float) -> float:
    """Stay probability at the wrong value, binary closed form."""
    return (math.exp(e1 + e2) - 1.0) / (math.exp(2 * e2) - 1.0)


def poly_kernel_direct(e1: float, e2: float, m: int):
    """(p_aa, p_ba, p_bb) transcribed literally, no algebraic rearrangement."""
    E1, E2 = math.exp(e1), math.exp(e2)
    den = (E2 - 1.0) * (E2 + m - 1.0)
    p_aa = E2 / (E2 - 1.0) - math.exp(e2 - e1) * (E1 + m - 1.0) / den
    p_ba = (math.exp(2 * e2) - math.exp(e1 + e2)) / den
    p_bb = E1 / (E2 - 1.0) - (E1 + m - 1.0) / den
    return p_aa, p_ba, p_bb


def rr_vector(eps: float, m: int, x: int) -> np.ndarray:
    """Output distribution of a single randomized response as a vector."""
    dist = rr_distribution(eps, m)
    vec = np.full(m, dist.p_other)
    vec[x] = dist.p_retain
    return vec


def rr_channel(eps: float, m: int) -> np.ndarray:
    """Channel matrix of a single randomized response: column x is `rr_vector`."""
    return np.column_stack([rr_vector(eps, m, x) for x in range(m)])


def kernel_conditional(kernel, x: int, o_prev: int) -> np.ndarray:
    """Distribution of the next output given true value ``x`` and previous output,
    spelled out entry by entry from the kernel's named probabilities."""
    probs = np.empty(kernel.m)
    for o_next in range(kernel.m):
        if o_prev == x:
            probs[o_next] = kernel.p_aa if o_next == x else kernel.p_ab
        elif o_next == x:
            probs[o_next] = kernel.p_ba
        elif o_next == o_prev:
            probs[o_next] = kernel.p_bb
        else:
            probs[o_next] = kernel.p_bc
    return probs


def dense_kernel_tensor(kernel) -> np.ndarray:
    """All conditionals of a kernel as an (m, m, m) array indexed ``[x, o_prev, o_next]``,
    written entry set by entry set: ``p_bc`` everywhere, then ``p_bb`` where
    the output repeats, ``p_ba`` where it returns to x, ``p_ab`` where it
    leaves x and ``p_aa`` where it stays at x, each over the ones before."""
    m = kernel.m
    t = np.full((m, m, m), kernel.p_bc)
    ar = np.arange(m)
    t[:, ar, ar] = kernel.p_bb
    t[ar, :, ar] = kernel.p_ba
    t[ar, ar, :] = kernel.p_ab
    t[ar, ar, ar] = kernel.p_aa
    return t


def fold_marginal(kernel, x: int, prev_vector: np.ndarray) -> np.ndarray:
    """Push a previous-output distribution through one relaxation kernel."""
    out = np.zeros(kernel.m)
    for o_prev in range(kernel.m):
        out += prev_vector[o_prev] * kernel_conditional(kernel, x, o_prev)
    return out


def fold_schedule(schedule, m: int, x: int, kernel_fn) -> np.ndarray:
    """Exact marginal of the final output after folding a whole schedule."""
    vec = rr_vector(schedule[0], m, x)
    for e1, e2 in zip(schedule, schedule[1:]):
        vec = fold_marginal(kernel_fn(e1, e2, m), x, vec)
    return vec


def sequence_likelihood(outputs, schedule, m: int, x: int) -> float:
    """Probability of a whole output sequence given ``x``, as a scalar product.

    The initial response probability times one kernel conditional per step.
    """
    prob = rr_vector(schedule[0], m, x)[outputs[0]]
    for i in range(1, len(outputs)):
        kernel = relax_kernel(schedule[i - 1], schedule[i], m)
        prob *= kernel_conditional(kernel, x, outputs[i - 1])[outputs[i]]
    return float(prob)


def prefix_log_likelihoods(outputs, schedule, m: int) -> np.ndarray:
    """Log of `sequence_likelihood` for every row and true value; -inf where it is 0."""
    probs = np.array(
        [[sequence_likelihood(row, schedule, m, x) for x in range(m)] for row in outputs]
    )
    with np.errstate(divide="ignore"):
        return np.log(probs)


def attack_guesses(outputs, schedule, m: int) -> dict:
    """The four attacks' guesses for every row, scored from scratch in plain Python.

    Counts and weights are tallied per row in round order; every argmax takes
    the smallest value among the maximizers.
    """
    loglik = prefix_log_likelihoods(outputs, schedule, m)
    methods = ("last_output", "mle", "highest_frequency", "weighted_highest_frequency")
    guesses = {method: [] for method in methods}
    for row, ll in zip(outputs, loglik):
        counts = [0] * m
        weights = [0.0] * m
        for o, eps in zip(row, schedule):
            counts[o] += 1
            weights[o] += eps
        guesses["last_output"].append(row[-1])
        guesses["mle"].append(min(x for x in range(m) if ll[x] == max(ll)))
        guesses["highest_frequency"].append(counts.index(max(counts)))
        guesses["weighted_highest_frequency"].append(weights.index(max(weights)))
    return {method: np.array(g, dtype=np.int64) for method, g in guesses.items()}


def enumerate_chain_distribution(schedule, m: int, x: int) -> dict:
    """Exact joint distribution of all output sequences given true value ``x``."""
    probs = np.exp(chain_log_probs(schedule, m)[x])
    return {seq: float(p) for seq, p in zip(product(range(m), repeat=len(schedule)), probs)}


def enumerated_output_marginal(schedule, m: int, x: int) -> np.ndarray:
    """Marginal distribution of the final output, by summing the enumeration."""
    return np.exp(chain_log_probs(schedule, m)[x]).reshape(-1, m).sum(axis=0)


def unbatched_chain_log_probs(schedule, m: int) -> np.ndarray:
    """`audit.chain_log_probs` of one schedule, one step table at a time: the
    (m, m**n) log probabilities of every sequence for every input."""
    with np.errstate(divide="ignore"):
        logp = np.log(np.array([rr_vector(schedule[0], m, x) for x in range(m)]))
    last = np.arange(m)
    for eps_prev, eps_next in zip(schedule, schedule[1:]):
        log_table = relax_kernel(eps_prev, eps_next, m).log_table
        logp = (logp[:, :, None] + log_table[:, last, :]).reshape(m, -1)
        last = np.tile(np.arange(m), last.size)
    return logp


def worst_log_ratio(logp: np.ndarray) -> float:
    """The audit's worst-case rule on one (inputs, outcomes) array: the largest
    row-to-row spread over columns every row can produce, ignoring columns no
    row can produce, and ``inf`` if some column only some rows can produce."""
    finite = np.isfinite(logp)
    supported = finite.all(axis=0)
    if bool((finite.any(axis=0) & ~supported).any()):
        return math.inf
    spread = logp[:, supported].max(axis=0) - logp[:, supported].min(axis=0)
    return float(spread.max(initial=0.0))
