"""Independent reference computations used by the tests.

Everything here is written from first principles (direct formula
transcription, matrix folds, generic inversion) so that it cannot share a bug
with the package's stable-form implementations.
"""

import math

import numpy as np

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
