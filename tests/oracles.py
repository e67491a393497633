"""Independent reference computations used by the tests.

Everything here is written from first principles (direct formula
transcription, matrix folds, generic inversion) so that it cannot share a bug
with the package's stable-form implementations.  The enumeration code at the
end is the exception.  Its two views read `audit.chain_log_probs`, so that
tests can compare the package's one enumerator against the references above.
Its two one-schedule forms repeat the audit's arithmetic without a batch axis,
so that tests can hold the batched enumeration to it bit for bit.  So does
`two_branch_draw_step`, the batch sampler in the form the library used before
its jump-level draw, which the tests hold that draw to bit for bit.
"""

import math
from decimal import Context, Decimal, localcontext
from itertools import product

import numpy as np

from dprelax._util import EPSILON_CAP
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


# The decimal context of the covariance references: 50 significant digits, so
# that neither the cancellation in diag(P) - P P' at large eps nor the decode's
# conditioning, about (e^eps + m - 1) / (e^eps - 1), reaches a double's digits.
_DIGITS = Context(prec=50)


def decimal_channel(eps: float, m: int) -> np.ndarray:
    """`rr_channel` as an object array of decimals, from e^eps (eps capped at
    `EPSILON_CAP`, as every estimator caps it) in ``_DIGITS``."""
    with localcontext(_DIGITS):
        big = Decimal(min(eps, EPSILON_CAP)).exp()
        channel = np.full((m, m), Decimal(1) / (big + m - 1), dtype=object)
        np.fill_diagonal(channel, big / (big + m - 1))
        return channel


def response_covariance(eps: float, m: int, x: int) -> np.ndarray:
    """Covariance of the one-hot response of an object with value ``x``,
    diag(P) - P P' for its output distribution P, as an object array of decimals."""
    return _one_hot_covariance(decimal_channel(eps, m)[:, x])


def _one_hot_covariance(p: np.ndarray) -> np.ndarray:
    with localcontext(_DIGITS):
        return np.diag(p) - np.outer(p, p)


def _inverse(a: np.ndarray) -> np.ndarray:
    """The inverse of a square object array, by Gauss-Jordan elimination with
    partial pivoting in ``_DIGITS``."""
    m = len(a)
    rows = np.hstack([a, np.eye(m, dtype=int).astype(object)])
    with localcontext(_DIGITS):
        for col in range(m):
            pivot = col + int(np.argmax(np.abs(rows[col:, col])))
            rows[[col, pivot]] = rows[[pivot, col]]
            rows[col] /= rows[col, col]
            others = np.arange(m) != col
            rows[others] -= np.outer(rows[others, col], rows[col])
    return rows[:, m:]


def decoded_shares(shares, eps: float) -> np.ndarray:
    """The decode of response ``shares``, decimals: the generic inverse of the
    channel applied to them, as an object array of 50-digit decimals."""
    with localcontext(_DIGITS):
        return _inverse(decimal_channel(eps, len(shares))) @ np.array(shares, dtype=object)


def decoded_frequencies(counts, eps: float) -> np.ndarray:
    """The decode of integer response ``counts``: `decoded_shares` of their
    exact shares, so its entries sum to 1 to within 50 digits."""
    n = sum(int(c) for c in counts)
    with localcontext(_DIGITS):
        return decoded_shares([Decimal(int(c)) / n for c in counts], eps)


def decoded_binary(ones, n, eps: float) -> np.ndarray:
    """The decode of ``ones`` ones among ``n`` binary responses (decimals, or
    floats taken at their exact values): `decoded_shares` of their shares."""
    with localcontext(_DIGITS):
        share = (ones if isinstance(ones, Decimal) else Decimal(float(ones))) / Decimal(n)
        return decoded_shares([1 - share, share], eps)


def decoded_noisy_sampling(ones: int, reports: int, eps_alpha: float, eps_beta: float) -> float:
    """The two-stage decode of ``ones`` ones among ``reports`` noisy samples:
    `decoded_binary` at eps_beta, then its frequency of ones decoded again at
    eps_alpha, every step in 50-digit decimals; only the result is rounded."""
    first = decoded_binary(ones, reports, eps_beta)
    return float(decoded_binary(first[1], 1, eps_alpha)[1])


def decoded_covariance(weights, eps: float, n) -> np.ndarray:
    """Covariance of the decoded frequencies over ``n`` objects of composition
    ``weights``: the weighted sum of each value's `response_covariance`, taken
    through the generic inverse of the channel on both sides and divided by n.
    Every step runs in 50-digit decimals from the exact values of the float
    inputs (decimal weights are taken as they are), and only the result is
    rounded to doubles."""
    channel = decimal_channel(eps, len(weights))
    inverse = _inverse(channel)
    with localcontext(_DIGITS):
        weights = [w if isinstance(w, Decimal) else Decimal(float(w)) for w in weights]
        cov = sum(w * _one_hot_covariance(p) for w, p in zip(weights, channel.T))
        return (inverse @ cov @ inverse.T / Decimal(n)).astype(float)


def _uniform_mix(channel: np.ndarray) -> tuple:
    """(a, b) of a channel aI + bJ: its diagonal less its off-diagonal entry, and that entry."""
    with localcontext(_DIGITS):
        return channel[0, 0] - channel[0, 1], channel[0, 1]


def degradation_channel(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """The channel G with p1 = p2 G, for channels p1 and p2 of the form aI + bJ
    (object arrays of decimals, indexed [x, o]), in closed form in ``_DIGITS``:
    with a + m b = 1, p2's inverse is I / a2 - (b2 / a2) J, so G is
    (a1 / a2) I + ((b1 - b2) / a2) J, indexed [o2, o1]."""
    (a1, b1), (a2, b2) = _uniform_mix(p1), _uniform_mix(p2)
    with localcontext(_DIGITS):
        off = (b1 - b2) / a2
        g = np.full(p1.shape, off, dtype=object)
        np.fill_diagonal(g, a1 / a2 + off)
        return g


def reversal_kernel(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """The Bayes reversal of the degradation from p2 to p1, as an (m, m, m)
    float array indexed ``[x, o1, o2]``: the law of an output o2 of p2 given
    x and the output o1 that `degradation_channel` makes of it,
    p2[x, o2] G[o2, o1] / p1[x, o1], in ``_DIGITS`` and rounded once.  Each
    factor holds one value on its diagonal and one off it, so the eight
    products are taken once and gathered by which indices coincide."""
    g = degradation_channel(p1, p2)
    m = len(p1)
    with localcontext(_DIGITS):
        # [i, j, k]: the factors off the diagonal where i, j, k are 1
        products = np.array(
            [[[float(p2[0, i] * g[0, j] / p1[0, k]) for k in (0, 1)] for j in (0, 1)]
             for i in (0, 1)]
        )
    x, o1, o2 = np.ogrid[:m, :m, :m]
    return products[(x != o2).astype(int), (o2 != o1).astype(int), (x != o1).astype(int)]


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


def two_branch_draw_step(kernel, true_values, prev_outputs, rng) -> np.ndarray:
    """One relaxation step of a batch by the inverse CDF, branch by branch.

    Every object is drawn as if its previous output were its true value; the
    objects whose previous output moved away are then redrawn, from the same
    uniforms, by the other branch, computed on those objects alone.  Takes
    int64 arrays of one shape in [0, m) and one ``rng.random(shape)`` draw.
    """
    m = kernel.m
    u = rng.random(true_values.shape)

    # Previous output equals the true value: [p_aa at x][p_ab each other value].
    if kernel.p_ab > 0.0:
        idx = np.clip((u - kernel.p_aa) / kernel.p_ab, 0.0, m - 2).astype(np.int64)
        others = idx + (idx >= true_values)
    else:
        others = true_values
    out = np.where(u < kernel.p_aa, true_values, others)
    moved = np.flatnonzero(prev_outputs != true_values)
    if not moved.size:  # a first release, or no object has moved yet
        return out

    # Previous output differs: [p_ba at x][p_bb at o_prev][p_bc each remaining].
    x, o_prev, u = np.take(true_values, moved), np.take(prev_outputs, moved), np.take(u, moved)
    stay_level = kernel.p_ba + kernel.p_bb
    if kernel.p_bc > 0.0:  # 0.0 at m = 2, where no third value exists
        idx = np.clip((u - stay_level) / kernel.p_bc, 0.0, m - 3).astype(np.int64)
        third = idx + (idx >= np.minimum(x, o_prev))
        third += third >= np.maximum(x, o_prev)
    else:
        third = o_prev
    np.put(out, moved, np.where(u < kernel.p_ba, x, np.where(u < stay_level, o_prev, third)))
    return out


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
