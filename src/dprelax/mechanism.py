"""Randomized response and the gradual relaxation of its privacy guarantee.

A randomized response over a domain of ``m`` values retains the true value
with probability ``e^eps / (e^eps + m - 1)`` and emits every other value with
probability ``1 / (e^eps + m - 1)``.  A relaxation step consumes the previous
output ``o_prev`` and a larger privacy parameter, and produces a new output
whose marginal law is exactly the weaker randomized response while the whole
output sequence still leaks no more than the latest parameter allows.

All sampling takes an explicit ``numpy.random.Generator``; every function here
is pure and thread-safe.  Kernels are plain values.  Every step the library
takes or scores gets its kernel and log tensor from one bounded per-process
memo keyed by the validated (eps_prev, eps_next, m), so a step is built once
and reused by every later release, posterior, run and audit that reaches it;
`relax_kernel`, `kernel_tensor` and `log_kernel_tensor` still build afresh.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._util import (
    EPSILON_CAP,
    cap_epsilon,
    check_domain_size,
    check_epsilon,
    check_schedule,
    check_value,
    check_values,
)
from .errors import ParameterError

__all__ = [
    "EPSILON_CAP",
    "ResponseDistribution",
    "RelaxKernel",
    "RelaxationChain",
    "rr_distribution",
    "sample_rr_batch",
    "relax_kernel",
    "kernel_conditional",
    "kernel_tensor",
    "log_kernel_tensor",
    "start_chain",
    "relax_step",
    "relax_step_batch",
    "iter_log_likelihoods",
    "chain_log_likelihoods",
    "chain_likelihood",
]


@dataclass(frozen=True)
class ResponseDistribution:
    """Retain/other probability pair of a randomized response."""

    epsilon: float
    m: int
    p_retain: float
    p_other: float


@dataclass(frozen=True)
class RelaxKernel:
    """Conditional law of one relaxation step given the previous output.

    Entry names use two subscript letters for (previous output, next output),
    classified relative to the true value: ``a`` is the true value, ``b`` is
    the previous output when it differs from the true value, and ``c`` is any
    remaining value.  ``p_ab`` and ``p_bc`` follow from the named entries by
    symmetry; ``p_bc`` does not exist for m = 2 (there is no third class), in
    which case it is stored as 0.0 and ``has_third_class`` is False.
    """

    eps_prev: float
    eps_next: float
    m: int
    p_aa: float
    p_ba: float
    p_bb: float
    p_ab: float
    p_bc: float
    has_third_class: bool


@dataclass(frozen=True)
class RelaxationChain:
    """One object's true value plus the outputs released so far.

    The schedule holds the privacy parameter of every release, first entry
    being the initial randomized response.  Chains are immutable values;
    `relax_step` returns an extended copy.
    """

    true_value: int
    m: int
    schedule: tuple
    outputs: tuple

    def __post_init__(self):
        m = check_domain_size(self.m)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "true_value", check_value(self.true_value, m, "true_value"))
        schedule = check_schedule(self.schedule)
        outputs = tuple(check_value(o, m, "output") for o in self.outputs)
        if len(schedule) != len(outputs):
            raise ParameterError(
                f"schedule ({len(schedule)}) and outputs ({len(outputs)}) must be of equal length"
            )
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "outputs", outputs)

    @property
    def last_output(self) -> int:
        return self.outputs[-1]

    @property
    def last_epsilon(self) -> float:
        return self.schedule[-1]


def rr_distribution(eps: float, m: int) -> ResponseDistribution:
    """Randomized-response distribution for privacy parameter ``eps`` over ``m`` values.

    Args:
        eps: Privacy parameter in nats, > 0. Values above ``EPSILON_CAP`` are
            capped; the retain probability is then 1.0 in double precision.
        m: Domain size, >= 2.
    """
    eps = check_epsilon(eps)
    m = check_domain_size(m)
    w = math.exp(-cap_epsilon(eps))
    denom = 1.0 + (m - 1) * w
    return ResponseDistribution(epsilon=eps, m=m, p_retain=1.0 / denom, p_other=w / denom)


def sample_rr_batch(values, dist: ResponseDistribution, rng: np.random.Generator) -> np.ndarray:
    """Vectorized randomized response; one uniform draw per input value."""
    values = check_values(values, dist.m, "values")
    u = rng.random(values.shape)
    keep = u < dist.p_retain
    if dist.p_other > 0.0:
        idx = np.clip((u - dist.p_retain) / dist.p_other, 0.0, dist.m - 2).astype(np.int64)
        others = idx + (idx >= values)
    else:
        others = values
    return np.where(keep, values, others)


def _check_step(eps_prev: float, eps_next: float, m: int):
    # a step is a two-entry schedule
    return (*check_schedule((eps_prev, eps_next), "(eps_prev, eps_next)"), check_domain_size(m))


def relax_kernel(eps_prev: float, eps_next: float, m: int) -> RelaxKernel:
    """Transition kernel relaxing an ``eps_prev`` response to ``eps_next``.

    ``eps_next == eps_prev`` yields the identity kernel (the step repeats the
    previous output).  ``eps_next < eps_prev`` is rejected: the guarantee can
    only be relaxed, never tightened.
    """
    eps_prev, eps_next, m = _check_step(eps_prev, eps_next, m)
    e1 = cap_epsilon(eps_prev)
    e2 = cap_epsilon(eps_next)
    if e1 == e2:
        return RelaxKernel(eps_prev, eps_next, m, 1.0, 0.0, 1.0, 0.0, 0.0, m > 2)
    exp1 = math.exp(e1)
    denom = math.expm1(e2) * (math.exp(e2) + m - 1)
    # q_ab = (1 - p_aa) / (m - 1); every other entry is a scaled copy of it
    # except p_bb, which has its own all-positive form.
    q_ab = math.expm1(e2 - e1) / denom
    p_aa = 1.0 - (m - 1) * q_ab
    p_ba = math.exp(e1 + e2) * q_ab
    p_bb = (exp1 * math.expm1(e2) + (m - 1) * math.expm1(e1)) / denom
    p_bc = exp1 * q_ab if m > 2 else 0.0
    return RelaxKernel(eps_prev, eps_next, m, p_aa, p_ba, p_bb, q_ab, p_bc, m > 2)


def kernel_conditional(kernel: RelaxKernel, x: int, o_prev: int) -> np.ndarray:
    """Distribution of the next output given true value ``x`` and previous output."""
    m = kernel.m
    x = check_value(x, m, "x")
    o_prev = check_value(o_prev, m, "o_prev")
    probs = np.empty(m)
    if o_prev == x:
        probs.fill(kernel.p_ab)
        probs[x] = kernel.p_aa
    else:
        probs.fill(kernel.p_bc)
        probs[x] = kernel.p_ba
        probs[o_prev] = kernel.p_bb
    return probs


def kernel_tensor(kernel: RelaxKernel) -> np.ndarray:
    """All conditionals of a kernel as an array indexed ``[x, o_prev, o_next]``."""
    m = kernel.m
    t = np.full((m, m, m), kernel.p_bc)
    ar = np.arange(m)
    t[:, ar, ar] = kernel.p_bb
    t[ar, :, ar] = kernel.p_ba
    t[ar, ar, :] = kernel.p_ab
    t[ar, ar, ar] = kernel.p_aa
    return t


def log_kernel_tensor(kernel: RelaxKernel) -> np.ndarray:
    """Elementwise log of `kernel_tensor`; impossible transitions hold -inf."""
    with np.errstate(divide="ignore"):
        return np.log(kernel_tensor(kernel))


# 128 entries hold every step of a 50-round schedule; at m = 10 a full memo
# retains about 1 MB.  Longer schedules stay linear in rounds: a run then
# rebuilds each step once per trial.
@functools.lru_cache(maxsize=128)
def _built_step_kernel(eps_prev: float, eps_next: float, m: int):
    kernel = relax_kernel(eps_prev, eps_next, m)
    log_tensor = log_kernel_tensor(kernel)
    log_tensor.setflags(write=False)  # one array is shared by every caller
    return kernel, log_tensor


def _step_kernel(eps_prev: float, eps_next: float, m: int):
    """The memoized (`relax_kernel`, read-only `log_kernel_tensor`) of one unvalidated step.

    Arguments are validated before the lookup, so unhashable or invalid input
    raises `ParameterError` and a decreasing step `BudgetDecreaseError` on
    every call; errors are never cached.  The key is the uncapped ε, so the
    kernel's ``eps_next`` is exactly what the caller passed.  Code that has
    validated a whole schedule and ``m`` reads `_built_step_kernel` directly.
    """
    return _built_step_kernel(*_check_step(eps_prev, eps_next, m))


def relax_step_batch(
    kernel: RelaxKernel,
    true_values,
    prev_outputs,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized relaxation step; one uniform draw per object.

    Sampling is inverse-CDF over the (at most three-level) conditional: the
    candidate order is [true value][previous output][remaining values
    ascending], which makes runs reproducible from the generator state alone.
    """
    m = kernel.m
    true_values = check_values(true_values, m, "true_values")
    prev_outputs = check_values(prev_outputs, m, "prev_outputs")
    if true_values.shape != prev_outputs.shape:
        raise ParameterError("true_values and prev_outputs must have the same shape")
    u = rng.random(true_values.shape)

    # Previous output equals the true value: [p_aa at x][p_ab each other value].
    if kernel.p_ab > 0.0:
        idx = np.clip((u - kernel.p_aa) / kernel.p_ab, 0.0, m - 2).astype(np.int64)
        spread = idx + (idx >= true_values)
    else:
        spread = true_values
    branch_same = np.where(u < kernel.p_aa, true_values, spread)

    # Previous output differs: [p_ba at x][p_bb at o_prev][p_bc each remaining].
    stay_level = kernel.p_ba + kernel.p_bb
    if kernel.has_third_class and kernel.p_bc > 0.0:
        idx = np.clip((u - stay_level) / kernel.p_bc, 0.0, m - 3).astype(np.int64)
        lo = np.minimum(true_values, prev_outputs)
        hi = np.maximum(true_values, prev_outputs)
        third = idx + (idx >= lo)
        third += third >= hi
    else:
        third = prev_outputs
    branch_diff = np.where(
        u < kernel.p_ba, true_values, np.where(u < stay_level, prev_outputs, third)
    )

    return np.where(prev_outputs == true_values, branch_same, branch_diff)


def start_chain(true_value: int, m: int, eps: float, rng: np.random.Generator) -> RelaxationChain:
    """Apply the initial randomized response and open a relaxation chain."""
    dist = rr_distribution(eps, m)
    x = check_value(true_value, dist.m, "true_value")
    o1 = int(sample_rr_batch(np.array([x], dtype=np.int64), dist, rng)[0])
    return RelaxationChain(true_value=x, m=dist.m, schedule=(dist.epsilon,), outputs=(o1,))


def relax_step(chain: RelaxationChain, eps_next: float, rng: np.random.Generator) -> RelaxationChain:
    """Relax the chain's guarantee to ``eps_next`` and append the sampled output."""
    kernel, _ = _step_kernel(chain.last_epsilon, eps_next, chain.m)
    o = int(
        relax_step_batch(
            kernel,
            np.array([chain.true_value], dtype=np.int64),
            np.array([chain.last_output], dtype=np.int64),
            rng,
        )[0]
    )
    return RelaxationChain(
        true_value=chain.true_value,
        m=chain.m,
        schedule=chain.schedule + (kernel.eps_next,),
        outputs=chain.outputs + (o,),
    )


def iter_log_likelihoods(outputs, schedule, m: int):
    """Running log-probability of each chain's outputs so far, given every true value.

    ``outputs`` has shape (n_objects, n_rounds) under one shared ``schedule``.
    Yields one (n_objects, m) array per round: the initial response's
    log-probability, then one log kernel entry added per step (-inf where a
    repeated parameter's deterministic step is contradicted).  By
    collusion-proofness the likelihood is a running product, so R rounds cost
    O(R).  The same array is updated in place; copy a round to keep it.

    Each step's log tensor comes from the module's step memo, so batches and
    posteriors scored under one schedule build each step once per process.
    Validation runs once, when iteration starts.
    """
    m = check_domain_size(m)
    outputs = check_values(outputs, m, "outputs")
    schedule = check_schedule(schedule)
    if outputs.ndim != 2 or outputs.shape[1] != len(schedule):
        raise ParameterError("outputs must be (n_objects, n_rounds) matching the schedule")

    dist = rr_distribution(schedule[0], m)
    loglik = np.where(
        outputs[:, 0][:, None] == np.arange(m),
        np.log(dist.p_retain),
        np.log(dist.p_other),
    )
    yield loglik
    for i in range(1, outputs.shape[1]):
        _, log_tensor = _built_step_kernel(schedule[i - 1], schedule[i], m)
        loglik += log_tensor[:, outputs[:, i - 1], outputs[:, i]].T
        yield loglik


def chain_log_likelihoods(outputs, schedule, m: int) -> np.ndarray:
    """Log-probability of each chain's full output sequence given every true value.

    The final state of `iter_log_likelihoods`: shape (n_objects, m).
    """
    for loglik in iter_log_likelihoods(outputs, schedule, m):
        pass
    return loglik


def chain_likelihood(outputs, schedule, m: int, x: int) -> float:
    """Probability of the full output sequence given ``x``: a one-row `chain_log_likelihoods`."""
    loglik = chain_log_likelihoods([list(outputs)], schedule, m)[0]
    return float(np.exp(loglik[check_value(x, loglik.size, "x")]))
