"""Randomized response and the gradual relaxation of its privacy guarantee.

A randomized response over a domain of ``m`` values retains the true value
with probability ``e^eps / (e^eps + m - 1)`` and emits every other value with
probability ``1 / (e^eps + m - 1)``.  A relaxation step consumes the previous
output ``o_prev`` and a larger privacy parameter, and produces a new output
whose marginal law is exactly the weaker randomized response while the whole
output sequence still leaks no more than the latest parameter allows.

All sampling takes an explicit ``numpy.random.Generator``; every function here
is pure and thread-safe.  Kernels are plain values, and `relax_kernel` is the
only way the library gets one: it validates its arguments, then returns the
kernel from one bounded per-process memo keyed by (eps_prev, eps_next, m).  A
kernel builds its read-only log table on first use and keeps it, so a step is
built once and reused by every later release, likelihood, run and audit that
reaches it.  A `RelaxationChain` carries its running log-likelihood, so
extending one chain and scoring it never re-walk its earlier outputs.

`sample_rr_batch` and `relax_step_batch` draw every batch by one inverse CDF,
and `iter_chain_rounds` draws a batch's whole chains round by round through
the same sampler, checking its inputs once.  The one-object releases,
`start_chain` and `relax_step`, draw through a scalar form of the same
inverse CDF: the same float operations in the same order, proven equal to the
batch sampler on generated and boundary uniforms.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import (
    EPSILON_CAP,
    cap_epsilon,
    check_domain_size,
    check_epsilon,
    check_next_epsilon,
    check_schedule,
    check_value,
    check_values,
)
from .errors import ParameterError

# The largest domain a step's log table may have.  One table holds m**3
# doubles, and building it briefly takes twice that, so 64 values mean a
# 2 MiB table and at most 256 MiB for a full memo of 128 steps.
MAX_DOMAIN = 64

__all__ = [
    "EPSILON_CAP",
    "ResponseDistribution",
    "RelaxKernel",
    "RelaxationChain",
    "rr_distribution",
    "sample_rr_batch",
    "relax_kernel",
    "kernel_tensor",
    "start_chain",
    "relax_step",
    "relax_step_batch",
    "iter_chain_rounds",
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
    which case it is stored as 0.0.
    """

    eps_prev: float
    eps_next: float
    m: int
    p_aa: float
    p_ba: float
    p_bb: float
    p_ab: float
    p_bc: float

    @functools.cached_property
    def log_table(self) -> np.ndarray:
        """Read-only elementwise log of `kernel_tensor`, indexed ``[x, o_prev, o_next]``.

        Impossible transitions hold -inf.  Built on first use and kept with
        the kernel, so every caller of a memoized step shares one array; it
        is stored x-last, so a batch's step gathers each object's (m,)
        entries as one contiguous row.  Refused above ``MAX_DOMAIN`` values.
        """
        if self.m > MAX_DOMAIN:
            raise ParameterError(
                f"m={self.m} exceeds {MAX_DOMAIN}, the largest domain with a step table"
            )
        x_last = np.ascontiguousarray(kernel_tensor(self).transpose(1, 2, 0))
        with np.errstate(divide="ignore"):
            np.log(x_last, out=x_last)
        x_last.setflags(write=False)
        return x_last.transpose(2, 0, 1)

    def __getstate__(self):
        # copies and unpickled kernels rebuild their table read-only on first use
        return {k: v for k, v in self.__dict__.items() if k != "log_table"}


@dataclass(frozen=True)
class RelaxationChain:
    """One object's true value plus the outputs released so far.

    The schedule holds the privacy parameter of every release, first entry
    being the initial randomized response.  Chains are immutable values;
    `relax_step` returns an extended copy.  Each chain also carries the
    read-only (m,) log-likelihood of its outputs under every true value, so
    extending it and scoring it are O(1) in the chain length; the carried
    array takes no part in ``==``, ``hash`` or ``repr``.  A chain built
    directly is validated in full and scored once by `chain_log_likelihoods`.
    """

    true_value: int
    m: int
    schedule: tuple
    outputs: tuple
    _log_likelihood: np.ndarray = field(init=False, repr=False, compare=False)

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
        loglik = chain_log_likelihoods([outputs], schedule, m)[0]
        loglik.setflags(write=False)
        object.__setattr__(self, "_log_likelihood", loglik)

    @classmethod
    def _trusted(cls, true_value, m, schedule, outputs, log_likelihood):
        # Builds a chain from parts already checked (a validated prefix, an ε
        # passed through `relax_kernel`, a sampled output) without
        # re-validating or re-scoring them.
        chain = object.__new__(cls)
        log_likelihood.setflags(write=False)
        chain.__dict__.update(
            true_value=true_value,
            m=m,
            schedule=schedule,
            outputs=outputs,
            _log_likelihood=log_likelihood,
        )
        return chain

    def __reduce__(self):
        # copies and unpickled chains go through `__post_init__`, so their
        # carried array is rebuilt read-only
        return type(self), (self.true_value, self.m, self.schedule, self.outputs)

    @property
    def last_output(self) -> int:
        return self.outputs[-1]

    @property
    def last_epsilon(self) -> float:
        return self.schedule[-1]


def _check_chain(chain) -> None:
    if not isinstance(chain, RelaxationChain):
        raise ParameterError(f"chain must be a RelaxationChain, got {type(chain).__name__}")


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
    return _keep_or_spread(rng.random(values.shape), values, dist.p_retain, dist.p_other, dist.m)


def _keep_or_spread(u, values, p_keep: float, p_each: float, m: int) -> np.ndarray:
    # Inverse CDF at ``u`` of [p_keep at the value][p_each at each other value,
    # ascending]: a randomized response, or a step from the true value.
    if p_each > 0.0:
        idx = np.clip((u - p_keep) / p_each, 0.0, m - 2).astype(np.int64)
        others = idx + (idx >= values)
    else:
        others = values
    return np.where(u < p_keep, values, others)


def _spread_one(u: float, x: int, p_keep: float, p_each: float, m: int) -> int:
    # `_keep_or_spread` for one value and one uniform: Python's float `-`, `/`,
    # `<` and `int()` are the IEEE operations numpy applies elementwise, so
    # the draw is the batch sampler's, bit for bit
    if u < p_keep or not p_each > 0.0:
        return x
    idx = int(min(max((u - p_keep) / p_each, 0.0), m - 2))
    return idx + (idx >= x)


def relax_kernel(eps_prev: float, eps_next: float, m: int) -> RelaxKernel:
    """Transition kernel relaxing an ``eps_prev`` response to ``eps_next``.

    ``eps_next == eps_prev`` yields the identity kernel (the step repeats the
    previous output).  ``eps_next < eps_prev`` is rejected: the guarantee can
    only be relaxed, never tightened.

    Arguments are converted and validated on every call, before the memo is
    consulted: invalid input raises `ParameterError`, a decreasing step
    `BudgetDecreaseError`, and no error is cached.  The kernel then comes
    from the module's step memo: a repeat call returns the identical frozen
    kernel, and with it the log table it has built.  The key is the uncapped
    ε, so ``eps_next`` is exactly what the caller passed.
    """
    eps_prev, eps_next = check_schedule((eps_prev, eps_next), "(eps_prev, eps_next)")
    return _relax_kernel(eps_prev, eps_next, check_domain_size(m))


# 128 entries hold every step of a 50-round schedule; `MAX_DOMAIN` bounds what
# their tables retain.  Longer schedules stay linear in rounds: a run then
# rebuilds each step once per block of trials (`experiments.BLOCK_OBJECTS`).
@functools.lru_cache(maxsize=128)
def _relax_kernel(eps_prev: float, eps_next: float, m: int) -> RelaxKernel:
    # `relax_kernel`'s memoized body, for a validated step and m
    e1 = cap_epsilon(eps_prev)
    e2 = cap_epsilon(eps_next)
    if e1 == e2:
        return RelaxKernel(eps_prev, eps_next, m, 1.0, 0.0, 1.0, 0.0, 0.0)
    exp1 = math.exp(e1)
    denom = math.expm1(e2) * (math.exp(e2) + m - 1)
    # q_ab = (1 - p_aa) / (m - 1); every other entry is a scaled copy of it
    # except p_bb, which has its own all-positive form.
    q_ab = math.expm1(e2 - e1) / denom
    p_aa = 1.0 - (m - 1) * q_ab
    p_ba = math.exp(e1 + e2) * q_ab
    p_bb = (exp1 * math.expm1(e2) + (m - 1) * math.expm1(e1)) / denom
    p_bc = exp1 * q_ab if m > 2 else 0.0
    return RelaxKernel(eps_prev, eps_next, m, p_aa, p_ba, p_bb, q_ab, p_bc)


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
    return _draw_step(kernel, true_values, prev_outputs, rng)


def _draw_step(kernel: RelaxKernel, true_values, prev_outputs, rng) -> np.ndarray:
    # The sampler of `relax_step_batch`, for int64 arrays of one shape in [0, m).
    m = kernel.m
    u = rng.random(true_values.shape)

    # Previous output equals the true value: [p_aa at x][p_ab each other value].
    branch_same = _keep_or_spread(u, true_values, kernel.p_aa, kernel.p_ab, m)

    # Previous output differs: [p_ba at x][p_bb at o_prev][p_bc each remaining].
    stay_level = kernel.p_ba + kernel.p_bb
    if kernel.p_bc > 0.0:  # 0.0 at m = 2, where no third value exists
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


def _draw_one(kernel: RelaxKernel, x: int, o_prev: int, u: float) -> int:
    # `_draw_step` for one object and one uniform, in the same arithmetic as
    # `_spread_one`
    if o_prev == x:
        return _spread_one(u, x, kernel.p_aa, kernel.p_ab, kernel.m)
    if u < kernel.p_ba:
        return x
    stay_level = kernel.p_ba + kernel.p_bb
    if u < stay_level or not kernel.p_bc > 0.0:
        return o_prev
    idx = int(min(max((u - stay_level) / kernel.p_bc, 0.0), kernel.m - 3))
    third = idx + (idx >= min(x, o_prev))
    return third + (third >= max(x, o_prev))


def iter_chain_rounds(true_values, schedule, m: int, rng):
    """Relaxation chains of a batch of objects, sampled one round at a time.

    Yields one (n_objects,) int64 output column per round of ``schedule``: a
    randomized response at ``schedule[0]``, then each later round relaxes the
    previous column by its step, fetched from the step memo as the round
    comes up.  Each round draws one uniform per object, as `sample_rr_batch`
    and `relax_step_batch` do, and only the previous column is kept.
    ``rng`` needs only a ``random(shape)`` method.  Validation runs once, when
    iteration starts; the rounds draw from arrays valid by construction.
    """
    m = check_domain_size(m)
    true_values = check_values(true_values, m, "true_values")
    schedule = check_schedule(schedule)
    dist = rr_distribution(schedule[0], m)
    u = rng.random(true_values.shape)
    out = _keep_or_spread(u, true_values, dist.p_retain, dist.p_other, m)
    yield out
    for eps_prev, eps_next in zip(schedule, schedule[1:]):
        out = _draw_step(_relax_kernel(eps_prev, eps_next, m), true_values, out, rng)
        yield out


def _initial_log_likelihood(first_outputs: np.ndarray, dist: ResponseDistribution) -> np.ndarray:
    # (n,) first outputs -> (n, m) log-probability of each under every true value
    return np.where(
        first_outputs[:, None] == np.arange(dist.m),
        np.log(dist.p_retain),
        np.log(dist.p_other),
    )


def start_chain(true_value: int, m: int, eps: float, rng: np.random.Generator) -> RelaxationChain:
    """Apply the initial randomized response and open a relaxation chain."""
    dist = rr_distribution(eps, m)
    x = check_value(true_value, dist.m, "true_value")
    first = _spread_one(rng.random(), x, dist.p_retain, dist.p_other, dist.m)
    loglik = _initial_log_likelihood(np.array([first]), dist)[0]
    return RelaxationChain._trusted(x, dist.m, (dist.epsilon,), (first,), loglik)


def relax_step(chain: RelaxationChain, eps_next: float, rng: np.random.Generator) -> RelaxationChain:
    """Relax the chain's guarantee to ``eps_next`` and append the sampled output.

    Only the new step is checked and scored: ``eps_next`` must be positive,
    finite and not below the chain's last parameter, which was checked when
    it entered the chain.  The extended chain carries the previous
    log-likelihood plus one log-kernel entry, so a release costs O(1) in the
    chain length.
    """
    _check_chain(chain)
    eps_prev = chain.last_epsilon
    eps_next = check_next_epsilon(
        eps_prev, eps_next, "(eps_prev, eps_next)[1]", "(eps_prev, eps_next)"
    )
    kernel = _relax_kernel(eps_prev, eps_next, chain.m)
    log_table = kernel.log_table  # before the draw: a refused table consumes no randomness
    o_prev = chain.last_output
    o = _draw_one(kernel, chain.true_value, o_prev, rng.random())
    return RelaxationChain._trusted(
        chain.true_value,
        chain.m,
        chain.schedule + (kernel.eps_next,),
        chain.outputs + (o,),
        chain._log_likelihood + log_table[:, o_prev, o],
    )


def _check_batch(outputs, schedule, m: int):
    # A batch of chains as (int64 (n_objects, n_rounds) outputs, schedule tuple, m).
    m = check_domain_size(m)
    outputs = check_values(outputs, m, "outputs")
    schedule = check_schedule(schedule)
    if outputs.ndim != 2 or outputs.shape[1] != len(schedule):
        raise ParameterError("outputs must be (n_objects, n_rounds) matching the schedule")
    return outputs, schedule, m


def _running_log_likelihoods(columns, schedule: tuple, m: int):
    # The likelihood recurrence, for a validated schedule and m.  Takes one
    # (n_objects,) int64 output column in [0, m) per round, as it comes, and
    # yields each column with the running (n_objects, m) log-likelihood after
    # it, updated in place; only the previous column is kept.
    columns = iter(columns)
    prev = next(columns)
    loglik = _initial_log_likelihood(prev, rr_distribution(schedule[0], m))
    yield prev, loglik
    for eps_prev, eps_next, out in zip(schedule, schedule[1:], columns):
        log_table = _relax_kernel(eps_prev, eps_next, m).log_table
        # row o_prev * m + o_next: the step's (m,) entries over the true value
        steps = log_table.transpose(1, 2, 0).reshape(m * m, m)
        loglik += np.take(steps, prev * m + out, axis=0)
        yield out, loglik
        prev = out


def iter_log_likelihoods(outputs, schedule, m: int):
    """Running log-probability of each chain's outputs so far, given every true value.

    ``outputs`` has shape (n_objects, n_rounds) under one shared ``schedule``.
    Yields one (n_objects, m) array per round: the initial response's
    log-probability, then one log kernel entry added per step (-inf where a
    repeated parameter's deterministic step is contradicted).  By
    collusion-proofness the likelihood is a running product, so R rounds cost
    O(R).  The same array is updated in place; copy a round to keep it.

    Each step's log table comes from the module's step memo, so batches and
    posteriors scored under one schedule build each step once per process.
    Validation runs once, when iteration starts.
    """
    outputs, schedule, m = _check_batch(outputs, schedule, m)
    for _, loglik in _running_log_likelihoods(outputs.T, schedule, m):
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
