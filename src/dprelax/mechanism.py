"""Randomized response and the gradual relaxation of its privacy guarantee.

A randomized response over a domain of ``m`` values retains the true value
with probability ``e^eps / (e^eps + m - 1)`` and emits every other value with
probability ``1 / (e^eps + m - 1)``.  A relaxation step consumes the previous
output ``o_prev`` and a larger privacy parameter, and produces a new output
whose marginal law is exactly the weaker randomized response while the whole
output sequence still leaks no more than the latest parameter allows.  An
output at ε = 0 says nothing of the true value, so every release is a
relaxation step: the first is the step from ε = 0, whose output is the
randomized response at the first parameter.  `_plan` alone builds a
schedule's steps, for the sampler, the likelihood, the attacks and the audit.

All sampling takes an explicit ``numpy.random.Generator``; every function here
is pure and thread-safe.  A `ResponseDistribution` or `RelaxKernel` is built
from its ε and m alone, and checked then: a function given one checks only
its type.  Kernels are kept in one bounded per-process memo keyed by
(eps_prev, eps_next, m), which is the class itself.  `relax_kernel` is the
public way in: it validates its arguments, then returns the memo's kernel.
The library's own steps are valid by construction, so its samplers, its
likelihood, its one-object release and, through `_log_tables`, the audit
read the memo directly.  A kernel is its five named entries and keeps no
table: each table of a step is one gather of those five through
`_entry_classes`, a read-only pattern per domain size.  A `RelaxationChain`
carries its running log-likelihood, so extending one chain and scoring it
never re-walk its earlier outputs.

Every batch is drawn by one inverse CDF, `relax_step_batch`'s: a randomized
response (`sample_rr_batch`) is the step from ε = 0, and `iter_chain_rounds`
draws a batch's whole chains round by round through it, checking its inputs
once.  The draw is by jump levels: an object whose uniform falls below its
branch's first level past x and o_prev (p_aa where o_prev is x, p_ba + p_bb
where it is not) keeps x or o_prev, read off one comparison with p_ba for the
whole batch, and only the objects at or above it compute the value they jump
to.  The one-object releases, `start_chain` and `relax_step`, share one
release body that draws through a scalar form of the same inverse CDF: the
same float operations in the same order, proven equal to the batch sampler on
generated and boundary uniforms.  A chain and its likelihoods take m up to
`MAX_DOMAIN`; the batch samplers and the kernel take any m up to 2**53.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import (
    EPSILON_CAP,
    MAX_DOMAIN,
    as_float,
    as_sequence,
    cap_epsilon,
    check_domain_size,
    check_epsilon,
    check_instance,
    check_next_epsilon,
    check_schedule,
    check_table_domain,
    check_value,
    check_values,
    read_only,
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
    """Randomized-response distribution for privacy parameter ``epsilon`` over ``m`` values.

    ``epsilon`` > 0, in nats, is capped above ``EPSILON_CAP``, where the retain
    probability is 1.0 anyway; ``m`` >= 2.  Both probabilities are set when built.
    """

    epsilon: float
    m: int
    p_retain: float = field(init=False)
    p_other: float = field(init=False)

    def __post_init__(self):
        eps, m = check_epsilon(self.epsilon), check_domain_size(self.m)
        w = math.exp(-cap_epsilon(eps))
        denom = 1.0 + (m - 1) * w
        self.__dict__.update(epsilon=eps, m=m, p_retain=1.0 / denom, p_other=w / denom)


rr_distribution = ResponseDistribution


@dataclass(frozen=True)
class RelaxKernel:
    """Conditional law of one relaxation step given the previous output.

    Entry names use two subscript letters for (previous output, next output),
    classified relative to the true value: ``a`` is the true value, ``b`` is
    the previous output when it differs from the true value, and ``c`` is any
    remaining value.  ``p_ab`` and ``p_bc`` follow from the named entries by
    symmetry; ``p_bc`` does not exist for m = 2 (there is no third class), in
    which case it is stored as 0.0.  All five are set when the kernel is built.

    A kernel with ``eps_prev == 0`` is the randomized response at
    ``eps_next``, whatever the previous output: a chain's first release, the
    batch draw of `sample_rr_batch`, and the audit's first enumerated round.
    It is internal to the library; `relax_kernel` refuses a zero
    ``eps_prev``.
    """

    eps_prev: float
    eps_next: float
    m: int
    p_aa: float = field(init=False)
    p_ba: float = field(init=False)
    p_bb: float = field(init=False)
    p_ab: float = field(init=False)
    p_bc: float = field(init=False)

    def __post_init__(self):
        eps_prev = as_float(self.eps_prev, "eps_prev")
        if eps_prev != 0.0:  # zero is the step from ε = 0
            eps_prev = check_epsilon(eps_prev, "eps_prev")
        eps_next = check_next_epsilon(eps_prev, self.eps_next, "eps_next", "(eps_prev, eps_next)")
        m = check_domain_size(self.m)
        e1, e2 = cap_epsilon(eps_prev), cap_epsilon(eps_next)
        if e1 == 0.0:
            # the randomized response at eps_next, from its two probabilities
            # (the general form below differs in the last bit); tested before
            # the identity, which a zero eps_next would otherwise be
            rr = rr_distribution(eps_next, m)
            entries = rr.p_retain, rr.p_retain, rr.p_other, rr.p_other, rr.p_other if m > 2 else 0.0
        elif e1 == e2:
            entries = 1.0, 0.0, 1.0, 0.0, 0.0
        else:
            exp1 = math.exp(e1)
            denom = math.expm1(e2) * (math.exp(e2) + m - 1)
            # q_ab = (1 - p_aa) / (m - 1); every other entry is a scaled copy
            # of it except p_bb, which has its own all-positive form.
            q_ab = math.expm1(e2 - e1) / denom
            p_aa = 1.0 - (m - 1) * q_ab
            p_ba = math.exp(e1 + e2) * q_ab
            p_bb = (exp1 * math.expm1(e2) + (m - 1) * math.expm1(e1)) / denom
            entries = p_aa, p_ba, p_bb, q_ab, exp1 * q_ab if m > 2 else 0.0
        self.__dict__.update(zip(self.__dataclass_fields__, (eps_prev, eps_next, m, *entries)))

    @property
    def log_table(self) -> np.ndarray:
        """Read-only elementwise log of `kernel_tensor`, indexed ``[x, o_prev, o_next]``.

        Impossible transitions hold -inf.  Gathered fresh from the kernel's
        five logs on each access; refused above ``MAX_DOMAIN`` values.
        """
        return read_only(self._log_entries[_entry_classes(self.m).transpose(2, 0, 1)])

    @functools.cached_property
    def _log_entries(self) -> np.ndarray:
        # read-only logs of the five entries, in `_entry_classes` code order
        with np.errstate(divide="ignore"):
            return read_only(np.log(_entries(self)))

    def __getstate__(self):
        # copies and unpickled kernels take their logs afresh, read-only
        return {k: v for k, v in self.__dict__.items() if k != "_log_entries"}


@dataclass(frozen=True)
class RelaxationChain:
    """One object's true value plus the outputs released so far.

    The schedule holds the privacy parameter of every release, first entry
    being the initial randomized response; m is at most `MAX_DOMAIN`.
    Chains are immutable values; `relax_step` returns an extended copy.  Each
    chain also carries the read-only (m,) log-likelihood of its outputs under
    every true value, so scoring it, and updating that likelihood on an
    extension, are O(1) in the chain length; the extension's copy of the
    ``outputs`` and ``schedule`` tuples is not.  The carried array takes no
    part in ``==``, ``hash`` or ``repr``.
    A chain built directly is validated in full and scored once by
    `chain_log_likelihoods`.
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
        outputs = tuple(check_value(o, m, "output") for o in as_sequence(self.outputs, "outputs"))
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
        # Builds a chain from parts already checked (a validated prefix, a
        # checked ε, a sampled output) without re-validating or re-scoring them.
        log_likelihood.setflags(False)  # write=False, without a keyword to parse
        chain = object.__new__(cls)
        fields = chain.__dict__
        fields["true_value"] = true_value
        fields["m"] = m
        fields["schedule"] = schedule
        fields["outputs"] = outputs
        fields["_log_likelihood"] = log_likelihood
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


def sample_rr_batch(values, dist: ResponseDistribution, rng: np.random.Generator) -> np.ndarray:
    """Vectorized randomized response; one uniform draw per input value.

    The draw is the relaxation step from ε = 0 to ``dist.epsilon`` over
    ``dist.m`` values, whose first-step kernel holds ``dist``'s probabilities.
    """
    check_instance(dist, ResponseDistribution, "dist")
    values = check_values(values, dist.m, "values")
    return _draw_step(_relax_kernel(0.0, dist.epsilon, dist.m), values, values, rng)


def relax_kernel(eps_prev: float, eps_next: float, m: int) -> RelaxKernel:
    """Transition kernel relaxing an ``eps_prev`` response to ``eps_next``.

    ``eps_next == eps_prev`` yields the identity kernel (the step repeats the
    previous output).  ``eps_next < eps_prev`` is rejected: the guarantee can
    only be relaxed, never tightened.

    Arguments are converted and validated on every call, before the memo is
    consulted: invalid input raises `ParameterError`, a decreasing step
    `BudgetDecreaseError`, and no error is cached.  The kernel then comes
    from the module's step memo: a repeat call returns the identical frozen
    kernel, and with it the logs of its five entries.  The key is the
    uncapped ε, so ``eps_next`` is exactly what the caller passed.
    """
    eps_prev, eps_next = check_schedule((eps_prev, eps_next), "(eps_prev, eps_next)")
    return _relax_kernel(eps_prev, eps_next, check_domain_size(m))


# An entry holds a kernel's scalars and its five logs, about 0.7 KB at any m.
# The audit battery walks 2250 distinct steps, 180 of them from ε = 0, so
# 4096 entries (2.7 MB) keep a whole battery, or a run of up to 4096 rounds,
# built once per process.  For a validated step and m, or the step from ε = 0.
_relax_kernel = functools.lru_cache(maxsize=4096)(RelaxKernel)


def _entries(kernel: RelaxKernel) -> np.ndarray:
    # the five entries, in `_entry_classes` code order
    return np.array([kernel.p_aa, kernel.p_ba, kernel.p_bb, kernel.p_ab, kernel.p_bc])


@functools.cache
def _entry_classes(m: int) -> np.ndarray:
    """Read-only codes of the entry each conditional ``[o_prev, o_next, x]``
    holds: 0 to 4 for p_aa, p_ba, p_bb, p_ab and p_bc.  Stored x-last, so a row
    over the true value is contiguous, and as intp, so a gather casts nothing.
    Refused above ``MAX_DOMAIN`` values, before any allocation."""
    check_table_domain(m)
    o_prev, o_next, x = np.ogrid[:m, :m, :m]
    same, hit = o_prev == x, o_next == x
    return read_only(np.select([same & hit, same, hit, o_next == o_prev], [0, 3, 1, 2], 4))


def _log_tables(steps, m: int) -> np.ndarray:
    """The stacked log tables of validated ``(eps_prev, eps_next)`` steps over
    m values, each indexed ``[x, o_prev, o_next]`` as `RelaxKernel.log_table`:
    one gather of the memo's five logs per step.  A step from ε = 0 is
    allowed.  Refused above ``MAX_DOMAIN`` values, before the memo."""
    classes = _entry_classes(m).transpose(2, 0, 1)
    return np.stack([_relax_kernel(a, b, m)._log_entries for a, b in steps])[:, classes]


def kernel_tensor(kernel: RelaxKernel) -> np.ndarray:
    """All conditionals of a kernel as an array indexed ``[x, o_prev, o_next]``."""
    check_instance(kernel, RelaxKernel, "kernel")
    return _entries(kernel)[_entry_classes(kernel.m).transpose(2, 0, 1)]


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
    check_instance(kernel, RelaxKernel, "kernel")
    true_values = check_values(true_values, kernel.m, "true_values")
    prev_outputs = check_values(prev_outputs, kernel.m, "prev_outputs")
    if true_values.shape != prev_outputs.shape:
        raise ParameterError("true_values and prev_outputs must have the same shape")
    return _draw_step(kernel, true_values, prev_outputs, rng)


def _draw_step(kernel: RelaxKernel, true_values, prev_outputs, rng) -> np.ndarray:
    # The sampler of `relax_step_batch`, for int64 arrays of one shape in [0, m),
    # worked on flat views.  Each branch of the inverse CDF is a run of levels:
    #   o_prev == x: [p_aa at x][p_ab each other value];
    #   o_prev != x: [p_ba at x][p_bb at o_prev][p_bc each remaining value].
    # Below its branch's jump level (p_aa, or p_ba + p_bb) an object takes x or
    # o_prev, which one `np.where` on p_ba gives every object at once (where
    # o_prev == x both are x).  Only the objects at or above it jump to another
    # value, computed on those objects alone by each branch's float operations.
    m, shape = kernel.m, true_values.shape
    x, o_prev = true_values.reshape(-1), prev_outputs.reshape(-1)
    u = rng.random(shape).reshape(-1)
    stay_level = kernel.p_ba + kernel.p_bb
    jump = np.flatnonzero(u >= np.where(o_prev != x, stay_level, kernel.p_aa))
    out = np.where(u < kernel.p_ba, x, o_prev)
    if jump.size:
        x, o_prev, u = x[jump], o_prev[jump], u[jump]
        # p_ab is 0.0 only on an identity step, whose levels are 1.0: no jumps
        idx = np.clip((u - kernel.p_aa) / kernel.p_ab, 0.0, m - 2).astype(np.int64)
        other = idx + (idx >= x)
        if kernel.p_bc > 0.0:  # 0.0 at m = 2, where no third value exists
            idx = np.clip((u - stay_level) / kernel.p_bc, 0.0, m - 3).astype(np.int64)
            third = idx + (idx >= np.minimum(x, o_prev))
            third += third >= np.maximum(x, o_prev)
        else:
            third = o_prev
        out[jump] = np.where(o_prev == x, other, third)
    return out.reshape(shape)


def _draw_one(kernel: RelaxKernel, x: int, o_prev: int, u: float) -> int:
    # `_draw_step` for one object and one uniform: Python's float `-`, `/`,
    # `<` and `int()` are the IEEE operations numpy applies elementwise, so
    # the draw is the batch sampler's, bit for bit
    if o_prev == x:
        if u < kernel.p_aa or not kernel.p_ab > 0.0:
            return x
        idx = int(min(max((u - kernel.p_aa) / kernel.p_ab, 0.0), kernel.m - 2))
        return idx + (idx >= x)
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

    Yields one (n_objects,) int64 output column per round of ``schedule``:
    each round relaxes the previous column by its step, fetched from the step
    memo as the round comes up.  The first round is the step from ε = 0 and
    the true values, which draws the randomized response at ``schedule[0]``.
    Each round draws one uniform per object, as `sample_rr_batch` and
    `relax_step_batch` do, and only the previous column is kept.
    ``rng`` needs only a ``random(shape)`` method.  Validation runs once, when
    iteration starts; the rounds draw from arrays valid by construction.
    """
    m = check_domain_size(m)
    true_values = check_values(true_values, m, "true_values")
    out = true_values
    for eps_prev, eps_next in _plan(check_schedule(schedule)):
        out = _draw_step(_relax_kernel(eps_prev, eps_next, m), true_values, out, rng)
        yield out


def start_chain(true_value: int, m: int, eps: float, rng: np.random.Generator) -> RelaxationChain:
    """Open a relaxation chain with its first release, a randomized response at ``eps``.

    The release is the relaxation step from ε = 0, drawn and scored as
    `relax_step` draws and scores a later one.  ``eps``, ``m`` and
    ``true_value`` are checked in that order; then m above `MAX_DOMAIN` is
    refused, before any draw.
    """
    eps = check_epsilon(eps)
    m = check_domain_size(m)
    x = check_value(true_value, m, "true_value")
    return _release(x, m, (), (), 0.0, 0.0, x, eps, rng)


def relax_step(chain: RelaxationChain, eps_next: float, rng: np.random.Generator) -> RelaxationChain:
    """Relax the chain's guarantee to ``eps_next`` and append the sampled output.

    Only the new step is checked and scored: ``eps_next`` must be positive,
    finite and not below the chain's last parameter, which was checked when
    it entered the chain.  The extended chain carries the previous
    log-likelihood plus one log-kernel entry, an O(1) update; copying the
    ``outputs`` and ``schedule`` tuples makes a release O(R) in the chain
    length R.
    """
    check_instance(chain, RelaxationChain, "chain")
    eps_prev = chain.last_epsilon
    eps_next = check_next_epsilon(
        eps_prev, eps_next, "(eps_prev, eps_next)[1]", "(eps_prev, eps_next)"
    )
    return _release(
        chain.true_value, chain.m, chain.schedule, chain.outputs, chain._log_likelihood,
        eps_prev, chain.last_output, eps_next, rng,
    )


def _release(x, m, schedule, outputs, loglik, eps_prev, o_prev, eps_next, rng) -> RelaxationChain:
    # The chain of checked parts extended by one release: one output drawn
    # from the step (eps_prev, eps_next) and one gathered row added to its
    # log-likelihood.  Before the first release the parts are (), () and 0.0,
    # and the step is from ε = 0 and o_prev = x.
    classes = _entry_classes(m)  # refuses m above MAX_DOMAIN, before the draw
    kernel = _relax_kernel(eps_prev, eps_next, m)
    o = _draw_one(kernel, x, o_prev, rng.random())
    loglik_next = kernel._log_entries[classes[o_prev, o]]  # a fresh gather, so added to in place
    loglik_next += loglik
    return RelaxationChain._trusted(x, m, schedule + (eps_next,), outputs + (o,), loglik_next)


def _plan(schedule: tuple) -> tuple:
    # A validated schedule's (eps_prev, eps_next) steps, the first from ε = 0.
    return tuple(zip((0.0,) + schedule, schedule))


def _check_batch(outputs, schedule, m: int):
    # A batch of chains as (int64 (n_objects, n_rounds) outputs, its plan, m).
    m = check_domain_size(m)
    outputs = check_values(outputs, m, "outputs")
    schedule = check_schedule(schedule)
    if outputs.ndim != 2 or outputs.shape[1] != len(schedule):
        raise ParameterError("outputs must be (n_objects, n_rounds) matching the schedule")
    return outputs, _plan(schedule), m


def _running_log_likelihoods(columns, plan: tuple, m: int):
    # The likelihood recurrence, for a plan of valid steps and m.  Takes one
    # (n_objects,) int64 output column in [0, m) per step, as it comes, and
    # yields each column with the running (n_objects, m) log-likelihood after
    # it, updated in place from the first step's; only the previous column is
    # kept.  A plan's first step, from ε = 0, has the same rows at any o_prev.
    classes = _entry_classes(m)  # refuses m above MAX_DOMAIN, before the memo
    loglik, prev = 0.0, 0
    for (eps_prev, eps_next), out in zip(plan, columns):
        # row o_prev * m + o_next: the step's (m,) log entries over the true value
        steps = _relax_kernel(eps_prev, eps_next, m)._log_entries[classes]
        loglik += np.take(steps.reshape(m * m, m), prev * m + out, axis=0)
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

    Each step's kernel comes from the module's step memo, so batches and
    posteriors scored under one schedule build each step once per process.
    Validation runs once, when iteration starts.
    """
    outputs, plan, m = _check_batch(outputs, schedule, m)
    for _, loglik in _running_log_likelihoods(outputs.T, plan, m):
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
    loglik = chain_log_likelihoods([as_sequence(outputs, "outputs")], schedule, m)[0]
    return float(np.exp(loglik[check_value(x, loglik.size, "x")]))
