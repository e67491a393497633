"""Exhaustive small-instance auditors for the relaxation chain's privacy claims.

Everything here re-derives distributional facts by enumerating every possible
output sequence and taking worst cases numerically, instead of trusting the
closed-form algebra behind the kernels.  A bug in the kernel formulas and a
bug in these enumerations would have to coincide for a check to pass wrongly.

Enumeration is batched: one core enumerates equal-length schedules together,
and the public auditors are one-row calls into it.  The standard battery
enumerates its cases by domain size and length, in bounded chunks.

Conventions: sequences a schedule cannot produce (a repeated privacy
parameter makes the step deterministic) carry zero probability for every
input alike; log-ratios are taken over jointly supported outcomes only, and a
deterministic step therefore audits to 0.  Mixed support, where one input can
produce a sequence another cannot, is reported as an infinite log-ratio.
"""

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from ._util import check_domain_size, check_rounds, check_schedule
from .errors import EnumerationLimitError
from .mechanism import relax_kernel, rr_distribution
from .rappor import RapporParams, eps_noisy_sampling, rappor_params

__all__ = [
    "MAX_SEQUENCES",
    "BOUND_TOL",
    "CompositionAudit",
    "AuditCheck",
    "chain_log_probs",
    "audit_composition_ldp",
    "audit_step_epsilon",
    "audit_noisy_sampling_epsilon",
    "run_standard_audits",
]

# Enumeration cap: m ** n above this errors out rather than sampling.
MAX_SEQUENCES = 10**6

# Attainment tolerance for worst-case log-ratios.
BOUND_TOL = 1e-10

# Most doubles in one (schedules, m, m**n) array of the battery: its memory bound.
_BATCH_DOUBLES = 2**14


@dataclass(frozen=True)
class CompositionAudit:
    """Worst-case log-ratio of a whole output sequence across inputs."""

    epsilon_target: float
    max_log_ratio: float

    @property
    def attained(self) -> bool:
        """Whether the worst case sits within ``BOUND_TOL`` of the target."""
        return abs(self.max_log_ratio - self.epsilon_target) <= BOUND_TOL


@dataclass(frozen=True)
class AuditCheck:
    """One named check of the standard audit battery."""

    name: str
    worst: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.bound


def _rr_matrices(epsilons, m: int) -> np.ndarray:
    # each randomized response as an (m, m) matrix, indexed [x, output]; a
    # batch repeats its ε, so each distinct one is built once, then gathered
    dists = {eps: rr_distribution(eps, m) for eps in set(epsilons)}
    retain, other = np.array([(dists[eps].p_retain, dists[eps].p_other) for eps in epsilons]).T
    matrices = np.empty((len(epsilons), m, m))
    matrices[:] = other[:, None, None]
    matrices[:, np.arange(m), np.arange(m)] = retain[:, None]
    return matrices


def _log_tables(steps, m: int) -> np.ndarray:
    # the memoized log tables of the (eps_prev, eps_next) ``steps``, stacked
    return np.stack([relax_kernel(eps_prev, eps_next, m).log_table for eps_prev, eps_next in steps])


def chain_log_probs(schedule, m: int) -> np.ndarray:
    """Log joint probability of every output sequence, for every input.

    Returns an array of shape (m, m**n): row x holds log Pr of each sequence
    given true value x.  Sequences are ordered lexicographically with the
    first output varying slowest; impossible sequences hold -inf.
    """
    schedule = check_schedule(schedule)
    m = check_domain_size(m)
    n = len(schedule)
    if m**n > MAX_SEQUENCES:
        raise EnumerationLimitError(
            f"{m}**{n} sequences exceed the enumeration cap of {MAX_SEQUENCES}"
        )
    return _chain_log_probs([schedule], m)[0]


def _chain_log_probs(schedules, m: int) -> np.ndarray:
    """`chain_log_probs` of each of ``schedules``, validated and of one
    length n, stacked: (len(schedules), m, m**n)."""
    size = len(schedules)
    with np.errstate(divide="ignore"):
        logp = np.log(_rr_matrices([schedule[0] for schedule in schedules], m))
    for i in range(1, len(schedules[0])):
        # the last output varies fastest, so each step's [x, o_prev, o_next]
        # table adds along the last axis of (size, m, sequences / m, m)
        steps = _log_tables([schedule[i - 1 : i + 1] for schedule in schedules], m)
        logp = (logp.reshape(size, m, -1, m, 1) + steps[:, :, None]).reshape(size, m, -1)
    return logp


def _worst_log_ratios(logp: np.ndarray) -> np.ndarray:
    """Largest spread between the rows of each ``logp[s]`` over its jointly
    supported columns, (S,) for an (S, inputs, outcomes) stack.

    A column no row can produce is ignored; one that some rows can produce
    and others cannot makes the ratio unbounded, reported as ``inf``.
    """
    finite = np.isfinite(logp)
    supported = finite.all(axis=1)
    mixed = (finite.any(axis=1) & ~supported).any(axis=1)
    with np.errstate(invalid="ignore"):  # -inf - -inf on columns no row produces
        spread = logp.max(axis=1) - logp.min(axis=1)
    worst = np.where(supported, spread, 0.0).max(axis=1, initial=0.0)
    worst[mixed] = math.inf
    return worst


def audit_composition_ldp(schedule, m: int) -> CompositionAudit:
    """Worst-case log-ratio of the full sequence over all input pairs.

    The guarantee claims the worst case never exceeds the last parameter of
    the schedule, and reaches it (all-same-value sequences are extremal);
    ``attained`` records whether the measured maximum sits within
    ``BOUND_TOL`` of that target.
    """
    worst = float(_worst_log_ratios(chain_log_probs(schedule, m)[None])[0])
    return CompositionAudit(epsilon_target=float(schedule[-1]), max_log_ratio=worst)


def audit_step_epsilon(eps_prev: float, eps_next: float, m: int) -> float:
    """Worst-case log-ratio of a single relaxation step viewed as a query.

    Maximizes over previous output, next output, and input pairs.  For a
    binary domain this evaluates to eps_prev + eps_next, which can exceed the
    budget even though the composed sequence never does.
    """
    kernel = relax_kernel(eps_prev, eps_next, m)
    return float(_worst_log_ratios(kernel.log_table.reshape(1, kernel.m, -1))[0])


def audit_noisy_sampling_epsilon(params: RapporParams, K: int) -> float:
    """Privacy parameter of K noisy samples by direct mixture enumeration.

    Enumerates the distribution of the one-bit count for both original bits
    and takes the worst log-ratio over all counts (the binomial coefficient
    cancels).  Independent of the closed form in `rappor.eps_noisy_sampling`.
    K is at most `MAX_ROUNDS`.
    """
    K = check_rounds(K, "K")
    a, b = params.alpha, params.beta
    worst = 0.0
    for k in range(K + 1):
        given_one = a * b**k * (1 - b) ** (K - k) + (1 - a) * b ** (K - k) * (1 - b) ** k
        given_zero = a * b ** (K - k) * (1 - b) ** k + (1 - a) * b**k * (1 - b) ** (K - k)
        worst = max(worst, abs(math.log(given_one / given_zero)))
    return worst


def _batches(schedules: list, m: int):
    # ``schedules``, of one length, in runs of at most `_BATCH_DOUBLES` doubles
    size = max(1, _BATCH_DOUBLES // m ** (len(schedules[0]) + 1))
    for start in range(0, len(schedules), size):
        yield schedules[start : start + size]


def run_standard_audits() -> list:
    """The battery behind the `audit` CLI command.

    Covers composition bounds and their tightness on an exhaustive small
    scope, marginal invariance by enumeration across the parameter grid, the
    single-step worst case for binary domains, and the noisy-sampling
    cross-check.  Each item reports its worst deviation against its bound.
    Cases of one domain size and length are enumerated in batches.
    """
    checks = []
    grid = [round(0.1 * i, 1) for i in range(1, 21)]
    grid_pairs = [(a, b) for i, a in enumerate(grid) for b in grid[i:]]
    worst_excess = 0.0
    worst_slack = 0.0
    for m in (2, 3, 4):
        # an exhaustive small scope, then the dense two-step schedules: the
        # bound must stay tight on the whole grid
        scopes = [list(combinations_with_replacement((0.1, 0.5, 1.0, 2.0), n)) for n in range(1, 5)]
        for schedules in scopes + [grid_pairs]:
            for batch in _batches(schedules, m):
                worst = _worst_log_ratios(_chain_log_probs(batch, m))
                target = np.array([schedule[-1] for schedule in batch])
                worst_excess = max(worst_excess, float((worst - target).max()))
                worst_slack = max(worst_slack, float((target - worst).max()))
    checks.append(AuditCheck("composition-ldp-bound", worst_excess, BOUND_TOL))
    checks.append(AuditCheck("composition-ldp-tightness", worst_slack, BOUND_TOL))

    worst_marginal = 0.0
    marginal_pairs = [(a, b) for i, a in enumerate(grid) for b in grid[i:] + [10.0]]
    for m in range(2, 11):
        for batch in _batches(marginal_pairs, m):
            logp = _chain_log_probs(batch, m)
            got = np.exp(logp, out=logp).reshape(-1, m, m, m).sum(axis=2)
            expected = _rr_matrices([eps_next for _, eps_next in batch], m)
            worst_marginal = max(worst_marginal, float(np.abs(got - expected).max()))
    checks.append(AuditCheck("marginal-invariance", worst_marginal, 1e-12))

    got = _worst_log_ratios(_log_tables(grid_pairs, 2).reshape(len(grid_pairs), 2, -1))
    expected = np.array([0.0 if a == b else a + b for a, b in grid_pairs])
    worst_step = float(np.abs(got - expected).max())
    checks.append(AuditCheck("single-step-epsilon-binary", worst_step, BOUND_TOL))

    worst_ns = 0.0
    for eps_alpha in (0.5, 1.0, 2.0):
        for eps_beta in grid[:10]:
            params = rappor_params(eps_alpha, eps_beta)
            for K in range(1, 11):
                got = audit_noisy_sampling_epsilon(params, K)
                worst_ns = max(worst_ns, abs(got - eps_noisy_sampling(K, params)))
    checks.append(AuditCheck("noisy-sampling-epsilon", worst_ns, BOUND_TOL))
    return checks
