"""Exhaustive small-instance auditors for the relaxation chain's privacy claims.

Everything here re-derives distributional facts by enumerating every possible
output sequence and taking worst cases numerically, instead of trusting the
closed-form algebra behind the kernels.  A bug in the kernel formulas and a
bug in these enumerations would have to coincide for a check to pass wrongly.

Conventions: sequences a schedule cannot produce (a repeated privacy
parameter makes the step deterministic) carry zero probability for every
input alike; log-ratios are taken over jointly supported outcomes only, and a
deterministic step therefore audits to 0.  Mixed support, where one input can
produce a sequence another cannot, is reported as an infinite log-ratio.
"""

import math
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement

import numpy as np

from ._util import check_count, check_domain_size, check_schedule
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


def _rr_matrix(eps: float, m: int) -> np.ndarray:
    # the randomized response as an (m, m) matrix, indexed [x, output]
    dist = rr_distribution(eps, m)
    matrix = np.full((m, m), dist.p_other)
    np.fill_diagonal(matrix, dist.p_retain)
    return matrix


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
    with np.errstate(divide="ignore"):
        logp = np.log(_rr_matrix(schedule[0], m))
    last = np.arange(m)
    for i in range(1, n):
        log_table = relax_kernel(schedule[i - 1], schedule[i], m).log_table
        logp = (logp[:, :, None] + log_table[:, last, :]).reshape(m, -1)
        last = np.broadcast_to(np.arange(m), (last.size, m)).reshape(-1)
    return logp


def _worst_log_ratio(logp: np.ndarray) -> float:
    """Largest spread between the rows of ``logp`` over its jointly supported columns.

    Rows are inputs and columns outcomes.  A column no row can produce is
    ignored; one that some rows can produce and others cannot makes the
    ratio unbounded, reported as ``inf``.
    """
    finite = np.isfinite(logp)
    supported = finite.all(axis=0)
    if bool((finite.any(axis=0) & ~supported).any()):
        return math.inf
    spread = logp[:, supported].max(axis=0) - logp[:, supported].min(axis=0)
    return float(spread.max(initial=0.0))


def audit_composition_ldp(schedule, m: int) -> CompositionAudit:
    """Worst-case log-ratio of the full sequence over all input pairs.

    The guarantee claims the worst case never exceeds the last parameter of
    the schedule, and reaches it (all-same-value sequences are extremal);
    ``attained`` records whether the measured maximum sits within
    ``BOUND_TOL`` of that target.
    """
    worst = _worst_log_ratio(chain_log_probs(schedule, m))
    return CompositionAudit(epsilon_target=float(schedule[-1]), max_log_ratio=worst)


def audit_step_epsilon(eps_prev: float, eps_next: float, m: int) -> float:
    """Worst-case log-ratio of a single relaxation step viewed as a query.

    Maximizes over previous output, next output, and input pairs.  For a
    binary domain this evaluates to eps_prev + eps_next, which can exceed the
    budget even though the composed sequence never does.
    """
    kernel = relax_kernel(eps_prev, eps_next, m)
    return _worst_log_ratio(kernel.log_table.reshape(kernel.m, -1))


def audit_noisy_sampling_epsilon(params: RapporParams, K: int) -> float:
    """Privacy parameter of K noisy samples by direct mixture enumeration.

    Enumerates the distribution of the one-bit count for both original bits
    and takes the worst log-ratio over all counts (the binomial coefficient
    cancels).  Independent of the closed form in `rappor.eps_noisy_sampling`.
    """
    K = check_count(K, "K")
    a, b = params.alpha, params.beta
    worst = 0.0
    for k in range(K + 1):
        given_one = a * b**k * (1 - b) ** (K - k) + (1 - a) * b ** (K - k) * (1 - b) ** k
        given_zero = a * b ** (K - k) * (1 - b) ** k + (1 - a) * b**k * (1 - b) ** (K - k)
        worst = max(worst, abs(math.log(given_one / given_zero)))
    return worst


def _exhaustive_schedules(levels, max_len):
    for n in range(1, max_len + 1):
        yield from combinations_with_replacement(levels, n)


def run_standard_audits() -> list:
    """The battery behind the `audit` CLI command.

    Covers composition bounds and their tightness on an exhaustive small
    scope, marginal invariance by enumeration across the parameter grid, the
    single-step worst case for binary domains, and the noisy-sampling
    cross-check.  Each item reports its worst deviation against its bound.
    """
    checks = []
    grid = [round(0.1 * i, 1) for i in range(1, 21)]
    grid_pairs = [(a, b) for i, a in enumerate(grid) for b in grid[i:]]
    worst_excess = 0.0
    worst_slack = 0.0
    for m in (2, 3, 4):
        # an exhaustive small scope, then the dense two-step schedules: the
        # bound must stay tight on the whole grid
        for schedule in chain(_exhaustive_schedules((0.1, 0.5, 1.0, 2.0), 4), grid_pairs):
            report = audit_composition_ldp(schedule, m)
            worst_excess = max(worst_excess, report.max_log_ratio - report.epsilon_target)
            worst_slack = max(worst_slack, report.epsilon_target - report.max_log_ratio)
    checks.append(AuditCheck("composition-ldp-bound", worst_excess, BOUND_TOL))
    checks.append(AuditCheck("composition-ldp-tightness", worst_slack, BOUND_TOL))

    worst_marginal = 0.0
    for m in range(2, 11):
        for i, eps_prev in enumerate(grid):
            for eps_next in grid[i:] + [10.0]:
                expected = _rr_matrix(eps_next, m)
                logp = chain_log_probs([eps_prev, eps_next], m)
                got = np.exp(logp).reshape(m, m, m).sum(axis=1)
                worst_marginal = max(worst_marginal, float(np.abs(got - expected).max()))
    checks.append(AuditCheck("marginal-invariance", worst_marginal, 1e-12))

    worst_step = 0.0
    for eps_prev, eps_next in grid_pairs:
        got = audit_step_epsilon(eps_prev, eps_next, 2)
        expected = 0.0 if eps_prev == eps_next else eps_prev + eps_next
        worst_step = max(worst_step, abs(got - expected))
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
