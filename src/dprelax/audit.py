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
from itertools import combinations_with_replacement, product

import numpy as np

from ._util import check_count, check_domain_size, check_schedule, check_value
from .errors import EnumerationLimitError
from .mechanism import relax_kernel, rr_distribution
from .rappor import RapporParams, eps_noisy_sampling, rappor_params

__all__ = [
    "MAX_SEQUENCES",
    "BOUND_TOL",
    "CompositionAudit",
    "AuditCheck",
    "chain_log_probs",
    "enumerate_chain_distribution",
    "enumerated_output_marginal",
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
    attained: bool


@dataclass(frozen=True)
class AuditCheck:
    """One named check of the standard audit battery."""

    name: str
    worst: float
    bound: float
    passed: bool


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
    dist = rr_distribution(schedule[0], m)
    first = np.full((m, m), dist.p_other)
    np.fill_diagonal(first, dist.p_retain)
    with np.errstate(divide="ignore"):
        logp = np.log(first)
    last = np.arange(m)
    for i in range(1, n):
        log_table = relax_kernel(schedule[i - 1], schedule[i], m).log_table
        logp = (logp[:, :, None] + log_table[:, last, :]).reshape(m, -1)
        last = np.broadcast_to(np.arange(m), (last.size, m)).reshape(-1)
    return logp


def enumerate_chain_distribution(schedule, m: int, x: int) -> dict:
    """Exact joint distribution of all output sequences given true value x."""
    logp = chain_log_probs(schedule, m)
    x = check_value(x, m, "x")
    probs = np.exp(logp[x])
    return {seq: float(p) for seq, p in zip(product(range(m), repeat=len(schedule)), probs)}


def enumerated_output_marginal(schedule, m: int, x: int) -> np.ndarray:
    """Marginal distribution of the final output, by summing the enumeration."""
    logp = chain_log_probs(schedule, m)
    x = check_value(x, m, "x")
    return np.exp(logp[x]).reshape(-1, m).sum(axis=0)


def audit_composition_ldp(schedule, m: int) -> CompositionAudit:
    """Worst-case log-ratio of the full sequence over all input pairs.

    The guarantee claims the worst case never exceeds the last parameter of
    the schedule, and reaches it (all-same-value sequences are extremal);
    ``attained`` records whether the measured maximum sits within
    ``BOUND_TOL`` of that target.
    """
    logp = chain_log_probs(schedule, m)
    target = float(schedule[-1])
    finite = np.isfinite(logp)
    supported = finite.all(axis=0)
    if bool((finite.any(axis=0) & ~supported).any()):
        return CompositionAudit(epsilon_target=target, max_log_ratio=math.inf, attained=False)
    spread = logp[:, supported].max(axis=0) - logp[:, supported].min(axis=0)
    worst = float(spread.max())
    return CompositionAudit(
        epsilon_target=target,
        max_log_ratio=worst,
        attained=abs(worst - target) <= BOUND_TOL,
    )


def audit_step_epsilon(eps_prev: float, eps_next: float, m: int) -> float:
    """Worst-case log-ratio of a single relaxation step viewed as a query.

    Maximizes over previous output, next output, and input pairs.  For a
    binary domain this evaluates to eps_prev + eps_next, which can exceed the
    budget even though the composed sequence never does.
    """
    log_table = relax_kernel(eps_prev, eps_next, m).log_table
    worst = 0.0
    for o_prev in range(m):
        for o_next in range(m):
            logs = log_table[:, o_prev, o_next]
            possible = np.isfinite(logs)
            if not possible.any():
                continue
            if not possible.all():
                return math.inf
            worst = max(worst, float(logs.max() - logs.min()))
    return worst


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

    worst_excess = 0.0
    worst_slack = 0.0
    for m in (2, 3, 4):
        for schedule in _exhaustive_schedules((0.1, 0.5, 1.0, 2.0), 4):
            report = audit_composition_ldp(schedule, m)
            worst_excess = max(worst_excess, report.max_log_ratio - report.epsilon_target)
            worst_slack = max(worst_slack, report.epsilon_target - report.max_log_ratio)
        # dense two-step schedules: the bound must stay tight on the whole grid
        for i, eps_prev in enumerate(grid):
            for eps_next in grid[i:]:
                report = audit_composition_ldp((eps_prev, eps_next), m)
                worst_excess = max(worst_excess, report.max_log_ratio - report.epsilon_target)
                worst_slack = max(worst_slack, report.epsilon_target - report.max_log_ratio)
    checks.append(
        AuditCheck("composition-ldp-bound", worst_excess, BOUND_TOL, worst_excess <= BOUND_TOL)
    )
    checks.append(
        AuditCheck("composition-ldp-tightness", worst_slack, BOUND_TOL, worst_slack <= BOUND_TOL)
    )

    worst_marginal = 0.0
    for m in range(2, 11):
        for i, eps_prev in enumerate(grid):
            for eps_next in grid[i:] + [10.0]:
                target = rr_distribution(eps_next, m)
                expected = np.full((m, m), target.p_other)
                np.fill_diagonal(expected, target.p_retain)
                logp = chain_log_probs([eps_prev, eps_next], m)
                got = np.exp(logp).reshape(m, m, m).sum(axis=1)
                worst_marginal = max(worst_marginal, float(np.abs(got - expected).max()))
    checks.append(
        AuditCheck("marginal-invariance", worst_marginal, 1e-12, worst_marginal <= 1e-12)
    )

    worst_step = 0.0
    for i, eps_prev in enumerate(grid):
        for eps_next in grid[i:]:
            got = audit_step_epsilon(eps_prev, eps_next, 2)
            expected = 0.0 if eps_prev == eps_next else eps_prev + eps_next
            worst_step = max(worst_step, abs(got - expected))
    checks.append(
        AuditCheck("single-step-epsilon-binary", worst_step, BOUND_TOL, worst_step <= BOUND_TOL)
    )

    worst_ns = 0.0
    for eps_alpha in (0.5, 1.0, 2.0):
        for eps_beta in grid[:10]:
            params = rappor_params(eps_alpha, eps_beta)
            for K in range(1, 11):
                got = audit_noisy_sampling_epsilon(params, K)
                worst_ns = max(worst_ns, abs(got - eps_noisy_sampling(K, params)))
    checks.append(
        AuditCheck("noisy-sampling-epsilon", worst_ns, BOUND_TOL, worst_ns <= BOUND_TOL)
    )
    return checks
