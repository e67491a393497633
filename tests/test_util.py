"""The shared input rules of `_util`, seen through the public calls that apply them."""

import math

import numpy as np
import pytest

from dprelax.audit import chain_log_probs
from dprelax.errors import BudgetDecreaseError, ParameterError
from dprelax.estimation import histogram
from dprelax.inference import uniform_prior
from dprelax.mechanism import (
    RelaxationChain,
    iter_log_likelihoods,
    relax_kernel,
    relax_step,
    rr_distribution,
    start_chain,
)
from dprelax.rappor import rappor_params, simulate_noisy_sampling_batch, variance_noisy_sampling

PARAMS = rappor_params(1.0, 0.5)

# test id -> (call with a non-integral size, argument the error must name)
NON_INTEGRAL_SIZES = {
    "rr_distribution": (lambda: rr_distribution(0.5, 2.7), "m"),
    "histogram": (lambda: histogram([0, 1, 2], 3.5), "m"),
    "simulate_noisy_sampling_batch": (
        lambda: simulate_noisy_sampling_batch([0, 1], PARAMS, 2.9, np.random.default_rng(0)),
        "K",
    ),
    "variance_noisy_sampling": (lambda: variance_noisy_sampling(PARAMS, 10.9, 2), "N"),
    "uniform_prior": (lambda: uniform_prior(2.5), "m"),
}


@pytest.mark.parametrize("call", list(NON_INTEGRAL_SIZES))
def test_non_integral_size_is_rejected(call):
    fn, name = NON_INTEGRAL_SIZES[call]
    with pytest.raises(ParameterError, match=rf"^{name} must be an integer"):
        fn()


# test id -> (schedule, error it must raise)
BAD_SCHEDULES = {
    "empty": ((), ParameterError),
    "nan": ((0.5, math.nan), ParameterError),
    "zero": ((0.0, 0.5), ParameterError),
    "decreasing": ((1.0, 0.5), BudgetDecreaseError),
}

SCHEDULE_CALLERS = {
    "RelaxationChain": lambda s: RelaxationChain(
        true_value=0, m=3, schedule=s, outputs=(0,) * len(s)
    ),
    "iter_log_likelihoods": lambda s: next(
        iter_log_likelihoods(np.zeros((2, len(s)), dtype=np.int64), s, 3)
    ),
    "chain_log_probs": lambda s: chain_log_probs(s, 3),
}


@pytest.mark.parametrize("case", list(BAD_SCHEDULES))
@pytest.mark.parametrize("caller", list(SCHEDULE_CALLERS))
def test_bad_schedule_is_rejected(caller, case):
    schedule, error = BAD_SCHEDULES[case]
    with pytest.raises(error, match="schedule"):
        SCHEDULE_CALLERS[caller](schedule)


# test id -> (call with a number beyond double range, argument the error must name)
BEYOND_DOUBLE = {
    "rr_distribution": (lambda: rr_distribution(10**400, 2), "epsilon"),
    "rr_distribution-negative": (lambda: rr_distribution(-(10**400), 2), "epsilon"),
    "relax_step": (
        lambda: relax_step(
            start_chain(0, 2, 0.5, np.random.default_rng(0)), 10**400, np.random.default_rng(0)
        ),
        r"\(eps_prev, eps_next\)\[1\]",
    ),
    "RelaxationChain": (lambda: RelaxationChain(0, 2, (10**400,), (0,)), r"schedule\[0\]"),
}


@pytest.mark.parametrize("call", list(BEYOND_DOUBLE))
def test_number_beyond_double_range_is_rejected(call):
    fn, name = BEYOND_DOUBLE[call]
    with pytest.raises(ParameterError, match=rf"^{name} must be positive and finite, got -?inf$"):
        fn()


# test id -> call with a domain size past 2**53, the last one every double holds
HUGE_DOMAINS = {
    "rr_distribution": lambda: rr_distribution(1, 10**400),
    "relax_kernel": lambda: relax_kernel(1e-100, 0.5, 10**400),
    "relax_kernel-past-the-bound": lambda: relax_kernel(0.1, 0.2, 2**53 + 1),
}


@pytest.mark.parametrize("call", list(HUGE_DOMAINS))
def test_domain_beyond_exact_doubles_is_rejected(call):
    with pytest.raises(ParameterError, match=r"^m must be at most 2\*\*53$"):
        HUGE_DOMAINS[call]()
    assert rr_distribution(1, 2**53).m == relax_kernel(0.1, 0.2, 2**53).m == 2**53


# test id -> (call with an argument that is not a real number, argument the error must name)
NON_NUMBERS = {
    "rr_distribution": (lambda: rr_distribution("abc", 3), "epsilon"),
    "rr_distribution-m": (lambda: rr_distribution(0.5, "3"), "m"),
    "relax_kernel-string": (lambda: relax_kernel("0.5", 1.0, 3), r"\(eps_prev, eps_next\)\[0\]"),
    "relax_kernel-list": (lambda: relax_kernel([1.0], 2.0, 3), r"\(eps_prev, eps_next\)\[0\]"),
    "iter_log_likelihoods": (
        lambda: next(iter_log_likelihoods(np.zeros((2, 2), dtype=np.int64), (0.5, b"1"), 3)),
        r"schedule\[1\]",
    ),
}


@pytest.mark.parametrize("call", list(NON_NUMBERS))
def test_non_number_is_rejected(call):
    fn, name = NON_NUMBERS[call]
    with pytest.raises(ParameterError, match=rf"^{name} must be a real number, got "):
        fn()
