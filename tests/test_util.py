"""The shared input rules of `_util`, seen through the public calls that apply them."""

import math

import numpy as np
import pytest

from dprelax.audit import chain_log_probs
from dprelax.errors import BudgetDecreaseError, ParameterError
from dprelax.estimation import histogram
from dprelax.inference import uniform_prior
from dprelax.mechanism import RelaxationChain, iter_log_likelihoods, rr_distribution
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
