"""The shared input rules of `_util`, seen through the public calls that apply them."""

import math

import numpy as np
import pytest

from dprelax.audit import chain_log_probs
from dprelax.errors import BudgetDecreaseError, ParameterError
from dprelax.estimation import (
    discretize_mean,
    estimate_binary,
    estimate_mean,
    estimate_poly,
    frequency_estimate_covariance,
    histogram,
)
from dprelax.inference import attack_guesses_matrix, balanced_subset, posterior, uniform_prior
from dprelax.mechanism import (
    MAX_DOMAIN,
    RelaxationChain,
    chain_log_likelihoods,
    iter_chain_rounds,
    iter_log_likelihoods,
    relax_kernel,
    relax_step,
    relax_step_batch,
    rr_distribution,
    sample_rr_batch,
    start_chain,
)
from dprelax.rappor import (
    decode_noisy_sampling_counts,
    rappor_params,
    simulate_noisy_sampling_batch,
    variance_noisy_sampling,
)

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


def _rng():
    return np.random.default_rng(0)


# test id -> (call taking an array argument of real numbers, argument the error must name)
REAL_ARRAYS = {
    "estimate_binary": (lambda x: estimate_binary(x, 1.0), "lambda_b"),
    "estimate_mean": (lambda x: estimate_mean(x, 1.0, -1.0, 3.0), "lambda_h"),
    "estimate_poly": (lambda x: estimate_poly(x, 1.0), "counts"),
    "discretize_mean": (lambda x: discretize_mean(x, 0.0, 1.0, _rng()), "value"),
    "frequency_estimate_covariance": (lambda x: frequency_estimate_covariance(x, 1.0, 10), "freq"),
    "decode_noisy_sampling_counts": (lambda x: decode_noisy_sampling_counts(x, 2, PARAMS), "k_ones"),
    "posterior": (lambda x: posterior(start_chain(0, 2, 0.5, _rng()), x), "prior"),
}

# test id -> (call taking an array argument of values in [0, m), argument the error must name)
VALUE_ARRAYS = {
    "sample_rr_batch": (lambda x: sample_rr_batch(x, rr_distribution(1.0, 3), _rng()), "values"),
    "relax_step_batch": (
        lambda x: relax_step_batch(relax_kernel(0.5, 1.0, 3), x, [0], _rng()),
        "true_values",
    ),
    "relax_step_batch-prev": (
        lambda x: relax_step_batch(relax_kernel(0.5, 1.0, 3), [0], x, _rng()),
        "prev_outputs",
    ),
    "iter_chain_rounds": (lambda x: next(iter_chain_rounds(x, (0.5,), 3, _rng())), "true_values"),
    "histogram": (lambda x: histogram(x, 3), "responses"),
    "chain_log_likelihoods": (lambda x: chain_log_likelihoods(x, (0.5,), 3), "outputs"),
    "attack_guesses_matrix": (lambda x: attack_guesses_matrix(x, (0.5,), 3), "outputs"),
    "balanced_subset": (lambda x: balanced_subset(x, 2, _rng()), "truth"),
    "simulate_noisy_sampling_batch": (
        lambda x: simulate_noisy_sampling_batch(x, PARAMS, 2, _rng()),
        "bits",
    ),
}

# test id -> an array argument that holds no real numbers
NOT_REAL = {"none": None, "string": "ab", "int-beyond-64-bits": 10**400, "nested-none": [[None]]}


@pytest.mark.parametrize("bad", list(NOT_REAL))
@pytest.mark.parametrize("call", list(REAL_ARRAYS) + list(VALUE_ARRAYS))
def test_array_of_non_numbers_is_rejected(call, bad):
    fn, name = {**REAL_ARRAYS, **VALUE_ARRAYS}[call]
    with pytest.raises(ParameterError, match=rf"^{name} must be real numbers, got dtype "):
        fn(NOT_REAL[bad])


@pytest.mark.parametrize("bad", [math.nan, [0.5, math.nan]], ids=["nan", "nan-entry"])
@pytest.mark.parametrize("call", list(REAL_ARRAYS) + list(VALUE_ARRAYS))
def test_array_with_nan_is_rejected(call, bad):
    fn, name = {**REAL_ARRAYS, **VALUE_ARRAYS}[call]
    with pytest.raises(ParameterError, match=rf"^{name} must "):
        fn(bad)


# test id -> (call with an array argument of the wrong shape or range, argument the error must name)
BAD_ARRAYS = {
    "histogram-0-d": (lambda: histogram(0, 3), "responses"),
    "simulate_noisy_sampling_batch-0-d": (
        lambda: simulate_noisy_sampling_batch(1, PARAMS, 2, _rng()),
        "bits",
    ),
    "frequency_estimate_covariance-empty": (
        lambda: frequency_estimate_covariance([], 1.0, 10),
        "freq",
    ),
    "frequency_estimate_covariance-one-value": (
        lambda: frequency_estimate_covariance([1.0], 1.0, 10),
        "freq",
    ),
    "frequency_estimate_covariance-2-D": (
        lambda: frequency_estimate_covariance([[0.5, 0.5]], 1.0, 10),
        "freq",
    ),
    "frequency_estimate_covariance-negative": (
        lambda: frequency_estimate_covariance([1.5, -0.5], 1.0, 10),
        "freq",
    ),
    "frequency_estimate_covariance-sum": (
        lambda: frequency_estimate_covariance([0.5, 0.6], 1.0, 10),
        "freq",
    ),
    "frequency_estimate_covariance-string": (
        lambda: frequency_estimate_covariance("1", 1.0, 10),
        "freq",
    ),
    "estimate_binary-string": (lambda: estimate_binary("1", 1.0), "lambda_b"),
    "estimate_mean-string": (lambda: estimate_mean("1", 1.0, 0.0, 1.0), "lambda_h"),
    "decode_noisy_sampling_counts-string": (
        lambda: decode_noisy_sampling_counts("1", 2, PARAMS),
        "k_ones",
    ),
    "discretize_mean-outside": (lambda: discretize_mean([0.5, 4.0], 0.0, 1.0, _rng()), "value"),
    "posterior-shape": (
        lambda: posterior(start_chain(0, 2, 0.5, _rng()), [0.25, 0.25, 0.5]),
        "prior",
    ),
}


@pytest.mark.parametrize("call", list(BAD_ARRAYS))
def test_bad_array_is_rejected(call):
    fn, name = BAD_ARRAYS[call]
    with pytest.raises(ParameterError, match=rf"^{name} must "):
        fn()


def test_uniform_prior_refuses_a_domain_no_chain_takes(monkeypatch):
    def no_full(*args, **kwargs):
        raise AssertionError("allocated a prior for a refused domain")

    monkeypatch.setattr(np, "full", no_full)
    for m in (MAX_DOMAIN + 1, 2**40):
        with pytest.raises(ParameterError, match=rf"^m must be at most {MAX_DOMAIN}, got {m}$"):
            uniform_prior(m)
    monkeypatch.undo()
    assert uniform_prior(MAX_DOMAIN).shape == (MAX_DOMAIN,)
