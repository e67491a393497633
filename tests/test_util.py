"""The shared input rules of `_util`, seen through the public calls that apply them."""

import copy
import dataclasses
import math
import pickle
import re
from unittest import mock

import numpy as np
import pytest

from dprelax import _util, estimation, experiments, inference, mechanism
from dprelax.audit import audit_noisy_sampling_epsilon, chain_log_probs
from dprelax.errors import BudgetDecreaseError, ConfigError, ParameterError
from dprelax.estimation import (
    MAX_DECODE_DOMAIN,
    discretize_mean,
    estimate_binary,
    estimate_mean,
    estimate_poly,
    frequency_estimate_covariance,
    histogram,
    variance_binary_estimate,
)
from dprelax.experiments import ExperimentConfig, kernel_table_rows
from dprelax.inference import attack_guesses_matrix, balanced_subset, posterior, uniform_prior
from dprelax.mechanism import (
    MAX_DOMAIN,
    RelaxationChain,
    chain_likelihood,
    chain_log_likelihoods,
    iter_chain_rounds,
    iter_log_likelihoods,
    kernel_tensor,
    relax_kernel,
    relax_step,
    relax_step_batch,
    rr_distribution,
    sample_rr_batch,
    start_chain,
)
from dprelax.rappor import (
    RapporParams,
    decode_noisy_sampling_counts,
    eps_noisy_sampling,
    noisy_sampling_schedule,
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


# test id -> (call with a count past 2**53, the last every double holds, argument the
# error must name); each raised a raw `OverflowError` before counts were bounded
HUGE_COUNTS = {
    "variance_binary_estimate": (lambda: variance_binary_estimate(1, 10**400), "n"),
    "variance_binary_estimate-past-the-bound": (
        lambda: variance_binary_estimate(1, 2**53 + 1),
        "n",
    ),
    "variance_binary_estimate-float": (lambda: variance_binary_estimate(1, 1e300), "n"),
    "variance_noisy_sampling-N": (lambda: variance_noisy_sampling(PARAMS, 10**400, 1), "N"),
    "variance_noisy_sampling-K": (lambda: variance_noisy_sampling(PARAMS, 1, 10**400), "K"),
    "frequency_estimate_covariance": (
        lambda: frequency_estimate_covariance([0.5, 0.5], 1, 10**400),
        "n",
    ),
    "eps_noisy_sampling": (lambda: eps_noisy_sampling(10**400, PARAMS), "K"),
    "decode_noisy_sampling_counts": (
        lambda: decode_noisy_sampling_counts([1], 10**400, PARAMS),
        "K",
    ),
}


@pytest.mark.parametrize("call", list(HUGE_COUNTS))
def test_count_beyond_exact_doubles_is_rejected(call):
    fn, name = HUGE_COUNTS[call]
    with pytest.raises(ParameterError, match=rf"^{name} must be at most 2\*\*53$"):
        fn()


def test_counts_up_to_2_53_are_taken():
    assert 0.0 < variance_binary_estimate(1, 2**53) < math.inf
    assert 0.0 < variance_noisy_sampling(PARAMS, 2**53, 2**53) < math.inf
    assert eps_noisy_sampling(2**53, PARAMS) == PARAMS.eps_alpha
    assert math.isfinite(decode_noisy_sampling_counts([1], 2**53, PARAMS))


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
NOT_REAL = {
    "none": None,
    "string": "ab",
    "int-beyond-64-bits": 10**400,
    "nested-none": [[None]],
    "ragged": [[0], [0, 1]],
}


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


# The one prior rule, shared by `posterior` (of a 3-value chain) and
# `frequency_estimate_covariance`: each call with its argument name and the
# shape it asks for.
PRIOR_RULE_CALLS = {
    "posterior": (lambda p: posterior(start_chain(0, 3, 0.5, _rng()), p), "prior", "3"),
    "frequency_estimate_covariance": (
        lambda p: frequency_estimate_covariance(p, 1.0, 10),
        "freq",
        "m >= 2",
    ),
}

# test id -> a 3-value prior the rule refuses; None marks a refusal for shape
REFUSED_PRIORS = {
    "nan": [math.nan, 0.5, 0.5],
    "nan-last": [0.5, 0.5, math.nan],
    "inf": [math.inf, 0.0, 0.0],
    "negative-1e-300": [-1e-300, 0.5, 0.5],
    "sum-1-plus-1.1e-12": [0.5, 0.25, 0.25 + 1.1e-12],
    "sum-1-minus-1.1e-12": [0.5, 0.25, 0.25 - 1.1e-12],
    # read as float64, the float32 entries sum to 1 + 1.5e-8
    "float32": np.array([0.2, 0.3, 0.5], dtype=np.float32),
    "shape-()": np.float64(1.0),
    "shape-(1, m)": [[0.25, 0.25, 0.5]],
}

# test id -> a 3-value prior the rule accepts, read as the float64 array of its values
ACCEPTED_PRIORS = {
    "negative-zero": [-0.0, 0.5, 0.5],
    "sum-1-plus-0.9e-12": [0.5, 0.25, 0.25 + 0.9e-12],
    "sum-1-minus-0.9e-12": [0.5, 0.25, 0.25 - 0.9e-12],
    "int-array": np.array([0, 1, 0]),
    "bool-list": [False, True, False],
    "tuple": (0.25, 0.25, 0.5),
}


@pytest.mark.parametrize("prior", list(REFUSED_PRIORS))
@pytest.mark.parametrize("call", list(PRIOR_RULE_CALLS))
def test_prior_rule_refuses(call, prior):
    fn, name, shape = PRIOR_RULE_CALLS[call]
    p = REFUSED_PRIORS[prior]
    if np.ndim(p) == 1:
        message = f"{name} must be finite, non-negative and sum to 1"
    else:
        message = f"{name} must have shape ({shape},), got {np.shape(p)}"
    with pytest.raises(ParameterError) as refused:
        fn(p)
    assert str(refused.value) == message


@pytest.mark.parametrize("prior", list(ACCEPTED_PRIORS))
@pytest.mark.parametrize("call", list(PRIOR_RULE_CALLS))
def test_prior_rule_accepts(call, prior):
    fn, _, _ = PRIOR_RULE_CALLS[call]
    p = ACCEPTED_PRIORS[prior]
    assert fn(p).tobytes() == fn(np.array(p, dtype=np.float64)).tobytes()


def test_uniform_prior_refuses_a_domain_no_chain_takes(monkeypatch):
    def no_full(*args, **kwargs):
        raise AssertionError("allocated a prior for a refused domain")

    monkeypatch.setattr(np, "full", no_full)
    for m in (MAX_DOMAIN + 1, 2**40):
        with pytest.raises(ParameterError, match=rf"^m must be at most {MAX_DOMAIN}, got {m}$"):
            uniform_prior(m)
    monkeypatch.undo()
    assert uniform_prior(MAX_DOMAIN).shape == (MAX_DOMAIN,)


# test id -> (call with True, or np.True_, for a number, argument the error must name)
BOOLEANS = {
    "rr_distribution": (lambda b: rr_distribution(b, 2), "epsilon"),
    "rr_distribution-m": (lambda b: rr_distribution(0.5, b), "m"),
    "relax_kernel": (lambda b: relax_kernel(0.5, b, 3), r"\(eps_prev, eps_next\)\[1\]"),
    "start_chain": (lambda b: start_chain(0, 2, b, _rng()), "epsilon"),
    "start_chain-true_value": (lambda b: start_chain(b, 2, 0.5, _rng()), "true_value"),
    "relax_step": (
        lambda b: relax_step(start_chain(0, 2, 0.5, _rng()), b, _rng()),
        r"\(eps_prev, eps_next\)\[1\]",
    ),
    "uniform_prior": (lambda b: uniform_prior(b), "m"),
    "variance_binary_estimate": (lambda b: variance_binary_estimate(1.0, b), "n"),
    "variance_noisy_sampling": (lambda b: variance_noisy_sampling(PARAMS, b, 2), "N"),
    "simulate_noisy_sampling_batch": (
        lambda b: simulate_noisy_sampling_batch([0, 1], PARAMS, b, _rng()),
        "K",
    ),
    "audit_noisy_sampling_epsilon": (lambda b: audit_noisy_sampling_epsilon(PARAMS, b), "K"),
    "noisy_sampling_schedule": (lambda b: noisy_sampling_schedule(1.0, 0.5, b), "rounds"),
    "rappor_params": (lambda b: rappor_params(b, 0.5), "eps_alpha"),
}


@pytest.mark.parametrize("boolean", [True, np.True_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("call", list(BOOLEANS))
def test_boolean_is_not_a_number(call, boolean):
    fn, name = BOOLEANS[call]
    with pytest.raises(ParameterError, match=rf"^{name} must be a real number, got "):
        fn(boolean)


@pytest.mark.parametrize("boolean", [True, np.True_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("field", [r"epsilons\[1\]", "eps_alpha", "m"])
def test_config_refuses_a_boolean(field, boolean):
    overrides = {
        r"epsilons\[1\]": {"epsilons": (0.5, boolean)},
        "eps_alpha": {"eps_alpha": boolean, "eps_beta": 0.5},
        "m": {"m": boolean},
    }[field]
    fields = dict(name="direct", m=2, counts=(2, 3), epsilons=(0.5, 1.0), trials=2, seed=1)
    with pytest.raises(ConfigError, match=rf"^ExperimentConfig\.{field}: must be "):
        ExperimentConfig(**dict(fields, **overrides))


def _nested(depth: int) -> list:
    deep = []
    for _ in range(depth):
        deep = [deep]
    return deep


def test_a_refusal_prints_a_value_nested_past_the_recursion_limit():
    deep = _nested(5000)
    shown = r"\[\[\[\[\[\[\[\.\.\.\]\]\]\]\]\]\]"
    with pytest.raises(ParameterError, match=rf"^\(eps_prev, eps_next\)\[0\] must be a real number, got {shown}$"):
        relax_kernel(deep, 1.0, 3)
    raw = {"m": 2, "counts": [2, 3], "schedule": {"kind": "list", "epsilons": [deep]}, "trials": 2, "seed": 1}
    with pytest.raises(ConfigError, match=rf"^config\.schedule\.epsilons\[0\]: must be a real number, got {shown}$"):
        experiments.config_from_dict(raw)
    fields = dict(name="direct", m=2, counts=(2, 3), epsilons=(0.5, 1.0), trials=2)
    with pytest.raises(ConfigError, match=rf"^ExperimentConfig\.seed: must be an integer .* got {shown}$"):
        ExperimentConfig(**fields, seed=deep)


@pytest.mark.parametrize(
    "value, shown",
    [
        ("3", "'3'"),
        ([1, 2], "[1, 2]"),
        (None, "None"),
        ("a" * 50, "'aaaaaaaaaaaa...aaaaaaaaaaaaa'"),
        (10**400, "100000000000000000...0000000000000000000"),
        (10**5000, "<int too long to print>"),
        (list(range(10)), "[0, 1, 2, 3, 4, 5, ...]"),
    ],
    ids=["short-string", "short-list", "none", "long-string", "long-int", "int-past-digit-limit", "long-list"],
)
def test_a_refusal_prints_a_value_cut_short(value, shown):
    assert _util.shown(value) == shown
    fields = dict(name="direct", m=2, counts=(2, 3), epsilons=(0.5, 1.0), trials=2)
    message = rf"^ExperimentConfig\.seed: must be an integer that fits in 64 bits, got {re.escape(shown)}$"
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**fields, seed=value)


# test id -> (call with an argument that is no sequence, argument the error must name)
NON_SEQUENCES = {
    "chain_likelihood": (lambda: chain_likelihood(0.5, 0.5, 2, 0), "outputs"),
    "kernel_table_rows": (lambda: kernel_table_rows(0, 0), "eps_values"),
    "kernel_table_rows-domains": (lambda: kernel_table_rows((0.1, 0.2), 0), "domain_sizes"),
    "iter_chain_rounds": (lambda: next(iter_chain_rounds([0], 0.5, 2, _rng())), "schedule"),
    "RelaxationChain": (lambda: RelaxationChain(0, 2, 0.5, (0,)), "schedule"),
    "RelaxationChain-outputs": (lambda: RelaxationChain(0, 3, (1.0,), 5), "outputs"),
    "chain_log_probs": (lambda: chain_log_probs(0.5, 2), "schedule"),
}


@pytest.mark.parametrize("call", list(NON_SEQUENCES))
def test_non_sequence_is_rejected(call):
    fn, name = NON_SEQUENCES[call]
    with pytest.raises(ParameterError, match=rf"^{name} must be a sequence, got "):
        fn()


def _dist(**fields):
    return dataclasses.replace(rr_distribution(1.0, 3), **fields)


def _kernel(**fields):
    return dataclasses.replace(relax_kernel(0.5, 1.0, 3), **fields)


def _rappor(**fields):
    return dataclasses.replace(PARAMS, **fields)


# test id -> (call building a parameter object with one bad field, the field
# the error must name)
HAND_BUILT = {
    "sample_rr_batch-epsilon-list": (
        lambda: sample_rr_batch([0, 1], _dist(epsilon=[1.0]), _rng()),
        "epsilon",
    ),
    "sample_rr_batch-m-none": (lambda: sample_rr_batch([0, 1], _dist(m=None), _rng()), "m"),
    "sample_rr_batch-m-list": (lambda: sample_rr_batch([0, 1], _dist(m=[2, 3]), _rng()), "m"),
    "relax_step_batch-m-nan": (lambda: relax_step_batch(_kernel(m=math.nan), [0], [1], _rng()), "m"),
    "kernel_tensor-m-list": (lambda: kernel_tensor(_kernel(m=[2, 3])), "m"),
    "audit_noisy_sampling_epsilon-nan": (
        lambda: audit_noisy_sampling_epsilon(_rappor(eps_alpha=math.nan), 3),
        "eps_alpha",
    ),
    "audit_noisy_sampling_epsilon-string": (
        lambda: audit_noisy_sampling_epsilon(_rappor(eps_alpha="1"), 3),
        "eps_alpha",
    ),
    "eps_noisy_sampling-none": (lambda: eps_noisy_sampling(3, _rappor(eps_beta=None)), "eps_beta"),
}


@pytest.mark.parametrize("call", list(HAND_BUILT))
def test_hand_built_parameters_are_refused_by_name(call):
    fn, name = HAND_BUILT[call]
    with pytest.raises(ParameterError, match=rf"^{name} must "):
        fn()


# test id -> (call given something other than its parameter object, the
# argument the error must name, the class it asks for)
NOT_PARAMETER_OBJECTS = {
    "sample_rr_batch": (lambda: sample_rr_batch([0], None, _rng()), "dist", "ResponseDistribution"),
    "relax_step_batch": (lambda: relax_step_batch(1.0, [0], [0], _rng()), "kernel", "RelaxKernel"),
    "kernel_tensor": (lambda: kernel_tensor((0.5, 1.0, 3)), "kernel", "RelaxKernel"),
    "relax_step": (lambda: relax_step([0], 1.0, _rng()), "chain", "RelaxationChain"),
    "posterior": (lambda: posterior(None, [0.5, 0.5]), "chain", "RelaxationChain"),
    "eps_noisy_sampling": (lambda: eps_noisy_sampling(3, (1.0, 0.5)), "params", "RapporParams"),
    "simulate_noisy_sampling_batch": (
        lambda: simulate_noisy_sampling_batch([0, 1], "p", 2, _rng()),
        "params",
        "RapporParams",
    ),
    "decode_noisy_sampling_counts": (
        lambda: decode_noisy_sampling_counts([1], 2, 1.0),
        "params",
        "RapporParams",
    ),
    "variance_noisy_sampling": (lambda: variance_noisy_sampling(None, 10, 2), "params", "RapporParams"),
    "audit_noisy_sampling_epsilon": (
        lambda: audit_noisy_sampling_epsilon(rr_distribution(1.0, 2), 3),
        "params",
        "RapporParams",
    ),
    "simulate_experiment": (
        lambda: experiments.simulate_experiment({"m": 2}),
        "config",
        "ExperimentConfig",
    ),
    "compare_noisy_sampling": (
        lambda: experiments.compare_noisy_sampling(None),
        "config",
        "ExperimentConfig",
    ),
}


@pytest.mark.parametrize("call", list(NOT_PARAMETER_OBJECTS))
def test_non_parameter_object_is_refused_by_name(call):
    fn, name, cls = NOT_PARAMETER_OBJECTS[call]
    with pytest.raises(ParameterError, match=rf"^{name} must be a {cls}, got \w+$"):
        fn()


class TestBuiltFromEpsilon:
    """A parameter object takes its ε and m alone; what they determine is set
    when it is built and cannot be given."""

    SETTABLE = {
        mechanism.ResponseDistribution: ["epsilon", "m"],
        mechanism.RelaxKernel: ["eps_prev", "eps_next", "m"],
        RapporParams: ["eps_alpha", "eps_beta"],
    }
    BUILT = (
        lambda: rr_distribution(1.0, 3),
        lambda: relax_kernel(0.5, 1.0, 3),
        lambda: mechanism.RelaxKernel(0.0, 1.0, 3),
        lambda: rappor_params(1.0, 0.5),
    )

    def test_settable_fields(self):
        for cls, names in self.SETTABLE.items():
            assert [f.name for f in dataclasses.fields(cls) if f.init] == names

    def test_derived_fields_cannot_be_given(self):
        kernel = relax_kernel(0.5, 1.0, 3)
        for field in ("p_aa", "p_ba", "p_bb", "p_ab", "p_bc"):
            with pytest.raises(ValueError, match=field):
                dataclasses.replace(kernel, **{field: 2.0})
        with pytest.raises(ValueError, match="p_retain"):
            dataclasses.replace(rr_distribution(1.0, 3), p_retain=1.0)
        with pytest.raises(ValueError, match="alpha"):
            dataclasses.replace(PARAMS, alpha=0.9)
        with pytest.raises(TypeError):
            RapporParams(1.0, 0.5, 0.9, 0.6)

    def test_replacing_a_parameter_rebuilds_what_it_determines(self):
        kernel = dataclasses.replace(relax_kernel(0.5, 1.0, 3), eps_next=2.0)
        assert kernel == relax_kernel(0.5, 2.0, 3)
        assert dataclasses.replace(rr_distribution(1.0, 3), m=5) == rr_distribution(1.0, 5)
        assert dataclasses.replace(PARAMS, eps_alpha=2.0) == rappor_params(2.0, 0.5)

    def test_copies_and_pickles_equal_their_originals(self):
        for build in self.BUILT:
            built = build()
            for copied in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
                assert copied == built  # every field, the derived ones too

    def test_the_step_memo_is_the_class(self):
        assert mechanism._relax_kernel.__wrapped__ is mechanism.RelaxKernel
        assert mechanism._relax_kernel(0.5, 1.0, 3) is relax_kernel(0.5, 1.0, 3)

    def test_first_step_is_the_randomized_response(self):
        for m in (2, 3, 7):
            rr = rr_distribution(0.8, m)
            kernel = mechanism.RelaxKernel(0.0, 0.8, m)
            assert (kernel.p_aa, kernel.p_ba) == (rr.p_retain, rr.p_retain)
            assert (kernel.p_bb, kernel.p_ab) == (rr.p_other, rr.p_other)
            assert kernel.p_bc == (rr.p_other if m > 2 else 0.0)

    def test_a_decreasing_step_is_refused(self):
        with pytest.raises(BudgetDecreaseError):
            mechanism.RelaxKernel(1.0, 0.5, 3)
        with pytest.raises(ParameterError, match="^eps_next must be positive and finite"):
            mechanism.RelaxKernel(0.0, 0.0, 3)

    # test id -> (a build with one bad parameter, the parameter the error names)
    BAD = {
        "distribution-epsilon": (lambda: mechanism.ResponseDistribution(math.nan, 3), "epsilon"),
        "distribution-m": (lambda: mechanism.ResponseDistribution(1.0, 1), "m"),
        "kernel-eps_prev-negative": (lambda: mechanism.RelaxKernel(-0.5, 1.0, 3), "eps_prev"),
        "kernel-eps_prev-string": (lambda: mechanism.RelaxKernel("0", 1.0, 3), "eps_prev"),
        "kernel-eps_next": (lambda: mechanism.RelaxKernel(0.5, math.inf, 3), "eps_next"),
        "kernel-m": (lambda: mechanism.RelaxKernel(0.5, 1.0, 2.5), "m"),
        "rappor-eps_alpha": (lambda: RapporParams(0.0, 0.5), "eps_alpha"),
        "rappor-eps_beta": (lambda: RapporParams(1.0, None), "eps_beta"),
    }

    @pytest.mark.parametrize("case", list(BAD))
    def test_a_bad_parameter_is_refused_by_name(self, case):
        build, name = self.BAD[case]
        with pytest.raises(ParameterError, match=rf"^{name} must "):
            build()


# test id -> (call of a scalar rule of `_util` with the name "arg", refused; the
# refusal's first word)
SCALAR_RULES = {
    "as_float": (lambda: _util.as_float("x", "arg"), "arg"),
    "as_sequence": (lambda: _util.as_sequence(1, "arg"), "arg"),
    "check_epsilon": (lambda: _util.check_epsilon(0.0, "arg"), "arg"),
    "check_next_epsilon": (lambda: _util.check_next_epsilon(0.5, math.inf, "arg", "s"), "arg"),
    "check_schedule-entry": (lambda: _util.check_schedule((0.5, -1.0), "arg"), "arg[1]"),
    "check_schedule-empty": (lambda: _util.check_schedule((), "arg"), "arg"),
    "check_schedule-decreasing": (lambda: _util.check_schedule((1.0, 0.5), "arg"), "arg"),
    "check_count": (lambda: _util.check_count(0, "arg"), "arg"),
    "check_count-integral": (lambda: _util.check_count(1.5, "arg"), "arg"),
    "check_domain_size": (lambda: _util.check_domain_size(1, "arg"), "arg"),
    "check_count-bound": (lambda: _util.check_count(2**53 + 1, "arg"), "arg"),
    "check_domain_size-bound": (lambda: _util.check_domain_size(2**53 + 1, "arg"), "arg"),
    "check_domain_size-most": (lambda: _util.check_domain_size(5, "arg", most=4), "arg"),
    "check_table_domain": (lambda: _util.check_table_domain(MAX_DOMAIN + 1, "arg"), "arg"),
    "check_rounds": (lambda: _util.check_rounds(_util.MAX_ROUNDS + 1, "arg"), "arg"),
    "check_rounds-infinite": (lambda: _util.check_rounds(math.inf, "arg"), "arg"),
    "check_rounds-zero": (lambda: _util.check_rounds(0, "arg"), "arg"),
    "check_value": (lambda: _util.check_value(3, 3, "arg"), "arg"),
}


@pytest.mark.parametrize("call", list(SCALAR_RULES))
def test_scalar_rule_names_its_argument_first(call):
    # `ExperimentConfig` renames a refusal to a field by its first word
    fn, first = SCALAR_RULES[call]
    with pytest.raises(ParameterError) as refused:
        fn()
    assert str(refused.value).split(" ", 1)[0] == first


def test_bounds_live_in_util():
    assert mechanism.MAX_DOMAIN is _util.MAX_DOMAIN == 64
    assert experiments.MAX_ROUNDS is _util.MAX_ROUNDS == 100_000
    assert experiments.MAX_OBJECT_VALUES is _util.MAX_OBJECT_VALUES == 2**24


# test id -> (call with a count one past `MAX_ROUNDS`, argument the error must name); each
# is refused before its loop or allocation
PAST_THE_ROUND_BOUND = {
    "noisy_sampling_schedule": (lambda n: noisy_sampling_schedule(1.0, 0.5, n), "rounds"),
    "noisy_sampling_schedule-endless": (
        lambda n: noisy_sampling_schedule(1e308, 65, 10**100),
        "rounds",
    ),
    "audit_noisy_sampling_epsilon": (lambda n: audit_noisy_sampling_epsilon(PARAMS, n), "K"),
    "simulate_noisy_sampling_batch": (
        lambda n: simulate_noisy_sampling_batch([0, 1], PARAMS, n, _rng()),
        "K",
    ),
}


@pytest.mark.parametrize("call", list(PAST_THE_ROUND_BOUND))
def test_round_count_past_the_bound_is_refused(call):
    fn, name = PAST_THE_ROUND_BOUND[call]
    with pytest.raises(ParameterError, match=rf"^{name} must be at most the limit of 100000 rounds"):
        fn(_util.MAX_ROUNDS + 1)


def test_noisy_samples_past_the_memory_bound_are_refused_before_any_draw():
    class Reached(Exception):
        pass

    class NoDraws:
        def random(self, *args, **kwargs):
            raise Reached

    bits = np.zeros(2**10, dtype=np.int64)
    most = _util.MAX_OBJECT_VALUES // bits.size
    with pytest.raises(ParameterError, match=r"^K times the bits \(16385 \* 1024\) must be at most"):
        simulate_noisy_sampling_batch(bits, PARAMS, most + 1, NoDraws())
    with pytest.raises(Reached):  # the bound is inclusive
        simulate_noisy_sampling_batch(bits, PARAMS, most, NoDraws())


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached


def _covariance_of_uniform(m):
    # a uniform composition of m values as one broadcast double, with the O(m)
    # composition check stubbed out, so that m = 2**40 takes no memory or scan
    uniform = np.broadcast_to(1.0 / m, (m,))
    with mock.patch.object(estimation, "check_distribution", lambda p, m, name: p):
        return frequency_estimate_covariance(uniform, 1.0, 10)


# test id -> (call with m, (owner, name) of the allocation or scan sized by m, the
# largest m taken)
DOMAIN_SIZED_WORK = {
    "histogram": (lambda m: histogram([0], m), (np, "bincount"), _util.MAX_OBJECT_VALUES),
    "frequency_estimate_covariance": (
        _covariance_of_uniform,
        (estimation, "_decoded_covariance"),
        4096,
    ),
    "balanced_subset": (
        lambda m: balanced_subset([0, 1], m, _rng()),
        (inference, "_value_indices"),
        MAX_DOMAIN,
    ),
}


@pytest.mark.parametrize("call", list(DOMAIN_SIZED_WORK))
def test_domain_past_its_work_bound_is_refused_first(monkeypatch, call):
    # the work itself is never launched: past the bound it is refused by m,
    # and at the bound the patched allocation or scan is reached
    fn, (owner, name), most = DOMAIN_SIZED_WORK[call]
    monkeypatch.setattr(owner, name, _reached)
    for m in (most + 1, 2**40):
        with pytest.raises(ParameterError, match=rf"^m must be at most {most}, got {m}$"):
            fn(m)
    with pytest.raises(_Reached):  # the bound is inclusive
        fn(most)


def test_decodes_take_the_covariance_bound(monkeypatch):
    assert MAX_DECODE_DOMAIN**2 == _util.MAX_OBJECT_VALUES
    monkeypatch.setattr(estimation, "_debias", _reached)
    monkeypatch.setattr(estimation, "_decoded_covariance", _reached)
    m = MAX_DECODE_DOMAIN + 1
    for call in (
        lambda: estimate_poly(np.ones(m), 1.0),
        lambda: frequency_estimate_covariance(np.ones(m) / m, 1.0, 10),
    ):
        with pytest.raises(ParameterError, match=rf"^m must be at most 4096, got {m}$"):
            call()
    with pytest.raises(_Reached):  # the bound is inclusive
        estimate_poly(np.ones(m - 1), 1.0)
