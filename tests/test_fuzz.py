"""Adversarial values in every argument of every public entry.

Each public callable is called once per argument and per value of `VALUES`,
with every other argument valid.  Each call must return (an iterator is
drained) or raise a `DPRelaxError`, within `TIME_LIMIT` seconds and with no
`RuntimeWarning`.  Generators are left valid: they are duck-typed, read
only through their ``random`` and ``choice`` methods, and not checked.  No
value is a size between the shipped ones and a bound, so every size is small
and valid or refused before any allocation.  Each test runs in its own
temporary directory, where ``fuzz.json`` holds a valid config: the file
reader and writers are called there.
"""

import inspect
import json
import math
import signal
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from dprelax import audit, estimation, experiments, inference, mechanism, rappor
from dprelax._util import check_count, check_epsilon, check_rounds, check_table_domain
from dprelax.errors import ConfigError, DPRelaxError, ParameterError

TIME_LIMIT = 2.0

VALUES = (
    0,
    -1,
    -0.0,
    1.5,
    1e-320,
    1e308,
    math.inf,
    -math.inf,
    math.nan,
    True,
    "1",
    b"1",
    None,
    [],
    [math.nan],
    [[0, 1], [0]],
    {},
    1j,
    np.array(1.0),
    np.int64(7),
    2**53 + 1,
    2**63,
    10**400,
)

CHAIN = mechanism.RelaxationChain(0, 3, (0.5, 1.0), (0, 2))
PARAMS = rappor.rappor_params(1.0, 0.5)
CONFIG = experiments.ExperimentConfig("fuzz", 2, (3, 4), (0.5, 1.0), 2, 1)
RAPPOR_CONFIG = experiments.ExperimentConfig(
    "fuzz", 2, (3, 4), tuple(rappor.noisy_sampling_schedule(1.0, 0.5, 2)), 2, 1, 1.0, 0.5
)
RAW = {
    "m": 2,
    "counts": [3, 4],
    "schedule": {"kind": "linear", "start": 0.5, "stop": 1.0, "stride": 0.5},
    "trials": 2,
    "seed": 1,
}
RESULT = experiments.simulate_experiment(CONFIG)
COMPARISON = experiments.compare_noisy_sampling(RAPPOR_CONFIG)
RNG = object()  # stands for a fresh generator, never replaced by a value
# A writer's output path, in the test's directory, is never replaced by a
# value either: an unwritable path is an `OSError`, which the CLI reports
# with exit code 2 as it does a library error.
OUT = Path("fuzz.csv")

# module.name -> valid arguments, in order
VALID = {
    "mechanism.ResponseDistribution": (1.0, 3),
    "mechanism.RelaxKernel": (0.5, 1.0, 3),
    "mechanism.RelaxationChain": (0, 3, (0.5, 1.0), (0, 2)),
    "mechanism.rr_distribution": (1.0, 3),
    "mechanism.sample_rr_batch": ([0, 2], mechanism.rr_distribution(1.0, 3), RNG),
    "mechanism.relax_kernel": (0.5, 1.0, 3),
    "mechanism.kernel_tensor": (mechanism.relax_kernel(0.5, 1.0, 3),),
    "mechanism.start_chain": (1, 3, 0.5, RNG),
    "mechanism.relax_step": (CHAIN, 1.0, RNG),
    "mechanism.relax_step_batch": (mechanism.relax_kernel(0.5, 1.0, 3), [0, 1], [1, 1], RNG),
    "mechanism.iter_chain_rounds": ([0, 2], (0.5, 1.0), 3, RNG),
    "mechanism.iter_log_likelihoods": ([[0, 2]], (0.5, 1.0), 3),
    "mechanism.chain_log_likelihoods": ([[0, 2]], (0.5, 1.0), 3),
    "mechanism.chain_likelihood": ([0, 2], (0.5, 1.0), 3, 1),
    "estimation.histogram": ([0, 2, 2], 3),
    "estimation.estimate_binary": (0.6, 1.0),
    "estimation.estimate_poly": ([3, 4, 5], 1.0),
    "estimation.frequency_estimate_covariance": ([0.2, 0.3, 0.5], 1.0, 10),
    "estimation.variance_binary_estimate": (1.0, 10),
    "estimation.discretize_mean": (0.3, 0.0, 1.0, RNG),
    "estimation.estimate_mean": (0.6, 1.0, 0.0, 1.0),
    "rappor.RapporParams": (1.0, 0.5),
    "rappor.rappor_params": (1.0, 0.5),
    "rappor.eps_noisy_sampling": (3, PARAMS),
    "rappor.noisy_sampling_schedule": (1.0, 0.5, 3),
    "rappor.simulate_noisy_sampling_batch": ([0, 1], PARAMS, 3, RNG),
    "rappor.decode_noisy_sampling_counts": ([1, 2], 3, PARAMS),
    "rappor.variance_noisy_sampling": (PARAMS, 10, 3),
    "inference.uniform_prior": (3,),
    "inference.posterior": (CHAIN, [0.2, 0.3, 0.5]),
    "inference.iter_attack_guesses": ([[0, 2]], (0.5, 1.0), 3),
    "inference.attack_guesses_matrix": ([[0, 2]], (0.5, 1.0), 3),
    "inference.min_error_rate": (1.0, 3),
    "inference.balanced_subset": ([0, 1, 2, 2], 3, RNG),
    "audit.chain_log_probs": ((0.5, 1.0), 3),
    "audit.audit_composition_ldp": ((0.5, 1.0), 3),
    "audit.audit_step_epsilon": (0.5, 1.0, 3),
    "audit.audit_noisy_sampling_epsilon": (PARAMS, 3),
    "audit.run_standard_audits": (),
    "experiments.ExperimentConfig": ("fuzz", 2, (3, 4), (0.5, 1.0), 2, 1, None, None),
    "experiments.ExperimentResult": (CONFIG, RESULT.estimates, RESULT.errors, True),
    "experiments.RapporComparison": (
        RAPPOR_CONFIG,
        COMPARISON.relax_estimates,
        COMPARISON.noisy_estimates,
    ),
    "experiments.config_from_dict": (RAW, "fuzz.json"),
    "experiments.simulate_experiment": (CONFIG, 1),
    "experiments.compare_noisy_sampling": (RAPPOR_CONFIG, 1),
    "experiments.kernel_table_rows": ((0.5, 1.0), (3,)),
    "experiments.load_config": ("fuzz.json",),
    "experiments.write_rounds_csv": (RESULT, OUT),
    "experiments.write_attacks_csv": (RESULT, OUT),
    "experiments.write_rappor_csv": (COMPARISON, OUT),
    "experiments.write_kernel_table_csv": ([(3, 0.5, 1.0, 0.7, 0.8, 0.1)], OUT),
    "experiments.write_audit_csv": ([audit.AuditCheck("fuzz", 0.0, 1e-9)], OUT),
}

# Public names the harness does not call: result containers, which hold what
# an estimator or an auditor computed and check nothing.
NOT_CALLED = {
    "estimation.FrequencyEstimate",
    "audit.CompositionAudit",
    "audit.AuditCheck",
}

MODULES = (mechanism, estimation, rappor, inference, audit, experiments)


@pytest.fixture(autouse=True)
def _in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fuzz.json").write_text(json.dumps(RAW))


def _public_callables() -> dict:
    found = {}
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if callable(value):
                found[f"{module.__name__.removeprefix('dprelax.')}.{name}"] = value
    return found


def test_every_public_callable_is_covered():
    public = _public_callables()
    assert set(VALID) | NOT_CALLED == set(public)
    for key, args in VALID.items():
        assert len(inspect.signature(public[key]).parameters) == len(args), key


class _TimeLimit(BaseException):
    pass


def _alarm(signum, frame):
    raise _TimeLimit


def _outcome(fn, args) -> str | None:
    # None when the call returned or raised a DPRelaxError in time, else what
    # went wrong
    args = [np.random.default_rng(0) if a is RNG else a for a in args]
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = fn(*args)
            if isinstance(result, types.GeneratorType):
                for _ in result:
                    pass
    except DPRelaxError:
        return None
    except _TimeLimit:
        return f"took over {TIME_LIMIT} s"
    except Exception as exc:  # any other error is the finding
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return None


@pytest.mark.parametrize("key", [k for k, args in VALID.items() if args])
def test_adversarial_values_return_or_raise_a_library_error(key):
    fn = _public_callables()[key]
    args = VALID[key]
    assert _outcome(fn, args) is None  # the valid call itself
    failures = []
    for i, valid in enumerate(args):
        if valid is RNG or valid is OUT:
            continue
        for value in VALUES:
            found = _outcome(fn, args[:i] + (value,) + args[i + 1 :])
            if found is not None:
                failures.append(f"argument {i} = {value!r}: {found}")
    assert not failures


def _accepted(rule, value, name: str):
    # what a `_util` rule reads ``value`` as, or None where it refuses it
    try:
        return rule(value, name)
    except ParameterError:
        return None


# A config's integer fields, each with the `_util` rule that reads it
INTEGER_RULES = {
    "m": check_table_domain,
    "trials": check_count,
    "counts[1]": check_count,
    "schedule.rounds": check_rounds,
}


@pytest.mark.parametrize("field", list(INTEGER_RULES))
def test_a_config_reads_an_integer_as_the_library_does(field):
    # through `config_from_dict` and, but for the schedule's rounds, a config
    # built in code: accepted, as its rule reads it, exactly when the rule
    # accepts it, and otherwise refused naming the field
    failures = []
    for value in VALUES:
        expected = _accepted(INTEGER_RULES[field], value, field)
        m = expected if field == "m" and expected is not None else 2
        fields = {"m": m, "counts": [3] * m, "trials": 2, "seed": 1}
        schedule = {"kind": "noisy-sampling", "eps_alpha": 1.0, "eps_beta": 0.5, "rounds": 2}
        if field == "counts[1]":
            fields["counts"] = [3, value]
        elif field == "schedule.rounds":
            schedule["rounds"] = value
        else:
            fields[field] = value
        builds = {"config": lambda: experiments.config_from_dict({**fields, "schedule": schedule})}
        if field != "schedule.rounds":
            epsilons = tuple(rappor.noisy_sampling_schedule(1.0, 0.5, 2))
            builds["ExperimentConfig"] = lambda: experiments.ExperimentConfig(
                "fuzz", epsilons=epsilons, eps_alpha=1.0, eps_beta=0.5, **fields
            )
        for prefix, build in builds.items():
            try:
                config = build()
            except ConfigError as exc:
                if expected is not None or not str(exc).startswith(f"{prefix}.{field}: "):
                    failures.append(f"{value!r} via {prefix}: {exc}")
                continue
            read = {
                "m": config.m,
                "trials": config.trials,
                "counts[1]": config.counts[1],
                "schedule.rounds": len(config.epsilons),
            }[field]
            if expected is None or read != expected or type(read) is not int:
                failures.append(f"{value!r} via {prefix}: read as {read!r}")
    assert not failures


@pytest.mark.parametrize(
    "key, schedule",
    [
        ("start", {"kind": "linear", "start": 0.5, "stop": 1.0, "stride": 0.5}),
        ("stop", {"kind": "linear", "start": 0.5, "stop": 1.0, "stride": 0.5}),
        ("stride", {"kind": "linear", "start": 0.5, "stop": 1.0, "stride": 0.5}),
        ("eps_alpha", {"kind": "noisy-sampling", "eps_alpha": 1.0, "eps_beta": 0.5, "rounds": 2}),
        ("eps_beta", {"kind": "noisy-sampling", "eps_alpha": 1.0, "eps_beta": 0.5, "rounds": 2}),
    ],
)
def test_a_config_refuses_every_epsilon_the_library_refuses(key, schedule):
    failures = []
    for value in VALUES:
        if _accepted(check_epsilon, value, key) is not None:
            continue
        try:
            experiments.config_from_dict({**RAW, "schedule": {**schedule, key: value}})
            failures.append(f"{value!r}: accepted")
        except ConfigError as exc:
            if not str(exc).startswith(f"config.schedule.{key}: "):
                failures.append(f"{value!r}: {exc}")
    assert not failures
