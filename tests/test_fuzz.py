"""Adversarial values in every argument of every public entry.

Each public callable is called once per argument and per value of `VALUES`,
with every other argument valid.  Each call must return (an iterator is
drained) or raise a `DPRelaxError`, within `TIME_LIMIT` seconds and with no
`RuntimeWarning`.  Generators are left valid: they are duck-typed, read
only through their ``random`` and ``choice`` methods, and not checked.  No
value is a size between the shipped ones and a bound, so every size is small
and valid or refused before any allocation.
"""

import inspect
import math
import signal
import types
import warnings

import numpy as np
import pytest

from dprelax import audit, estimation, experiments, inference, mechanism, rappor
from dprelax.errors import DPRelaxError

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
RNG = object()  # stands for a fresh generator, never replaced by a value

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
    "experiments.config_from_dict": (RAW, "fuzz.json"),
    "experiments.simulate_experiment": (CONFIG, 1),
    "experiments.compare_noisy_sampling": (RAPPOR_CONFIG, 1),
    "experiments.kernel_table_rows": ((0.5, 1.0), (3,)),
}

# Public names the harness does not call: result containers, which hold what
# a runner or an auditor computed and check nothing, and the file readers and
# writers, which take paths.
NOT_CALLED = {
    "estimation.FrequencyEstimate",
    "audit.CompositionAudit",
    "audit.AuditCheck",
    "experiments.ExperimentResult",
    "experiments.RapporComparison",
    "experiments.load_config",
    "experiments.write_rounds_csv",
    "experiments.write_attacks_csv",
    "experiments.write_rappor_csv",
    "experiments.write_kernel_table_csv",
    "experiments.write_audit_csv",
}

MODULES = (mechanism, estimation, rappor, inference, audit, experiments)


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
        if valid is RNG:
            continue
        for value in VALUES:
            found = _outcome(fn, args[:i] + (value,) + args[i + 1 :])
            if found is not None:
                failures.append(f"argument {i} = {value!r}: {found}")
    assert not failures
