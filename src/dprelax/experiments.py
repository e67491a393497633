"""Deterministic experiment runner and CSV emitters.

Configuration is JSON with the following schema::

    {
      "name": "experiment1",        # optional, used in output file names
      "m": 2,                       # domain size
      "counts": [400, 600],         # population count per value 0..m-1
      "schedule": {...},            # see below
      "trials": 100,
      "seed": 9444860727793176065   # 64-bit master seed
    }

with three schedule kinds::

    {"kind": "list",           "epsilons": [0.1, 0.5, 1.0]}
    {"kind": "linear",         "start": 0.1, "stop": 1.0, "stride": 0.1}
    {"kind": "noisy-sampling", "eps_alpha": 1.0, "eps_beta": 0.5, "rounds": 10}

Reproducibility contract: a run is a pure function of (config, seed).  Each
trial draws from its own stream split off the master seed, trials are reduced
in index order, and floats are serialized with 17 significant digits, so
outputs are byte-identical for any ``threads`` setting.  All theoretical
columns come from `estimation` / `rappor` / `inference`; nothing is re-derived
here.
"""

import csv
import json
import math
from numbers import Integral, Real
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._util import as_float, check_count
from .errors import ConfigError
from .estimation import (
    decode_histogram,
    frequency_estimate_covariance,
    histogram,
    perturbation_matrix,
    variance_binary_estimate,
)
from .inference import ATTACK_METHODS, _running_guesses, balanced_subset, min_error_rate
from .mechanism import (
    MAX_DOMAIN,
    relax_kernel,
    relax_step_batch,
    rr_distribution,
    sample_rr_batch,
)
from .rappor import (
    decode_noisy_sampling_counts,
    noisy_sampling_schedule,
    rappor_params,
    simulate_noisy_sampling_batch,
    variance_noisy_sampling,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "RapporComparison",
    "config_from_dict",
    "load_config",
    "simulate_experiment",
    "compare_noisy_sampling",
    "kernel_table_rows",
    "write_rounds_csv",
    "write_attacks_csv",
    "write_rappor_csv",
    "write_kernel_table_csv",
    "write_audit_csv",
]

DEFAULT_TABLE_EPSILONS = (0.1, 0.5, 1.0, 2.0, 10.0)
DEFAULT_TABLE_DOMAINS = tuple(range(3, 11))
# The longest schedule a config may give; a longer one is refused before it
# is built.
MAX_ROUNDS = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see the module docstring for the JSON form."""

    name: str
    m: int
    counts: tuple
    epsilons: tuple
    trials: int
    seed: int
    eps_alpha: float = None
    eps_beta: float = None

    def __post_init__(self):
        # The value rules of every config, also those `config_from_dict`
        # reads from JSON; each failure names its field.
        def fail(field, message):
            _cfg_fail(f"ExperimentConfig.{field}", message)

        def integer(field, value, low):
            if not isinstance(value, Integral) or isinstance(value, bool) or value < low:
                fail(field, f"must be an integer >= {low}, got {value!r}")
            return int(value)

        def positive(field, value):
            return _positive(f"ExperimentConfig.{field}", value)

        def sequence(field, value):
            try:
                return tuple(value)
            except TypeError:
                fail(field, f"must be a sequence, got {value!r}")

        name = self.name
        if not (isinstance(name, str) and name and all(c.isalnum() or c in "-_" for c in name)):
            fail("name", "must be a non-empty [A-Za-z0-9_-] string")
        m = integer("m", self.m, 2)
        if m > MAX_DOMAIN:
            fail("m", f"must be at most {MAX_DOMAIN}, got {m}")
        counts = sequence("counts", self.counts)
        if len(counts) != m:
            fail("counts", f"must list exactly m={m} counts, got {len(counts)}")
        counts = tuple(integer(f"counts[{i}]", c, 1) for i, c in enumerate(counts))
        epsilons = sequence("epsilons", self.epsilons)
        if len(epsilons) > MAX_ROUNDS:
            fail("epsilons", f"must have at most {MAX_ROUNDS} rounds, got {len(epsilons)}")
        epsilons = tuple(positive(f"epsilons[{i}]", e) for i, e in enumerate(epsilons))
        if not epsilons:
            fail("epsilons", "must be non-empty")
        if any(b < a for a, b in zip(epsilons, epsilons[1:])):
            fail("epsilons", "must be non-decreasing")
        trials = integer("trials", self.trials, 1)
        seed = self.seed
        if not isinstance(seed, Integral) or isinstance(seed, bool) or not 0 <= seed < 2**64:
            fail("seed", f"must be an integer that fits in 64 bits, got {seed!r}")
        if (self.eps_alpha is None) != (self.eps_beta is None):
            missing = "eps_alpha" if self.eps_alpha is None else "eps_beta"
            fail(missing, "eps_alpha and eps_beta must be given together")
        for field in ("eps_alpha", "eps_beta"):
            if getattr(self, field) is not None:
                object.__setattr__(self, field, positive(field, getattr(self, field)))
        normalized = dict(m=m, counts=counts, epsilons=epsilons, trials=trials, seed=int(seed))
        for field, value in normalized.items():
            object.__setattr__(self, field, value)

    @property
    def n_objects(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class ExperimentResult:
    """Per-round aggregates across trials, plus the raw per-trial arrays."""

    config: ExperimentConfig
    epsilons: tuple
    est_mean: np.ndarray        # (rounds, m)
    est_var: np.ndarray         # (rounds, m), across trials, ddof=1
    var_theory: np.ndarray      # (rounds, m)
    err_mean: np.ndarray        # (rounds, methods)
    err_std: np.ndarray         # (rounds, methods), ddof=1
    floor: np.ndarray           # (rounds,)
    lo_mle_identical: bool
    estimates: np.ndarray       # (trials, rounds, m)
    errors: np.ndarray          # (trials, rounds, methods)


@dataclass(frozen=True)
class RapporComparison:
    """Relaxation vs repeated noisy sampling at matched privacy, per round."""

    config: ExperimentConfig
    eps_ns: np.ndarray            # (rounds,)
    var_relax_emp: np.ndarray     # (rounds,), ddof=1 across trials
    var_relax_theory: np.ndarray
    var_noisy_emp: np.ndarray
    var_noisy_theory: np.ndarray
    relax_estimates: np.ndarray   # (trials, rounds)
    noisy_estimates: np.ndarray   # (trials, rounds)


def _cfg_fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _positive(path: str, value) -> float:
    number = math.nan
    if isinstance(value, Real) and not isinstance(value, bool):
        number = as_float(value)
    if not 0.0 < number < math.inf:  # NaN fails both comparisons
        shown = number if math.isinf(number) else repr(value)  # no 400-digit integers
        _cfg_fail(path, f"must be a positive finite number, got {shown}")
    return number


def _require(raw: dict, key: str, kind, path: str):
    if key not in raw:
        _cfg_fail(f"{path}.{key}", "missing required field")
    value = raw[key]
    accepted = (int, float) if kind is float else kind  # `_positive` converts an int
    if not isinstance(value, accepted) or isinstance(value, bool):
        _cfg_fail(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


# The keys each schedule kind reads besides "kind"; any other key is refused.
_SCHEDULE_KEYS = {
    "list": ("epsilons",),
    "linear": ("start", "stop", "stride"),
    "noisy-sampling": ("eps_alpha", "eps_beta", "rounds"),
}


def _build_schedule(raw: dict, path: str):
    # A list is checked by `ExperimentConfig`; the generated kinds need their
    # parameters checked here, before the schedule is built from them.
    def positive(key):
        return _positive(f"{path}.{key}", _require(raw, key, float, path))

    kind = _require(raw, "kind", str, path)
    if kind not in _SCHEDULE_KEYS:
        _cfg_fail(f"{path}.kind", f"unknown schedule kind {kind!r}")
    for key in raw:
        if key != "kind" and key not in _SCHEDULE_KEYS[kind]:
            _cfg_fail(f"{path}.{key}", f"unknown field for schedule kind {kind!r}")
    if kind == "list":
        return _require(raw, "epsilons", list, path), None, None
    if kind == "linear":
        start, stop, stride = positive("start"), positive("stop"), positive("stride")
        if stop < start:
            _cfg_fail(f"{path}.stop", "must be >= start")
        steps = (stop - start) / stride + 1e-9
        if steps >= MAX_ROUNDS:
            _cfg_fail(f"{path}.stride", f"produces more rounds than the limit of {MAX_ROUNDS}")
        return tuple(start + i * stride for i in range(int(steps) + 1)), None, None
    eps_alpha, eps_beta = positive("eps_alpha"), positive("eps_beta")
    rounds = _require(raw, "rounds", int, path)
    if not 1 <= rounds <= MAX_ROUNDS:
        _cfg_fail(f"{path}.rounds", f"must be in [1, {MAX_ROUNDS}], got {rounds}")
    return tuple(noisy_sampling_schedule(eps_alpha, eps_beta, rounds)), eps_alpha, eps_beta


def config_from_dict(raw: dict, source: str = "config") -> ExperimentConfig:
    """Validate a parsed JSON object into an ExperimentConfig.

    Checks the JSON shape here (required keys, JSON types, unknown keys,
    schedule kinds) and leaves the value rules to `ExperimentConfig`; its
    errors are renamed from ``ExperimentConfig.<field>`` to the field's path
    in the file.
    """
    if not isinstance(raw, dict):
        _cfg_fail(source, "top-level value must be an object")
    fields = {
        key: _require(raw, key, kind, source)
        for key, kind in (("m", int), ("counts", list), ("trials", int), ("seed", int))
    }
    schedule = _require(raw, "schedule", dict, source)
    epsilons, eps_alpha, eps_beta = _build_schedule(schedule, f"{source}.schedule")
    known = {"name", "schedule", *fields}
    for key in raw:
        if key not in known:
            _cfg_fail(f"{source}.{key}", "unknown field")
    try:
        return ExperimentConfig(
            name=raw.get("name", "experiment"),
            epsilons=epsilons,
            eps_alpha=eps_alpha,
            eps_beta=eps_beta,
            **fields,
        )
    except ConfigError as exc:
        field = str(exc).removeprefix("ExperimentConfig.")
        where = "schedule." if field.startswith("epsilons") else ""
        raise ConfigError(f"{source}.{where}{field}") from None


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than Python's digit limit
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(raw, source=str(path))


def _with_seed(config: ExperimentConfig, seed) -> ExperimentConfig:
    if seed is None or seed == config.seed:
        return config
    return replace(config, seed=int(seed))


def _truth_vector(config: ExperimentConfig) -> np.ndarray:
    return np.repeat(np.arange(config.m, dtype=np.int64), config.counts)


def _trial_streams(config: ExperimentConfig):
    return np.random.SeedSequence(config.seed).spawn(config.trials)


def _trial_generators(stream: np.random.SeedSequence, draws: int):
    """A trial's generator, and a copy of it ``draws`` outputs ahead.

    The relaxation rounds draw exactly one double, so one PCG64 output, per
    object and round; a copy advanced by ``n_objects * rounds`` therefore
    starts where the trial's draws after its rounds start, and can make them
    before the rounds are streamed.
    """
    ahead = np.random.default_rng(stream)
    ahead.bit_generator.advance(draws)
    return np.random.default_rng(stream), ahead


def _sample_rounds(truth, epsilons: tuple, m: int, rng):
    """One trial's relaxation chains, yielded as one (n_objects,) output column per round.

    Round 1 is a randomized response at ``epsilons[0]``; each later round
    relaxes the previous column, with the step kernel fetched from the step
    memo as the round comes up.  Only the previous column is kept.
    """
    out = sample_rr_batch(truth, rr_distribution(epsilons[0], m), rng)
    yield out
    for eps_prev, eps_next in zip(epsilons, epsilons[1:]):
        out = relax_step_batch(relax_kernel(eps_prev, eps_next, m), truth, out, rng)
        yield out


def _run_trials(fn, trials: int, threads: int):
    threads = check_count(threads, "threads")
    if threads == 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(trials)))


def simulate_experiment(config: ExperimentConfig, seed=None, threads: int = 1) -> ExperimentResult:
    """Run the relaxation experiment: estimates plus attack error rates per round.

    Per trial and round, the population's outputs are decoded into a frequency
    estimate, and all four inference methods are scored on a balanced subset
    drawn once per trial.  Each round is sampled, decoded and scored as it
    comes, so a trial's chains take only the previous round's outputs and the
    running attack state: O(n_objects * m) memory whatever the number of
    rounds.  The subset is drawn first, from a copy of the trial's generator
    moved past the rounds' draws, so results equal those of sampling every
    round before drawing the subset.
    """
    config = _with_seed(config, seed)
    m, epsilons = config.m, config.epsilons
    rounds = len(epsilons)
    truth = _truth_vector(config)
    channels = [perturbation_matrix(eps, m) for eps in epsilons]
    streams = _trial_streams(config)

    def one_trial(t):
        rng, ahead = _trial_generators(streams[t], truth.size * rounds)
        subset = balanced_subset(truth, m, ahead)
        truth_subset = truth[subset]
        est = np.empty((rounds, m))
        errs = np.empty((rounds, len(ATTACK_METHODS)))
        agree = True
        columns = _sample_rounds(truth, epsilons, m, rng)
        for r, guesses in enumerate(_running_guesses(columns, epsilons, m, truth.size)):
            last = guesses["last_output"]
            est[r] = decode_histogram(histogram(last, m), channels[r])
            for k, method in enumerate(ATTACK_METHODS):
                wrong = np.count_nonzero(guesses[method][subset] != truth_subset)
                errs[r, k] = wrong / subset.size
            agree = agree and np.array_equal(last, guesses["mle"])
        return est, errs, agree

    results = _run_trials(one_trial, config.trials, threads)
    estimates = np.stack([r[0] for r in results])
    errors = np.stack([r[1] for r in results])
    lo_mle_identical = all(r[2] for r in results)

    true_freq = np.asarray(config.counts, dtype=float) / config.n_objects
    var_theory = np.stack(
        [
            np.diag(frequency_estimate_covariance(true_freq, eps, config.n_objects))
            for eps in epsilons
        ]
    )
    ddof = 1 if config.trials > 1 else 0
    return ExperimentResult(
        config=config,
        epsilons=epsilons,
        est_mean=estimates.mean(axis=0),
        est_var=estimates.var(axis=0, ddof=ddof),
        var_theory=var_theory,
        err_mean=errors.mean(axis=0),
        err_std=errors.std(axis=0, ddof=ddof),
        floor=np.array([min_error_rate(eps, m) for eps in epsilons]),
        lo_mle_identical=lo_mle_identical,
        estimates=estimates,
        errors=errors,
    )


def compare_noisy_sampling(config: ExperimentConfig, seed=None, threads: int = 1) -> RapporComparison:
    """Head-to-head variance of relaxation vs repeated noisy sampling.

    Requires a binary domain and a noisy-sampling schedule so both pipelines
    sit at the same privacy parameter after every round.  Round k decodes the
    relaxation outputs at eps_ns(k) and the first k noisy samples of each
    client.  The relaxation rounds are streamed like `simulate_experiment`'s;
    each trial's noisy samples are drawn first, from a copy of its generator
    moved past the rounds' draws.
    """
    config = _with_seed(config, seed)
    if config.m != 2:
        raise ConfigError("compare-rappor: m must be 2 (per-bit comparison)")
    if config.eps_alpha is None:
        raise ConfigError('compare-rappor: schedule kind must be "noisy-sampling"')
    params = rappor_params(config.eps_alpha, config.eps_beta)
    epsilons = config.epsilons
    rounds = len(epsilons)
    truth = _truth_vector(config)
    n = truth.size
    channels = [perturbation_matrix(eps, 2) for eps in epsilons]
    streams = _trial_streams(config)

    def one_trial(t):
        rng, ahead = _trial_generators(streams[t], n * rounds)
        counts = simulate_noisy_sampling_batch(truth, params, rounds, ahead)
        relax_est = np.empty(rounds)
        noisy_est = np.empty(rounds)
        for r, out in enumerate(_sample_rounds(truth, epsilons, 2, rng)):
            relax_est[r] = decode_histogram(histogram(out, 2), channels[r])[1]
            noisy_est[r] = decode_noisy_sampling_counts(counts[:, r], r + 1, params)
        return relax_est, noisy_est

    results = _run_trials(one_trial, config.trials, threads)
    relax_estimates = np.stack([r[0] for r in results])
    noisy_estimates = np.stack([r[1] for r in results])
    ddof = 1 if config.trials > 1 else 0
    return RapporComparison(
        config=config,
        eps_ns=np.asarray(epsilons),
        var_relax_emp=relax_estimates.var(axis=0, ddof=ddof),
        var_relax_theory=np.array([variance_binary_estimate(e, n) for e in epsilons]),
        var_noisy_emp=noisy_estimates.var(axis=0, ddof=ddof),
        var_noisy_theory=np.array(
            [variance_noisy_sampling(params, n, k) for k in range(1, rounds + 1)]
        ),
        relax_estimates=relax_estimates,
        noisy_estimates=noisy_estimates,
    )


def kernel_table_rows(eps_values=DEFAULT_TABLE_EPSILONS, domain_sizes=DEFAULT_TABLE_DOMAINS) -> list:
    """Kernel entries for every consecutive parameter pair and domain size.

    The first grid value only seeds the first transition; rows are
    (m, eps_prev, eps_next, p_aa, p_bb, p_ba).
    """
    rows = []
    for m in domain_sizes:
        for eps_prev, eps_next in zip(eps_values, eps_values[1:]):
            k = relax_kernel(eps_prev, eps_next, m)
            rows.append((m, eps_prev, eps_next, k.p_aa, k.p_bb, k.p_ba))
    return rows


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def _rounds_table(result: ExperimentResult):
    m = result.config.m
    header = ["round", "epsilon"]
    for j in range(m):
        header += [f"est_mean_{j}", f"est_var_{j}", f"est_var_theory_{j}"]
    for method in ATTACK_METHODS:
        header += [f"err_{method}_mean", f"err_{method}_std"]
    header.append("min_error_rate")
    rows = []
    for r, eps in enumerate(result.epsilons):
        row = [r + 1, eps]
        for j in range(m):
            row += [result.est_mean[r, j], result.est_var[r, j], result.var_theory[r, j]]
        for k in range(len(ATTACK_METHODS)):
            row += [result.err_mean[r, k], result.err_std[r, k]]
        row.append(result.floor[r])
        rows.append(row)
    return header, rows


def write_rounds_csv(result: ExperimentResult, path) -> Path:
    """Full per-round table: estimates, variances, attack errors, floor."""
    return _write_csv(path, *_rounds_table(result))


def write_attacks_csv(result: ExperimentResult, path) -> Path:
    """Attack-only view: the per-round table without its ``est_*`` columns."""
    header, rows = _rounds_table(result)
    keep = [i for i, name in enumerate(header) if not name.startswith("est_")]
    return _write_csv(path, [header[i] for i in keep], ([row[i] for i in keep] for row in rows))


def write_rappor_csv(comparison: RapporComparison, path) -> Path:
    header = [
        "K",
        "eps_ns",
        "var_relax_empirical",
        "var_relax_theory",
        "var_noisy_empirical",
        "var_noisy_theory",
    ]
    rows = [
        (
            k + 1,
            comparison.eps_ns[k],
            comparison.var_relax_emp[k],
            comparison.var_relax_theory[k],
            comparison.var_noisy_emp[k],
            comparison.var_noisy_theory[k],
        )
        for k in range(len(comparison.eps_ns))
    ]
    return _write_csv(path, header, rows)


def write_kernel_table_csv(rows, path) -> Path:
    return _write_csv(path, ["m", "eps_prev", "eps_next", "p_aa", "p_bb", "p_ba"], rows)


def write_audit_csv(checks, path) -> Path:
    rows = [(c.name, c.worst, c.bound, "pass" if c.passed else "fail") for c in checks]
    return _write_csv(path, ["check", "worst", "bound", "status"], rows)
