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

Reproducibility contract: a run is a pure function of its config, seed
included (`dataclasses.replace` runs a config under another seed).  Each
trial draws from its own stream split off the master seed, trials are reduced
in index order, and floats are serialized with 17 significant digits, so
outputs are byte-identical for any ``threads`` setting.  All theoretical
columns come from `estimation` / `rappor` / `inference`; nothing is re-derived
here.

Trials run in blocks: consecutive trials, up to `BLOCK_OBJECTS` objects in
all, are tiled into one population, so each round of a block is one sampler
call, one scoring update and one histogram count for all of its trials.  Every
trial still draws its doubles from its own stream, in the order it would
alone, so a block's results equal those of its trials run one by one.
`_run_trials` is the one block driver: it streams each block's rounds to a
runner's per-block work, and ``threads`` splits the blocks.
"""

import csv
import json
from numbers import Integral
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import (
    MAX_OBJECT_VALUES, MAX_ROUNDS, as_sequence, check_count, check_domain_size, check_epsilon,
    check_instance, check_rounds, check_schedule, check_table_domain,
)
from .errors import ConfigError, ParameterError
from .estimation import _debias, _growth, frequency_estimate_covariance, variance_binary_estimate
from .inference import ATTACK_METHODS, _balanced_draw, _running_guesses, _value_indices, min_error_rate
from .mechanism import _plan, iter_chain_rounds, relax_kernel
from .rappor import (
    _decode_noisy_counts,
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
# Bounds on a config, each refused before the run's first allocation, beside
# `MAX_DOMAIN`, `MAX_ROUNDS` and `MAX_OBJECT_VALUES` (objects * m) of `_util`:
MAX_TRIALS = 100_000  # every trial's seed is spawned up front: 1 s and 40 MB at this bound
MAX_RESULT_VALUES = 2**27  # trials * rounds * (m + 4) result doubles: 1 GiB
# Workers beyond a large machine's cores gain nothing, and a run may have
# `MAX_TRIALS` blocks: unbounded, ``threads`` could start 100000 OS threads.
MAX_THREADS = 64
# The objects a block of trials tiles into one population; a trial larger than
# this runs alone.  Blocks cut the numpy calls per trial-round on small
# populations; at 8192 objects a block's arrays add under 2 MB to a shipped
# config's peak RSS, where 32768 would add about 10 MB for no further speed.
BLOCK_OBJECTS = 8192


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
        # reads from JSON; each failure names its field.  A refusal by a
        # `_util` rule begins with the name it was given: the field.
        def fail(field, message):
            _cfg_fail(f"ExperimentConfig.{field}", message)

        def integer(field, value, low):
            if not isinstance(value, Integral) or isinstance(value, bool) or value < low:
                fail(field, f"must be an integer >= {low}, got {value!r}")
            return int(value)

        name = self.name
        if not (isinstance(name, str) and name and all(c.isalnum() or c in "-_" for c in name)):
            fail("name", "must be a non-empty [A-Za-z0-9_-] string")
        try:
            m = check_table_domain(integer("m", self.m, 2))
            counts = as_sequence(self.counts, "counts")
            if len(counts) != m:
                fail("counts", f"must list exactly m={m} counts, got {len(counts)}")
            counts = tuple(integer(f"counts[{i}]", c, 1) for i, c in enumerate(counts))
            if sum(counts) > MAX_OBJECT_VALUES // m:
                fail("counts", f"must sum to at most {MAX_OBJECT_VALUES // m}, got {sum(counts)}")
            epsilons = check_schedule(self.epsilons, "epsilons")
            rounds = check_rounds(len(epsilons), "epsilons")
            trials = integer("trials", self.trials, 1)
            most = min(MAX_TRIALS, MAX_RESULT_VALUES // (rounds * (m + 4)))
            if trials > most:
                fail("trials", f"must be at most {most} at {rounds} rounds, got {trials}")
            seed = self.seed
            if not isinstance(seed, Integral) or isinstance(seed, bool) or not 0 <= seed < 2**64:
                fail("seed", f"must be an integer that fits in 64 bits, got {seed!r}")
            normalized = dict(m=m, counts=counts, epsilons=epsilons, trials=trials, seed=int(seed))
            if (self.eps_alpha is None) != (self.eps_beta is None):
                missing = "eps_alpha" if self.eps_alpha is None else "eps_beta"
                fail(missing, "eps_alpha and eps_beta must be given together")
            if self.eps_alpha is not None:
                pair = tuple(check_epsilon(getattr(self, k), k) for k in ("eps_alpha", "eps_beta"))
                # the pair stands for the matched schedule the JSON path builds;
                # any other would run the two pipelines at unmatched privacy
                if epsilons != tuple(noisy_sampling_schedule(*pair, rounds)):
                    fail("epsilons", "must be the noisy-sampling schedule of eps_alpha and eps_beta")
                normalized.update(eps_alpha=pair[0], eps_beta=pair[1])
            # every run decodes its first round, at the schedule's least ε
            _growth(epsilons[0], "epsilons[0]")
        except ParameterError as exc:
            field, _, message = str(exc).partition(" ")
            fail(field, message)
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


def _require(raw: dict, key: str, kind, path: str):
    if key not in raw:
        _cfg_fail(f"{path}.{key}", "missing required field")
    value = raw[key]
    accepted = (int, float) if kind is float else kind  # `check_epsilon` converts an int
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
    # A list is checked by `ExperimentConfig`; the generated kinds' parameters
    # are checked by the `_util` rules before the schedule is built from them,
    # and a rule's refusal is renamed to the parameter's path.
    kind = _require(raw, "kind", str, path)
    if kind not in _SCHEDULE_KEYS:
        _cfg_fail(f"{path}.kind", f"unknown schedule kind {kind!r}")
    for key in raw:
        if key != "kind" and key not in _SCHEDULE_KEYS[kind]:
            _cfg_fail(f"{path}.{key}", f"unknown field for schedule kind {kind!r}")
    if kind == "list":
        return _require(raw, "epsilons", list, path), None, None
    try:
        if kind == "linear":
            start, stop, stride = (
                check_epsilon(_require(raw, key, float, path), key) for key in _SCHEDULE_KEYS[kind]
            )
            if stop < start:
                _cfg_fail(f"{path}.stop", "must be >= start")
            # a float count, infinite if the division overflows
            rounds = check_rounds(np.floor((stop - start) / stride + 1e-9) + 1, "stride")
            return tuple(start + i * stride for i in range(rounds)), None, None
        eps_alpha, eps_beta = (_require(raw, key, float, path) for key in ("eps_alpha", "eps_beta"))
        rounds = _require(raw, "rounds", int, path)
        schedule = tuple(noisy_sampling_schedule(eps_alpha, eps_beta, rounds))
    except ParameterError as exc:
        key, _, message = str(exc).partition(" ")
        _cfg_fail(f"{path}.{key}", message)
    return schedule, eps_alpha, eps_beta


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
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than Python's digit limit
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(raw, source=str(path))


def _truth_vector(config: ExperimentConfig) -> np.ndarray:
    return np.repeat(np.arange(config.m, dtype=np.int64), config.counts)


def _trial_blocks(config: ExperimentConfig) -> list:
    """Each trial's stream, split off the master seed, in blocks of consecutive
    trials: as many as fit in `BLOCK_OBJECTS` objects, and at least one."""
    streams = np.random.SeedSequence(config.seed).spawn(config.trials)
    size = max(1, min(config.trials, BLOCK_OBJECTS // config.n_objects))
    return [streams[i : i + size] for i in range(0, config.trials, size)]


class _BlockStreams:
    """A block's trial generators, drawn from as one over the tiled population.

    ``random(shape)`` fills row i of a trial-major array, viewed as (trials,
    n_objects), from trial i's generator, so each trial draws, round by round,
    exactly the doubles it draws when run alone.
    """

    def __init__(self, generators: list):
        self._generators = generators

    def random(self, shape):
        u = np.empty(shape)
        for row, rng in zip(u.reshape(len(self._generators), -1), self._generators):
            rng.random(out=row)
        return u


def _decode_block(column, eps: float, m: int, n: int) -> np.ndarray:
    """Every trial's decoded frequencies at ``eps``, (trials, m), of one round's
    trial-major column of ``n`` values a trial: one `np.bincount` with trial i's
    values in the bins [i * m, (i + 1) * m), then `estimate_poly`'s decode of
    the whole (trials, m) block at once, on counts valid by construction."""
    trials = column.size // n
    bins = column.reshape(trials, n) + np.arange(0, trials * m, m)[:, None]
    return _debias(np.bincount(bins.ravel(), minlength=trials * m).reshape(trials, m), n, eps, m)


def _run_trials(config: ExperimentConfig, run_block, threads: int) -> list:
    """``run_block(after, rounds)`` over every block of trials, split across
    ``threads``, with each of its per-trial arrays joined across blocks in
    trial order.

    ``rounds`` is `iter_chain_rounds` over the block's trials tiled into one
    population: one (trials * n_objects,) column per round, trial-major, each
    trial's row drawn from its own generator.  A round draws one double, so one
    PCG64 output, per object: ``after`` holds each trial's generator advanced
    by ``n_objects * rounds``, where its draws after the rounds start, so a
    runner can make those draws before the rounds are streamed.  One thread
    runs in the caller's, whose `np.errstate` a pool worker does not see.
    """
    threads = check_count(threads, "threads")
    if threads > MAX_THREADS:
        raise ParameterError(f"threads must be at most {MAX_THREADS}, got {threads}")
    truth = _truth_vector(config)

    def drive(streams):
        after = [np.random.default_rng(stream) for stream in streams]
        for rng in after:
            rng.bit_generator.advance(truth.size * len(config.epsilons))
        rows = _BlockStreams([np.random.default_rng(stream) for stream in streams])
        tiled = np.tile(truth, len(streams))
        return run_block(after, iter_chain_rounds(tiled, config.epsilons, config.m, rows))

    blocks = _trial_blocks(config)
    if threads == 1:
        results = [drive(block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=min(threads, len(blocks))) as pool:
            results = list(pool.map(drive, blocks))
    return [np.concatenate(parts) for parts in zip(*results)]


def simulate_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run the relaxation experiment: estimates plus attack error rates per round.

    Per trial and round, the population's outputs are decoded into a frequency
    estimate, and all four inference methods are scored on a balanced subset
    drawn once per trial; the count attacks and the MLE are found on that
    subset only, while every object's last output is held against its best
    rival value, so ``lo_mle_identical`` compares the whole population,
    counting a last output whose log-likelihood is within 1e-12 of the
    maximum as the MLE.  Each round is sampled, decoded and scored as it
    comes, so a trial's chains take only the previous round's outputs and the
    running attack state: O(n_objects * m) memory whatever the number of
    rounds.  The subset is drawn first, from a copy of the trial's generator
    moved past the rounds' draws, so results equal those of sampling every
    round before drawing the subset.

    Trials run in blocks of up to `BLOCK_OBJECTS` objects (see the module
    docstring): a block's round is sampled, scored and counted over all of its
    trials at once, and each method's guesses on every trial's subset are one
    gather.  Results do not depend on how trials fall into blocks.
    """
    check_instance(config, ExperimentConfig, "config")
    m, epsilons = config.m, config.epsilons
    rounds, plan = len(epsilons), _plan(epsilons)
    truth = _truth_vector(config)
    n = truth.size
    indices = _value_indices(truth, m)

    def run_block(after, columns):
        trials = len(after)
        subsets = [_balanced_draw(indices, rng) for rng in after]
        size = subsets[0].size  # m * min(counts), the same for every trial
        # every trial's subset, as indices into the tiled population
        picks = np.concatenate([subset + i * n for i, subset in enumerate(subsets)])
        truth_picked = truth[np.concatenate(subsets)]
        est = np.empty((trials, rounds, m))
        errs = np.empty((trials, rounds, len(ATTACK_METHODS)))
        agree = np.ones(trials, dtype=bool)
        for r, (last, last_is_mle, guesses) in enumerate(_running_guesses(columns, plan, m, picks)):
            est[:, r] = _decode_block(last, epsilons[r], m, n)
            for k, method in enumerate(ATTACK_METHODS):
                wrong = guesses[method] != truth_picked
                # a count per slice: with ``axis=1`` one (1, 5000) block takes
                # four times as long, and eight trials of 625 no less
                for i in range(trials):
                    errs[i, r, k] = np.count_nonzero(wrong[i * size : (i + 1) * size]) / size
            agree &= last_is_mle.reshape(trials, n).all(axis=1)
        return est, errs, agree

    estimates, errors, agree = _run_trials(config, run_block, threads)

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
        lo_mle_identical=bool(agree.all()),
        estimates=estimates,
        errors=errors,
    )


def compare_noisy_sampling(config: ExperimentConfig, threads: int = 1) -> RapporComparison:
    """Head-to-head variance of relaxation vs repeated noisy sampling.

    Requires a binary domain and a noisy-sampling schedule so both pipelines
    sit at the same privacy parameter after every round.  Round k decodes the
    relaxation outputs at eps_ns(k) and the first k noisy samples of each
    client.  The relaxation rounds are streamed in trial blocks like
    `simulate_experiment`'s; each trial's noisy samples are drawn first, from
    a copy of its generator moved past the rounds' draws, and decoded for
    every round at once, so only one trial's samples are held at a time.
    """
    check_instance(config, ExperimentConfig, "config")
    if config.m != 2:
        raise ConfigError("compare-rappor: m must be 2 (per-bit comparison)")
    if config.eps_alpha is None:
        raise ConfigError('compare-rappor: schedule kind must be "noisy-sampling"')
    epsilons = config.epsilons
    rounds = len(epsilons)
    if config.n_objects * rounds > MAX_OBJECT_VALUES:  # a trial's noisy samples: one such array
        raise ConfigError(
            f"compare-rappor: counts ({config.n_objects} objects) times the schedule's "
            f"rounds ({rounds}) must be at most {MAX_OBJECT_VALUES}"
        )
    params = rappor_params(config.eps_alpha, config.eps_beta)
    truth = _truth_vector(config)
    n = truth.size
    reports = n * np.arange(1, rounds + 1)  # noisy samples decoded at each round

    def run_block(after, columns):
        # each trial's every-round total of ones, decoded as soon as drawn: a
        # block holds no trial's (n, rounds) counts
        noisy_est = []
        for rng in after:
            ones = simulate_noisy_sampling_batch(truth, params, rounds, rng).sum(axis=0)
            noisy_est.append(_decode_noisy_counts(ones, reports, params))
        relax_est = np.empty((len(after), rounds))
        for r, out in enumerate(columns):
            relax_est[:, r] = _decode_block(out, epsilons[r], 2, n)[:, 1]
        return relax_est, noisy_est

    relax_estimates, noisy_estimates = _run_trials(config, run_block, threads)
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
    (m, eps_prev, eps_next, p_aa, p_bb, p_ba).  ``eps_values`` is a schedule
    of at least two values and ``domain_sizes`` a non-empty sequence of
    domain sizes, each checked before any kernel is built.
    """
    eps_values = check_schedule(eps_values, "eps_values")
    if len(eps_values) < 2:
        raise ParameterError(f"eps_values must hold at least two values, got {len(eps_values)}")
    domain_sizes = as_sequence(domain_sizes, "domain_sizes")
    if not domain_sizes:
        raise ParameterError("domain_sizes must be non-empty")
    domain_sizes = [check_domain_size(m, f"domain_sizes[{i}]") for i, m in enumerate(domain_sizes)]
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
    columns = {
        "eps_ns": comparison.eps_ns,
        "var_relax_empirical": comparison.var_relax_emp,
        "var_relax_theory": comparison.var_relax_theory,
        "var_noisy_empirical": comparison.var_noisy_emp,
        "var_noisy_theory": comparison.var_noisy_theory,
    }
    rows = ((k, *values) for k, values in enumerate(zip(*columns.values()), start=1))
    return _write_csv(path, ["K", *columns], rows)


def write_kernel_table_csv(rows, path) -> Path:
    return _write_csv(path, ["m", "eps_prev", "eps_next", "p_aa", "p_bb", "p_ba"], rows)


def write_audit_csv(checks, path) -> Path:
    rows = [(c.name, c.worst, c.bound, "pass" if c.passed else "fail") for c in checks]
    return _write_csv(path, ["check", "worst", "bound", "status"], rows)
