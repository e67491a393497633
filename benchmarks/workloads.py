"""The four benchmark workloads.

Each workload is a closed loop driven by one caller: the next operation is
issued only after the previous one has returned.  Constructing a workload is
its set-up (config load or generation); `run_pass` runs one timed pass and
returns the latency of every operation plus the outputs to check; `check`
validates those outputs with `checks` and returns (failed operations,
messages).  A pass is a pure function of the workload seed, so repeated
passes in one run must produce identical outputs and identical trace counts.

`expected_counts` gives the closed forms of the traced counts for the
library's current call structure.  A change that alters how much work a
layer does (caching kernels, scoring rounds incrementally) moves them by
design, so they are compared and reported, never used to fail a run.

Why these four, and which layers each one exercises, is in README.md.
"""

import csv
import hashlib
import io
import json
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path
from time import perf_counter

import numpy as np

import dprelax
import dprelax.cli
import dprelax.experiments
from dprelax.inference import ATTACK_METHODS

import checks
from tracing import TRACED


def derive_seed(workload: str, seed: int) -> int:
    """64-bit library seed derived from the benchmark seed and the workload name."""
    return random.Random(f"{workload}:{seed}").getrandbits(64)


def zero_counts() -> dict:
    counts = {f"{module}.{name}.calls": 0 for module, name, _ in TRACED}
    counts.update(
        {
            "mechanism.draws": 0,
            "inference.object_rounds_scored": 0,
            "rappor.samples_drawn": 0,
            "audit.sequences_enumerated": 0,
        }
    )
    return counts


def _add(total: dict, part: dict) -> dict:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
    return total


def _simulate_counts(n: int, rounds: int, trials: int) -> dict:
    R, T = rounds, trials
    # every round re-scores the whole prefix: sum_{r=1..R} r = R(R+1)/2
    prefix_kernels = T * R * (R - 1) // 2
    return {
        "experiments.simulate_experiment.calls": 1,
        "mechanism.sample_rr_batch.calls": T,
        "mechanism.relax_step_batch.calls": T * (R - 1),
        "mechanism.relax_kernel.calls": (R - 1) + prefix_kernels,
        "mechanism.kernel_tensor.calls": prefix_kernels,
        "estimation.histogram.calls": T * R,
        "estimation.estimate_poly.calls": T * R,
        "estimation.frequency_estimate_covariance.calls": R,
        "inference.attack_guesses_matrix.calls": T * R,
        "inference.balanced_subset.calls": T,
        "mechanism.draws": T * n * R,
        "inference.object_rounds_scored": T * n * R * (R + 1) // 2,
    }


def _compare_counts(n: int, rounds: int, trials: int) -> dict:
    R, T = rounds, trials
    return {
        "experiments.compare_noisy_sampling.calls": 1,
        "mechanism.sample_rr_batch.calls": T,
        "mechanism.relax_step_batch.calls": T * (R - 1),
        "mechanism.relax_kernel.calls": R - 1,
        "estimation.histogram.calls": T * R,
        "estimation.estimate_poly.calls": T * R,
        "rappor.simulate_noisy_sampling_batch.calls": T,
        "rappor.decode_noisy_sampling_counts.calls": T * R,
        "mechanism.draws": T * n * R,
        "rappor.samples_drawn": T * n * R,
    }


def _audit_counts() -> dict:
    """Counts of the standard audit battery, from its documented scopes."""
    levels, max_len, grid_pairs = 4, 4, 20 * 21 // 2
    composition = log_probs = kernels = sequences = 0
    for m in (2, 3, 4):
        for length in range(1, max_len + 1):
            schedules = comb(levels + length - 1, length)
            composition += schedules
            log_probs += schedules
            kernels += schedules * (length - 1)
            sequences += schedules * m**length
        composition += grid_pairs
        log_probs += grid_pairs
        kernels += grid_pairs
        sequences += grid_pairs * m**2
    marginal_pairs = grid_pairs + 20  # the grid pairs plus each value -> 10.0
    for m in range(2, 11):
        log_probs += marginal_pairs
        kernels += marginal_pairs
        sequences += marginal_pairs * m**2
    kernels += grid_pairs  # single-step audit
    return {
        "audit.run_standard_audits.calls": 1,
        "audit.audit_composition_ldp.calls": composition,
        "audit.chain_log_probs.calls": log_probs,
        "audit.audit_step_epsilon.calls": grid_pairs,
        "mechanism.relax_kernel.calls": kernels,
        "mechanism.kernel_tensor.calls": kernels,
        "audit.sequences_enumerated": sequences,
    }


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class _Workload:
    name = ""
    ops_per_pass = 1

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.digests = {}  # sha256 of each output of the first pass, by name

    def _same_as_first_pass(self, key: str, digest: str) -> bool:
        return self.digests.setdefault(key, digest) == digest

    def close(self):
        pass


class PaperRepro(_Workload):
    """The shipped configs through `cli.main`, as a reader reproducing the paper runs them."""

    name = "paper-repro"
    KERNEL_EPSILONS = "0.1,0.5,1.0,2.0,10.0"
    KERNEL_DOMAINS = "3,4,5,6,7,8,9,10"

    def __init__(self, root: Path, seed: int, threads: int = 1):
        super().__init__(root, seed)
        self.cli_seed = derive_seed(self.name, seed)
        paths = {n: root / "configs" / f"{n}.json" for n in ("experiment1", "experiment2", "compare_rappor")}
        self.raw = {n: json.loads(p.read_text()) for n, p in paths.items()}
        work = root / ".bench_out"
        work.mkdir(exist_ok=True)
        self.out = Path(tempfile.mkdtemp(prefix="paper-repro-", dir=work))
        run_flags = ["--seed", str(self.cli_seed), "--threads", str(threads), "--out", str(self.out)]
        exp1, exp2, rappor = (self.raw[n] for n in ("experiment1", "experiment2", "compare_rappor"))
        # (argv, CSV written, check, config)
        self.ops = [
            (["simulate", "--config", str(paths["experiment1"])] + run_flags,
             f"{exp1['name']}_rounds.csv", self._check_rounds, exp1),
            (["simulate", "--config", str(paths["experiment2"])] + run_flags,
             f"{exp2['name']}_rounds.csv", self._check_rounds, exp2),
            (["compare-rappor", "--config", str(paths["compare_rappor"])] + run_flags,
             f"{rappor['name']}_rappor.csv", self._check_rappor, rappor),
            (["audit", "--out", str(self.out)], "audit_report.csv", self._check_audit, None),
            (["kernel-table", "--epsilons", self.KERNEL_EPSILONS, "--domains", self.KERNEL_DOMAINS,
              "--out", str(self.out)], "kernel_table.csv", self._check_kernel_table, None),
        ]
        self.ops_per_pass = len(self.ops)
        self.object_rounds = sum(
            sum(raw["counts"]) * len(checks.schedule_from_config(raw)) * raw["trials"]
            for raw in (exp1, exp2, rappor)
        )

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run_pass(self):
        latencies, results = [], []
        for argv, _csv_name, _check, _raw in self.ops:
            log = io.StringIO()
            code = error = None
            start = perf_counter()
            try:
                with redirect_stdout(log), redirect_stderr(log):
                    code = dprelax.cli.main(argv)
            except Exception as exc:  # a crashing command is a failed operation
                error = repr(exc)
            latencies.append(perf_counter() - start)
            results.append((code, error, log.getvalue()))
        return latencies, results

    def check(self, results):
        failed, messages = 0, []
        for (argv, csv_name, check, raw), (code, error, log) in zip(self.ops, results):
            label = argv[0]
            if error is not None:
                problems = [f"raised {error}"]
            elif code != 0:
                problems = [f"exit code {code}: {log.strip()[-200:]}"]
            else:
                data = (self.out / csv_name).read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                problems = check(list(csv.DictReader(io.StringIO(data.decode()))), raw, log)
                if not self._same_as_first_pass(csv_name, digest):
                    problems.append(f"{csv_name} sha256 differs from the first pass of this seed")
            if problems:
                failed += 1
                messages.extend(f"{label}: {p}" for p in problems)
        return failed, messages

    @staticmethod
    def _column(rows, name):
        return np.array([float(row[name]) for row in rows])

    def _check_rounds(self, rows, raw, log):
        m, counts, trials = raw["m"], raw["counts"], raw["trials"]
        epsilons = self._column(rows, "epsilon")
        est_mean = np.stack([self._column(rows, f"est_mean_{j}") for j in range(m)], axis=1)
        var_theory = np.stack([self._column(rows, f"est_var_theory_{j}") for j in range(m)], axis=1)
        err_mean = np.stack([self._column(rows, f"err_{k}_mean") for k in ATTACK_METHODS], axis=1)
        problems = checks.check_schedule(epsilons, raw)
        if problems:
            return problems
        problems += checks.check_frequency_estimates(est_mean, var_theory, epsilons, counts, trials)
        problems += checks.check_attack_errors(
            err_mean, self._column(rows, "min_error_rate"), epsilons, m, m * min(counts), trials
        )
        for stat in ("mean", "std"):
            problems += checks.check_last_output_is_mle(
                self._column(rows, f"err_last_output_{stat}"), self._column(rows, f"err_mle_{stat}")
            )
        return problems

    def _check_rappor(self, rows, raw, log):
        counts, trials = raw["counts"], raw["trials"]
        sched = raw["schedule"]
        n = sum(counts)
        eps = self._column(rows, "eps_ns")
        problems = checks.check_schedule(eps, raw)
        if problems:
            return problems
        rounds = np.arange(1, len(eps) + 1)
        relax_theory = [checks.frequency_variance(counts, e)[1] for e in eps]
        noisy_theory = [
            checks.noisy_sampling_variance(sched["eps_alpha"], sched["eps_beta"], n, k) for k in rounds
        ]
        problems += checks.check_close(
            self._column(rows, "var_relax_theory"), relax_theory, checks.THEORY_RTOL, "var_relax_theory"
        )
        problems += checks.check_close(
            self._column(rows, "var_noisy_theory"), noisy_theory, checks.THEORY_RTOL, "var_noisy_theory"
        )
        problems += checks.check_variances(
            self._column(rows, "var_relax_empirical"), relax_theory, trials, "relaxation"
        )
        problems += checks.check_variances(
            self._column(rows, "var_noisy_empirical"), noisy_theory, trials, "noisy sampling"
        )
        return problems

    def _check_audit(self, rows, raw, log):
        lines = [line for line in log.splitlines() if line.startswith(("PASS", "FAIL"))]
        problems = []
        if not rows or len(lines) != len(rows):
            problems.append(f"{len(lines)} verdict lines for {len(rows)} report rows")
        problems += [f"check {row['check']} is {row['status']}" for row in rows if row["status"] != "pass"]
        problems += [line for line in lines if not line.startswith("PASS")]
        return problems

    def _check_kernel_table(self, rows, raw, log):
        expected = len(self.KERNEL_DOMAINS.split(",")) * (len(self.KERNEL_EPSILONS.split(",")) - 1)
        if len(rows) != expected:
            return [f"{len(rows)} kernel rows, expected {expected}"]
        return checks.check_kernel_rows(
            [tuple(float(row[c]) for c in ("m", "eps_prev", "eps_next", "p_aa", "p_bb", "p_ba")) for row in rows]
        )

    def expected_counts(self) -> dict:
        total = zero_counts()
        for raw in (self.raw["experiment1"], self.raw["experiment2"]):
            rounds = len(checks.schedule_from_config(raw))
            _add(total, _simulate_counts(sum(raw["counts"]), rounds, raw["trials"]))
        raw = self.raw["compare_rappor"]
        _add(total, _compare_counts(sum(raw["counts"]), len(checks.schedule_from_config(raw)), raw["trials"]))
        _add(total, _audit_counts())
        _add(total, {"mechanism.relax_kernel.calls": 32})
        _add(
            total,
            {
                "cli.main.calls": len(self.ops),
                "experiments.load_config.calls": 3,
                "experiments.write_rounds_csv.calls": 2,
                "experiments.write_rappor_csv.calls": 1,
                "experiments.write_audit_csv.calls": 1,
                "experiments.write_kernel_table_csv.calls": 1,
            },
        )
        return total


class _GeneratedExperiment(_Workload):
    """Shared set-up of the workloads that call `experiments` on a generated config."""

    RAW = {}

    def __init__(self, root: Path, seed: int, threads: int = 1):
        super().__init__(root, seed)
        self.threads = threads
        self.raw = dict(self.RAW, name=self.name.replace("-", "_"), seed=derive_seed(self.name, seed))
        self.config = dprelax.config_from_dict(self.raw, source=self.name)
        self.n = sum(self.raw["counts"])
        self.rounds = len(self.config.epsilons)
        self.trials = self.raw["trials"]
        self.object_rounds = self.n * self.rounds * self.trials

    def run_pass(self):
        start = perf_counter()
        try:
            result, error = self._call(), None
        except Exception as exc:  # a crashing call is a failed operation
            result, error = None, repr(exc)
        return [perf_counter() - start], (result, error)

    def check(self, outputs):
        result, error = outputs
        problems = [f"raised {error}"] if error is not None else self._check(result)
        return (1 if problems else 0), [f"{self.name}: {p}" for p in problems]


class DeepChain(_GeneratedExperiment):
    """`simulate_experiment` over 50 rounds, where prefix re-scoring dominates."""

    name = "deep-chain"
    RAW = {
        "m": 5,
        "counts": [1000] * 5,
        "schedule": {"kind": "linear", "start": 0.1, "stop": 5.0, "stride": 0.1},
        "trials": 4,
    }

    def _call(self):
        return dprelax.experiments.simulate_experiment(self.config, threads=self.threads)

    def _check(self, result):
        m, counts = self.raw["m"], self.raw["counts"]
        problems = checks.check_schedule(result.epsilons, self.raw)
        if problems:
            return problems
        if not result.lo_mle_identical:
            problems.append("lo_mle_identical is false")
        problems += checks.check_frequency_estimates(
            result.est_mean, result.var_theory, result.epsilons, counts, self.trials
        )
        problems += checks.check_attack_errors(
            result.err_mean, result.floor, result.epsilons, m, m * min(counts), self.trials
        )
        lo, mle = ATTACK_METHODS.index("last_output"), ATTACK_METHODS.index("mle")
        problems += checks.check_last_output_is_mle(result.errors[..., lo], result.errors[..., mle])
        if not self._same_as_first_pass("estimates", _digest(result.estimates, result.errors)):
            problems.append("estimates differ from the first pass of this seed")
        return problems

    def expected_counts(self) -> dict:
        return _add(zero_counts(), _simulate_counts(self.n, self.rounds, self.trials))


class WidePopulation(_GeneratedExperiment):
    """`compare_noisy_sampling` on 100k clients: sampler, histogram and RAPPOR, no attacks."""

    name = "wide-population"
    RAW = {
        "m": 2,
        "counts": [40000, 60000],
        "schedule": {"kind": "noisy-sampling", "eps_alpha": 1.0, "eps_beta": 0.5, "rounds": 20},
        "trials": 10,
    }

    def _call(self):
        return dprelax.experiments.compare_noisy_sampling(self.config, threads=self.threads)

    def _check(self, result):
        counts, sched = self.raw["counts"], self.raw["schedule"]
        problems = checks.check_schedule(result.eps_ns, self.raw)
        if problems:
            return problems
        ks = range(1, self.rounds + 1)
        relax_theory = np.array([checks.frequency_variance(counts, e)[1] for e in result.eps_ns])
        noisy_theory = np.array(
            [checks.noisy_sampling_variance(sched["eps_alpha"], sched["eps_beta"], self.n, k) for k in ks]
        )
        problems += checks.check_close(result.var_relax_theory, relax_theory, checks.THEORY_RTOL, "var_relax_theory")
        problems += checks.check_close(result.var_noisy_theory, noisy_theory, checks.THEORY_RTOL, "var_noisy_theory")
        problems += checks.check_variances(result.var_relax_emp, relax_theory, self.trials, "relaxation")
        problems += checks.check_variances(result.var_noisy_emp, noisy_theory, self.trials, "noisy sampling")
        truth = counts[1] / self.n
        z = checks.z_two_sided(2 * self.rounds)
        for what, estimates, theory in (
            ("relaxation", result.relax_estimates, relax_theory),
            ("noisy sampling", result.noisy_estimates, noisy_theory),
        ):
            excess = np.abs(estimates.mean(axis=0) - truth) / np.sqrt(theory / self.trials)
            if not np.all(excess <= z):
                problems.append(f"{what} mean off the truth by {float(excess.max()):.2f} sd > {z:.2f}")
        if not self._same_as_first_pass("estimates", _digest(result.relax_estimates, result.noisy_estimates)):
            problems.append("estimates differ from the first pass of this seed")
        return problems

    def expected_counts(self) -> dict:
        return _add(zero_counts(), _compare_counts(self.n, self.rounds, self.trials))


class ObjectStream(_Workload):
    """The scalar online path: one object at a time, a posterior after every release."""

    name = "object-stream"
    M = 5
    OBJECTS = 2000
    EPSILONS = tuple(round(0.1 * k, 1) for k in range(1, 11))

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        m, levels = self.M, len(self.EPSILONS)
        self.rng_seed = derive_seed(self.name, seed)
        self.values = [i % m for i in range(self.OBJECTS)]
        self.prior = np.full(m, 1.0 / m)
        self.ops_per_pass = self.object_rounds = self.OBJECTS * levels
        self.step_truth = np.repeat(self.values, levels)
        self.step_eps = np.tile(self.EPSILONS, self.OBJECTS)

    def run_pass(self):
        m, prior, first, rest = self.M, self.prior, self.EPSILONS[0], self.EPSILONS[1:]
        rng = np.random.default_rng(self.rng_seed)
        latencies = np.empty(self.ops_per_pass)
        posteriors = np.empty((self.ops_per_pass, m))
        outputs = np.empty(self.ops_per_pass, dtype=np.int64)
        k = 0
        for x in self.values:
            start = perf_counter()
            chain = dprelax.start_chain(x, m, first, rng)
            post = dprelax.posterior(chain, prior)
            latencies[k] = perf_counter() - start
            posteriors[k], outputs[k] = post, chain.last_output
            k += 1
            for eps in rest:
                start = perf_counter()
                chain = dprelax.relax_step(chain, eps, rng)
                post = dprelax.posterior(chain, prior)
                latencies[k] = perf_counter() - start
                posteriors[k], outputs[k] = post, chain.last_output
                k += 1
        return latencies, (posteriors, outputs)

    def check(self, outputs):
        posteriors, last_outputs = outputs
        bad = checks.posterior_failures(posteriors, last_outputs, self.step_eps, self.M)
        messages = []
        if bad.any():
            messages.append(f"{int(bad.sum())} posteriors differ from the last-output posterior")
        retained = last_outputs == self.step_truth
        for level, eps in enumerate(self.EPSILONS):
            at_level = self.step_eps == eps
            if checks.marginal_failures(retained[at_level], eps, self.M, len(self.EPSILONS)):
                bad |= at_level
                messages.append(f"outputs at eps={eps} miss the randomized-response marginal")
        if not self._same_as_first_pass("outputs", _digest(last_outputs)):
            bad[:] = True
            messages.append("outputs differ from the first pass of this seed")
        return int(bad.sum()), [f"{self.name}: {msg}" for msg in messages]

    def expected_counts(self) -> dict:
        n, m, levels = self.OBJECTS, self.M, len(self.EPSILONS)
        relaxations = n * (levels - 1)
        return _add(
            zero_counts(),
            {
                "mechanism.start_chain.calls": n,
                "mechanism.relax_step.calls": relaxations,
                "mechanism.sample_rr_batch.calls": n,
                "mechanism.relax_step_batch.calls": relaxations,
                # one kernel per relaxation, plus one per earlier step for each
                # of the m likelihoods every posterior evaluates
                "mechanism.relax_kernel.calls": relaxations + n * m * levels * (levels - 1) // 2,
                "mechanism.chain_likelihood.calls": n * m * levels,
                "inference.posterior.calls": n * levels,
                "mechanism.draws": n * levels,
            },
        )


WORKLOADS = {w.name: w for w in (PaperRepro, DeepChain, WidePopulation, ObjectStream)}
