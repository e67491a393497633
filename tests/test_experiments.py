import csv
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dprelax.errors import ConfigError
from dprelax.experiments import (
    ExperimentConfig,
    compare_noisy_sampling,
    config_from_dict,
    kernel_table_rows,
    load_config,
    simulate_experiment,
    write_attacks_csv,
    write_kernel_table_csv,
    write_rappor_csv,
    write_rounds_csv,
)

TINY = {
    "name": "tiny",
    "m": 2,
    "counts": [3, 4],
    "schedule": {"kind": "noisy-sampling", "eps_alpha": 1.0, "eps_beta": 0.5, "rounds": 3},
    "trials": 4,
    "seed": 99,
}


def tiny_config(**overrides):
    raw = json.loads(json.dumps(TINY))
    raw.update(overrides)
    return config_from_dict(raw)


class TestConfigValidation:
    def test_valid_config(self):
        cfg = tiny_config()
        assert cfg.m == 2
        assert cfg.n_objects == 7
        assert len(cfg.epsilons) == 3
        assert cfg.eps_alpha == 1.0

    def test_missing_field_names_path(self):
        raw = dict(TINY)
        del raw["counts"]
        with pytest.raises(ConfigError, match=r"config\.counts"):
            config_from_dict(raw)

    def test_counts_length_mismatch(self):
        with pytest.raises(ConfigError, match="exactly m=2"):
            tiny_config(counts=[1, 2, 3])

    def test_bad_count_value(self):
        with pytest.raises(ConfigError, match=r"counts\[1\]"):
            tiny_config(counts=[1, 0])

    def test_unknown_schedule_kind(self):
        with pytest.raises(ConfigError, match=r"schedule\.kind"):
            tiny_config(schedule={"kind": "exponential"})

    def test_decreasing_list_schedule(self):
        with pytest.raises(ConfigError, match="non-decreasing"):
            tiny_config(schedule={"kind": "list", "epsilons": [1.0, 0.5]})

    def test_linear_schedule_values(self):
        cfg = tiny_config(schedule={"kind": "linear", "start": 0.1, "stop": 1.0, "stride": 0.1})
        assert len(cfg.epsilons) == 10
        assert cfg.epsilons[0] == pytest.approx(0.1)
        assert cfg.epsilons[-1] == pytest.approx(1.0)
        assert cfg.eps_alpha is None

    def test_linear_schedule_stops_below_partial_stride(self):
        cfg = tiny_config(schedule={"kind": "linear", "start": 0.1, "stop": 0.35, "stride": 0.1})
        assert len(cfg.epsilons) == 3
        assert cfg.epsilons[-1] == pytest.approx(0.3)

    def test_linear_schedule_round_limit(self):
        with pytest.raises(ConfigError, match="limit"):
            tiny_config(schedule={"kind": "linear", "start": 0.1, "stop": 1.0, "stride": 1e-9})

    @pytest.mark.parametrize(
        "schedule, field",
        [
            ({"kind": "noisy-sampling", "eps_alpha": 1.0, "eps_beta": 0.5, "rounds": 100_001}, "rounds"),
            ({"kind": "list", "epsilons": [0.5] * 100_001}, "epsilons"),
            ({"kind": "linear", "start": 1e-5, "stop": 1.00001, "stride": 1e-5}, "stride"),
        ],
        ids=["noisy-sampling", "list", "linear"],
    )
    def test_round_limit_is_named(self, schedule, field):
        with pytest.raises(ConfigError, match=rf"^config\.schedule\.{field}: .*100000"):
            tiny_config(schedule=schedule)

    def test_domain_limit_is_named(self):
        with pytest.raises(ConfigError, match=r"^config\.m: .*64"):
            tiny_config(m=65, counts=[1] * 65)
        assert tiny_config(m=64, counts=[1] * 64).m == 64

    def test_round_limit_is_inclusive(self):
        schedule = {"kind": "noisy-sampling", "eps_alpha": 1.0, "eps_beta": 0.5, "rounds": 100_000}
        assert len(tiny_config(schedule=schedule).epsilons) == 100_000

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match=r"config\.typo"):
            tiny_config(typo=1)

    def test_bad_seed(self):
        with pytest.raises(ConfigError, match="64 bits"):
            tiny_config(seed=-1)

    def test_bad_name(self):
        with pytest.raises(ConfigError, match=r"config\.name"):
            tiny_config(name="bad name!")

    def test_json_syntax_error_carries_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "m": 2,,\n}\n')
        with pytest.raises(ConfigError, match=r"bad\.json:2:"):
            load_config(bad)

    @pytest.mark.parametrize(
        "schedule, field",
        [
            ({"kind": "list", "epsilons": [10**400]}, r"epsilons\[0\]"),
            ({"kind": "linear", "start": 10**400, "stop": 1.0, "stride": 0.1}, "start"),
            ({"kind": "linear", "start": 0.1, "stop": 10**400, "stride": 0.1}, "stop"),
            ({"kind": "linear", "start": 0.1, "stop": 1.0, "stride": 10**400}, "stride"),
            ({"kind": "noisy-sampling", "eps_alpha": 10**400, "eps_beta": 0.5, "rounds": 2}, "eps_alpha"),
            ({"kind": "noisy-sampling", "eps_alpha": 1.0, "eps_beta": -(10**400), "rounds": 2}, "eps_beta"),
        ],
        ids=["list", "start", "stop", "stride", "eps_alpha", "negative-eps_beta"],
    )
    def test_number_beyond_double_range_is_named(self, schedule, field):
        with pytest.raises(ConfigError, match=rf"^config\.schedule\.{field}: .*got -?inf$"):
            tiny_config(schedule=schedule)

    @pytest.mark.parametrize(
        "schedule, key",
        [
            ({"kind": "list", "epsilons": [0.5, 1.0], "stride": 0.1}, "stride"),
            ({"kind": "linear", "start": 0.1, "stop": 1.0, "stride": 0.1, "epsilons": [1.0]}, "epsilons"),
            ({"kind": "noisy-sampling", "eps_alpha": 1.0, "eps_beta": 0.5, "rounds": 2, "stop": 1}, "stop"),
        ],
        ids=["list", "linear", "noisy-sampling"],
    )
    def test_unknown_schedule_key_is_named(self, schedule, key):
        with pytest.raises(ConfigError, match=rf"^config\.schedule\.{key}: unknown field"):
            tiny_config(schedule=schedule)

    def test_integer_beyond_digit_limit_is_a_config_error(self, tmp_path):
        # json.loads raises a plain ValueError for an integer literal this long
        path = tmp_path / "long.json"
        text = json.dumps({**TINY, "schedule": {"kind": "list", "epsilons": [0.5]}})
        path.write_text(text.replace("0.5", "1" + "0" * 5000))
        with pytest.raises(ConfigError, match=r"long\.json: .*digits"):
            load_config(path)

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY))
        assert load_config(path) == tiny_config()


DIRECT = dict(name="direct", m=3, counts=(2, 3, 4), epsilons=(0.5, 1.0), trials=2, seed=1)

# test id -> (fields overriding DIRECT, field the error must name)
BAD_FIELDS = {
    "zero-trials": ({"trials": 0}, "trials"),
    "counts-not-m": ({"counts": (2, 3)}, "counts"),
    "no-epsilons": ({"epsilons": ()}, "epsilons"),
    "negative-seed": ({"seed": -1}, "seed"),
    "seed-over-64-bits": ({"seed": 2**64}, "seed"),
    "m-below-2": ({"m": 1, "counts": (2,)}, "m"),
    "m-above-table-limit": ({"m": 65, "counts": (1,) * 65}, "m"),
    "zero-count": ({"counts": (2, 0, 4)}, r"counts\[1\]"),
    "decreasing-epsilons": ({"epsilons": (1.0, 0.5)}, "epsilons"),
    "infinite-epsilon": ({"epsilons": (0.5, float("inf"))}, r"epsilons\[1\]"),
    "too-many-rounds": ({"epsilons": (0.5,) * 100_001}, "epsilons"),
    "epsilon-beyond-double": ({"epsilons": (0.5, 10**400)}, r"epsilons\[1\]"),
    "alpha-beyond-double": ({"eps_alpha": 10**400, "eps_beta": 0.5}, "eps_alpha"),
    "bad-name": ({"name": "bad name!"}, "name"),
    "alpha-without-beta": ({"eps_alpha": 1.0}, "eps_beta"),
}


class TestDirectConstruction:
    """`ExperimentConfig` built in code is validated like the JSON path."""

    @pytest.mark.parametrize("case", list(BAD_FIELDS))
    def test_bad_field_is_named(self, case):
        overrides, field = BAD_FIELDS[case]
        with pytest.raises(ConfigError, match=rf"ExperimentConfig\.{field}:"):
            ExperimentConfig(**dict(DIRECT, **overrides))

    def test_normalized_like_json_path(self):
        direct = ExperimentConfig(
            name="tiny",
            m=2,
            counts=[3, 4],
            epsilons=list(tiny_config().epsilons),
            trials=4,
            seed=99,
            eps_alpha=1,
            eps_beta=0.5,
        )
        assert direct == tiny_config()


class TestSimulateExperiment:
    def test_shapes_and_aggregates(self):
        result = simulate_experiment(tiny_config())
        assert result.estimates.shape == (4, 3, 2)
        assert result.errors.shape == (4, 3, 4)
        assert result.est_mean.shape == (3, 2)
        assert result.floor.shape == (3,)
        np.testing.assert_allclose(result.est_mean, result.estimates.mean(axis=0), atol=1e-15)

    def test_estimates_sum_to_one(self):
        result = simulate_experiment(tiny_config())
        np.testing.assert_allclose(result.estimates.sum(axis=2), 1.0, atol=1e-9)

    def test_deterministic_across_threads(self):
        cfg = tiny_config(trials=6)
        a = simulate_experiment(cfg, threads=1)
        b = simulate_experiment(cfg, threads=3)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        np.testing.assert_array_equal(a.errors, b.errors)

    def test_seed_override_changes_results(self):
        cfg = tiny_config()
        a = simulate_experiment(cfg)
        b = simulate_experiment(cfg, seed=100)
        assert not np.array_equal(a.estimates, b.estimates)

    def test_seed_override_keeps_other_fields(self):
        cfg = tiny_config()
        result = compare_noisy_sampling(cfg, seed=2**64 - 1)
        assert result.config.seed == 2**64 - 1
        assert (result.config.name, result.config.counts, result.config.eps_alpha) == (
            cfg.name,
            cfg.counts,
            cfg.eps_alpha,
        )
        with pytest.raises(ConfigError):
            simulate_experiment(cfg, seed=2**64)

    def test_kernel_builds_grow_linearly_in_rounds(self, kernel_builds):
        # each run builds its step kernels once, not once per scored prefix
        calls = kernel_builds
        trials = 3
        for rounds in (8, 16):
            calls.update(kernel_tensor=0)
            epsilons = tuple(0.1 * k for k in range(1, rounds + 1))
            config = ExperimentConfig(**dict(DIRECT, epsilons=epsilons, trials=trials))
            simulate_experiment(config)
            bound = (trials + 1) * (rounds - 1)
            assert calls["kernel_tensor"] <= bound, calls

    def test_memory_does_not_grow_with_rounds(self):
        # each round is scored as it is sampled: no (n_objects, rounds) matrix
        n, peaks = 3000, {}
        for rounds in (100, 1000):
            epsilons = tuple(0.01 * k for k in range(1, rounds + 1))
            config = ExperimentConfig(**dict(DIRECT, counts=(n // 3,) * 3, epsilons=epsilons, trials=1))
            tracemalloc.start()
            try:
                simulate_experiment(config)
                peaks[rounds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1000] - peaks[100] < n * 1000 * 8 / 10, peaks

    def test_noiseless_schedule_zero_error(self):
        cfg = tiny_config(schedule={"kind": "list", "epsilons": [50.0, 50.0]})
        result = simulate_experiment(cfg)
        np.testing.assert_allclose(result.err_mean, 0.0, atol=1e-15)
        np.testing.assert_allclose(result.est_mean[:, 1], 4 / 7, atol=1e-12)


class TestCompareNoisySampling:
    def test_shapes(self):
        cmp_ = compare_noisy_sampling(tiny_config())
        assert cmp_.eps_ns.shape == (3,)
        assert cmp_.relax_estimates.shape == (4, 3)
        assert cmp_.var_noisy_theory.shape == (3,)

    def test_requires_noisy_sampling_schedule(self):
        cfg = tiny_config(schedule={"kind": "list", "epsilons": [0.5, 1.0]})
        with pytest.raises(ConfigError, match="noisy-sampling"):
            compare_noisy_sampling(cfg)

    def test_requires_binary_domain(self):
        cfg = tiny_config(m=3, counts=[1, 2, 3])
        with pytest.raises(ConfigError, match="m must be 2"):
            compare_noisy_sampling(cfg)


class TestKernelTable:
    def test_default_grid_shape(self):
        rows = kernel_table_rows()
        assert len(rows) == 8 * 4
        assert rows[0][:3] == (3, 0.1, 0.5)

    def test_golden_entries(self):
        rows = {(m, e1, e2): (aa, bb, ba) for m, e1, e2, aa, bb, ba in kernel_table_rows()}
        aa, bb, ba = rows[(3, 0.1, 0.5)]
        assert aa == pytest.approx(0.584, abs=5e-4)
        assert bb == pytest.approx(0.392, abs=5e-4)
        assert ba == pytest.approx(0.379, abs=5e-4)
        aa, _, _ = rows[(10, 2.0, 10.0)]
        assert aa == pytest.approx(1.000, abs=5e-4)

    def test_repeated_parameter_gives_identity_row(self):
        rows = kernel_table_rows(eps_values=(0.5, 0.5), domain_sizes=(4,))
        assert rows == [(4, 0.5, 0.5, 1.0, 1.0, 0.0)]


class TestCsvWriters:
    def test_rounds_csv_layout(self, tmp_path):
        result = simulate_experiment(tiny_config())
        path = write_rounds_csv(result, tmp_path / "rounds.csv")
        lines = Path(path).read_text().splitlines()
        assert len(lines) == 1 + 3
        header = lines[0].split(",")
        assert header[:2] == ["round", "epsilon"]
        assert "est_mean_0" in header and "est_var_theory_1" in header
        assert "err_mle_mean" in header and header[-1] == "min_error_rate"

    def test_attacks_csv_is_rounds_csv_without_estimates(self, tmp_path):
        result = simulate_experiment(tiny_config(m=3, counts=[2, 3, 2]))
        with open(write_rounds_csv(result, tmp_path / "rounds.csv"), newline="") as fh:
            rounds = list(csv.reader(fh))
        with open(write_attacks_csv(result, tmp_path / "attacks.csv"), newline="") as fh:
            attacks = list(csv.reader(fh))
        keep = [i for i, name in enumerate(rounds[0]) if not name.startswith("est_")]
        assert len(keep) < len(rounds[0])
        assert attacks == [[row[i] for i in keep] for row in rounds]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config(trials=5)
        paths = []
        for run, threads in (("a", 1), ("b", 2)):
            result = simulate_experiment(cfg, threads=threads)
            comparison = compare_noisy_sampling(cfg, threads=threads)
            base = tmp_path / run
            paths.append(
                (
                    write_rounds_csv(result, base / "rounds.csv").read_bytes(),
                    write_attacks_csv(result, base / "attacks.csv").read_bytes(),
                    write_rappor_csv(comparison, base / "rappor.csv").read_bytes(),
                )
            )
        assert paths[0] == paths[1]

    def test_kernel_table_csv(self, tmp_path):
        path = write_kernel_table_csv(kernel_table_rows(), tmp_path / "kt.csv")
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "m,eps_prev,eps_next,p_aa,p_bb,p_ba"
        assert len(lines) == 1 + 32
