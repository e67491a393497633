import csv
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dprelax import experiments, mechanism
from dprelax.errors import ConfigError, ParameterError
from dprelax.estimation import _debias
from dprelax.experiments import (
    ExperimentConfig,
    ExperimentResult,
    RapporComparison,
    compare_noisy_sampling,
    config_from_dict,
    kernel_table_rows,
    load_config,
    simulate_experiment,
    write_attacks_csv,
    write_audit_csv,
    write_kernel_table_csv,
    write_rappor_csv,
    write_rounds_csv,
)
from dprelax.inference import balanced_subset
from dprelax.mechanism import iter_chain_rounds
from dprelax.rappor import noisy_sampling_schedule

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

    def test_field_of_wrong_json_type_is_named(self):
        with pytest.raises(ConfigError, match=r"^config\.m: must be a real number, got '3'$"):
            tiny_config(m="3")

    def test_linear_schedule_stop_below_start(self):
        with pytest.raises(ConfigError, match=r"^config\.schedule\.stop: must be >= start$"):
            tiny_config(schedule={"kind": "linear", "start": 1.0, "stop": 0.5, "stride": 0.1})

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([TINY]))
        with pytest.raises(ConfigError, match=r"list\.json: top-level value must be an object$"):
            load_config(path)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match=r"config\.typo"):
            tiny_config(typo=1)

    @pytest.mark.parametrize("seed", [-1, 7.0])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigError, match=r"^config\.seed: .*64 bits"):
            tiny_config(seed=seed)

    def test_integral_floats_read_as_integers(self):
        schedule = dict(TINY["schedule"], rounds=3.0)
        config = tiny_config(m=2.0, trials=4.0, counts=[3.0, 4.0], schedule=schedule)
        assert config == tiny_config()
        assert all(type(v) is int for v in (config.m, config.trials, *config.counts))

    @pytest.mark.parametrize("path", [None, 0, b"config.json"])
    def test_path_of_wrong_type_is_named(self, path):
        with pytest.raises(ParameterError, match=r"^path must be a str or os\.PathLike"):
            load_config(path)

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
    "schedule-not-matched": ({"eps_alpha": 1.0, "eps_beta": 0.5}, "epsilons"),
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

    def test_pair_too_small_for_its_matched_schedule_is_named(self):
        # the matched schedule of this pair cancels to 0.0; the refusal names
        # the pair's field, whatever epsilons the config was given
        fields = dict(DIRECT, epsilons=(0.5, 1.0), eps_alpha=1e-20, eps_beta=1.0)
        message = r"^ExperimentConfig\.eps_alpha: 1e-20 is too small for the matched schedule"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**fields)


class TestMemoryBounds:
    """Trials and counts whose run would exhaust memory are refused before any
    seed is spawned or population built."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        class NoSeeds:
            def __init__(self, *args, **kwargs):
                raise AssertionError("seeds spawned for a refused config")

        def no_population(config):
            raise AssertionError("population built for a refused config")

        monkeypatch.setattr(np.random, "SeedSequence", NoSeeds)
        monkeypatch.setattr(experiments, "_truth_vector", no_population)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"trials": 10**12}, "trials"),
            ({"trials": experiments.MAX_TRIALS + 1}, "trials"),
            ({"counts": (10**12, 1, 1)}, "counts"),
            ({"counts": (experiments.MAX_OBJECT_VALUES // 9 + 1,) * 3}, "counts"),
            # 100000 rounds of 7 result values: the results bound the trials
            ({"epsilons": (0.5,) * 100_000, "trials": 192}, "trials"),
        ],
        ids=["trials-1e12", "trials-over-limit", "counts-1e12", "counts-over-limit", "results"],
    )
    @pytest.mark.parametrize("run", [simulate_experiment, compare_noisy_sampling])
    def test_refused_before_any_work(self, overrides, field, run):
        fields = dict(DIRECT, **overrides, eps_alpha=1.0, eps_beta=0.5)
        with pytest.raises(ConfigError, match=rf"^ExperimentConfig\.{field}: must "):
            run(ExperimentConfig(**fields))

    @pytest.mark.parametrize(
        "overrides, field", [({"trials": 10**12}, "trials"), ({"counts": [10**12, 1]}, "counts")]
    )
    def test_json_path_names_the_field(self, overrides, field):
        with pytest.raises(ConfigError, match=rf"^config\.{field}: must "):
            tiny_config(**overrides)

    def test_bounds_are_inclusive_and_admit_the_scaled_runs(self):
        # DIRECT has m=3: 2**24 // 3 objects, and 2**27 // (100000 * 7) = 191 trials
        ExperimentConfig(**dict(DIRECT, epsilons=(0.5,), trials=experiments.MAX_TRIALS))
        ExperimentConfig(**dict(DIRECT, counts=(experiments.MAX_OBJECT_VALUES // 9,) * 3))
        ExperimentConfig(**dict(DIRECT, epsilons=(0.5,) * 100_000, trials=191))
        # m=5, 15000 objects: 50 rounds over 10 trials and 1000 rounds over 2
        for stride, trials in ((0.2, 10), (0.01, 2)):
            schedule = {"kind": "linear", "start": stride, "stop": 10.0, "stride": stride}
            tiny_config(m=5, counts=[3000] * 5, schedule=schedule, trials=trials)


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
        b = simulate_experiment(replace(cfg, seed=100))
        assert not np.array_equal(a.estimates, b.estimates)

    def test_seed_override_keeps_other_fields(self):
        cfg = tiny_config()
        result = compare_noisy_sampling(replace(cfg, seed=2**64 - 1))
        assert result.config.seed == 2**64 - 1
        assert (result.config.name, result.config.counts, result.config.eps_alpha) == (
            cfg.name,
            cfg.counts,
            cfg.eps_alpha,
        )
        with pytest.raises(ConfigError):
            replace(cfg, seed=2**64)

    def test_kernel_builds_grow_linearly_in_rounds(self):
        # each run builds its step kernels once, not once per scored prefix
        trials = 3
        for rounds in (8, 16):
            built = mechanism._relax_kernel.cache_info().misses
            epsilons = tuple(0.1 * k for k in range(1, rounds + 1))
            config = ExperimentConfig(**dict(DIRECT, epsilons=epsilons, trials=trials))
            simulate_experiment(config)
            bound = (trials + 1) * (rounds - 1)
            assert mechanism._relax_kernel.cache_info().misses - built <= bound

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

    def test_subsets_are_balanced_subset_draws(self, monkeypatch):
        # the run finds each value's objects once; every trial's subset is
        # still `balanced_subset` from the same generator state
        drawn = []
        draw = experiments._balanced_draw

        def recorded(indices, rng):
            state = rng.bit_generator.state
            drawn.append((state, draw(indices, rng)))
            return drawn[-1][1]

        monkeypatch.setattr(experiments, "_balanced_draw", recorded)
        config = ExperimentConfig(**dict(DIRECT, counts=(5, 9, 7), trials=4))
        simulate_experiment(config)
        truth = experiments._truth_vector(config)
        assert len(drawn) == config.trials
        for state, subset in drawn:
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            np.testing.assert_array_equal(balanced_subset(truth, config.m, rng), subset)
            assert subset.size == 3 * 5

    def test_mle_ties_below_double_precision_agree(self):
        # near ε = 1e-17 every value's likelihood ties to an ulp, and rounding
        # alone picks the argmax
        fields = dict(name="tiny", m=3, counts=(50,) * 3, epsilons=(1e-17, 2e-17), trials=2, seed=1)
        assert simulate_experiment(ExperimentConfig(**fields)).lo_mle_identical

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

    def test_noisy_samples_beyond_the_object_bound_are_refused(self, monkeypatch):
        class Reached(Exception):
            pass

        def drawn(*args, **kwargs):
            raise AssertionError("a refused run must not be sampled")

        def truth(config):
            raise Reached

        monkeypatch.setattr(experiments, "simulate_noisy_sampling_batch", drawn)
        monkeypatch.setattr(experiments, "_truth_vector", truth)

        def config(n, rounds):
            epsilons = tuple(noisy_sampling_schedule(1.0, 0.5, rounds))
            fields = dict(m=2, counts=(n // 2, n - n // 2), epsilons=epsilons)
            return ExperimentConfig(**dict(DIRECT, **fields, eps_alpha=1.0, eps_beta=0.5))

        # (2**23 objects, 1000 rounds) would be one 62.5 GiB draw per trial
        with pytest.raises(ConfigError, match=r"counts \(8388608 objects\).*rounds \(1000\)"):
            compare_noisy_sampling(config(2**23, 1000))
        limit = experiments.MAX_OBJECT_VALUES
        with pytest.raises(ConfigError, match="rounds"):
            compare_noisy_sampling(config(2**10, limit // 2**10 + 1))
        with pytest.raises(Reached):  # the bound is inclusive
            compare_noisy_sampling(config(2**10, limit // 2**10))


@pytest.mark.parametrize("run", [simulate_experiment, compare_noisy_sampling])
def test_epsilon_too_small_to_debias_is_refused_before_any_draw(monkeypatch, run):
    def drawn(*args, **kwargs):
        raise AssertionError("a refused schedule must not be sampled")

    monkeypatch.setattr(experiments._BlockStreams, "random", drawn)
    for name in ("_balanced_draw", "simulate_noisy_sampling_batch"):
        monkeypatch.setattr(experiments, name, drawn)
    fields = dict(DIRECT, m=2, counts=(3, 4), epsilons=(1e-200, 1.0))
    if run is simulate_experiment:
        # every run decodes its first round: the config refuses it when built
        with pytest.raises(ConfigError, match=r"^ExperimentConfig\.epsilons\[0\]: .*too small to debias"):
            ExperimentConfig(**fields)
        return
    # compare-rappor runs only a matched schedule, whose computed first entry
    # is 0.0 or at least about 1e-60 (the cancellation in eps_noisy_sampling),
    # never below MIN_EPSILON: such a schedule is refused as the config is built
    with pytest.raises(ConfigError, match=r"^ExperimentConfig\.epsilons: must be the noisy"):
        run(ExperimentConfig(**fields, eps_alpha=1.0, eps_beta=0.5))


class TestResults:
    """A result holds what its run measured; the rest is set when it is built."""

    def test_replaced_arrays_rebuild_the_aggregates(self):
        result = simulate_experiment(tiny_config())
        other = simulate_experiment(tiny_config(seed=100))
        replaced = replace(result, estimates=other.estimates, errors=other.errors)
        for name in ("est_mean", "est_var", "err_mean", "err_std"):
            np.testing.assert_array_equal(getattr(replaced, name), getattr(other, name))
        np.testing.assert_array_equal(replaced.est_var, other.estimates.var(axis=0, ddof=1))
        np.testing.assert_array_equal(replaced.err_std, other.errors.std(axis=0, ddof=1))
        estimates_only = replace(result, estimates=other.estimates)
        np.testing.assert_array_equal(estimates_only.est_mean, other.est_mean)
        np.testing.assert_array_equal(estimates_only.err_mean, result.err_mean)
        comparison = compare_noisy_sampling(tiny_config())
        other = compare_noisy_sampling(tiny_config(seed=100))
        replaced = replace(comparison, relax_estimates=other.relax_estimates)
        np.testing.assert_array_equal(replaced.var_relax_emp, other.var_relax_emp)
        np.testing.assert_array_equal(replaced.var_noisy_emp, comparison.var_noisy_emp)

    def test_replaced_config_rebuilds_the_theory(self):
        # the same shape of run at other counts and another matched schedule
        schedule = {"kind": "noisy-sampling", "eps_alpha": 2.0, "eps_beta": 1.0, "rounds": 3}
        config = tiny_config(counts=[6, 1], schedule=schedule)
        result = replace(simulate_experiment(tiny_config()), config=config)
        want = simulate_experiment(config)
        assert result.epsilons == want.epsilons
        np.testing.assert_array_equal(result.var_theory, want.var_theory)
        np.testing.assert_array_equal(result.floor, want.floor)
        comparison = replace(compare_noisy_sampling(tiny_config()), config=config)
        want = compare_noisy_sampling(config)
        for name in ("eps_ns", "var_relax_theory", "var_noisy_theory"):
            np.testing.assert_array_equal(getattr(comparison, name), getattr(want, name))

    def test_a_derived_field_cannot_be_given(self):
        result = simulate_experiment(tiny_config())
        with pytest.raises(TypeError, match="est_mean"):
            ExperimentResult(result.config, result.estimates, result.errors, True, est_mean=0)
        comparison = compare_noisy_sampling(tiny_config())
        args = comparison.config, comparison.relax_estimates, comparison.noisy_estimates
        with pytest.raises(TypeError, match="var_noisy_theory"):
            RapporComparison(*args, var_noisy_theory=0)

    @pytest.mark.parametrize(
        "argument, value, message",
        [
            ("config", lambda r: None, "config must be a ExperimentConfig, got NoneType"),
            (
                "estimates",
                lambda r: r.estimates[:2],
                r"estimates must have shape \(4, 3, 2\), got \(2, 3, 2\)",
            ),
            (
                "estimates",
                lambda r: r.estimates[..., :1],
                r"estimates must have shape \(4, 3, 2\), got \(4, 3, 1\)",
            ),
            ("estimates", lambda r: None, "estimates must be real numbers, got dtype object"),
            ("errors", lambda r: np.full(r.errors.shape, "a"), "errors must be real numbers, got dtype <U1"),
            ("errors", lambda r: 0.5, r"errors must have shape \(4, 3, 4\), got \(\)"),
            ("lo_mle_identical", lambda r: 1, "lo_mle_identical must be a bool, got int"),
            ("lo_mle_identical", lambda r: np.True_, "lo_mle_identical must be a bool, got bool"),
        ],
        ids=["config", "trials", "m", "none", "strings", "scalar", "int-flag", "numpy-flag"],
    )
    def test_a_wrong_result_argument_is_named(self, argument, value, message):
        result = simulate_experiment(tiny_config())
        with pytest.raises(ParameterError, match=f"^{message}$"):
            replace(result, **{argument: value(result)})

    @pytest.mark.parametrize(
        "argument, value, message",
        [
            ("config", 1, "config must be a ExperimentConfig, got int"),
            (
                "relax_estimates",
                [[0.5] * 3] * 3,
                r"relax_estimates must have shape \(4, 3\), got \(3, 3\)",
            ),
            ("noisy_estimates", [["0.5"] * 3] * 4, "noisy_estimates must be real numbers, got dtype <U3"),
        ],
        ids=["config", "trials", "strings"],
    )
    def test_a_wrong_comparison_argument_is_named(self, argument, value, message):
        comparison = compare_noisy_sampling(tiny_config())
        with pytest.raises(ParameterError, match=f"^{message}$"):
            replace(comparison, **{argument: value})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"m": 3, "counts": [1, 2, 3]},
            {"schedule": {"kind": "list", "epsilons": [0.5, 1.0, 1.0]}},
            {"counts": [2**22, 2**22]},  # 2**23 objects times 3 rounds: beyond the object bound
        ],
        ids=["m", "schedule", "object-bound"],
    )
    def test_a_comparison_refuses_what_the_run_refuses(self, overrides):
        config = tiny_config(**overrides)
        with pytest.raises(ConfigError) as run:
            compare_noisy_sampling(config)
        with pytest.raises(ConfigError) as built:
            RapporComparison(config, np.zeros((4, 3)), np.zeros((4, 3)))
        assert str(built.value) == str(run.value)


class TestTrialBlocks:
    """A run's results do not depend on how its trials fall into blocks."""

    TRIALS = 7
    # layout -> (object budget for n objects a trial, trials in each block)
    LAYOUTS = {
        "one-per-block": (lambda n: 1, [1] * TRIALS),
        "short-last-block": (lambda n: 3 * n, [3, 3, 1]),
        "all-in-one": (lambda n: 10**9, [TRIALS]),
    }

    @staticmethod
    def _simulate(config, threads=1):
        result = simulate_experiment(config, threads=threads)
        return result.estimates, result.errors, result.lo_mle_identical

    @staticmethod
    def _compare(config, threads=1):
        result = compare_noisy_sampling(config, threads=threads)
        return result.relax_estimates, result.noisy_estimates

    @staticmethod
    def _block_sizes(config):
        return [len(block) for block in experiments._trial_blocks(config)]

    @staticmethod
    def _assert_identical(got, want):
        for a, b in zip(got, want, strict=True):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def _assert_independent_of_blocks(self, monkeypatch, run, config):
        reference = None
        for budget, sizes in self.LAYOUTS.values():
            monkeypatch.setattr(experiments, "BLOCK_OBJECTS", budget(config.n_objects))
            assert self._block_sizes(config) == sizes
            for threads in (1, 3):
                outputs = run(config, threads)
                reference = reference or outputs
                self._assert_identical(outputs, reference)

    def test_simulate_is_independent_of_blocks(self, monkeypatch):
        # m=3 with a repeated parameter: identity steps and third-value draws
        epsilons = (0.3, 0.3, 0.8, 2.0)
        config = ExperimentConfig(**dict(DIRECT, epsilons=epsilons, trials=self.TRIALS, seed=17))
        self._assert_independent_of_blocks(monkeypatch, self._simulate, config)

    def test_compare_is_independent_of_blocks(self, monkeypatch):
        config = tiny_config(trials=self.TRIALS)
        self._assert_independent_of_blocks(monkeypatch, self._compare, config)

    def test_trial_larger_than_the_budget_runs_alone(self, monkeypatch):
        config = tiny_config(trials=self.TRIALS)
        monkeypatch.setattr(experiments, "BLOCK_OBJECTS", 10**9)
        together = self._simulate(config) + self._compare(config)
        monkeypatch.setattr(experiments, "BLOCK_OBJECTS", config.n_objects - 1)
        assert self._block_sizes(config) == [1] * self.TRIALS
        self._assert_identical(self._simulate(config) + self._compare(config), together)

    @pytest.mark.parametrize("per_block", [1, 3])
    def test_driver_streams_each_trial_as_if_alone(self, monkeypatch, per_block):
        # the block driver's stream contract, seen by a `run_block` spy that
        # consumes every round: each trial's rows of the tiled columns are its
        # own chains, and its ``after`` generator stands where they leave it
        config = ExperimentConfig(**dict(DIRECT, epsilons=(0.3, 0.3, 0.8), trials=self.TRIALS))
        monkeypatch.setattr(experiments, "BLOCK_OBJECTS", per_block * config.n_objects)
        seen = []

        def spy(after, rounds):
            seen.append((after, np.stack(list(rounds))))
            return (np.arange(len(after)),)

        (joined,) = experiments._run_trials(config, spy, 1)
        assert [len(after) for after, _ in seen] == self._block_sizes(config)
        assert joined.tolist() == [i for after, _ in seen for i in range(len(after))]
        truth = experiments._truth_vector(config)
        trials = [
            (rng, columns.reshape(len(columns), len(after), truth.size)[:, i])
            for after, columns in seen
            for i, rng in enumerate(after)
        ]
        streams = np.random.SeedSequence(config.seed).spawn(config.trials)
        for stream, (after, rows) in zip(streams, trials, strict=True):
            alone = np.random.default_rng(stream)
            own = np.stack(list(iter_chain_rounds(truth, config.epsilons, config.m, alone)))
            assert np.array_equal(rows, own)
            assert after.bit_generator.state == alone.bit_generator.state

    def test_rounds_are_decoded_as_they_come(self, monkeypatch):
        # nothing is decoded before sampling (a schedule too small to debias
        # is refused by the config); each block decodes its rounds as they come
        events = []

        def decoded(counts, n, eps, m):
            events.append("decode")
            return _debias(counts, n, eps, m)

        def sampled(*args):
            rounds = iter_chain_rounds(*args)
            first = next(rounds)
            events.append("sample")  # the first round is drawn
            yield first
            yield from rounds

        monkeypatch.setattr(experiments, "_debias", decoded)
        monkeypatch.setattr(experiments, "iter_chain_rounds", sampled)
        monkeypatch.setattr(experiments, "BLOCK_OBJECTS", 1)  # one trial per block
        epsilons = (0.1, 0.2, 0.3, 0.4)
        simulate_experiment(ExperimentConfig(**dict(DIRECT, epsilons=epsilons, trials=2)))
        block = ["sample"] + ["decode"] * len(epsilons)
        assert events == block * 2

    def test_compare_holds_one_trial_of_noisy_samples(self, monkeypatch):
        rounds, counts = 200, [100, 150]
        schedule = {"kind": "noisy-sampling", "eps_alpha": 1.0, "eps_beta": 0.5, "rounds": rounds}
        config = tiny_config(counts=counts, trials=4, schedule=schedule)
        peaks = {}
        for budget in (1, 10**9):
            monkeypatch.setattr(experiments, "BLOCK_OBJECTS", budget)
            tracemalloc.start()
            try:
                compare_noisy_sampling(config)
                peaks[budget] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # one trial's running counts: (objects, rounds) int64
        assert peaks[10**9] - peaks[1] < sum(counts) * rounds * 8, peaks

    def test_rounds_are_not_revalidated(self, monkeypatch, count_calls):
        # the round loop draws, scores and decodes arrays it built itself: a
        # run checks values once per trial or block, whatever its rounds
        calls = count_calls(("check_values",))
        blocks = 3
        monkeypatch.setattr(experiments, "BLOCK_OBJECTS", 1)  # one trial per block
        seen = {}
        for rounds in (2, 20):
            epsilons = tuple(0.1 * k for k in range(1, rounds + 1))
            simulated = ExperimentConfig(**dict(DIRECT, epsilons=epsilons, trials=blocks))
            schedule = dict(TINY["schedule"], rounds=rounds)
            compared = tiny_config(trials=blocks, schedule=schedule)
            assert self._block_sizes(simulated) == self._block_sizes(compared) == [1] * blocks
            runs = ((simulate_experiment, simulated), (compare_noisy_sampling, compared))
            for run, config in runs:
                calls["check_values"] = 0
                run(config)
                seen[run.__name__, rounds] = calls["check_values"]
        # a block's rounds; compare-rappor also checks each trial's noisy
        # samples, while simulate draws its subsets from index lists built once
        assert seen["simulate_experiment", 20] == seen["simulate_experiment", 2] == blocks, seen
        assert seen["compare_noisy_sampling", 20] == seen["compare_noisy_sampling", 2] == 2 * blocks

    def test_long_schedule_builds_each_step_once_across_blocks(self, monkeypatch):
        # the step memo keeps a 1000-round schedule whole from block to block:
        # 1000 steps, the first round's from ε = 0 included
        monkeypatch.setattr(experiments, "BLOCK_OBJECTS", 2 * sum(DIRECT["counts"]))
        epsilons = tuple(0.01 * k for k in range(1, 1001))
        config = ExperimentConfig(**dict(DIRECT, epsilons=epsilons, trials=5))
        assert self._block_sizes(config) == [2, 2, 1]
        simulate_experiment(config)
        assert mechanism._relax_kernel.cache_info().misses == 1000

    def test_shipped_block_size(self):
        # 1000- and 1500-object trials share blocks; a 5000-object trial runs alone
        for counts, size in (((400, 600), 8), ((300, 1200), 5), ((2500, 2500), 1)):
            config = ExperimentConfig(**dict(DIRECT, m=2, counts=counts, trials=100))
            assert self._block_sizes(config)[0] == size


class TestThreadBound:
    """``threads`` is bounded before any seed is spawned, and a run starts no
    more workers than it has blocks."""

    @pytest.fixture
    def pools(self, monkeypatch):
        made = []

        class RecordingPool:
            # records its worker count and runs the blocks in the calling
            # thread: no thread is ever started
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
        return made

    @pytest.mark.parametrize("threads", [experiments.MAX_THREADS + 1, 2**40])
    @pytest.mark.parametrize("run", [simulate_experiment, compare_noisy_sampling])
    def test_refused_before_any_seed_is_spawned(self, monkeypatch, pools, run, threads):
        config = tiny_config()

        def no_seeds(*args, **kwargs):
            raise AssertionError("seeds spawned for a refused thread count")

        monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
        with pytest.raises(ParameterError, match=rf"^threads must be at most 64, got {threads}$"):
            run(config, threads=threads)
        assert pools == []

    def test_workers_are_at_most_the_blocks(self, monkeypatch, pools):
        monkeypatch.setattr(experiments, "BLOCK_OBJECTS", 1)  # one trial per block
        for trials, threads in ((3, 2), (3, 3), (3, experiments.MAX_THREADS), (1, 5)):
            simulate_experiment(tiny_config(trials=trials), threads=threads)
        compare_noisy_sampling(tiny_config(trials=4), threads=experiments.MAX_THREADS)
        assert pools == [2, 3, 3, 1, 4]


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

    @pytest.mark.parametrize(
        "write, argument, name",
        [
            (write_kernel_table_csv, None, "rows"),
            (write_kernel_table_csv, [[1, 2]], r"rows\[0\]"),
            (write_kernel_table_csv, [(3, 0.5, 1.0, 0.7, 0.8, 0.1), 1], r"rows\[1\]"),
            (write_rounds_csv, None, "result"),
            (write_attacks_csv, 1, "result"),
            (write_rappor_csv, None, "comparison"),
            (write_audit_csv, [1], r"checks\[0\]"),
            (write_audit_csv, None, "checks"),
            (write_kernel_table_csv, [[None] * 6], r"rows\[0\]\[0\]"),
            (write_kernel_table_csv, [["a"] * 6], r"rows\[0\]\[0\]"),
            (write_kernel_table_csv, [(3, 0.5, 1.0, 0.7, 0.8, 0.1), (3, 0.5, 1.0, 0.7, 0.8, "a")],
             r"rows\[1\]\[5\]"),
        ],
    )
    def test_wrong_argument_is_named_and_writes_no_file(self, tmp_path, write, argument, name):
        path = tmp_path / "out.csv"
        with pytest.raises(ParameterError, match=rf"^{name} must "):
            write(argument, path)
        assert not path.exists()

    def test_kernel_table_csv(self, tmp_path):
        path = write_kernel_table_csv(kernel_table_rows(), tmp_path / "kt.csv")
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "m,eps_prev,eps_next,p_aa,p_bb,p_ba"
        assert len(lines) == 1 + 32
