import json
import math
from dataclasses import replace

import pytest

from dprelax import cli, experiments
from dprelax.audit import AuditCheck
from dprelax.experiments import (
    compare_noisy_sampling,
    load_config,
    simulate_experiment,
    write_attacks_csv,
    write_rappor_csv,
    write_rounds_csv,
)

CONFIG = {
    "name": "clismoke",
    "m": 2,
    "counts": [2, 3],
    "schedule": {"kind": "noisy-sampling", "eps_alpha": 1.0, "eps_beta": 0.5, "rounds": 2},
    "trials": 2,
    "seed": 5,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return path


def test_kernel_table_command(tmp_path, capsys):
    assert cli.main(["kernel-table", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("kernel_table.csv")
    lines = (tmp_path / "kernel_table.csv").read_text().splitlines()
    assert len(lines) == 33


def test_simulate_command(tmp_path, config_path):
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "clismoke_rounds.csv").exists()


def test_attack_eval_command(tmp_path, config_path):
    assert cli.main(["attack-eval", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    header = (tmp_path / "clismoke_attacks.csv").read_text().splitlines()[0]
    assert header.startswith("round,epsilon,err_last_output_mean")


def test_compare_rappor_command(tmp_path, config_path):
    assert cli.main(["compare-rappor", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "clismoke_rappor.csv").exists()


def test_simulate_seed_and_threads_flags(tmp_path, config_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out, threads in ((out_a, "1"), (out_b, "2")):
        code = cli.main(
            [
                "simulate",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--seed",
                "123",
                "--threads",
                threads,
            ]
        )
        assert code == 0
    assert (out_a / "clismoke_rounds.csv").read_bytes() == (
        out_b / "clismoke_rounds.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "command, run, write, suffix",
    [
        ("simulate", simulate_experiment, write_rounds_csv, "rounds"),
        ("attack-eval", simulate_experiment, write_attacks_csv, "attacks"),
        ("compare-rappor", compare_noisy_sampling, write_rappor_csv, "rappor"),
    ],
    ids=["simulate", "attack-eval", "compare-rappor"],
)
def test_seed_flag_runs_the_config_under_that_seed(
    tmp_path, config_path, command, run, write, suffix
):
    argv = [command, "--config", str(config_path), "--out", str(tmp_path / "cli")]
    assert cli.main(argv + ["--seed", "123"]) == 0
    got = (tmp_path / "cli" / f"clismoke_{suffix}.csv").read_bytes()
    config = load_config(config_path)
    expected = write(run(replace(config, seed=123)), tmp_path / "lib.csv").read_bytes()
    assert got == expected
    assert write(run(config), tmp_path / "default.csv").read_bytes() != expected


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--epsilons", "0.1,x"),
        ("--domains", "3,4.5"),
        ("--epsilons", "1.0"),
        ("--domains", ","),
        ("--epsilons", "1.0,0.5"),
        ("--epsilons", "0.5,inf"),
        ("--domains", "1"),
    ],
    ids=["epsilons", "domains", "one-epsilon", "no-domain", "decreasing", "infinite", "domain-1"],
)
def test_kernel_table_parse_error_exits_2(tmp_path, capsys, flag, value):
    assert cli.main(["kernel-table", flag, value, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not list(tmp_path.iterdir())


def test_out_naming_a_file_exits_2(tmp_path, capsys, config_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(taken)]) == 2
    assert "error:" in capsys.readouterr().err
    assert taken.read_text() == ""


def test_threads_past_the_bound_exit_2(tmp_path, capsys, config_path):
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(config_path), "--out", str(out), "--threads", "65"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: threads must be at most 64, got 65\n"
    assert not out.exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**CONFIG, "counts": [1]}))
    assert cli.main(["simulate", "--config", str(bad)]) == 2
    assert "counts" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("field", ["start", "stop", "stride"])
def test_non_finite_linear_schedule_exits_2(tmp_path, capsys, field, value):
    schedule = {"kind": "linear", "start": 0.1, "stop": 1.0, "stride": 0.1, field: value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**CONFIG, "schedule": schedule}))  # Infinity / NaN tokens
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert f"bad.json.schedule.{field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "schedule, field",
    [
        ({"kind": "list", "epsilons": [10**400]}, "epsilons[0]"),
        ({"kind": "linear", "start": 0.1, "stop": 10**400, "stride": 0.1}, "stop"),
    ],
    ids=["list", "linear-stop"],
)
def test_number_beyond_double_range_exits_2(tmp_path, capsys, schedule, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**CONFIG, "schedule": schedule}))  # a 401-digit integer
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert f"bad.json.schedule.{field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "schedule, field",
    [
        ({"kind": "noisy-sampling", "eps_alpha": 1.0, "eps_beta": 0.5, "rounds": 100_001}, "rounds"),
        ({"kind": "list", "epsilons": [0.5] * 100_001}, "epsilons"),
    ],
    ids=["noisy-sampling", "list"],
)
def test_too_many_rounds_exits_2(tmp_path, capsys, monkeypatch, schedule, field):
    def never(*args, **kwargs):
        raise AssertionError("a refused config must not be run")

    monkeypatch.setattr(cli, "simulate_experiment", never)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**CONFIG, "schedule": schedule}))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert f"bad.json.schedule.{field}:" in capsys.readouterr().err


def test_domain_above_limit_exits_2(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a refused config must not be run")

    monkeypatch.setattr(cli, "simulate_experiment", never)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**CONFIG, "m": 65, "counts": [1] * 65}))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "bad.json.m:" in capsys.readouterr().err


def test_epsilon_too_small_to_debias_exits_2(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a refused schedule must not be sampled")

    for name in ("_balanced_draw", "iter_chain_rounds"):
        monkeypatch.setattr(experiments, name, never)
    bad = tmp_path / "tiny.json"
    bad.write_text(json.dumps({**CONFIG, "schedule": {"kind": "list", "epsilons": [1e-200, 1.0]}}))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "too small to debias" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # a UTF-16 byte-order mark, then the config in UTF-16
    bad = tmp_path / "bin.json"
    bad.write_bytes(b"\xff\xfe" + json.dumps(CONFIG).encode("utf-16-le"))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "utf-8" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_out_of_range_names_the_flag(tmp_path, capsys, config_path, seed):
    argv = ["simulate", "--config", str(config_path), "--out", str(tmp_path), "--seed", seed]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --seed: must be an integer that fits in 64 bits, got {seed}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_compare_rappor_wrong_schedule_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({**CONFIG, "schedule": {"kind": "list", "epsilons": [0.5, 1.0]}})
    )
    assert cli.main(["compare-rappor", "--config", str(bad)]) == 2


def test_compare_rappor_beyond_the_object_bound_exits_2(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a refused run must not be sampled")

    monkeypatch.setattr(experiments, "simulate_noisy_sampling_batch", never)
    schedule = {"kind": "noisy-sampling", "eps_alpha": 1.0, "eps_beta": 0.5, "rounds": 1000}
    bad = tmp_path / "wide.json"
    bad.write_text(json.dumps({**CONFIG, "counts": [2**22, 2**22], "schedule": schedule}))
    assert cli.main(["compare-rappor", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "counts (8388608 objects)" in err and "rounds (1000)" in err
    assert not list(tmp_path.glob("*.csv"))


def test_eps_alpha_too_small_for_matched_schedule_exits_2(tmp_path, capsys):
    # eps_noisy_sampling cancels to 0.0 at this eps_alpha; the error names the
    # field the file has, not the schedule entry it generated
    schedule = {"kind": "noisy-sampling", "eps_alpha": 1e-20, "eps_beta": 1.0, "rounds": 3}
    bad = tmp_path / "tiny.json"
    bad.write_text(json.dumps({**CONFIG, "schedule": schedule}))
    assert cli.main(["compare-rappor", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "tiny.json.schedule.eps_alpha: 1e-20 is too small for the matched schedule" in err
    assert "epsilons" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_audit_command_passes(tmp_path, capsys):
    assert cli.main(["audit", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert (tmp_path / "audit_report.csv").exists()


def test_audit_failure_exits_3(monkeypatch, capsys):
    failing = [AuditCheck(name="synthetic", worst=1.0, bound=0.1)]
    monkeypatch.setattr(cli, "run_standard_audits", lambda: failing)
    assert cli.main(["audit"]) == 3
    assert "FAIL synthetic" in capsys.readouterr().out


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
