import json
import math

import pytest

from dprelax import cli
from dprelax.audit import AuditCheck

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


def test_epsilon_too_small_to_debias_exits_2(tmp_path, capsys):
    bad = tmp_path / "tiny.json"
    bad.write_text(json.dumps({**CONFIG, "schedule": {"kind": "list", "epsilons": [1e-200, 1.0]}}))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "too small to debias" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_compare_rappor_wrong_schedule_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({**CONFIG, "schedule": {"kind": "list", "epsilons": [0.5, 1.0]}})
    )
    assert cli.main(["compare-rappor", "--config", str(bad)]) == 2


def test_audit_command_passes(tmp_path, capsys):
    assert cli.main(["audit", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert (tmp_path / "audit_report.csv").exists()


def test_audit_failure_exits_3(monkeypatch, capsys):
    failing = [AuditCheck(name="synthetic", worst=1.0, bound=0.1, passed=False)]
    monkeypatch.setattr(cli, "run_standard_audits", lambda: failing)
    assert cli.main(["audit"]) == 3
    assert "FAIL synthetic" in capsys.readouterr().out


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
