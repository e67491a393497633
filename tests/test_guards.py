"""Guards against silent drift: frozen CSV digests and the benchmark's traced names.

`GOLDEN` was recorded from the CLI before the likelihood and sampling paths
were consolidated, `DEEP_GOLDEN` before attack scoring became one running pass
per trial; any change to a single output byte fails here.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from dprelax import cli

ROOT = Path(__file__).resolve().parent.parent
TRIALS = 3

# sha256 of each CLI output, shipped configs at trials=3 (seed unchanged).
GOLDEN = {
    "experiment1_rounds.csv": "bf361586e2a4f1eed72009485c3f85d0b120d28f4964f33ce7d689593c94fa88",
    "experiment1_attacks.csv": "be4854e71169f28bad04e9fb6b6887a3d0e8984586d9b4390d089cbdf59dcbc4",
    "experiment2_rounds.csv": "8acd9d2e6827c0374bf7c3d735f8879d8a25590a2dcb3e2cadba2caf4caa97ad",
    "experiment2_attacks.csv": "6d75dfaaeccb7dfa2e7ae58c2ffec59e04b5e01d78ae0e11fde0cd0414651241",
    "rappor_comparison_rappor.csv": "8b945a050819a36bb583c4c09c3ee709b82c0b8f9a388e512ed3886c04ce70ed",
    "kernel_table.csv": "75602638f33fd7998229585bb765fdfd12175bb5a3aabbc66afca2807e7ef6c9",
    "audit_report.csv": "7123ae1a14965fc1ed1ce0e737a8c1bf05308e8ffd1071d4c4a00b75a00da15a",
}

# sha256 of `simulate` / `attack-eval` on a 50-round, m=5 linear schedule: long
# schedules are where a different summation order of the weighted counts would
# flip an argmax.
DEEP_CONFIG = {
    "name": "deep",
    "m": 5,
    "counts": [10, 12, 14, 16, 18],
    "schedule": {"kind": "linear", "start": 0.1, "stop": 5.0, "stride": 0.1},
    "trials": TRIALS,
    "seed": 20240917,
}
DEEP_GOLDEN = {
    "deep_rounds.csv": "9064940129580229bfafc1b5753658c2ae313163bb4b20d0848f7926a0ee9054",
    "deep_attacks.csv": "6052d47d88fdad3729dc055077fe2b6f44487161e9652f16fc4079f878b61ebb",
}


def _digests(out, names):
    return {name: hashlib.sha256((Path(out) / name).read_bytes()).hexdigest() for name in names}


def _config_at_trials(tmp_path, name):
    raw = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    raw["trials"] = TRIALS
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_outputs_match_golden_digests(tmp_path, capsys, threads):
    out = str(tmp_path / "out")
    for name, commands in (
        ("experiment1", ("simulate", "attack-eval")),
        ("experiment2", ("simulate", "attack-eval")),
        ("compare_rappor", ("compare-rappor",)),
    ):
        config = _config_at_trials(tmp_path, name)
        for command in commands:
            argv = [command, "--config", config, "--out", out, "--threads", threads]
            assert cli.main(argv) == 0
    assert cli.main(["kernel-table", "--out", out]) == 0
    assert cli.main(["audit", "--out", out]) == 0
    capsys.readouterr()
    assert _digests(out, GOLDEN) == GOLDEN


@pytest.mark.parametrize("threads", ["1", "2"])
def test_deep_schedule_outputs_match_golden_digests(tmp_path, capsys, threads):
    config = tmp_path / "deep.json"
    config.write_text(json.dumps(DEEP_CONFIG))
    out = str(tmp_path / "out")
    for command in ("simulate", "attack-eval"):
        argv = [command, "--config", str(config), "--out", out, "--threads", threads]
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert _digests(out, DEEP_GOLDEN) == DEEP_GOLDEN


def test_benchmark_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"dprelax.{module}"), name, None))
    ]
    assert not missing
