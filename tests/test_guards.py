"""Guards against silent drift: frozen CSV digests, the benchmark's traced
names, the package's exports and the README's quick start.

`GOLDEN` was recorded from the CLI before the likelihood and sampling paths
were consolidated, `DEEP_GOLDEN` before attack scoring became one running pass
per trial, `GUARD_GOLDEN` before a round's MLE skipped the full argmax and its
sampler drew the moved objects' branch on those objects alone; the
`*_rounds.csv` and RAPPOR digests were re-recorded when every decode became one
closed form, which moved only their decoded-estimate columns, and the RAPPOR
digest again when noisy sampling became one decode of the clients' total of
ones, which moved only its ``var_noisy_empirical`` column.  The audit digest
was re-recorded when the noisy-sampling enumeration became one log-space
expression over every count, which moved only that check's ``worst`` field.
Any change to a single output byte fails here.  A deleted API cannot stay exported or
documented: every exported name must resolve and the README's quick start must
run.
"""

import ast
import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from dprelax import EPSILON_CAP, cli

ROOT = Path(__file__).resolve().parent.parent
TRIALS = 3

# sha256 of each CLI output, shipped configs at trials=3 (seed unchanged).
GOLDEN = {
    "experiment1_rounds.csv": "e8b6f745dcb7b75c5d2fa4c28fe7c06792305554ac25a5b2fd09e1383c086273",
    "experiment1_attacks.csv": "be4854e71169f28bad04e9fb6b6887a3d0e8984586d9b4390d089cbdf59dcbc4",
    "experiment2_rounds.csv": "8c130893a51a32213831a44d2d55bd62a0252eed7689736cc5d524d08e3011fa",
    "experiment2_attacks.csv": "6d75dfaaeccb7dfa2e7ae58c2ffec59e04b5e01d78ae0e11fde0cd0414651241",
    "rappor_comparison_rappor.csv": "daac503a837db2139203b6786b2d792051a00f6e910ceb52f8600ab99238f7fd",
    "kernel_table.csv": "75602638f33fd7998229585bb765fdfd12175bb5a3aabbc66afca2807e7ef6c9",
    "audit_report.csv": "abf913f0f590cb37fd547fad7026cbe4f5d73aa5213d225bb3a8f16d9a1afdd9",
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
    "deep_rounds.csv": "f74c57851c26292f7bf0610a17d26cdc7097076aa96f55c17a412e056f1676de",
    "deep_attacks.csv": "6052d47d88fdad3729dc055077fe2b6f44487161e9652f16fc4079f878b61ebb",
}

# sha256 of `simulate` / `attack-eval` on the edge cases of the round's MLE and
# sampler: a repeated and a capped ε (identity steps), ε past the cap, a binary
# domain with repeats, ε below double precision (every likelihood ties to an
# ulp, so the MLE falls back to a full argmax), and 64 values.  The first two
# run three blocks of one trial each, so `--threads 2` splits them.
GUARD_CONFIGS = {
    "capped": {
        "m": 3,
        "counts": [1400, 1500, 1600],
        "schedule": {
            "kind": "list",
            "epsilons": [0.3, 0.3, 1.0, EPSILON_CAP, EPSILON_CAP + 10, 2 * EPSILON_CAP],
        },
        "seed": 11,
    },
    "binary": {
        "m": 2,
        "counts": [2600, 2400],
        "schedule": {"kind": "list", "epsilons": [0.5, 0.5, 1.0, 1.0, 1.0, 2.5, 2.5]},
        "seed": 12,
    },
    "tiny": {
        "m": 3,
        "counts": [50, 50, 50],
        "schedule": {"kind": "list", "epsilons": [1e-17, 2e-17]},
        "seed": 13,
    },
    "wide": {
        "m": 64,
        "counts": [8 + value % 5 for value in range(64)],
        "schedule": {"kind": "linear", "start": 0.1, "stop": 1.0, "stride": 0.3},
        "seed": 14,
    },
}
GUARD_GOLDEN = {
    "capped_rounds.csv": "fcb6fd26d2c80d87655110ee21d52879920357130613699192d4d8e1457aa1df",
    "capped_attacks.csv": "d81dc538f62940502b2a74c62055170da186d9dfa80c579c7ebfb7f794793890",
    "binary_rounds.csv": "dc276a2d5d83cdf5555c6e1496d297d0f73cc17c63305679129cf543566151a3",
    "binary_attacks.csv": "d8e101555c0c34e19306da0934b3b32c9b81019cb14df1c77d40facffb70bf51",
    "tiny_rounds.csv": "55e73d7d9db0ab1859285587cc4af00c060276be511a028e7d19be9656a981e8",
    "tiny_attacks.csv": "dcf937fcb48d16c299d9e15f2b81cd7e553e186ecac083d4f4d6d7ec99f0dd01",
    "wide_rounds.csv": "483384dc8574c32fb77cbff909d25830aa387082d978b9592821227b5e0f5d35",
    "wide_attacks.csv": "4cdda999e0f51fecd560eff6738454769519ab9ba9092f2d474b5891bb229338",
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


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(GUARD_CONFIGS))
def test_edge_case_outputs_match_golden_digests(tmp_path, capsys, name, threads):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(dict(GUARD_CONFIGS[name], name=name, trials=TRIALS)))
    out = str(tmp_path / "out")
    for command in ("simulate", "attack-eval"):
        argv = [command, "--config", str(config), "--out", out, "--threads", threads]
        assert cli.main(argv) == 0
    capsys.readouterr()
    names = (f"{name}_rounds.csv", f"{name}_attacks.csv")
    assert _digests(out, names) == {n: GUARD_GOLDEN[n] for n in names}


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


def test_only_inference_reaches_into_mechanism():
    # The step memo and the kernel layer's other private names are known to
    # `mechanism` alone.  `inference` shares its batch check and recurrence,
    # `audit` one gather of stacked step tables, and `audit` and `experiments`
    # the one builder of a schedule's relaxation plan (`_plan`); no other
    # module reads the memo (`_relax_kernel`) or the entry pattern
    # (`_entry_classes`).
    shared = {
        "inference": {"_check_batch", "_running_log_likelihoods"},
        "audit": {"_log_tables", "_plan"},
        "experiments": {"_plan"},
    }
    offenders = []
    for path in sorted((ROOT / "src" / "dprelax").glob("*.py")):
        if path.stem == "mechanism":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("mechanism", "dprelax.mechanism"):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr] if node.value.id == "mechanism" else []
            else:
                continue
            allowed = shared.get(path.stem, set())
            offenders += [
                f"{path.name}: {name}"
                for name in names
                if name.startswith("_") and name not in allowed
            ]
    assert not offenders


def test_exported_names_resolve():
    import dprelax

    package = ROOT / "src" / "dprelax"
    missing = []
    for path in sorted(package.glob("*.py")):
        name = "dprelax" if path.stem == "__init__" else f"dprelax.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    # every name the package re-exports is also in its defining module's __all__
    for node in ast.walk(ast.parse((package / "__init__.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            source = importlib.import_module(f"dprelax.{node.module}")
            public = getattr(source, "__all__", [a.name for a in node.names])
            missing += [
                f"dprelax.{a.name}"
                for a in node.names
                if a.name not in public or not hasattr(dprelax, a.name)
            ]
    assert not missing


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
