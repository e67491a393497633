"""dprelax benchmark entry point.

Run from the root of a dprelax checkout:

    python3 benchmarks/run.py --workload deep-chain --seed 1 --seconds 20 --trace 0

Measures the set-up time in `SETUP_PROBES` fresh processes plus the measuring
one, then runs the workload in one fresh worker process for ``--seconds``
(see worker.py), and prints one JSON object as the last line of standard
output: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are BENCHMARK.json's end-to-end metrics; with
``--trace 1`` its per-layer metrics.  The line before it holds the details:
every pass and set-up time, sample counts, failure messages, the count
self-check and the environment.

``--scaling`` instead runs the informational thread-scaling pass.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
# A run must end within 180 s; this leaves room for the set-up probes.
RUN_LIMIT_S = 170.0


def _worker(root: Path, extra: list, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(WORKER), "--spawned-at", repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(extra)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dprelax benchmark")
    parser.add_argument("--workload", help="a workload of workloads.py; BENCHMARK.json gates three")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true",
                        help="run the informational thread-scaling pass instead")
    args = parser.parse_args(argv)
    if not args.scaling and args.workload is None:
        parser.error("--workload is required unless --scaling is given")

    root = Path.cwd()
    missing = [p for p in ("BENCHMARK.json", "src/dprelax/__init__.py", "configs") if not (root / p).exists()]
    if missing:
        print(f"error: not a dprelax checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    started = time.monotonic()

    try:
        if args.scaling:
            result = _worker(root, ["--scaling", "--seed", str(args.seed), "--seconds", str(args.seconds)],
                             timeout=RUN_LIMIT_S + 10 * args.seconds)
            print(json.dumps(result))
            return 0
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_worker(root, common + ["--setup-only"], timeout=60)["setup_s"])
        result = _worker(
            root,
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=RUN_LIMIT_S - (time.monotonic() - started),
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    if args.trace:
        layers = result["layers"]
        unknown = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        if unknown:
            print(f"error: the trace produced no value for {', '.join(unknown)}", file=sys.stderr)
            return 1
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        correct = result["failed"] == 0 and result["counts_repeat"]
    else:
        # set-up times are scaled by the worker's reference measurement, taken
        # seconds after the probes
        measured = dict(result, setup_s=statistics.median(setups) * result["scale"])
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        correct = result["failed"] == 0

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_share": result["failed"] / result["attempted"],
        "samples": {
            "setup_s": len(setups),
            "run_s": result["passes"],
            "steps": result["steps"],
            "traced_passes": result.get("traced_passes", 0),
        },
        "wall": dict(result["wall"], setup_s=statistics.median(setups), peak_rss_mb=result["peak_rss_mb"]),
        "scale": result["scale"],
        "setup_s_all": setups,
        "run_s_all": result["run_s_all"],
        "reference_s_all": result["reference_s_all"],
        "failures": result["messages"],
        "digests": result["digests"],
        "environment": result["environment"],
    }
    for key in ("counts_repeat", "counts_checked", "counts_mismatched", "trace_file"):
        if key in result:
            detail[key] = result[key]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
