"""Run every workload over several seeds and print each metric's spread.

Run from the root of a dprelax checkout:

    python3 benchmarks/report.py --runs 10

Each run is one ``benchmarks/run.py`` invocation with its own seed, made
seed by seed across the workloads so drift on the machine hits every
workload alike.  For every workload and metric it prints the median, the
quartiles as Python's ``statistics.quantiles(values, n=4)`` gives them, the
spread (interquartile range over median) and the metric's bound from
BENCHMARK.json, marking spreads at or above a third of the bound, and then
the same end-to-end metrics in wall seconds, before reference scaling.  The
raw results are saved to ``.bench_out/report-<time>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    results = {w: [] for w in chosen}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in chosen:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["detail"] = json.loads(lines[-2])["detail"]
            result["seed"] = seed
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    out = root / ".bench_out" / f"report-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    print(f"{'workload':16} {'metric':44} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload:16} {'failed_share':44} {'share':6} {failed / attempted:12.4g}"
              f"   ({len(runs)} runs, {attempted} operations, all correct: "
              f"{all(r['correct'] for r in runs)})")
        rows = [(m["name"], m["unit"], m.get("bound"), [r["metrics"][m["name"]]["value"] for r in runs])
                for m in metrics]
        if not args.trace:  # the same metrics in wall seconds, before reference scaling
            units = {m["name"]: m["unit"] for m in metrics}
            rows += [(f"{name} (wall)", units[name], None, [r["detail"]["wall"][name] for r in runs])
                     for name in runs[0]["detail"]["wall"]]
        for name, unit, bound, values in rows:
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            flag = " <-- wide" if bound is not None and spread >= bound / 3 else ""
            print(f"{workload:16} {name:44} {unit:6} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.3f} {bound if bound is not None else '':>6}{flag}")
    print(f"raw results: {out.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
