"""One benchmark process: set up a workload, run timed passes, check, report.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``;
prints one JSON line.  Modes:

* ``--setup-only``: set up and report the set-up time.
* default: run passes for ``--seconds`` (at least `MIN_PASSES`).  With
  ``--trace 1`` passes alternate untraced and traced, so the tracing overhead
  is measured in the same process.
* ``--scaling``: the informational thread-scaling pass (see README.md).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracing import CSV_WRITERS, TRACED, Tracer

MIN_PASSES = 2

# Other tenants of the host move its speed by ±30% over minutes, and every
# wall time with it.  So each pass is also timed in reference seconds: its
# wall time times REF_SECONDS over the time a fixed reference kernel takes
# right before and right after it (only after it, for the first pass).
# REF_SECONDS is about the kernel's time on the 2-core Xeon the benchmark was
# defined on.
REF_SECONDS = 0.12
REF_REPEATS = 3


def _reference_kernel():
    """Fixed work: numpy ops on cache-sized and memory-sized arrays, small-array
    calls and a Python loop, like the mix the workloads run."""
    rng = np.random.default_rng(12345)
    for size, repeats in ((200_000, 8), (2_000_000, 1)):
        a = rng.random(size)
        idx = (a * 5).astype(np.int64)
        for _ in range(repeats):
            np.bincount(idx, minlength=5)
            np.where(a < 0.5, idx, idx + 1)
            np.cumsum(a)
    total = 0.0
    for i in range(40_000):
        total += math.exp(-(i % 50) * 0.01)
    small = np.arange(5.0)
    for _ in range(2_000):
        small.sum()
        np.full(5, 0.2)
    return total


def reference_time() -> float:
    """Median wall time of `REF_REPEATS` runs of the reference kernel."""
    times = []
    for _ in range(REF_REPEATS):
        start = perf_counter()
        _reference_kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def environment(root: Path) -> dict:
    """Hardware, interpreter and source identity of this run."""
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": "unknown",
        "caches": {},
        "commit": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                env["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        env["commit"] = ref
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "dprelax").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = digest.hexdigest()
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _timed_pass(workload, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        latencies, outputs = workload.run_pass()
        wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, np.asarray(latencies, dtype=float), outputs


def _layer_values(snapshot: dict, wall: float) -> dict:
    """Per-pass per-layer values: every span's calls and self time, and the counts.

    Spans and counts the pass never reached read 0.
    """
    values = workloads.zero_counts()
    values["experiments.csv_bytes"] = 0
    for module, name, _hook in TRACED:
        values[f"{module}.{name}.self_s"] = 0.0
    for name, (calls, _total, self_s) in snapshot["spans"].items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values.update(snapshot["counts"])
    values["experiments.csv_write_s"] = sum(
        snapshot["spans"].get(f"experiments.{w}", (0, 0.0, 0.0))[1] for w in CSV_WRITERS
    )
    scored = snapshot["counts"].get("inference.object_rounds_scored", 0)
    released = snapshot["counts"].get("simulate_draws", 0)
    values["inference.rescore_ratio"] = scored / released if released else 0.0
    values["unattributed_s"] = wall - snapshot["top_level_s"]
    return values


def _timings(walls, latencies, workload) -> dict:
    run_s = statistics.median(walls)
    steps_us = np.concatenate(latencies) * 1e6
    return {
        "run_s": run_s,
        "object_rounds_per_s": workload.object_rounds / run_s,
        "step_p50_us": float(np.percentile(steps_us, 50)),
        "step_p99_us": float(np.percentile(steps_us, 99)),
    }


def run(workload, seconds: float, trace: bool) -> dict:
    """Timed passes until ``seconds`` are used; every time also in reference seconds."""
    walls, traced_walls, latencies = [], [], []   # wall seconds
    ref_walls, ref_traced, ref_latencies = [], [], []  # reference seconds
    layer_passes, snapshots = [], []
    attempted = failed = 0
    messages = []
    start = time.monotonic()
    kinds = 2 if trace else 1
    index = 0
    refs, peak_mb = [], None
    while True:
        # stop once the next pass, as long as the last one of its kind, would overrun
        last = (traced_walls if kinds == 2 and index % 2 == 1 else walls)[-1:]
        if index >= kinds * MIN_PASSES and time.monotonic() - start + sum(last) > seconds:
            break
        tracer = Tracer() if trace and index % 2 == 1 else None
        wall, lat, outputs = _timed_pass(workload, tracer)
        if peak_mb is None:  # before the reference kernel's arrays raise it
            peak_mb = peak_rss_mb()
        refs.append(reference_time())
        scale = REF_SECONDS / statistics.mean(refs[-2:])
        bad, problems = workload.check(outputs)
        attempted += workload.ops_per_pass
        failed += bad
        messages.extend(problems)
        if tracer is None:
            walls.append(wall)
            latencies.append(lat)
            ref_walls.append(wall * scale)
            ref_latencies.append(lat * scale)
        else:
            snapshot = tracer.snapshot()
            traced_walls.append(wall)
            ref_traced.append(wall * scale)
            snapshots.append(snapshot)
            layer_passes.append(_layer_values(snapshot, wall))
        index += 1
    result = dict(
        _timings(ref_walls, ref_latencies, workload),
        attempted=attempted,
        failed=failed,
        messages=messages[:20],
        passes=len(walls),
        steps=int(sum(lat.size for lat in latencies)),
        peak_rss_mb=peak_mb,
        wall=_timings(walls, latencies, workload),
        run_s_all=walls,
        reference_s_all=refs,
        digests=workload.digests,
        scale=REF_SECONDS / statistics.median(refs),
    )
    if trace:
        result.update(
            _trace_summary(workload, layer_passes, snapshots, ref_traced, result["run_s"])
        )
    return result


def _trace_summary(workload, layer_passes, snapshots, traced_run_s, run_s) -> dict:
    """Per-layer (low) medians, the count self-check, and the span dump of the last pass.

    Span times are wall seconds; the overhead compares reference seconds.
    """
    layers = {name: statistics.median_low(p[name] for p in layer_passes) for name in layer_passes[0]}
    layers["trace_overhead_share"] = statistics.median(traced_run_s) / run_s - 1.0
    counts = [
        {k: v for k, v in p.items() if isinstance(v, int) and not isinstance(v, bool)}
        for p in layer_passes
    ]
    repeat = all(c == counts[0] for c in counts)
    expected = workload.expected_counts()
    mismatched = {
        key: [counts[0].get(key, 0), want]
        for key, want in expected.items()
        if counts[0].get(key, 0) != want
    }
    last = snapshots[-1]
    dump = workload.root / ".bench_out" / f"trace-{workload.name}-seed{workload.seed}.json"
    dump.parent.mkdir(exist_ok=True)
    dump.write_text(
        json.dumps(
            {
                "spans": {name: dict(zip(("calls", "total_s", "self_s"), agg))
                          for name, agg in sorted(last["spans"].items())},
                "callers": sorted([parent or "", child, calls]
                                  for (parent, child), calls in last["callers"].items()),
                "counts": last["counts"],
                "passes": layer_passes,
            },
            indent=1,
        )
    )
    return {
        "layers": layers,
        "traced_passes": len(layer_passes),
        "counts_repeat": repeat,
        "counts_checked": len(expected),
        "counts_mismatched": mismatched,
        "trace_file": str(dump.relative_to(workload.root)),
    }


def scaling(root: Path, seed: int, seconds: float) -> dict:
    """threads=1 over threads=2 wall time, and byte identity of the simulate CSVs."""
    speedup, problems = {}, []
    for cls in (workloads.DeepChain, workloads.WidePopulation):
        walls = {1: [], 2: []}
        budget = time.monotonic() + seconds / 2
        pairs = 0
        while pairs < 2 or time.monotonic() < budget:
            for threads in (1, 2) if pairs % 2 == 0 else (2, 1):
                wl = cls(root, seed, threads=threads)
                wall, _lat, outputs = _timed_pass(wl)
                walls[threads].append(wall)
                problems.extend(wl.check(outputs)[1])
            pairs += 1
        speedup[cls.name] = {
            "speedup_2t": statistics.median(walls[1]) / statistics.median(walls[2]),
            "run_s_1t": walls[1],
            "run_s_2t": walls[2],
        }
    csvs = {}
    for threads in (1, 2):
        wl = workloads.PaperRepro(root, seed, threads=threads)
        try:
            wl.ops = [op for op in wl.ops if op[0][0] == "simulate"]
            _wall, _lat, outputs = _timed_pass(wl)
            problems.extend(wl.check(outputs)[1])
            csvs[threads] = {name: (wl.out / name).read_bytes() for _argv, name, _c, _r in wl.ops}
        finally:
            wl.close()
    return {
        "speedup": speedup,
        "simulate_csv_identical_at_2_threads": csvs[1] == csvs[2],
        "simulate_csvs": sorted(csvs[1]),
        "check_failures": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--scaling", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.scaling:
        result = scaling(root, args.seed, args.seconds)
    else:
        workload = workloads.WORKLOADS[args.workload](root, args.seed)
        setup_s = time.monotonic() - args.spawned_at
        try:
            result = {} if args.setup_only else run(workload, args.seconds, bool(args.trace))
        finally:
            workload.close()
        result["setup_s"] = setup_s
    if not args.setup_only:
        result["environment"] = environment(root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
