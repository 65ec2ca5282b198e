"""Benchmark of fillperm: census sweeps and a surgery query stream.

Run from the repository root:

    python3 perfbench/run.py --workload surgery --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A `--trace 0` run sets the workload up five times, four of them in fresh
interpreters, measures it for `--seconds`, checks every result and prints the
end-to-end metrics.  A `--trace 1` run measures half its time untraced and
half traced and prints per-layer metrics.  The last line printed is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs each listed workload in its own fresh process and prints
a table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The workloads BENCHMARK.json lists; `census-g4` (one pass takes over a
# minute at this commit) runs only when asked for by name.
WORKLOADS = ("census-g3", "census-general", "surgery")
ALL_WORKLOADS = (*WORKLOADS, "census-g4")
SETUP_PROBES = 4
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: list[float], p: float) -> float:
    """The p-th percentile, interpolating between closest ranks."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples: list[float], beyond: int = 10) -> float | None:
    """The highest candidate percentile with at least `beyond` samples ranked above it."""
    n = len(samples)
    for p in TAIL_CANDIDATES:
        if n - 1 - int((n - 1) * p / 100) >= beyond:
            return p
    return None


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(workload: str, seed: int, work_dir: Path):
    """Import the package and build the workload; returns (workload, calibrated seconds)."""
    before = calibrate.reference_seconds()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    bench = workloads.make(workload, seed, work_dir)
    seconds = time.perf_counter() - t0
    return bench, seconds * calibrate.scale(before, calibrate.reference_seconds())


def probe_setup(args) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", args.workload,
         "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def end_to_end(samples, setup_times: list[float]) -> dict:
    lat = samples.calibrated_latencies()
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(samples.calibrated_passes()), "s"),
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "latency_p95_ms": (percentile(lat, 95) * 1e3, "ms"),
        "peak_rss_mb": (samples.first_pass_rss_mb, "MB"),
    }


def run_one(args) -> int:
    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.setup_only:
            _, seconds = set_up(args.workload, args.seed, work_dir)
            print(seconds)
            return 0
        if args.trace:
            bench, _ = set_up(args.workload, args.seed, work_dir)
            import tracing

            untraced = bench.run(args.seconds / 2)
            with tracing.Tracer() as tracer:
                traced = bench.run(args.seconds / 2, tracer)
            metrics = tracing.layer_metrics(
                tracer.spans, traced.span_marks, traced.scales(),
                statistics.mean(untraced.calibrated_passes()),
            )
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            samples = traced
        else:
            setup_times = [probe_setup(args) for _ in range(SETUP_PROBES)]
            bench, seconds = set_up(args.workload, args.seed, work_dir)
            samples = bench.run(args.seconds)
            metrics = end_to_end(samples, [*setup_times, seconds])
            attempted, failed = samples.attempted, samples.failed
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("env: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    latencies = samples.calibrated_latencies()
    raw = [x for lat in samples.latencies for x in lat]
    tail = tail_percentile(latencies)
    tail_text = f"p{tail:g} = {percentile(latencies, tail) * 1e3:.4g} ms" if tail else "none"
    print(f"{args.workload}: {len(latencies)} operations in {len(samples.latencies)} passes;"
          f" highest percentile with 10 samples beyond: {tail_text}")
    print(f"{args.workload}: uncalibrated pass median {statistics.median(map(sum, samples.latencies)):.6g} s,"
          f" operation p50 {percentile(raw, 50) * 1e3:.6g} ms; reference median"
          f" {statistics.median(samples.refs) * 1e3:.4g} ms (nominal {calibrate.NOMINAL_S * 1e3:g} ms)")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} error_rate = {failed / attempted:.6g} (failed {failed}"
          f" of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so memory and cold caches are its own."""
    print("env: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    all_correct = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(f"{workload}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            all_correct = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        all_correct &= result["correct"]
        for name, metric in result["metrics"].items():
            print(f"{workload:16} {name:45} {metric['value']:>14.6g} {metric['unit']}")
        print(f"{workload:16} {'error_rate':45} "
              f"{result['failed'] / result['attempted']:>14.6g} (of {result['attempted']})")
    return 0 if all_correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*ALL_WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "fillperm" / "__init__.py").is_file():
        print(f"error: fillperm sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
