"""iotsweep benchmark: scan throughput on dense and sparse traffic, model-sweep
latency, and per-layer costs from a traced pass.

    python3 bench/run.py --workload dense-2g4 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Each workload runs in its own single-threaded worker process (worker.py).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs a traced pass and prints the per-layer metrics. Every op's output is
checked. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a record with machine and source
provenance goes to bench/results/. Workloads and metrics: bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
#: Set-up is measured in this many fresh processes; the median is reported.
SETUP_SAMPLES = 5
#: A workload's processes must all end within this many seconds.
RUN_BUDGET_S = 170.0
#: Tail percentile rule: the highest percentile with this many ops beyond it.
TAIL_OPS_BEYOND = 10

SINGLE_THREADED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def main(argv: list[str]) -> int:
    spec = benchmark_spec()
    workloads = tuple(w["name"] for w in spec["workloads"])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "iotsweep" / "__init__.py").is_file():
        print(f"error: iotsweep source not found under {SRC}", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        try:
            result = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        status |= 0 if result["correct"] else 1
    return status


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    RESULTS.mkdir(exist_ok=True)
    if trace:
        report = spawn(name, seed, seconds, "traced", deadline)
        metrics = report["layers"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        setups = [spawn(name, seed, seconds, "setup", deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        report = spawn(name, seed, seconds, "timed", deadline)
        setups.append(report)
        metrics, measured, notes = end_to_end(report, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **result,
        "errors": report["errors"],
        "machine": machine(report["versions"]),
        "raw": {k: v for k, v in report.items() if k not in ("layers", "versions")},
    }
    if not trace:
        record["setup_samples_s"] = [s["setup_s"] for s in setups]
        record["setup_speeds"] = [s["setup_speed"] for s in setups]
        record["as_measured"] = measured
        record["notes"] = notes
    out = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# workload {name}  seed {seed}  trace {int(trace)}  -> {out.relative_to(ROOT)}")
    for k, m in result["metrics"].items():
        note = "" if trace else notes.get(k, "")
        print(f"{k:34s} {m['value']:>16.6g} {m['unit']:8s} {note}")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':34s} {frac:>16.6g} {'':8s} ({result['failed']} of "
          f"{result['attempted']} ops)")
    for err in report["errors"]:
        print(f"# check failed: {err}")
    print(json.dumps(result), flush=True)
    return result


def end_to_end(report: dict, setups: list[dict]) -> tuple[dict, dict, dict]:
    """End-to-end metrics at reference speed, the same as measured, and notes.

    An op's time at reference speed is its measured time times the machine's
    speed around it (worker.speed_probe); a set-up's time likewise, with the
    speed from the probe bursts before and after it.
    """
    speed = report["speeds"]
    at_ref = op_metrics([t * f for t, f in zip(report["latencies"], speed)], report["sim_s"])
    at_ref["setup_s"] = statistics.median(s["setup_s"] * s["setup_speed"] for s in setups)
    measured = op_metrics(report["latencies"], report["sim_s"])
    measured["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    rss = {"peak_rss_mb": report["peak_rss_kb"] / 1024.0}
    n = len(speed)
    notes = {
        "setup_s": f"(median of {len(setups)} set-ups)",
        "ops_per_s": f"({n} ops; machine at {statistics.median(speed):.3f}x reference speed)",
        "op_s.tail": f"(p{tail(sorted(report['latencies']))[1]:.1f} of {n} ops)",
    }
    return {**at_ref, **rss}, {**measured, **rss}, notes


def op_metrics(latencies: list[float], sim_s: float) -> dict:
    lat = sorted(latencies)
    busy = sum(lat)
    return {
        "ops_per_s": len(lat) / busy,
        "op_s.p50": statistics.median(lat),
        "op_s.tail": tail(lat)[0],
        "sim_s_per_host_s": sim_s / busy,
    }


def tail(ascending: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_OPS_BEYOND ops
    beyond it; the median when too few ops ran for one above the median."""
    n = len(ascending)
    if n > 2 * TAIL_OPS_BEYOND:
        return ascending[n - TAIL_OPS_BEYOND - 1], 100.0 * (n - TAIL_OPS_BEYOND) / n
    return statistics.median(ascending), 50.0


def spawn(name, seed, seconds, mode, deadline, *extra) -> dict:
    """Run one worker process to completion and return its report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    env = {**os.environ, **SINGLE_THREADED}
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, *extra]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--launched", repr(launched)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran past the {RUN_BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine(versions: dict) -> dict:
    return {
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the repository the benchmark sits at the top of, if any."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over the package's files, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "iotsweep").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
