"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload sparse-900 --runs 10

Runs run.py once per seed 1..runs for BENCHMARK.json's run_seconds and
prints, per metric, the median and the quartile spread (Q3 - Q1) / median,
with Q1 and Q3 from ``statistics.quantiles(values, n=4)``, beside the
metric's bound from BENCHMARK.json and the spread the same runs give without
scaling to the reference speed. A probe that does not fit a workload's kind
of work shows as a scaled spread wider than the unscaled one. The values go
to bench/results/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    values: dict[str, list[float]] = {}
    unscaled: dict[str, list[float]] = {}
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        record = BENCH / "results" / f"{args.workload}-seed{seed}-trace0.json"
        for name, v in json.loads(record.read_text())["as_measured"].items():
            unscaled.setdefault(name, []).append(v)
        print(f"seed {seed}: " + ", ".join(
            f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
    spreads, unscaled_spreads = {}, {}
    for m in spec["end_to_end"]:
        name = m["name"]
        spreads[name] = spread(values[name])
        unscaled_spreads[name] = spread(unscaled[name])
        print(f"{name:18s} median {statistics.median(values[name]):12.6g}  "
              f"spread {spreads[name]:.4f}  bound {m['bound']}  "
              f"unscaled spread {unscaled_spreads[name]:.4f}")
    out = BENCH / "results" / f"spread-{args.workload}.json"
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                               "values": values, "spread": spreads, "unscaled": unscaled,
                               "unscaled_spread": unscaled_spreads}, indent=1) + "\n")
    return 0


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
