"""One workload in one process: set up, then a timed or a traced pass.

Started by run.py, never by hand. Prints one JSON object on its last line.
``--launched`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time includes interpreter start-up and imports.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
MAX_ERRORS_KEPT = 5

#: After each op the worker times the speed probe for this share of the op's
#: latency (at least PROBE_MIN_COUNT times); see speed_probe().
PROBE_SHARE = 0.05
PROBE_MIN_COUNT = 3
#: Set-up is bracketed by Python-probe bursts of this many seconds each.
SETUP_PROBE_S = 0.05


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    p.add_argument("--launched", type=float, required=True)
    args = p.parse_args(argv)

    if not (SRC / "iotsweep" / "__init__.py").is_file():
        print(f"error: no iotsweep source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    probe_start = time.monotonic()
    before = probe_burst(python_probe, SETUP_PROBE_S)
    probe_s = time.monotonic() - probe_start
    import workloads

    wl = workloads.make(args.workload, args.seed)
    wl.setup()
    wl.warm_up()
    setup_s = time.monotonic() - args.launched - probe_s
    after = probe_burst(python_probe, SETUP_PROBE_S)
    if args.mode == "setup":
        report = {}
    elif args.mode == "timed":
        report = timed_pass(wl, args.seconds)
    else:
        report = traced_pass(wl)
    report["setup_s"] = setup_s
    report["setup_speed"] = PYTHON_PROBE_REFERENCE_S / statistics.fmean(before + after)
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["versions"] = versions()
    print(json.dumps(report))
    return 0


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.errors: list[str] = []

    def fail(self, k: int, message: str) -> None:
        self.failed_ops.add(k)
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)

    def attempt(self, wl, k: int, run):
        """Run op k through ``run`` and check it; None if it raised."""
        self.attempted += 1
        try:
            out = run(k)
        except Exception:
            self.fail(k, f"op {k} raised:\n{traceback.format_exc()}")
            return None
        problem = wl.check(k, out)
        if problem is not None:
            self.fail(k, problem)
        return out

    def repeat_check(self, wl, first) -> None:
        """Op 0, run again after the loop, must give the same bytes."""
        if first is None:
            return
        try:
            again = wl.run_op(0)
        except Exception:
            self.fail(0, f"op 0 raised when repeated:\n{traceback.format_exc()}")
            return
        if again.key != first.key:
            self.fail(0, "op 0 did not repeat byte for byte")

    def final_check(self, wl) -> None:
        """The workload's once-per-run check, outside the timed loop."""
        try:
            problem = wl.final_check()
        except Exception:
            problem = f"final check raised:\n{traceback.format_exc()}"
        if problem is not None:
            self.fail(-1, problem)

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len([k for k in self.failed_ops if k >= 0]),
            "correct": not self.failed_ops,
            "errors": self.errors,
        }


#: Seconds python_probe() takes at the reference speed.
PYTHON_PROBE_REFERENCE_S = 0.0015
#: The array probe's passes per call, and the seconds a call takes at the
#: reference speed.
ARRAY_PROBE_REPEATS = 40
ARRAY_PROBE_REFERENCE_S = 0.0014


def python_probe() -> float:
    """Seconds a fixed interpreted-Python task takes."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return time.perf_counter() - t0


def speed_probe(kind: str):
    """(probe, reference seconds) for ops that mostly run ``kind`` code.

    On a shared host one core's speed drifts by a third within minutes, and
    interpreted code and array code slow down by different amounts. Timing
    a fixed task of the op's kind between ops lets run.py report op times
    at the speed at which the probe takes the reference time. The probes
    are the benchmark's own code, so no change to iotsweep can move them.
    The array probe works in place on two 256 KB arrays, so that its memory
    stays small beside the program's in peak_rss_mb.
    """
    if kind == "python":
        return python_probe, PYTHON_PROBE_REFERENCE_S
    import numpy

    a = numpy.arange(32_768, dtype=float)
    b = numpy.empty_like(a)

    def array_probe() -> float:
        t0 = time.perf_counter()
        for _ in range(ARRAY_PROBE_REPEATS):
            numpy.multiply(a, 1.5, out=b)
            numpy.add(b, a, out=b)
            float(b.sum())
        return time.perf_counter() - t0

    return array_probe, ARRAY_PROBE_REFERENCE_S


def probe_burst(probe, budget_s: float) -> list[float]:
    times: list[float] = []
    while len(times) < PROBE_MIN_COUNT or sum(times) < budget_s:
        times.append(probe())
    return times


def timed_pass(wl, seconds: float) -> dict:
    """Closed loop, one client: op k+1 starts when op k returns.

    Each op's speed is the reference probe time over the mean of the probe
    bursts just before and just after it.
    """
    probe, reference_s = speed_probe(wl.probe)
    tally = Tally()
    latencies: list[float] = []
    speeds: list[float] = []
    sim_s = 0.0
    first = None
    clock = time.perf_counter
    k = 0
    before = probe_burst(probe, 0.0)
    deadline = clock() + seconds
    while True:
        t0 = clock()
        out = tally.attempt(wl, k, wl.run_op)
        latencies.append(clock() - t0)
        after = probe_burst(probe, PROBE_SHARE * latencies[-1])
        speeds.append(reference_s / statistics.fmean(before + after))
        before = after
        if out is not None:
            sim_s += out.sim_s
            if k == 0:
                first = out
        k += 1
        if clock() >= deadline:
            break
    tally.repeat_check(wl, first)
    tally.final_check(wl)
    return {**tally.report(), "latencies": latencies, "speeds": speeds, "sim_s": sim_s}


def traced_pass(wl) -> dict:
    """The first ``wl.trace_ops`` ops untraced, then the same ops traced."""
    import tracing

    tally = Tally()
    clock = time.perf_counter
    untraced = 0.0
    for k in range(wl.trace_ops):
        t0 = clock()
        tally.attempt(wl, k, wl.run_op)
        untraced += clock() - t0

    first_seen = 0
    first = None
    with tracing.Tracer() as tracer:
        tracer.span("setup", wl.setup)

        def run_traced(k):
            tracer.current_op = k
            try:
                return tracer.span("op", wl.run_op, k)
            finally:
                tracer.current_op = -1

        for k in range(wl.trace_ops):
            out = tally.attempt(wl, k, run_traced)
            if out is not None:
                first_seen += out.first_seen
                if k == 0:
                    first = out
        tally.final_check(wl)
    tally.repeat_check(wl, first)
    a = tracer.arrays()
    ops = a["code"] == tracer.names.index("op")
    traced = float((a["end"][ops] - a["start"][ops]).sum())
    metrics = tracing.layer_metrics(tracer, wl.trace_ops, first_seen)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    RESULTS.mkdir(exist_ok=True)
    tracer.save(RESULTS / f"spans-{wl.name}.npz")
    return {**tally.report(), "layers": metrics, "spans": len(a["code"])}


def versions() -> dict:
    import platform

    import numpy

    import iotsweep

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "iotsweep": iotsweep.__version__,
        "iotsweep_path": str(Path(iotsweep.__file__).resolve().parent),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
