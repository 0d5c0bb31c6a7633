"""In-memory span tracing at iotsweep's module boundaries.

The traced pass installs a wrapper on each public function listed in
BOUNDARIES, records one span per call (name, start, end, parent span, op
id) and restores every original afterwards; iotsweep's source is not
edited. Spans sit in flat arrays because the sparse workload makes over a
million boundary calls per op.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans of one op sum to the op's span.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

from iotsweep import analytics, checksums, experiment, frames, scanning, scenario, simulation

# (span name, owner, attribute). experiment binds summarize, discretize,
# expected_order_statistics and build_environment by name, so those are
# wrapped on experiment. frames reaches checksums, simulation reaches the
# frame encoders, scanning reaches frames.decode and analytics.summarize
# reaches t_quantile through their modules, so those are wrapped there.
BOUNDARIES = (
    ("scenario.load", scenario, "load_bundled_scenario"),
    ("checksums", checksums, "zigbee_fcs"),
    ("checksums", checksums, "ble_crc24"),
    ("checksums", checksums, "zwave_xor8"),
    ("checksums", checksums, "zwave_crc16"),
    ("frames.encode", frames, "encode_zigbee"),
    ("frames.encode", frames, "encode_ble"),
    ("frames.encode", frames, "encode_lora"),
    ("frames.encode", frames, "encode_zwave"),
    ("frames.decode", frames, "decode"),
    ("frames.extract_address", frames, "extract_address"),
    ("simulation.env_build", experiment, "build_environment"),
    ("simulation.generate", simulation.SimDevice, "generate_until"),
    ("simulation.window", simulation.Environment, "emissions_in_parallel"),
    ("simulation.probe", simulation.Environment, "inject_probe"),
    ("scanning.listen", scanning.Scanner, "listen"),
    ("scanning.listen", scanning.Scanner, "listen_in_parallel"),
    ("scanning.scan", scanning.Scanner, "passive_scan"),
    ("scanning.scan", scanning.Scanner, "probe_channels"),
    ("scanning.scan", scanning.Scanner, "active_scan"),
    ("scanning.scan", scanning.Scanner, "multiprotocol_scan"),
    ("scanning.scan", scanning.Scanner, "active_multiprotocol_scan"),
    ("scanning.scan", scanning.Scanner, "sequential_passive_scan"),
    ("analytics.summarize", experiment, "summarize"),
    ("analytics.t_quantile", analytics, "t_quantile"),
    ("analytics.discretize", experiment, "discretize"),
    ("analytics.model", experiment, "expected_order_statistics"),
    ("analytics.mc", analytics, "mc_order_statistic"),
    ("experiment", experiment, "run_experiment"),
    ("experiment", experiment, "run_model"),
    ("experiment.csv", experiment, "trials_csv"),
    ("experiment.csv", experiment, "summary_csv"),
)

#: Spans the benchmark opens itself, around an op and around set-up.
BENCH_SPANS = ("op", "setup")


def _count_bytes(tracer, i, args, kwargs, result):
    tracer.counts["checksums.bytes"] += len(args[0])


def _count_address(tracer, i, args, kwargs, result):
    if result is not None:
        tracer.counts["frames.extract_address.found"] += 1


def _count_window(tracer, i, args, kwargs, result):
    tracer.counts["simulation.window.emissions"] += len(result)
    tracer.counts["simulation.window.nonempty"] += bool(result)


def _count_probe(tracer, i, args, kwargs, result):
    tracer.counts["simulation.probe.responses"] += len(result)


def _time_model(tracer, i, args, kwargs, result):
    n = args[0].n_devices
    tracer.counts[f"analytics.model.n{n}.calls"] += 1
    tracer.counts[f"analytics.model.n{n}.s"] += tracer.end[i] - tracer.start[i]


def _count_episodes(tracer, i, args, kwargs, result):
    tracer.counts["analytics.mc.episodes"] += args[2] if len(args) > 2 else kwargs["episodes"]


HOOKS = {
    "checksums": _count_bytes,
    "frames.extract_address": _count_address,
    "simulation.window": _count_window,
    "simulation.probe": _count_probe,
    "analytics.model": _time_model,
    "analytics.mc": _count_episodes,
}


class Tracer:
    """Records spans while installed; use as ``with Tracer() as tracer:``."""

    def __init__(self):
        self.names = list(dict.fromkeys([n for n, _, _ in BOUNDARIES] + list(BENCH_SPANS)))
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for name, owner, attr in BOUNDARIES:
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(name, original))
                self._patched.append((owner, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        code = self.names.index(name)
        hook = HOOKS.get(name)
        codes, start, end, parent, op = self.code, self.start, self.end, self.parent, self.op
        stack, raised, clock, tracer = self._stack, self.raised, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(codes)
            codes.append(code)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                stack.pop()
                raised[name] += 1
                raise
            end[i] = clock()
            stack.pop()
            if hook is not None:
                hook(tracer, i, args, kwargs, result)
            return result

        return traced

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a benchmark span named ``name``."""
        return self._wrap(name, fn)(*args)

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "code": np.frombuffer(self.code, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, ops: int, first_seen: int) -> dict[str, float]:
    """Per-layer metrics of a traced pass of ``ops`` ops.

    Counts and self times are per op; ``scenario.load.*`` is per set-up.
    A ratio or rate whose layer did no work on this workload reads 0.
    """
    a = tracer.arrays()
    self_t = tracer.self_times()
    in_op = a["op"] >= 0
    counts = tracer.counts

    def mask(*names):
        codes = [tracer.names.index(n) for n in names]
        return np.isin(a["code"], codes)

    def calls(*names):
        return int(np.count_nonzero(mask(*names) & in_op)) / ops

    def self_s(*names):
        return float(self_t[mask(*names) & in_op].sum()) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    load = mask("scenario.load")
    encode_calls, decode_calls = calls("frames.encode"), calls("frames.decode")
    windows = calls("simulation.window")
    mc = mask("analytics.mc")
    mc_s = float((a["end"][mc] - a["start"][mc]).sum())
    out = {
        "scenario.load.calls": int(np.count_nonzero(load)),
        "scenario.load.self_s": float(self_t[load].sum()),
        "checksums.calls": calls("checksums"),
        "checksums.bytes": counts["checksums.bytes"] / ops,
        "checksums.self_s": self_s("checksums"),
        "frames.encode.calls": encode_calls,
        "frames.encode.self_s": self_s("frames.encode"),
        "frames.decode.calls": decode_calls,
        "frames.decode.self_s": self_s("frames.decode"),
        "frames.decode.failed": tracer.raised["frames.decode"] / ops,
        "frames.extract_address.calls": calls("frames.extract_address"),
        "frames.extract_address.self_s": self_s("frames.extract_address"),
        "simulation.env_build.calls": calls("simulation.env_build"),
        "simulation.env_build.self_s": self_s("simulation.env_build"),
        "simulation.generate.calls": calls("simulation.generate"),
        "simulation.generate.self_s": self_s("simulation.generate"),
        "simulation.window.calls": windows,
        "simulation.window.self_s": self_s("simulation.window"),
        "simulation.window.emissions": counts["simulation.window.emissions"] / ops,
        "simulation.window.nonempty_ratio": ratio(
            counts["simulation.window.nonempty"] / ops, windows
        ),
        "simulation.probe.calls": calls("simulation.probe"),
        "simulation.probe.self_s": self_s("simulation.probe"),
        "simulation.probe.responses": counts["simulation.probe.responses"] / ops,
        "simulation.encode_useful_ratio": ratio(decode_calls, encode_calls),
        "scanning.listen.calls": calls("scanning.listen"),
        "scanning.self_s": self_s("scanning.listen", "scanning.scan"),
        "scanning.dedup_ratio": ratio(first_seen, counts["frames.extract_address.found"]),
        "analytics.summarize.calls": calls("analytics.summarize"),
        "analytics.summarize.self_s": self_s("analytics.summarize"),
        "analytics.t_quantile.calls": calls("analytics.t_quantile"),
        "analytics.t_quantile.self_s": self_s("analytics.t_quantile"),
        "analytics.discretize.self_s": self_s("analytics.discretize"),
        "analytics.model.calls": calls("analytics.model"),
        "analytics.model.self_s": self_s("analytics.model"),
    }
    for n in (12, 16, 20, 24):
        out[f"analytics.model.n{n}_s"] = ratio(
            counts[f"analytics.model.n{n}.s"], counts[f"analytics.model.n{n}.calls"]
        )
    out["analytics.mc.episodes_per_s"] = ratio(counts["analytics.mc.episodes"], mc_s)
    out["experiment.self_s"] = self_s("experiment")
    out["experiment.csv.self_s"] = self_s("experiment.csv")
    return out
