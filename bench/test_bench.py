"""Self-tests of the benchmark: python3 -m pytest bench"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _ready(name: str, seed: int = 0, reference: dict | None = None):
    wl = workloads.make(name, seed, reference)
    wl.setup()
    return wl


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_one_op_passes_its_checks(name):
    report = worker.timed_pass(_ready(name), seconds=0.0)
    assert report["attempted"] == 1
    assert report["correct"], report["errors"]


def test_scan_checks_catch_a_censored_row():
    out = _ready("dense-2g4", seed=7).run_op(0)
    lines = out.key.splitlines()
    lines[-1] = lines[-1][: lines[-1].rindex(",")] + ",1"
    broken = workloads.Output("\n".join(lines) + "\n", out.sim_s)
    assert "sha256" in _ready("dense-2g4", seed=7).check(0, broken)
    without_reference = _ready("dense-2g4", seed=7, reference={})
    assert without_reference.check(0, out) is None
    assert "censored" in without_reference.check(0, broken)


def test_model_check_uses_a_relative_tolerance():
    wl = _ready("model-sweep")
    out = wl.run_op(3)
    nudged = tuple([(n, t * (1 + 1e-7)) for n, t in rows] for rows in out.rows)
    assert wl.check(3, workloads.Output(out.key, out.sim_s, rows=nudged)) is None
    wrong = tuple([(n, t * (1 + 1e-5)) for n, t in rows] for rows in out.rows)
    assert wl.check(3, workloads.Output(out.key, out.sim_s, rows=wrong)) is not None


def test_tracer_restores_every_patched_attribute():
    originals = [(owner, attr, vars(owner)[attr]) for _, owner, attr in tracing.BOUNDARIES]
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert all(vars(o)[a] is not f for o, a, f in originals)
            raise RuntimeError("leave the traced block early")
    assert all(vars(o)[a] is f for o, a, f in originals)


def test_self_times_of_an_op_sum_to_its_span():
    wl = _ready("dense-2g4")
    with tracing.Tracer() as tracer:
        for k in range(2):
            tracer.current_op = k
            tracer.span("op", wl.run_op, k)
        tracer.current_op = -1
    a = tracer.arrays()
    self_t = tracer.self_times()
    is_op = a["code"] == tracer.names.index("op")
    assert is_op.sum() == 2
    for i in is_op.nonzero()[0]:
        op_span = a["end"][i] - a["start"][i]
        assert self_t[a["op"] == a["op"][i]].sum() == pytest.approx(op_span, rel=1e-9)
    assert (self_t >= -1e-9).all()


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)  # 91..100 beyond
    assert run.tail([float(i) for i in range(1, 16)]) == (8.0, 50.0)  # too few: the median


def test_op_times_are_scaled_to_the_reference_speed():
    report = {"latencies": [1.0, 3.0], "speeds": [0.5, 0.5], "sim_s": 8.0, "peak_rss_kb": 1024}
    setups = [{"setup_s": t, "setup_speed": 0.5} for t in (1.0, 2.0, 3.0)]
    at_ref, measured, _ = run.end_to_end(report, setups)
    assert measured["ops_per_s"] == 0.5 and at_ref["ops_per_s"] == 1.0
    assert at_ref["sim_s_per_host_s"] == 4.0 and at_ref["op_s.p50"] == 1.0
    assert measured["setup_s"] == 2.0 and at_ref["setup_s"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "model-sweep", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
