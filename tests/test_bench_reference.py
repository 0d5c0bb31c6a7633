"""Every pool entry of the benchmark's workloads reproduces what
``bench/reference.json`` pins: the output digest of the two scan workloads,
and the model rows of ``model-sweep`` within ``workloads.MODEL_RTOL``. A
change to the simulator, the scanner or the model that moves any of them
fails here."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["dense-2g4", "sparse-900"])
def test_every_pool_entry_matches_the_reference(name):
    workload = workloads.make(name, 0)
    workload.setup()
    for i in range(workloads.POOL):
        k = (i - workload.start) % workloads.POOL  # the op that runs entry i
        assert workload.check(k, workload.run_entry(i)) is None, i


def test_every_model_sweep_entry_matches_the_reference():
    workload = workloads.make("model-sweep", 0)
    workload.setup()
    for k in range(workloads.POOL):  # op k runs entry (start + k) mod POOL
        assert workload.check(k, workload.run_op(k)) is None, k
