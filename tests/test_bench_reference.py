"""Every pool entry of the benchmark's two scan workloads reproduces the
output digest that ``bench/reference.json`` pins, so a change to the
simulator or the scanner that moves any of their bytes fails here."""

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
