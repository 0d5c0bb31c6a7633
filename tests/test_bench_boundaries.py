"""The benchmark's traced pass wraps the functions named in
``bench/tracing.py`` ``BOUNDARIES``; renaming or removing one of them would
make ``bench/run.py --trace 1`` stop with a KeyError. This keeps that
surface under the main test suite."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402


@pytest.mark.parametrize(
    "name, owner, attr", tracing.BOUNDARIES, ids=[f"{n}:{a}" for n, _, a in tracing.BOUNDARIES]
)
def test_boundary_exists(name, owner, attr):
    assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"
