"""Regenerate reference.json, the outputs the benchmark checks ops against.

Holds the sha256 of trials.csv + summary.csv of every pool entry of both
scan workloads, and the model rows of each N of model-sweep in canonical
device order. Regenerate only when the program's
outputs change on purpose, and say so where the change is recorded:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from iotsweep import experiment  # noqa: E402


def main() -> None:
    reference = {}
    for name in ("dense-2g4", "sparse-900"):
        wl = workloads.make(name, 0, reference={})
        wl.setup()
        reference[name] = [
            hashlib.sha256(wl.run_entry(i).key.encode()).hexdigest()
            for i in range(workloads.POOL)
        ]
        print(f"{name}: {workloads.POOL} ops", file=sys.stderr)
    model = workloads.make("model-sweep", 0, reference={})
    model.setup()
    reference["model-sweep"] = {
        str(n): experiment.run_model(cfg) for n, cfg in model.canonical.items()
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
