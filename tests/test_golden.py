"""Golden outputs: every bundled scenario at its pinned seed, byte for byte.

tests/golden/<scenario>/ holds trials.csv and summary.csv, plus model.csv
for the scans the analytic model covers. For the scenarios in EVENT_LOGS it
also holds the event-log export of trial 0 (``events_csv``, wire bytes
included), once as configured and once with frame loss. A change that
alters any of them on purpose regenerates them in a commit of its own:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from iotsweep import experiment
from iotsweep.errors import ScenarioError
from iotsweep.scenario import bundled_scenario_names, load_bundled_scenario

GOLDEN = Path(__file__).with_name("golden")

#: scenario -> {file name: loss-prob override (None keeps the scenario's)}
EVENT_LOGS = {"zigbee-ble-active-multi": {"events.csv": None, "events-loss.csv": 0.25}}
EVENTS_HORIZON_S = 120.0


def scenario_outputs(name: str) -> dict[str, str]:
    cfg = load_bundled_scenario(name)
    result = experiment.run_experiment(cfg)
    out = {
        "trials.csv": experiment.trials_csv(result),
        "summary.csv": experiment.summary_csv(result.summary),
    }
    try:
        out["model.csv"] = experiment.model_csv(experiment.run_model(cfg))
    except ScenarioError:
        pass  # active and sequential scans have no model
    for filename, loss_prob in EVENT_LOGS.get(name, {}).items():
        lossy = cfg if loss_prob is None else dataclasses.replace(cfg, loss_prob=loss_prob)
        env = experiment.trial_environment(lossy, trial=0)
        out[filename] = experiment.events_csv(env, EVENTS_HORIZON_S)
    return out


def test_every_bundled_scenario_has_goldens():
    assert sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()) == bundled_scenario_names()


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_outputs_match_golden(name):
    outputs = scenario_outputs(name)
    stored = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert stored == sorted(outputs)
    for filename, text in outputs.items():
        assert text == (GOLDEN / name / filename).read_text(), f"{name}/{filename}"


if __name__ == "__main__":
    for name in bundled_scenario_names():
        (GOLDEN / name).mkdir(parents=True, exist_ok=True)
        for filename, text in scenario_outputs(name).items():
            (GOLDEN / name / filename).write_text(text)
        print(f"wrote {GOLDEN / name}")
