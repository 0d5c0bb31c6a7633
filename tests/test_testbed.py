"""State an experiment builds once and reads in every trial: the testbed
(address table, channel index, listener scopes) and the rotation's window
plans. Trials own only their devices' RNG streams and pending probe
responses, their clocks and their logs, so each trial of an experiment
must equal the same trial run on an environment built for it alone.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest

from iotsweep import experiment, simulation
from iotsweep.address import BleAdvA, ZigbeeShort
from iotsweep.channels import Protocol, ble_advertising_channels, zigbee_channel
from iotsweep.errors import ParameterError, ScenarioError
from iotsweep.scanning import Scanner, _plan, _Windows
from iotsweep.scenario import bundled_scenario_names, load_bundled_scenario
from iotsweep.simulation import DeviceSpec, Role, build_environment

LOSSY_ACTIVE = {
    f"{name}+loss": (name, 0.3) for name in ("zigbee-active", "zigbee-ble-active-multi")
}
CASES = {name: (name, None) for name in bundled_scenario_names()} | LOSSY_ACTIVE


def lone_trial(cfg, trial):
    """Trial ``trial`` on an environment seeded alone, with its own testbed
    and no state left by any other trial."""
    env = experiment.trial_environment(cfg, trial)
    scanner = Scanner(env, cfg.sdr, probe_dwell_time_s=cfg.probe_dwell_time_s)
    targets = frozenset(d.name for d in cfg.devices)
    scanner.scan(cfg.plan(), cfg.dwell_time_s, cfg.scan_time_s, until_complete=targets)
    return tuple(sorted((t, name) for name, t in scanner.log.first_seen.items()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_trial_equals_a_trial_run_alone(case):
    name, loss = CASES[case]
    cfg = load_bundled_scenario(name)
    if loss is not None:
        cfg = dataclasses.replace(cfg, loss_prob=loss)
    result = experiment.run_experiment(cfg)
    assert len(result.trials) == cfg.trials
    for record in result.trials:
        assert record.first_seen == lone_trial(cfg, record.trial), (case, record.trial)


@pytest.mark.parametrize("probe_dwell", [1e-6, 3e-5])
@pytest.mark.parametrize("name", ["zigbee-active", "zigbee-ble-active-multi"])
def test_probe_dwell_far_below_the_dwell(name, probe_dwell):
    """The rotation starts where the probes end, at a clock so small that
    its first window's period is more than 2^63 of the clock's ulps; every
    trial of the pass still equals the trial run alone. No beacon lands in
    so short a probe window, so only the scan that always listens on the
    advertising channels finds devices."""
    cfg = dataclasses.replace(load_bundled_scenario(name), probe_dwell_time_s=probe_dwell)
    result = experiment.run_experiment(cfg)
    found = any(record.first_seen for record in result.trials)
    assert found == (name == "zigbee-ble-active-multi")
    for record in result.trials:
        assert record.first_seen == lone_trial(cfg, record.trial), (name, record.trial)


def test_run_experiment_builds_no_environment(monkeypatch):
    """Every plan runs in the one array pass: no trial of a bundled
    scenario builds an environment or runs a scanner."""

    def refused(*args, **kwargs):
        raise AssertionError("run_experiment built a per-trial environment")

    monkeypatch.setattr(experiment, "build_environment", refused)
    monkeypatch.setattr(simulation.Environment, "__init__", refused)
    monkeypatch.setattr(Scanner, "scan", refused)
    for name in bundled_scenario_names():
        cfg = load_bundled_scenario(name)
        assert len(experiment.run_experiment(cfg).trials) == cfg.trials, name


def zigbee(name, addr, ch=zigbee_channel(11)):
    return DeviceSpec(name, Protocol.ZIGBEE, Role.ROUTER, (ch,), 5.0, ZigbeeShort(0x1A62, addr))


@pytest.mark.parametrize(
    "devices,match",
    [
        ((zigbee("a", 1), zigbee("a", 2)), "names must be unique"),
        ((zigbee("a", 1), zigbee("b", 1)), "already used by a"),
    ],
    ids=["names", "addresses"],
)
def test_duplicates_refused_with_or_without_a_testbed(devices, match):
    with pytest.raises(ScenarioError, match=match):
        build_environment(devices, seed=1)
    with pytest.raises(ScenarioError, match=match):
        simulation.Testbed(devices)


def test_hearing_marks_each_device_channel_a_group_holds():
    """Bit k of a device's row is set in the column of each group that holds
    its k-th channel: a BLE advertiser has one, two and three bits where a
    group holds that many of its advertising channels, and a device on no
    group's channel has a zero row."""
    adv = tuple(ble_advertising_channels())
    tag = DeviceSpec("tag", Protocol.BLE_ADVERTISING, Role.PERIPHERAL, adv, 4.0, BleAdvA(0xC01122))
    testbed = simulation.Testbed((zigbee("lamp", 1), tag, zigbee("far", 2, zigbee_channel(15))))
    ch11 = zigbee_channel(11)
    groups = ((adv[1],), (ch11, adv[0], adv[2]), (adv[2], adv[0], adv[1]))
    table = testbed.hearing(groups)
    assert table.dtype == np.int64 and table.shape == (3, 3)
    assert table.tolist() == [[0, 1, 0], [0b010, 0b101, 0b111], [0, 0, 0]]
    assert [bin(bits).count("1") for bits in table[1].tolist()] == [1, 2, 3]


def test_hearing_is_built_once_and_read_only():
    testbed = simulation.Testbed((zigbee("lamp", 1),))
    groups = ((zigbee_channel(11),),)
    table = testbed.hearing(groups)
    assert testbed.hearing(groups) is table
    with pytest.raises(ValueError):
        table[0, 0] = 0
    none = testbed.hearing(())
    assert none.shape == (1, 1) and not none.any() and testbed.hearing(()) is none


# Dwell/retune pairs whose window period is not exact in binary, as in
# test_rotation.py.
INEXACT = [(0.3, 0.1), (0.7, 0.0), (1.0, 0.25)]


def assert_same_plan(plan, fresh, rng):
    assert plan.count == fresh.count
    assert [plan.edges(j) for j in range(plan.count)] == [
        fresh.edges(j) for j in range(fresh.count)
    ]
    assert plan.edges(plan.count)[0] == fresh.edges(fresh.count)[0]
    end = fresh.edges(fresh.count)[0]
    times = [rng.uniform(fresh.edges(0)[0], end + 1.0) for _ in range(50)] + [end]
    for t in times:
        assert plan.index(t) == fresh.index(t)
    held, fresh_held = plan.holding(np.array(times)), fresh.holding(np.array(times))
    assert all((a == b).all() for a, b in zip(held, fresh_held))


@pytest.mark.parametrize("dwell,retune", INEXACT)
def test_memoized_plan_is_a_fresh_plan(dwell, retune):
    """Plans that share their clock and dwell but differ in retune or
    budget are told apart, on the first call and on a repeat."""
    rng = random.Random(f"{dwell}/{retune}")
    for clock in (0.0, 0.37, 1023.9):
        for budget in (5000 * (dwell + retune), 999.9, 4 * dwell):
            args = (clock, dwell, retune, clock, budget)
            fresh = _Windows(*args)
            assert_same_plan(_plan(*args), fresh, rng)
            assert _plan(*args) is _plan(*args)
            other = _Windows(clock, dwell, retune + 0.5, clock, budget)
            assert_same_plan(_plan(clock, dwell, retune + 0.5, clock, budget), other, rng)


def test_memoized_plan_with_no_windows():
    """A plan of no windows, by a spent budget, is kept apart from the
    plans around it."""
    assert _plan(0.0, 0.2, 0.0, 0.0, -1.0).count == 0
    assert _plan(0.0, 0.2, 0.0, 0.0, 0.0).count == 1
    assert _plan(0.0, 0.2, 0.0, 0.0, -1.0).count == 0


def test_refused_dwell_raises_on_every_call():
    """A dwell that cannot move a clock of 2^60 s is refused each time it is
    asked for; a refusal is not remembered as a plan."""
    for _ in range(2):
        with pytest.raises(ParameterError, match="cannot advance"):
            _plan(0.0, 1.0, 0.0, 2.0**60, 10.0)
    with pytest.raises(ParameterError, match="positive and finite"):
        _plan(0.0, math.inf, 0.0, 0.0, 10.0)


def test_plans_are_read_only():
    plan = _plan(0.0, 1.0, 0.25, 0.0, 100.0)
    with pytest.raises((AttributeError, TypeError)):
        plan._runs.append((0, 1.0, 1, 1))
    with pytest.raises(AttributeError):
        plan.extra = 1
