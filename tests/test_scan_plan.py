"""Every scan algorithm is one ``ScanPlan``: ``ScenarioConfig.plan`` builds
it, ``Scanner.scan`` runs it, and the model and scenario validation read
it.

The dispatch the plan replaced, one named scan method per algorithm and
the channel rules validation used, is kept here as the reference. Each
scenario's plan must scan as its named method did, and must probe and
listen on the channels those rules named.

Two corners are merged by the plan and pinned here. A plan that probes
listens on its responders in ascending order, where the active scan used
the order it probed in; every parsed scenario probes in ascending order.
And a sequential scan of one phase is a passive scan, including for the
model and for a direct call without ``until_complete``.
"""

from __future__ import annotations

import dataclasses

import pytest

from iotsweep import experiment
from iotsweep.address import ZigbeeShort
from iotsweep.channels import Protocol, sort_channels, zigbee_channel
from iotsweep.cli import main
from iotsweep.errors import ParameterError
from iotsweep.scanning import Scanner, ScanPlan, SdrConfig
from iotsweep.scenario import Algorithm, bundled_scenario_names, load_bundled_scenario
from iotsweep.simulation import DeviceSpec, Role, build_environment

SDR8 = SdrConfig(8_000_000)
CH11, CH15, CH20 = zigbee_channel(11), zigbee_channel(15), zigbee_channel(20)

# The named scan each algorithm ran, with the scenario's fields.
NAMED_SCANS = {
    Algorithm.PASSIVE: lambda s, cfg, stop: s.passive_scan(
        cfg.channels, cfg.dwell_time_s, cfg.scan_time_s, until_complete=stop),
    Algorithm.ACTIVE: lambda s, cfg, stop: s.active_scan(
        cfg.channels, cfg.dwell_time_s, cfg.scan_time_s, until_complete=stop),
    Algorithm.MULTIPROTOCOL: lambda s, cfg, stop: s.multiprotocol_scan(
        cfg.channels, cfg.dwell_time_s, cfg.scan_time_s, until_complete=stop),
    Algorithm.ACTIVE_MULTIPROTOCOL: lambda s, cfg, stop: s.active_multiprotocol_scan(
        cfg.channels, cfg.probe_channels, cfg.dwell_time_s, cfg.scan_time_s,
        until_complete=stop),
    Algorithm.SEQUENTIAL_PASSIVE: lambda s, cfg, stop: s.sequential_passive_scan(
        cfg.phases, cfg.dwell_time_s, cfg.scan_time_s, until_complete=stop),
}


def listened_channels(cfg):
    """The channels each algorithm was validated to listen on."""
    if cfg.algorithm is Algorithm.SEQUENTIAL_PASSIVE:
        return frozenset(ch for phase in cfg.phases for ch in phase)
    if cfg.algorithm is Algorithm.ACTIVE_MULTIPROTOCOL:
        return frozenset(cfg.channels + cfg.probe_channels)
    return frozenset(cfg.channels)


def probed_channels(cfg):
    """The channels each algorithm was validated to probe."""
    if cfg.algorithm is Algorithm.ACTIVE:
        return cfg.channels
    if cfg.algorithm is Algorithm.ACTIVE_MULTIPROTOCOL:
        return cfg.probe_channels
    return ()


LOSSY_ACTIVE = {
    f"{name}+loss": (name, 0.3) for name in ("zigbee-active", "zigbee-ble-active-multi")
}
CASES = {name: (name, None) for name in bundled_scenario_names()} | LOSSY_ACTIVE


def load_case(case):
    name, loss = CASES[case]
    cfg = load_bundled_scenario(name)
    return cfg if loss is None else dataclasses.replace(cfg, loss_prob=loss)


def trial_outcome(cfg, trial, run):
    env = experiment.trial_environment(cfg, trial)
    scanner = Scanner(env, cfg.sdr, probe_dwell_time_s=cfg.probe_dwell_time_s)
    run(scanner)
    return scanner.log.first_seen, scanner.log.addresses, env.clock


@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_scans_as_the_named_method(case):
    """On every trial, the plan leaves the log and clock its algorithm's
    named scan method leaves."""
    cfg = load_case(case)
    plan = cfg.plan()
    targets = frozenset(d.name for d in cfg.devices)
    named = NAMED_SCANS[cfg.algorithm]
    for trial in range(cfg.trials):
        by_plan = trial_outcome(
            cfg, trial,
            lambda s: s.scan(plan, cfg.dwell_time_s, cfg.scan_time_s, until_complete=targets),
        )
        by_name = trial_outcome(cfg, trial, lambda s: named(s, cfg, targets))
        assert by_plan == by_name, (case, trial)


def test_bundled_scenarios_cover_every_algorithm():
    names = bundled_scenario_names()
    assert {load_bundled_scenario(name).algorithm for name in names} == set(Algorithm)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_plan_channels_and_probes_are_the_validated_ones(name):
    cfg = load_bundled_scenario(name)
    plan = cfg.plan()
    assert plan.channels() == listened_channels(cfg)
    assert plan.probes == probed_channels(cfg)


# -- responders in ascending order ---------------------------------------------

def coordinator(name, addr, channel):
    return DeviceSpec(
        name, Protocol.ZIGBEE, Role.COORDINATOR, (channel,), 1000.0, ZigbeeShort(0x1A62, addr)
    )


class RecordingScanner(Scanner):
    """Records what each scan probed, in order, and each rotation's groups."""

    def probe_channels(self, ch_list, dwell_time_s):
        self.probed = list(ch_list)
        return super().probe_channels(ch_list, dwell_time_s)

    def _rotate(self, groups, *args, **kwargs):
        self.rotated = [tuple(group) for group in groups]
        super()._rotate(groups, *args, **kwargs)


def test_active_scan_listens_on_responders_in_ascending_order():
    """Probed in the order given, the answering channels are listened on in
    ascending order."""
    devices = [coordinator("c20", 1, CH20), coordinator("c11", 2, CH11)]
    scanner = RecordingScanner(build_environment(devices, seed=50), SDR8)
    scanner.active_scan([CH20, CH15, CH11], 1.0, 60.0)
    assert scanner.probed == [CH20, CH15, CH11]
    assert scanner.rotated == [(CH11,), (CH20,)]


@pytest.mark.parametrize("name", ["zigbee-active", "zigbee-ble-active-multi"])
def test_parsed_scenarios_probe_in_ascending_order(name):
    """So for every parsed scenario the responders keep their probe order."""
    probes = list(load_bundled_scenario(name).plan().probes)
    assert probes == sort_channels(probes)


# -- a sequential scan of one phase is a passive scan ---------------------------

def one_phase(cfg):
    return dataclasses.replace(
        cfg, algorithm=Algorithm.SEQUENTIAL_PASSIVE, phases=(cfg.channels,), channels=()
    )


@pytest.mark.parametrize("name", ["zigbee-passive", "zwave-lora-passive"])
def test_one_phase_sequential_scenario_is_its_passive_scenario(name):
    """Same plan, byte-identical CSVs and the same model."""
    passive = load_bundled_scenario(name)
    sequential = one_phase(passive)
    assert sequential.plan() == passive.plan()
    ran = experiment.run_experiment(sequential)
    ref = experiment.run_experiment(passive)
    assert experiment.trials_csv(ran) == experiment.trials_csv(ref)
    assert experiment.summary_csv(ran.summary) == experiment.summary_csv(ref.summary)
    assert experiment.run_model(sequential) == experiment.run_model(passive)


def test_model_command_accepts_one_phase_and_refuses_two(tmp_path, capsys):
    text = load_bundled_scenario("zigbee-passive").source_text
    scn = tmp_path / "one-phase.scn"
    scn.write_text(
        text.replace("algorithm passive", "algorithm sequential-passive")
        .replace("channels zigbee:11..26", "phases zigbee:11..26", 1)
    )
    assert main(["model", str(scn)]) == 0
    assert "n=12" in capsys.readouterr().out
    assert main(["model", "zigbee-ble-sequential"]) == 1
    assert "this sequential-passive scan runs 2 phases" in capsys.readouterr().err
    assert main(["model", "zigbee-active"]) == 1
    assert "this active scan probes first" in capsys.readouterr().err


LAMPS = [
    DeviceSpec("a", Protocol.ZIGBEE, Role.END_DEVICE, (CH11,), 2.0, ZigbeeShort(0x1A62, 1)),
    DeviceSpec("b", Protocol.ZIGBEE, Role.END_DEVICE, (CH15,), 2.0, ZigbeeShort(0x1A62, 2)),
]


def lamp_scan(scan):
    env = build_environment(LAMPS, seed=3)
    scanner = Scanner(env, SDR8)
    scan(scanner)
    return scanner.log, env.clock


def test_direct_one_phase_sequential_scan_runs_its_budget_like_passive():
    """Without ``until_complete`` the one phase is also the last, so it
    runs its budget out as a passive scan does, long after both lamps are
    found; with it, it stops once they are."""
    log, clock = lamp_scan(lambda s: s.sequential_passive_scan([[CH11, CH15]], 1.0, 200.0))
    assert (log, clock) == lamp_scan(lambda s: s.passive_scan([CH11, CH15], 1.0, 200.0))
    assert max(log.first_seen.values()) < 20.0 < 200.0 < clock
    names = frozenset({"a", "b"})
    _, stopped = lamp_scan(
        lambda s: s.sequential_passive_scan([[CH11, CH15]], 1.0, 200.0, until_complete=names))
    assert stopped < 20.0


def test_only_the_last_phase_runs_its_budget_out():
    """The first phase moves on once its lamp is found; the last, with no
    ``until_complete``, listens until the budget is spent."""
    log, clock = lamp_scan(lambda s: s.sequential_passive_scan([[CH11], [CH15]], 1.0, 200.0))
    assert log.first_seen["a"] < log.first_seen["b"] < 20.0 < 200.0 < clock


# -- plans with nothing to listen on ---------------------------------------------

@pytest.mark.parametrize(
    "scan",
    [
        lambda s: s.passive_scan([], 1.0, 10.0),
        lambda s: s.active_scan([], 1.0, 10.0),
        lambda s: s.multiprotocol_scan([], 1.0, 10.0),
        lambda s: s.active_multiprotocol_scan([], [], 1.0, 10.0),
        lambda s: s.sequential_passive_scan([], 1.0, 10.0),
        lambda s: s.sequential_passive_scan([[CH11], []], 1.0, 10.0),
    ],
    ids=["passive", "active", "multiprotocol", "active-multiprotocol", "no-phase", "empty-phase"],
)
def test_scan_with_no_channel_is_refused(scan):
    env = build_environment(LAMPS, seed=3)
    with pytest.raises(ParameterError, match="a scan needs phases"):
        scan(Scanner(env, SDR8))
    assert env.clock == 0.0


def test_probing_plan_may_have_an_empty_phase():
    plan = ScanPlan(((),), probes=[CH11])
    assert plan.phases == ((),) and plan.probes == (CH11,)
    assert plan.groups((), [], 8_000_000) == ()
    assert plan.channels() == {CH11}


def test_groups_partition_the_phase_channels():
    """A channel a phase lists twice is in one group, so a rotation listens
    to it once per round (as a grouped or probing plan already did) and the
    model counts its group once."""
    phase = (CH15, CH11, CH15)
    assert ScanPlan((phase,)).groups(phase, (), 8_000_000) == ((CH15,), (CH11,))
    phase = (CH11, CH11, CH15)
    assert ScanPlan((phase,), grouped=True).groups(phase, (), 30_000_000) == ((CH11, CH15),)
