"""Every scan plan runs every trial of an experiment in one array pass
(``scanning.rotation_first_seen``). Each trial's first-seen times must be
exactly those of ``Scanner.scan`` on an environment built for that trial
alone, under frame loss, retune latency, budgets that censor rows or end
inside the probes, periodic emitters, groups that hold several of a
device's channels, frames that fail to decode, probe responses that land
after their probe window, trials whose probes are answered on different
channels, sequential phases that a device is audible in twice, that no
device is audible in or that overlap, devices first heard after more
than 1,000 of their events, and crowds larger than one block of pairs
(``scanning._PASS_BLOCK`` set to 128 for them).

``EmissionDraws`` holds seed words, not generators: each stream lives for
one draw, and a row that draws again redraws its earlier events with the
new chunk, so the tests at the end check it draws what ``SimDevice`` does.
"""

from __future__ import annotations

import dataclasses
import gc
import random

import numpy as np
import pytest
from test_testbed import INEXACT, lone_trial

from iotsweep import experiment, frames, scanning, simulation
from iotsweep.address import BleAdvA, ZigbeeShort
from iotsweep.channels import Protocol, ble_advertising_channels, sort_channels, zigbee_channel
from iotsweep.errors import ParameterError
from iotsweep.scanning import SdrConfig, _Windows
from iotsweep.scenario import (
    Algorithm,
    ScenarioConfig,
    bundled_scenario_names,
    load_bundled_scenario,
    resolve_channel_list,
)
from iotsweep.simulation import (
    _EXP_CHUNK,
    _FIRST_CHUNK,
    DeviceSpec,
    EmissionDraws,
    EmitterKind,
    Role,
    SimDevice,
    _stream,
    stream_seeds,
)

MHZ = 1_000_000
BLE = tuple(ble_advertising_channels())
ZIGBEE = tuple(zigbee_channel(k) for k in range(11, 27))


SCENARIOS = bundled_scenario_names()
ACTIVE = [name for name in SCENARIOS if load_bundled_scenario(name).plan().probes]


def assert_each_trial_runs_alone(cfg):
    """Every trial of ``run_experiment`` equals the trial scanned alone."""
    result = experiment.run_experiment(cfg)
    assert len(result.trials) == cfg.trials
    for record in result.trials:
        assert record.first_seen == lone_trial(cfg, record.trial), (cfg.name, record.trial)
    return result


def variants(base, loss, retune, budgets, trials, **fields):
    """``base`` under ``loss`` and ``retune``, with each of ``budgets``, with
    no periodic emitter and with every other device periodic, on seeds 1
    and 2, each running ``trials`` trials with ``fields`` replaced."""
    for budget in budgets:
        for periodic in (False, True):
            devices = tuple(
                dataclasses.replace(d, emitter=EmitterKind.PERIODIC) if periodic and i % 2 else d
                for i, d in enumerate(base.devices)
            )
            for seed in (1, 2):
                yield dataclasses.replace(
                    base,
                    devices=devices,
                    loss_prob=loss,
                    sdr=dataclasses.replace(base.sdr, retune_latency_s=retune),
                    scan_time_s=budget,
                    seed=seed,
                    trials=trials,
                    **fields,
                )


def censored_rows(cfg, result, base):
    """The censored rows of ``result`` when ``cfg`` cuts ``base``'s budget."""
    if cfg.scan_time_s < base.scan_time_s:
        return sum(row.censored_count for row in result.summary.rows)
    return 0


def test_bundled_one_phase_scenarios():
    """Every bundled plan has one phase but the sequential baseline's."""
    assert SCENARIOS == [
        "ble-passive", "zigbee-active", "zigbee-ble-active-multi", "zigbee-ble-sequential",
        "zigbee-dwell", "zigbee-passive", "zwave-lora-multi", "zwave-lora-passive",
    ]
    several = [name for name in SCENARIOS if len(load_bundled_scenario(name).plan().phases) > 1]
    assert several == ["zigbee-ble-sequential"]
    assert ACTIVE == ["zigbee-active", "zigbee-ble-active-multi"]


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("loss", [0.0, 0.25])
@pytest.mark.parametrize("retune", [0.0, 0.3])
def test_one_phase_variants_equal_trials_run_alone(name, loss, retune):
    """Every bundled scenario, the sequential one included, with a budget
    that lets every device be found and one that censors rows, with no
    periodic emitter and with every other device periodic, on two seeds."""
    base = load_bundled_scenario(name)
    censored = 0
    budgets = (base.scan_time_s, max(base.dwell_time_s, base.scan_time_s / 50))
    for cfg in variants(base, loss, retune, budgets, 3):
        censored += censored_rows(cfg, assert_each_trial_runs_alone(cfg), base)
    assert censored > 0  # the short budget does censor rows


@pytest.mark.parametrize("retune", [0.0, 0.3])
def test_group_holding_every_advertising_channel_under_loss(retune):
    """A multiprotocol scan wide enough to hear all three BLE advertising
    channels in one group: an event is heard there if any of its three
    frames survives loss."""
    base = load_bundled_scenario("zigbee-ble-active-multi")
    cfg = dataclasses.replace(
        base,
        name="wide-multiprotocol",
        algorithm=Algorithm.MULTIPROTOCOL,
        channels=tuple(sort_channels(ZIGBEE + BLE)),
        probe_channels=(),
        sdr=SdrConfig(80 * MHZ, retune_latency_s=retune),
        loss_prob=0.25,
        scan_time_s=60.0,
        trials=4,
    )
    groups = cfg.plan().groups(cfg.channels, (), cfg.sdr.instantaneous_bandwidth_hz)
    assert any(set(BLE) <= set(group) for group in groups)
    assert any(d.protocol is Protocol.BLE_ADVERTISING for d in cfg.devices)
    assert_each_trial_runs_alone(cfg)


def test_frame_that_does_not_decode_is_skipped(monkeypatch):
    """When the frame a device is first heard with yields no address, the
    device is found at its next audible frame, as a scan finds it."""
    cfg = dataclasses.replace(load_bundled_scenario("zigbee-passive"), trials=3)
    t0, name = experiment.run_experiment(cfg).trials[0].first_seen[0]
    env = experiment.trial_environment(cfg, 0)
    dev = next(d for d in env.devices if d.name == name)
    entries = dev.generate_until(t0 + 10_000.0)  # one per emission: one channel, no loss
    first = next(i for i, (t, _, _) in enumerate(entries) if t == t0)
    blocked = dev.spec.frame(entries[first][2])
    groups = cfg.plan().groups(cfg.channels, (), cfg.sdr.instantaneous_bandwidth_hz)
    mine = next(g for g, group in enumerate(groups) if dev.spec.channels[0] in group)
    windows = scanning._plan(0.0, cfg.dwell_time_s, 0.0, 0.0, cfg.scan_time_s)

    def audible(t):
        j = windows.index(t)
        c, e = windows.edges(j)
        return j < windows.count and c <= t < e and j % len(groups) == mine

    assert audible(t0)
    later = entries[first + 1 :]
    after = next(t for t, _, idx in later if audible(t) and dev.spec.frame(idx) != blocked)
    real = scanning._frame_address

    def deaf(channel, data):
        return None if data == blocked else real(channel, data)

    monkeypatch.setattr(scanning, "_frame_address", deaf)
    result = assert_each_trial_runs_alone(cfg)
    assert dict((d, t) for t, d in result.trials[0].first_seen)[name] == after > t0


def crowd(n_zigbee, n_ble, seed):
    """Zigbee devices on random channels, every seventh periodic and every
    fifth a router, then BLE advertisers."""
    rng = random.Random(seed)
    devices = []
    for k in range(n_zigbee):
        ch = rng.choice(ZIGBEE)
        emitter = EmitterKind.PERIODIC if k % 7 == 3 else EmitterKind.POISSON
        role = Role.ROUTER if k % 5 == 1 else Role.END_DEVICE
        devices.append(
            DeviceSpec(
                f"z{k}", Protocol.ZIGBEE, role, (ch,), rng.uniform(1.0, 60.0),
                ZigbeeShort(0x1A62, k + 1), emitter=emitter,
            )
        )
    for k in range(n_ble):
        devices.append(
            DeviceSpec(
                f"b{k}", Protocol.BLE_ADVERTISING, Role.PERIPHERAL, BLE, rng.uniform(0.5, 30.0),
                BleAdvA(0xC0FFEE000000 + k),
            )
        )
    return tuple(devices)


def test_crowd_larger_than_a_block(monkeypatch):
    """A crowd of 1,100 Zigbee and BLE devices over two trials spans
    several blocks of 128 pairs, with loss and a budget that censors rows."""
    monkeypatch.setattr(scanning, "_PASS_BLOCK", 128)
    devices = crowd(600, 500, seed=28)
    cfg = ScenarioConfig(
        name="crowd",
        algorithm=Algorithm.MULTIPROTOCOL,
        devices=devices,
        channels=tuple(sort_channels(ZIGBEE + BLE)),
        sdr=SdrConfig(8 * MHZ, retune_latency_s=0.1),
        dwell_time_s=0.5,
        scan_time_s=120.0,
        trials=2,
        seed=3,
        loss_prob=0.1,
    )
    assert 2 * len(devices) > 4 * scanning._PASS_BLOCK
    result = assert_each_trial_runs_alone(cfg)
    heard = [len(record.first_seen) for record in result.trials]
    assert all(0 < n < len(devices) for n in heard)


def test_devices_heard_after_a_thousand_events():
    """Under a loss of 0.998, Poisson and periodic devices that send 20
    times a second are first heard after more than 1,000 of their events,
    so their rows draw several growing chunks, each redrawing the last."""
    z11 = zigbee_channel(11)
    devices = (
        DeviceSpec("poisson", Protocol.ZIGBEE, Role.ROUTER, (z11,), 0.05, ZigbeeShort(0x1A62, 1)),
        DeviceSpec(
            "periodic", Protocol.ZIGBEE, Role.ROUTER, (z11,), 0.05, ZigbeeShort(0x1A62, 2),
            emitter=EmitterKind.PERIODIC,
        ),
        DeviceSpec("ble", Protocol.BLE_ADVERTISING, Role.PERIPHERAL, BLE, 0.05, BleAdvA(0xC0FFEE)),
    )
    cfg = ScenarioConfig(
        name="late",
        algorithm=Algorithm.MULTIPROTOCOL,
        devices=devices,
        channels=tuple(sort_channels((z11,) + BLE)),
        sdr=SdrConfig(8 * MHZ),
        dwell_time_s=1.0,
        scan_time_s=600.0,
        trials=4,
        seed=1,
        loss_prob=0.998,
    )
    result = assert_each_trial_runs_alone(cfg)
    late = set()
    for record in result.trials:
        env = experiment.trial_environment(cfg, record.trial)
        for t, name in record.first_seen:
            dev = next(d for d in env.devices if d.name == name)
            idx = next(i for when, _, i in dev.generate_until(np.nextafter(t, np.inf)) if when == t)
            if idx > 1000:
                late.add(name)
    assert late == {"poisson", "periodic"}


# -- plans of several phases -----------------------------------------------------

#: Sequential layouts no bundled scenario has: (devices from, phases).
LAYOUTS = {
    "audible-twice": ("zigbee-ble-sequential", "ble-adv:37..38 | zigbee:11..26 | ble-adv:39"),
    "first-phase-deaf": ("zigbee-ble-sequential", "zigbee:21..26 | zigbee:11..20 | ble-adv:37..39"),
    "overlapping": ("zigbee-ble-sequential", "zigbee:11..15 | zigbee:15..26 | ble-adv:37..39"),
    "zwave-then-lora": ("zwave-lora-multi", "zwave:R2, zwave:R3 | yolink:up"),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("loss", [0.0, 0.3])
@pytest.mark.parametrize("retune", [0.0, 0.3])
def test_phase_layouts_equal_trials_run_alone(monkeypatch, layout, loss, retune):
    """A device audible in two phases, a first phase that hears no device,
    phases that overlap, and a Z-Wave phase then a LoRa one, each over
    more trials than one block of 128 pairs holds, with a budget that lets
    the later phases run and one that censors rows, with no periodic
    emitter and with every other device periodic, on two seeds."""
    monkeypatch.setattr(scanning, "_PASS_BLOCK", 128)
    name, text = LAYOUTS[layout]
    base = load_bundled_scenario(name)
    phases = tuple(tuple(resolve_channel_list(part)) for part in text.split("|"))
    if layout == "first-phase-deaf":
        assert not any(set(d.channels) & set(phases[0]) for d in base.devices)
    trials = scanning._PASS_BLOCK // len(base.devices) + 2  # two blocks
    first = {d.name for d in base.devices if set(d.channels) & set(phases[0])}
    later = censored = 0
    budgets = (base.scan_time_s, base.scan_time_s / 50)
    fields = dict(algorithm=Algorithm.SEQUENTIAL_PASSIVE, phases=phases)
    for cfg in variants(base, loss, retune, budgets, trials, **fields):
        result = assert_each_trial_runs_alone(cfg)
        later += sum(d not in first for r in result.trials for _, d in r.first_seen)
        censored += censored_rows(cfg, result, base)
    assert later > 0  # some device is found in a later phase
    assert censored > 0


# -- plans that probe ------------------------------------------------------------


def start_of_rotation(cfg):
    """c_n: where the probes leave the clock and the rotation starts."""
    retune = cfg.sdr.retune_latency_s
    probes = scanning._plan(0.0, cfg.probe_dwell_time_s, retune, 0.0, cfg.scan_time_s)
    n = min(len(cfg.plan().probes), probes.count)
    return probes.edges(n)[0], n


@pytest.mark.parametrize("name", ACTIVE)
@pytest.mark.parametrize("loss", [0.0, 0.25])
@pytest.mark.parametrize("retune", [0.0, 0.3])
def test_probing_variants_equal_trials_run_alone(name, loss, retune):
    """Probe responses that land within their probe window, after it, and
    mostly after every probe (delay max 0.1, 0.5 and 40 s against a probe
    dwell of 0.2 s); a budget that lets every device be found, one that
    censors rows and one that ends inside the probes; no periodic emitter
    and every other device periodic; two seeds."""
    base = load_bundled_scenario(name)
    inside_the_probes = 2.0
    censored = 0
    budgets = (base.scan_time_s, base.scan_time_s / 50, inside_the_probes)
    for delay in (0.1, 0.5, 40.0):
        for cfg in variants(base, loss, retune, budgets, 2, probe_response_delay_max_s=delay):
            censored += censored_rows(cfg, assert_each_trial_runs_alone(cfg), base)
    assert censored > 0
    short = dataclasses.replace(
        base, scan_time_s=inside_the_probes, sdr=SdrConfig(retune_latency_s=retune)
    )
    assert start_of_rotation(short)[1] < len(base.plan().probes)  # it ends inside the probes


def answered(cfg):
    """Per trial, the channels that answer the probes, from a scanner on the
    trial's own environment."""
    out = []
    for trial in range(cfg.trials):
        scanner = scanning.Scanner(experiment.trial_environment(cfg, trial), cfg.sdr)
        out.append(tuple(scanner.probe_channels(cfg.plan().probes, cfg.probe_dwell_time_s)))
    return out


@pytest.mark.parametrize("name", ACTIVE)
def test_trials_answered_on_different_channels(name):
    """Under loss the trials of one run rotate over different groups."""
    cfg = dataclasses.replace(load_bundled_scenario(name), loss_prob=0.4, trials=6)
    assert len(set(answered(cfg))) >= 2
    assert_each_trial_runs_alone(cfg)


def test_late_response_first_heard_in_a_rotation_window(monkeypatch):
    """A response that lands after every probe is heard in the rotation, and
    is some device's first frame heard."""
    base = load_bundled_scenario("zigbee-active")
    cfg = dataclasses.replace(base, probe_response_delay_max_s=40.0)
    result = assert_each_trial_runs_alone(cfg)
    responses = {}
    inject = simulation.Environment.inject_probe

    def spy(env, channel):
        scheduled = inject(env, channel)
        responses.update((em.device, em.time_s) for em in scheduled)
        return scheduled

    monkeypatch.setattr(simulation.Environment, "inject_probe", spy)
    start, _ = start_of_rotation(cfg)
    late = 0
    for record in result.trials:
        responses.clear()
        assert record.first_seen == lone_trial(cfg, record.trial)
        late += sum(responses.get(name) == t and t >= start for t, name in record.first_seen)
    assert late > 0


@pytest.mark.parametrize("name", ACTIVE)
def test_channel_answers_through_its_traffic(monkeypatch, name):
    """With beacons that yield no address, a channel answers only when
    traffic lands in its probe window: the devices send 20 times as often,
    so it sometimes does, also after a device's own beacon."""
    base = load_bundled_scenario(name)
    devices = tuple(
        dataclasses.replace(d, mean_interarrival_s=d.mean_interarrival_s / 20) for d in base.devices
    )
    cfg = dataclasses.replace(base, devices=devices, loss_prob=0.25, trials=6)
    with_beacons = answered(cfg)
    real = scanning._frame_address

    def no_beacon(channel, data):
        if channel.protocol is Protocol.ZIGBEE:
            if frames.decode(Protocol.ZIGBEE, data).frame_type is frames.ZigbeeFrameType.BEACON:
                return None
        return real(channel, data)

    monkeypatch.setattr(scanning, "_frame_address", no_beacon)
    by_traffic = answered(cfg)
    assert any(by_traffic) and by_traffic != with_beacons
    assert_each_trial_runs_alone(cfg)


def test_active_scan_with_no_answer_opens_no_rotation():
    """No device answers a probe and none sends in a probe window, so an
    active scan, whose one phase is empty, hears nothing after the probes,
    though the devices send within the budget."""
    base = load_bundled_scenario("zigbee-active")
    devices = tuple(
        dataclasses.replace(d, responds_to_probe=False, mean_interarrival_s=1000.0)
        for d in base.devices
    )
    cfg = dataclasses.replace(base, devices=devices, trials=4)
    assert answered(cfg) == [()] * cfg.trials
    result = assert_each_trial_runs_alone(cfg)
    assert all(record.first_seen == () for record in result.trials)
    passive = dataclasses.replace(cfg, algorithm=Algorithm.PASSIVE)
    assert any(record.first_seen for record in experiment.run_experiment(passive).trials)


def test_probing_crowd_larger_than_a_block(monkeypatch):
    """An active multiprotocol scan of 1,100 devices, one trial of which is
    more than a block of 128 pairs: it probes every Zigbee channel and
    always listens on the BLE advertising channels."""
    monkeypatch.setattr(scanning, "_PASS_BLOCK", 128)
    devices = crowd(600, 500, seed=29)
    cfg = ScenarioConfig(
        name="probing-crowd",
        algorithm=Algorithm.ACTIVE_MULTIPROTOCOL,
        devices=devices,
        channels=BLE,
        probe_channels=ZIGBEE,
        sdr=SdrConfig(8 * MHZ, retune_latency_s=0.1),
        dwell_time_s=0.5,
        scan_time_s=120.0,
        trials=2,
        seed=5,
        loss_prob=0.1,
        probe_response_delay_max_s=0.5,
    )
    assert len(devices) > scanning._PASS_BLOCK
    result = assert_each_trial_runs_alone(cfg)
    heard = [len(record.first_seen) for record in result.trials]
    assert all(0 < n < len(devices) for n in heard)


def one_pass(cfg, plan=None, budget=None):
    """``rotation_first_seen`` of every trial of ``cfg``, or of ``plan`` on
    its devices, with its budget or ``budget``."""
    streams = stream_seeds(cfg.seed, range(cfg.trials), len(cfg.devices))
    return scanning.rotation_first_seen(
        simulation.Testbed(cfg.devices), streams, cfg.loss_prob, cfg.sdr, plan or cfg.plan(),
        cfg.dwell_time_s, cfg.scan_time_s if budget is None else budget, cfg.probe_dwell_time_s,
        cfg.probe_response_delay_max_s,
    )


def test_a_plan_that_probes_in_several_phases_is_refused():
    cfg = load_bundled_scenario("zigbee-ble-sequential")
    with pytest.raises(ParameterError, match="probes in one phase"):
        one_pass(cfg, scanning.ScanPlan(cfg.phases, probes=ZIGBEE[:2]))


def test_a_plan_that_probes_is_accepted_unless_it_repeats_or_cannot_probe_a_channel():
    cfg = dataclasses.replace(load_bundled_scenario("zigbee-active"), trials=2)
    assert [tuple(sorted((t, d) for d, t in log.items())) for log in one_pass(cfg)] == [
        lone_trial(cfg, trial) for trial in range(cfg.trials)
    ]
    for probes in (cfg.channels + cfg.channels[:1], cfg.channels[:1] + BLE[:1]):
        with pytest.raises(ParameterError, match="distinct channels"):
            one_pass(cfg, scanning.ScanPlan(((),), probes=probes))


def test_no_window_within_the_budget_hears_nobody():
    cfg = dataclasses.replace(load_bundled_scenario("zigbee-passive"), trials=2)
    assert one_pass(cfg, budget=-1.0) == [{}, {}]


# -- the parts of the pass ------------------------------------------------------


def test_draws_do_not_depend_on_chunking():
    """A generator's draws do not depend on how they are chunked: gaps
    drawn 8 then 64 at a time equal 72 drawn at once, loss coins drawn one
    at a time equal an array of them, and a scalar uniform is the first of
    an array. ``SimDevice`` draws scalars and small chunks, and
    ``EmissionDraws`` arrays, so both see the same numbers. It draws
    standard exponentials and uniforms and scales them by the mean, which
    gives ``exponential`` and ``uniform`` bit for bit."""
    words = stream_seeds(7, range(1), 1)[0, 0]["times"]
    whole = _stream(words).exponential(3.5, _FIRST_CHUNK + _EXP_CHUNK)
    rng = _stream(words)
    pieces = np.concatenate([rng.exponential(3.5, _FIRST_CHUNK), rng.exponential(3.5, _EXP_CHUNK)])
    assert pieces.tobytes() == whole.tobytes()
    scaled = 3.5 * _stream(words).standard_exponential(_FIRST_CHUNK + _EXP_CHUNK)
    assert scaled.tobytes() == whole.tobytes()
    rng = _stream(words)
    one_by_one = [rng.random() for _ in range(3 * 20)]
    assert _stream(words).random((20, 3)).ravel().tolist() == one_by_one
    assert _stream(words).uniform(0.0, 9.0) == _stream(words).uniform(0.0, 9.0, 4)[0]
    assert _stream(words).uniform(0.0, 9.0) == 9.0 * _stream(words).random()


def emitted(spec, streams, loss, horizon, n):
    """(time, surviving channels) of each of the first ``n`` emissions,
    all before ``horizon``, that survives on some channel, from
    ``SimDevice.generate_until``."""
    by_index = {}
    for t, ch, idx in SimDevice(spec, streams, loss).generate_until(horizon):
        if idx < n:
            by_index.setdefault(idx, (t, set()))[1].add(ch)
    return [by_index[idx] for idx in sorted(by_index)]


@pytest.mark.parametrize("loss", [0.0, 0.4])
def test_emission_draws_equal_generate_until(loss):
    """Over four chunks, every row draws the times and loss coins its
    SimDevice generates, for Poisson and periodic Zigbee and BLE devices;
    the smallest double as a mean makes many gaps 0, which the clamp lifts.
    After the first, each chunk is as long as what the rows drew before
    it, and at least ``_EXP_CHUNK``."""
    specs = [
        DeviceSpec("z", Protocol.ZIGBEE, Role.ROUTER, (ZIGBEE[0],), 0.7, ZigbeeShort(0x1A62, 1)),
        DeviceSpec("b", Protocol.BLE_ADVERTISING, Role.PERIPHERAL, BLE, 1.3, BleAdvA(0xC0FFEE)),
        DeviceSpec(
            "p", Protocol.ZIGBEE, Role.ROUTER, (ZIGBEE[1],), 0.9, ZigbeeShort(0x1A62, 2),
            emitter=EmitterKind.PERIODIC,
        ),
        DeviceSpec("t", Protocol.ZIGBEE, Role.ROUTER, (ZIGBEE[2],), 5e-324, ZigbeeShort(0x1A62, 3)),
    ]
    streams = stream_seeds(11, range(1), len(specs))[0]
    draws = EmissionDraws(specs, streams, loss)
    rows = np.arange(len(specs))
    times, kept = zip(*(draws.draw(rows) for _ in range(4)))
    sizes = [_FIRST_CHUNK, _EXP_CHUNK, _FIRST_CHUNK + _EXP_CHUNK, 2 * (_FIRST_CHUNK + _EXP_CHUNK)]
    assert [chunk.shape for chunk in times] == [(len(specs), n) for n in sizes]
    times, kept = np.concatenate(times, axis=1), np.concatenate(kept, axis=1)
    assert draws.drawn.tolist() == [times.shape[1]] * len(specs)
    for i, spec in enumerate(specs):
        horizon = np.nextafter(times[i, -1], np.inf)
        want = emitted(spec, streams[i], loss, horizon, times.shape[1])
        got = [
            (t, {ch for n, ch in enumerate(spec.channels) if mask >> n & 1})
            for t, mask in zip(times[i].tolist(), kept[i].tolist())
            if mask & (1 << len(spec.channels)) - 1
        ]
        assert got == want, spec.name


def live_streams():
    return sum(isinstance(obj, np.random.PCG64) for obj in gc.get_objects())


def test_no_stream_outlives_a_draw():
    """``EmissionDraws`` holds no generator, and its draws, first and later,
    with and without loss coins, leave no stream behind."""
    devices = crowd(12, 4, seed=31)
    streams = stream_seeds(3, range(1), len(devices))[0]
    before = live_streams()
    for loss in (0.0, 0.3):
        draws = EmissionDraws(devices, streams, loss)
        assert live_streams() == before
        for _ in range(3):
            draws.draw(np.arange(len(devices)))
            assert live_streams() == before


@pytest.mark.parametrize("dwell,retune", INEXACT + [(1.0, 0.0)])
def test_holding_is_index(dwell, retune):
    """``_Windows.holding`` places every time where ``index`` does, at and
    around each window edge and at random times, past the last window too,
    also from clocks so small that the first window's period is more than
    2^63 of their ulps. From some of those (3 * 2^-55 for a 0.3 s dwell and
    0.1 s retune, 3 * 2^-54 and 3 * 2^-53 for the next two pairs), the time
    just before the second window's start, less the clock, rounds up to the
    first window's period."""
    rng = random.Random(f"{dwell}/{retune}")
    tiny = [(clock, 900.0) for clock in (1e-9, 1.6e-5, 3 * 2.0**-55, 3 * 2.0**-54, 3 * 2.0**-53)]
    for clock, budget in [(0.0, 500.0), (0.0, 70_000.0), (1023.9, 900.0)] + tiny:
        windows = _Windows(clock, dwell, retune, clock, budget)
        end = windows.edges(windows.count)[0]
        times = [rng.uniform(clock, end + 5.0) for _ in range(400)] + [end, 2 * end + 1.0]
        for j in rng.sample(range(windows.count), 50) + [0, 1, windows.count - 1]:
            for edge in windows.edges(j):
                times += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
        times = [t for t in times if t >= clock]
        j, inside = windows.holding(np.array(times).reshape(1, -1))
        for t, got_j, got_inside in zip(times, j[0].tolist(), inside[0].tolist()):
            want_j = windows.index(t)
            c, e = windows.edges(want_j)
            want_inside = want_j < windows.count and c <= t < e
            assert (got_j, got_inside) == (want_j, want_inside), (t, clock, budget)
