"""The shared rotation loop queries only the windows that can add to the
log: the next is the earliest whose group hears the next event of a device
some address of which the log lacks. A fully logged device drives no query.

A naive reference loop queries the environment for every window, with every
device. Each scan must leave the same discovery log (first-seen times and
addresses) and clock with either loop, under retune latency, frame loss,
probe responses that land windows after the probe, window periods that are
not exact in binary, budgets that end after the last frame a rotation can
hear, gaps of many thousand windows, early stops followed by more
listening, scans that start with their targets logged, devices seen under
two addresses, and every bundled scenario.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from bisect import bisect_right

import numpy as np
import pytest

from iotsweep import experiment
from iotsweep.address import BleAdvA, LoRaId, ZigbeeExtended, ZigbeeShort, ZWaveId
from iotsweep.channels import (
    Protocol,
    ble_advertising_channels,
    sort_channels,
    yolink_channel,
    zigbee_channel,
    zwave_channel,
)
from iotsweep.errors import ParameterError
from iotsweep.scanning import DiscoveryLog, Scanner, SdrConfig, _Windows
from iotsweep.scenario import bundled_scenario_names, load_bundled_scenario
from iotsweep.simulation import (
    DeviceSpec,
    EmitterKind,
    Environment,
    Role,
    SimDevice,
    build_environment,
)

MHZ = 1_000_000
SDR = SdrConfig(8 * MHZ, retune_latency_s=0.3)
LOSS = 0.2
CH11, CH12, CH15 = zigbee_channel(11), zigbee_channel(12), zigbee_channel(15)
R2, R3, UP = zwave_channel("R2"), zwave_channel("R3"), yolink_channel("up")
BLE = tuple(ble_advertising_channels())
SUB_GHZ = sort_channels([R2, R3, UP])
ZIGBEE = [CH11, CH12, CH15]


def zigbee(name, addr, channel, mu, role=Role.END_DEVICE):
    return DeviceSpec(name, Protocol.ZIGBEE, role, (channel,), mu, ZigbeeShort(0x1A62, addr))


DEVICES = (
    zigbee("hub", 0x0000, CH11, 900.0, Role.COORDINATOR),
    zigbee("router", 0x0001, CH15, 700.0, Role.ROUTER),
    zigbee("bulb", 0x1101, CH12, 400.0),
    DeviceSpec("tag", Protocol.BLE_ADVERTISING, Role.PERIPHERAL, BLE, 300.0, BleAdvA(0xC0112200)),
    DeviceSpec("keypad", Protocol.ZWAVE, Role.END_DEVICE, (R2,), 500.0, ZWaveId(0x9E0B1D42, 2)),
    DeviceSpec("motion", Protocol.ZWAVE, Role.END_DEVICE, (R3,), 650.0, ZWaveId(0x9E0B1D42, 3)),
    DeviceSpec("plug", Protocol.LORA, Role.END_DEVICE, (UP,), 450.0, LoRaId(0x1324, 0x68)),
)
NAMES = frozenset(d.name for d in DEVICES)


class NaiveScanner(Scanner):
    """Reference rotation and probes: one environment query per window,
    with every device, and one stop check before every window."""

    def probe_channels(self, ch_list, dwell_time_s):
        active = []
        for ch in ch_list:
            self.env.inject_probe(ch)
            heard = self.listen(ch, dwell_time_s)
            if self.sdr.retune_latency_s:
                self.env.advance(self.sdr.retune_latency_s)
            if heard:
                active.append(ch)
        return active

    def _rotate(self, groups, dwell_time_s, scan_time_s, t_start, *, stop=None):
        env = self.env
        i = 0
        while env.clock - t_start <= scan_time_s:
            if stop is not None and self.log.covers(stop):
                break
            t0 = env.clock
            self._ingest(env.emissions_in_parallel(groups[i], t0, t0 + dwell_time_s))
            if self.sdr.retune_latency_s:
                env.advance(self.sdr.retune_latency_s)
            i = (i + 1) % len(groups)


ALL = sort_channels(ZIGBEE + list(BLE) + list(SUB_GHZ))

# (scan, whether it skips most windows). With the default 40 s response
# delay the active scan's probe answers land after its probe windows, so it
# has no passive phase to skip in; "active-answered" runs it with answers
# inside the 0.2 s windows, so the hub's (and mostly the router's) channel
# turns active and its passive phase runs on the rotation.
SCANS = {
    "passive": (lambda s, stop: s.passive_scan(ALL, 1.0, 3000.0, until_complete=stop), True),
    "multiprotocol": (
        lambda s, stop: s.multiprotocol_scan(ALL, 1.0, 3000.0, until_complete=stop), True),
    "sequential": (
        lambda s, stop: s.sequential_passive_scan(
            [ALL[:4], ALL[4:]], 1.0, 6000.0, until_complete=stop),
        True,
    ),
    "active": (lambda s, stop: s.active_scan(ZIGBEE, 1.0, 3000.0, until_complete=stop), False),
    "active-answered": (
        lambda s, stop: s.active_scan(ZIGBEE, 1.0, 3000.0, until_complete=stop), True),
    "active-multiprotocol": (
        lambda s, stop: s.active_multiprotocol_scan(
            list(SUB_GHZ), ZIGBEE, 1.0, 3000.0, until_complete=stop),
        True,
    ),
}
RESPONSE_DELAY_S = {"active-answered": 0.1}


def record_queries(env):
    """The number of emissions each window query of ``env`` returns, as a
    list that grows with every query."""
    sizes = []
    query = env.emissions_in_parallel

    def recorded(*args, **kwargs):
        out = query(*args, **kwargs)
        sizes.append(len(out))
        return out

    env.emissions_in_parallel = recorded
    return sizes


def run(scanner_cls, scan, seed, stop, sdr=SDR, delay=40.0, start=0.0, loss=LOSS, devices=DEVICES):
    env = build_environment(devices, seed, loss_prob=loss, probe_response_delay_max_s=delay)
    env.advance(start)
    sizes = record_queries(env)
    # the hub answers a probe sent before the scan, many windows later
    response = env.inject_probe(CH11)
    scanner = scanner_cls(env, sdr)
    scan(scanner, stop)
    return scanner, env.clock, len(sizes), response


@pytest.mark.parametrize("stop", [None, NAMES], ids=["full-budget", "until-complete"])
@pytest.mark.parametrize("scan", sorted(SCANS))
# the response to the pre-scan probe is heard by the passive scan at seed 12
# and by the multiprotocol scan at seed 22
@pytest.mark.parametrize("seed", [12, 22])
def test_scan_matches_naive_loop_with_fewer_queries(scan, seed, stop):
    """Each scan leaves the naive loop's log and clock with no more window
    queries, and under a third as many for the scans that skip most."""
    do_scan, hears_all = SCANS[scan]
    delay = RESPONSE_DELAY_S.get(scan, 40.0)
    fast, fast_clock, fast_queries, _ = run(Scanner, do_scan, seed, stop, delay=delay)
    naive, naive_clock, naive_queries, _ = run(NaiveScanner, do_scan, seed, stop, delay=delay)
    assert fast.log.first_seen == naive.log.first_seen
    assert fast.log.addresses == naive.log.addresses
    assert fast_clock == naive_clock
    assert fast_queries <= naive_queries
    if hears_all:
        assert fast_queries < naive_queries / 3  # most windows were only stepped


@pytest.mark.parametrize("scan", ["sequential", "active-multiprotocol"])
def test_device_off_the_rotation_queries_no_window(scan):
    """A device on none of a rotation's channels makes it query no window:
    at seed 3 the sequential and active-multiprotocol scans query under a
    tenth of the naive loop's 4,616 and 2,310 windows."""
    do_scan, _ = SCANS[scan]
    *_, queries, _ = run(Scanner, do_scan, 3, None)
    *_, naive_queries, _ = run(NaiveScanner, do_scan, 3, None)
    assert naive_queries == {"sequential": 4616, "active-multiprotocol": 2310}[scan]
    assert queries < naive_queries / 10


def test_late_probe_response_is_heard():
    """The response is an event of the hub's own stream, so the window it
    lands in is queried although the hub emits nowhere near it."""
    listen_only = lambda s, stop: s.passive_scan([CH11], 1.0, 100.0)
    scanner, *_, response = run(Scanner, listen_only, 17, None, SdrConfig(8 * MHZ))
    assert len(response) == 1 and response[0].time_s > 10.0
    assert scanner.log.first_seen == {"hub": response[0].time_s}


def generated_to(monkeypatch, names=None):
    """Name -> the latest end any ``generate_until`` of that device (of
    ``names``, if given) asked for, as a dict that fills while the patch
    holds."""
    ends = {}
    generate = SimDevice.generate_until

    def spy(dev, t_end):
        if names is None or dev.name in names:
            ends[dev.name] = max(ends.get(dev.name, t_end), t_end)
        return generate(dev, t_end)

    monkeypatch.setattr(SimDevice, "generate_until", spy)
    return ends


def test_response_of_a_fully_logged_responder_is_skipped(monkeypatch):
    """The hub is logged within its first windows and its probe response
    lands later on its channel. The rotation then generates the hub no
    further, so the response is never generated and stays pending; the
    naive loop delivers it, and the two leave the same log and clock."""
    hub = zigbee("hub", 0x0000, CH11, 1.0, Role.COORDINATOR)
    runs = {}
    for scanner_cls in (Scanner, NaiveScanner):
        env = build_environment([hub], 5, probe_response_delay_max_s=40.0)
        (response,) = env.inject_probe(CH11)
        delivered = record_delivered(env)
        ends = generated_to(monkeypatch)
        scanner = scanner_cls(env, SdrConfig(8 * MHZ))
        scanner.passive_scan([CH11], 1.0, 100.0)
        monkeypatch.undo()
        pending = [t for t, *_ in env.devices[0]._responses]
        runs[scanner_cls] = scanner.log, env.clock, response in delivered, pending, ends["hub"]
    fast, naive = runs.values()
    (fast_log, fast_clock, fast_heard, fast_pending, fast_end) = fast
    (naive_log, naive_clock, naive_heard, naive_pending, _) = naive
    assert fast_log.first_seen["hub"] < fast_end <= fast_log.first_seen["hub"] + 1.0
    assert fast_end < response.time_s
    assert fast_pending == [response.time_s] and not fast_heard
    assert naive_pending == [] and naive_heard
    assert fast_log == naive_log
    assert fast_clock == naive_clock


def record_delivered(env):
    """Every emission a window query of ``env`` delivers, as a list that
    grows with every query."""
    delivered, query = [], env.emissions_in_parallel

    def recorded(*args, **kwargs):
        out = query(*args, **kwargs)
        delivered.extend(out)
        return out

    env.emissions_in_parallel = recorded
    return delivered


def test_response_before_an_emission_of_its_window_is_first_seen():
    """``generate_until`` lists a device's probe responses after its
    emissions. The scan starts just before the hub's response lands, and
    in most seeds here its first window holds the response and then an
    emission of the hub, so the walk must take the earliest entry: the hub
    is first seen at its response, as in the naive loop."""
    hub = zigbee("hub", 0x0000, CH11, 0.5, Role.COORDINATOR)
    response_first = 0
    for seed in range(10):
        outcomes = []
        for scanner_cls in (Scanner, NaiveScanner):
            env = build_environment([hub], seed, probe_response_delay_max_s=40.0)
            (response,) = env.inject_probe(CH11)
            env.advance(response.time_s - 0.1)
            t0, delivered = env.clock, record_delivered(env)
            scanner = scanner_cls(env, SdrConfig(8 * MHZ))
            scanner.passive_scan([CH11], 1.0, 5.0)
            outcomes.append((scanner.log, env.clock))
        assert outcomes[0] == outcomes[1], seed
        # the naive loop's first window, [t0, t0 + 1)
        first_window = [em.time_s for em in delivered if em.time_s < t0 + 1.0]
        if first_window[0] == response.time_s and len(first_window) > 1:
            response_first += 1
            assert outcomes[0][0].first_seen == {"hub": response.time_s - t0}
    assert response_first >= 5


def test_budget_spent_before_the_first_window():
    """An active scan's last probe can end past its budget, so its rotation
    starts with the budget spent (here, a negative budget): the rotation
    then queries nothing and keeps the clock, with the hub's response still
    pending."""
    spent = lambda s, stop: s.passive_scan([CH11], 1.0, -1.0)
    fast, fast_clock, queries, response = run(Scanner, spent, 17, None)
    naive, naive_clock, naive_queries, _ = run(NaiveScanner, spent, 17, None)
    assert response and response[0].time_s > 0.0
    assert queries == naive_queries == 0
    assert fast_clock == naive_clock == 0.0
    assert fast.log == naive.log == DiscoveryLog()


HUB = frozenset({"hub"})
LOOPS = pytest.mark.parametrize("scanner_cls", [Scanner, NaiveScanner], ids=["fast", "naive"])


@LOOPS
@pytest.mark.parametrize("scan", ["passive", "multiprotocol", "sequential"])
def test_scan_with_its_targets_logged_opens_no_window(scan, scanner_cls):
    """A scan that starts with every target logged queries no window and
    keeps the clock, even where a device would be heard."""
    do_scan, _ = SCANS[scan]
    scanner, clock, *_ = run(scanner_cls, do_scan, 3, HUB)
    assert scanner.log.covers(HUB)
    sizes = record_queries(scanner.env)
    do_scan(scanner, HUB)
    assert sizes == []
    assert scanner.env.clock == clock


@LOOPS
def test_active_scan_whose_probes_log_its_targets_opens_no_window(scanner_cls):
    """The hub answers inside its probe window, so the rotation after the
    probes opens no window: the scan makes the probes' queries only, one
    per probe window, and ends at their clock."""
    probe_only = lambda s, stop: s.probe_channels(ZIGBEE, s.probe_dwell_time_s)
    _, probe_clock, probe_queries, _ = run(scanner_cls, probe_only, 3, None, delay=0.1)
    do_scan, _ = SCANS["active-answered"]
    scanner, clock, queries, _ = run(scanner_cls, do_scan, 3, HUB, delay=0.1)
    assert scanner.log.covers(HUB)
    assert queries == probe_queries == len(ZIGBEE)
    assert clock == probe_clock


# Dwell/retune pairs whose window period is not exact in binary, so the
# clock after k windows differs from clock + k * (dwell + retune).
INEXACT = [(0.3, 0.1), (0.7, 0.0), (1.0, 0.25)]
START = 0.37
CH20 = zigbee_channel(20)  # no device listens here


def fold(clock, dwell, retune, budget):
    """Window starts and ends from ``clock`` by one IEEE addition at a time,
    as the naive loop steps them; the last start is the first one past the
    budget."""
    t_start = clock
    starts, ends = [], []
    while clock - t_start <= budget:
        starts.append(clock)
        t1 = clock + dwell
        ends.append(t1)
        clock = t1 + retune
    starts.append(clock)
    return starts, ends


def residue_offsets(rng):
    """The residue offsets of a device heard in a random nonempty set of
    1-5 groups."""
    n = rng.randint(1, 5)
    heard = set(rng.sample(range(n), rng.randint(1, n)))
    return tuple(min(k for k in range(n) if (r + k) % n in heard) for r in range(n))


def check_edges(clock, dwell, retune, budget, rng):
    """``_Windows`` from ``clock`` matches the fold in every edge (each
    window's start and end, also where a window starts a new run), in the
    first window past the budget, in the window of random times, by
    ``index`` and by ``holding``, and in the edges of the first window from
    a random later one that a device with random residue offsets can be
    heard in, as ``Scanner._rotate`` picks it. ``holding`` and ``index``
    also place c_j, e_j and c_{j+1}, and one ulp either side of each, for
    the last three windows of every run: a run that ends where its binade
    does ends within a period of 2^53 of its ulps, where ``holding``'s true
    quotient is closest to rounding up to the next step."""
    starts, ends = fold(clock, dwell, retune, budget)
    count = len(ends)
    windows = _Windows(clock, dwell, retune, clock, budget)
    assert windows.count == count
    assert [windows.edges(j) for j in range(count)] == list(zip(starts, ends))
    assert windows.edges(count)[0] == starts[-1]
    randoms = [rng.uniform(starts[0], starts[-1] + dwell) for _ in range(300)]
    last_steps = {j for nxt in windows._first[1:] + (count,) for j in range(max(nxt - 3, 0), nxt)}
    near = [
        np.nextafter(edge, side)
        for j in sorted(last_steps)
        for edge in (starts[j], ends[j], starts[j + 1])
        for side in (-np.inf, edge, np.inf)
    ]
    times = randoms + starts + ends + near
    held, inside = windows.holding(np.array(times))
    for t, got_j, got_inside in zip(times, held.tolist(), inside.tolist()):
        want = bisect_right(starts, t) - 1
        want = count if want < 0 else min(want, count)
        assert windows.index(t) == want, t
        assert (got_j, got_inside) == (want, want < count and t < ends[want]), t
    # the windows just before each run's first, so that the offsets cross runs
    for t in randoms + [starts[max(j - 1, 0)] for j in windows._first]:
        i = min(bisect_right(starts, t) - 1, count)
        offsets, lo = residue_offsets(rng), i + rng.choice([0, 0, 1, 2, 40])
        j = count if i == count else min(max(i, lo) + offsets[max(i, lo) % len(offsets)], count)
        i = max(windows.index(t), lo)
        assert min(i + offsets[i % len(offsets)], count) == j, (t, lo, offsets)
        if j < count:
            assert windows.edges(j) == (starts[j], ends[j]), (t, lo, offsets)
        else:
            assert windows.edges(j)[0] == starts[-1], (t, lo, offsets)
    return starts, ends


# Rotation starts: fractional, zero, tiny (a first window whose period is
# more than 2^63 of its ulps), inexact, and just below a binade edge, so that
# runs of windows cross binades.
CLOCKS = [START, 0.0, 1e-9, 1.6e-5, 3.2000000000000006, 1023.9, 2.0**20 - 0.05]


@pytest.mark.parametrize("dwell,retune", INEXACT)
def test_window_edges_are_the_fold(dwell, retune):
    """``_Windows`` gives every edge of the naive loop's fold from every
    start clock, for periods that are not exact in binary."""
    rng = random.Random(f"{dwell}/{retune}")
    period = dwell + retune
    for clock in CLOCKS:
        for budget in (5000 * period, 999.9, rng.uniform(0.0, 20_000 * period)):
            check_edges(clock, dwell, retune, budget, rng)
    starts, _ = check_edges(START, dwell, retune, 5000 * period, rng)
    assert any(c != START + k * period for k, c in enumerate(starts))  # k * period would not pass
    # runs of several windows that end within a period of 2^53 of their ulps
    windows = _Windows(START, dwell, retune, START, 5000 * period)
    top = [
        x + (nxt - first + 1) * P >= 2**53
        for first, nxt, (x, _, _, P) in zip(windows._first, windows._first[1:], windows._runs)
        if nxt - first > 1
    ]
    assert sum(top) >= 5


def test_window_edges_on_random_settings():
    rng = random.Random(2024)
    for _ in range(40):
        dwell = rng.choice([0.1, 0.2, 1 / 3, rng.uniform(0.01, 2.0)])
        retune = rng.choice([0.0, 0.1, 0.25, 0.3, rng.uniform(0.0, 1.0)])
        clock = rng.choice([0.0, 1e-9, 3.2000000000000006, rng.uniform(0.0, 1e4)])
        check_edges(clock, dwell, retune, rng.uniform(0.0, 5000) * (dwell + retune), rng)


def test_window_edges_through_tie_binades():
    """dwell / u is a half-integer in the binade where u is twice the
    dwell's lowest set bit, so there the sum rounds by the parity of the
    clock; the retune's tie binade is the one below. Hundreds of windows lie
    in each."""
    dwell, retune = 1 + 2.0**-10, 0.25 + 2.0**-11
    starts, _ = check_edges(2.0**43 - 400.0, dwell, retune, 800.0, random.Random(7))
    u = math.ulp(2.0**43)
    assert (dwell / u) % 1 == 0.5 and (retune / (u / 2)) % 1 == 0.5
    assert starts[0] < 2.0**43 - 300 and starts[-1] > 2.0**43 + 300


def sdr(retune):
    return SdrConfig(8 * MHZ, retune_latency_s=retune)


@pytest.mark.parametrize("dwell,retune", INEXACT)
@pytest.mark.parametrize("scan", ["passive", "multiprotocol"])
def test_inexact_period_from_a_fractional_clock(scan, dwell, retune):
    do_scan = {
        "passive": lambda s, stop: s.passive_scan(ALL, dwell, 3000.0),
        "multiprotocol": lambda s, stop: s.multiprotocol_scan(ALL, dwell, 3000.0),
    }[scan]
    fast, fast_clock, fast_queries, _ = run(Scanner, do_scan, 12, None, sdr(retune), start=START)
    naive, naive_clock, naive_queries, _ = run(
        NaiveScanner, do_scan, 12, None, sdr(retune), start=START)
    assert fast.log.first_seen == naive.log.first_seen
    assert fast.log.addresses == naive.log.addresses
    assert fast_clock == naive_clock
    assert fast_queries < naive_queries / 3


def lone_rotation(scanner_cls, devices, channel, dwell, retune, budget):
    """Passive scan of one channel from ``START``, with no pending probe and
    no loss; returns the scanner, the environment and the emission count of
    each window query."""
    env = build_environment(devices, 5)
    env.advance(START)
    sizes = record_queries(env)
    scanner = scanner_cls(env, sdr(retune))
    scanner.passive_scan([channel], dwell, budget)
    return scanner, env, sizes


@pytest.mark.parametrize("budget", [50.5, 777.7, 2000.25])
@pytest.mark.parametrize("dwell,retune", INEXACT)
def test_device_logged_in_one_window_is_queried_once(dwell, retune, budget, monkeypatch):
    """The keypad is the only device on R2 and its first frame lands inside
    a window for each period here, so the rotation queries that window and
    no other: it hears the keypad, and with no loss its one address then
    leaves no device to drive a query. The keypad is generated up to that
    window's end and no further. A keypad the budget ends before drives no
    query and is generated no further than the rotation's end. The log and
    clock are the naive loop's."""
    ends = generated_to(monkeypatch, {"keypad"})
    fast, env, sizes = lone_rotation(Scanner, DEVICES, R2, dwell, retune, budget)
    monkeypatch.undo()
    naive, naive_env, naive_sizes = lone_rotation(NaiveScanner, DEVICES, R2, dwell, retune, budget)
    assert fast.log.first_seen == naive.log.first_seen
    assert fast.log.addresses == naive.log.addresses
    assert env.clock == naive_env.clock
    windows = _Windows(START, dwell, retune, START, budget)
    if "keypad" in fast.log.first_seen:
        assert sizes == [1]
        _, e_j = windows.edges(windows.index(START + fast.log.first_seen["keypad"]))
        assert ends["keypad"] == e_j
    else:
        assert sizes == [] and not any(naive_sizes) and ends.get("keypad", START) < env.clock


@pytest.mark.parametrize("dwell,retune", INEXACT)
def test_rotation_over_a_channel_nobody_uses_makes_no_query(dwell, retune):
    """A rotation over a channel nobody uses makes no environment query and
    ends at the clock of the naive loop's 14,337th window."""
    budget = 14_336 * (dwell + retune)
    _, env, sizes = lone_rotation(Scanner, DEVICES, CH20, dwell, retune, budget)
    _, naive_env, naive_sizes = lone_rotation(NaiveScanner, DEVICES, CH20, dwell, retune, budget)
    assert sizes == [] and not any(naive_sizes)
    assert env.clock == naive_env.clock
    assert env.clock - START > budget


def test_sequential_phase_nobody_uses_opens_no_window():
    """A phase that no device is audible in has an empty stop set, so it
    ends before its first window and the next phase starts at once: the
    scan leaves the log and clock of the scan without that phase and makes
    the same window queries, as does the naive loop."""
    lamps = (zigbee("a", 1, CH11, 2.0), zigbee("b", 2, CH15, 2.0))
    outcomes = {}
    for scanner_cls in (Scanner, NaiveScanner):
        for phases in ([[CH20], [CH11], [CH15]], [[CH11], [CH15]]):
            env = build_environment(lamps, 3)
            sizes = record_queries(env)
            scanner = scanner_cls(env, SdrConfig(8 * MHZ))
            scanner.sequential_passive_scan(phases, 1.0, 200.0)
            outcomes[scanner_cls, len(phases)] = scanner.log, env.clock, sizes
    (log, clock, _), *others = outcomes.values()
    assert set(log.first_seen) == {"a", "b"} and clock == 201.0
    for scanner_cls in (Scanner, NaiveScanner):
        assert outcomes[scanner_cls, 3] == outcomes[scanner_cls, 2]
    for other_log, other_clock, _ in others:
        assert other_log == log and other_clock == clock


def test_gap_longer_than_one_chunk():
    """A periodic device on the rotation's channel leaves gaps of 12,500
    windows, and is still heard in the window its frame lands in."""
    beacon = DeviceSpec(
        "beacon", Protocol.ZIGBEE, Role.ROUTER, (CH20,), 5000.0, ZigbeeShort(0x1A62, 0x0020),
        emitter=EmitterKind.PERIODIC,
    )
    fast, env, _ = lone_rotation(Scanner, [beacon], CH20, 0.3, 0.1, 12_000.0)
    naive, naive_env, _ = lone_rotation(NaiveScanner, [beacon], CH20, 0.3, 0.1, 12_000.0)
    assert "beacon" in fast.log.first_seen
    assert fast.log.first_seen == naive.log.first_seen
    assert fast.log.addresses == naive.log.addresses
    assert env.clock == naive_env.clock


NEVER = zigbee("never", 0x2001, CH20, 1e20)  # its first frame lands far past any budget here


def test_huge_budget_costs_no_window():
    """A 1e15 s budget on a channel that hears nothing ends at once, past
    the budget by less than one window."""
    began = time.perf_counter()
    scanner, env, sizes = lone_rotation(Scanner, [NEVER], CH20, 1.0, 0.0, 1e15)
    assert time.perf_counter() - began < 5.0  # about 1e15 windows for the naive loop
    assert sizes == [] and not scanner.log.first_seen
    assert 1e15 < env.clock - START <= 1e15 + 1.0


def test_clock_after_a_million_windows_is_the_fold():
    dwell, retune = 0.3, 0.1
    budget = 1e6 * (dwell + retune)
    _, env, sizes = lone_rotation(Scanner, [NEVER], CH20, dwell, retune, budget)
    steps = np.empty(2 * 1_000_100 + 1)
    steps[0], steps[1::2], steps[2::2] = START, dwell, retune
    starts = np.add.accumulate(steps)[::2]
    assert sizes == []
    assert env.clock == starts[np.searchsorted(starts - START, budget, "right")]


def test_dwell_that_cannot_advance_the_clock_is_refused():
    """Past 2^53 dwells, clock + dwell == clock, so the rotation would never
    end; it is refused before its first window."""
    with pytest.raises(ParameterError, match="cannot advance"):
        lone_rotation(Scanner, [NEVER], CH20, 1.0, 0.0, 1e17)


# -- retired devices ------------------------------------------------------------

# A chatty lamp seen under a short and an extended address (frames alternate
# between them, as for ikea-led-1732), and a slow sensor that keeps the
# rotation going long after the lamp is fully logged.
LAMP = DeviceSpec(
    "lamp", Protocol.ZIGBEE, Role.END_DEVICE, (CH12,), 2.0, ZigbeeShort(0x1A62, 0x1201),
    aliases=(ZigbeeExtended(0x000B57FFFE0012AB),),
)
SLOW = zigbee("slow", 0x1501, CH15, 400.0)


def lamp_scan(scanner_cls, then=lambda scanner: None):
    env = build_environment((LAMP, SLOW), 9, loss_prob=LOSS)
    scanner = scanner_cls(env, SDR)
    scanner.passive_scan([CH12, CH15], 1.0, 600.0)
    return scanner, then(scanner)


def test_alias_keeps_a_device_in_scope():
    """The lamp is first seen under one address; it stays in the rotation
    until its second address is logged too."""
    fast, _ = lamp_scan(Scanner)
    naive, _ = lamp_scan(NaiveScanner)
    assert set(LAMP.all_addresses()) <= naive.log.addresses
    assert fast.log.addresses == naive.log.addresses
    assert fast.log.first_seen == naive.log.first_seen


def watch_queries(monkeypatch):
    """Every address logged, with the time it was first logged, and every
    window query of any environment, as (its channels, the addresses logged
    when it opened, its emissions, the (name, end) of each generation it
    made), in a dict and a list that fill while the patch holds."""
    logged: dict = {}
    queries: list = []
    record, query = DiscoveryLog.record, Environment.emissions_in_parallel
    generate = SimDevice.generate_until

    def spy_record(log, device, t, addr):
        logged.setdefault(addr, t)
        record(log, device, t, addr)

    def spy_query(env, channels, t0, t1):
        queries.append((frozenset(channels), set(logged), [], []))
        queries[-1][2].extend(query(env, channels, t0, t1))
        return queries[-1][2]

    def spy_generate(dev, t_end):
        if queries:
            queries[-1][3].append((dev.name, t_end))
        return generate(dev, t_end)

    monkeypatch.setattr(DiscoveryLog, "record", spy_record)
    monkeypatch.setattr(Environment, "emissions_in_parallel", spy_query)
    monkeypatch.setattr(SimDevice, "generate_until", spy_generate)
    return logged, queries


def assert_driven(queries):
    """Each query's channels hear a device some address of which was not
    logged when it opened: a fully logged device drives no query."""
    for channels, logged, *_ in queries:
        assert any(
            not channels.isdisjoint(d.channels) and not set(d.all_addresses()) <= logged
            for d in DEVICES
        ), channels


@pytest.mark.parametrize("scan", ["passive", "multiprotocol", "sequential"])
def test_fully_logged_device_is_not_generated_again(scan, monkeypatch):
    """After the window that logs a device's last address, the device
    drives no query: every later window it is generated in is one that
    hears a device still lacking an address. In the passive and sequential
    scans no other device shares a group with it, so no later window
    generates it: every later window ends more than one dwell after that
    address was logged. The log and clock are the naive loop's."""
    logged, queries = watch_queries(monkeypatch)
    fast, fast_clock, *_ = run(Scanner, SCANS[scan][0], 12, None)
    monkeypatch.undo()
    retired_at = {
        d.name: max(logged[a] for a in d.all_addresses())
        for d in DEVICES if set(d.all_addresses()) <= logged.keys()
    }
    assert len(retired_at) >= 3
    assert_driven(queries)
    if scan != "multiprotocol":
        for name, t in retired_at.items():
            ends = [t_end for *_, made in queries for dev, t_end in made if dev == name]
            assert max(ends, default=0.0) <= t + 1.0, name
    naive, naive_clock, *_ = run(NaiveScanner, SCANS[scan][0], 12, None)
    assert fast.log == naive.log
    assert fast_clock == naive_clock


def test_retirement_is_scoped_to_the_rotation():
    """After the scan, a listen, a parallel listen and a probe on the same
    environment still hear the lamp's ordinary traffic (it answers no
    probe), as the naive loop's do."""

    def hear_lamp(scanner):
        return (
            scanner.listen(CH12, 20.0),
            scanner.listen_in_parallel([CH11, CH12], 20.0),
            scanner.probe_channels([CH12], 20.0),
        )

    fast, heard = lamp_scan(Scanner, hear_lamp)
    naive, naive_heard = lamp_scan(NaiveScanner, hear_lamp)
    assert heard == naive_heard == (True, True, [CH12])
    assert fast.log == naive.log


def scan_outcome(scanner_cls, cfg, trial):
    """The log and clock a scan of ``cfg``'s trial leaves, driven as the
    experiment runner drives it."""
    env = experiment.trial_environment(cfg, trial)
    scanner = scanner_cls(env, cfg.sdr, probe_dwell_time_s=cfg.probe_dwell_time_s)
    targets = frozenset(d.name for d in cfg.devices)
    scanner.scan(cfg.plan(), cfg.dwell_time_s, cfg.scan_time_s, until_complete=targets)
    return scanner.log.first_seen, scanner.log.addresses, env.clock


def assert_matches_naive(cfg, trials):
    for trial in range(trials):
        fast = scan_outcome(Scanner, cfg, trial)
        assert fast == scan_outcome(NaiveScanner, cfg, trial), (cfg, trial)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_scenarios_match_naive_loop(name):
    """Every bundled scan, as the experiment runner drives it, leaves the
    same log and clock with the naive loop on its first three trials."""
    assert_matches_naive(load_bundled_scenario(name), 3)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_scenario_variants_match_naive_loop(name):
    """So does every bundled scan with loss 0 or 0.25, a retune of 0 or
    0.3 s, and probe answers within 0.1 or 40 s, on two trials each."""
    cfg = load_bundled_scenario(name)
    for loss in (0.0, 0.25):
        for retune in (0.0, 0.3):
            for delay in (0.1, 40.0):
                sdr = dataclasses.replace(cfg.sdr, retune_latency_s=retune)
                variant = dataclasses.replace(
                    cfg, loss_prob=loss, sdr=sdr, probe_response_delay_max_s=delay
                )
                assert_matches_naive(variant, 2)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_scenarios_with_periodic_emitters_match_naive_loop(name):
    """And every bundled scan with every other device a periodic emitter,
    which a rotation may never hear, with loss 0 or 0.25."""
    cfg = load_bundled_scenario(name)
    devices = tuple(
        dataclasses.replace(d, emitter=EmitterKind.PERIODIC) if i % 2 else d
        for i, d in enumerate(cfg.devices)
    )
    for loss in (0.0, 0.25):
        assert_matches_naive(dataclasses.replace(cfg, devices=devices, loss_prob=loss), 2)


class PhaseRecordingScanner(Scanner):
    """Records the log's addresses after each rotation."""

    def _rotate(self, *args, **kwargs):
        super()._rotate(*args, **kwargs)
        self.after = getattr(self, "after", []) + [set(self.log.addresses)]


def test_phases_sharing_an_aliased_device_match_naive_loop():
    """Two phases share the channel of a slow lamp seen under two
    addresses. The first phase ends once it has heard the lamp and a
    sensor, often with one lamp address logged, so in the second phase a
    device already seen but not fully logged drives queries. Every scan leaves the naive
    loop's log and clock, with and without a stop set."""
    lamp = dataclasses.replace(LAMP, mean_interarrival_s=200.0)
    devices = (lamp, dataclasses.replace(SLOW, mean_interarrival_s=50.0), DEVICES[0])
    phases = [[CH12, CH15], [CH11, CH12]]
    partly_logged = 0
    for seed in range(30):
        for stop in (None, frozenset(d.name for d in devices)):
            outcomes = []
            for scanner_cls in (PhaseRecordingScanner, NaiveScanner):
                env = build_environment(devices, seed, loss_prob=LOSS)
                scanner = scanner_cls(env, SDR)
                scanner.sequential_passive_scan(phases, 1.0, 3000.0, until_complete=stop)
                outcomes.append((scanner.log.first_seen, scanner.log.addresses, env.clock))
                if scanner_cls is PhaseRecordingScanner:
                    partly_logged += len(set(lamp.all_addresses()) & scanner.after[0]) == 1
            assert outcomes[0] == outcomes[1], (seed, stop)
    assert partly_logged >= 30


def test_listen_after_an_early_stop():
    """The rotation drops nothing past the window it stopped after, so
    listening on after an early stop hears what the naive loop's listens
    hear: also with a lamp seen under two addresses, which the stop often
    leaves with one of them logged."""
    lamp = dataclasses.replace(LAMP, mean_interarrival_s=60.0)
    partly_logged = 0

    def stop_early_then_listen(scanner, stop):
        nonlocal partly_logged
        scanner.passive_scan(ALL, 1.0, 3000.0, until_complete=frozenset({"tag"}))
        if isinstance(scanner, NaiveScanner):
            partly_logged += len(set(lamp.all_addresses()) & scanner.log.addresses) == 1
        for ch in ALL:
            scanner.listen(ch, 200.0)

    for devices in (DEVICES, DEVICES + (lamp,)):
        for seed in range(40):
            fast, fast_clock, *_ = run(Scanner, stop_early_then_listen, seed, None, devices=devices)
            naive, naive_clock, *_ = run(
                NaiveScanner, stop_early_then_listen, seed, None, devices=devices)
            assert fast.log == naive.log, seed
            assert fast_clock == naive_clock, seed
    assert partly_logged >= 5


@pytest.mark.parametrize("scan", sorted(SCANS))
def test_every_rotation_query_hears_a_frame_without_loss(scan, monkeypatch):
    """Without loss, every device of this one-address testbed is first seen
    at the first frame of it that a window query delivers, and then drives
    no query: every rotation query hears a device the log lacks when it
    opens. A device no query hears is generated no further than the scan's
    final clock. The log and clock are the naive loop's."""
    _, queries = watch_queries(monkeypatch)
    do_scan, _ = SCANS[scan]
    delay = RESPONSE_DELAY_S.get(scan, 40.0)
    scanner, clock, *_ = run(Scanner, do_scan, 12, None, delay=delay, loss=0.0)
    monkeypatch.undo()
    seen = scanner.log.first_seen
    assert seen or scan == "active"  # its answers land after its probe windows
    delivered = [em for _, _, out, _ in queries for em in out]
    assert seen == {name: min(em.time_s for em in delivered if em.device == name) for name in seen}
    assert_driven(queries[len(ZIGBEE) if scan.startswith("active") else 0 :])  # after the probes
    for name in NAMES - seen.keys():
        assert all(t_end <= clock for *_, made in queries for dev, t_end in made if dev == name)
    naive, naive_clock, *_ = run(NaiveScanner, do_scan, 12, None, delay=delay, loss=0.0)
    assert scanner.log == naive.log
    assert clock == naive_clock
