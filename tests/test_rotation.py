"""The shared rotation loop fast-forwards windows that can hear nothing.

A naive reference loop queries the environment for every window. Each scan
must leave the same discovery log (first-seen times and addresses) and clock
with either loop, under retune latency, frame loss and probe responses that
land windows after the probe.
"""

from __future__ import annotations

import pytest

from iotsweep.address import BleAdvA, LoRaId, ZigbeeShort, ZWaveId
from iotsweep.channels import (
    Protocol,
    ble_advertising_channels,
    sort_channels,
    yolink_channel,
    zigbee_channel,
    zwave_channel,
)
from iotsweep.scanning import Scanner, SdrConfig
from iotsweep.simulation import DeviceSpec, Role, build_environment

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
    """Reference rotation: one environment query per window, stop checks
    around every window."""

    def _rotate(self, groups, dwell_time_s, scan_time_s, t_start, *,
                stop_before=None, stop_after=None):
        env = self.env
        i = 0
        while env.clock - t_start <= scan_time_s:
            if stop_before is not None and self.log.covers(stop_before):
                break
            t0 = env.clock
            self._ingest(env.emissions_in_parallel(groups[i], t0, t0 + dwell_time_s))
            if self.sdr.retune_latency_s:
                env.advance(self.sdr.retune_latency_s)
            i = (i + 1) % len(groups)
            if stop_after is not None and self.log.covers(stop_after):
                break


ALL = sort_channels(ZIGBEE + list(BLE) + list(SUB_GHZ))

# (scan, whether it steps over most windows). Each rotation asks for the
# quiet time of its own channels, so a device on a channel it never visits
# does not hold the quiet time in the past. With the default 40 s response
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


def run(scanner_cls, scan, seed, stop, sdr=SDR, delay=40.0):
    env = build_environment(DEVICES, seed, loss_prob=LOSS, probe_response_delay_max_s=delay)
    queries = 0
    query = env.emissions_in_parallel

    def counted(*args):
        nonlocal queries
        queries += 1
        return query(*args)

    env.emissions_in_parallel = counted
    # the hub answers a probe sent before the scan, many windows later
    response = env.inject_probe(CH11)
    scanner = scanner_cls(env, sdr)
    scan(scanner, stop)
    return scanner, env.clock, queries, response


@pytest.mark.parametrize("stop", [None, NAMES], ids=["full-budget", "until-complete"])
@pytest.mark.parametrize("scan", sorted(SCANS))
# the response to the pre-scan probe is heard by the passive scan at seed 12
# and by the multiprotocol scan at seed 22
@pytest.mark.parametrize("seed", [12, 22])
def test_fast_forward_matches_naive_loop(scan, seed, stop):
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
def test_quiet_time_is_scoped_to_the_rotation(scan):
    """Devices outside a rotation's channels do not pin its quiet time: with
    one quiet time over every channel, seed 3 queried 4,105 of 4,616
    sequential windows and 2,290 of 2,310 active-multiprotocol ones."""
    do_scan, _ = SCANS[scan]
    *_, queries, _ = run(Scanner, do_scan, 3, None)
    *_, naive_queries, _ = run(NaiveScanner, do_scan, 3, None)
    assert naive_queries == {"sequential": 4616, "active-multiprotocol": 2310}[scan]
    assert queries < naive_queries / 10


def test_late_probe_response_is_heard():
    """The scheduled response lowers the quiet time, so the window it lands
    in is queried although no device emits near it."""
    listen_only = lambda s, stop: s.passive_scan([CH11], 1.0, 100.0)
    scanner, *_, response = run(Scanner, listen_only, 17, None, SdrConfig(8 * MHZ))
    assert len(response) == 1 and response[0].time_s > 10.0
    assert scanner.log.first_seen == {"hub": response[0].time_s}


@pytest.mark.parametrize("scan", ["passive", "multiprotocol"])
def test_complete_log_still_walks_one_window(scan):
    """A scan that starts with every target found runs one window, even
    when that window would have been stepped over."""
    do_scan, _ = SCANS[scan]
    two_scans = lambda s, stop: (do_scan(s, stop), do_scan(s, stop))
    fast, fast_clock, _, _ = run(Scanner, two_scans, 3, frozenset({"hub"}))
    naive, naive_clock, _, _ = run(NaiveScanner, two_scans, 3, frozenset({"hub"}))
    assert "hub" in fast.log.first_seen
    assert fast_clock == naive_clock
