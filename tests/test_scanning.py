import math
import random

import pytest

from frame_random import random_ble, random_lora, random_zigbee, random_zwave
from iotsweep import frames
from iotsweep.address import BleAdvA, LoRaId, ZigbeeShort, ZWaveId
from iotsweep.channels import (
    Protocol,
    ble_advertising_channel,
    ble_advertising_channels,
    sort_channels,
    yolink_channel,
    zigbee_channel,
    zigbee_channels,
    zwave_channel,
    zwave_channels,
)
from iotsweep.errors import ChecksumError, ParameterError, SimulationError, UnsupportedProbe
from iotsweep.frames import beacon_request, decode, encode, extract_address, zigbee_beacon
from iotsweep.scanning import (
    Scanner,
    SdrConfig,
    _frame_address,
    find_channels_in_range,
    plan_channel_groups,
)
from iotsweep.simulation import DeviceSpec, Emission, Role, build_environment

MHZ = 1_000_000
SDR8 = SdrConfig(instantaneous_bandwidth_hz=8 * MHZ)
CH11 = zigbee_channel(11)
CH15 = zigbee_channel(15)
CH20 = zigbee_channel(20)


def zigbee_device(name, addr, channel, mu, role=Role.END_DEVICE):
    return DeviceSpec(
        name=name,
        protocol=Protocol.ZIGBEE,
        role=role,
        channels=(channel,),
        mean_interarrival_s=mu,
        address=ZigbeeShort(0x1A62, addr),
    )


class TestFindChannelsInRange:
    def test_ble37_and_zigbee11_fit_8mhz(self):
        chans = sort_channels([ble_advertising_channel(37), CH11])
        got = find_channels_in_range(chans, 8 * MHZ)
        assert got == chans  # span is 4.5 MHz

    def test_distant_channels_do_not_fit(self):
        chans = sort_channels([CH20, ble_advertising_channel(39)])
        got = find_channels_in_range(chans, 8 * MHZ)
        assert got == [CH20]

    def test_sub_ghz_trio_fits(self):
        chans = sort_channels([zwave_channel("R2"), yolink_channel("up"), zwave_channel("R3")])
        got = find_channels_in_range(chans, 8 * MHZ)
        assert got == chans  # span is 7.6725 MHz

    def test_exact_boundary(self):
        chans = sort_channels([zwave_channel("R2"), yolink_channel("up"), zwave_channel("R3")])
        lo, hi = chans[0], chans[-1]
        span = (hi.center_freq_hz + hi.bandwidth_hz / 2) - (lo.center_freq_hz - lo.bandwidth_hz / 2)
        assert span == 7_670_000  # 916.05 - 908.38 MHz
        assert len(find_channels_in_range(chans, 7_670_000)) == 3
        assert len(find_channels_in_range(chans, 7_669_999)) == 2

    def test_always_contains_first(self):
        got = find_channels_in_range([CH11], 1)  # narrower than the channel itself
        assert got == [CH11]

    def test_requires_ascending(self):
        with pytest.raises(ParameterError):
            find_channels_in_range([CH15, CH11], 8 * MHZ)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            find_channels_in_range([], 8 * MHZ)

    def test_idempotent_prefix_property(self):
        chans = sort_channels(
            ble_advertising_channels() + [CH11, CH15, CH20, zigbee_channel(26)]
        )
        got = find_channels_in_range(chans, 8 * MHZ)
        # order-preserving subset of the input
        assert [c for c in chans if c in set(got)] == got
        # reapplying to its own output changes nothing
        assert find_channels_in_range(got, 8 * MHZ) == got


class TestGroupPlanning:
    def test_two_protocol_grouping_2_4ghz(self):
        actives = [CH11, CH15, CH20]
        merged = sort_channels(actives + ble_advertising_channels())
        groups = plan_channel_groups(merged, 8 * MHZ)
        labels = [[c.label for c in g] for g in groups]
        assert labels == [
            ["ble-adv:37", "zigbee:11"],
            ["zigbee:15", "ble-adv:38"],
            ["zigbee:20"],
            ["ble-adv:39"],
        ]

    def test_single_group_sub_ghz(self):
        chans = sort_channels(zwave_channels() + [yolink_channel("up")])
        groups = plan_channel_groups(chans, 8 * MHZ)
        assert len(groups) == 1

    def test_singleton_groups_when_bandwidth_small(self):
        chans = sort_channels([CH11, CH15, CH20])
        groups = plan_channel_groups(chans, 2 * MHZ)
        assert [len(g) for g in groups] == [1, 1, 1]

    @pytest.mark.parametrize("bandwidth_mhz", [1, 3, 8, 30])
    def test_groups_are_repeated_range_finds(self, bandwidth_mhz):
        """Each group is ``find_channels_in_range`` on the channels the
        earlier groups left."""
        rng = random.Random(bandwidth_mhz)
        pool = zigbee_channels() + ble_advertising_channels()
        for _ in range(50):
            chans = sort_channels(rng.sample(pool, rng.randrange(1, len(pool) + 1)))
            expected, left = [], chans
            while left:
                expected.append(find_channels_in_range(left, bandwidth_mhz * MHZ))
                left = [ch for ch in left if ch not in expected[-1]]
            assert plan_channel_groups(chans, bandwidth_mhz * MHZ) == expected

    def test_requires_ascending_and_nonempty(self):
        with pytest.raises(ParameterError):
            plan_channel_groups([CH15, CH11], 8 * MHZ)
        with pytest.raises(ParameterError):
            plan_channel_groups([], 8 * MHZ)


def make_env(devs, seed=100, **kw):
    return build_environment(devs, seed=seed, **kw)


class TestListen:
    def test_silent_channel(self):
        scanner = Scanner(make_env([]), SDR8)
        assert scanner.listen(CH11, 5.0) is False
        assert scanner.log.addresses == set()

    def test_single_emission_in_window(self):
        env = make_env([zigbee_device("a", 1, CH11, mu=2.0)])
        scanner = Scanner(env, SDR8)
        assert scanner.passive_scan([CH11], dwell_time_s=1.0, scan_time_s=50.0) is None
        assert scanner.log.addresses == {ZigbeeShort(0x1A62, 1)}
        assert 0.0 <= scanner.log.first_seen["a"] <= 51.0

    def test_sourceless_frames_ignored(self, monkeypatch):
        env = make_env([])
        # a window that hears a sourceless frame (a stray beacon request)
        em = Emission(0.5, CH11, encode(beacon_request()), device="ghost")
        monkeypatch.setattr(env, "emissions_in_parallel", lambda *args, **kwargs: [em])
        scanner = Scanner(env, SDR8)
        assert scanner.listen(CH11, 1.0) is False
        assert scanner.log.first_seen == {}
        assert scanner.log.addresses == set()


class TestPassiveScan:
    def test_loop_runs_once_when_budget_small(self):
        env = make_env([])
        scanner = Scanner(env, SDR8)
        scanner.passive_scan([CH11, CH15], dwell_time_s=1.0, scan_time_s=0.5)
        assert env.clock == 1.0  # exactly one dwell executed

    def test_round_robin_order_and_budget(self):
        env = make_env([])
        scanner = Scanner(env, SDR8)
        scanner.passive_scan([CH11, CH15, CH20], dwell_time_s=1.0, scan_time_s=6.0)
        # elapsed checked before each listen: windows at 0..6 inclusive
        assert env.clock == 7.0

    def test_device_only_heard_during_its_channel_visits(self):
        chans = [zigbee_channel(k) for k in range(11, 27)]
        env = make_env([zigbee_device("a", 1, CH11, mu=3.0)], seed=2024)
        scanner = Scanner(env, SDR8)
        scanner.passive_scan(chans, dwell_time_s=1.0, scan_time_s=2000.0,
                             until_complete=frozenset({"a"}))
        t = scanner.log.first_seen["a"]
        # visits to channel 11 occupy [16k, 16k+1)
        assert (t % 16.0) < 1.0

    def test_empty_channel_list(self):
        scanner = Scanner(make_env([]), SDR8)
        with pytest.raises(ParameterError):
            scanner.passive_scan([], 1.0, 10.0)

    def test_retune_latency_charged(self):
        env = make_env([])
        scanner = Scanner(env, SdrConfig(8 * MHZ, retune_latency_s=0.5))
        scanner.passive_scan([CH11, CH15], dwell_time_s=1.0, scan_time_s=2.0)
        # windows at 0, 1.5; after the second, elapsed 3.0 > 2.0
        assert env.clock == 3.0

    def test_monotone_discovery_with_scan_time(self):
        devs = [
            zigbee_device("a", 1, CH11, mu=4.0),
            zigbee_device("b", 2, CH15, mu=9.0),
            zigbee_device("c", 3, CH20, mu=30.0),
        ]
        chans = [CH11, CH15, CH20]
        previous: set = set()
        # slowest device: mu 30 s heard a third of the time -> ~90 s expected;
        # the final budget is >20x that, where completeness is all but certain
        for budget in (5.0, 30.0, 120.0, 2000.0):
            scanner = Scanner(make_env(devs, seed=555), SDR8)
            scanner.passive_scan(chans, 1.0, budget)
            found = scanner.log.addresses
            assert previous <= found
            previous = found
        assert len(previous) == 3

    def test_soundness(self):
        devs = [zigbee_device("a", 1, CH11, mu=2.0)]
        scanner = Scanner(make_env(devs), SDR8)
        scanner.passive_scan([CH11, CH15], 1.0, 60.0)
        assert scanner.log.addresses <= {ZigbeeShort(0x1A62, 1)}

    def test_early_stop_matches_full_run_times(self):
        devs = [
            zigbee_device("a", 1, CH11, mu=3.0),
            zigbee_device("b", 2, CH15, mu=5.0),
        ]
        full = Scanner(make_env(devs, seed=77), SDR8)
        full.passive_scan([CH11, CH15], 1.0, 300.0)
        quick = Scanner(make_env(devs, seed=77), SDR8)
        quick.passive_scan([CH11, CH15], 1.0, 300.0,
                           until_complete=frozenset({"a", "b"}))
        assert quick.log.first_seen == full.log.first_seen


class TestProbeAndActive:
    def make_devs(self):
        return [
            zigbee_device("c11", 0x0001, CH11, mu=1000.0, role=Role.COORDINATOR),
            zigbee_device("c15", 0x0002, CH15, mu=1000.0, role=Role.COORDINATOR),
            zigbee_device("c20", 0x0003, CH20, mu=1000.0, role=Role.COORDINATOR),
            zigbee_device("e15", 0x0004, CH15, mu=5.0),
        ]

    def test_probe_channels_finds_actives(self):
        chans = [zigbee_channel(k) for k in range(11, 27)]
        scanner = Scanner(make_env(self.make_devs(), seed=50), SDR8)
        active = scanner.probe_channels(chans, dwell_time_s=0.2)
        assert [c.label for c in active] == ["zigbee:11", "zigbee:15", "zigbee:20"]
        assert ZigbeeShort(0x1A62, 0x0001) in scanner.log.addresses

    def test_all_silent(self):
        chans = [zigbee_channel(k) for k in range(11, 27)]
        scanner = Scanner(make_env([], seed=50), SDR8)
        assert scanner.probe_channels(chans, 0.2) == []
        assert scanner.log.addresses == set()

    def test_loss_kills_probing(self):
        chans = [CH11, CH15, CH20]
        scanner = Scanner(make_env(self.make_devs(), seed=50, loss_prob=1.0), SDR8)
        assert scanner.probe_channels(chans, 0.2) == []
        assert scanner.log.addresses == set()

    def test_unsupported_probe_propagates(self):
        scanner = Scanner(make_env([], seed=50), SDR8)
        with pytest.raises(UnsupportedProbe):
            scanner.probe_channels([ble_advertising_channel(37)], 0.2)

    def test_active_scan_finds_non_responders_in_phase2(self):
        chans = [zigbee_channel(k) for k in range(11, 27)]
        scanner = Scanner(make_env(self.make_devs(), seed=51), SDR8)
        scanner.active_scan(chans, dwell_time_s=1.0, scan_time_s=300.0)
        assert ZigbeeShort(0x1A62, 0x0004) in scanner.log.addresses
        assert len(scanner.log.addresses) == 4

    def test_active_scan_empty_world_returns_phase1(self):
        chans = [CH11, CH15]
        env = make_env([], seed=52)
        scanner = Scanner(env, SDR8)
        scanner.active_scan(chans, 1.0, 10.0)
        assert scanner.log.addresses == set()
        assert env.clock == pytest.approx(0.4)  # the two probe windows, nothing after

    @pytest.mark.parametrize("algorithm", ["active", "active-multiprotocol"])
    def test_probe_windows_start_within_the_budget(self, algorithm):
        """With 0.2 s probes and a 1 s budget, only the 6 probe windows that
        start by 1.0 s run, of the 16 Zigbee channels, and the scan ends
        after them."""
        env = make_env(self.make_devs(), seed=51)
        probed, inject = [], env.inject_probe

        def spy(channel):
            probed.append(channel)
            return inject(channel)

        env.inject_probe = spy
        scanner = Scanner(env, SDR8)
        if algorithm == "active":
            scanner.active_scan(zigbee_channels(), 1.0, 1.0)
        else:
            scanner.active_multiprotocol_scan(ble_advertising_channels(), zigbee_channels(), 1.0, 1.0)
        assert probed == zigbee_channels()[:6]
        assert env.clock == 1.2

    def test_every_probe_window_is_queried(self):
        """Each of 16 probe windows is one query on its channel, quiet or
        not; the clock moves by one dwell and one retune per window, and
        only the channels that answered are active."""
        chans = [zigbee_channel(k) for k in range(11, 27)]
        sdr = SdrConfig(8 * MHZ, retune_latency_s=0.3)
        env = make_env(self.make_devs(), seed=50)
        queried, query = [], env.emissions_in_parallel

        def spy(channels, t0, t1, **kwargs):
            queried.append(tuple(channels))
            return query(channels, t0, t1, **kwargs)

        env.emissions_in_parallel = spy
        env.advance(0.37)
        active = Scanner(env, sdr).probe_channels(chans, 0.2)
        assert active == [CH11, CH15, CH20]
        assert queried == [(ch,) for ch in chans]
        clock = 0.37
        for _ in chans:
            clock = clock + 0.2 + 0.3
        assert env.clock == clock

    @pytest.mark.parametrize("dwell", [math.inf, -1.0, math.nan])
    def test_bad_probe_dwell_raises_in_a_quiet_window(self, dwell):
        scanner = Scanner(make_env([], seed=50), SDR8)
        with pytest.raises(SimulationError):
            scanner.probe_channels([CH11], dwell)


class TestParallelListen:
    def make_devs(self):
        return [
            zigbee_device("a", 1, CH11, mu=1.5),
            zigbee_device("b", 2, CH15, mu=1.5),
        ]

    def test_parallel_equals_union_over_same_window(self):
        par = Scanner(make_env(self.make_devs(), seed=61), SDR8)
        heard_par = par.listen_in_parallel([CH11, CH15], 10.0)

        only_a = Scanner(make_env(self.make_devs(), seed=61), SDR8)
        only_a.listen(CH11, 10.0)
        only_b = Scanner(make_env(self.make_devs(), seed=61), SDR8)
        only_b.listen(CH15, 10.0)

        assert par.log.addresses == only_a.log.addresses | only_b.log.addresses
        assert par.log.first_seen == only_a.log.first_seen | only_b.log.first_seen
        assert heard_par  # window long enough to actually hear something

    def test_single_channel_degenerates_to_listen(self):
        par = Scanner(make_env(self.make_devs(), seed=62), SDR8)
        heard_par = par.listen_in_parallel([CH11], 8.0)
        plain = Scanner(make_env(self.make_devs(), seed=62), SDR8)
        assert heard_par == plain.listen(CH11, 8.0)
        assert par.log == plain.log

    def test_disjoint_devices_sum(self):
        par = Scanner(make_env(self.make_devs(), seed=63), SDR8)
        par.listen_in_parallel([CH11, CH15], 20.0)
        assert len(par.log.addresses) == 2

    def test_one_dwell_charged(self):
        env = make_env(self.make_devs(), seed=64)
        Scanner(env, SDR8).listen_in_parallel([CH11, CH15], 2.0)
        assert env.clock == 2.0


class TestMultiprotocolScan:
    def test_singleton_groups_visit_like_passive(self):
        devs = [
            zigbee_device("a", 1, CH11, mu=4.0),
            zigbee_device("b", 2, CH15, mu=7.0),
        ]
        narrow = SdrConfig(2 * MHZ)
        env_multi = make_env(devs, seed=70)
        multi = Scanner(env_multi, narrow)
        multi.multiprotocol_scan([CH11, CH15], 1.0, 100.0)
        env_passive = make_env(devs, seed=70)
        passive = Scanner(env_passive, narrow)
        passive.passive_scan([CH11, CH15], 1.0, 100.0)
        assert multi.log.first_seen == passive.log.first_seen
        assert env_multi.clock == env_passive.clock  # same (channel, window) walk

    def test_single_group_is_continuous_parallel(self):
        chans = sort_channels(zwave_channels() + [yolink_channel("up")])
        devs = [
            DeviceSpec(
                name="plug",
                protocol=Protocol.LORA,
                role=Role.END_DEVICE,
                channels=(yolink_channel("up"),),
                mean_interarrival_s=40.0,
                address=LoRaId(0x1324, 0x68),
            ),
            DeviceSpec(
                name="keypad",
                protocol=Protocol.ZWAVE,
                role=Role.END_DEVICE,
                channels=(zwave_channel("R2"),),
                mean_interarrival_s=60.0,
                address=ZWaveId(0x9E0B1D42, 2),
            ),
        ]
        scanner = Scanner(make_env(devs, seed=71), SDR8)
        scanner.multiprotocol_scan(chans, 1.0, 2000.0)
        assert scanner.log.addresses == {LoRaId(0x1324, 0x68), ZWaveId(0x9E0B1D42, 2)}

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            Scanner(make_env([], seed=1), SDR8).multiprotocol_scan([], 1.0, 10.0)


class TestActiveMultiprotocol:
    def test_empty_probe_list_reduces_to_multiprotocol(self):
        devs = [zigbee_device("a", 1, CH11, mu=3.0)]
        a = Scanner(make_env(devs, seed=80), SDR8)
        a.active_multiprotocol_scan([CH11], [], 1.0, 60.0)
        b = Scanner(make_env(devs, seed=80), SDR8)
        b.multiprotocol_scan([CH11], 1.0, 60.0)
        assert a.log.addresses == b.log.addresses
        assert a.log.first_seen == b.log.first_seen

    def test_merges_actives_with_always_on(self):
        devs = [
            zigbee_device("c11", 1, CH11, mu=1000.0, role=Role.COORDINATOR),
            DeviceSpec(
                name="adv",
                protocol=Protocol.BLE_ADVERTISING,
                role=Role.PERIPHERAL,
                channels=tuple(ble_advertising_channels()),
                mean_interarrival_s=4.0,
                address=BleAdvA(0xC011_2200_0001),
            ),
        ]
        scanner = Scanner(make_env(devs, seed=81), SDR8)
        scanner.active_multiprotocol_scan(
            ble_advertising_channels(),
            [zigbee_channel(k) for k in range(11, 27)],
            dwell_time_s=1.0,
            scan_time_s=120.0,
        )
        assert scanner.log.addresses == {ZigbeeShort(0x1A62, 1), BleAdvA(0xC011_2200_0001)}


class TestSequentialPassive:
    def test_phases_run_in_order(self):
        devs = [
            DeviceSpec(
                name="adv",
                protocol=Protocol.BLE_ADVERTISING,
                role=Role.PERIPHERAL,
                channels=tuple(ble_advertising_channels()),
                mean_interarrival_s=2.0,
                address=BleAdvA(0x1),
            ),
            zigbee_device("z", 1, CH11, mu=2.0),
        ]
        scanner = Scanner(make_env(devs, seed=90), SDR8)
        scanner.sequential_passive_scan([ble_advertising_channels(), [CH11]], 1.0, 500.0)
        assert len(scanner.log.addresses) == 2
        # the zigbee device cannot be seen before the BLE phase finishes
        assert scanner.log.first_seen["z"] >= scanner.log.first_seen["adv"]

    def test_empty_phase_rejected(self):
        with pytest.raises(ParameterError):
            Scanner(make_env([], seed=1), SDR8).sequential_passive_scan([[]], 1.0, 5.0)


class TestParams:
    def test_sdr_validation(self):
        with pytest.raises(ParameterError):
            SdrConfig(0)
        with pytest.raises(ParameterError):
            SdrConfig(1, retune_latency_s=-1.0)

    @pytest.mark.parametrize("dwell", [0.0, -0.2, math.nan, math.inf])
    def test_probe_dwell_validation(self, dwell):
        with pytest.raises(ParameterError, match="probe dwell"):
            Scanner(make_env([]), SDR8, probe_dwell_time_s=dwell)


class TestProbeRetune:
    def test_probe_phase_charges_retune(self):
        env = make_env([])
        scanner = Scanner(env, SdrConfig(8 * MHZ, retune_latency_s=0.3))
        scanner.probe_channels([CH11, CH15], dwell_time_s=0.2)
        assert env.clock == pytest.approx(1.0)  # 2 x (0.2 dwell + 0.3 hop)


class TestFrameAddressCache:
    """The scanner decodes each distinct frame once per channel; a cached
    address is the one a fresh decode gives."""

    @pytest.mark.parametrize(
        "protocol,make",
        [
            (Protocol.ZIGBEE, random_zigbee),
            (Protocol.BLE_ADVERTISING, random_ble),
            (Protocol.LORA, random_lora),
            (Protocol.ZWAVE, random_zwave),
        ],
    )
    def test_cached_address_equals_fresh_decode(self, protocol, make):
        """A Z-Wave frame is received on the PHY whose check it carries: R3
        for CRC-16, R2 for XOR. The fresh decode is told the variant or
        left to find it, a coin per frame."""
        channel = {
            Protocol.ZIGBEE: CH11,
            Protocol.BLE_ADVERTISING: ble_advertising_channel(37),
            Protocol.LORA: yolink_channel("up"),
        }.get(protocol)
        _frame_address.cache_clear()
        rng = random.Random(20261018)
        for _ in range(300):
            frame = make(rng)
            hint = rng.choice((frame.crc16, None)) if protocol is Protocol.ZWAVE else None
            data = encode(frame)
            fresh = extract_address(decode(protocol, data, zwave_crc16=hint))
            if protocol is Protocol.ZWAVE:
                channel = zwave_channel("R3" if frame.crc16 else "R2")
            hits = _frame_address.cache_info().hits
            assert _frame_address(channel, data) == fresh
            assert _frame_address(channel, data) == fresh
            assert _frame_address.cache_info().hits == hits + 1

    @pytest.mark.parametrize("at", [-1, -2])
    def test_corrupt_frame_raises_on_every_call(self, at):
        data = bytearray(encode(zigbee_beacon(seq=9, src_pan=0x1A62, src_addr=0x0003)))
        data[at] ^= 0x40
        errors = []
        for _ in range(2):
            with pytest.raises(ChecksumError) as caught:
                _frame_address(CH11, bytes(data))
            errors.append((str(caught.value), caught.value.offset))
        assert errors[0] == errors[1]

    def test_a_frame_is_decoded_once_through_the_frames_module(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return decode(*args, **kwargs)

        monkeypatch.setattr(frames, "decode", counted)
        _frame_address.cache_clear()
        data = encode(zigbee_beacon(seq=4, src_pan=0x1A62, src_addr=0x0009))
        for _ in range(3):
            assert _frame_address(CH11, data) == ZigbeeShort(0x1A62, 0x0009)
        assert len(calls) == 1
