import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from test_testbed import lone_trial

from iotsweep import experiment, frames, scanning, simulation
from iotsweep.address import BleAdvA, LoRaId, ZigbeeExtended, ZigbeeShort, ZWaveId
from iotsweep.channels import (
    Protocol,
    ble_advertising_channels,
    yolink_channel,
    zigbee_channel,
    zwave_channel,
    zwave_uses_crc16,
)
from iotsweep.errors import ScenarioError, SimulationError, UnsupportedProbe
from iotsweep.frames import decode, extract_address
from iotsweep.scenario import bundled_scenario_names, load_bundled_scenario
from iotsweep.simulation import (
    DeviceSpec,
    EmitterKind,
    Environment,
    Role,
    _encode_frame,
    _stream,
    build_environment,
    stream_seeds,
)

CH11 = zigbee_channel(11)
CH15 = zigbee_channel(15)
ADV = ble_advertising_channels()


def zigbee_device(name, addr, *, channel=CH11, mu=2.0, role=Role.END_DEVICE, **kw):
    return DeviceSpec(
        name=name,
        protocol=Protocol.ZIGBEE,
        role=role,
        channels=(channel,),
        mean_interarrival_s=mu,
        address=ZigbeeShort(0x1A62, addr),
        **kw,
    )


def ble_device(name, adv_a, mu=2.0):
    return DeviceSpec(
        name=name,
        protocol=Protocol.BLE_ADVERTISING,
        role=Role.PERIPHERAL,
        channels=tuple(ADV),
        mean_interarrival_s=mu,
        address=BleAdvA(adv_a),
    )


class TestDeterminism:
    def test_empty_environment(self):
        env = build_environment([], seed=1)
        assert env.emissions_in_parallel((CH11,), 0.0, 100.0) == []

    def test_same_seed_identical_logs(self):
        devs = [zigbee_device("a", 1), zigbee_device("b", 2, channel=CH15)]
        logs = []
        for _ in range(2):
            env = build_environment(devs, seed=99)
            logs.append([(e.time_s, e.device, e.frame) for e in env.iter_events(500.0)])
        assert logs[0] == logs[1]
        assert len(logs[0]) > 100

    def test_trials_differ(self):
        devs = [zigbee_device("a", 1)]
        t0 = [e.time_s for e in build_environment(devs, seed=5, trial=0).iter_events(50)]
        t1 = [e.time_s for e in build_environment(devs, seed=5, trial=1).iter_events(50)]
        assert t0 != t1

    def test_times_independent_of_loss(self):
        devs = [zigbee_device("a", 1)]
        clean = [e.time_s for e in build_environment(devs, seed=7).iter_events(200)]
        lossy = [
            e.time_s
            for e in build_environment(devs, seed=7, loss_prob=0.5).iter_events(200)
        ]
        assert set(lossy) < set(clean)


def emission_times(devs, seed, horizon):
    """Every emission time before ``horizon``, sorted, drawn without
    encoding a frame (``iter_events`` encodes each one)."""
    env = build_environment(devs, seed=seed)
    return sorted(t for dev in env.devices for t, _, _ in dev.generate_until(horizon))


class TestEmissionProcess:
    def test_times_match_the_event_export(self):
        devs = [zigbee_device("a", 1, mu=2.0), zigbee_device("b", 2, mu=3.0)]
        export = [e.time_s for e in build_environment(devs, seed=31).iter_events(2_000.0)]
        assert emission_times(devs, 31, 2_000.0) == export
        assert len(export) > 1_000

    def test_empirical_mean_interarrival(self):
        times = emission_times([zigbee_device("a", 1, mu=2.0)], 31, 1_000_000.0)
        gaps = np.diff(times)
        assert abs(gaps.mean() - 2.0) / 2.0 < 0.01

    def test_memoryless_ks(self):
        # Kolmogorov-Smirnov against Exp(1/mu) at significance 0.01
        mu = 3.0
        times = np.array(emission_times([zigbee_device("a", 1, mu=mu)], 17, mu * 30_000))
        gaps = np.sort(np.diff(times))
        assert len(gaps) >= 10_000
        n = len(gaps)
        cdf = 1.0 - np.exp(-gaps / mu)
        upper = np.arange(1, n + 1) / n - cdf
        lower = cdf - np.arange(0, n) / n
        d_stat = max(upper.max(), lower.max())
        assert d_stat < 1.628 / math.sqrt(n)

    def test_superposition_rate(self):
        devs = [
            zigbee_device("a", 1, mu=2.0),
            zigbee_device("b", 2, mu=3.0),
            zigbee_device("c", 3, mu=7.0),
        ]
        horizon = 50_000.0
        count = len(emission_times(devs, 23, horizon))
        rate = 1 / 2.0 + 1 / 3.0 + 1 / 7.0
        expect = horizon * rate
        assert abs(count - expect) <= 3 * math.sqrt(expect)

    def test_window_counts_match_poisson_mean(self):
        lam = 0.5
        env = build_environment([zigbee_device("a", 1, mu=1 / lam)], seed=41)
        counts = [
            len(env.emissions_in_parallel((CH11,), float(t), float(t + 1))) for t in range(20_000)
        ]
        assert np.mean(counts) == pytest.approx(lam, rel=0.05)

    def test_gaps_are_one_draw_of_the_times_stream(self):
        """A device draws its gaps in chunks of varying size; its emission
        times are still the running sum of one draw of its times stream."""
        env = build_environment([zigbee_device("a", 1, mu=2.0)], seed=29)
        times = [t for t, _, _ in env.devices[0].generate_until(600.0)][:200]
        gaps = _stream(stream_seeds(29, [0], 1)[0, 0]["times"]).exponential(2.0, 200)
        assert times == list(itertools.accumulate(gaps.tolist()))

    def test_periodic_emitter(self):
        dev = zigbee_device("a", 1, mu=10.0, emitter=EmitterKind.PERIODIC)
        env = build_environment([dev], seed=3)
        times = [e.time_s for e in env.iter_events(200.0)]
        gaps = np.diff(times)
        assert np.allclose(gaps, 10.0)
        assert 0.0 <= times[0] < 10.0

    def test_ble_event_atomicity(self):
        env = build_environment([ble_device("b", 0xC011_2200_0001, mu=1.0)], seed=13)
        events = list(env.iter_events(2_000.0))
        by_time = {}
        for em in events:
            by_time.setdefault(em.time_s, []).append(em.channel.label)
        for labels in by_time.values():
            assert sorted(labels) == ["ble-adv:37", "ble-adv:38", "ble-adv:39"]


class TestWindows:
    def test_windows_deliver_the_export_of_their_channel(self):
        """Windows taking turns over channel groups, under loss, deliver
        exactly the exported frames on their channels and inside their span,
        also when a window holds several channels of one device."""
        devs = [ble_device("b", 0xC011_2200_0001, mu=1.5), zigbee_device("a", 1)]
        export = list(build_environment(devs, seed=8, loss_prob=0.4).iter_events(300.0))
        plans = [
            [(ADV[0],), (ADV[1],), (ADV[2],), (CH11,)],
            [tuple(ADV), (CH11,)],
            [(ADV[0], ADV[2]), (ADV[1], CH11)],
        ]
        for plan in plans:
            expected = [
                (e.time_s, e.channel, e.frame, e.device)
                for e in export
                if e.channel in plan[int(e.time_s) % len(plan)]
            ]
            env = build_environment(devs, seed=8, loss_prob=0.4)
            heard = []
            for k in range(300):
                window = env.emissions_in_parallel(plan[k % len(plan)], float(k), k + 1.0)
                heard += [(e.time_s, e.channel, e.frame, e.device) for e in window]
            assert len(heard) > 50
            assert heard == expected, plan

    def test_frames_ordered_by_time_device_and_label(self):
        """A window over Zigbee and BLE channels delivers its frames by
        time, then device name, then channel label. Three devices share one
        times stream, so every event ties on time across devices, and each
        BLE event's three frames tie within a device; the listeners run in
        another order, and one device lists its channels out of label order."""
        shared = [
            zigbee_device("zz", 1, mu=3.0),
            dataclasses.replace(ble_device("b2", 0xC011_2200_0002, mu=3.0), channels=ADV[::-1]),
            ble_device("b1", 0xC011_2200_0001, mu=3.0),
        ]
        devs = shared + [zigbee_device("a", 2, mu=1.0)]
        block = stream_seeds(4, [0], 2)[0]
        streams = np.stack([block[0]] * len(shared) + [block[1]])
        env = Environment(devs, streams=streams)
        window = env.emissions_in_parallel([CH11, *ADV], 0.0, 60.0)
        keys = [(e.time_s, e.device, e.channel.label) for e in window]
        assert keys == sorted(keys)
        per_time = Counter(t for t, _, _ in keys)
        assert sorted(set(per_time.values())) == [1, 7]  # "a" alone; 3 + 3 + 1 tied
        tied = [(d, label) for t, d, label in keys if per_time[t] == 7][:7]
        assert tied == [
            ("b1", "ble-adv:37"), ("b1", "ble-adv:38"), ("b1", "ble-adv:39"),
            ("b2", "ble-adv:37"), ("b2", "ble-adv:38"), ("b2", "ble-adv:39"),
            ("zz", "zigbee:11"),
        ]

    def test_no_device_on_channel(self):
        env = build_environment([zigbee_device("a", 1)], seed=1)
        assert env.emissions_in_parallel((CH15,), 0.0, 50.0) == []

    def test_loss_one_silences_everything(self):
        env = build_environment([zigbee_device("a", 1)], seed=1, loss_prob=1.0)
        assert env.emissions_in_parallel((CH11,), 0.0, 1000.0) == []

    def test_time_regression_rejected(self):
        env = build_environment([zigbee_device("a", 1)], seed=1)
        env.emissions_in_parallel((CH11,), 0.0, 10.0)
        with pytest.raises(SimulationError):
            env.emissions_in_parallel((CH11,), 5.0, 6.0)
        with pytest.raises(SimulationError):
            env.emissions_in_parallel((CH11,), 20.0, 15.0)

    @pytest.mark.parametrize("t1", [math.nan, math.inf])
    def test_nan_and_infinite_window_end_rejected(self, t1):
        env = build_environment([zigbee_device("a", 1)], seed=1)
        with pytest.raises(SimulationError):
            env.emissions_in_parallel((CH11,), 0.0, t1)
        with pytest.raises(SimulationError):
            env.iter_events(t1)
        assert env.clock == 0.0
        assert env.devices[0]._emit_index == 0  # nothing was generated

    @pytest.mark.parametrize("duration", [-1.0, math.nan, math.inf])
    def test_advance_rejects_bad_durations(self, duration):
        env = build_environment([], seed=1)
        with pytest.raises(SimulationError):
            env.advance(duration)
        assert env.clock == 0.0

    def test_window_advances_clock(self):
        env = build_environment([zigbee_device("a", 1)], seed=1)
        env.emissions_in_parallel((CH11,), 0.0, 2.5)
        assert env.clock == 2.5

    def test_frames_decode_to_device_address(self):
        env = build_environment([zigbee_device("a", 7)], seed=2)
        ems = env.emissions_in_parallel((CH11,), 0.0, 50.0)
        assert ems
        for em in ems:
            addr = extract_address(decode(Protocol.ZIGBEE, em.frame))
            assert addr == ZigbeeShort(0x1A62, 7)
            assert simulation.address_table(env.testbed.devices)[addr] == "a"


class TestAliases:
    def test_alias_rotation_and_resolution(self):
        dev = zigbee_device(
            "dual", 0x1501, aliases=(ZigbeeExtended(0x000B57FFFE1732AA),)
        )
        env = build_environment([dev], seed=4)
        ems = env.emissions_in_parallel((CH11,), 0.0, 60.0)
        kinds = set()
        for em in ems:
            addr = extract_address(decode(Protocol.ZIGBEE, em.frame))
            kinds.add(type(addr).__name__)
            assert simulation.address_table(env.testbed.devices)[addr] == "dual"
        assert kinds == {"ZigbeeShort", "ZigbeeExtended"}


class TestProbes:
    def coordinator(self):
        return zigbee_device("coord", 0x0000, role=Role.COORDINATOR, mu=1000.0)

    def test_only_responders_reply(self):
        devs = [
            self.coordinator(),
            zigbee_device("e1", 1, mu=1000.0),
            zigbee_device("e2", 2, mu=1000.0),
        ]
        env = build_environment(devs, seed=6)
        responses = env.inject_probe(CH11)
        assert [r.device for r in responses] == ["coord"]
        heard = env.emissions_in_parallel((CH11,), 0.0, 0.2)
        beacons = [e for e in heard if e.device == "coord"]
        assert len(beacons) == 1
        frame = decode(Protocol.ZIGBEE, beacons[0].frame)
        assert extract_address(frame) == ZigbeeShort(0x1A62, 0x0000)

    def test_router_replies_end_device_override(self):
        router = zigbee_device("r", 5, role=Role.ROUTER, mu=1000.0)
        stubborn = zigbee_device(
            "s", 6, role=Role.END_DEVICE, mu=1000.0, responds_to_probe=True
        )
        env = build_environment([router, stubborn], seed=8)
        names = {r.device for r in env.inject_probe(CH11)}
        assert names == {"r", "s"}

    def test_empty_channel(self):
        env = build_environment([self.coordinator()], seed=9)
        assert env.inject_probe(CH15) == []

    def test_response_delay_bounded(self):
        env = build_environment(
            [self.coordinator()], seed=10, probe_response_delay_max_s=0.05
        )
        responses = env.inject_probe(CH11)
        assert all(0.0 <= r.time_s <= 0.05 for r in responses)

    def test_probe_lost(self):
        env = build_environment([self.coordinator()], seed=11, loss_prob=1.0)
        assert env.inject_probe(CH11) == []

    def test_response_while_another_channel_is_heard_is_never_delivered(self):
        devs = [self.coordinator(), zigbee_device("other", 1, channel=CH15, mu=1000.0)]
        env = build_environment(devs, seed=6, probe_response_delay_max_s=0.5)
        (response,) = env.inject_probe(CH11)
        assert response.time_s < 1.0
        assert response not in env.emissions_in_parallel((CH15,), 0.0, 1.0)
        assert response not in env.emissions_in_parallel((CH11,), 1.0, 2.0)

    def test_response_is_delivered_with_its_device(self):
        env = build_environment([self.coordinator()], seed=6, probe_response_delay_max_s=0.5)
        (response,) = env.inject_probe(CH11)
        dev = env.devices[0]
        assert dev.next_time == response.time_s
        assert env.emissions_in_parallel((CH11,), 0.0, 1.0) == [response]
        assert dev.next_time > 1.0

    def test_unsupported_protocols(self):
        env = build_environment([], seed=12)
        with pytest.raises(UnsupportedProbe):
            env.inject_probe(ADV[0])
        with pytest.raises(UnsupportedProbe):
            env.inject_probe(zwave_channel("R2"))
        with pytest.raises(UnsupportedProbe):
            env.inject_probe(yolink_channel("up"))


class TestValidation:
    def test_duplicate_addresses_rejected(self):
        devs = [zigbee_device("a", 1), zigbee_device("b", 1)]
        with pytest.raises(ScenarioError):
            build_environment(devs, seed=1)

    def test_duplicate_names_rejected(self):
        devs = [zigbee_device("a", 1), zigbee_device("a", 2)]
        with pytest.raises(ScenarioError):
            build_environment(devs, seed=1)

    def test_zigbee_single_channel_rule(self):
        with pytest.raises(ScenarioError):
            DeviceSpec(
                name="x",
                protocol=Protocol.ZIGBEE,
                role=Role.END_DEVICE,
                channels=(CH11, CH15),
                mean_interarrival_s=1.0,
                address=ZigbeeShort(1, 1),
            )

    def test_ble_needs_all_three_channels(self):
        with pytest.raises(ScenarioError):
            DeviceSpec(
                name="x",
                protocol=Protocol.BLE_ADVERTISING,
                role=Role.PERIPHERAL,
                channels=(ADV[0],),
                mean_interarrival_s=1.0,
                address=BleAdvA(1),
            )

    def test_address_protocol_mismatch(self):
        with pytest.raises(ScenarioError):
            DeviceSpec(
                name="x",
                protocol=Protocol.ZIGBEE,
                role=Role.END_DEVICE,
                channels=(CH11,),
                mean_interarrival_s=1.0,
                address=ZWaveId(1, 1),
            )

    def test_nonpositive_rate(self):
        with pytest.raises(ScenarioError):
            build_environment([zigbee_device("a", 1, mu=0.0)], seed=1)


class TestOtherProtocolFrames:
    def test_lora_device_emits_its_id(self):
        dev = DeviceSpec(
            name="leak",
            protocol=Protocol.LORA,
            role=Role.END_DEVICE,
            channels=(yolink_channel("up"),),
            mean_interarrival_s=5.0,
            address=LoRaId(0x1324, 0x42),
        )
        env = build_environment([dev], seed=14)
        ems = env.emissions_in_parallel((yolink_channel("up"),), 0.0, 100.0)
        assert ems
        frame = decode(Protocol.LORA, ems[0].frame)
        assert extract_address(frame) == LoRaId(0x1324, 0x42)

    def test_zwave_device_uses_channel_trailer(self):
        r3 = zwave_channel("R3")
        dev = DeviceSpec(
            name="base",
            protocol=Protocol.ZWAVE,
            role=Role.GATEWAY,
            channels=(r3,),
            mean_interarrival_s=5.0,
            address=ZWaveId(0x9E0B1D42, 0x01),
        )
        env = build_environment([dev], seed=15)
        ems = env.emissions_in_parallel((r3,), 0.0, 100.0)
        assert ems
        frame = decode(Protocol.ZWAVE, ems[0].frame, zwave_crc16=True)
        assert extract_address(frame) == ZWaveId(0x9E0B1D42, 0x01)


class TestLazyEncoding:
    """Frames are encoded only where a receiver decodes them: the listens of
    a scan run alone. ``run_experiment``'s array pass hears each device at
    its first audible event and encodes and decodes nothing."""

    @staticmethod
    def count_codec(monkeypatch):
        """Count encodes, frame builds, decodes and probe responses."""
        counts = Counter()

        def counted(owner, attr, key, size=lambda _: 1):
            fn = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[key] += size(result)
                return result

            monkeypatch.setattr(owner, attr, wrapper)

        for encoder in ("encode_zigbee", "encode_ble", "encode_lora", "encode_zwave"):
            counted(frames, encoder, "encoded")
        counted(frames, "decode", "decoded")
        counted(DeviceSpec, "frame", "built")
        counted(scanning, "_frame_address", "heard")
        counted(Environment, "inject_probe", "responses", size=len)
        return counts

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_experiment_encodes_and_decodes_nothing(self, name, monkeypatch):
        counts = self.count_codec(monkeypatch)
        cfg = dataclasses.replace(load_bundled_scenario(name), loss_prob=0.2)
        experiment.run_experiment(cfg)
        assert counts == {}

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_scan_encodes_only_delivered_frames(self, name, monkeypatch):
        """Spontaneous frames are encoded when a scan decodes them, never
        before; a probe response is encoded when it is scheduled."""
        counts = self.count_codec(monkeypatch)
        cfg = dataclasses.replace(load_bundled_scenario(name), trials=2, loss_prob=0.2)
        for trial in range(cfg.trials):
            lone_trial(cfg, trial)
        assert counts["heard"] > 0
        assert counts["encoded"] <= counts["heard"] + counts["responses"]


class TestEncodedFrames:
    """Each spec keeps the frames it has encoded; a cached frame is the
    bytes a fresh encode gives."""

    EXTENDED = ZigbeeExtended(0x000B57FFFE1732AA)

    def specs(self):
        yield zigbee_device("short", 0x1501, aliases=(self.EXTENDED,), role=Role.ROUTER)
        yield DeviceSpec(
            name="extended",
            protocol=Protocol.ZIGBEE,
            role=Role.COORDINATOR,
            channels=(CH11,),
            mean_interarrival_s=2.0,
            address=self.EXTENDED,
            aliases=(ZigbeeShort(0x1A62, 0x0002),),
        )
        yield ble_device("adv", 0xC0FFEE123456)
        yield DeviceSpec(
            name="leak",
            protocol=Protocol.LORA,
            role=Role.END_DEVICE,
            channels=(yolink_channel("up"),),
            mean_interarrival_s=5.0,
            address=LoRaId(0x1324, 0x42),
            aliases=(LoRaId(0x1324, 0x43),),
        )
        for phy in ("R2", "R3"):
            yield DeviceSpec(
                name=f"zw-{phy}",
                protocol=Protocol.ZWAVE,
                role=Role.GATEWAY,
                channels=(zwave_channel(phy),),
                mean_interarrival_s=5.0,
                address=ZWaveId(0x9E0B1D42, 0x01),
                aliases=(ZWaveId(0x9E0B1D42, 0x05),),
            )

    @staticmethod
    def device(spec):
        return build_environment([spec], seed=3).devices[0]

    def test_cached_frames_equal_fresh_encodes(self):
        for spec in self.specs():
            ch = spec.channels[0]
            hint = zwave_uses_crc16(ch) if spec.protocol is Protocol.ZWAVE else None
            twin = dataclasses.replace(spec)  # an equal spec with nothing cached
            dev = self.device(spec)
            addresses = spec.all_addresses()
            n = len(addresses)
            for idx in range(256 * n):  # every (sequence byte, address slot) an index reaches
                seq, slot = idx & 0xFF, idx % n
                first = spec.frame(idx)
                assert first == _encode_frame(twin, seq, slot)
                assert spec.frame(idx + 256 * n) is first  # same sequence byte and slot
                assert dev.emission((1.0, ch, idx)).frame is first
                frame = decode(spec.protocol, first, zwave_crc16=hint)
                assert extract_address(frame) == addresses[slot]
                assert getattr(frame, "seq", seq) == seq
            assert twin._encoded is not spec._encoded

    def test_cached_beacons_equal_fresh_encodes(self):
        for spec in self.specs():
            if spec.protocol is not Protocol.ZIGBEE:
                continue
            addr = spec.address
            dev = self.device(spec)
            for seq in range(256):
                if isinstance(addr, ZigbeeExtended):
                    beacon = frames.ZigbeeFrame(
                        frame_type=frames.ZigbeeFrameType.BEACON,
                        seq=seq,
                        src_pan=0xFFFF,
                        src_addr=addr.addr,
                        src_extended=True,
                    )
                else:
                    beacon = frames.zigbee_beacon(seq=seq, src_pan=addr.pan_id, src_addr=addr.addr)
                dev._emit_index = seq + 256
                response = dev.emission(dev.respond(1.0, spec.channels[0]))
                assert response.frame == frames.encode_zigbee(beacon)
                assert spec._encoded[seq, None] == frames.encode_zigbee(beacon)
                assert extract_address(decode(Protocol.ZIGBEE, response.frame)) == addr

    def test_rebuilt_spec_sees_only_its_own_frames(self):
        spec = zigbee_device("a", 0x0001, aliases=(ZigbeeShort(0x1A62, 0x0101),))
        rebuilt = dataclasses.replace(spec, aliases=(ZigbeeShort(0x1A62, 0x0202),))
        assert spec == dataclasses.replace(spec) and spec != rebuilt
        for idx in range(1, 256, 2):  # the alias's frames
            assert spec.frame(idx) != rebuilt.frame(idx)
            assert extract_address(decode(Protocol.ZIGBEE, rebuilt.frame(idx))) == ZigbeeShort(
                0x1A62, 0x0202
            )
        assert spec._encoded is not rebuilt._encoded

    def test_trials_of_one_spec_share_its_frames(self, monkeypatch):
        spec = ble_device("adv", 0x0000AABBCCDD, mu=0.5)
        first = build_environment([spec], seed=1).emissions_in_parallel(ADV, 0.0, 50.0)
        encoded = Counter()

        def counted(f):
            encoded["ble"] += 1
            return encode_ble(f)

        encode_ble = frames.encode_ble
        monkeypatch.setattr(frames, "encode_ble", counted)
        again = build_environment([spec], seed=1).emissions_in_parallel(ADV, 0.0, 50.0)
        assert first and again == first
        assert encoded["ble"] == 0
