import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import iotsweep
from iotsweep import channels as channels_module
from iotsweep.channels import (
    MHZ,
    KHZ,
    Channel,
    Protocol,
    ble_advertising_channels,
    ble_rf_channel,
    channel_sort_key,
    lora_downlink_channel,
    lora_uplink_channel,
    sort_channels,
    yolink_lora_channels,
    zigbee_channel,
    zigbee_channels,
    zwave_channel,
    zwave_channels,
    zwave_uses_crc16,
)
from iotsweep.errors import ChannelRangeError


class TestZigbee:
    def test_first_channel(self):
        ch = zigbee_channel(11)
        assert ch.center_freq_hz == 2405 * MHZ
        assert ch.bandwidth_hz == 2 * MHZ
        assert ch.protocol is Protocol.ZIGBEE

    @pytest.mark.parametrize("k,mhz", [(26, 2480), (20, 2450)])
    def test_formula(self, k, mhz):
        assert zigbee_channel(k).center_freq_hz == mhz * MHZ

    def test_spacing_and_range(self):
        chans = zigbee_channels()
        assert len(chans) == 16
        assert all(2405 * MHZ <= c.center_freq_hz <= 2480 * MHZ for c in chans)
        deltas = {
            b.center_freq_hz - a.center_freq_hz for a, b in zip(chans, chans[1:])
        }
        assert deltas == {5 * MHZ}

    @pytest.mark.parametrize("k", [10, 27, 0, -3])
    def test_out_of_range(self, k):
        with pytest.raises(ChannelRangeError):
            zigbee_channel(k)


class TestBle:
    def test_advertising_plan(self):
        byname = {c.label: c for c in ble_advertising_channels()}
        assert byname["ble-adv:37"].center_freq_hz == 2402 * MHZ
        assert byname["ble-adv:38"].center_freq_hz == 2426 * MHZ
        assert byname["ble-adv:39"].center_freq_hz == 2480 * MHZ
        assert all(c.bandwidth_hz == 1 * MHZ for c in byname.values())

    @pytest.mark.parametrize("k,mhz", [(0, 2402), (39, 2480), (12, 2426)])
    def test_rf_formula(self, k, mhz):
        assert ble_rf_channel(k).center_freq_hz == mhz * MHZ

    def test_advertising_matches_rf_grid(self):
        adv = ble_advertising_channels()
        for ch, k in zip(adv, (0, 12, 39)):
            assert ch.center_freq_hz == ble_rf_channel(k).center_freq_hz

    @pytest.mark.parametrize("k", [-1, 40])
    def test_rf_out_of_range(self, k):
        with pytest.raises(ChannelRangeError):
            ble_rf_channel(k)


class TestLora:
    def test_uplink_narrow(self):
        ch = lora_uplink_channel(0)
        assert ch.center_freq_hz == 903_200_000
        assert ch.bandwidth_hz == 125 * KHZ

    def test_uplink_last_narrow(self):
        assert lora_uplink_channel(63).center_freq_hz == 915_800_000

    def test_uplink_wide(self):
        ch = lora_uplink_channel(64)
        assert ch.center_freq_hz == 903_000_000
        assert ch.bandwidth_hz == 500 * KHZ

    def test_downlink(self):
        assert lora_downlink_channel(0).center_freq_hz == 923_300_000
        assert lora_downlink_channel(7).center_freq_hz == 927_500_000
        assert lora_downlink_channel(3).bandwidth_hz == 500 * KHZ

    @pytest.mark.parametrize("fn,k", [(lora_uplink_channel, 72), (lora_downlink_channel, 8)])
    def test_out_of_range(self, fn, k):
        with pytest.raises(ChannelRangeError):
            fn(k)


class TestZwaveAndYolink:
    def test_zwave_plan(self):
        r2, r3 = zwave_channels()
        assert (r2.center_freq_hz, r2.bandwidth_hz) == (908_400_000, 40 * KHZ)
        assert (r3.center_freq_hz, r3.bandwidth_hz) == (916_000_000, 100 * KHZ)
        assert r2.center_freq_hz < r3.center_freq_hz  # ascending

    def test_crc_variant_from_channel(self):
        assert not zwave_uses_crc16(zwave_channel("R2"))
        assert zwave_uses_crc16(zwave_channel("R3"))
        with pytest.raises(ValueError):
            zwave_uses_crc16(zigbee_channel(11))

    def test_yolink_plan(self):
        chans = yolink_lora_channels()
        assert len(chans) == 2
        up, down = chans
        assert (up.center_freq_hz, up.bandwidth_hz) == (910_290_000, 125 * KHZ)
        assert (down.center_freq_hz, down.bandwidth_hz) == (923_290_000, 125 * KHZ)


class TestChannelInvariants:
    def test_labels_unique_within_protocol(self):
        everything = zigbee_channels() + ble_advertising_channels() + zwave_channels()
        seen = {(c.protocol, c.label) for c in everything}
        assert len(seen) == len(everything)

    def test_sort_channels(self):
        mixed = zwave_channels()[::-1] + yolink_lora_channels()[::-1]
        ordered = sort_channels(mixed)
        keys = [channel_sort_key(c) for c in ordered]
        assert keys == sorted(keys)

    def test_equal_channels_hash_equal(self):
        a, b = zigbee_channel(15), zigbee_channel(15)
        assert a is b and a == b and hash(a) == hash(b)
        assert {a: "hub"}[b] == "hub"
        assert a != zigbee_channel(16)

    def test_unpickled_channel_hashes_like_a_fresh_one(self):
        """Channels store no hash and compare by identity, so in a process
        with another hash seed the unpickled channel keys a set and hashes
        as a fresh one only if unpickling returned the interned object."""
        check = (
            "import pickle, sys; from iotsweep.channels import zigbee_channel; "
            "ch = pickle.loads(sys.stdin.buffer.read()); "
            "assert {zigbee_channel(15)} == {ch} and hash(ch) == hash(zigbee_channel(15))"
        )
        env = dict(
            os.environ, PYTHONHASHSEED="12345",
            PYTHONPATH=str(Path(iotsweep.__file__).parent.parent),
        )
        done = subprocess.run(
            [sys.executable, "-c", check], input=pickle.dumps(zigbee_channel(15)),
            env=env, capture_output=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()


class TestInterning:
    """A channel is one object, however it is built."""

    def test_every_way_of_building_gives_one_object(self):
        ch = zigbee_channel(15)
        built = [
            zigbee_channel(15),
            Channel(
                center_freq_hz=2425 * MHZ,
                bandwidth_hz=2 * MHZ,
                protocol=Protocol.ZIGBEE,
                label="zigbee:15",
            ),
            Channel(2425 * MHZ, 2 * MHZ, Protocol.ZIGBEE, "zigbee:15"),
            dataclasses.replace(ch),
            dataclasses.replace(zigbee_channel(16), center_freq_hz=2425 * MHZ, label="zigbee:15"),
            copy.copy(ch),
            copy.deepcopy(ch),
            copy.deepcopy([ch, (ch,)])[1][0],
            pickle.loads(pickle.dumps(ch)),
        ]
        assert all(other is ch for other in built)
        assert {ch: 1}[built[-1]] == 1 and len(set(built)) == 1

    def test_any_field_makes_another_channel(self):
        ch = zwave_channel("R2")
        for change in (
            {"center_freq_hz": 908_500_000},
            {"bandwidth_hz": 100 * KHZ},
            {"protocol": Protocol.LORA},
            {"label": "zwave:R1"},
        ):
            other = dataclasses.replace(ch, **change)
            assert other is not ch and other != ch
            assert other is dataclasses.replace(ch, **change)

    def test_fields_are_read_only(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            zigbee_channel(11).label = "zigbee:12"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((2405 * MHZ, 0, Protocol.ZIGBEE, "bad:zero-width"), "bandwidth must be positive"),
            ((1 * MHZ, 2 * MHZ, Protocol.ZIGBEE, "bad:below-zero"), "lower edge below zero"),
        ],
        ids=["zero-width", "below-zero"],
    )
    def test_invalid_channel_is_refused_every_time_and_not_kept(self, fields, message):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                Channel(*fields)
        assert fields not in channels_module._CHANNELS
        assert all(ch.label != fields[3] for ch in channels_module._CHANNELS.values())
