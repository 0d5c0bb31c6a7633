import dataclasses
import random

import pytest

from frame_random import random_ble, random_lora, random_zigbee, random_zwave
from iotsweep.address import BleAdvA, LoRaId, ZigbeeExtended, ZigbeeShort, ZWaveId
from iotsweep.channels import Protocol
from iotsweep.errors import (
    ChecksumError,
    FrameEncodeError,
    TruncatedFrame,
    UnsupportedFrame,
)
from iotsweep.frames import (
    BleAdvPdu,
    BlePduType,
    LoRaFrame,
    ZigbeeFrame,
    ZigbeeFrameType,
    ZWaveFrame,
    beacon_request,
    decode,
    encode,
    extract_address,
    zigbee_beacon,
)


class TestZigbeeLayout:
    def test_beacon_request_bytes(self):
        raw = encode(beacon_request(seq=1))
        # FCF: type 011, dest mode 10 -> 0x0803 little-endian
        assert raw[0:2] == bytes([0x03, 0x08])
        assert raw[2] == 1
        assert raw[3:7] == b"\xff\xff\xff\xff"
        assert raw[7] == 0x07  # MAC command id
        assert len(raw) == 10  # no source fields present

    def test_data_frame_src_short(self):
        f = ZigbeeFrame(
            frame_type=ZigbeeFrameType.DATA,
            seq=7,
            dest_pan=0x1A2B,
            dest_addr=0x0000,
            src_pan=0x1A2B,
            src_addr=0x0003,
            payload=b"\x42",
        )
        raw = encode(f)
        assert decode(Protocol.ZIGBEE, raw) == f
        assert extract_address(f) == ZigbeeShort(0x1A2B, 0x0003)

    def test_beacon_requires_source(self):
        with pytest.raises(FrameEncodeError):
            encode(ZigbeeFrame(frame_type=ZigbeeFrameType.BEACON, seq=0))

    def test_beacon_request_address_is_none(self):
        raw = encode(beacon_request())
        assert extract_address(decode(Protocol.ZIGBEE, raw)) is None

    def test_extended_source(self):
        f = ZigbeeFrame(
            frame_type=ZigbeeFrameType.DATA,
            seq=9,
            src_pan=0x1111,
            src_addr=0x1122334455667788,
            src_extended=True,
        )
        back = decode(Protocol.ZIGBEE, encode(f))
        assert back == f
        assert extract_address(back) == ZigbeeExtended(0x1122334455667788)

    def test_checksum_error(self):
        raw = bytearray(encode(zigbee_beacon(seq=3, src_pan=0x2222, src_addr=0x0001)))
        raw[-1] ^= 0xFF
        with pytest.raises(ChecksumError) as err:
            decode(Protocol.ZIGBEE, bytes(raw))
        assert err.value.offset == len(raw) - 2

    def test_truncated(self):
        with pytest.raises(TruncatedFrame):
            decode(Protocol.ZIGBEE, b"\x01\x02")

    def test_ack_frame_type_unsupported(self):
        # frame type 2 (ack) is outside the simplified codec
        body = bytes([0x02, 0x00, 0x05])
        from iotsweep.checksums import zigbee_fcs

        raw = body + zigbee_fcs(body).to_bytes(2, "little")
        with pytest.raises(UnsupportedFrame):
            decode(Protocol.ZIGBEE, raw)


class TestBleLayout:
    def test_access_address_serialization(self):
        raw = encode(BleAdvPdu(BlePduType.ADV_NONCONN_IND, adv_a=0x665544332211))
        assert raw[0:4] == bytes([0xD6, 0xBE, 0x89, 0x8E])
        assert raw[4] == 0x02  # ADV_NONCONN_IND
        assert raw[5] == 6  # AdvA only
        assert raw[6:12] == bytes([0x11, 0x22, 0x33, 0x44, 0x55, 0x66])

    def test_round_trip_with_data(self):
        f = BleAdvPdu(BlePduType.ADV_IND, adv_a=0xC01122000001, adv_data=b"\x02\x01\x06")
        assert decode(Protocol.BLE_ADVERTISING, encode(f)) == f

    def test_adv_data_cap(self):
        with pytest.raises(FrameEncodeError):
            encode(BleAdvPdu(BlePduType.ADV_IND, adv_a=1, adv_data=bytes(32)))

    def test_wrong_access_address(self):
        raw = bytearray(encode(BleAdvPdu(BlePduType.ADV_IND, adv_a=5)))
        raw[0] ^= 0x01
        with pytest.raises(UnsupportedFrame):
            decode(Protocol.BLE_ADVERTISING, bytes(raw))

    def test_crc_flip(self):
        raw = bytearray(encode(BleAdvPdu(BlePduType.ADV_IND, adv_a=5)))
        raw[-1] ^= 0x80
        with pytest.raises(ChecksumError):
            decode(Protocol.BLE_ADVERTISING, bytes(raw))

    def test_extract(self):
        f = BleAdvPdu(BlePduType.ADV_SCAN_IND, adv_a=0xA1B2C3D4E5F6)
        assert extract_address(f) == BleAdvA(0xA1B2C3D4E5F6)


class TestLoRaLayout:
    def test_device_id_is_third_payload_byte(self):
        f = LoRaFrame(sync_word=0x1324, payload=bytes([0xA0, 0x07, 0x42, 0x9C]))
        raw = encode(f)
        assert raw[0:2] == bytes([0x13, 0x24])  # sync word big-endian
        back = decode(Protocol.LORA, raw)
        assert back == f
        assert extract_address(back) == LoRaId(0x1324, 0x42)

    def test_short_payload_rejected(self):
        with pytest.raises(FrameEncodeError):
            encode(LoRaFrame(sync_word=1, payload=b"\x01\x02\x03"))
        with pytest.raises(TruncatedFrame):
            decode(Protocol.LORA, b"\x01\x02\x03\x04\x05")


class TestZWaveLayout:
    def test_r2_round_trip_and_extract(self):
        f = ZWaveFrame(
            home_id=0x9E0B1D42,
            source_id=0x03,
            frame_control=0x4101,
            dest_id=0xFF,
            payload=b"\x20\x01",
            crc16=False,
        )
        raw = encode(f)
        assert raw[0:4] == bytes([0x9E, 0x0B, 0x1D, 0x42])  # home id big-endian
        assert raw[7] == len(raw)  # length counts the whole MPDU
        back = decode(Protocol.ZWAVE, raw, zwave_crc16=False)
        assert back == f
        assert extract_address(back) == ZWaveId(0x9E0B1D42, 0x03)

    def test_r3_round_trip(self):
        f = ZWaveFrame(0x01020304, 0x01, 0x0200, 0x05, b"\x84\x01", crc16=True)
        assert decode(Protocol.ZWAVE, encode(f), zwave_crc16=True) == f

    def test_autodetect_both_variants(self):
        r2 = ZWaveFrame(0xAAAAAAAA, 2, 0x4101, 1, b"\x25\x03", crc16=False)
        r3 = ZWaveFrame(0xBBBBBBBB, 3, 0x4101, 1, b"\x25\x03\x00\x01\x02", crc16=True)
        assert decode(Protocol.ZWAVE, encode(r2)) == r2
        assert decode(Protocol.ZWAVE, encode(r3)) == r3

    def test_one_byte_truncated(self):
        with pytest.raises(TruncatedFrame):
            decode(Protocol.ZWAVE, b"\x9e")

    def test_flip_trailer(self):
        raw = bytearray(encode(ZWaveFrame(0x12345678, 7, 0, 0xFF, b"\x01", crc16=False)))
        raw[-1] ^= 0x55
        with pytest.raises(ChecksumError):
            decode(Protocol.ZWAVE, bytes(raw), zwave_crc16=False)

    def test_all_zero_body_has_ff_checksum(self):
        f = ZWaveFrame(0, 0, 0, 0, payload=b"", crc16=False)
        raw = bytearray(encode(f))
        # zero the length byte's contribution out of the body, then the
        # remaining all-zero body folds to the 0xFF init
        assert raw[-1] == 0xFF ^ raw[7]


class TestRoundTripSweep:
    @pytest.mark.parametrize(
        "protocol,make",
        [
            (Protocol.ZIGBEE, random_zigbee),
            (Protocol.BLE_ADVERTISING, random_ble),
            (Protocol.LORA, random_lora),
            (Protocol.ZWAVE, random_zwave),
        ],
    )
    def test_decode_encode_identity(self, protocol, make):
        rng = random.Random(20260808)
        for _ in range(500):
            frame = make(rng)
            hint = frame.crc16 if isinstance(frame, ZWaveFrame) else None
            assert decode(protocol, encode(frame), zwave_crc16=hint) == frame


class TestEncodeGuards:
    def test_extended_flag_without_source_rejected(self):
        f = ZigbeeFrame(frame_type=ZigbeeFrameType.DATA, seq=0, src_extended=True)
        with pytest.raises(FrameEncodeError):
            encode(f)

    @pytest.mark.parametrize(
        "kw",
        [
            {"dest_pan": 0x10000, "dest_addr": 1},
            {"dest_pan": 1, "dest_addr": -1},
            {"src_pan": 0x1FFFF, "src_addr": 1},
            {"src_pan": 1, "src_addr": 0x10000},
        ],
    )
    def test_field_ranges(self, kw):
        f = ZigbeeFrame(frame_type=ZigbeeFrameType.DATA, seq=0, **kw)
        with pytest.raises(FrameEncodeError):
            encode(f)


class TestAddressHash:
    ADDRESSES = [
        ZigbeeShort(0x1A2B, 0x0001),
        ZigbeeExtended(0x0011223344556677),
        BleAdvA(0xC0FFEE123456),
        LoRaId(0x3444, 7),
        ZWaveId(0xCAFE0001, 2),
    ]

    @pytest.mark.parametrize("addr", ADDRESSES, ids=str)
    def test_hash_is_the_field_tuple_hash(self, addr):
        """The stored hash is the one a frozen dataclass generates, so sets of
        addresses keep their order."""
        assert hash(addr) == hash(dataclasses.astuple(addr))
        twin = dataclasses.replace(addr)
        assert twin is not addr and twin == addr and hash(twin) == hash(addr)
        assert repr(addr) == repr(twin) and "_hash" not in repr(addr)
