"""Byte-exact encode/decode of simplified frames and address extraction.

Layouts (all multi-byte integers little-endian unless noted):

  Zigbee  [FCF 2][seq 1][dest PAN 2][dest addr 2][src PAN 2][src 2 or 8]
          [payload][FCS 2]
          FCF bits 0-2: frame type (000 beacon, 001 data, 011 MAC command);
          bits 10-11: dest mode (00 absent, 10 short);
          bits 14-15: src mode (00 absent, 10 short, 11 extended);
          all other FCF bits fixed to zero. Dest/src fields present only when
          the corresponding mode says so. MAC command id is payload byte 0.

  BLE     [AA 4 = 0x8E89BED6][type 1][length 1][AdvA 6][AdvData 0..31][CRC 3]
          CRC-24 covers everything after the access address.

  LoRa    [sync word 2 BE][payload >= 4 bytes]; the PHY CRC is abstracted
          away. The device id byte sits at payload index 2.

  Z-Wave  [Home ID 4 BE][Src ID 1][Frame Ctl 2][Len 1][Dst ID 1][payload]
          [check: XOR 1 byte on R2, CRC-16 2 bytes BE on R3]
          Len counts the complete MPDU including the check field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import checksums
from .address import BleAdvA, DeviceAddress, LoRaId, ZigbeeExtended, ZigbeeShort, ZWaveId
from .channels import Protocol
from .errors import ChecksumError, FrameEncodeError, TruncatedFrame, UnsupportedFrame


# ---------------------------------------------------------------------------
# Zigbee (IEEE 802.15.4 MAC subset)

class ZigbeeFrameType(Enum):
    BEACON = 0
    DATA = 1
    MAC_COMMAND = 3


MAC_CMD_BEACON_REQUEST = 0x07
BROADCAST_PAN = 0xFFFF
BROADCAST_ADDR = 0xFFFF

_SRC_MODE_NONE = 0
_SRC_MODE_SHORT = 2
_SRC_MODE_EXTENDED = 3
_DEST_MODE_NONE = 0
_DEST_MODE_SHORT = 2


@dataclass(frozen=True)
class ZigbeeFrame:
    frame_type: ZigbeeFrameType
    seq: int
    dest_pan: int | None = None
    dest_addr: int | None = None
    src_pan: int | None = None
    src_addr: int | None = None
    src_extended: bool = False
    payload: bytes = b""

    def command_id(self) -> int | None:
        if self.frame_type is ZigbeeFrameType.MAC_COMMAND and self.payload:
            return self.payload[0]
        return None


def beacon_request(seq: int = 0) -> ZigbeeFrame:
    """The broadcast probe: MAC command 0x07 to PAN/addr 0xFFFF, sourceless."""
    return ZigbeeFrame(
        frame_type=ZigbeeFrameType.MAC_COMMAND,
        seq=seq,
        dest_pan=BROADCAST_PAN,
        dest_addr=BROADCAST_ADDR,
        payload=bytes([MAC_CMD_BEACON_REQUEST]),
    )


def zigbee_beacon(seq: int, src_pan: int, src_addr: int, payload: bytes = b"") -> ZigbeeFrame:
    """A beacon reply; beacons always carry a source address."""
    return ZigbeeFrame(
        frame_type=ZigbeeFrameType.BEACON,
        seq=seq,
        src_pan=src_pan,
        src_addr=src_addr,
        payload=payload,
    )


def _validate_zigbee(f: ZigbeeFrame) -> None:
    if not 0 <= f.seq <= 0xFF:
        raise FrameEncodeError(f"seq out of range: {f.seq}")
    if (f.dest_pan is None) != (f.dest_addr is None):
        raise FrameEncodeError("dest_pan and dest_addr must be set together")
    if f.src_addr is not None and f.src_pan is None:
        raise FrameEncodeError("src_pan required when src_addr present")
    if f.src_addr is None and f.src_pan is not None:
        raise FrameEncodeError("src_pan without src_addr")
    if f.src_addr is None and f.src_extended:
        raise FrameEncodeError("src_extended is meaningless without src_addr")
    for name, value in (("dest_pan", f.dest_pan), ("dest_addr", f.dest_addr),
                        ("src_pan", f.src_pan)):
        if value is not None and not 0 <= value <= 0xFFFF:
            raise FrameEncodeError(f"{name} does not fit 16 bits")
    src_bits = 64 if f.src_extended else 16
    if f.src_addr is not None and not 0 <= f.src_addr < (1 << src_bits):
        raise FrameEncodeError(f"src_addr does not fit {src_bits} bits")
    if f.frame_type is ZigbeeFrameType.MAC_COMMAND and not f.payload:
        raise FrameEncodeError("MAC command frame needs a command id byte")
    if f.frame_type is ZigbeeFrameType.BEACON and f.src_addr is None:
        raise FrameEncodeError("beacon frames carry a source address")
    if f.command_id() == MAC_CMD_BEACON_REQUEST:
        if f.src_addr is not None:
            raise FrameEncodeError("beacon request carries no source address")
        if f.dest_pan != BROADCAST_PAN or f.dest_addr != BROADCAST_ADDR:
            raise FrameEncodeError("beacon request is addressed to 0xFFFF/0xFFFF")


def encode_zigbee(f: ZigbeeFrame) -> bytes:
    _validate_zigbee(f)
    dest_mode = _DEST_MODE_NONE if f.dest_addr is None else _DEST_MODE_SHORT
    if f.src_addr is None:
        src_mode = _SRC_MODE_NONE
    else:
        src_mode = _SRC_MODE_EXTENDED if f.src_extended else _SRC_MODE_SHORT
    fcf = f.frame_type.value | (dest_mode << 10) | (src_mode << 14)
    out = bytearray(fcf.to_bytes(2, "little"))
    out.append(f.seq)
    if dest_mode:
        out += f.dest_pan.to_bytes(2, "little")
        out += f.dest_addr.to_bytes(2, "little")
    if src_mode:
        out += f.src_pan.to_bytes(2, "little")
        out += f.src_addr.to_bytes(8 if f.src_extended else 2, "little")
    out += f.payload
    out += checksums.zigbee_fcs(bytes(out)).to_bytes(2, "little")
    return bytes(out)


def decode_zigbee(data: bytes) -> ZigbeeFrame:
    if len(data) < 5:  # FCF + seq + FCS
        raise TruncatedFrame(f"zigbee frame needs >= 5 bytes, got {len(data)}", offset=len(data))
    body, fcs_bytes = data[:-2], data[-2:]
    expect = checksums.zigbee_fcs(body)
    got = int.from_bytes(fcs_bytes, "little")
    if expect != got:
        raise ChecksumError(
            f"zigbee FCS mismatch: computed 0x{expect:04X}, frame carries 0x{got:04X}",
            offset=len(data) - 2,
        )
    fcf = int.from_bytes(body[0:2], "little")
    type_code = fcf & 0x7
    try:
        frame_type = ZigbeeFrameType(type_code)
    except ValueError:
        raise UnsupportedFrame(f"unsupported zigbee frame type {type_code}", offset=0) from None
    dest_mode = (fcf >> 10) & 0x3
    src_mode = (fcf >> 14) & 0x3
    if dest_mode not in (_DEST_MODE_NONE, _DEST_MODE_SHORT):
        raise UnsupportedFrame(f"unsupported dest addressing mode {dest_mode}", offset=0)
    if src_mode not in (_SRC_MODE_NONE, _SRC_MODE_SHORT, _SRC_MODE_EXTENDED):
        raise UnsupportedFrame(f"unsupported src addressing mode {src_mode}", offset=0)

    pos = 2
    seq = body[pos]
    pos += 1
    dest_pan = dest_addr = src_pan = src_addr = None
    src_extended = False
    if dest_mode == _DEST_MODE_SHORT:
        if len(body) < pos + 4:
            raise TruncatedFrame("zigbee frame ends inside destination fields", offset=len(body))
        dest_pan = int.from_bytes(body[pos : pos + 2], "little")
        dest_addr = int.from_bytes(body[pos + 2 : pos + 4], "little")
        pos += 4
    if src_mode != _SRC_MODE_NONE:
        src_len = 8 if src_mode == _SRC_MODE_EXTENDED else 2
        if len(body) < pos + 2 + src_len:
            raise TruncatedFrame("zigbee frame ends inside source fields", offset=len(body))
        src_pan = int.from_bytes(body[pos : pos + 2], "little")
        src_addr = int.from_bytes(body[pos + 2 : pos + 2 + src_len], "little")
        src_extended = src_mode == _SRC_MODE_EXTENDED
        pos += 2 + src_len
    return ZigbeeFrame(
        frame_type=frame_type,
        seq=seq,
        dest_pan=dest_pan,
        dest_addr=dest_addr,
        src_pan=src_pan,
        src_addr=src_addr,
        src_extended=src_extended,
        payload=bytes(body[pos:]),
    )


# ---------------------------------------------------------------------------
# BLE advertising PDU

BLE_ACCESS_ADDRESS = 0x8E89BED6
_BLE_MAX_ADV_DATA = 31


class BlePduType(Enum):
    ADV_IND = 0x0
    ADV_NONCONN_IND = 0x2
    ADV_SCAN_IND = 0x6


@dataclass(frozen=True)
class BleAdvPdu:
    pdu_type: BlePduType
    adv_a: int
    adv_data: bytes = b""
    access_address: int = BLE_ACCESS_ADDRESS


def encode_ble(f: BleAdvPdu) -> bytes:
    if f.access_address != BLE_ACCESS_ADDRESS:
        raise FrameEncodeError(
            f"advertising access address is fixed to 0x{BLE_ACCESS_ADDRESS:08X}"
        )
    if not 0 <= f.adv_a < (1 << 48):
        raise FrameEncodeError("AdvA must fit 48 bits")
    if len(f.adv_data) > _BLE_MAX_ADV_DATA:
        raise FrameEncodeError(f"AdvData limited to {_BLE_MAX_ADV_DATA} bytes")
    pdu = bytearray()
    pdu.append(f.pdu_type.value & 0x0F)  # upper nibble RFU, zero
    pdu.append(6 + len(f.adv_data))
    pdu += f.adv_a.to_bytes(6, "little")
    pdu += f.adv_data
    crc = checksums.ble_crc24(bytes(pdu))
    return BLE_ACCESS_ADDRESS.to_bytes(4, "little") + bytes(pdu) + crc.to_bytes(3, "little")


def decode_ble(data: bytes) -> BleAdvPdu:
    if len(data) < 15:  # AA + header + AdvA + CRC
        raise TruncatedFrame(f"ble frame needs >= 15 bytes, got {len(data)}", offset=len(data))
    aa = int.from_bytes(data[0:4], "little")
    if aa != BLE_ACCESS_ADDRESS:
        raise UnsupportedFrame(
            f"not an advertising access address: 0x{aa:08X}", offset=0
        )
    type_byte, length = data[4], data[5]
    if type_byte & 0xF0:
        raise UnsupportedFrame("RFU bits set in PDU header", offset=4)
    try:
        pdu_type = BlePduType(type_byte & 0x0F)
    except ValueError:
        raise UnsupportedFrame(f"unsupported PDU type {type_byte & 0x0F:#x}", offset=4) from None
    if not 6 <= length <= 6 + _BLE_MAX_ADV_DATA:
        raise UnsupportedFrame(f"implausible PDU length {length}", offset=5)
    expected_total = 4 + 2 + length + 3
    if len(data) < expected_total:
        raise TruncatedFrame(
            f"ble frame shorter than its stated length ({len(data)} < {expected_total})",
            offset=len(data),
        )
    if len(data) > expected_total:
        raise UnsupportedFrame(f"{len(data) - expected_total} trailing bytes", offset=expected_total)
    pdu = data[4 : 6 + length]
    crc = int.from_bytes(data[6 + length : 6 + length + 3], "little")
    expect = checksums.ble_crc24(pdu)
    if crc != expect:
        raise ChecksumError(
            f"ble CRC mismatch: computed 0x{expect:06X}, frame carries 0x{crc:06X}",
            offset=6 + length,
        )
    return BleAdvPdu(
        pdu_type=pdu_type,
        adv_a=int.from_bytes(data[6:12], "little"),
        adv_data=bytes(data[12 : 6 + length]),
    )


# ---------------------------------------------------------------------------
# LoRa

LORA_DEVICE_ID_INDEX = 2  # third payload byte


@dataclass(frozen=True)
class LoRaFrame:
    sync_word: int
    payload: bytes


def encode_lora(f: LoRaFrame) -> bytes:
    if not 0 <= f.sync_word <= 0xFFFF:
        raise FrameEncodeError("sync word must fit 16 bits")
    if len(f.payload) < 4:
        raise FrameEncodeError("payload must be >= 4 bytes (device address region)")
    return f.sync_word.to_bytes(2, "big") + f.payload


def decode_lora(data: bytes) -> LoRaFrame:
    if len(data) < 6:
        raise TruncatedFrame(f"lora frame needs >= 6 bytes, got {len(data)}", offset=len(data))
    return LoRaFrame(sync_word=int.from_bytes(data[0:2], "big"), payload=bytes(data[2:]))


# ---------------------------------------------------------------------------
# Z-Wave (G.9959)

@dataclass(frozen=True)
class ZWaveFrame:
    home_id: int
    source_id: int
    frame_control: int
    dest_id: int
    payload: bytes = b""
    crc16: bool = False  # False: R2 XOR trailer; True: R3 CRC-16 trailer

    def mpdu_length(self) -> int:
        return 9 + len(self.payload) + (2 if self.crc16 else 1)


def encode_zwave(f: ZWaveFrame) -> bytes:
    if not 0 <= f.home_id < (1 << 32):
        raise FrameEncodeError("home id must fit 32 bits")
    if not 0 <= f.source_id <= 0xFF or not 0 <= f.dest_id <= 0xFF:
        raise FrameEncodeError("node ids are single bytes")
    if not 0 <= f.frame_control <= 0xFFFF:
        raise FrameEncodeError("frame control must fit 16 bits")
    length = f.mpdu_length()
    if length > 0xFF:
        raise FrameEncodeError(f"MPDU too long for length byte: {length}")
    out = bytearray(f.home_id.to_bytes(4, "big"))
    out.append(f.source_id)
    out += f.frame_control.to_bytes(2, "little")
    out.append(length)
    out.append(f.dest_id)
    out += f.payload
    if f.crc16:
        out += checksums.zwave_crc16(bytes(out)).to_bytes(2, "big")
    else:
        out.append(checksums.zwave_xor8(bytes(out)))
    return bytes(out)


def _zwave_check_ok(data: bytes, crc16: bool) -> bool:
    if crc16:
        return checksums.zwave_crc16(data[:-2]) == int.from_bytes(data[-2:], "big")
    return checksums.zwave_xor8(data[:-1]) == data[-1]


def decode_zwave(data: bytes, crc16: bool | None = None) -> ZWaveFrame:
    """Decode a Z-Wave MPDU.

    ``crc16`` selects the trailer variant (R3 when True). When ``None`` the
    decoder tries the XOR trailer first and falls back to CRC-16; prefer an
    explicit value when the PHY is known, since a random body has a 1/256
    chance of looking XOR-consistent.
    """
    if len(data) < 10:
        raise TruncatedFrame(f"zwave frame needs >= 10 bytes, got {len(data)}", offset=len(data))
    stated = data[7]
    if len(data) < stated:
        raise TruncatedFrame(
            f"zwave frame shorter than its length field ({len(data)} < {stated})",
            offset=len(data),
        )
    if len(data) > stated:
        raise UnsupportedFrame(f"{len(data) - stated} trailing bytes", offset=stated)

    if crc16 is None:
        if _zwave_check_ok(data, crc16=False):
            crc16 = False
        elif len(data) >= 11 and _zwave_check_ok(data, crc16=True):
            crc16 = True
        else:
            raise ChecksumError(
                "zwave trailer matches neither the XOR nor the CRC-16 variant",
                offset=len(data) - 1,
            )
    else:
        check_len = 2 if crc16 else 1
        if len(data) < 9 + check_len:
            raise TruncatedFrame("zwave frame ends inside the check field", offset=len(data))
        if not _zwave_check_ok(data, crc16):
            name = "CRC-16" if crc16 else "XOR"
            raise ChecksumError(f"zwave {name} trailer mismatch", offset=len(data) - check_len)

    check_len = 2 if crc16 else 1
    return ZWaveFrame(
        home_id=int.from_bytes(data[0:4], "big"),
        source_id=data[4],
        frame_control=int.from_bytes(data[5:7], "little"),
        dest_id=data[8],
        payload=bytes(data[9 : len(data) - check_len]),
        crc16=crc16,
    )


# ---------------------------------------------------------------------------
# Dispatch

Frame = ZigbeeFrame | BleAdvPdu | LoRaFrame | ZWaveFrame

_ENCODERS = {
    ZigbeeFrame: encode_zigbee,
    BleAdvPdu: encode_ble,
    LoRaFrame: encode_lora,
    ZWaveFrame: encode_zwave,
}


def encode(frame: Frame) -> bytes:
    try:
        enc = _ENCODERS[type(frame)]
    except KeyError:
        raise FrameEncodeError(f"not a frame type: {type(frame).__name__}") from None
    return enc(frame)


def decode(protocol: Protocol, data: bytes, *, zwave_crc16: bool | None = None) -> Frame:
    if protocol is Protocol.ZIGBEE:
        return decode_zigbee(data)
    if protocol is Protocol.BLE_ADVERTISING:
        return decode_ble(data)
    if protocol is Protocol.LORA:
        return decode_lora(data)
    if protocol is Protocol.ZWAVE:
        return decode_zwave(data, crc16=zwave_crc16)
    raise UnsupportedFrame(f"no decoder for protocol {protocol}")


def extract_address(frame: Frame) -> DeviceAddress | None:
    """The enumeration identity of a frame, or None for sourceless frames.

    Beacon requests (and any Zigbee frame without a source field) have no
    identity; everything else maps to its protocol's address variant.
    """
    if isinstance(frame, ZigbeeFrame):
        if frame.src_addr is None:
            return None
        if frame.src_extended:
            return ZigbeeExtended(frame.src_addr)
        return ZigbeeShort(frame.src_pan, frame.src_addr)
    if isinstance(frame, BleAdvPdu):
        return BleAdvA(frame.adv_a)
    if isinstance(frame, LoRaFrame):
        return LoRaId(frame.sync_word, frame.payload[LORA_DEVICE_ID_INDEX])
    if isinstance(frame, ZWaveFrame):
        return ZWaveId(frame.home_id, frame.source_id)
    raise TypeError(f"not a frame: {frame!r}")
