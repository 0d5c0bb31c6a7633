"""Device addresses: the identity a scanner extracts from a frame.

Equality of these values is the dedup identity for device enumeration.
A frame with no source identity yields ``None`` rather than an address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


def _check_range(name: str, value: int, bits: int) -> None:
    if not 0 <= value < (1 << bits):
        raise ValueError(f"{name} must fit in {bits} bits, got {value:#x}")


@dataclass(frozen=True)
class ZigbeeShort:
    """16-bit network address scoped by its PAN id."""

    pan_id: int
    addr: int

    def __post_init__(self):
        _check_range("pan_id", self.pan_id, 16)
        _check_range("addr", self.addr, 16)

    def __str__(self) -> str:
        return f"zigbee-short:0x{self.pan_id:04X}:0x{self.addr:04X}"


@dataclass(frozen=True)
class ZigbeeExtended:
    """64-bit manufacturer-assigned address, globally unique."""

    addr: int

    def __post_init__(self):
        _check_range("addr", self.addr, 64)

    def __str__(self) -> str:
        return f"zigbee-ext:0x{self.addr:016X}"


@dataclass(frozen=True)
class BleAdvA:
    """48-bit BLE advertising address."""

    addr: int

    def __post_init__(self):
        _check_range("addr", self.addr, 48)

    def __str__(self) -> str:
        octets = [(self.addr >> (8 * i)) & 0xFF for i in range(5, -1, -1)]
        return "ble:" + ":".join(f"{o:02X}" for o in octets)


@dataclass(frozen=True)
class LoRaId:
    """LoRa identity: PHY sync word (network) plus the one-byte device id
    read from the payload."""

    sync_word: int
    device_id: int

    def __post_init__(self):
        _check_range("sync_word", self.sync_word, 16)
        _check_range("device_id", self.device_id, 8)

    def __str__(self) -> str:
        return f"lora:0x{self.sync_word:04X}:0x{self.device_id:02X}"


@dataclass(frozen=True)
class ZWaveId:
    """Z-Wave identity: 32-bit Home ID plus one-byte Source ID.

    Source ID 1 is the primary controller; 0 marks a device not yet joined
    to any network.
    """

    home_id: int
    source_id: int

    def __post_init__(self):
        _check_range("home_id", self.home_id, 32)
        _check_range("source_id", self.source_id, 8)

    def __str__(self) -> str:
        return f"zwave:0x{self.home_id:08X}:0x{self.source_id:02X}"


DeviceAddress = Union[ZigbeeShort, ZigbeeExtended, BleAdvA, LoRaId, ZWaveId]


def parse_address(text: str) -> DeviceAddress:
    """Parse the textual forms produced by ``str()`` on any address."""
    parts = text.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "zigbee-short" and len(parts) == 3:
            return ZigbeeShort(int(parts[1], 0), int(parts[2], 0))
        if kind == "zigbee-ext" and len(parts) == 2:
            return ZigbeeExtended(int(parts[1], 0))
        if kind == "ble" and len(parts) == 7:
            value = 0
            for octet in parts[1:]:
                value = (value << 8) | int(octet, 16)
            return BleAdvA(value)
        if kind == "ble" and len(parts) == 2:
            return BleAdvA(int(parts[1], 0))
        if kind == "lora" and len(parts) == 3:
            return LoRaId(int(parts[1], 0), int(parts[2], 0))
        if kind == "zwave" and len(parts) == 3:
            return ZWaveId(int(parts[1], 0), int(parts[2], 0))
    except ValueError as exc:
        raise ValueError(f"bad address {text!r}: {exc}") from None
    raise ValueError(f"unrecognized address syntax: {text!r}")
