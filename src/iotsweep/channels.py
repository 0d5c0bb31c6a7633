"""Protocol identities, channels, and the standard channel plans.

Center frequencies and bandwidths are stored as integer hertz: every plan
value used here (including 910.29 MHz) is a whole number of Hz, so channel
edge arithmetic is exact and grouping comparisons never hit float error.

A channel is one object: every way of building it returns the same
interned ``Channel``, so the scanner and the simulator key their channel
lookups by identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ChannelRangeError

MHZ = 1_000_000
KHZ = 1_000


class Protocol(Enum):
    ZIGBEE = "zigbee"
    BLE_ADVERTISING = "ble"
    LORA = "lora"
    ZWAVE = "zwave"


#: Protocols with a broadcast probe the scanner can send (beacon request).
PROBEABLE_PROTOCOLS = frozenset({Protocol.ZIGBEE})


#: Every Channel built so far, by its four fields: a channel is one object.
_CHANNELS: dict[tuple, Channel] = {}


@dataclass(frozen=True, eq=False, init=False)
class Channel:
    """A scannable channel: center frequency, width, owning protocol, label.

    The label is the protocol-native name (``zigbee:15``, ``ble-adv:37``,
    ``zwave:R2``, ...) and is unique within a protocol.

    A channel is interned: building one with the fields of an existing
    channel returns that object, whichever way it is built (a factory, the
    constructor, ``dataclasses.replace``, ``copy.deepcopy``, ``pickle``).
    So equality is identity and the hash is ``object``'s, both in C, and a
    channel keys sets and dicts at no more cost than any object.
    """

    center_freq_hz: int
    bandwidth_hz: int
    protocol: Protocol
    label: str

    def __new__(cls, center_freq_hz: int, bandwidth_hz: int, protocol: Protocol, label: str):
        fields = (center_freq_hz, bandwidth_hz, protocol, label)
        channel = _CHANNELS.get(fields)
        if channel is None:
            if bandwidth_hz <= 0:
                raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
            if center_freq_hz <= bandwidth_hz // 2:
                raise ValueError("channel lower edge below zero")
            channel = object.__new__(cls)
            for name, value in zip(("center_freq_hz", "bandwidth_hz", "protocol", "label"), fields):
                object.__setattr__(channel, name, value)
            channel = _CHANNELS.setdefault(fields, channel)
        return channel

    def __reduce__(self):
        # copies and unpickled channels are rebuilt through __new__, so
        # they are the interned object
        return Channel, (self.center_freq_hz, self.bandwidth_hz, self.protocol, self.label)

    def __str__(self) -> str:
        return self.label


def channel_sort_key(ch: Channel) -> tuple:
    """Deterministic ascending-frequency ordering for channel lists."""
    return (ch.center_freq_hz, ch.bandwidth_hz, ch.protocol.value, ch.label)


def sort_channels(channels) -> list[Channel]:
    """Ascending-frequency copy, deduplicated (grouping requires this order)."""
    return sorted(set(channels), key=channel_sort_key)


def zigbee_channel(k: int) -> Channel:
    """Zigbee channel k in 11..26: 2 MHz wide, centered at 2405 + 5(k-11) MHz."""
    if not 11 <= k <= 26:
        raise ChannelRangeError(f"zigbee channel index must be 11..26, got {k}")
    return Channel(
        center_freq_hz=(2405 + 5 * (k - 11)) * MHZ,
        bandwidth_hz=2 * MHZ,
        protocol=Protocol.ZIGBEE,
        label=f"zigbee:{k}",
    )


def zigbee_channels() -> list[Channel]:
    """All 16 Zigbee channels, ascending."""
    return [zigbee_channel(k) for k in range(11, 27)]


def ble_rf_channel(k: int) -> Channel:
    """BLE RF channel k in 0..39: 1 MHz wide, centered at 2402 + 2k MHz."""
    if not 0 <= k <= 39:
        raise ChannelRangeError(f"ble rf channel index must be 0..39, got {k}")
    return Channel(
        center_freq_hz=(2402 + 2 * k) * MHZ,
        bandwidth_hz=1 * MHZ,
        protocol=Protocol.BLE_ADVERTISING,
        label=f"ble-rf:{k}",
    )


# Advertising label -> center MHz. 37/38/39 sit at the band edges and middle
# to dodge the most-used Wi-Fi channels.
_BLE_ADV_CENTERS_MHZ = {37: 2402, 38: 2426, 39: 2480}


def ble_advertising_channel(label: int) -> Channel:
    if label not in _BLE_ADV_CENTERS_MHZ:
        raise ChannelRangeError(f"ble advertising channel must be 37..39, got {label}")
    return Channel(
        center_freq_hz=_BLE_ADV_CENTERS_MHZ[label] * MHZ,
        bandwidth_hz=1 * MHZ,
        protocol=Protocol.BLE_ADVERTISING,
        label=f"ble-adv:{label}",
    )


def ble_advertising_channels() -> list[Channel]:
    """The three advertising channels 37/38/39 (2402/2426/2480 MHz)."""
    return [ble_advertising_channel(n) for n in (37, 38, 39)]


def lora_uplink_channel(k: int) -> Channel:
    """US915 uplink k: 0..63 are 125 kHz at 903.2 + 0.2k MHz, 64..71 are
    500 kHz at 903 + 1.6(k-64) MHz."""
    if not 0 <= k <= 71:
        raise ChannelRangeError(f"lora uplink channel index must be 0..71, got {k}")
    if k <= 63:
        center = 903_200_000 + 200 * KHZ * k
        bw = 125 * KHZ
    else:
        center = 903_000_000 + 1600 * KHZ * (k - 64)
        bw = 500 * KHZ
    return Channel(center, bw, Protocol.LORA, f"lora-up:{k}")


def lora_downlink_channel(k: int) -> Channel:
    """US915 downlink k in 0..7: 500 kHz at 923.3 + 0.6k MHz."""
    if not 0 <= k <= 7:
        raise ChannelRangeError(f"lora downlink channel index must be 0..7, got {k}")
    return Channel(923_300_000 + 600 * KHZ * k, 500 * KHZ, Protocol.LORA, f"lora-down:{k}")


def zwave_channel(phy: str) -> Channel:
    """Z-Wave PHY channel by name: R2 (908.4 MHz, 40 kHz) or R3 (916 MHz, 100 kHz).

    R1 shares 908.4 MHz with R2 at a slower rate and is omitted from the
    default plan; deployments that need it can construct it directly.
    """
    phy = phy.upper()
    if phy == "R2":
        return Channel(908_400_000, 40 * KHZ, Protocol.ZWAVE, "zwave:R2")
    if phy == "R3":
        return Channel(916_000_000, 100 * KHZ, Protocol.ZWAVE, "zwave:R3")
    raise ChannelRangeError(f"zwave phy must be R2 or R3, got {phy!r}")


def zwave_channels() -> list[Channel]:
    """The two scanned Z-Wave PHYs, ascending: R2 then R3."""
    return [zwave_channel("R2"), zwave_channel("R3")]


def yolink_channel(direction: str) -> Channel:
    """YoLink network channel: uplink 910.29 MHz or downlink 923.29 MHz.

    Both are 125 kHz wide; the downlink deliberately does not follow the
    US915 500 kHz downlink width.
    """
    direction = direction.lower()
    if direction in ("up", "uplink"):
        return Channel(910_290_000, 125 * KHZ, Protocol.LORA, "yolink:up")
    if direction in ("down", "downlink"):
        return Channel(923_290_000, 125 * KHZ, Protocol.LORA, "yolink:down")
    raise ChannelRangeError(f"yolink direction must be up or down, got {direction!r}")


def yolink_lora_channels() -> list[Channel]:
    """YoLink uplink + downlink pair, ascending."""
    return [yolink_channel("up"), yolink_channel("down")]


def zwave_uses_crc16(channel: Channel) -> bool:
    """True when the PHY of a Z-Wave channel carries a CRC-16 trailer (R3).

    The receiver knows which PHY it is demodulating from its tuning, so the
    checksum variant is a property of the channel, not of the bytes.
    """
    if channel.protocol is not Protocol.ZWAVE:
        raise ValueError(f"not a Z-Wave channel: {channel.label}")
    return channel.label.endswith("R3")
