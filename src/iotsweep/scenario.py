"""Scenario files: the experiment configuration format.

A scenario is line-oriented text. Top-level lines are ``key value`` pairs;
``#`` starts a comment; blank lines are ignored. Devices are declared in
blocks from ``device <name>`` to ``end`` whose inner lines are also
``key value`` pairs. Example:

    scenario two-lamps
    algorithm passive
    channels zigbee:11..26
    dwell-time 1.0
    scan-time 600
    trials 10
    seed 7

    device lamp-a
      protocol zigbee
      role end-device
      channels zigbee:15
      mean-interval 8.4
      address zigbee-short:0x2B51:0x0001
    end

Top-level keys
  scenario NAME                 algorithm passive|active|multiprotocol|
                                          active-multiprotocol|sequential-passive
  channels TOKENS               probe-channels TOKENS (active-multiprotocol)
  phases TOKENS | TOKENS | ...  (sequential-passive; one group per phase)
  dwell-time S  scan-time S  probe-dwell-time S
  bandwidth HZ|8MHz|125kHz      retune-latency S
  trials N  alpha A  seed N  loss-prob P
  probe-response-delay-max S    delta-t S  max-multi-arrival-prob P

Channel tokens are comma-separated labels with optional ranges:
``zigbee:11..26``, ``ble-adv:37``, ``ble-rf:12``, ``lora-up:0..63``,
``lora-down:3``, ``zwave:R2``, ``yolink:up``.

Device keys: protocol, role, channels, mean-interval, address,
alias (repeatable), responds-to-probe yes|no, emitter poisson|periodic.

Each key is declared once, in a table that maps it to its ``ScenarioConfig``,
``SdrConfig`` or ``DeviceSpec`` field and its value parser; a key the file
leaves out takes that field's default, and a key no table knows is refused.
A ``ScenarioConfig`` validates itself, also when made by
``dataclasses.replace``. ``ScenarioConfig.plan`` turns the algorithm and
its channel keys into the ``ScanPlan`` the scanner runs, and validation
reads that plan: every device must sit on a channel it probes or listens
on (``channels`` for passive, active and multiprotocol scans, ``channels``
plus ``probe-channels`` for active-multiprotocol, and ``phases`` for
sequential-passive).
"""

from __future__ import annotations

import dataclasses
import importlib.resources
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .address import parse_address
from .analytics import DEFAULT_DELTA_T_S, DEFAULT_MULTI_ARRIVAL_GATE
from .channels import (
    PROBEABLE_PROTOCOLS,
    Channel,
    Protocol,
    ble_advertising_channel,
    ble_rf_channel,
    lora_downlink_channel,
    lora_uplink_channel,
    sort_channels,
    yolink_channel,
    zigbee_channel,
    zwave_channel,
)
from .errors import ParameterError, ScenarioError
from .scanning import DEFAULT_PROBE_DWELL_S, ScanPlan, SdrConfig
from .simulation import (
    DEFAULT_PROBE_RESPONSE_DELAY_MAX_S,
    DeviceSpec,
    EmitterKind,
    Role,
    address_table,
)

#: Role of a device block without a ``role`` line.
DEFAULT_ROLE = Role.END_DEVICE


class Algorithm(Enum):
    PASSIVE = "passive"
    ACTIVE = "active"
    MULTIPROTOCOL = "multiprotocol"
    ACTIVE_MULTIPROTOCOL = "active-multiprotocol"
    SEQUENTIAL_PASSIVE = "sequential-passive"


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment. Every instance is validated by ``validate_scenario``,
    also one made by ``dataclasses.replace``."""

    name: str
    algorithm: Algorithm = Algorithm.PASSIVE
    devices: tuple[DeviceSpec, ...] = ()
    channels: tuple[Channel, ...] = ()
    probe_channels: tuple[Channel, ...] = ()
    phases: tuple[tuple[Channel, ...], ...] = ()
    sdr: SdrConfig = SdrConfig()
    dwell_time_s: float = 1.0
    probe_dwell_time_s: float = DEFAULT_PROBE_DWELL_S
    scan_time_s: float = 600.0
    trials: int = 10
    alpha: float = 0.05
    seed: int = 0
    loss_prob: float = 0.0
    probe_response_delay_max_s: float = DEFAULT_PROBE_RESPONSE_DELAY_MAX_S
    delta_t_s: float = DEFAULT_DELTA_T_S
    max_multi_arrival_prob: float = DEFAULT_MULTI_ARRIVAL_GATE
    source_text: str | None = None

    def __post_init__(self):
        validate_scenario(self)

    def plan(self) -> ScanPlan:
        """What this scenario's algorithm probes and rotates over: the one
        place that reads ``algorithm``. Refuses a scenario that lacks the
        channels its algorithm needs."""
        algorithm = self.algorithm
        if algorithm is Algorithm.SEQUENTIAL_PASSIVE:
            if not self.phases or any(not p for p in self.phases):
                raise ScenarioError("phases: sequential-passive needs non-empty phases")
            return ScanPlan(self.phases)
        if not self.channels:
            raise ScenarioError("channels: required for this algorithm")
        if algorithm is Algorithm.PASSIVE:
            return ScanPlan((self.channels,))
        if algorithm is Algorithm.ACTIVE:
            return ScanPlan(((),), probes=self.channels)
        if algorithm is Algorithm.MULTIPROTOCOL:
            return ScanPlan((self.channels,), grouped=True)
        if not self.probe_channels:
            raise ScenarioError("probe-channels: required for active-multiprotocol")
        return ScanPlan((self.channels,), probes=self.probe_channels, grouped=True)


def _parse_hz(text: str) -> int:
    text = text.strip()
    for suffix, mult in (("mhz", 1_000_000), ("khz", 1_000), ("hz", 1)):
        if text.lower().endswith(suffix):
            return round(float(text[: -len(suffix)]) * mult)
    return int(text)


_CHANNEL_FACTORIES = {
    "zigbee": lambda arg: zigbee_channel(int(arg)),
    "ble-adv": lambda arg: ble_advertising_channel(int(arg)),
    "ble-rf": lambda arg: ble_rf_channel(int(arg)),
    "lora-up": lambda arg: lora_uplink_channel(int(arg)),
    "lora-down": lambda arg: lora_downlink_channel(int(arg)),
    "zwave": zwave_channel,
    "yolink": yolink_channel,
}


def resolve_channel_token(token: str) -> list[Channel]:
    """One label or label range -> channels (e.g. ``zigbee:11..26``)."""
    token = token.strip()
    if ":" not in token:
        raise ScenarioError(f"channel token {token!r} must look like protocol:index")
    family, _, arg = token.partition(":")
    factory = _CHANNEL_FACTORIES.get(family.lower())
    if factory is None:
        raise ScenarioError(
            f"unknown channel family {family!r} (expected one of "
            f"{', '.join(sorted(_CHANNEL_FACTORIES))})"
        )
    try:
        if ".." in arg:
            lo_s, _, hi_s = arg.partition("..")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ScenarioError(f"empty channel range {token!r}")
            return [factory(str(k)) for k in range(lo, hi + 1)]
        return [factory(arg)]
    except (ValueError, ScenarioError) as exc:
        raise ScenarioError(f"bad channel token {token!r}: {exc}") from None


def resolve_channel_list(text: str) -> list[Channel]:
    """Comma-separated channel tokens -> ascending, de-duplicated channels."""
    channels: list[Channel] = []
    for token in text.split(","):
        if token.strip():
            channels.extend(resolve_channel_token(token))
    return sort_channels(channels)


def _channels(text: str) -> tuple[Channel, ...]:
    return tuple(resolve_channel_list(text))


def _phases(text: str) -> tuple[tuple[Channel, ...], ...]:
    return tuple(_channels(part) for part in text.split("|"))


def _enum(cls):
    return lambda text: cls(text.lower().replace("_", "-"))


def _parse_bool(text: str) -> bool:
    v = text.lower()
    if v in ("yes", "true", "on", "1"):
        return True
    if v in ("no", "false", "off", "0"):
        return False
    raise ValueError(f"expected yes/no, got {text!r}")


# Key tables: scenario key -> (dataclass field, value parser). A parser
# raises ValueError on a bad value (OverflowError for ``bandwidth infMHz``).
_SCENARIO_KEYS = {
    "scenario": ("name", str),
    "algorithm": ("algorithm", _enum(Algorithm)),
    "channels": ("channels", _channels),
    "probe-channels": ("probe_channels", _channels),
    "phases": ("phases", _phases),
    "dwell-time": ("dwell_time_s", float),
    "probe-dwell-time": ("probe_dwell_time_s", float),
    "scan-time": ("scan_time_s", float),
    "trials": ("trials", int),
    "alpha": ("alpha", float),
    "seed": ("seed", int),
    "loss-prob": ("loss_prob", float),
    "probe-response-delay-max": ("probe_response_delay_max_s", float),
    "delta-t": ("delta_t_s", float),
    "max-multi-arrival-prob": ("max_multi_arrival_prob", float),
}
_SDR_KEYS = {
    "bandwidth": ("instantaneous_bandwidth_hz", _parse_hz),
    "retune-latency": ("retune_latency_s", float),
}
_DEVICE_KEYS = {
    "protocol": ("protocol", _enum(Protocol)),
    "role": ("role", _enum(Role)),
    "channels": ("channels", _channels),
    "mean-interval": ("mean_interarrival_s", float),
    "address": ("address", parse_address),
    "alias": ("aliases", parse_address),
    "responds-to-probe": ("responds_to_probe", _parse_bool),
    "emitter": ("emitter", _enum(EmitterKind)),
}
_REPEATABLE_KEYS = frozenset({"alias"})
_REQUIRED_DEVICE_FIELDS = frozenset(
    f.name for f in dataclasses.fields(DeviceSpec)
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
)


def _fields(table: dict, entries: list[tuple[int, str, str]], where: str) -> dict:
    """Field values for one block's ``(line, key, value)`` entries. Only
    keys that appear are returned; an unknown or repeated key is an error."""
    values: dict = {}
    for lineno, key, text in entries:
        at = f"line {lineno}: {where}"
        if key not in table:
            raise ScenarioError(f"{at}unknown key {key!r}")
        field, parse = table[key]
        try:
            value = parse(text)
        except (ValueError, OverflowError) as exc:
            raise ScenarioError(f"{at}{key}: {exc}") from None
        if key in _REPEATABLE_KEYS:
            values[field] = values.get(field, ()) + (value,)
        elif field in values:
            raise ScenarioError(f"{at}duplicate key {key!r}")
        else:
            values[field] = value
    return values


def _device_from_block(name: str, entries: list[tuple[int, str, str]]) -> DeviceSpec:
    values = {"name": name, "role": DEFAULT_ROLE}
    values.update(_fields(_DEVICE_KEYS, entries, f"device {name}: "))
    missing = [
        key for key, (field, _) in _DEVICE_KEYS.items()
        if field in _REQUIRED_DEVICE_FIELDS and field not in values
    ]
    if missing:
        raise ScenarioError(f"device {name}: missing {', '.join(sorted(missing))}")
    return DeviceSpec(**values)


def parse_scenario(text: str, *, default_name: str = "scenario") -> ScenarioConfig:
    top: list[tuple[int, str, str]] = []
    device_blocks: list[tuple[str, list[tuple[int, str, str]]]] = []
    current: list[tuple[int, str, str]] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if current is None and line.lower().startswith("device "):
            current_name = line[len("device "):].strip()
            if not current_name:
                raise ScenarioError(f"line {lineno}: device block needs a name")
            current = []
            continue
        if current is not None and line.lower() == "end":
            device_blocks.append((current_name, current))
            current = None
            continue
        key, _, value = line.partition(" ")
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise ScenarioError(f"line {lineno}: key {key!r} has no value")
        (top if current is None else current).append((lineno, key, value))
    if current is not None:
        raise ScenarioError(f"device block {current_name!r} never closed with 'end'")

    values = _fields(_SCENARIO_KEYS | _SDR_KEYS, top, "")
    sdr = {field: values.pop(field) for field, _ in _SDR_KEYS.values() if field in values}
    if sdr:
        try:
            values["sdr"] = SdrConfig(**sdr)
        except ParameterError as exc:  # its message starts with the key
            raise ScenarioError(str(exc)) from None
    devices = tuple(_device_from_block(name, entries) for name, entries in device_blocks)
    return ScenarioConfig(
        **{"name": default_name, **values}, devices=devices, source_text=text
    )


def validate_scenario(cfg: ScenarioConfig) -> None:
    """Reject configurations that cannot run or cannot discover their devices.

    Every range check is written so that NaN fails it."""
    if not cfg.trials >= 1:
        raise ScenarioError("trials: must be >= 1")
    if not 0.0 < cfg.alpha < 1.0:
        raise ScenarioError("alpha: must lie in (0, 1)")
    if not cfg.seed >= 0:
        raise ScenarioError("seed: must be non-negative")
    if not 0.0 <= cfg.loss_prob <= 1.0:
        raise ScenarioError("loss-prob: must lie in [0, 1]")
    if not cfg.dwell_time_s > 0:
        raise ScenarioError("dwell-time: must be positive")
    if not 0.0 < cfg.probe_dwell_time_s < math.inf:
        raise ScenarioError("probe-dwell-time: must be positive and finite")
    if not cfg.dwell_time_s <= cfg.scan_time_s < math.inf:
        raise ScenarioError("scan-time: must be finite and at least one dwell")
    if not 0.0 <= cfg.probe_response_delay_max_s < math.inf:
        raise ScenarioError("probe-response-delay-max: must be finite and >= 0")
    if not 0.0 < cfg.delta_t_s < math.inf:
        raise ScenarioError("delta-t: must be positive and finite")
    if not 0.0 < cfg.max_multi_arrival_prob <= 1.0:
        raise ScenarioError("max-multi-arrival-prob: must lie in (0, 1]")

    plan = cfg.plan()
    unprobeable = sorted({ch.label for ch in plan.probes if ch.protocol not in PROBEABLE_PROTOCOLS})
    if unprobeable:
        raise ScenarioError(
            "probe channels without a broadcast probe (only zigbee supports "
            "probing): " + ", ".join(unprobeable)
        )

    address_table(cfg.devices)
    scanned = plan.channels()
    unreachable = [dev.name for dev in cfg.devices if scanned.isdisjoint(dev.channels)]
    if unreachable:
        raise ScenarioError(
            f"devices on channels the {cfg.algorithm.value} scan never visits "
            "(discovery impossible): " + ", ".join(sorted(unreachable))
        )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse the scenario file at ``path``; one that cannot be read as
    UTF-8 text (a directory, say, or binary bytes) is a ``ScenarioError``."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {p}: {exc}") from None
    return parse_scenario(text, default_name=p.stem)


def bundled_scenario_names() -> list[str]:
    root = importlib.resources.files("iotsweep") / "scenarios"
    return sorted(f.name[: -len(".scn")] for f in root.iterdir() if f.name.endswith(".scn"))


def load_bundled_scenario(name: str) -> ScenarioConfig:
    """Load one of the scenarios shipped with the package by bare name."""
    resource = importlib.resources.files("iotsweep") / "scenarios" / f"{name}.scn"
    try:
        text = resource.read_text()
    except FileNotFoundError:
        raise ScenarioError(
            f"no bundled scenario {name!r}; available: {', '.join(bundled_scenario_names())}"
        ) from None
    return parse_scenario(text, default_name=name)
