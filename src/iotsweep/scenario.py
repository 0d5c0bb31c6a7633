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
  channels TOKENS               probe-channels TOKENS (active algorithms)
  phases TOKENS | TOKENS | ...  (sequential-passive; one group per phase)
  dwell-time S  scan-time S  probe-dwell-time S
  bandwidth HZ|8MHz|125kHz      retune-latency S
  trials N  alpha A  seed N  loss-prob P
  probe-response-delay-max S    delta-t S  max-multi-arrival-prob P
  time-scale X                  lora-id-index N

Channel tokens are comma-separated labels with optional ranges:
``zigbee:11..26``, ``ble-adv:37``, ``ble-rf:12``, ``lora-up:0..63``,
``lora-down:3``, ``zwave:R2``, ``yolink:up``.

Device keys: protocol, role, channels, mean-interval, address,
alias (repeatable), responds-to-probe yes|no, emitter poisson|periodic.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .address import parse_address
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
from .errors import ScenarioError
from .scanning import SdrConfig
from .simulation import DeviceSpec, EmitterKind, Role, validate_device_spec

DEFAULT_BANDWIDTH_HZ = 8_000_000


class Algorithm(Enum):
    PASSIVE = "passive"
    ACTIVE = "active"
    MULTIPROTOCOL = "multiprotocol"
    ACTIVE_MULTIPROTOCOL = "active-multiprotocol"
    SEQUENTIAL_PASSIVE = "sequential-passive"


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    algorithm: Algorithm
    devices: tuple[DeviceSpec, ...]
    channels: tuple[Channel, ...] = ()
    probe_channels: tuple[Channel, ...] = ()
    phases: tuple[tuple[Channel, ...], ...] = ()
    sdr: SdrConfig = SdrConfig(DEFAULT_BANDWIDTH_HZ)
    dwell_time_s: float = 1.0
    probe_dwell_time_s: float = 0.2
    scan_time_s: float = 600.0
    trials: int = 10
    alpha: float = 0.05
    seed: int = 0
    loss_prob: float = 0.0
    probe_response_delay_max_s: float = 0.1
    delta_t_s: float = 0.1
    max_multi_arrival_prob: float = 0.01
    time_scale: float = 1.0
    lora_id_index: int = 2
    source_text: str | None = None

    def all_scanned_channels(self) -> set[Channel]:
        scanned = set(self.channels) | set(self.probe_channels)
        for phase in self.phases:
            scanned |= set(phase)
        return scanned


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


def _parse_bool(value: str, where: str) -> bool:
    v = value.strip().lower()
    if v in ("yes", "true", "on", "1"):
        return True
    if v in ("no", "false", "off", "0"):
        return False
    raise ScenarioError(f"{where}: expected yes/no, got {value!r}")


def _device_from_block(name: str, entries: list[tuple[str, str]], time_scale: float) -> DeviceSpec:
    where = f"device {name}"
    single: dict[str, str] = {}
    aliases: list[str] = []
    for key, value in entries:
        if key == "alias":
            aliases.append(value)
        elif key in single:
            raise ScenarioError(f"{where}: duplicate key {key!r}")
        else:
            single[key] = value
    missing = {"protocol", "channels", "mean-interval", "address"} - single.keys()
    if missing:
        raise ScenarioError(f"{where}: missing {', '.join(sorted(missing))}")
    try:
        protocol = Protocol(single["protocol"].strip().lower())
    except ValueError:
        raise ScenarioError(
            f"{where}: unknown protocol {single['protocol']!r}"
        ) from None
    role_text = single.get("role", "end-device").strip().lower()
    try:
        role = Role(role_text)
    except ValueError:
        raise ScenarioError(f"{where}: unknown role {role_text!r}") from None
    try:
        mean = float(single["mean-interval"])
    except ValueError:
        raise ScenarioError(f"{where}: mean-interval must be a number") from None
    try:
        address = parse_address(single["address"])
        alias_addrs = tuple(parse_address(a) for a in aliases)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    responds = None
    if "responds-to-probe" in single:
        responds = _parse_bool(single["responds-to-probe"], where)
    emitter = EmitterKind.POISSON
    if "emitter" in single:
        try:
            emitter = EmitterKind(single["emitter"].strip().lower())
        except ValueError:
            raise ScenarioError(f"{where}: unknown emitter {single['emitter']!r}") from None
    spec = DeviceSpec(
        name=name,
        protocol=protocol,
        role=role,
        channels=tuple(resolve_channel_list(single["channels"])),
        mean_interarrival_s=mean / time_scale,
        address=address,
        aliases=alias_addrs,
        responds_to_probe=responds,
        emitter=emitter,
    )
    try:
        validate_device_spec(spec)
    except ScenarioError as exc:
        raise ScenarioError(str(exc)) from None
    return spec


def parse_scenario(text: str, *, default_name: str = "scenario") -> ScenarioConfig:
    top: dict[str, str] = {}
    device_blocks: list[tuple[str, list[tuple[str, str]]]] = []
    current: list[tuple[str, str]] | None = None
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
        if current is not None:
            current.append((key, value))
        else:
            if key in top:
                raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
            top[key] = value
    if current is not None:
        raise ScenarioError(f"device block {current_name!r} never closed with 'end'")

    def get_float(key: str, default: float) -> float:
        if key not in top:
            return default
        try:
            return float(top[key])
        except ValueError:
            raise ScenarioError(f"{key}: expected a number, got {top[key]!r}") from None

    def get_int(key: str, default: int) -> int:
        if key not in top:
            return default
        try:
            return int(top[key])
        except ValueError:
            raise ScenarioError(f"{key}: expected an integer, got {top[key]!r}") from None

    algo_text = top.get("algorithm", "passive").strip().lower().replace("_", "-")
    try:
        algorithm = Algorithm(algo_text)
    except ValueError:
        raise ScenarioError(f"algorithm: unknown value {algo_text!r}") from None

    time_scale = get_float("time-scale", 1.0)
    if time_scale <= 0:
        raise ScenarioError("time-scale must be positive")

    devices = tuple(
        _device_from_block(name, entries, time_scale) for name, entries in device_blocks
    )
    phases: tuple[tuple[Channel, ...], ...] = ()
    if "phases" in top:
        phases = tuple(
            tuple(resolve_channel_list(part)) for part in top["phases"].split("|")
        )

    sdr = SdrConfig(
        instantaneous_bandwidth_hz=_parse_hz(top.get("bandwidth", str(DEFAULT_BANDWIDTH_HZ))),
        retune_latency_s=get_float("retune-latency", 0.0),
    )
    cfg = ScenarioConfig(
        name=top.get("scenario", default_name),
        algorithm=algorithm,
        devices=devices,
        channels=tuple(resolve_channel_list(top.get("channels", ""))),
        probe_channels=tuple(resolve_channel_list(top.get("probe-channels", ""))),
        phases=phases,
        sdr=sdr,
        dwell_time_s=get_float("dwell-time", 1.0),
        probe_dwell_time_s=get_float("probe-dwell-time", 0.2),
        scan_time_s=get_float("scan-time", 600.0),
        trials=get_int("trials", 10),
        alpha=get_float("alpha", 0.05),
        seed=get_int("seed", 0),
        loss_prob=get_float("loss-prob", 0.0),
        probe_response_delay_max_s=get_float("probe-response-delay-max", 0.1),
        delta_t_s=get_float("delta-t", 0.1),
        max_multi_arrival_prob=get_float("max-multi-arrival-prob", 0.01),
        time_scale=time_scale,
        lora_id_index=get_int("lora-id-index", 2),
        source_text=text,
    )
    validate_scenario(cfg)
    return cfg


def validate_scenario(cfg: ScenarioConfig) -> None:
    """Reject configurations that cannot run or cannot discover their devices."""
    if cfg.trials < 1:
        raise ScenarioError("trials: must be >= 1")
    if not 0.0 < cfg.alpha < 1.0:
        raise ScenarioError("alpha: must lie in (0, 1)")
    if cfg.seed < 0:
        raise ScenarioError("seed: must be non-negative")
    if not 0.0 <= cfg.loss_prob <= 1.0:
        raise ScenarioError("loss-prob: must lie in [0, 1]")
    if cfg.dwell_time_s <= 0:
        raise ScenarioError("dwell-time: must be positive")
    if cfg.probe_dwell_time_s <= 0:
        raise ScenarioError("probe-dwell-time: must be positive")
    if cfg.scan_time_s < cfg.dwell_time_s:
        raise ScenarioError("scan-time: must be at least one dwell")
    if cfg.delta_t_s <= 0:
        raise ScenarioError("delta-t: must be positive")
    if cfg.lora_id_index < 0:
        raise ScenarioError("lora-id-index: must be >= 0")

    if cfg.algorithm is Algorithm.SEQUENTIAL_PASSIVE:
        if not cfg.phases or any(not p for p in cfg.phases):
            raise ScenarioError("phases: sequential-passive needs non-empty phases")
    elif not cfg.channels:
        raise ScenarioError("channels: required for this algorithm")
    if cfg.algorithm is Algorithm.ACTIVE_MULTIPROTOCOL and not cfg.probe_channels:
        raise ScenarioError("probe-channels: required for active-multiprotocol")

    probed: tuple[Channel, ...] = ()
    if cfg.algorithm is Algorithm.ACTIVE:
        probed = cfg.channels  # phase one probes the scan list itself
    elif cfg.algorithm is Algorithm.ACTIVE_MULTIPROTOCOL:
        probed = cfg.probe_channels
    unprobeable = sorted({ch.label for ch in probed if ch.protocol not in PROBEABLE_PROTOCOLS})
    if unprobeable:
        raise ScenarioError(
            "probe channels without a broadcast probe (only zigbee supports "
            "probing): " + ", ".join(unprobeable)
        )

    names = [d.name for d in cfg.devices]
    if len(set(names)) != len(names):
        raise ScenarioError("devices: names must be unique")
    seen_addrs: dict = {}
    for dev in cfg.devices:
        for addr in dev.all_addresses():
            if addr in seen_addrs:
                raise ScenarioError(
                    f"device {dev.name}: address {addr} already used by {seen_addrs[addr]}"
                )
            seen_addrs[addr] = dev.name

    scanned = cfg.all_scanned_channels()
    unreachable = [
        dev.name for dev in cfg.devices if not scanned & set(dev.channels)
    ]
    if unreachable:
        raise ScenarioError(
            "devices on channels the scan never visits (discovery impossible): "
            + ", ".join(sorted(unreachable))
        )


def load_scenario(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    return parse_scenario(p.read_text(), default_name=p.stem)


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
