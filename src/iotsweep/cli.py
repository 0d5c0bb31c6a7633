"""Command-line interface.

    iotsweep scan <scenario> [--seed N] [--trials M] [--out DIR] [--events-horizon S]
    iotsweep model <scenario> [--delta-t S] [--out DIR]
    iotsweep compare <scenario> [--seed N] [--out DIR]
    iotsweep dissect <protocol> <hex>

Exit codes: 0 success, 1 validation/input error (an unreadable scenario or an
output directory that cannot be written included), 2 model-vs-measurement
acceptance failure (compare only).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import experiment
from .channels import Protocol
from .errors import FrameError, IotSweepError, SimulationError
from .frames import (
    BleAdvPdu,
    LoRaFrame,
    ZigbeeFrame,
    ZWaveFrame,
    decode,
    extract_address,
)
from .scenario import ScenarioConfig, load_bundled_scenario, load_scenario

_DISSECT_PROTOCOLS = {
    "zigbee": (Protocol.ZIGBEE, None),
    "ble": (Protocol.BLE_ADVERTISING, None),
    "lora": (Protocol.LORA, None),
    "zwave": (Protocol.ZWAVE, None),
    "zwave-r2": (Protocol.ZWAVE, False),
    "zwave-r3": (Protocol.ZWAVE, True),
}


def _load(path_or_name: str) -> ScenarioConfig:
    p = Path(path_or_name)
    if p.exists():
        return load_scenario(p)
    return load_bundled_scenario(path_or_name)


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    changes = {}
    if getattr(args, "seed", None) is not None:
        changes["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        changes["trials"] = args.trials
    return dataclasses.replace(cfg, **changes) if changes else cfg


def _cmd_scan(args) -> int:
    cfg = _apply_overrides(_load(args.scenario), args)
    out_dir = Path(args.out) if args.out else Path("results") / cfg.name
    events = None
    if args.events_horizon is not None:  # built first: a bad horizon writes nothing
        env = experiment.trial_environment(cfg, trial=0)
        try:
            events = experiment.events_csv(env, args.events_horizon)
        except SimulationError as exc:
            raise SimulationError(f"--events-horizon {args.events_horizon}: {exc}") from exc
    result = experiment.run_experiment(cfg, out_dir=out_dir)
    if events is not None:
        (out_dir / "events.csv").write_text(events)
    print(f"scenario {cfg.name}: {cfg.trials} trials, algorithm {cfg.algorithm.value}")
    for row in result.summary.rows:
        note = f"  (censored in {row.censored_count} trials)" if row.censored_count else ""
        print(f"  n={row.n:<3d} mean {row.mean_s:10.3f} s  +/- {row.ci_halfwidth_s:.3f}{note}")
    print(f"outputs in {out_dir}  ({result.wall_clock_s:.2f} s wall clock)")
    return 0


def _cmd_model(args) -> int:
    cfg = _load(args.scenario)
    model = experiment.run_model(cfg, delta_t_s=args.delta_t)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "model.csv").write_text(experiment.model_csv(model))
    for n, t in model:
        print(f"  n={n:<3d} expected {t:10.3f} s")
    return 0


def _cmd_compare(args) -> int:
    cfg = _apply_overrides(_load(args.scenario), args)
    out_dir = Path(args.out) if args.out else Path("results") / cfg.name
    report = experiment.compare(cfg, out_dir=out_dir)
    for row in report.rows:
        mark = "in " if row.in_ci else "OUT"
        print(
            f"  n={row.n:<3d} mean {row.mean_s:10.3f} "
            f"ci [{row.ci_lo_s:10.3f}, {row.ci_hi_s:10.3f}] "
            f"expected {row.expected_s:10.3f}  {mark}"
        )
    print(
        f"model inside the CI for {report.in_ci_fraction:.0%} of rows "
        f"({'pass' if report.passed else 'fail'}, threshold 75%)"
    )
    return 0 if report.passed else 2


def _field_lines(frame) -> list[str]:
    if isinstance(frame, ZigbeeFrame):
        lines = [f"frame-type {frame.frame_type.name.lower()}", f"seq {frame.seq}"]
        if frame.dest_addr is not None:
            lines.append(f"dest 0x{frame.dest_pan:04X}/0x{frame.dest_addr:04X}")
        if frame.src_addr is not None:
            width = 16 if frame.src_extended else 4
            lines.append(f"src 0x{frame.src_pan:04X}/0x{frame.src_addr:0{width}X}")
        if frame.command_id() is not None:
            lines.append(f"command 0x{frame.command_id():02X}")
        lines.append(f"payload {frame.payload.hex() or '(empty)'}")
        return lines
    if isinstance(frame, BleAdvPdu):
        return [
            f"access-address 0x{frame.access_address:08X}",
            f"pdu-type {frame.pdu_type.name}",
            f"adv-a 0x{frame.adv_a:012X}",
            f"adv-data {frame.adv_data.hex() or '(empty)'}",
        ]
    if isinstance(frame, LoRaFrame):
        return [f"sync-word 0x{frame.sync_word:04X}", f"payload {frame.payload.hex()}"]
    if isinstance(frame, ZWaveFrame):
        return [
            f"home-id 0x{frame.home_id:08X}",
            f"source-id {frame.source_id}",
            f"frame-control 0x{frame.frame_control:04X}",
            f"dest-id {frame.dest_id}",
            f"payload {frame.payload.hex() or '(empty)'}",
            f"check {'crc-16' if frame.crc16 else 'xor'}",
        ]
    return [repr(frame)]


def _cmd_dissect(args) -> int:
    try:
        protocol, zwave_hint = _DISSECT_PROTOCOLS[args.protocol.lower()]
    except KeyError:
        print(f"unknown protocol {args.protocol!r}; choose from "
              f"{', '.join(sorted(_DISSECT_PROTOCOLS))}", file=sys.stderr)
        return 1
    hex_text = args.hex.replace(" ", "").replace(":", "")
    try:
        data = bytes.fromhex(hex_text)
    except ValueError:
        print("input is not valid hex (odd length or stray characters)", file=sys.stderr)
        return 1
    try:
        frame = decode(protocol, data, zwave_crc16=zwave_hint)
    except FrameError as exc:
        at = f" at byte {exc.offset}" if exc.offset is not None else ""
        print(f"decode failed{at}: {exc}", file=sys.stderr)
        return 1
    for line in _field_lines(frame):
        print(line)
    addr = extract_address(frame)
    print(f"address {addr if addr is not None else '(none)'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotsweep",
        description="Simulated multi-protocol IoT channel scanning and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run a scanning experiment")
    scan.add_argument("scenario", help="scenario file path or bundled scenario name")
    scan.add_argument("--seed", type=int)
    scan.add_argument("--trials", type=int)
    scan.add_argument("--out", help="output directory (default results/<name>)")
    scan.add_argument(
        "--events-horizon", type=float,
        help="also dump trial 0 emissions up to this many seconds as events.csv",
    )
    scan.set_defaults(func=_cmd_scan)

    model = sub.add_parser("model", help="analytic expected discovery times")
    model.add_argument("scenario")
    model.add_argument("--delta-t", type=float, help="override the model timestep")
    model.add_argument("--out")
    model.set_defaults(func=_cmd_model)

    cmp_p = sub.add_parser("compare", help="experiment vs analytic model")
    cmp_p.add_argument("scenario")
    cmp_p.add_argument("--seed", type=int)
    cmp_p.add_argument("--out")
    cmp_p.set_defaults(func=_cmd_compare)

    dissect = sub.add_parser("dissect", help="decode a frame from hex")
    dissect.add_argument("protocol", help="zigbee|ble|lora|zwave|zwave-r2|zwave-r3")
    dissect.add_argument("hex")
    dissect.set_defaults(func=_cmd_dissect)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IotSweepError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
