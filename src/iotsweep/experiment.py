"""Experiment runner: repeated trials, analytic overlays, CSV outputs.

Output schemas (all CSVs carry a header row):

  trials.csv   trial,n,first_seen_s,device
  summary.csv  n,mean_s,ci_lo_s,ci_hi_s,censored_count
  model.csv    n,expected_time_s
  compare.csv  n,mean_s,ci_lo_s,ci_hi_s,expected_s,in_ci
  manifest.txt scenario / config-sha256 / seed / trials / versions

Trial m always draws its randomness from streams derived from (seed, m), so
a rerun of the same scenario file reproduces every CSV byte for byte, and
two algorithms run on the same scenario see identical device traffic.

Every plan is its probes, if any, then one rotation per phase, from a
fresh environment, where a device's first-seen time depends only on its
own streams, the window schedule, which probed channels answered and the
window each phase starts at; so every trial runs in one array pass that
draws the same streams (``scanning.rotation_first_seen``) and gives the
same times bit for bit. Only the streams a run reads are seeded: times
always, loss coins under loss, probe behavior if it probes.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import OrderStatSummary, discretize, expected_order_statistics, summarize
from .errors import ScenarioError
from .scanning import rotation_first_seen
from .scenario import ScenarioConfig
from .simulation import EmitterKind, Environment, Testbed, build_environment, stream_seeds


@dataclass(frozen=True)
class TrialRecord:
    """One trial's discoveries in discovery order."""

    trial: int
    first_seen: tuple[tuple[float, str], ...]  # (seconds, device), ascending


@dataclass(frozen=True)
class ExperimentResult:
    config: ScenarioConfig
    trials: tuple[TrialRecord, ...]
    summary: OrderStatSummary
    wall_clock_s: float

    def full_discovery_times(self) -> list[float]:
        """Per trial, the time the last device was found (complete trials only)."""
        n = len(self.config.devices)
        return [t.first_seen[-1][0] for t in self.trials if len(t.first_seen) == n]


@dataclass(frozen=True)
class CompareRow:
    n: int
    mean_s: float
    ci_lo_s: float
    ci_hi_s: float
    expected_s: float
    in_ci: bool


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[CompareRow, ...]
    in_ci_fraction: float
    passed: bool  # expected value inside the CI for >= 75% of usable rows


def trial_environment(cfg: ScenarioConfig, trial: int) -> Environment:
    """Trial ``trial``'s environment, seeded alone with the words the
    experiment's ``stream_seeds`` give it."""
    return build_environment(
        cfg.devices,
        seed=cfg.seed,
        trial=trial,
        loss_prob=cfg.loss_prob,
        probe_response_delay_max_s=cfg.probe_response_delay_max_s,
    )


def run_experiment(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    """Run all trials of a scenario; optionally write the CSV outputs.

    ``out_dir`` is made before the first trial, so a directory that cannot
    be made fails the run at once. Every trial runs in one array pass
    (``rotation_first_seen``), so no trial builds an ``Environment``."""
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    plan = cfg.plan()
    tags = ["times"] + ["loss"] * (cfg.loss_prob > 0) + ["probe"] * bool(plan.probes)
    streams = stream_seeds(cfg.seed, range(cfg.trials), len(cfg.devices), tags)
    logs = rotation_first_seen(
        Testbed(cfg.devices), streams, cfg.loss_prob, cfg.sdr, plan, cfg.dwell_time_s,
        cfg.scan_time_s, cfg.probe_dwell_time_s, cfg.probe_response_delay_max_s,
    )
    records = [
        TrialRecord(trial=trial, first_seen=tuple(sorted((t, name) for name, t in log.items())))
        for trial, log in enumerate(logs)
    ]
    times = [[t for t, _ in rec.first_seen] for rec in records]
    summary = summarize(times, alpha=cfg.alpha, n_devices=len(cfg.devices))
    result = ExperimentResult(
        config=cfg,
        trials=tuple(records),
        summary=summary,
        wall_clock_s=time.perf_counter() - started,
    )
    if out is not None:
        (out / "trials.csv").write_text(trials_csv(result))
        (out / "summary.csv").write_text(summary_csv(result.summary))
        (out / "manifest.txt").write_text(manifest_text(cfg))
    return result


# ---------------------------------------------------------------------------
# Analytic model

def device_channel_divisors(cfg: ScenarioConfig) -> list[float]:
    """Per device: how many rotation slots exist per slot that can hear it.

    A device audible in a of G groups is heard 1/(G/a) of the time. A Zigbee
    device under a 16-channel passive scan gets 16; a BLE advertiser under a
    3-advertising-channel rotation gets 1 (every slot can hear it, because
    each advertising event covers all three channels).

    Defined for a plan of one fixed rotation: one phase and no probes, as
    in passive and multiprotocol scans (and a sequential scan of one
    phase, which is a passive scan). Active scans change their rotation
    with the probes' answers, and a sequential scan of several phases
    switches rotation when a phase's devices are found, so neither maps
    onto a single per-timestep probability vector.
    """
    plan = cfg.plan()
    if plan.probes or len(plan.phases) > 1:
        why = "probes first" if plan.probes else f"runs {len(plan.phases)} phases"
        raise ScenarioError(
            f"analytic model covers scans of one fixed rotation; this "
            f"{cfg.algorithm.value} scan {why}"
        )
    groups = plan.groups(plan.phases[0], (), cfg.sdr.instantaneous_bandwidth_hz)
    group_of = {ch: i for i, group in enumerate(groups) for ch in group}  # groups partition
    divisors = []
    for dev in cfg.devices:
        audible = len({group_of[ch] for ch in dev.channels if ch in group_of})
        if audible == 0:
            raise ScenarioError(f"device {dev.name} inaudible to the scan rotation")
        divisors.append(len(groups) / audible)
    return divisors


def run_model(
    cfg: ScenarioConfig, delta_t_s: float | None = None
) -> list[tuple[int, float]]:
    """Expected discovery time of the n-th device for n = 1..N.

    Discretizes each device's Poisson rate at the scenario's timestep with
    its rotation divisor, then evaluates the exact order-statistic
    expectation. The model has no frame loss, no retune time and only
    Poisson emitters, so a scenario with any of them is refused rather
    than given expectations that do not describe it.
    """
    if cfg.loss_prob > 0:
        raise ScenarioError("loss-prob: the analytic model assumes no frame loss")
    if cfg.sdr.retune_latency_s > 0:
        raise ScenarioError("retune-latency: the analytic model assumes no retune time")
    for dev in cfg.devices:
        if dev.emitter is not EmitterKind.POISSON:
            raise ScenarioError(
                f"device {dev.name}: emitter {dev.emitter.value}: the analytic model "
                "covers Poisson emitters only"
            )
    if not cfg.devices:
        return []
    dt = cfg.delta_t_s if delta_t_s is None else delta_t_s
    rates = [1.0 / d.mean_interarrival_s for d in cfg.devices]
    pv = discretize(
        rates,
        dt,
        device_channel_divisors(cfg),
        max_multi_arrival_prob=cfg.max_multi_arrival_prob,
    )
    return list(enumerate(expected_order_statistics(pv), start=1))


def compare(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> ComparisonReport:
    """Run the experiment and the model; check CI coverage row by row.

    Passes when the model expectation falls inside the measured confidence
    interval for at least 75% of the rows that have a defined CI. With
    ``out_dir``, writes ``run_experiment``'s outputs plus model.csv and
    compare.csv.
    """
    model = run_model(cfg)  # refuses unmodelled scans before any trial runs
    result = run_experiment(cfg, out_dir)
    expected = dict(model)
    rows: list[CompareRow] = []
    usable = in_ci_count = 0
    for row in result.summary.rows:
        exp = expected.get(row.n)
        if exp is None or row.censored_count > 0 or not np.isfinite(row.ci_halfwidth_s):
            continue
        hit = row.ci_lo_s <= exp <= row.ci_hi_s
        usable += 1
        in_ci_count += hit
        rows.append(CompareRow(row.n, row.mean_s, row.ci_lo_s, row.ci_hi_s, exp, hit))
    fraction = in_ci_count / usable if usable else 0.0
    report = ComparisonReport(
        rows=tuple(rows),
        in_ci_fraction=fraction,
        passed=usable > 0 and fraction >= 0.75,
    )
    if out_dir is not None:
        out = Path(out_dir)
        (out / "model.csv").write_text(model_csv(model))
        (out / "compare.csv").write_text(compare_csv(report))
    return report


# ---------------------------------------------------------------------------
# Serialization

def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@functools.lru_cache(maxsize=4096)
def _csv_field(text: str) -> str:
    """``text`` as ``_csv_text`` writes it in a field after the first:
    quoted by the ``csv`` module where its dialect needs quotes, once per
    distinct text while it stays among the last 4096 asked for."""
    return _csv_text(["", text], [])[1:-1]


def trials_csv(result: ExperimentResult) -> str:
    """``_csv_text`` of the trials' rows, one f-string each: trial and n are
    ints, and each distinct device name is quoted once by ``_csv_field``."""
    names = {device for rec in result.trials for _, device in rec.first_seen}
    quoted = {device: _csv_field(device) for device in names}
    lines = ["trial,n,first_seen_s,device\n"]
    for rec in result.trials:
        trial = rec.trial
        lines += [
            f"{trial},{n},{t:.6f},{quoted[device]}\n"
            for n, (t, device) in enumerate(rec.first_seen, start=1)
        ]
    return "".join(lines)


def summary_csv(summary: OrderStatSummary) -> str:
    rows = [
        [row.n, f"{row.mean_s:.6f}", f"{row.ci_lo_s:.6f}", f"{row.ci_hi_s:.6f}", row.censored_count]
        for row in summary.rows
    ]
    return _csv_text(["n", "mean_s", "ci_lo_s", "ci_hi_s", "censored_count"], rows)


def model_csv(model: list[tuple[int, float]]) -> str:
    rows = [[n, f"{t:.6f}"] for n, t in model]
    return _csv_text(["n", "expected_time_s"], rows)


def compare_csv(report: ComparisonReport) -> str:
    rows = [
        [
            r.n,
            f"{r.mean_s:.6f}",
            f"{r.ci_lo_s:.6f}",
            f"{r.ci_hi_s:.6f}",
            f"{r.expected_s:.6f}",
            int(r.in_ci),
        ]
        for r in report.rows
    ]
    return _csv_text(["n", "mean_s", "ci_lo_s", "ci_hi_s", "expected_s", "in_ci"], rows)


def events_csv(env: Environment, horizon_s: float) -> str:
    rows = [
        [
            f"{em.time_s:.6f}",
            em.channel.label,
            em.channel.protocol.value,
            em.device,
            em.frame.hex(),
        ]
        for em in env.iter_events(horizon_s)
    ]
    return _csv_text(["time_s", "channel_label", "protocol", "device", "frame_hex"], rows)


def config_digest(cfg: ScenarioConfig) -> str:
    payload = cfg.source_text if cfg.source_text is not None else repr(cfg)
    return hashlib.sha256(payload.encode()).hexdigest()


def manifest_text(cfg: ScenarioConfig) -> str:
    lines = [
        f"scenario {cfg.name}",
        f"config-sha256 {config_digest(cfg)}",
        f"algorithm {cfg.algorithm.value}",
        f"seed {cfg.seed}",
        f"trials {cfg.trials}",
        f"iotsweep {__version__}",
        f"numpy {np.__version__}",
    ]
    return "\n".join(lines) + "\n"
