"""The benchmark's workloads: set-up, one op, and the check of its output.

Every workload is a closed loop with one client. Op k runs on the inputs of
pool entry (start + k) mod POOL, where the workload seed picks the start.
A seed thus always does the same work, reference.json can hold the output
of every op of every seed, and a run of about POOL ops or more does nearly
the same mix of work whatever its seed: op cost on sparse-900 varies by
about 20% from one scenario seed to the next, which would otherwise show
as run-to-run spread.

Callers reach iotsweep only through module attributes (``experiment.X``,
``scenario.X``, ``analytics.X``) so that the traced pass can wrap them.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from iotsweep import analytics, experiment, scenario
from iotsweep.channels import Protocol
from iotsweep.scenario import Algorithm

POOL = 24
REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Relative tolerance of the model check. Today's N=24 inclusion-exclusion
#: carries about 8e-8 of cancellation error, so a more exact algorithm
#: must still pass.
MODEL_RTOL = 1e-6
MC_EPISODES = 20_000
MC_BATCHES = 10
MC_MAX_STANDARD_ERRORS = 5.0


@dataclass(frozen=True)
class Output:
    """What one op produced: the bytes to compare and the seconds it covered."""

    key: str  # byte-for-byte identity of the output
    sim_s: float  # scan seconds the op covered (simulated or modelled)
    first_seen: int = 0  # devices first-seen, summed over trials
    rows: tuple = ()  # model rows per N (model-sweep only)


def derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def pool_start(workload_seed: int) -> int:
    """The pool entry op 0 runs at."""
    return derived_seed(workload_seed) % POOL


class ScanWorkload:
    """``run_experiment`` on one bundled scenario, then both CSV serializers."""

    probe = "python"  # ops run interpreted code: see worker.speed_probe

    def __init__(self, name: str, scenario_name: str, seed: int, trace_ops: int, reference):
        self.name = name
        self.scenario_name = scenario_name
        self.seed = seed
        self.trace_ops = trace_ops
        self.start = pool_start(seed)
        self.reference: list[str] | None = reference

    def setup(self) -> None:
        self.base = scenario.load_bundled_scenario(self.scenario_name)
        self.devices = frozenset(d.name for d in self.base.devices)
        self.configs = [dataclasses.replace(self.base, seed=derived_seed(i)) for i in range(POOL)]

    def warm_up(self) -> None:
        self._run(self.base)

    def run_op(self, k: int) -> Output:
        return self.run_entry((self.start + k) % POOL)

    def run_entry(self, i: int) -> Output:
        return self._run(self.configs[i])

    @staticmethod
    def _run(cfg) -> Output:
        result = experiment.run_experiment(cfg)
        text = experiment.trials_csv(result) + experiment.summary_csv(result.summary)
        return Output(
            key=text,
            sim_s=math.fsum(result.full_discovery_times()),
            first_seen=sum(len(rec.first_seen) for rec in result.trials),
        )

    def check(self, k: int, out: Output) -> str | None:
        """None when the output is right, else what is wrong with it."""
        if self.reference is not None:
            digest = hashlib.sha256(out.key.encode()).hexdigest()
            if digest != self.reference[(self.start + k) % POOL]:
                return f"op {k}: sha256 {digest} differs from the reference"
        return check_scan_csv(out.key, self.devices, self.base.trials)

    def final_check(self) -> str | None:
        return None


def check_scan_csv(text: str, devices: frozenset[str], trials: int) -> str | None:
    """Zero censored rows, one row per device per trial, ascending first-seen."""
    trials_part, sep, summary_part = text.partition("n,mean_s,")
    if not sep:
        return "summary.csv header missing"
    rows = list(csv.reader(io.StringIO(trials_part)))
    if rows[0] != ["trial", "n", "first_seen_s", "device"]:
        return f"bad trials.csv header {rows[0]}"
    by_trial: dict[int, list[tuple[int, float, str]]] = {}
    for trial, n, t, device in rows[1:]:
        by_trial.setdefault(int(trial), []).append((int(n), float(t), device))
    if sorted(by_trial) != list(range(trials)):
        return f"trials.csv covers trials {sorted(by_trial)}, expected 0..{trials - 1}"
    for trial, found in by_trial.items():
        if [n for n, _, _ in found] != list(range(1, len(devices) + 1)):
            return f"trial {trial}: rows are not n = 1..{len(devices)}"
        if {d for _, _, d in found} != devices:
            return f"trial {trial}: devices differ from the scenario's"
        times = [t for _, t, _ in found]
        if times != sorted(times):
            return f"trial {trial}: first-seen times are not ascending"
    summary = list(csv.reader(io.StringIO(sep + summary_part)))[1:]
    if len(summary) != len(devices):
        return f"summary.csv has {len(summary)} rows for {len(devices)} devices"
    if any(row[4] != "0" for row in summary):
        return "summary.csv has censored rows"
    return None


class ModelSweep:
    """``run_model`` at each N of NS on a two-protocol 2.4 GHz testbed.

    Devices alternate Zigbee and BLE, so every N mixes both protocols. Each
    pool entry permutes the N-device subsets: the model's value does not
    depend on device order, only its rounding does.
    """

    NS = (12, 16, 20, 24)
    # The model's time goes to numpy arithmetic on the subset-sum grids (up
    # to 924 x 924 at N=24); the subset sums themselves are built in Python
    # lists, a small share. See worker.speed_probe.
    probe = "array"

    def __init__(self, name: str, seed: int, trace_ops: int, reference):
        self.name = name
        self.seed = seed
        self.start = pool_start(seed)
        self.trace_ops = trace_ops
        self.reference = {int(n): rows for n, rows in reference.items()}

    def setup(self) -> None:
        testbed = scenario.load_bundled_scenario("zigbee-ble-active-multi")
        zigbee = [d for d in testbed.devices if d.protocol is Protocol.ZIGBEE]
        ble = [d for d in testbed.devices if d.protocol is Protocol.BLE_ADVERTISING]
        interleaved = [d for pair in zip(zigbee, ble) for d in pair]
        self.base = dataclasses.replace(
            testbed,
            algorithm=Algorithm.MULTIPROTOCOL,
            channels=tuple(scenario.resolve_channel_list("zigbee:11..26,ble-adv:37..39")),
            probe_channels=(),
            delta_t_s=0.02,
        )
        self.canonical = {
            n: dataclasses.replace(self.base, devices=tuple(interleaved[:n])) for n in self.NS
        }
        self.configs = []
        for i in range(POOL):
            rng = np.random.default_rng(i)
            self.configs.append([
                dataclasses.replace(cfg, devices=tuple(cfg.devices[i] for i in rng.permutation(n)))
                for n, cfg in self.canonical.items()
            ])

    def warm_up(self) -> None:
        for cfg in self.canonical.values():
            experiment.run_model(cfg)

    def run_op(self, k: int) -> Output:
        entry = self.configs[(self.start + k) % POOL]
        rows = tuple(experiment.run_model(cfg) for cfg in entry)
        return Output(key=repr(rows), sim_s=math.fsum(r[-1][1] for r in rows), rows=rows)

    def check(self, k: int, out: Output) -> str | None:
        for rows in out.rows:
            n_dev = len(rows)
            expected = self.reference[n_dev]
            if [n for n, _ in rows] != [n for n, _ in expected]:
                return f"op {k}, N={n_dev}: row indices differ from the reference"
            for (n, got), (_, want) in zip(rows, expected):
                if not math.isclose(got, want, rel_tol=MODEL_RTOL):
                    return f"op {k}, N={n_dev}, n={n}: {got!r} vs reference {want!r}"
        return None

    def final_check(self) -> str | None:
        """The N=24 full-discovery expectation against the Monte Carlo oracle."""
        cfg = self.canonical[self.NS[-1]]
        pv = analytics.discretize(
            [1.0 / d.mean_interarrival_s for d in cfg.devices],
            cfg.delta_t_s,
            experiment.device_channel_divisors(cfg),
            max_multi_arrival_prob=cfg.max_multi_arrival_prob,
        )
        n = pv.n_devices
        batch = MC_EPISODES // MC_BATCHES
        means = [
            analytics.mc_order_statistic(pv, n, batch, derived_seed(self.seed, b))
            for b in range(MC_BATCHES)
        ]
        mc = float(np.mean(means))
        stderr = float(np.std(means, ddof=1)) / math.sqrt(MC_BATCHES)
        expected = self.reference[n][-1][1]
        if abs(mc - expected) > MC_MAX_STANDARD_ERRORS * stderr:
            return (
                f"N={n}: model {expected:.4f} s is {abs(mc - expected) / stderr:.1f} "
                f"standard errors from Monte Carlo {mc:.4f} s"
            )
        return None


def make(name: str, seed: int, reference: dict | None = None):
    """Workload ``name`` at ``seed``, checked against ``reference``
    (default: reference.json; pass {} to run without reference outputs)."""
    if reference is None:
        reference = json.loads(REFERENCE_PATH.read_text())
    if name == "dense-2g4":
        return ScanWorkload(name, "zigbee-ble-active-multi", seed, 8, reference.get(name))
    if name == "sparse-900":
        return ScanWorkload(name, "zwave-lora-passive", seed, 2, reference.get(name))
    if name == "model-sweep":
        return ModelSweep(name, seed, 16, reference.get(name, {}))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("dense-2g4", "sparse-900", "model-sweep")
