"""Acceptance gate: every shipped claim, verified at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
PASS/FAIL line each criterion prints). All runs are deterministic: bundled
scenarios pin their seeds, and every criterion states its tolerance inline.
"""

import dataclasses
import math
import random
import time
import zlib

import numpy as np
import pytest

from frame_random import random_ble, random_lora, random_zigbee, random_zwave
from iotsweep.analytics import (
    ProbabilityVector,
    expected_order_statistics,
    mc_order_statistic,
    summarize,
    t_quantile,
)
from iotsweep.channels import Protocol
from iotsweep.checksums import ble_crc24, zigbee_fcs, zwave_crc16, zwave_xor8
from iotsweep.experiment import compare, run_experiment
from iotsweep.frames import ZWaveFrame, decode, encode
from iotsweep.scenario import load_bundled_scenario


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")


def mean_full_discovery(result) -> float:
    times = result.full_discovery_times()
    assert len(times) == result.config.trials, "a trial failed to find every device"
    return float(np.mean(times))


class TestCriterion1ModelFit:
    @pytest.mark.parametrize("name", ["zigbee-passive", "ble-passive"])
    def test_model_inside_ci(self, name):
        t0 = time.perf_counter()
        rep = compare(load_bundled_scenario(name))
        wall = time.perf_counter() - t0
        hits = sum(r.in_ci for r in rep.rows)
        ok = hits >= 9 and len(rep.rows) == 12 and wall < 10.0
        report(
            "criterion-1 model-fit",
            ok,
            f"{name}: model inside 95% CI for {hits}/12 order statistics "
            f"(need >=9), wall {wall:.2f}s (need <10)",
        )
        assert len(rep.rows) == 12
        assert hits >= 9
        assert wall < 10.0


class TestCriterion2ActiveSpeedup:
    def test_active_vs_passive_ratio(self):
        passive = run_experiment(load_bundled_scenario("zigbee-passive"))
        active = run_experiment(load_bundled_scenario("zigbee-active"))
        ratio = mean_full_discovery(active) / mean_full_discovery(passive)
        ok = ratio <= 0.35
        report(
            "criterion-2 active-speedup",
            ok,
            f"mean full discovery active/passive = {ratio:.3f} (need <=0.35)",
        )
        assert ratio <= 0.35


class TestCriterion3Multiprotocol24GHz:
    def test_active_multi_vs_sequential(self):
        sequential = run_experiment(load_bundled_scenario("zigbee-ble-sequential"))
        multi = run_experiment(load_bundled_scenario("zigbee-ble-active-multi"))
        ratio = mean_full_discovery(multi) / mean_full_discovery(sequential)
        ok = ratio <= 0.45
        report(
            "criterion-3 multiprotocol-2.4GHz",
            ok,
            f"mean full discovery multi/sequential = {ratio:.3f} (need <=0.45)",
        )
        assert ratio <= 0.45


class TestCriterion4Multiprotocol900MHz:
    def test_single_group_vs_round_robin(self):
        t0 = time.perf_counter()
        passive = run_experiment(load_bundled_scenario("zwave-lora-passive"))
        multi = run_experiment(load_bundled_scenario("zwave-lora-multi"))
        wall = time.perf_counter() - t0
        ratio = mean_full_discovery(multi) / mean_full_discovery(passive)
        ok = ratio <= 0.45 and wall < 5.0
        report(
            "criterion-4 multiprotocol-900MHz",
            ok,
            f"simulated-time ratio multi/passive = {ratio:.3f} (need <=0.45), "
            f"wall {wall:.2f}s (need <5)",
        )
        assert ratio <= 0.45
        assert wall < 5.0


class TestCriterion5DwellInsensitivity:
    def test_dwell_choice_does_not_matter(self):
        cfg = load_bundled_scenario("zigbee-dwell")
        means, halfwidths = [], []
        for dwell in (0.1, 1.0, 3.0):
            result = run_experiment(dataclasses.replace(cfg, dwell_time_s=dwell))
            full = result.summary.rows[-1]
            assert full.censored_count == 0
            means.append(full.mean_s)
            halfwidths.append(full.ci_halfwidth_s)
        spread = max(means) - min(means)
        limit = max(halfwidths)
        ok = spread < limit
        report(
            "criterion-5 dwell-insensitivity",
            ok,
            f"full-discovery means {[f'{m:.1f}' for m in means]} s spread "
            f"{spread:.1f} s < largest CI halfwidth {limit:.1f} s",
        )
        assert spread < limit


class TestCriterion6AnalyticsOracle:
    def test_exact_matches_monte_carlo(self):
        rng = np.random.default_rng(424242)
        worst = 0.0
        for i in range(50):
            n_dev = int(rng.integers(2, 9))
            raw = rng.uniform(0.05, 0.35, size=n_dev)
            p0 = float(rng.uniform(0.0, 0.5))
            p = raw * (1.0 - p0) / raw.sum()
            pv = ProbabilityVector(
                p0=1.0 - float(p.sum()), p=tuple(float(x) for x in p), delta_t_s=1.0
            )
            exact = expected_order_statistics(pv)[n_dev - 1]
            mc = mc_order_statistic(pv, n_dev, episodes=1_000_000, seed=1000 + i)
            worst = max(worst, abs(mc - exact) / exact)
        ok = worst < 0.01
        report(
            "criterion-6 analytics-oracle",
            ok,
            f"worst closed-form vs Monte Carlo relative error {worst:.4%} over "
            f"50 random vectors (need <1%)",
        )
        assert worst < 0.01

    def test_classic_closed_forms_exact(self):
        errs = []
        for p0 in (0.0, 0.25, 0.5, 0.9):
            pv = ProbabilityVector(
                p0=p0, p=((1 - p0) / 2, (1 - p0) / 2), delta_t_s=1.0
            )
            errs.append(abs(expected_order_statistics(pv)[0] - 1.0 / (1.0 - p0)))
        uniform2 = ProbabilityVector(p0=0.0, p=(0.5, 0.5), delta_t_s=1.0)
        errs.append(abs(expected_order_statistics(uniform2)[1] - 3.0))
        worst = max(errs)
        ok = worst < 1e-9
        report(
            "criterion-6 classic-values",
            ok,
            f"first-discovery and uniform-pair closed forms exact to {worst:.2e} "
            f"draws (need <1e-9)",
        )
        assert worst < 1e-9


class TestCriterion7Codec:
    @pytest.mark.parametrize(
        "protocol,make",
        [
            (Protocol.ZIGBEE, random_zigbee),
            (Protocol.BLE_ADVERTISING, random_ble),
            (Protocol.LORA, random_lora),
            (Protocol.ZWAVE, random_zwave),
        ],
    )
    def test_ten_thousand_round_trips(self, protocol, make):
        rng = random.Random(zlib.crc32(protocol.value.encode()))
        bad = 0
        for _ in range(10_000):
            frame = make(rng)
            hint = frame.crc16 if isinstance(frame, ZWaveFrame) else None
            if decode(protocol, encode(frame), zwave_crc16=hint) != frame:
                bad += 1
        report(
            "criterion-7 codec-round-trip",
            bad == 0,
            f"{protocol.value}: {10_000 - bad}/10000 randomized frames survived "
            f"decode(encode(f)) = f",
        )
        assert bad == 0

    def test_checksum_known_answers(self):
        vectors = [
            ("zigbee fcs", zigbee_fcs(b"123456789"), 0x2189),
            ("zwave crc16", zwave_crc16(b"123456789"), 0xE5CC),
            ("ble crc24", ble_crc24(b"123456789"), 0xC25A56),
            ("zwave xor8", zwave_xor8(bytes(16)), 0xFF),
        ]
        ok = all(got == want for _, got, want in vectors)
        report(
            "criterion-7 checksum-constants",
            ok,
            "; ".join(f"{name} 0x{got:X} (want 0x{want:X})" for name, got, want in vectors),
        )
        for name, got, want in vectors:
            assert got == want, name


class TestCriterion8Statistics:
    def test_t_quantile_to_three_decimals(self):
        value = t_quantile(0.975, 9)
        ok = round(value, 3) == 2.262
        report(
            "criterion-8 t-quantile",
            ok,
            f"t(alpha=0.05 two-sided, 9 dof) = {value:.6f} (need 2.262 to 3 decimals)",
        )
        assert round(value, 3) == 2.262

    def test_ci_coverage(self):
        rng = np.random.default_rng(2)
        reps, m_trials, k, theta = 500, 10, 20, 5.0
        hits = 0
        for _ in range(reps):
            trials = []
            for _ in range(m_trials):
                draws = rng.exponential(theta, size=k)
                trials.append([math.fsum(draws) / k])
            row = summarize(trials, alpha=0.05).rows[0]
            hits += row.ci_lo_s <= theta <= row.ci_hi_s
        coverage = hits / reps
        ok = 0.93 <= coverage <= 0.97
        report(
            "criterion-8 ci-coverage",
            ok,
            f"95% CI covered the true mean in {coverage:.1%} of {reps} synthetic "
            f"exponential meta-repetitions (need 93-97%)",
        )
        assert 0.93 <= coverage <= 0.97
