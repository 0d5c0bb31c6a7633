import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from iotsweep import analytics
from iotsweep.analytics import (
    ProbabilityVector,
    discretize,
    expected_order_statistics,
    mc_order_statistic,
    multi_arrival_prob,
    summarize,
    t_quantile,
)
from iotsweep.errors import DegenerateVectorError, DeltaTooCoarseError, ParameterError
from iotsweep.experiment import device_channel_divisors, model_csv
from iotsweep.scenario import load_bundled_scenario


class TestDiscretize:
    def test_single_channel(self):
        pv = discretize([1.0], 0.1, 1)
        assert pv.p[0] == pytest.approx(0.1 * math.exp(-0.1), abs=1e-12)
        assert pv.p0 == pytest.approx(1.0 - pv.p[0], abs=1e-12)

    def test_channel_divisor(self):
        pv = discretize([1.0], 0.1, 16)
        assert pv.p[0] == pytest.approx(0.0056552, abs=1e-6)

    def test_poisson_split(self):
        # two unit-rate devices: Pr(no arrival in 0.1 s) = exp(-0.2)
        lam_dt = 2.0 * 0.1
        assert math.exp(-lam_dt) == pytest.approx(0.8187, abs=5e-5)
        pr2 = multi_arrival_prob([1.0, 1.0], 0.1)
        assert pr2 == pytest.approx(1 - math.exp(-0.2) - 0.2 * math.exp(-0.2), abs=1e-12)

    def test_gate_rejects_coarse_step(self):
        with pytest.raises(DeltaTooCoarseError) as err:
            discretize([1.0, 1.0, 1.0], 0.5)
        assert err.value.multi_arrival_prob > 0.01

    def test_gate_is_configurable(self):
        pv = discretize([1.0, 1.0, 1.0], 0.5, max_multi_arrival_prob=0.5)
        assert pv.p0 > 0

    def test_per_device_divisors(self):
        pv = discretize([0.5, 0.5], 0.1, [1, 16])
        assert pv.p[0] == pytest.approx(16 * pv.p[1], rel=1e-12)

    def test_normalization_invariant(self):
        pv = discretize([0.2, 0.5, 1.0], 0.05, 3)
        assert pv.p0 + math.fsum(pv.p) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("delta_t", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_bad_delta_t(self, delta_t):
        with pytest.raises(ParameterError, match="delta_t"):
            discretize([1.0], delta_t)

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_rates(self, rate):
        with pytest.raises(ParameterError, match="rates"):
            discretize([1.0, rate], 0.1)

    @pytest.mark.parametrize("divisor", [0.5, math.nan])
    def test_rejects_bad_divisors(self, divisor):
        with pytest.raises(ParameterError, match="divisors"):
            discretize([1.0, 1.0], 0.1, [1, divisor])


def inclusion_exclusion(pv: ProbabilityVector) -> list[Fraction]:
    """Expected draws to n of N devices, n = 1..N, in exact rational arithmetic.

    E[draws to n] = sum_{h<n} (-1)^(n-1-h) C(N-h-1, N-n) sum_{|J|=h} 1/(P - P_J),
    with P the total transmit probability and P_J that of the devices in J.
    Exponential in N; a reference for small vectors only.
    """
    p = [Fraction(q) for q in pv.p]
    n_dev, total = len(p), sum(p)
    t = [
        sum(1 / (total - sum(subset)) for subset in itertools.combinations(p, h))
        for h in range(n_dev)
    ]
    return [
        Fraction(pv.delta_t_s)
        * sum((-1) ** (n - 1 - h) * math.comb(n_dev - h - 1, n_dev - n) * t[h] for h in range(n))
        for n in range(1, n_dev + 1)
    ]


def worst_relative_error(values, exact) -> float:
    return max(abs(v - float(e)) / float(e) for v, e in zip(values, exact, strict=True))


def dense_layout(p: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """A reference quadrature over the model's [t_lo, t_hi]: 32-node panels
    half an e-fold wide all the way, 64 nodes per e-fold and no wide head
    panels, for N up to a few hundred far denser than ``analytics._quadrature``."""
    t_lo = analytics._HEAD_MASS / p.sum()
    u_lo = math.log(t_lo)
    u_hi = math.log((math.log(p.size) + analytics._TAIL_EXPONENT) / p.min())
    width = 0.5
    panels = math.ceil((u_hi - u_lo) / width)
    nodes, node_weights = np.polynomial.legendre.leggauss(32)
    u = u_lo + width * np.arange(panels)[:, None] + 0.5 * width * (nodes + 1.0)
    t = np.exp(u.ravel())
    return t_lo, t, np.tile(0.5 * width * node_weights, panels) * t


def order_statistics_reference(pv: ProbabilityVector, layout=analytics._quadrature) -> list[float]:
    """The exact model written with fresh arrays each device step and one
    np.cumsum: the same IEEE operations in the same order as the in-place
    recursion of ``expected_order_statistics``, so on the model's own
    ``layout`` results match it exactly."""
    p = np.asarray(pv.p, dtype=float)
    n_dev = p.size
    t_lo, t, weights = layout(p)
    heard = np.zeros((n_dev, t.size))
    heard[0] = 1.0
    for i, p_i in enumerate(p):
        miss = np.exp(-p_i * t)
        hit = -np.expm1(-p_i * t)
        top = min(i + 1, n_dev - 1)
        heard[1 : top + 1] = heard[1 : top + 1] * miss + heard[:top] * hit
        heard[0] *= miss
    draws = t_lo + np.cumsum(heard, axis=0) @ weights
    return (draws * pv.delta_t_s).tolist()


def random_vector(rng: np.random.Generator, n_dev: int) -> ProbabilityVector:
    """N devices over up to four decades of p, a random null mass and step."""
    raw = rng.random(n_dev) * 10.0 ** rng.uniform(-4.0, 0.0, n_dev)
    p0 = float(rng.uniform(0.0, 0.99))
    return ProbabilityVector(
        p0=p0, p=tuple(raw / raw.sum() * (1 - p0)), delta_t_s=float(rng.uniform(0.01, 1.0))
    )


class TestExactExpectation:
    def test_single_device_null_coupon(self):
        pv = ProbabilityVector(p0=0.5, p=(0.5,), delta_t_s=1.0)
        assert expected_order_statistics(pv)[0] == pytest.approx(2.0, abs=1e-9)

    def test_uniform_two_coupon(self):
        pv = ProbabilityVector(p0=0.0, p=(0.5, 0.5), delta_t_s=1.0)
        assert expected_order_statistics(pv)[1] == pytest.approx(3.0, abs=1e-9)

    def test_classic_three_coupon(self):
        pv = ProbabilityVector(p0=0.0, p=(1 / 3, 1 / 3, 1 / 3), delta_t_s=1.0)
        assert expected_order_statistics(pv) == pytest.approx([1.0, 2.5, 5.5], abs=1e-9)

    def test_seconds_scale_with_delta_t(self):
        a = ProbabilityVector(p0=0.0, p=(0.5, 0.5), delta_t_s=1.0)
        b = ProbabilityVector(p0=0.0, p=(0.5, 0.5), delta_t_s=0.1)
        assert expected_order_statistics(a)[1] == pytest.approx(
            10 * expected_order_statistics(b)[1]
        )

    def test_monotone_in_n(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            raw = rng.uniform(0.05, 0.4, size=n)
            raw *= rng.uniform(0.3, 0.95) / raw.sum()
            pv = ProbabilityVector(
                p0=1 - float(raw.sum()), p=tuple(float(x) for x in raw), delta_t_s=1.0
            )
            values = expected_order_statistics(pv)
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_null_coupon_scaling_law(self):
        base = ProbabilityVector(p0=0.0, p=(0.45, 0.30, 0.25), delta_t_s=1.0)
        e0 = expected_order_statistics(base)
        for s in (0.5, 0.25):
            scaled = ProbabilityVector(
                p0=1 - s, p=tuple(s * q for q in base.p), delta_t_s=1.0
            )
            e1 = expected_order_statistics(scaled)
            for a, b in zip(e0, e1):
                assert b == pytest.approx(a / s, rel=1e-9)

    def test_divisor_scaling_matches_16x(self):
        rates = [1 / 6.0, 1 / 9.5, 1 / 14.0]
        e1 = expected_order_statistics(discretize(rates, 0.1, 1))
        e16 = expected_order_statistics(discretize(rates, 0.1, 16))
        for a, b in zip(e1, e16):
            assert b == pytest.approx(16 * a, rel=1e-9)

    def test_matches_exact_inclusion_exclusion(self):
        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(1, 9))
            raw = 10.0 ** rng.uniform(-4.0, 0.0, size=n)  # four decades
            raw *= rng.uniform(0.05, 1.0) / raw.sum()
            pv = ProbabilityVector(
                p0=1 - float(raw.sum()), p=tuple(float(x) for x in raw), delta_t_s=1.0
            )
            exact = inclusion_exclusion(pv)
            worst = max(worst, worst_relative_error(expected_order_statistics(pv), exact))
        assert worst <= 1e-12

    def test_matches_reference_exactly(self):
        rng = np.random.default_rng(22)
        for n_dev in range(1, 151):
            pv = random_vector(rng, n_dev)
            assert expected_order_statistics(pv) == order_statistics_reference(pv), n_dev

    @pytest.mark.parametrize("n_dev", [333, 512])
    def test_matches_reference_exactly_in_the_hundreds(self, n_dev):
        pv = random_vector(np.random.default_rng(n_dev), n_dev)
        assert expected_order_statistics(pv) == order_statistics_reference(pv)

    def test_layout_matches_dense_reference(self):
        # guards the wide head panels and the body width, which the bit-for-bit
        # tests above cannot see: they share the model's layout
        rng = np.random.default_rng(23)
        vectors = [random_vector(rng, n_dev) for n_dev in range(1, 151, 7)]
        raw = np.concatenate((np.ones(300), np.logspace(-3.0, 0.0, 10)))
        vectors.append(ProbabilityVector(p0=0.4, p=tuple(raw / raw.sum() * 0.6), delta_t_s=0.1))
        for pv in vectors:
            dense = order_statistics_reference(pv, layout=dense_layout)
            assert worst_relative_error(expected_order_statistics(pv), dense) <= 1e-13, pv.n_devices

    @pytest.mark.parametrize("n_dev", [100, 200, 500, 1000])
    def test_uniform_closed_form_without_device_cap(self, n_dev):
        p0 = 0.3
        pv = ProbabilityVector(p0=p0, p=((1 - p0) / n_dev,) * n_dev, delta_t_s=1.0)
        closed = np.cumsum([n_dev / ((n_dev - k) * (1 - p0)) for k in range(n_dev)])
        assert worst_relative_error(expected_order_statistics(pv), closed) <= 1e-12

    def test_golden_model_row_is_exact(self):
        # the bundled scenario whose model.csv the cancelling subset sum got wrong
        cfg = load_bundled_scenario("zwave-lora-passive")
        rates = [1.0 / d.mean_interarrival_s for d in cfg.devices]
        pv = discretize(rates, cfg.delta_t_s, device_channel_divisors(cfg))
        exact = [float(e) for e in inclusion_exclusion(pv)]
        golden = Path(__file__).with_name("golden") / cfg.name / "model.csv"
        assert model_csv(list(enumerate(exact, start=1))) == golden.read_text()

    def test_degenerate_vector(self):
        pv = ProbabilityVector(p0=0.5, p=(0.5, 0.0), delta_t_s=1.0)
        with pytest.raises(DegenerateVectorError):
            expected_order_statistics(pv)

    def test_small_delta_t_matches_continuous_first_discovery(self):
        rates = [1.0, 1.0]
        pv = discretize(rates, 1e-3, 1)
        e1 = expected_order_statistics(pv)[0]
        cont = 1 / math.fsum(rates)
        assert abs(e1 - cont) / cont < 0.002


class TestContinuousMinCheck:
    """On a continuously monitored channel the first discovery takes
    1/sum(lambda) on average; the model approaches it as delta_t -> 0."""

    def test_values(self):
        for rates in ([1.0], [1.0, 1.0], [0.5, 2.0, 0.25]):
            e1 = expected_order_statistics(discretize(rates, 1e-5))[0]
            assert e1 == pytest.approx(1 / math.fsum(rates), rel=1e-4), rates


def mc_reference(pv: ProbabilityVector, n: int, episodes: int, seed: int) -> float:
    """The Monte Carlo oracle written with fresh arrays each step: the same
    RNG calls and arithmetic as ``mc_order_statistic``, so results match it
    exactly."""
    rng = np.random.default_rng(seed)
    p = np.asarray(pv.p, dtype=float)
    collected = np.zeros((episodes, len(p)), dtype=bool)
    draws = np.zeros(episodes, dtype=float)
    for _ in range(n):
        fresh_mass = np.where(collected, 0.0, p).cumsum(axis=1)
        live = fresh_mass[:, -1]
        draws += rng.geometric(live)
        u = rng.random(episodes) * live
        idx = np.minimum((fresh_mass < u[:, None]).sum(axis=1), len(p) - 1)
        collected[np.arange(episodes), idx] = True
    return float(draws.mean()) * pv.delta_t_s


class TestMonteCarlo:
    def test_matches_uniform_two_coupon(self):
        pv = ProbabilityVector(p0=0.0, p=(0.5, 0.5), delta_t_s=1.0)
        assert mc_order_statistic(pv, 2, episodes=200_000, seed=3) == pytest.approx(
            3.0, rel=0.01
        )

    def test_first_discovery_matches_null_mass(self):
        pv = ProbabilityVector(p0=0.75, p=(0.1, 0.15), delta_t_s=1.0)
        assert mc_order_statistic(pv, 1, episodes=200_000, seed=4) == pytest.approx(
            4.0, rel=0.01
        )

    def test_agrees_with_closed_form(self):
        pv = ProbabilityVector(p0=0.5, p=(0.2, 0.2, 0.1), delta_t_s=1.0)
        exact = expected_order_statistics(pv)[2]
        mc = mc_order_statistic(pv, 3, episodes=1_000_000, seed=9)
        assert abs(mc - exact) / exact < 0.005

    def test_deterministic_for_seed(self):
        pv = ProbabilityVector(p0=0.25, p=(0.5, 0.25), delta_t_s=1.0)
        a = mc_order_statistic(pv, 2, episodes=10_000, seed=42)
        b = mc_order_statistic(pv, 2, episodes=10_000, seed=42)
        assert a == b

    def test_pinned_values(self):
        """Exact results for fixed inputs: the RNG call order and the
        arithmetic of the oracle are part of its contract."""
        pv = ProbabilityVector(
            p0=0.6, p=(0.12, 0.08, 0.06, 0.05, 0.04, 0.03, 0.015, 0.005), delta_t_s=0.5
        )
        assert mc_order_statistic(pv, 8, episodes=40_000, seed=2024) == 111.308975
        assert mc_order_statistic(pv, 5, episodes=40_000, seed=2024) == 11.5345125

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n_dev = int(rng.integers(1, 10))
        raw = rng.random(n_dev) * 10.0 ** rng.uniform(-3, 0, n_dev)
        p0 = float(rng.uniform(0.0, 0.9))
        pv = ProbabilityVector(p0=p0, p=tuple(raw / raw.sum() * (1 - p0)), delta_t_s=0.1)
        for n in (1, n_dev):
            assert mc_order_statistic(pv, n, 3000, seed) == mc_reference(pv, n, 3000, seed)


class TestTQuantile:
    @pytest.mark.parametrize(
        "df,expected",
        [(1, 12.706), (4, 2.776), (9, 2.262), (29, 2.045), (120, 1.980)],
    )
    def test_table_values(self, df, expected):
        assert t_quantile(0.975, df) == pytest.approx(expected, abs=5e-4)

    def test_large_df_approaches_normal(self):
        assert t_quantile(0.975, 10**6) == pytest.approx(1.95996, abs=1e-3)

    def test_symmetry_and_median(self):
        assert t_quantile(0.5, 7) == 0.0
        assert t_quantile(0.025, 9) == pytest.approx(-t_quantile(0.975, 9), abs=1e-12)

    def test_cache_keeps_values_and_validation(self):
        first = t_quantile(0.975, 9)
        assert t_quantile(0.975, 9) == first == analytics._t_quantile.__wrapped__(0.975, 9)
        with pytest.raises(ParameterError):
            t_quantile(1.0, 9)
        with pytest.raises(ParameterError):
            t_quantile(0.975, 0)


class TestSummarize:
    def test_identical_trials_collapse(self):
        s = summarize([[1.0, 4.0], [1.0, 4.0], [1.0, 4.0]])
        assert [r.mean_s for r in s.rows] == [1.0, 4.0]
        assert all(r.std_s == 0.0 and r.ci_halfwidth_s == 0.0 for r in s.rows)

    def test_two_point_sample(self):
        s = summarize([[1.0], [3.0]])
        row = s.rows[0]
        assert row.mean_s == 2.0
        assert row.std_s == pytest.approx(math.sqrt(2.0))

    def test_uses_t_quantile(self):
        trials = [[float(i)] for i in range(10)]
        s = summarize(trials, alpha=0.05)
        row = s.rows[0]
        expect = 2.262157 * row.std_s / math.sqrt(10)
        assert row.ci_halfwidth_s == pytest.approx(expect, rel=1e-4)

    def test_censored_rows_flagged(self):
        # second trial never found its second device
        s = summarize([[1.0, 5.0], [2.0]], n_devices=2)
        assert s.rows[0].censored_count == 0
        assert s.rows[1].censored_count == 1
        assert s.rows[1].mean_s == 5.0  # aggregated over the remaining trial

    def test_sorts_within_trial(self):
        s = summarize([[5.0, 1.0], [4.0, 2.0]])
        assert s.rows[0].mean_s == pytest.approx(1.5)
        assert s.rows[1].mean_s == pytest.approx(4.5)

    def test_single_trial_has_no_spread(self):
        s = summarize([[3.0, 1.0]], n_devices=3)
        assert [r.mean_s for r in s.rows[:2]] == [1.0, 3.0]
        assert all(math.isnan(r.std_s) and math.isnan(r.ci_halfwidth_s) for r in s.rows)
        assert math.isnan(s.rows[2].mean_s) and s.rows[2].censored_count == 1

    def test_needs_a_trial(self):
        with pytest.raises(ParameterError):
            summarize([])
