"""Discovery-time model and experiment statistics.

The model treats scanning as repeated draws from a categorical distribution:
each timestep of length ``delta_t`` either hears device i (probability p_i)
or hears nobody (the null outcome, probability p0). Discovering n of N
devices is then collecting n distinct coupon types under non-uniform coupon
probabilities.

The expected draw count is computed exactly through Poissonization
(Flajolet, Gardy & Thimonier 1992; Boneh & Hofri 1997). Let draws arrive
at rate 1; device i is then first heard at an independent Exp(p_i) time,
and by Wald's identity

    E[draws to n of N] = integral_0^inf Pr(fewer than n devices heard by t) dt

The probability is a Poisson-binomial tail over q_i(t) = 1 - exp(-p_i t),
built for all n at once by adding one device at a time, and the integral
runs over log t with composite 16-node Gauss-Legendre panels. Every term is
positive, so nothing cancels, and N has no cap.

The panels follow the integrand (``_quadrature``). In the head, where
fewer than 1% of the devices have been heard, the integrand is nearly t,
and one panel over its 14 e-folds holds it. In the body the integrand's
steps narrow as 1/sqrt(N), and so do the panels: min(1, 7/sqrt(N)) wide in
log t. That is 240 nodes for a mixed Zigbee+BLE testbed at N=24 and 1136
for the uniform vector at N=1000, which sits within 1.1e-14 of its closed
form.

The recursion updates one (N x nodes) table in place, with one scratch
block for the terms taken from the old rows, and sums the rows in the
same table: it allocates no array per device. Its results are bit for bit
those of the same recursion written with fresh arrays per device and
``np.cumsum`` on the same nodes (the reference the tests compare against).
Its cost is O(N^2) per node: on a shared 2-core x86-64 host (Python 3.11,
numpy 2.4) a call takes about 0.35 ms at N=24 (the mixed testbed) and about
1.65 s at N=1000 (the uniform vector).

Seconds are draws times delta_t.

Per-timestep probabilities come from Poisson traffic: a device emitting at
rate lambda contributes p = (lambda*dt) * exp(-lambda*dt), divided by the
channel divisor C when the scanner only covers the device's channel 1/C of
the time. delta_t must be small enough that two arrivals in one step are
negligible; ``discretize`` enforces that gate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateVectorError, DeltaTooCoarseError, ParameterError

DEFAULT_DELTA_T_S = 0.1
DEFAULT_MULTI_ARRIVAL_GATE = 0.01


# ---------------------------------------------------------------------------
# Poisson discretization

@dataclass(frozen=True)
class ProbabilityVector:
    """Per-timestep transmit probabilities (p0, p_1..p_N).

    Normalized: p0 + sum(p) == 1.
    """

    p0: float
    p: tuple[float, ...]
    delta_t_s: float

    def __post_init__(self):
        if len(self.p) < 1:
            raise ParameterError("probability vector needs at least one device")
        if not 0.0 <= self.p0 <= 1.0 or any(not 0.0 <= q <= 1.0 for q in self.p):
            raise ParameterError("probabilities must lie in [0, 1]")
        total = self.p0 + math.fsum(self.p)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"p0 + sum(p) must equal 1, got {total!r}")

    @property
    def n_devices(self) -> int:
        return len(self.p)


def multi_arrival_prob(rates_per_s: Sequence[float], delta_t_s: float) -> float:
    """Pr(two or more arrivals in one timestep) for superposed Poisson traffic.

    With combined rate lambda = sum(lambda_i):
      Pr(Z=0) = exp(-lambda dt), Pr(Z=1) = lambda dt exp(-lambda dt),
      Pr(Z>=2) = 1 - Pr(Z=0) - Pr(Z=1).
    """
    lam = math.fsum(rates_per_s)
    x = lam * delta_t_s
    return 1.0 - math.exp(-x) - x * math.exp(-x)


def discretize(
    rates_per_s: Sequence[float],
    delta_t_s: float = DEFAULT_DELTA_T_S,
    channel_count: float | Sequence[float] = 1,
    *,
    max_multi_arrival_prob: float = DEFAULT_MULTI_ARRIVAL_GATE,
) -> ProbabilityVector:
    """Turn per-device Poisson rates into a per-timestep probability vector.

    p_i = (lambda_i dt) exp(-lambda_i dt) / C_i and p0 = 1 - sum(p_i); the
    explicit normalization keeps each draw a proper distribution. C may be a
    single divisor or one per device (a channel-hopping scanner hears a
    device 1/C of the time).
    """
    if not rates_per_s:
        raise ParameterError("need at least one device rate")
    if not all(0.0 < r < math.inf for r in rates_per_s):
        raise ParameterError("rates must be positive and finite")
    if not 0.0 < delta_t_s < math.inf:
        raise ParameterError("delta_t must be positive and finite")
    if isinstance(channel_count, (int, float)):
        divisors = [float(channel_count)] * len(rates_per_s)
    else:
        divisors = [float(c) for c in channel_count]
        if len(divisors) != len(rates_per_s):
            raise ParameterError("one channel divisor per device required")
    if not all(c >= 1 for c in divisors):
        raise ParameterError("channel divisors must be >= 1")

    pr_multi = multi_arrival_prob(rates_per_s, delta_t_s)
    if pr_multi > max_multi_arrival_prob:
        raise DeltaTooCoarseError(
            f"Pr(>=2 arrivals per step) = {pr_multi:.4g} exceeds the "
            f"{max_multi_arrival_prob:.4g} gate; shrink delta_t below "
            f"{delta_t_s:.4g} s or raise the gate",
            multi_arrival_prob=pr_multi,
        )
    p = tuple(
        (lam * delta_t_s) * math.exp(-lam * delta_t_s) / c
        for lam, c in zip(rates_per_s, divisors)
    )
    return ProbabilityVector(p0=1.0 - math.fsum(p), p=p, delta_t_s=delta_t_s)


# ---------------------------------------------------------------------------
# Exact order-statistic expectation

#: Gauss-Legendre nodes per quadrature panel, in the head and in the body.
_PANEL_NODES = 16

#: The integral starts at t_lo = _HEAD_MASS / sum(p). Fewer than n devices
#: are heard before t_lo except with probability below sum(p) t, so taking
#: [0, t_lo] as exactly t_lo is off by at most _HEAD_MASS**2 / 2 relative.
_HEAD_MASS = 1e-8

#: The head runs from t_lo to t_body = _BODY_MASS / sum(p), about 14 e-folds.
#: In it, a device has been heard with probability at most sum(p) t <=
#: _BODY_MASS, so over log t every row of the integrand is t times a factor
#: within _BODY_MASS of 1, and one panel integrates it to rounding.
_BODY_MASS = 1e-2

#: The body runs from t_body to t_hi, in panels at most
#: min(1, _BODY_WIDTH_SCALE / sqrt(N)) wide in log t. The integrand's steps
#: in log t narrow as 1/sqrt(N) (the uniform vector, which has the sharpest
#: steps at a given N, shows this), so the panels narrow with them: 16 nodes
#: per e-fold up to N = 49 and 16 sqrt(N) / 7 beyond, 72 at N=1000. With 7,
#: uniform vectors from N=24 to 1000 sit within 1.1e-14 of their closed
#: form; with 10 they drift to 5e-12 from N=100 on.
_BODY_WIDTH_SCALE = 7.0

#: The integral ends at t_hi = (ln N + _TAIL_EXPONENT) / min(p). Past it the
#: integrand is below N exp(-min(p) t), so the tail left out is below
#: exp(-_TAIL_EXPONENT) / min(p), a fraction exp(-_TAIL_EXPONENT) of
#: E[draws to N] >= 1 / min(p); rows n < N have far thinner tails.
_TAIL_EXPONENT = 42.0


@functools.cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]. Built on first use, so a
    process that only simulates never loads numpy.polynomial."""
    return np.polynomial.legendre.leggauss(_PANEL_NODES)


def _quadrature(p: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The layout of the integral over [t_lo, t_hi] for the vector ``p``:
    (t_lo, nodes t, weights), with the weights including dt = t du.

    One panel covers the head, where almost nothing has been heard, and
    equal panels no wider than min(1, _BODY_WIDTH_SCALE / sqrt(N)) the
    body. A vector whose t_hi overflows a double is refused; t_hi is the
    largest bound, as p.min() <= p.sum()."""
    n_dev = p.size
    total = p.sum()
    p_min = float(p.min())
    t_hi = (math.log(n_dev) + _TAIL_EXPONENT) / p_min
    if t_hi == math.inf:
        raise DegenerateVectorError(
            f"a transmit probability of {p_min:.3g} per timestep puts the model's "
            "horizon past the largest double; a mean interval or delta_t is too extreme"
        )
    t_lo = _HEAD_MASS / total
    u_lo = math.log(t_lo)
    u_body = math.log(_BODY_MASS / total)
    u_hi = math.log(t_hi)
    bodies = math.ceil((u_hi - u_body) / min(1.0, _BODY_WIDTH_SCALE / math.sqrt(n_dev)))
    body_width = (u_hi - u_body) / bodies
    edges = np.array([u_lo] + [u_body + body_width * j for j in range(bodies)] + [u_hi])
    nodes, node_weights = _panel_rule()
    half = 0.5 * np.diff(edges)[:, None]
    t = np.exp(edges[:-1, None] + half * (nodes + 1.0)).ravel()
    weights = (half * node_weights).ravel() * t  # dt = t du
    return t_lo, t, weights


def expected_order_statistics(pv: ProbabilityVector) -> list[float]:
    """Expected time (seconds) to discover n devices, for every n = 1..N."""
    p = np.asarray(pv.p, dtype=float)
    if np.any(p <= 0.0):
        raise DegenerateVectorError(
            "every device needs a positive transmit probability; a device "
            "with p_i <= 0 is never drawn"
        )
    n_dev = p.size
    t_lo, t, weights = _quadrature(p)

    # heard[k] = Pr(exactly k devices heard by t) for k < N, one device at a
    # time, in place: heard[k] = heard[k] * miss + heard[k-1] * hit, with
    # miss = exp(-p_i t) and hit = -expm1(-p_i t). The hit terms are taken
    # from the old rows into the scratch block before the rows are scaled.
    # heard[k-1] * expm1 subtracted is heard[k-1] * hit added, exactly, so
    # every value is bit for bit that of the fresh-array expression.
    heard = np.zeros((n_dev, t.size))
    heard[0] = 1.0
    scratch = np.empty((n_dev - 1, t.size))
    exponent = np.empty_like(t)
    miss = np.empty_like(t)
    minus_hit = np.empty_like(t)
    for i, p_i in enumerate(p):
        np.multiply(-p_i, t, out=exponent)
        np.exp(exponent, out=miss)
        np.expm1(exponent, out=minus_hit)
        top = min(i + 1, n_dev - 1)
        np.multiply(heard[:top], minus_hit, out=scratch[:top])
        heard[: top + 1] *= miss
        heard[1 : top + 1] -= scratch[:top]
    # Running sum down the rows: row n-1 becomes Pr(fewer than n heard by t).
    for k in range(1, n_dev):
        np.add(heard[k - 1], heard[k], out=heard[k])
    draws = t_lo + heard @ weights
    return (draws * pv.delta_t_s).tolist()


# ---------------------------------------------------------------------------
# Monte Carlo oracle

def mc_order_statistic(
    pv: ProbabilityVector, n: int, episodes: int, seed: int
) -> float:
    """Mean time (seconds) to collect n distinct devices, by simulation.

    Simulates the per-timestep categorical draw process exactly. Draws that
    hit the null coupon or an already-seen device leave the state unchanged,
    so the simulation samples the geometric number of timesteps between
    successive new devices instead of iterating every timestep; the total
    draw count has the same distribution either way.
    """
    if episodes < 1:
        raise ParameterError("episodes must be >= 1")
    if not 1 <= n <= pv.n_devices:
        raise ParameterError(f"n must lie in 1..{pv.n_devices}, got {n}")
    rng = np.random.default_rng(seed)
    n_dev = pv.n_devices
    # Buffers reused across steps; column-major, so the running sum over
    # devices adds whole columns, one np.add each: the same additions in the
    # same order as np.cumsum along a row, which walks the strided rows.
    # An episode's heard devices have mass 0.
    fresh = np.empty((episodes, n_dev), order="F")
    fresh[:] = pv.p
    fresh_mass = np.empty_like(fresh)
    below = np.empty_like(fresh, dtype=bool)
    rows = np.arange(episodes)
    draws = np.zeros(episodes, dtype=float)
    for _ in range(n):
        fresh_mass[:, 0] = fresh[:, 0]
        for k in range(1, n_dev):
            np.add(fresh_mass[:, k - 1], fresh[:, k], out=fresh_mass[:, k])
        live = fresh_mass[:, -1]  # probability a draw hears a new device
        if np.any(live <= 0.0):
            raise DegenerateVectorError("zero probability of hearing a new device")
        draws += rng.geometric(live)
        u = rng.random(episodes)
        u *= live
        np.less(fresh_mass, u[:, None], out=below)
        idx = np.count_nonzero(below, axis=1)
        np.minimum(idx, n_dev - 1, out=idx)
        fresh[rows, idx] = 0.0
    return float(draws.mean()) * pv.delta_t_s


# ---------------------------------------------------------------------------
# Student-t quantile (no table lookup)

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_quantile(prob: float, df: int) -> float:
    """Inverse CDF of Student's t: the value x with P(T <= x) = prob.

    Uses the identity P(T > t) = I_{df/(df+t^2)}(df/2, 1/2) / 2 for t > 0 and
    inverts the incomplete beta by bisection.
    """
    if not 0.0 < prob < 1.0:
        raise ParameterError("prob must lie strictly in (0, 1)")
    if df < 1:
        raise ParameterError("degrees of freedom must be >= 1")
    return _t_quantile(prob, df)


@functools.lru_cache(maxsize=256)
def _t_quantile(prob: float, df: int) -> float:
    """t_quantile after validation; every summary row of a run shares one
    (prob, df), so the 200-step bisection runs once per pair."""
    if prob == 0.5:
        return 0.0
    tail = 2.0 * min(prob, 1.0 - prob)  # two-sided tail mass for |T| > t
    a = df / 2.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _betainc(a, 0.5, mid) < tail:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    t = math.sqrt(df * (1.0 - x) / x)
    return t if prob > 0.5 else -t


# ---------------------------------------------------------------------------
# Cross-trial summaries

@dataclass(frozen=True)
class OrderStatRow:
    n: int
    mean_s: float
    std_s: float
    ci_halfwidth_s: float
    censored_count: int

    @property
    def ci_lo_s(self) -> float:
        return self.mean_s - self.ci_halfwidth_s

    @property
    def ci_hi_s(self) -> float:
        return self.mean_s + self.ci_halfwidth_s


@dataclass(frozen=True)
class OrderStatSummary:
    rows: tuple[OrderStatRow, ...]
    trial_count: int
    alpha: float


def summarize(
    trials: Iterable[Sequence[float]],
    alpha: float = 0.05,
    n_devices: int | None = None,
) -> OrderStatSummary:
    """Sample means and t-confidence intervals of discovery order statistics.

    ``trials`` holds, per trial, the first-seen times of whichever devices
    that trial discovered (any order). Row n aggregates the n-th smallest
    time across trials. Trials that discovered fewer than n devices leave
    that order statistic undefined; such rows report a nonzero
    ``censored_count`` and aggregate the remaining trials only. A row that
    aggregates a single trial has that trial's time as its mean and NaN
    spread and CI halfwidth.
    """
    per_trial = [sorted(t) for t in trials]
    m = len(per_trial)
    if m < 1:
        raise ParameterError("need at least 1 trial, got 0")
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
    n_max = n_devices if n_devices is not None else max((len(t) for t in per_trial), default=0)
    rows = []
    for n in range(1, n_max + 1):
        values = [t[n - 1] for t in per_trial if len(t) >= n]
        censored = m - len(values)
        if not values:
            rows.append(OrderStatRow(n, math.nan, math.nan, math.nan, censored))
            continue
        mean = math.fsum(values) / len(values)
        if len(values) >= 2:
            var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
            std = math.sqrt(var)
            half = t_quantile(1.0 - alpha / 2.0, len(values) - 1) * std / math.sqrt(len(values))
        else:
            std = math.nan
            half = math.nan
        rows.append(OrderStatRow(n, mean, std, half, censored))
    return OrderStatSummary(rows=tuple(rows), trial_count=m, alpha=alpha)
