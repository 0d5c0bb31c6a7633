"""Channel scanning algorithms over a simulated radio environment.

The scanner owns a discovery log (canonical device -> first-seen time) and
walks channels under an SDR model whose one hard constraint is the
instantaneous bandwidth: channels whose spans fit inside it together can be
received in parallel for the price of a single dwell.

Building blocks:

  listen                one channel, one dwell window
  listen_in_parallel    one dwell window across a bandwidth-fitting group
  probe_channels        probe + short listen per channel; returns the
                        channels that showed any traffic

Every algorithm is a ``ScanPlan``: channels to probe first, then one or
more phases, each a round-robin over channel groups. ``Scanner.scan`` runs
any plan, and only the plan differs from one algorithm to the next:

  algorithm                   probes          phases             groups of
  passive_scan                none            the channel list   one channel
  active_scan                 the channels    one, empty         one channel
  multiprotocol_scan          none            the channel list   bandwidth
  active_multiprotocol_scan   the probe list  the channel list   bandwidth
  sequential_passive_scan     none            one per protocol   one channel

A plan that probes adds the channels that answered to its phase, and the
merge is listened on in ascending order. A bandwidth group is what
``plan_channel_groups`` cuts from a phase. A sequential scan moves on to
its next phase once every device audible in the current one is found.

Every listen records what it hears in the scanner's ``DiscoveryLog``, each
address under the name of the device that sent it, and the log is a scan's
one result: the scans return nothing, and a listen returns only whether any
frame in its window carried an address. Each distinct frame is decoded once
per process, and every probe window is one listen.

Every scan counts its budget from its own start: each window, probe or
rotation, starts within it. Each phase is run by ``Scanner._rotate``, which
hears a window as a listen does, and queries only the windows whose group
hears the next event of a device the log does not yet hold every address
of: no other window can add to the log. Which groups hear a device, and on
which of its channels, is its row of ``Testbed.hearing``, which the stop set
of a phase and the array pass read too.

From a fresh environment, a device is first seen at its first event
within the budget that lands in a window that hears it and whose frame
decodes to an address: a probe window on its channel, or a rotation window
whose group holds a channel the event survived loss on. Its own streams,
the window schedule, the channels that answered the probes and the window
each phase starts at fix it. A phase after the first starts on the same
fold of windows, one past the latest in which the phase before it first
heard a device it waited for, or at the budget if one of them is never
heard. So ``rotation_first_seen`` gives every trial's first-seen times in
one array pass, the reference being ``Scanner.scan``, which also leaves
the whole log and the clock; only direct ``Scanner.scan`` calls run per
trial.
"""

from __future__ import annotations

import functools
import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import frames
from .address import DeviceAddress
from .channels import PROBEABLE_PROTOCOLS, Channel, Protocol, channel_sort_key, zwave_uses_crc16
from .errors import ParameterError
from .simulation import EmissionDraws, Environment, _stream

DEFAULT_PROBE_DWELL_S = 0.2
DEFAULT_BANDWIDTH_HZ = 8_000_000


@dataclass(frozen=True)
class SdrConfig:
    """Receiver model: how much spectrum fits at once, and the hop cost."""

    instantaneous_bandwidth_hz: int = DEFAULT_BANDWIDTH_HZ
    retune_latency_s: float = 0.0

    def __post_init__(self):
        if not self.instantaneous_bandwidth_hz > 0:
            raise ParameterError("bandwidth: must be positive")
        if not 0.0 <= self.retune_latency_s < math.inf:
            raise ParameterError("retune-latency: must be finite and >= 0")


@dataclass
class DiscoveryLog:
    """First-seen timestamps per canonical device, plus every raw address."""

    first_seen: dict[str, float] = field(default_factory=dict)
    addresses: set[DeviceAddress] = field(default_factory=set)

    def record(self, device: str, t: float, addr: DeviceAddress) -> None:
        self.addresses.add(addr)
        if device not in self.first_seen:
            self.first_seen[device] = t

    def covers(self, names: frozenset[str]) -> bool:
        return names <= self.first_seen.keys()


def find_channels_in_range(ch_list: Sequence[Channel], bandwidth_hz: int) -> list[Channel]:
    """Channels whose whole band fits in ``bandwidth_hz`` anchored at the
    first channel's lower edge.

    ``ch_list`` must be ascending by frequency. The first element is always
    included, so the result is never empty. Doubled-integer arithmetic keeps
    the edge comparison exact.
    """
    if not ch_list:
        raise ParameterError("channel list is empty")
    _require_ascending(ch_list)
    return _fit_from_first(ch_list, bandwidth_hz)


def _fit_from_first(ch_list: Sequence[Channel], bandwidth_hz: int) -> list[Channel]:
    """``find_channels_in_range`` on a non-empty list already known to ascend."""
    first = ch_list[0]
    anchor2 = 2 * first.center_freq_hz - first.bandwidth_hz  # 2 * lower edge
    out = [first]
    for ch in ch_list[1:]:
        if (2 * ch.center_freq_hz + ch.bandwidth_hz) - anchor2 <= 2 * bandwidth_hz:
            out.append(ch)
    return out


def plan_channel_groups(ch_list: Sequence[Channel], bandwidth_hz: int) -> list[list[Channel]]:
    """Greedy partition into bandwidth-fitting groups, lowest frequency first."""
    if not ch_list:
        raise ParameterError("channel list is empty")
    _require_ascending(ch_list)
    unscanned = list(ch_list)
    groups: list[list[Channel]] = []
    while unscanned:
        group = _fit_from_first(unscanned, bandwidth_hz)  # a subsequence still ascends
        groups.append(group)
        taken = set(group)
        unscanned = [ch for ch in unscanned if ch not in taken]
    return groups


def _require_ascending(ch_list: Sequence[Channel]) -> None:
    keys = [channel_sort_key(ch) for ch in ch_list]
    if keys != sorted(keys):
        raise ParameterError("channel list must be sorted by ascending frequency")


@dataclass(frozen=True)
class ScanPlan:
    """What a scan probes and which channel groups it rotates over.

    A scan probes ``probes`` first, then runs one rotation per phase, in
    order, over ``groups(phase, responders, bandwidth_hz)``. Only a plan
    that probes may have an empty phase: its rotation then hears only the
    channels that answered, and none if none did.
    """

    phases: tuple[tuple[Channel, ...], ...]
    probes: tuple[Channel, ...] = ()
    grouped: bool = False  # bandwidth groups, not one channel at a time

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(tuple(phase) for phase in self.phases))
        object.__setattr__(self, "probes", tuple(self.probes))
        if not self.phases or not (self.probes or all(self.phases)):
            raise ParameterError("a scan needs phases, each with channels unless it probes")

    def groups(
        self, phase: Sequence[Channel], responders: Iterable[Channel], bandwidth_hz: int
    ) -> Sequence[Sequence[Channel]]:
        """The groups one phase rotates over: the phase's channels, or, in a
        plan that probes, their union with the responders in ascending
        order; one channel each, or the phase's bandwidth groups. The
        groups partition those channels: each is in exactly one group. Every
        trial of an experiment asks for the same few, so they are built
        once per process (``_phase_groups``)."""
        probes = bool(self.probes)
        responders = tuple(responders) if probes else ()
        return _phase_groups(probes, self.grouped, tuple(phase), responders, bandwidth_hz)

    def channels(self) -> frozenset[Channel]:
        """Every channel the scan can probe or listen on."""
        return frozenset(self.probes).union(*self.phases)


@functools.lru_cache(maxsize=256)
def _phase_groups(
    probes: bool,
    grouped: bool,
    phase: tuple[Channel, ...],
    responders: tuple[Channel, ...],
    bandwidth_hz: int,
) -> tuple[tuple[Channel, ...], ...]:
    """``ScanPlan.groups`` of a plan that probes (or not) and groups (or
    not), as tuples; a refused channel list raises on every call."""
    if probes:
        channels = sorted(set(phase).union(responders), key=channel_sort_key)
    else:
        channels = list(dict.fromkeys(phase))  # each channel once
    if not grouped:
        return tuple((ch,) for ch in channels)
    if not channels:
        return ()
    return tuple(tuple(group) for group in plan_channel_groups(channels, bandwidth_hz))


@functools.lru_cache(maxsize=4096)
def _frame_address(channel: Channel, data: bytes) -> DeviceAddress | None:
    """The source address a frame received on ``channel`` carries, if any.

    A pure function of its arguments, and a scan hears the same few frames
    over and over, so each distinct frame is decoded once per process per
    channel. Channels are interned and hash by identity, so the key hashes
    in C; the protocol and, for Z-Wave, the check variant of the channel's
    PHY are read only on a miss. A frame that fails to decode raises on
    every call: exceptions are not cached. ``frames.decode`` and
    ``frames.extract_address`` are looked up on the module at each miss, so
    a wrapper installed there sees them.
    """
    protocol = channel.protocol
    hint = zwave_uses_crc16(channel) if protocol is Protocol.ZWAVE else None
    return frames.extract_address(frames.decode(protocol, data, zwave_crc16=hint))


class Scanner:
    """Runs scan algorithms against one Environment, accumulating discoveries.

    ``until_complete`` (a set of canonical device names) lets an experiment
    runner stop a scan as soon as everything it is measuring has been found;
    windows past that point can never change a first-seen time, so recorded
    discovery times are identical with or without it, and a scan that starts
    with it found opens no window.
    """

    def __init__(
        self,
        env: Environment,
        sdr: SdrConfig,
        *,
        probe_dwell_time_s: float = DEFAULT_PROBE_DWELL_S,
    ):
        if not 0.0 < probe_dwell_time_s < math.inf:
            raise ParameterError("probe dwell must be positive and finite")
        self.env = env
        self.sdr = sdr
        self.probe_dwell_time_s = probe_dwell_time_s
        self.log = DiscoveryLog()
        self._t0 = env.clock

    # -- building blocks ------------------------------------------------------

    def _ingest(self, emissions) -> bool:
        """Record every addressed frame; True if there was one."""
        log, t0 = self.log, self._t0
        heard = False
        for em in emissions:
            addr = _frame_address(em.channel, em.frame)
            if addr is not None:
                heard = True
                log.record(em.device, em.time_s - t0, addr)
        return heard

    def listen(self, channel: Channel, dwell_time_s: float) -> bool:
        """Receive on one channel for one dwell; True if any address was heard."""
        t0 = self.env.clock
        return self._ingest(
            self.env.emissions_in_parallel((channel,), t0, t0 + dwell_time_s)
        )

    def listen_in_parallel(self, ch_range: Iterable[Channel], dwell_time_s: float) -> bool:
        """Receive on every channel of one bandwidth-fitting group at once.

        One dwell of wall-clock time total; records exactly what per-channel
        listens over the same window would.
        """
        t0 = self.env.clock
        return self._ingest(self.env.emissions_in_parallel(ch_range, t0, t0 + dwell_time_s))

    def probe_channels(self, ch_list: Sequence[Channel], dwell_time_s: float) -> list[Channel]:
        """Probe every channel and listen briefly; returns the channels that
        produced any reception (a beacon reply or ordinary traffic)."""
        env = self.env
        active: list[Channel] = []
        for ch in ch_list:
            env.inject_probe(ch)
            if self.listen(ch, dwell_time_s):
                active.append(ch)
            if self.sdr.retune_latency_s:
                env.advance(self.sdr.retune_latency_s)
        return active

    # -- scan algorithms -------------------------------------------------------

    def scan(
        self,
        plan: ScanPlan,
        dwell_time_s: float,
        scan_time_s: float,
        *,
        until_complete: frozenset[str] | None = None,
    ) -> None:
        """Run ``plan`` within a budget of ``scan_time_s`` from the scan's start.

        First the probes whose probe windows start within the budget, one
        probe dwell and a retune each; the budget may end before every
        channel is probed. Then one rotation per phase over the plan's
        groups, each checking the budget before its windows, so the final
        window may overrun ``scan_time_s`` by up to one dwell. Every phase
        but the last ends once every device audible on its channels (among
        ``until_complete``, if given) is found, so that the next can start.
        The last phase, like a scan of one phase, ends once the log covers
        ``until_complete`` or the budget is spent.
        """
        env, sdr = self.env, self.sdr
        t_start = env.clock
        responders: list[Channel] = []
        if plan.probes:
            probe = self.probe_dwell_time_s
            windows = _plan(t_start, probe, sdr.retune_latency_s, t_start, scan_time_s)
            n = min(len(plan.probes), windows.count)
            responders = self.probe_channels(plan.probes[:n], probe)
        last = len(plan.phases) - 1
        for i, phase in enumerate(plan.phases):
            groups = plan.groups(phase, responders, sdr.instantaneous_bandwidth_hz)
            stop = until_complete
            if i < last:
                hears = env.testbed.hearing(groups).any(axis=1)
                audible = frozenset(env.devices[pos].name for pos in np.flatnonzero(hears).tolist())
                stop = audible if stop is None else audible & stop
            if groups:
                self._rotate(groups, dwell_time_s, scan_time_s, t_start, stop=stop)

    # Each named scan builds its plan from its channel arguments; the rest of
    # its arguments (dwell, budget, ``until_complete``) are ``scan``'s.

    def passive_scan(self, ch_list: Sequence[Channel], *args, **kwargs) -> None:
        """Round-robin listen over ``ch_list``, one channel at a time."""
        self.scan(ScanPlan((ch_list,)), *args, **kwargs)

    def active_scan(self, ch_list: Sequence[Channel], *args, **kwargs) -> None:
        """Probe ``ch_list``, then listen on the channels that answered, one
        at a time; with none, the scan ends after the probes."""
        self.scan(ScanPlan(((),), probes=ch_list), *args, **kwargs)

    def multiprotocol_scan(self, ch_list: Sequence[Channel], *args, **kwargs) -> None:
        """Round-robin the bandwidth groups of ``ch_list`` with parallel
        listens. Single-channel groups make this a passive scan."""
        self.scan(ScanPlan((ch_list,), grouped=True), *args, **kwargs)

    def active_multiprotocol_scan(
        self, ch_list: Sequence[Channel], ch_probe_list: Sequence[Channel], *args, **kwargs
    ) -> None:
        """Probe ``ch_probe_list``, then multiprotocol-scan the responders
        merged with the always-scanned ``ch_list``."""
        self.scan(ScanPlan((ch_list,), probes=ch_probe_list, grouped=True), *args, **kwargs)

    def sequential_passive_scan(self, phases: Sequence[Sequence[Channel]], *args, **kwargs) -> None:
        """Passive-scan each phase in turn: the one-protocol-after-another
        baseline the parallel scans are measured against."""
        self.scan(ScanPlan(phases), *args, **kwargs)

    def _rotate(
        self,
        groups: tuple[tuple[Channel, ...], ...],
        dwell_time_s: float,
        scan_time_s: float,
        t_start: float,
        *,
        stop: frozenset[str] | None = None,
    ) -> None:
        """The one round-robin every scan runs: listen to ``groups`` in turn
        from the clock on, one dwell each plus a retune, while at most
        ``scan_time_s`` has passed since the scan's start ``t_start``. The
        rotation stops once the log covers ``stop``, checked before the
        first window and after each window: a rotation whose stop set is
        already logged opens no window and keeps the clock. Window j starts
        at c_j, ends at e_j = c_j + dwell, and the next starts at
        c_{j+1} = e_j + retune; ``_Windows`` gives these edges bit for bit
        as stepping the clock one window at a time does.

        Each window is heard as a listen hears it, but only the windows
        that can add to the log are queried. The next is the earliest, from
        the one after the last queried, whose group hears the next event of
        a device some address of which the log lacks. A device's row of
        ``Testbed.hearing`` gives its residue offsets: offsets[r] is the
        k >= 0 for which group (r + k) mod G is the first from group r on
        that hears it, so from window i = max(index of its next event, j)
        the first that can hear it is i + offsets[i % G]. No window before
        the earliest holds an event of such a device on its group's
        channels, and the frames of a fully logged device add nothing, so
        skipping those windows changes neither the log nor what a later
        window hears: every query drops the events before its start.

        Each device's first window is kept in a heap and recomputed only
        once it is behind j. It stays right while it is j or later: no
        window between j and it hears the device, and its next event is
        unchanged, as a query generates only the devices on its group's
        channels whose next event is before its end, and such a device's
        first window is the one queried. A device the log holds every
        address of leaves the heap when it comes to the top."""
        env, log = self.env, self.log
        windows = _plan(env.clock, dwell_time_s, self.sdr.retune_latency_s, t_start, scan_time_s)
        if not windows.count:
            return
        addresses, logged = env.testbed.addresses, log.addresses
        count, G = windows.count, len(groups)
        devices = []
        for pos, row in enumerate(env.testbed.hearing(groups).tolist()):
            if any(row):
                dev = env.devices[pos]
                offsets = [next(k for k in range(G) if row[(r + k) % G]) for r in range(G)]
                devices.append((dev, offsets, addresses[dev.name]))
        c0, j = env.clock, 0

        def first_window(k: int) -> int:
            """The first window from j on that can hear device k's next event."""
            dev, offsets, _ = devices[k]
            i = max(windows.index(max(dev.next_time, c0)), j)
            return i + offsets[i % G]

        queue = [(first_window(k), k) for k in range(len(devices))]
        heapq.heapify(queue)
        while stop is None or not log.covers(stop):
            while queue:
                nxt, k = queue[0]
                if devices[k][2] <= logged:
                    heapq.heappop(queue)
                elif nxt < j:
                    heapq.heapreplace(queue, (first_window(k), k))
                else:
                    break
            j = min(queue[0][0], count) if queue else count
            if j == count:
                break
            c, e = windows.edges(j)
            self._ingest(env.emissions_in_parallel(groups[j % G], c, e))
            j += 1
        env.clock = windows.edges(j)[0]


#: (trial, device) pairs ``rotation_first_seen`` draws and places together:
#: as many whole trials as fit, and at least one. Only a bound on the memory
#: of the pass's arrays: a block holds no RNG stream, since each lives for one
#: ``EmissionDraws.draw``, so every bundled scenario runs in one block.
_PASS_BLOCK = 4096


def rotation_first_seen(
    testbed, streams, loss_prob, sdr, plan, dwell_time_s, scan_time_s, probe_dwell_time_s,
    probe_response_delay_max_s,
) -> list[dict[str, float]]:
    """Each trial's ``log.first_seen`` after ``Scanner.scan`` of ``plan`` from
    a fresh environment, ``streams`` being the trials' ``stream_seeds``.
    Each (trial, device) pair's events are drawn a chunk at a time
    (``EmissionDraws``), and it is heard at the earliest that lands in a
    window that hears it and whose frame decodes on a channel the window's
    group holds, as in ``_rotate``: the pair's row of ``Testbed.hearing``
    marks those channels per group. First
    the probe windows that start within the budget. Probe channels are
    distinct Zigbee channels, so a device sits in at most one, having sent
    nothing before it: its beacon is index -256, sent at the window's start
    plus a uniform delay from its probe stream unless the stream's next draw
    is a lost coin. A channel answered if any frame in its window decodes,
    and a trial's answered channels give its groups. Then the rotations
    from c_n, where the probes end: a response that lands after its probe
    window is a candidate there too, an event before c_n is not, and a pair
    draws more while it is unheard and its last chunk ended within the
    budget.

    A phase continues the one fold of windows from c_n, so phase p of a
    trial holds windows J_p .. count-1, window j under its group
    (j - J_p) mod G_p, with J_0 = 0. Each pair that phase p hears and the
    log lacks is heard in it or never, and J_(p+1) is one past the latest
    window that heard one of them (``count`` if one is never heard, J_p if
    there is none), as ``_rotate``'s stop set ends the phase. So a pair
    left for a later phase has drawn only its first chunk. A plan that
    probes has one phase."""
    probes, phases = plan.probes, plan.phases
    if probes and len(phases) > 1:
        raise ParameterError("one array pass runs a plan that probes in one phase")
    if len(set(probes)) < len(probes) or {ch.protocol for ch in probes} - PROBEABLE_PROTOCOLS:
        raise ParameterError("one array pass probes distinct channels that have a broadcast probe")
    retune, devices = sdr.retune_latency_s, testbed.devices
    opens = []  # the edges of the probe windows run
    if probes:
        probe_windows = _plan(0.0, probe_dwell_time_s, retune, 0.0, scan_time_s)
        opens = [probe_windows.edges(k) for k in range(min(len(probes), probe_windows.count))]
    probed = probes[: len(opens)]
    start = probe_windows.edges(len(opens))[0] if opens else 0.0  # c_n
    windows = _plan(start, dwell_time_s, retune, 0.0, scan_time_s)
    scope = testbed.scope(frozenset(probed).union(*phases))
    seen: list[dict[str, float]] = [{} for _ in streams]
    n = len(scope)
    if not n or not (probed or windows.count):
        return seen
    window_of = {pos: k for k, ch in enumerate(probed) for pos in testbed.by_channel.get(ch, ())}
    responding = {pos for ch in probed for pos in testbed.responders.get(ch, ())}
    # per scope device: its spec and name, its probe window (-1: none) and whether it answers
    specs = [devices[pos] for pos in scope]
    names = [spec.name for spec in specs]
    window = np.array([window_of.get(pos, -1) for pos in scope])
    responds = np.array([pos in responding for pos in scope], bool)
    scope, edges = np.array(scope), np.array(opens + [(0.0, 0.0)])  # [0, 0): no probe window
    tables = {}  # (phase, answered channels) -> the scope's rows of its groups' hearing table
    per = max(1, _PASS_BLOCK // n)  # trials per block
    for b in range(0, len(streams), per):
        m = min(per, len(streams) - b)  # pair i is trial b + i // n and device scope[i % n]
        rows = np.arange(m * n)
        device = rows % n  # each pair's index in the scope
        block = streams[b : b + m][:, scope].reshape(-1)
        draws = EmissionDraws(specs, block, loss_prob)
        pair_specs = specs * m
        heard = np.full(len(rows), np.inf)
        chunks = [draws.draw(rows)]  # every pair's first chunk, and more while a probe needs it
        answered = [()] * m
        if probed:
            c, e = edges[window[device]].T  # each pair's probe window
            response = np.full(len(rows), np.inf)
            # a responder's probe stream: its delay, as uniform(0, max) is 0.0 + max *
            # random(), then its loss coin
            answers = np.flatnonzero(responds[device])
            coins = np.empty((len(answers), 2))
            for out, words in zip(coins, block["probe"][answers]):
                _stream(words).random(out=out)
            sent = coins[:, 1] >= loss_prob
            response[answers[sent]] = c[answers[sent]] + probe_response_delay_max_s * coins[sent, 0]
            # a probed device has emitted nothing before its probe: sequence byte 0
            _hear(pair_specs, heard, rows, -256, response[:, None],
                  np.where((c <= response) & (response < e), 1, 0)[:, None])
            while True:
                t, kept = chunks[-1]
                inside = (c[:, None] <= t) & (t < e[:, None])
                first = int(draws.drawn[0]) - t.shape[1]
                _hear(pair_specs, heard, rows, first, t, np.where(inside, kept & 1, 0))
                if not (draws.last < np.minimum(e, heard)).any():
                    break
                chunks.append(draws.draw(rows))
            hits = np.where(heard < np.inf, window[device], -1).reshape(m, n)
            answered = [tuple(probed[k] for k in sorted(set(hit.tolist()) - {-1})) for hit in hits]
        done = np.zeros(m, np.int64)  # J_p of each trial: the windows before phase p
        for p, phase in enumerate(phases):
            keys = [(p, a) for a in answered]
            for key in set(keys) - tables.keys():
                groups = plan.groups(phase, key[1], sdr.instantaneous_bandwidth_hz)
                tables[key] = testbed.hearing(groups)[scope]
            widths = [tables[key].shape[1] for key in keys]
            tab = np.zeros((m, n, max(widths)), np.int64)
            for key in set(keys):
                trials = [k for k, other in enumerate(keys) if other == key]
                tab[trials, :, : tables[key].shape[1]] = tables[key]
            tab, width = tab.reshape(m * n, -1), np.repeat(widths, n)[:, None]
            shift, shifted = done.repeat(n), done.any()  # each pair's J_p
            live = np.flatnonzero((heard == np.inf) & tab.any(axis=1) & (shift < windows.count))
            pairs = live  # the pairs this phase waits for
            t, kept = (np.concatenate(chunk, axis=1)[live] for chunk in zip(*chunks))
            first = 0
            late = live[response[live] < np.inf] if probed else live[:0]
            if len(late):  # a response that lands after its probe window
                j, inside = windows.holding(response[late, None])
                _hear(pair_specs, heard, late, -256, response[late, None],
                      np.where(inside, tab[late[:, None], j % width[late]] & 1, 0))
            while len(live):
                j, inside = windows.holding(t)
                if shifted:
                    j = j - shift[live, None]
                    inside &= j >= 0
                bits = np.where(inside, tab[live[:, None], j % width[live]] & kept, 0)
                _hear(pair_specs, heard, live, first, t, bits)
                live = live[draws.last[live] < np.minimum(heard[live], windows.end)]
                if len(live):
                    first = int(draws.drawn[live[0]])
                    t, kept = draws.draw(live)
            if p + 1 < len(phases):
                j, _ = windows.holding(heard[pairs])
                np.maximum.at(done, pairs // n, np.minimum(j + 1, windows.count))
        for k, times in enumerate(heard.reshape(m, n).tolist()):
            seen[b + k] = {name: t for name, t in zip(names, times) if t < math.inf}
    return seen


def _hear(specs, heard, live, first, t, bits) -> None:
    """Set ``heard[i]``, for each row ``live[r]`` = i, to the time of its
    earliest event before ``heard[i]`` whose frame decodes on a channel
    that ``bits[r]`` marks, tried in channel order. A row's events are in
    time order, and event k is number ``first + k``. Each round tries the
    earliest event left of every row not yet heard; nearly every frame
    decodes, so a call nearly always ends after one round."""
    audible = (bits != 0) & (t < heard[live, None])
    rows = np.flatnonzero(audible.any(axis=1))
    while len(rows):
        ks = audible[rows].argmax(axis=1)
        failed = []
        for r, i, idx, mask in zip(
            range(len(rows)), live[rows].tolist(), (first + ks).tolist(), bits[rows, ks].tolist()
        ):
            spec = specs[i]
            frame, channels = spec.frame(idx), spec.channels
            if mask & mask - 1:  # several channels
                decodes = any(
                    mask >> n & 1 and _frame_address(ch, frame) is not None
                    for n, ch in enumerate(channels)
                )
            else:
                decodes = _frame_address(channels[mask.bit_length() - 1], frame) is not None
            if not decodes:
                failed.append(r)
        if not failed:
            heard[live[rows]] = t[rows, ks]
            return
        hit = np.ones(len(rows), bool)
        hit[failed] = False
        heard[live[rows[hit]]] = t[rows[hit], ks[hit]]
        audible[rows, ks] = False
        audible[rows[hit]] = False
        rows = np.flatnonzero(audible.any(axis=1))


class _Windows:
    """The edges of a rotation's windows from ``clock`` on: window j starts
    at c_j, ends at e_j and the next starts at c_{j+1}, bit for bit as the
    left fold ``e_j = c_j + dwell; c_{j+1} = e_j + retune`` gives them
    (``clock + j * (dwell + retune)`` would round differently), and
    ``count`` is the first j with c_j - t_start > scan_time_s.

    No fold is needed. Every double in a binade [2^k, 2^(k+1)) is a
    multiple of its ulp u, so while an exact sum stays in the binade,
    fl(x + dwell) = x + D*u with D = round(dwell / u), unless dwell / u is
    a half-integer (round-half-even then depends on x); the same holds for
    the retune with R. A run of windows inside one binade is thus
    c_j = (X + (j - j0) * P) * u and e_j = c_j + D * u, with integers
    X = c_{j0} / u and P = D + R, for as long as X + (j + 1 - j0) * P stays
    below 2^53. At a binade crossing, from clock 0 and on a tie, one window
    is taken by plain float steps instead, as a run of one in units of
    ulp(c_{j0}). So a rotation costs about two runs per binade its clock
    crosses, whatever its number of windows. A dwell that cannot move the
    clock within the budget is refused, as its windows would never end.

    A plan is read-only once built, so one plan serves every rotation with
    the same five numbers: ``_plan`` keeps the recent ones.
    """

    __slots__ = ("_first", "_starts", "_runs", "_arrays", "count", "end")

    def __init__(self, clock, dwell, retune, t_start, scan_time_s):
        if not 0.0 < dwell < math.inf:
            raise ParameterError("dwell must be positive and finite")
        last = t_start + scan_time_s
        if dwell <= math.ulp(last) / 2:
            raise ParameterError(f"dwell {dwell} s cannot advance a clock of {last} s")
        self._first: list[int] = []  # index of each run's first window
        self._starts: list[float] = []  # start of each run's first window
        self._runs: list[tuple[int, float, int, int]] = []  # (X, u, D, P) of each run
        j = 0
        while clock - t_start <= scan_time_s:
            u = math.ulp(clock or dwell)
            x, d, r = int(clock / u), dwell / u, retune / u
            k = 0
            if clock and 0.5 < d and d + r < 2**53 and d % 1 != 0.5 and r % 1 != 0.5:
                D, P = round(d), round(d) + round(r)
                k = (2**53 - 1 - x) // P
            if k:
                if float(x + k * P) * u - t_start > scan_time_s:  # the budget ends in this run
                    k = _first_past(x, u, P, k, t_start, scan_time_s)
                nxt = float(x + k * P) * u
            else:
                t1 = clock + dwell
                nxt = t1 + retune
                D, P, k = int(t1 / u) - x, int(nxt / u) - x, 1
            self._first.append(j)
            self._starts.append(clock)
            self._runs.append((x, u, D, P))
            clock, j = nxt, j + k
        self.count = j
        self.end = clock
        self._first, self._starts, self._runs = (
            tuple(self._first), tuple(self._starts), tuple(self._runs)
        )
        # per run: its first window's index, start and end, the period and its last step
        self._arrays = (
            np.array(self._first),
            np.array(self._starts),
            np.array([float(x + D) * u for x, u, D, _ in self._runs]),
            np.array([P * u for _, u, _, P in self._runs]),
            np.diff(self._first + (j,)) - 1,
        )

    def edges(self, j: int) -> tuple[float, float]:
        """(c_j, e_j) for 0 <= j < count; for j = count only c_j holds."""
        i = bisect_right(self._first, j) - 1
        x, u, D, P = self._runs[i]
        y = x + (j - self._first[i]) * P
        return float(y) * u, float(y + D) * u

    def index(self, t: float) -> int:
        """The window j whose span holds t, c_j <= t < c_{j+1}; before c_0
        and past the last window, ``count``. ``holding``'s scalar twin."""
        if not self._starts[0] <= t < self.end:
            return self.count
        r = bisect_right(self._starts, t) - 1
        x, u, _, P = self._runs[r]
        return self._first[r] + (int(t / u) - x) // P

    def holding(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The window j holding each time of ``t``, as ``index`` places it,
        in one array pass, and whether the time lies in it: c_j <= t < e_j,
        not in the retune after it. Before c_0 and past the last window j is
        ``count``. Within a run, c_j and e_j are its first window's edges
        plus a whole number of periods, each sum exact as the run's edges
        are multiples of its ulp below 2^53 of them.

        The step count is floor((t - c) / p) for the run's start c and
        period p, by a true quotient, which is exact in a run of several
        windows. There c = X*u and p = P*u with 2^52 <= X and
        X + K*P < 2^53 for its K windows, and t lies in the run, in c's
        binade: t = T*u, so t - c = M*u exactly with M < K*P. For
        q = M // P < K, fl(M / P) >= q as q is a double, and it stays below
        q + 1: it would round up only if 1/P, its least distance from
        q + 1, were at most half an ulp of q + 1, at most (q + 1) * 2^-53,
        but P * (q + 1) <= K*P < 2^52. In a run of one window the period
        may pass 2^53 ulps, and a time less the run's start may then round
        up to the period, so each step count is clamped to the run's last."""
        first, starts, ends, period, last = self._arrays
        inside = (starts[0] <= t) & (t < self.end)
        t = np.where(inside, t, starts[0])
        r = np.searchsorted(starts, t, side="right") - 1
        step = period[r]
        k = np.minimum(np.floor((t - starts[r]) / step), last[r])
        j = np.where(inside, first[r] + k.astype(np.int64), self.count)
        return j, inside & (t < ends[r] + k * step)


#: Plans ``_plan`` keeps. Every trial of an experiment asks for the same few
#: (the probe windows, and each rotation that starts at a fixed clock).
_PLAN_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(clock, dwell, retune, t_start, scan_time_s) -> _Windows:
    """``_Windows(clock, dwell, retune, t_start, scan_time_s)``, built
    once per distinct five numbers while it stays among the last
    ``_PLAN_CACHE_SIZE`` asked for. A refused dwell raises on every call:
    exceptions are not cached."""
    return _Windows(clock, dwell, retune, t_start, scan_time_s)


def _first_past(x: int, u: float, P: int, k: int, t_start: float, scan_time_s: float) -> int:
    """The first m in (0, k] with (x + m * P) * u - t_start > scan_time_s,
    where m = 0 is within the budget and m = k is not. The test only turns
    true as m grows, so m is solved from (t_start + scan_time_s) / u and then
    stepped to the exact first m."""

    def past(m):
        return float(x + m * P) * u - t_start > scan_time_s

    m = min(max(math.floor(((t_start + scan_time_s) / u - x) / P) + 1, 1), k)
    while m > 1 and past(m - 1):
        m -= 1
    while not past(m):
        m += 1
    return m
