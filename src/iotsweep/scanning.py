"""Channel scanning algorithms over a simulated radio environment.

The scanner owns a discovery log (canonical device -> first-seen time) and
walks channels under an SDR model whose one hard constraint is the
instantaneous bandwidth: channels whose spans fit inside it together can be
received in parallel for the price of a single dwell.

Algorithms build on each other:

  listen                one channel, one dwell window
  passive_scan          round-robin listen over a channel list
  probe_channels        probe + short listen per channel; returns the
                        channels that showed any traffic
  active_scan           probe first, then passive only on active channels
  listen_in_parallel    one dwell window across a bandwidth-fitting group
  multiprotocol_scan    partition channels into bandwidth groups, then
                        round-robin groups with parallel listens
  active_multiprotocol_scan
                        probe one protocol, merge its active channels with
                        the always-scanned list, multiprotocol over the merge
  sequential_passive_scan
                        baseline: finish one protocol's passive scan before
                        starting the next

Every window records what it hears in the scanner's ``DiscoveryLog``, which
is a scan's one result: the scans return nothing, and a listen returns only
whether any frame in its window carried an address.

Passive scans, multiprotocol scans and each sequential phase are one
round-robin over channel groups (a passive channel is a group of one), run
by ``Scanner._rotate``, which steps over windows that can hear nothing and
stops generating fully logged devices; its docstring says why every output
is the same as when each window is queried with every device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import frames
from .address import DeviceAddress
from .channels import Channel, Protocol, channel_sort_key, zwave_uses_crc16
from .errors import ParameterError
from .simulation import Environment

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
        group = find_channels_in_range(unscanned, bandwidth_hz)
        groups.append(group)
        taken = set(group)
        unscanned = [ch for ch in unscanned if ch not in taken]
    return groups


def _require_ascending(ch_list: Sequence[Channel]) -> None:
    keys = [channel_sort_key(ch) for ch in ch_list]
    if keys != sorted(keys):
        raise ParameterError("channel list must be sorted by ascending frequency")


class Scanner:
    """Runs scan algorithms against one Environment, accumulating discoveries.

    ``until_complete`` (a set of canonical device names) lets an experiment
    runner stop a scan as soon as everything it is measuring has been found;
    windows past that point can never change a first-seen time, so recorded
    discovery times are identical with or without it. The rotation applies
    the same argument per device (see ``_rotate``): ``fully_logged`` names
    the devices whose every address is in the log.
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
        # per device, the addresses not yet in the log
        self._unlogged = {dev.name: set(dev.spec.all_addresses()) for dev in env.devices}
        self.fully_logged: frozenset[str] = frozenset()

    # -- building blocks ------------------------------------------------------

    def _ingest(self, emissions) -> bool:
        """Record every addressed frame; True if there was one."""
        log = self.log
        heard = False
        for em in emissions:
            hint = (
                zwave_uses_crc16(em.channel)
                if em.channel.protocol is Protocol.ZWAVE
                else None
            )
            frame = frames.decode(em.channel.protocol, em.frame, zwave_crc16=hint)
            addr = frames.extract_address(frame)
            if addr is None:
                continue
            heard = True
            name = self.env.resolve(addr)
            if addr not in log.addresses:
                unlogged = self._unlogged[name]
                unlogged.discard(addr)
                if not unlogged:
                    self.fully_logged |= {name}
            log.record(name, em.time_s - self._t0, addr)
        return heard

    def listen(self, channel: Channel, dwell_time_s: float) -> bool:
        """Receive on one channel for one dwell; True if any address was heard."""
        t0 = self.env.clock
        return self._ingest(
            self.env.emissions_in_parallel((channel,), t0, t0 + dwell_time_s)
        )

    def listen_in_parallel(
        self,
        ch_range: Iterable[Channel],
        dwell_time_s: float,
        *,
        skip: frozenset[str] = frozenset(),
    ) -> bool:
        """Receive on every channel of one bandwidth-fitting group at once.

        One dwell of wall-clock time total; records exactly what per-channel
        listens over the same window would. Devices named in ``skip`` are
        not heard (see ``Environment.emissions_in_parallel``).
        """
        t0 = self.env.clock
        return self._ingest(
            self.env.emissions_in_parallel(ch_range, t0, t0 + dwell_time_s, skip=skip)
        )

    # -- scan algorithms -------------------------------------------------------

    def passive_scan(
        self,
        ch_list: Sequence[Channel],
        dwell_time_s: float,
        scan_time_s: float,
        *,
        until_complete: frozenset[str] | None = None,
    ) -> None:
        """Round-robin listen over ``ch_list`` until the scan budget is spent.

        The elapsed check happens before each listen, so the final window may
        overrun ``scan_time_s`` by up to one dwell.
        """
        if not ch_list:
            raise ParameterError("passive scan needs a non-empty channel list")
        self._rotate(
            [(ch,) for ch in ch_list], dwell_time_s, scan_time_s, self.env.clock,
            stop_after=until_complete,
        )

    def probe_channels(self, ch_list: Sequence[Channel], dwell_time_s: float) -> list[Channel]:
        """Probe every channel and listen briefly; returns the channels that
        produced any reception (a beacon reply or ordinary traffic)."""
        active: list[Channel] = []
        for ch in ch_list:
            self.env.inject_probe(ch)
            heard = self.listen(ch, dwell_time_s)
            if self.sdr.retune_latency_s:
                self.env.advance(self.sdr.retune_latency_s)
            if heard:
                active.append(ch)
        return active

    def active_scan(
        self,
        ch_list: Sequence[Channel],
        dwell_time_s: float,
        scan_time_s: float,
        *,
        until_complete: frozenset[str] | None = None,
    ) -> None:
        """Probe first, then spend the remaining budget passively on the
        channels that answered. With no active channels there is nothing to
        revisit, so the scan ends after the probes."""
        t_start = self.env.clock
        active = self.probe_channels(ch_list, self.probe_dwell_time_s)
        remaining = scan_time_s - (self.env.clock - t_start)
        if active:
            self.passive_scan(active, dwell_time_s, remaining, until_complete=until_complete)

    def multiprotocol_scan(
        self,
        ch_list: Sequence[Channel],
        dwell_time_s: float,
        scan_time_s: float,
        *,
        until_complete: frozenset[str] | None = None,
    ) -> None:
        """Group channels by instantaneous bandwidth once, then round-robin
        the groups with parallel listens. Single-channel groups make this
        behave exactly like a passive scan."""
        groups = plan_channel_groups(ch_list, self.sdr.instantaneous_bandwidth_hz)
        self._rotate(
            groups, dwell_time_s, scan_time_s, self.env.clock, stop_after=until_complete
        )

    def active_multiprotocol_scan(
        self,
        ch_list: Sequence[Channel],
        ch_probe_list: Sequence[Channel],
        dwell_time_s: float,
        scan_time_s: float,
        *,
        until_complete: frozenset[str] | None = None,
    ) -> None:
        """Probe one protocol's channels, merge the responders with the
        always-scanned list (sorted ascending), and multiprotocol-scan the
        merge for the remaining budget."""
        t_start = self.env.clock
        active = self.probe_channels(ch_probe_list, self.probe_dwell_time_s)
        merged = sorted(set(active) | set(ch_list), key=channel_sort_key)
        remaining = scan_time_s - (self.env.clock - t_start)
        if merged:
            self.multiprotocol_scan(merged, dwell_time_s, remaining, until_complete=until_complete)

    def sequential_passive_scan(
        self,
        phases: Sequence[Sequence[Channel]],
        dwell_time_s: float,
        scan_time_s: float,
        *,
        until_complete: frozenset[str] | None = None,
    ) -> None:
        """Passive-scan each phase in turn, moving on once every device
        audible in the current phase has been found (or the budget runs out).

        This is the one-protocol-after-another baseline the parallel scans
        are measured against.
        """
        if not phases or any(not p for p in phases):
            raise ParameterError("sequential scan needs non-empty phases")
        t_start = self.env.clock
        for phase in phases:
            audible = self.env.device_names_on(phase)
            targets = audible if until_complete is None else audible & until_complete
            self._rotate(
                [(ch,) for ch in phase], dwell_time_s, scan_time_s, t_start,
                stop_before=targets,
            )

    def _rotate(
        self,
        groups: Sequence[Sequence[Channel]],
        dwell_time_s: float,
        scan_time_s: float,
        t_start: float,
        *,
        stop_before: frozenset[str] | None = None,
        stop_after: frozenset[str] | None = None,
    ) -> None:
        """The one round-robin every scan runs: listen to ``groups`` in turn,
        one dwell each plus a retune, while at most ``scan_time_s`` has
        passed since ``t_start``. The scan stops once the log covers
        ``stop_before`` (checked before a window) or ``stop_after`` (checked
        after one).

        Every log, address set and final clock is the same as when each
        window is queried with every device, for two reasons:

        - The quiet time of the rotation's channels
          (``Environment.quiet_until``) is a time before which nothing can
          be delivered on them: it may be early, never late. A window that
          ends by it can hear nothing, so it is only stepped, with no
          environment call: ``_quiet_jump`` steps over the whole run of
          such windows at once, with the same float edges as one step per
          window, and the group index advances by their count. So an
          hour-scale device costs a few queried windows per emission, and a
          device on a channel the rotation never visits costs nothing.
        - A device whose every address is in the log (``fully_logged``) is
          skipped: the rotation's windows neither generate nor deliver it,
          and it does not hold the quiet time down, so once the common
          devices are logged only the rare ones cost windows. Its frames
          could only re-log addresses the log has, and its streams are
          drawn in order by whichever window generates it next. Only the
          rotation skips devices; a direct listen or probe hears every one.

        The log only grows in queried windows, and only by a new address,
        so the stop checks are re-evaluated only after a window that logged
        one; a ``stop_after`` that is already covered still walks exactly
        one window.
        """
        if not 0.0 < dwell_time_s < math.inf:
            raise ParameterError("dwell must be positive and finite")
        env, log = self.env, self.log
        retune = self.sdr.retune_latency_s
        groups = [frozenset(group) for group in groups]  # hashed once, not per window
        n_groups = len(groups)
        scope = frozenset().union(*groups)

        def covered(targets):
            return targets is not None and log.covers(targets)

        done_before, done_after = covered(stop_before), covered(stop_after)
        n_logged = len(log.addresses)
        quiet = env.quiet_until(scope, skip=self.fully_logged)
        clock = env.clock
        i = 0
        while clock - t_start <= scan_time_s and not done_before:
            if clock + dwell_time_s > quiet:
                env.clock = clock
                self.listen_in_parallel(groups[i], dwell_time_s, skip=self.fully_logged)
                if len(log.addresses) > n_logged:
                    n_logged = len(log.addresses)
                    done_before, done_after = covered(stop_before), covered(stop_after)
                quiet = env.quiet_until(scope, skip=self.fully_logged)
                k, clock = 1, clock + dwell_time_s + retune
            else:
                k, clock = _quiet_jump(
                    clock, dwell_time_s, retune, quiet, t_start, scan_time_s,
                    1 if done_after else _JUMP_CHUNK,
                )
            i = (i + k) % n_groups
            if done_after:
                break
        env.clock = clock


#: The most windows one ``_quiet_jump`` steps over. A rotation with nothing
#: left to hear (an infinite quiet time) jumps its budget in pieces this size.
_JUMP_CHUNK = 4096


def _quiet_jump(
    clock: float,
    dwell_s: float,
    retune_s: float,
    quiet: float,
    t_start: float,
    scan_time_s: float,
    limit: int,
) -> tuple[int, float]:
    """Step over the windows from ``clock`` that end by ``quiet``: returns
    their count k (at most ``limit``) and the clock after them.

    Window j starts at c_j, ends at e_j = c_j + dwell and the next starts at
    c_{j+1} = e_j + retune. It is stepped while e_j <= quiet and
    c_j - t_start <= scan_time_s; both tests hold for a prefix of the windows
    because the edges only grow. ``np.add.accumulate`` over
    [clock, dwell, retune, dwell, ...] is that same left fold, one IEEE
    addition at a time, so every edge is bit for bit what a loop of
    ``t1 = clock + dwell; clock = t1 + retune`` gives (``clock + j * period``
    would round differently). The caller guarantees the first window passes
    both tests, so k >= 1. The fold is sized from the gap to the nearer of
    ``quiet`` and the budget's end plus a margin; when that is short, the
    caller jumps again from the returned clock.
    """
    gap = min(quiet, t_start + scan_time_s) - clock
    m = min(int(min(gap / (dwell_s + retune_s), limit)) + 2, limit)
    steps = np.empty(2 * m + 1)
    steps[0] = clock
    steps[1::2] = dwell_s
    steps[2::2] = retune_s
    edges = np.add.accumulate(steps)
    k = min(
        edges[1::2].searchsorted(quiet, "right"),
        (edges[:-1:2] - t_start).searchsorted(scan_time_s, "right"),
    )
    return int(k), float(edges[2 * k])
