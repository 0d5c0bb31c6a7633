"""Discrete-event radio environment.

Devices emit frames as point events on their channels; a frame is received
iff its timestamp falls inside a window the scanner is listening to. There
is no airtime and no collision model: with dwell times far above frame
durations for every protocol here, arrival counting is the behavior that
matters, and per-frame loss (``loss_prob``) is the only impairment.

Each device owns up to three RNG streams derived from (seed, trial, device,
tag): emission times, loss coins (only when ``loss_prob > 0``) and probe
behavior (built on the first probe). Emission sequences therefore depend
only on the scenario and seed, never on how the scanner queries the
environment, which is what makes trials reproducible and scan algorithms
comparable on identical traffic. A Poisson device draws a few gaps at
set-up and more in larger chunks as it runs: most devices are heard, and
then skipped, or reach the end of the scan within their first few gaps, and
a generator's draws do not depend on how they are chunked
(``tests/test_one_pass.py::test_draws_do_not_depend_on_chunking``), which
``EmissionDraws`` relies on to draw many fresh devices at once. It keeps
seed words, not generators: each of its streams lives for one draw, and a
row that draws again rebuilds its streams and redraws what it drew before
with the new chunk. A ``SimDevice`` keeps its generators.

A stream is PCG64 seeded with the words
``np.random.SeedSequence([seed, trial, device, tag])`` would give it;
``stream_seeds`` computes those words for every key of an experiment in
one numpy pass, since building a SeedSequence per stream cost more than
the rest of a trial's set-up, and only for the tags the run will read.

Each device is one event stream: its emissions and its probe responses,
which are beacons it owes. A listen window generates the devices on its
channels up to its end, encodes the entries that fall on its channels and
inside its span (channels are interned, so an entry's channel is found in
the window's set by identity), and returns them as ``Emission`` named
tuples ordered by time, device name and channel label. It keeps none of
them: emissions nobody hears are never encoded, and between windows a
device holds only its next emission time and index and its pending
responses. A frame's bytes depend only on its device, sequence byte and
address slot, so a delivered frame is encoded once per ``DeviceSpec``,
which keeps it for every trial, and the scanner decodes each distinct
frame once per process.
The clock forbids a window that starts before the last one ended, so
nothing a window dropped can be asked for again. A scan's rotation reads
which of its groups hear each device, and on which of its channels, from
the testbed (``Testbed.hearing``) to choose the windows it opens, and the
array pass that runs every trial reads the same table.

What depends on the device list alone, the ``Testbed`` (the positions of
the devices on each channel and on each channel set, and the hearing
table of each tuple of groups; building one checks that names and
addresses are unique), is built once per experiment and
read by the array pass that runs every trial, and once per
``Environment``. An environment owns what it changes: its SimDevices
(streams, next emission times, pending probe responses), held at its
testbed's positions, and its clock.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import frames
from .address import BleAdvA, DeviceAddress, LoRaId, ZigbeeExtended, ZigbeeShort, ZWaveId
from .channels import PROBEABLE_PROTOCOLS, Channel, Protocol, zwave_uses_crc16
from .errors import ScenarioError, SimulationError, UnsupportedProbe

#: The streams a device may own: emission times, loss coins and probe
#: behavior. A stream's tag, the last word of its seed key, is its index here.
_STREAM_TAGS = ("times", "loss", "probe")

#: Exponential gaps a Poisson device draws at set-up, then per later RNG
#: call. Over the 24 scenario seeds of the dense-2g4 and sparse-900
#: benchmarks, 93% and 95% of a trial's devices use at most 8 gaps and 99%
#: at most 16; a generator's draws do not depend on how they are chunked.
#: ``EmissionDraws`` draws events of a row in chunks of the same first size,
#: then of ``max(_EXP_CHUNK, events drawn so far)``, since it redraws a row's
#: earlier events with each later chunk from a stream built for that call.
_FIRST_CHUNK = 8
_EXP_CHUNK = 64

#: Probe responses land uniformly within this many seconds of the probe.
DEFAULT_PROBE_RESPONSE_DELAY_MAX_S = 0.1


# -- stream seeding -------------------------------------------------------------
#
# numpy's SeedSequence is O'Neill's seed_seq hash (O'Neill 2014, "PCG: A
# Family of Simple Fast Space-Efficient Statistically Good Algorithms for
# Random Number Generation"): the key's 32-bit words are hashed into a pool
# of 4 words, every pool word is mixed into every other, any words past the
# fourth are mixed into all 4, and the output words are hashed out of the
# pool in turn. Each hash step multiplies a running constant by a fixed
# factor, so the constants depend only on the key's word count, and all
# keys of one word count take the same steps: plain uint32 arithmetic that
# numpy runs over all of them at once.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # pool hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # output hash
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@functools.cache
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """h_0 .. h_n with h_0 = init and h_(k+1) = h_k * mult mod 2^32, as a
    read-only column: hash step k xors with h_k and multiplies by h_(k+1).
    Only the key's word count picks ``n``, so each column is built once."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & _MASK32)
    column = np.array(h, np.uint32)[:, None]
    column.flags.writeable = False
    return column


#: generate_state(4, np.uint64) hashes out 8 words, cycling over the pool.
_OUTPUT_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _int_words(n: int) -> list[int]:
    """SeedSequence's coercion of one int: its 32-bit little-endian words."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value: np.ndarray, h: np.ndarray, k: int, n: int) -> np.ndarray:
    """Hash steps k .. k+n-1 of ``value``, one per row."""
    value = (value ^ h[k : k + n]) * h[k + 1 : k + n + 1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(key).generate_state(4, np.uint64)`` for every
    key, given their 32-bit words as the rows of ``entropy`` (all keys of
    one word count). Returns one C-contiguous row of 4 words per key."""
    n_keys, n_words = entropy.shape
    h = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE**2 + _POOL_SIZE * max(n_words - _POOL_SIZE, 0))
    pool = np.zeros((_POOL_SIZE, n_keys), np.uint32)  # one row per pool word
    head = min(n_words, _POOL_SIZE)
    pool[:head] = entropy[:, :head].T
    pool = _hashmix(pool, h, 0, _POOL_SIZE)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):  # pool[src] is unchanged while it mixes into the others
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h, k, _POOL_SIZE - 1))
        k += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, n_words):
        pool = _mix(pool, _hashmix(entropy[:, src], h, k, _POOL_SIZE))
        k += _POOL_SIZE
    out = _hashmix(np.concatenate([pool, pool]), _OUTPUT_CONSTANTS, 0, 2 * _POOL_SIZE)
    state = out[0::2].astype(np.uint64) | out[1::2].astype(np.uint64) << np.uint64(32)
    return np.ascontiguousarray(state.T)


def stream_seeds(seed: int, trials: Iterable[int], n_devices: int, tags=_STREAM_TAGS) -> np.ndarray:
    """The PCG64 seed words of the device streams of ``trials`` that ``tags``
    name (a subset of ``_STREAM_TAGS``, in its order).

    A structured array of shape (number of trials, n_devices) with one field
    per tag: ``[m, i][tag]`` is the row of 4 uint64 words that
    ``np.random.SeedSequence([seed, trials[m], i, k]).generate_state(4,
    np.uint64)`` gives, for device i < 2^32 and the tag's index k. Only the
    named tags are hashed and only they have a field, so reading another
    raises. All keys are hashed in one pass per word count, so a batch
    should span as many trials as the caller will build.
    """
    trial_words = [_int_words(t) for t in trials]
    seed_words = _int_words(seed)
    n_seed, n_tags = len(seed_words), len(tags)
    plain = np.empty((len(trial_words), n_devices, n_tags * 4), np.uint64)
    by_width: dict[int, list[int]] = {}
    for m, words in enumerate(trial_words):
        by_width.setdefault(len(words), []).append(m)
    for width, rows in by_width.items():
        keys = np.empty((len(rows), n_devices, n_tags, n_seed + width + 2), np.uint32)
        keys[..., :n_seed] = seed_words
        keys[..., n_seed:-2] = np.array([trial_words[m] for m in rows], np.uint32)[:, None, None]
        keys[..., -2] = np.arange(n_devices, dtype=np.uint32)[:, None]
        keys[..., -1] = [_STREAM_TAGS.index(tag) for tag in tags]
        state = _seed_state(keys.reshape(-1, keys.shape[-1]))
        plain[rows] = state.reshape(len(rows), n_devices, n_tags * 4)
    return plain.view([(tag, np.uint64, (4,)) for tag in tags])[..., 0]


class _StreamSeed(np.random.bit_generator.ISeedSequence):
    """One stream's words from ``stream_seeds``, handed to PCG64 as its seed
    sequence: PCG64 asks for 4 uint64 words and reads the row's buffer."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a stream seed holds only PCG64's 4 uint64 words")
        return self._state


def _stream(state: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_StreamSeed(state)))


class Role(Enum):
    COORDINATOR = "coordinator"
    ROUTER = "router"
    END_DEVICE = "end-device"
    GATEWAY = "gateway"
    PERIPHERAL = "peripheral"


#: Roles that answer a broadcast probe (sleepy end devices do not).
PROBE_RESPONDING_ROLES = frozenset({Role.COORDINATOR, Role.ROUTER})


#: Address forms each protocol's devices may carry.
_ADDRESS_TYPES = {
    Protocol.ZIGBEE: (ZigbeeShort, ZigbeeExtended),
    Protocol.BLE_ADVERTISING: BleAdvA,
    Protocol.LORA: LoRaId,
    Protocol.ZWAVE: ZWaveId,
}


class EmitterKind(Enum):
    POISSON = "poisson"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class DeviceSpec:
    """A simulated transmitter.

    ``channels`` carries resolved Channel objects: exactly one for Zigbee,
    LoRa, and Z-Wave devices; all three advertising channels for BLE (one
    advertising event produces one frame per advertising channel, same
    timestamp). ``mean_interarrival_s`` is the Poisson mean (or the period
    for periodic emitters). ``aliases`` lists additional addresses the
    device is also seen under; emitted frames rotate through canonical plus
    aliases so dedup across address forms is exercised. A spec whose
    channels or addresses do not fit its protocol cannot be built.
    """

    name: str
    protocol: Protocol
    role: Role
    channels: tuple[Channel, ...]
    mean_interarrival_s: float
    address: DeviceAddress
    aliases: tuple[DeviceAddress, ...] = ()
    responds_to_probe: bool | None = None
    emitter: EmitterKind = EmitterKind.POISSON

    def __post_init__(self):
        if not 0.0 < self.mean_interarrival_s < math.inf:
            raise ScenarioError(f"device {self.name}: mean-interval: must be positive and finite")
        if not self.channels:
            raise ScenarioError(f"device {self.name}: no channels")
        for ch in self.channels:
            if ch.protocol is not self.protocol:
                raise ScenarioError(
                    f"device {self.name}: channel {ch.label} belongs to {ch.protocol.value}"
                )
        if self.protocol is Protocol.BLE_ADVERTISING:
            labels = sorted(ch.label for ch in self.channels)
            if labels != ["ble-adv:37", "ble-adv:38", "ble-adv:39"]:
                raise ScenarioError(
                    f"device {self.name}: BLE devices advertise on all three "
                    f"advertising channels, got {labels}"
                )
        elif len(self.channels) != 1:
            raise ScenarioError(
                f"device {self.name}: {self.protocol.value} devices transmit on exactly one channel"
            )
        for addr in self.all_addresses():
            if not isinstance(addr, _ADDRESS_TYPES[self.protocol]):
                raise ScenarioError(
                    f"device {self.name}: address {addr} does not match protocol "
                    f"{self.protocol.value}"
                )

    def probe_responder(self) -> bool:
        if self.responds_to_probe is not None:
            return self.responds_to_probe
        return self.role in PROBE_RESPONDING_ROLES

    def all_addresses(self) -> tuple[DeviceAddress, ...]:
        return (self.address,) + self.aliases

    @functools.cached_property
    def _encoded(self) -> dict[tuple[int, int | None], bytes]:
        """``_encode_frame(self, seq, slot)`` by ``(seq, slot)``, filled as
        frames are delivered: at most 256 per address plus 256 beacons.
        Every trial's SimDevice of this spec shares it; a spec rebuilt with
        other fields starts empty. It lives on the spec rather than in a
        cache keyed by the spec, since hashing a spec costs about as much
        as an encode."""
        return {}

    def frame(self, idx: int) -> bytes:
        """The wire bytes of event ``idx``: its low byte is the sequence
        byte, and the address rotates through canonical plus aliases, or is
        the canonical one for a probe response's beacon (idx < 0)."""
        seq, slot = idx & 0xFF, None if idx < 0 else idx % (1 + len(self.aliases))
        frame = self._encoded.get((seq, slot))
        if frame is None:
            frame = self._encoded[seq, slot] = _encode_frame(self, seq, slot)
        return frame


def address_table(devices: Sequence[DeviceSpec]) -> dict[DeviceAddress, str]:
    """Every address a device is seen under -> its name. Device names and
    addresses must be unique."""
    names = [d.name for d in devices]
    if len(set(names)) != len(names):
        raise ScenarioError("devices: names must be unique")
    table: dict[DeviceAddress, str] = {}
    for spec in devices:
        for addr in spec.all_addresses():
            if addr in table:
                raise ScenarioError(
                    f"device {spec.name}: address {addr} already used by {table[addr]}"
                )
            table[addr] = spec.name
    return table


class Emission(NamedTuple):
    """One frame on the air: timestamp, channel, wire bytes, ground truth."""

    time_s: float
    channel: Channel
    frame: bytes
    device: str


#: The order a window delivers its frames in.
_EMISSION_ORDER = operator.attrgetter("time_s", "device", "channel.label")


def _encode_frame(spec: DeviceSpec, seq: int, slot: int | None) -> bytes:
    """Wire bytes of ``spec``'s frame with sequence byte ``seq``, sent from
    address ``spec.all_addresses()[slot]``; ``slot`` None is the probe
    response, a beacon from the canonical address. A pure function of its
    arguments, so ``DeviceSpec._encoded`` can keep its results."""
    if slot is None:
        addr = spec.address
        if isinstance(addr, ZigbeeExtended):
            beacon = frames.ZigbeeFrame(
                frame_type=frames.ZigbeeFrameType.BEACON,
                seq=seq,
                src_pan=0xFFFF,
                src_addr=addr.addr,
                src_extended=True,
            )
        else:
            beacon = frames.zigbee_beacon(seq=seq, src_pan=addr.pan_id, src_addr=addr.addr)
        return frames.encode_zigbee(beacon)
    addr = spec.all_addresses()[slot]
    if spec.protocol is Protocol.ZIGBEE:
        pan = spec.address.pan_id if isinstance(spec.address, ZigbeeShort) else 0xFFFF
        if isinstance(addr, ZigbeeExtended):
            f = frames.ZigbeeFrame(
                frame_type=frames.ZigbeeFrameType.DATA,
                seq=seq,
                dest_pan=pan,
                dest_addr=0x0000,
                src_pan=pan,
                src_addr=addr.addr,
                src_extended=True,
                payload=b"\x01",
            )
        else:
            f = frames.ZigbeeFrame(
                frame_type=frames.ZigbeeFrameType.DATA,
                seq=seq,
                dest_pan=addr.pan_id,
                dest_addr=0x0000,
                src_pan=addr.pan_id,
                src_addr=addr.addr,
                payload=b"\x01",
            )
        return frames.encode_zigbee(f)
    if spec.protocol is Protocol.BLE_ADVERTISING:
        pdu = frames.BleAdvPdu(
            pdu_type=frames.BlePduType.ADV_IND,
            adv_a=addr.addr,
            adv_data=b"\x02\x01\x06",
        )
        return frames.encode_ble(pdu)
    if spec.protocol is Protocol.LORA:
        body = bytearray(5)
        body[0] = 0x40
        body[frames.LORA_DEVICE_ID_INDEX] = addr.device_id
        body[-1] = seq
        return frames.encode_lora(frames.LoRaFrame(addr.sync_word, bytes(body)))
    zw = frames.ZWaveFrame(
        home_id=addr.home_id,
        source_id=addr.source_id,
        frame_control=0x4101,
        dest_id=0xFF,
        payload=bytes([0x20, 0x01, seq]),
        crc16=zwave_uses_crc16(spec.channels[0]),
    )
    return frames.encode_zwave(zw)


class SimDevice:
    """Runtime state for one device: RNG streams, its next emission and its
    pending probe responses. ``next_time``, the time of the device's next
    event, is the earlier of the next emission and the next response.

    ``streams`` is the device's entry of ``stream_seeds``: the seed words
    ``SeedSequence([seed, trial, index, tag])`` would give, per tag. The
    loss stream is built only when ``loss_prob > 0``, and the probe stream
    on the first probe, so only those need words."""

    __slots__ = (
        "spec", "name", "next_time", "_loss_prob", "_streams", "_times", "_loss", "_probe_rng",
        "_period", "_gaps", "_next_emission", "_emit_index", "_responses",
    )

    def __init__(self, spec: DeviceSpec, streams: np.ndarray, loss_prob: float):
        self.spec = spec
        self.name = spec.name
        self._loss_prob = loss_prob
        self._streams = streams
        self._times = times = _stream(streams["times"])
        self._loss = _stream(streams["loss"]) if loss_prob > 0 else None
        self._probe_rng: np.random.Generator | None = None
        self._emit_index = 0
        self._responses: list[tuple[float, int, int]] = []  # heap of (time, index, channel slot)
        mean = spec.mean_interarrival_s
        if spec.emitter is EmitterKind.PERIODIC:
            self._period: float | None = mean  # None: draw exponential gaps
            self._gaps: list[float] = []
            self._next_emission = float(times.uniform(0.0, mean))
        else:
            self._period = None
            self._gaps = times.exponential(mean, _FIRST_CHUNK)[::-1].tolist()  # popped from the end
            gap = self._gaps.pop()
            self._next_emission = gap if gap > 0.0 else 1e-12  # generate_until's clamp
        self.next_time = self._next_emission

    @property
    def probe_rng(self) -> np.random.Generator:
        if self._probe_rng is None:
            self._probe_rng = _stream(self._streams["probe"])
        return self._probe_rng

    def respond(self, t: float, channel: Channel) -> tuple[float, Channel, int]:
        """Schedule a probe response at ``t`` on ``channel``, one of the
        device's own: a beacon whose sequence byte is that of the next
        emission, taken now. Returns its ``generate_until`` entry."""
        slot = self.spec.channels.index(channel)
        idx = (self._emit_index & 0xFF) - 256
        heapq.heappush(self._responses, (t, idx, slot))
        self.next_time = min(self.next_time, t)
        return t, self.spec.channels[slot], idx

    def generate_until(self, t_end: float) -> list[tuple[float, Channel, int]]:
        """The events at times < t_end not yet generated, as ``(time,
        channel, index)`` entries: the emissions that survive loss in time
        order, then the pending probe responses in time order. A response's
        index is negative, with its beacon's sequence byte as its low byte.

        One loss coin per channel per emission, in channel order, whether or
        not any window will listen there; a response's coin was drawn when
        it was scheduled."""
        entries: list[tuple[float, Channel, int]] = []
        channels = self.spec.channels
        loss, loss_prob = self._loss, self._loss_prob
        period, gaps = self._period, self._gaps
        t, idx = self._next_emission, self._emit_index
        while t < t_end:
            for ch in channels:
                if loss is None or not loss.random() < loss_prob:
                    entries.append((t, ch, idx))
            idx += 1
            if period is None:
                if not gaps:
                    gaps = self._gaps = self._times.exponential(
                        self.spec.mean_interarrival_s, _EXP_CHUNK
                    )[::-1].tolist()
                # t + 1e-12 == t once t passes 2^14 s: times are non-decreasing, not
                # increasing, and a window breaks ties by device and channel
                gap = gaps.pop()
                t = t + (gap if gap > 0.0 else 1e-12)
            else:
                t = t + period
        self._next_emission, self._emit_index = t, idx
        responses = self._responses
        while responses and responses[0][0] < t_end:
            t_r, i, slot = heapq.heappop(responses)
            entries.append((t_r, channels[slot], i))
        self.next_time = min(t, responses[0][0]) if responses else t
        return entries

    def emission(self, entry: tuple[float, Channel, int]) -> Emission:
        """One entry returned by ``generate_until``, with its frame."""
        t, ch, idx = entry
        return Emission(t, ch, self.spec.frame(idx), self.name)


class EmissionDraws:
    """The emissions of many fresh devices, a chunk at a time for all at
    once: row i emits what ``SimDevice(specs[i % len(specs)], streams[i],
    loss_prob)`` would, from the same streams, with the same clamp of a
    Poisson gap, a periodic phase then period steps, and one loss coin per
    channel per emission in channel order. ``np.add.accumulate`` is the
    same left fold as ``t = t + gap``, so every time is bit for bit. The
    specs repeat over the rows, so trials of one device list read each
    spec's fields once.

    It holds each row's seed words (its ``stream_seeds`` entry), not its
    generators: a draw builds the streams it reads and drops them when it
    returns, so no stream outlives a call. A row that draws again rebuilds
    its streams and draws what it drew before with the new chunk, keeping
    the chunk, which a generator's draws not depending on their chunking
    makes exact. A later chunk is at least as long as what the row has
    drawn, so a row draws about twice the values it keeps at most."""

    def __init__(self, specs: Sequence[DeviceSpec], streams: np.ndarray, loss_prob: float):
        if not specs or len(streams) % len(specs):
            raise SimulationError(f"{len(streams)} stream rows do not repeat {len(specs)} devices")
        self._times = streams["times"]
        self._loss = streams["loss"] if loss_prob > 0 else None
        self._loss_prob = loss_prob
        # per spec: whether it draws Poisson gaps, its mean and its number of channels
        self._poisson = np.array([spec.emitter is EmitterKind.POISSON for spec in specs])
        self._means = np.array([spec.mean_interarrival_s for spec in specs])
        self._widths = np.array([len(spec.channels) for spec in specs])
        self._width = int(self._widths.max())
        self.last = np.zeros(len(streams))  # each row's last event time; the fold starts at 0
        self.drawn = np.zeros(len(streams), np.int64)  # events each row has drawn

    def draw(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The next chunk of ``rows``, which have drawn equally often: event
        times (one row each) and, per event, the bits of the channels whose
        loss coin it survived; its first event is number ``drawn[row]``.

        A Poisson gap is ``exponential(mean)``, which is ``mean *
        standard_exponential()``, and a periodic phase ``uniform(0, mean)``,
        which is ``0.0 + mean * random()``: one IEEE product each, so the
        rows' standard draws and period steps of 1 are scaled by their means
        in one multiply. Only a periodic row's phase reads its times stream."""
        drawn = int(self.drawn[rows[0]])
        n = max(_EXP_CHUNK, drawn) if drawn else _FIRST_CHUNK
        spec = rows % len(self._means)
        poisson = self._poisson[spec]
        steps = np.empty((len(rows), n + 1))
        steps[:, 0] = self.last[rows]
        gaps = steps[:, 1:]
        gaps[~poisson] = 1.0  # period steps, in units of the period
        for out, words, is_poisson in zip(gaps, self._times[rows], poisson.tolist()):
            if is_poisson:
                if drawn:
                    out[:] = _stream(words).standard_exponential(drawn + n)[drawn:]
                else:
                    _stream(words).standard_exponential(out=out)
            elif not drawn:
                out[0] = _stream(words).random()
        coins = None
        if self._loss is not None:
            coins = np.ones((len(rows), n, self._width))  # pads survive
            for out, words, width in zip(coins, self._loss[rows], self._widths[spec].tolist()):
                out[:, :width] = _stream(words).random((drawn + n, width))[drawn:]
        gaps *= self._means[spec, None]
        # generate_until's clamp: times stay non-decreasing, so a row's events ascend
        gaps[(gaps <= 0.0) & poisson[:, None]] = 1e-12
        times = np.add.accumulate(steps, axis=1)[:, 1:]
        self.last[rows] = times[:, -1]
        self.drawn[rows] += n
        if coins is None:
            return times, np.full(times.shape, -1)
        return times, (coins >= self._loss_prob) @ (1 << np.arange(self._width))


class Testbed:
    """What depends on the device list alone: the device specs, which
    devices listen on each channel, and the caches built from those, such
    as which of a rotation's groups hear each device (``hearing``).

    Every field is a function of the device list and is never changed once
    filled, so ``run_experiment`` builds one Testbed for its array pass,
    and each Environment builds its own. Devices appear by their position
    in ``devices``, which is also the position of an Environment's
    SimDevice of the spec. Building one checks that names and addresses
    are unique.
    """

    def __init__(self, devices: Sequence[DeviceSpec]):
        self.devices = tuple(devices)
        address_table(self.devices)  # names and addresses must be unique
        #: device name -> every address it is seen under
        self.addresses = {spec.name: frozenset(spec.all_addresses()) for spec in self.devices}
        #: channel -> positions of the devices on it, ascending
        self.by_channel: dict[Channel, list[int]] = {}
        for pos, spec in enumerate(self.devices):
            for ch in spec.channels:
                self.by_channel.setdefault(ch, []).append(pos)
        #: channel -> positions of the devices on it that answer a probe
        self.responders = {
            ch: [pos for pos in positions if self.devices[pos].probe_responder()]
            for ch, positions in self.by_channel.items()
        }
        self._scopes: dict[frozenset[Channel], list[int]] = {}
        self._hearing: dict[tuple[tuple[Channel, ...], ...], np.ndarray] = {}

    def scope(self, channels: frozenset[Channel]) -> list[int]:
        """The positions of the devices on any of ``channels``, ascending."""
        positions = self._scopes.get(channels)
        if positions is None:
            heard = {pos for ch in channels for pos in self.by_channel.get(ch, ())}
            positions = self._scopes[channels] = sorted(heard)
        return positions

    def hearing(self, groups: tuple[tuple[Channel, ...], ...]) -> np.ndarray:
        """Which of ``groups`` hear each device: an int64 array with one row
        per device, by position, and one column per group (one zero column
        when there are none), in which bit k of row pos, column g is set when
        group g holds the device's k-th channel. Built once per distinct
        groups and read-only."""
        table = self._hearing.get(groups)
        if table is None:
            table = np.zeros((len(self.devices), max(len(groups), 1)), np.int64)
            for g, group in enumerate(groups):
                for ch in group:
                    for pos in self.by_channel.get(ch, ()):
                        table[pos, g] |= 1 << self.devices[pos].channels.index(ch)
            table.flags.writeable = False
            self._hearing[groups] = table
        return table


class Environment:
    """One trial's radio world: devices, a clock, and probe plumbing.

    It owns its SimDevices (RNG streams, next emission times, pending probe
    responses), one per position of its ``Testbed``, which it builds from
    the device list, and its clock. Single-threaded by design; run one
    Environment per trial and as many trials in parallel as you like.
    """

    def __init__(
        self,
        devices: Sequence[DeviceSpec],
        *,
        streams: np.ndarray,
        loss_prob: float = 0.0,
        probe_response_delay_max_s: float = DEFAULT_PROBE_RESPONSE_DELAY_MAX_S,
    ):
        """``streams`` is this trial's block of ``stream_seeds``, one entry
        per device."""
        self.testbed = Testbed(devices)  # checks that names and addresses are unique
        if len(streams) != len(devices):
            raise SimulationError(f"{len(streams)} stream blocks for {len(devices)} devices")
        if not 0.0 <= loss_prob <= 1.0:
            raise ScenarioError(f"loss_prob must lie in [0, 1], got {loss_prob}")
        if not 0.0 <= probe_response_delay_max_s < math.inf:
            raise ScenarioError("probe response delay must be finite and >= 0")
        self.clock = 0.0
        self.loss_prob = loss_prob
        self.probe_response_delay_max_s = probe_response_delay_max_s
        self.devices = [
            SimDevice(spec, block, loss_prob) for spec, block in zip(devices, streams)
        ]

    # -- queries ------------------------------------------------------------

    def emissions_in_parallel(
        self, channels: Iterable[Channel], t0: float, t1: float
    ) -> list[Emission]:
        """Union of per-channel receptions over one shared window [t0, t1).

        Exactly equivalent to listening to every channel in the set at once;
        the clock advances once, to t1. Each device on these channels is
        generated once, up to t1, its probe responses included; its entries
        before t0 or on channels outside the set are dropped. Nothing is
        kept for a later window: the clock checks below refuse any window
        that starts before the last one ended, which is what makes dropping
        them exact.
        """
        if not t0 <= t1 < math.inf:
            raise SimulationError(f"window must end at a finite time >= its start: [{t0}, {t1})")
        if t0 < self.clock - 1e-9:
            raise SimulationError(
                f"window starts at {t0} but the clock is already at {self.clock}"
            )
        wanted = frozenset(channels)
        devices = self.devices
        out: list[Emission] = []
        for pos in self.testbed.scope(wanted):
            dev = devices[pos]
            if dev.next_time < t1:
                out.extend(
                    dev.emission(e)
                    for e in dev.generate_until(t1)
                    if e[0] >= t0 and e[1] in wanted
                )
        self.clock = t1
        if len(out) > 1:
            out.sort(key=_EMISSION_ORDER)
        return out

    def advance(self, duration_s: float) -> None:
        """Move the clock forward without listening (retune cost)."""
        if not 0.0 <= duration_s < math.inf:
            raise SimulationError("advance: duration must be finite and >= 0")
        self.clock += duration_s

    # -- active probing -----------------------------------------------------

    def inject_probe(self, channel: Channel) -> list[Emission]:
        """Broadcast a probe on ``channel``; responders schedule beacons on
        their own event streams (``SimDevice.respond``).

        Only protocols with a broadcast probe support this (Zigbee beacon
        requests). Responses land at clock + U(0, probe_response_delay_max) and
        are subject to the same per-frame loss as regular traffic, both drawn
        from the responder's probe stream. Returns the responses that survive
        loss; windows deliver them as they deliver emissions.
        """
        if channel.protocol not in PROBEABLE_PROTOCOLS:
            raise UnsupportedProbe(
                f"{channel.protocol.value} has no broadcast probe (channel {channel.label})"
            )
        scheduled: list[Emission] = []
        for pos in self.testbed.responders.get(channel, ()):
            dev = self.devices[pos]
            delay = float(dev.probe_rng.uniform(0.0, self.probe_response_delay_max_s))
            if not dev.probe_rng.random() < self.loss_prob:
                scheduled.append(dev.emission(dev.respond(self.clock + delay, channel)))
        return scheduled

    # -- bulk export ----------------------------------------------------------

    def iter_events(self, horizon_s: float) -> Iterator[Emission]:
        """All deliverable emissions before the horizon, time-ordered: one
        window over every device channel on [0, horizon).

        Intended for a freshly built environment (event-log export); it
        consumes the same streams the scanner would observe.
        """
        if self.clock != 0.0:
            raise SimulationError("event export requires a fresh environment")
        channels = {ch for dev in self.devices for ch in dev.spec.channels}
        return iter(self.emissions_in_parallel(channels, 0.0, horizon_s))


def build_environment(
    devices: Sequence[DeviceSpec],
    seed: int,
    *,
    trial: int = 0,
    loss_prob: float = 0.0,
    probe_response_delay_max_s: float = DEFAULT_PROBE_RESPONSE_DELAY_MAX_S,
) -> Environment:
    """Deterministic environment factory: same inputs, same event sequence.
    The trial is seeded alone, as a batch of one, with the words
    ``stream_seeds`` gives it in a batch of many."""
    if seed < 0 or trial < 0:
        raise ScenarioError("seed and trial index must be non-negative")
    return Environment(
        devices,
        streams=stream_seeds(seed, (trial,), len(devices))[0],
        loss_prob=loss_prob,
        probe_response_delay_max_s=probe_response_delay_max_s,
    )
