"""Stream seeding: the batched words against numpy's SeedSequence, which
stays the reference they must equal word for word, and environments built
alone against environments built from an experiment's batch."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iotsweep import experiment, frames, simulation
from iotsweep.channels import Protocol, zigbee_channel
from iotsweep.scenario import parse_scenario
from iotsweep.simulation import _STREAM_TAGS, _seed_state, _stream, _StreamSeed, stream_seeds

SEEDING = settings(max_examples=60, deadline=None, database=None)

# Ints that coerce to one, two and three or more 32-bit words.
WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 12_345, 2**96 + 7]
SEEDS = st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**130))
TRIALS = st.lists(
    st.one_of(st.integers(0, 9), st.sampled_from(WORD_EDGES), st.integers(0, 2**80)),
    max_size=4,
)


def reference(key):
    return np.random.SeedSequence(key)


#: The tag sets an experiment hashes: times always, loss and probe when read.
TAG_SETS = [_STREAM_TAGS, ("times",), ("times", "loss"), ("times", "probe")]


@SEEDING
@given(
    seed=SEEDS, trials=TRIALS, n_devices=st.integers(0, 3), tags=st.sampled_from(TAG_SETS)
)
@example(seed=0, trials=[0, 1], n_devices=2, tags=_STREAM_TAGS)
@example(seed=2**32 - 1, trials=[3], n_devices=1, tags=_STREAM_TAGS)
@example(seed=2**32, trials=[0], n_devices=1, tags=_STREAM_TAGS)
@example(seed=2**64, trials=[1], n_devices=1, tags=_STREAM_TAGS)
@example(seed=7, trials=[], n_devices=3, tags=_STREAM_TAGS)  # no trials
@example(seed=7, trials=[0, 1], n_devices=0, tags=_STREAM_TAGS)  # no devices
@example(seed=7, trials=[0, 2**32, 5, 2**64], n_devices=2, tags=_STREAM_TAGS)  # 4, 5, 6 words
@example(seed=7, trials=[0, 2**32], n_devices=2, tags=("times", "probe"))
def test_stream_seeds_are_seed_sequence_words(seed, trials, n_devices, tags):
    """Every hashed row is SeedSequence([seed, trial, device, tag])'s PCG64
    state words, and the Generator built on it starts in default_rng's
    state; a tag that was not hashed cannot be read."""
    words = stream_seeds(seed, trials, n_devices, tags)
    assert words.shape == (len(trials), n_devices) and words.dtype.names == tuple(tags)
    for m, trial in enumerate(trials):
        for i in range(n_devices):
            for tag, name in enumerate(_STREAM_TAGS):
                if name not in tags:
                    with pytest.raises(ValueError):
                        words[m, i][name]
                    continue
                key = [seed, trial, i, tag]
                row = words[m, i][name]
                assert row.flags.c_contiguous and row.dtype == np.uint64
                assert row.tolist() == reference(key).generate_state(4, np.uint64).tolist(), key
                expected = np.random.default_rng(reference(key)).bit_generator.state
                assert _stream(row).bit_generator.state == expected, key


@SEEDING
@given(keys=st.integers(1, 12).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(0, 2**32 - 1), min_size=width, max_size=width), min_size=1,
        max_size=5,
    )
))
def test_seed_state_of_any_word_count(keys):
    """The pool hash holds for keys shorter and longer than the 4-word pool."""
    state = _seed_state(np.array(keys, np.uint32))
    assert state.tolist() == [
        reference(np.array(key, np.uint32)).generate_state(4, np.uint64).tolist() for key in keys
    ]


def test_stream_seed_refuses_other_requests():
    seed = _StreamSeed(stream_seeds(1, [0], 1)[0, 0]["times"])
    with pytest.raises(ValueError):
        seed.generate_state(8, np.uint32)
    with pytest.raises(ValueError):
        stream_seeds(-1, [0], 1)


@pytest.mark.parametrize("first, second", [(8, 56), (8, 64)])
def test_exponential_draws_do_not_depend_on_chunking(first, second):
    """A Poisson device draws a small first chunk of gaps at set-up and
    larger chunks later. Its stream then gives the same gaps, and ends in
    the same state, as one draw of the total would."""
    for state in stream_seeds(11, [0, 1], 3).view(np.uint64).reshape(-1, 4):
        for scale in (0.05, 3.0, 3600.0):
            split, whole = _stream(state), _stream(state)
            drawn = [*split.exponential(scale, first), *split.exponential(scale, second)]
            assert drawn == whole.exponential(scale, first + second).tolist()
            assert split.bit_generator.state == whole.bit_generator.state


LOSSY_ACTIVE = """
scenario lossy-active
algorithm active
channels zigbee:11,zigbee:15
dwell-time 1.0
scan-time 300
trials 2
seed 19
loss-prob 0.3

device hub
  protocol zigbee
  role coordinator
  channels zigbee:11
  mean-interval 4.0
  address zigbee-short:0x1A62:0x0000
end

device relay
  protocol zigbee
  role router
  channels zigbee:15
  mean-interval 6.0
  address zigbee-short:0x1A62:0x0101
end

device sensor
  protocol zigbee
  role end-device
  channels zigbee:15
  mean-interval 3.0
  address zigbee-short:0x1A62:0x0202
end
"""


def probed_events(env):
    """Probe each responder's channel three times at time 0, then export the
    events: the times, loss and probe streams all reach the output."""
    for label in (11, 15, 11, 15, 11, 15):
        env.inject_probe(zigbee_channel(label))
    return [(e.time_s, e.channel.label, e.frame, e.device) for e in env.iter_events(200.0)]


@pytest.mark.parametrize("trial", [0, 1])
def test_lone_environment_matches_the_experiment_batch(trial):
    """The CLI's event export seeds its trial alone; run_experiment seeds
    all trials at once. Both give every device the same streams."""
    cfg = parse_scenario(LOSSY_ACTIVE)
    batch = stream_seeds(cfg.seed, range(cfg.trials), len(cfg.devices))
    alone = probed_events(experiment.trial_environment(cfg, trial))
    batched = probed_events(simulation.Environment(
        cfg.devices, streams=batch[trial], loss_prob=cfg.loss_prob,
        probe_response_delay_max_s=cfg.probe_response_delay_max_s,
    ))
    assert alone == batched
    assert {dev for *_, dev in alone} == {"hub", "relay", "sensor"}
    beacon = frames.ZigbeeFrameType.BEACON
    assert any(frames.decode(Protocol.ZIGBEE, f).frame_type is beacon for _, _, f, _ in alone)
    lossless = dataclasses.replace(cfg, loss_prob=0.0)
    assert len(probed_events(experiment.trial_environment(lossless, trial))) > len(alone)
