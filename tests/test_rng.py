"""Block-drawn random streams against numpy's scalar Generator calls."""

import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardsim import ConfigurationError, require
from wardsim.rng import (_BLOCK_STREAMS, Doubles, derive_streams, symmetric_range,
                         symmetric_range_checks)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), block=st.integers(1, 8), n=st.integers(0, 40))
def test_block_server_gives_the_scalar_generators_values(seed, block, n):
    # blocks of 1-8 doubles, so most runs cross several block boundaries
    served = Doubles(np.random.default_rng(seed), block=block)
    scalar = np.random.default_rng(seed)
    for _ in range(n):
        got, want = served.random(), scalar.random()
        assert got == want
        assert type(got) is type(want)


@pytest.mark.parametrize("drawn", [0, 1, 500, 1023, 1024, 1025, 3000])
def test_a_pickled_stream_gives_the_next_draws_of_the_original(drawn):
    # 500 and 3000 are mid-block; 1024 has used up the first block and not
    # yet drawn the second
    stream = Doubles(np.random.default_rng(5))
    for _ in range(drawn):
        stream.random()
    data = pickle.dumps(stream)
    assert b"itertools" not in data
    copy = pickle.loads(data)
    assert [copy.random() for _ in range(2000)] == [stream.random() for _ in range(2000)]


@pytest.mark.parametrize("block", [0, -1])
def test_a_block_below_one_is_refused(block):
    with pytest.raises(ValueError, match="block must be at least 1"):
        Doubles(np.random.default_rng(0), block=block)


def test_only_the_double_only_streams_are_block_served():
    streams = derive_streams(3)
    for name, stream in streams.items():
        assert isinstance(stream, Doubles) is (name in _BLOCK_STREAMS), name
    assert "vitals_noise" not in _BLOCK_STREAMS


def test_each_stream_is_the_child_of_its_index():
    # SeedSequence.spawn keys a child by its index alone, so a stream's
    # values do not depend on how many streams are derived after it
    streams = derive_streams(3)
    assert list(streams) == ["channel", "slip", "ir_noise", "vitals_noise", "fall_detector"]
    children = np.random.SeedSequence(3).spawn(7)
    for i, (name, stream) in enumerate(streams.items()):
        assert stream.random() == np.random.default_rng(children[i]).random(), name



# The first four draws of each named stream at seed 0, in the order the
# engine draws them: a double each from the block-served streams, and
# `sample_vitals`' two uniforms and one normal, then a double, from
# `vitals_noise`. numpy does not promise to keep a Generator method's stream
# across feature releases (NEP 19), so a release that moves one fails the
# stream's own test here, before any log digest fails.
FINGERPRINTS = {
    "channel": [0.9429375528828794, 0.3163371523854981, 0.7223425886498254,
                0.12560308543269327],
    "slip": [0.6771968569751019, 0.2429867485428212, 0.6117637963218119, 0.4230998298211348],
    "ir_noise": [0.8382711479571602, 0.08372444856512495, 0.6176152913826177,
                 0.7028375859931597],
    "vitals_noise": [0.3644334333698406, 0.5113367953594365, 0.7041743089255303,
                     0.2322490458929357],
    "fall_detector": [0.6529725757834846, 0.32395866639788673, 0.16410961774742827,
                      0.5776281202998617],
}


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_each_stream_draws_its_pinned_first_values(name):
    stream = derive_streams(0)[name]
    if name == "vitals_noise":
        draws = [stream.random(), stream.random(), stream.standard_normal(), stream.random()]
    else:
        draws = [stream.random() for _ in range(4)]
    assert draws == FINGERPRINTS[name]


def test_the_fingerprints_cover_every_stream():
    assert set(FINGERPRINTS) == set(derive_streams(0))


# Tier-1 runs hypothesis' default budget; CI runs the `corridor-fuzz` profile
@pytest.mark.corridor_oracle
@given(half=st.floats(0.0, 1e300) | st.sampled_from([0.0, 5e-324, sys.float_info.max / 2]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_symmetric_range_draws_equal_the_generators_uniform(half, seed):
    low, span = symmetric_range(half)
    assert repr(low) == repr(-half)
    served = Doubles(np.random.default_rng(seed))
    gen = np.random.default_rng(seed)
    for _ in range(4):
        assert repr(low + span * served.random()) == repr(gen.uniform(-half, half))


@pytest.mark.parametrize("half, message", [
    (-1.0, "h must be nonnegative"), (-math.inf, "h must be nonnegative"),
    (math.nan, "h must be nonnegative"),
    (math.inf, "h must be at most half the float maximum"),
    (sys.float_info.max, "h must be at most half the float maximum"),
])
def test_symmetric_range_refuses_what_cannot_be_drawn(half, message):
    with pytest.raises(ConfigurationError, match=message):
        require(*symmetric_range_checks(half, "h"))
    if half > 0:  # numpy itself refuses an infinite span
        with pytest.raises(OverflowError):
            np.random.default_rng(0).uniform(-half, half)
