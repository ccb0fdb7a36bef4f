"""Block-drawn random streams against numpy's scalar Generator calls."""

import math
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
