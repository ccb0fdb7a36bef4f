"""Block-drawn random streams against numpy's scalar Generator calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardsim.rng import _BLOCK_STREAMS, Doubles, derive_streams


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
