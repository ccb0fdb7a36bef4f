"""Block-drawn random streams against numpy's scalar Generator calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardsim.rng import _BLOCK_STREAMS, Doubles, derive_streams

_bounds = st.floats(-1e3, 1e3, allow_nan=False)

# one call: ("random",), ("uniform", low, high) or ("uniform", low, high, size)
_calls = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), _bounds, _bounds),
    st.tuples(st.just("uniform"), _bounds, _bounds, st.integers(0, 9)),
)


def _call(stream, call):
    """The value of one call, or the type of the error it raised: sorted
    bounds still give a range of -0.0 for (0.0, -0.0), which the Generator
    rejects, and neither stream draws before it raises."""
    if call[0] == "random":
        return stream.random()
    low, high = sorted(call[1:3])
    try:
        if len(call) == 3:
            return stream.uniform(low, high)
        drawn = stream.uniform(low, high, size=call[3])
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return drawn.tolist() if isinstance(drawn, np.ndarray) else drawn


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), block=st.integers(1, 8),
       program=st.lists(_calls, max_size=40))
def test_block_server_gives_the_scalar_generators_values(seed, block, program):
    # blocks of 1-8 doubles, so most programs cross several block boundaries
    served = Doubles(np.random.default_rng(seed), block=block)
    scalar = np.random.default_rng(seed)
    for call in program:
        got, want = _call(served, call), _call(scalar, call)
        assert got == want
        assert type(got) is type(want)


@pytest.mark.parametrize("block", [0, -1])
def test_a_block_below_one_is_refused(block):
    with pytest.raises(ValueError, match="block must be at least 1"):
        Doubles(np.random.default_rng(0), block=block)


def test_uniform_rejects_what_the_generator_rejects():
    served = Doubles(np.random.default_rng(0))
    for low, high, error in ((1.0, 0.0, ValueError), (0.0, np.inf, OverflowError),
                             (-1e308, 1e308, OverflowError), (0.0, -0.0, ValueError),
                             (1.0, -np.inf, OverflowError), (np.nan, 1.0, OverflowError)):
        with pytest.raises(error):
            np.random.default_rng(0).uniform(low, high)
        with pytest.raises(error):
            served.uniform(low, high)


def test_only_the_double_only_streams_are_block_served():
    streams = derive_streams(3)
    for name, stream in streams.items():
        assert isinstance(stream, Doubles) is (name in _BLOCK_STREAMS), name
    assert "vitals_noise" not in _BLOCK_STREAMS
