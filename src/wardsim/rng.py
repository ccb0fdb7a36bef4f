"""Named per-subsystem random streams derived from a single root seed.

Each subsystem draws from its own generator so adding draws in one place
does not perturb the sequences seen by the others.

The streams that draw only doubles (`channel`, `slip` and `fall_detector`,
and `ir_noise`, which nothing draws from) are served by `Doubles`, which
takes them from `Generator.random(N)` blocks, so a block gives exactly the
values of one scalar call per draw, as plain floats and at a fraction of a
call's cost.
numpy's `uniform(low, high)` is `low + (high - low) * u` with `u` the
double that `random()` returns, so a uniform draw is written out as
`low + span * random()`, with `low` and `span = high - low` fixed where the
range is fixed and checked (by `symmetric_range_checks` for a symmetric
draw).
`vitals_noise` keeps its `Generator` only for `normal`, which takes a
variable number of words from the bit generator and so cannot be served
from a block of doubles; its uniform draws interleave with those normals,
so `sample_vitals` writes them out the same way on the Generator.
"""

import itertools
import math

import numpy as np

# A stream's index keys its SeedSequence child, so its values do not depend
# on how many streams follow it: append only, never reorder. Nothing draws
# from `ir_noise`: it only holds its index, so the streams after it keep theirs.
_STREAMS = (
    "channel",
    "slip",
    "ir_noise",
    "vitals_noise",
    "fall_detector",
)

# the streams served by Doubles: each of their draws is one double
_BLOCK_STREAMS = frozenset({"channel", "slip", "ir_noise", "fall_detector"})

_BLOCK = 1024


def symmetric_range_checks(half_width: float, name: str) -> tuple[tuple[bool, str], ...]:
    """The `(holds, message)` checks, for `wardsim.require`, that refuse a
    half-width of uniform(-half_width, half_width) that is negative, NaN, or
    whose doubled span is infinite (which Generator.uniform refuses with
    OverflowError)."""
    return ((half_width >= 0, f"{name} must be nonnegative"),
            (half_width + half_width != math.inf, f"{name} must be at most half the float maximum"))


def symmetric_range(half_width: float) -> tuple[float, float]:
    """`(low, high - low)` of uniform(-half_width, half_width), for a
    half-width that passes `symmetric_range_checks`."""
    return -half_width, half_width - -half_width


class Doubles:
    """The doubles of a Generator, drawn `block` at a time: `random()` gives
    the values of the same calls on the Generator itself, as floats."""

    def __init__(self, gen: np.random.Generator, block: int = _BLOCK):
        if block < 1:  # empty blocks would chain forever
            raise ValueError("block must be at least 1")
        # the next double of an endless chain of blocks, each drawn when the
        # one before runs out: one C call per draw
        blocks = map(np.ndarray.tolist, map(gen.random, itertools.repeat(block)))
        self.random = itertools.chain.from_iterable(blocks).__next__


def derive_streams(root_seed: int) -> dict[str, np.random.Generator | Doubles]:
    """Return one independent stream per named subsystem: a Doubles server
    for the double-only streams, a Generator for the others."""
    children = np.random.SeedSequence(root_seed).spawn(len(_STREAMS))
    streams = {}
    for name, seq in zip(_STREAMS, children):
        gen = np.random.default_rng(seq)
        streams[name] = Doubles(gen) if name in _BLOCK_STREAMS else gen
    return streams
