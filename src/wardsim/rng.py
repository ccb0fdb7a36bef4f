"""Named per-subsystem random streams derived from a single root seed.

Each subsystem draws from its own generator so adding draws in one place
does not perturb the sequences seen by the others.

The streams that draw only doubles (`channel`, `slip`, `ir_noise` and
`fall_detector`) are served by `Doubles`, which takes them from
`Generator.random(N)` blocks. numpy's `uniform(low, high)` is
`low + (high - low) * u` with `u` the same double that `random()` returns,
so a block gives exactly the values of one scalar call per draw, as plain
floats and at a fraction of a call's cost. `vitals_noise` keeps its
`Generator` only for `normal`, which takes a variable number of words from
the bit generator and so cannot be served from a block of doubles; its
uniform draws interleave with those normals, so `sample_vitals` writes them
out as `low + (high - low) * random()` on the same Generator. `ml` and
`misc` keep their Generators too.
"""

import itertools
import math

import numpy as np

# Fixed stream indices; append only, never reorder.
_STREAMS = (
    "channel",
    "slip",
    "ir_noise",
    "vitals_noise",
    "fall_detector",
    "ml",
    "misc",
)

# the streams served by Doubles: each of their draws is one double
_BLOCK_STREAMS = frozenset({"channel", "slip", "ir_noise", "fall_detector"})

_BLOCK = 1024


class Doubles:
    """The doubles of a Generator, drawn `block` at a time. `random()` and
    `uniform()` give the values of the same calls on the Generator itself,
    as floats (a sized `uniform` gives a list)."""

    def __init__(self, gen: np.random.Generator, block: int = _BLOCK):
        if block < 1:  # empty blocks would chain forever
            raise ValueError("block must be at least 1")
        # the next double of an endless chain of blocks, each drawn when the
        # one before runs out: one C call per draw
        blocks = map(np.ndarray.tolist, map(gen.random, itertools.repeat(block)))
        self.random = itertools.chain.from_iterable(blocks).__next__

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        span = high - low
        if not 0.0 < span < math.inf:  # Generator.uniform's checks, in its order
            if not math.isfinite(span):
                raise OverflowError("high - low range exceeds valid bounds")
            if math.copysign(1.0, span) < 0.0:  # the Generator tests the sign bit
                raise ValueError("high - low < 0")
        random = self.random
        if size is None:
            return low + span * random()
        return [low + span * random() for _ in range(size)]


def derive_streams(root_seed: int) -> dict[str, np.random.Generator | Doubles]:
    """Return one independent stream per named subsystem: a Doubles server
    for the double-only streams, a Generator for the others."""
    children = np.random.SeedSequence(root_seed).spawn(len(_STREAMS))
    streams = {}
    for name, seq in zip(_STREAMS, children):
        gen = np.random.default_rng(seq)
        streams[name] = Doubles(gen) if name in _BLOCK_STREAMS else gen
    return streams
