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
import operator

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


class _Blocks:
    """The endless blocks of `size` doubles of `gen`, each drawn when it is
    asked for; `start` is the generator's state before the current block
    was drawn (None before the first), and `current` an iterator over it."""

    __slots__ = ("gen", "size", "start", "current")

    def __init__(self, gen: np.random.Generator, size: int):
        self.gen, self.size, self.start, self.current = gen, size, None, iter(())

    def __iter__(self):
        return self

    def __next__(self):
        self.start = self.gen.bit_generator.state
        self.current = iter(self.gen.random(self.size).tolist())
        return self.current


class Doubles:
    """The doubles of a Generator, drawn `block` at a time: `random()` gives
    the values of the same calls on the Generator itself, as floats.

    A Doubles pickles as its generator's state before the current block was
    drawn and the count already drawn from that block, and not as the
    itertools objects that serve it, whose pickling Python 3.12 deprecates
    and 3.14 removes."""

    def __init__(self, gen: np.random.Generator, block: int = _BLOCK):
        if block < 1:  # empty blocks would chain forever
            raise ValueError("block must be at least 1")
        self._blocks = _Blocks(gen, block)
        # the next double of the chain of blocks: one C call per draw
        self.random = itertools.chain.from_iterable(self._blocks).__next__

    def __reduce__(self):
        blocks = self._blocks
        if blocks.start is None:
            return Doubles, (blocks.gen, blocks.size)
        drawn = blocks.size - operator.length_hint(blocks.current)
        return _resume, (type(blocks.gen.bit_generator), blocks.start, blocks.size, drawn)


def _resume(bit_generator: type, state: dict, block: int, drawn: int) -> Doubles:
    """The Doubles whose current block was drawn from a generator at
    `state`, with `drawn` doubles of it already drawn."""
    bits = bit_generator()
    bits.state = state
    doubles = Doubles(np.random.Generator(bits), block)
    for _ in range(drawn):
        doubles.random()
    return doubles


def derive_streams(root_seed: int) -> dict[str, np.random.Generator | Doubles]:
    """Return one independent stream per named subsystem: a Doubles server
    for the double-only streams, a Generator for the others."""
    children = np.random.SeedSequence(root_seed).spawn(len(_STREAMS))
    streams = {}
    for name, seq in zip(_STREAMS, children):
        gen = np.random.default_rng(seq)
        streams[name] = Doubles(gen) if name in _BLOCK_STREAMS else gen
    return streams
