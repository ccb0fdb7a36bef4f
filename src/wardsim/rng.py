"""Named per-subsystem random streams derived from a single root seed.

Each subsystem draws from its own generator so adding draws in one place
does not perturb the sequences seen by the others.
"""

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


def derive_streams(root_seed: int) -> dict[str, np.random.Generator]:
    """Return one independent Generator per named subsystem stream."""
    children = np.random.SeedSequence(root_seed).spawn(len(_STREAMS))
    return {name: np.random.default_rng(seq) for name, seq in zip(_STREAMS, children)}
