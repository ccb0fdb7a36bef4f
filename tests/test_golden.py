"""Golden digests: every shipped preset, run at its own seed, must write the
same `events.jsonl` bytes as when its digest was committed.

A digest file changes only together with a change that alters behaviour on
purpose, and that change says why. To regenerate one:

    PYTHONPATH=src python -c "import hashlib; from wardsim.engine import run; \
from wardsim.scenario import load_preset; \
print(hashlib.sha256(run(load_preset('default'))[0].to_jsonl().encode()).hexdigest())"
"""

import hashlib
from pathlib import Path

import pytest

from wardsim.engine import run
from wardsim.scenario import load_preset, preset_names

GOLDEN = Path(__file__).parent / "golden"


def test_every_preset_has_a_digest():
    assert sorted(p.stem for p in GOLDEN.glob("*.sha256")) == preset_names()


@pytest.mark.parametrize("name", preset_names())
def test_preset_log_matches_golden_digest(name):
    log, _ = run(load_preset(name))
    digest = hashlib.sha256(log.to_jsonl().encode()).hexdigest()
    assert digest == (GOLDEN / f"{name}.sha256").read_text().strip()
