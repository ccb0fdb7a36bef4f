"""Golden digests: every shipped preset, run at its own seed, must write the
same `events.jsonl` bytes as when its digest was committed, and `task_suite`
(the preset whose every export is non-empty) the same exported files. A short
ward shift built here (`ward_shift_config`) pins the wearable -> radio ->
triage -> leader path, which no preset drives every tick.

A digest file changes only together with a change that alters behaviour on
purpose, and that change says why. To regenerate one:

    PYTHONPATH=src python -c "import hashlib; from wardsim.engine import run; \
from wardsim.scenario import load_preset; \
print(hashlib.sha256(run(load_preset('default'))[0].to_jsonl().encode()).hexdigest())"

and the export digests, in `sha256sum` format:

    PYTHONPATH=src python -c "from wardsim.engine import export_outputs, run; \
from wardsim.scenario import load_preset; export_outputs(*run(load_preset('task_suite')), 'out')"
    (cd out && sha256sum channel.csv tasks.csv vitals.csv notifications.log \
metrics.csv metrics.txt) > tests/golden/exports/task_suite.sha256sum

and the ward-shift digest:

    PYTHONPATH=src:tests python -c "import hashlib, test_golden; \
from wardsim.engine import run; \
print(hashlib.sha256(run(test_golden.ward_shift_config())[0].to_jsonl().encode()).hexdigest())" \
> tests/golden/engine/ward_shift.sha256
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from wardsim.engine import export_outputs, run
from wardsim.scenario import load_preset, preset_names, validate

GOLDEN = Path(__file__).parent / "golden"

# The numpy feature release the digests were made with. They depend on its
# Generator streams, which numpy does not promise to keep across feature
# releases (https://numpy.org/neps/nep-0019-rng-policy.html); CI installs
# the same release.
DIGEST_NUMPY = "2.4"


def _numpy_hint() -> str:
    if np.__version__.startswith(DIGEST_NUMPY + "."):
        return ""
    return (f"; the digests were made with numpy {DIGEST_NUMPY}.x, this run uses "
            f"numpy {np.__version__}, whose random streams may differ")


def test_every_preset_has_a_digest():
    assert sorted(p.stem for p in GOLDEN.glob("*.sha256")) == preset_names()


@pytest.mark.parametrize("name", preset_names())
def test_preset_log_matches_golden_digest(name):
    log, _ = run(load_preset(name))
    digest = hashlib.sha256(log.to_jsonl().encode()).hexdigest()
    assert digest == (GOLDEN / f"{name}.sha256").read_text().strip(), name + _numpy_hint()


def test_task_suite_exports_match_golden_digests(tmp_path):
    export_outputs(*run(load_preset("task_suite")), tmp_path)
    for line in (GOLDEN / "exports" / "task_suite.sha256sum").read_text().splitlines():
        digest, name = line.split()
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, \
            name + _numpy_hint()


def ward_shift_config():
    """20 s of a ward shift: a vitals sample every tick, the leader-corridor
    link obstructed both ways, a medication round every 5 s and one low-SpO2
    episode, with the corridor driving only while it has a task."""
    return validate({
        "name": "ward_shift_20s",
        "seed": 11,
        "duration_ms": 20_000,
        "patrol_always": False,
        "vitals_sample_period_ms": 10,
        "exec_durations_ms": {"patrol_check": 500, "deliver_medicine": 500,
                              "arm_dispense": 500},
        "link_conditions": [
            {"time_ms": 0, "src": 1, "dst": 2, "condition": "obstructed"},
            {"time_ms": 0, "src": 2, "dst": 1, "condition": "obstructed"},
        ],
        "schedule": [{"time_ms": t, "bed": 1 + t // 5000 % 2, "slot": t // 5000 % 2}
                     for t in range(5000, 20_000, 5000)],
        "patient_script": [{"time_ms": 6000, "kind": "low_spo2", "spo2": 87},
                           {"time_ms": 13_000, "spo2": 98}],
        "budgets_ms": {"low_spo2": 3000},
    })


def test_ward_shift_log_matches_golden_digest():
    log, _ = run(ward_shift_config())
    digest = hashlib.sha256(log.to_jsonl().encode()).hexdigest()
    assert digest == (GOLDEN / "engine" / "ward_shift.sha256").read_text().strip(), \
        _numpy_hint()
