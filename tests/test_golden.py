"""Golden digests: every shipped preset, run once at its own seed and
exported, must write the same `events.jsonl` bytes as when its digest was
committed, the same metrics.csv and metrics.txt, and `task_suite` (the
preset whose every export is non-empty) the same exported files. A short ward shift built here
(`ward_shift_config`) pins the wearable -> radio -> triage -> leader path,
which no preset drives every tick.

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

and every preset's metrics.csv and metrics.txt, one directory a preset:

    PYTHONPATH=src python -c "from wardsim.engine import export_outputs, run; \
from wardsim.scenario import load_preset, preset_names; \
[export_outputs(*run(load_preset(n)), 'out/' + n) for n in preset_names()]"
    (cd out && sha256sum */metrics.*) > tests/golden/exports/metrics.sha256sum

and the ward-shift digest:

    PYTHONPATH=src:tests python -c "import hashlib, test_golden; \
from wardsim.engine import run; \
print(hashlib.sha256(run(test_golden.ward_shift_config())[0].to_jsonl().encode()).hexdigest())" \
> tests/golden/engine/ward_shift.sha256

and a corpus digest, here of `lost_line`:

    PYTHONPATH=src:tests python -c "import hashlib, test_golden; \
from wardsim.engine import run; \
print(hashlib.sha256(run(test_golden.corpus_config('lost_line'))[0].to_jsonl().encode()).hexdigest())" \
> tests/golden/engine/lost_line.sha256

The corpus (`CORPUS`) is a set of short runs, each aimed at a corridor path
that no preset takes; `test_the_corpus_and_the_presets_run_every_statement_of_the_tick_paths`
checks that together with the presets they leave no statement of those
paths unrun.
"""

import dataclasses
import hashlib
import os
import trace
from pathlib import Path

import numpy as np
import pytest

from _statements import statement_lines
from wardsim import engine, kinematics, line_following
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def preset_exports(tmp_path_factory):
    """The directory of a preset's exports, events.jsonl among them; each
    preset is run and exported once, when a test first asks for it."""
    made = {}

    def exports(name: str) -> Path:
        if name not in made:
            made[name] = tmp_path_factory.mktemp(name)
            export_outputs(*run(load_preset(name)), made[name])
        return made[name]
    return exports


@pytest.mark.parametrize("name", preset_names())
def test_preset_log_matches_golden_digest(name, preset_exports):
    assert _sha256(preset_exports(name) / "events.jsonl") \
        == (GOLDEN / f"{name}.sha256").read_text().strip(), name + _numpy_hint()


def test_task_suite_exports_match_golden_digests(preset_exports):
    for line in (GOLDEN / "exports" / "task_suite.sha256sum").read_text().splitlines():
        digest, name = line.split()
        assert _sha256(preset_exports("task_suite") / name) == digest, name + _numpy_hint()


def _metrics_digests() -> dict[str, str]:
    lines = (GOLDEN / "exports" / "metrics.sha256sum").read_text().splitlines()
    return {name: digest for digest, name in map(str.split, lines)}


def test_every_preset_has_metrics_digests():
    assert sorted(_metrics_digests()) == [f"{name}/metrics.{ext}"
                                          for name in preset_names() for ext in ("csv", "txt")]


@pytest.mark.parametrize("name", preset_names())
def test_preset_metrics_match_golden_digests(name, preset_exports):
    digests = _metrics_digests()
    for file in ("metrics.csv", "metrics.txt"):
        assert _sha256(preset_exports(name) / file) == digests[f"{name}/{file}"], \
            file + _numpy_hint()


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


# Short scenarios on the default track, each aimed at a corridor path that no
# preset takes: name -> the keys set over CORPUS_BASE.
CORPUS_BASE = {"seed": 3, "duration_ms": 10_000}
CORPUS = {
    # off the line at the start: the line is lost, held, then the robot
    # nav-faults and is re-placed on the line
    "lost_line": {"robots": {"corridor": {"start": {"x": 0.1, "y": 0.1}}}},
    # the battery runs low and the robot slows down
    "battery_low": {"battery": {"budget_units": 5}},
    # steering by the odometry estimate alone
    "ir_off": {"ir_enabled": False},
    # a chassis whose wheels never slip on a step
    "no_slip": {"robots": {"corridor": {"slip_halfwidth": 0}}},
    # a script event that sets the heart rate
    "script_bpm": {"patient_script": [{"time_ms": 2000, "bpm": 130}]},
    # on the right edge facing down it, against the course: the correction
    # turns the line's tangent around
    "against_course": {"robots": {"corridor": {
        "start": {"x": 2.9, "y": 2.0, "theta": -1.5707963267948966}}}},
    # no jitter and a one-way delay of two ticks: every delivery is due
    # exactly on a tick, where the engine must still route it
    "on_tick_delivery": {"channel": {"one_way_jitter_ms": 0, "rtt_ms": 40}},
}


def corpus_config(name: str):
    return validate({**CORPUS_BASE, "name": name, **CORPUS[name]})


def test_every_engine_digest_belongs_to_a_run():
    names = sorted(p.stem for p in (GOLDEN / "engine").glob("*.sha256"))
    assert names == sorted([*CORPUS, "ward_shift"])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_log_matches_golden_digest(name):
    log, _ = run(corpus_config(name))
    digest = hashlib.sha256(log.to_jsonl().encode()).hexdigest()
    assert digest == (GOLDEN / "engine" / f"{name}.sha256").read_text().strip(), \
        name + _numpy_hint()


# the tick paths whose every statement the corpus and the presets must run:
# module -> its functions, as Class.method. Their raises are left out: a
# raise there checks an argument that a validated scenario cannot make
TICK_PATHS = {
    engine: ("Engine._drive", "Engine._correct_estimate", "Engine._apply_script"),
    kinematics: ("MotionSimulator.step",),
    line_following: ("LineFollower.step", "LineFollower.reset"),
}

# the presets' script events are at 10 s, so their first 11 s run them
TRACE_CUT_MS = 11_000


def test_the_corpus_and_the_presets_run_every_statement_of_the_tick_paths():
    # only the three modules are counted line by line, which keeps the
    # traced runs to a few seconds
    counted = {m.__name__.rpartition(".")[2] for m in TICK_PATHS}
    ignored = {Path(f).stem for f in os.listdir(Path(engine.__file__).parent)} - counted
    tracer = trace.Trace(count=1, trace=0, ignoremods=sorted(ignored),
                         ignoredirs=[os.path.dirname(np.__file__), os.path.dirname(os.__file__)])
    configs = [corpus_config(name) for name in sorted(CORPUS)]
    # the ward shift's link conditions, and its corridor that waits for a task
    configs += [dataclasses.replace(config, duration_ms=TRACE_CUT_MS)
                for config in [*map(load_preset, preset_names()), ward_shift_config()]]
    for config in configs:
        tracer.runfunc(run, config)
    ran = set(tracer.results().counts)
    missed = []
    for module, qualnames in TICK_PATHS.items():
        source = Path(module.__file__).read_text().splitlines()
        missed += [f"{module.__name__}:{n}: {source[n - 1].strip()}"
                   for n in sorted(statement_lines(module, qualnames, lambda node: True))
                   if (module.__file__, n) not in ran]
    assert not missed
