"""The benchmark's workloads: the scenarios, one operation each, and checks.

Every workload is a closed loop with one client: one simulation at a time,
the next starting only after the previous one has finished and been checked.
Its inputs come from a fixed pool of scenario seeds whose expected outcomes
are stored in reference.json. The benchmark seed chooses the order in which
the pool is visited after its first input, so the same seed gives the same
inputs and every run can be checked against the reference.

This module imports only the standard library at load time, so the cold
set-up probe can import it before it starts its clock.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

from pace import Paced

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("patrol", "ward_shift")

WARD_SHIFT_MS = 120_000

POOLS = {
    "patrol": tuple(range(1, 13)),
    "ward_shift": tuple(range(1, 13)),
}


def use_source_tree():
    """Import wardsim from this checkout's src/, and from nowhere else."""
    if not (SRC / "wardsim" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'wardsim'} not found; "
                         "run the benchmark from the root of a wardsim checkout")
    sys.path.insert(0, str(SRC))
    import wardsim
    if not Path(wardsim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: wardsim was imported from {wardsim.__file__}, not {SRC}")


def visit_order(workload: str, seed: int) -> list[int]:
    """The pool of `workload` in the order that benchmark seed `seed` visits
    it. Every order starts with the pool's first input, which the warm-up
    runs: the process's peak RSS depends on the input it runs first (on
    ward_shift it was 103 MB when that was scenario seed 10 and 111 MB
    otherwise), and a fixed first input keeps peak_rss_mb from moving with
    the seed."""
    first, *rest = POOLS[workload]
    return [first] + random.Random(f"{workload}:{seed}").sample(rest, len(rest))


def ward_shift_raw(seed: int) -> dict:
    """A long ward shift for the radio, the wearable and the leader: a
    medication round every 5 s, a vitals sample every 10 ms tick, the
    leader-corridor link obstructed both ways, and a low-SpO2 episode every
    minute. The corridor robot only drives while it has a task."""
    schedule = [{"time_ms": t, "bed": 1 + (t // 5000) % 2, "slot": (t // 5000) % 2}
                for t in range(5000, WARD_SHIFT_MS, 5000)]
    script = []
    for onset in range(20_000, WARD_SHIFT_MS, 60_000):
        script.append({"time_ms": onset, "kind": "low_spo2", "spo2": 87})
        script.append({"time_ms": onset + 15_000, "spo2": 98})
    return {
        "name": "ward_shift",
        "seed": seed,
        "dt_ms": 10,
        "duration_ms": WARD_SHIFT_MS,
        "track": "default",
        "patrol_always": False,
        "vitals_sample_period_ms": 10,
        "exec_durations_ms": {"patrol_check": 500, "deliver_medicine": 500,
                              "arm_dispense": 500},
        "link_conditions": [
            {"time_ms": 0, "src": 1, "dst": 2, "condition": "obstructed"},
            {"time_ms": 0, "src": 2, "dst": 1, "condition": "obstructed"},
        ],
        "schedule": schedule,
        "patient_script": script,
        "budgets_ms": {"low_spo2": 3000},
    }


def patrol_config(seed: int):
    from wardsim import scenario
    return dataclasses.replace(scenario.load_preset("default"), seed=seed)


def ward_shift_config(seed: int):
    from wardsim import scenario
    return scenario.validate(ward_shift_raw(seed), name="ward_shift")


CONFIGS = {"patrol": patrol_config, "ward_shift": ward_shift_config}


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


def summarize(log, live) -> dict:
    """What a run must reproduce exactly: record counts by kind, each task's
    final state, and the alert verdicts."""
    final_state = {}
    for record in log.records:
        if record["kind"] == "task":
            final_state[str(record["payload"]["task_id"])] = record["payload"]["state"]
    return {
        "counts": dict(sorted(Counter(r["kind"] for r in log.records).items())),
        "tasks": final_state,
        "verdicts": dict(sorted(live.alert_verdicts.items())),
    }


@dataclasses.dataclass
class Simulation:
    """One run of a scenario, saved with export_outputs and replayed."""
    seed: int
    sim_s: float          # simulated seconds
    run_s: float          # scaled: config load/validate + engine.run
    export_s: float       # scaled: export_outputs
    replay_s: float       # scaled: EventLog.load + replay_metrics
    wall_s: tuple         # (run, export, replay) wall seconds, unscaled
    pace_s: tuple         # (run, export, replay) mean pace sample
    log_bytes: int
    log_sha256: str
    summary: dict
    problems: list[str]


def simulate(workload: str, seed: int, out_dir: Path) -> Simulation:
    """Run one scenario of `workload`, export its outputs, replay the saved
    log, and check that the replayed metrics equal the live ones. The live
    log is released before the replay, as when `wardsim run --out` and
    `wardsim replay` are separate commands. Each phase is timed by a
    `Paced` block."""
    from wardsim import engine, metrics
    with Paced() as run:
        config = CONFIGS[workload](seed)
        log, live = engine.run(config)
    with Paced() as export:
        engine.export_outputs(log, live, out_dir)
    summary = summarize(log, live)
    del log
    gc.collect()
    with Paced() as replay:
        replayed = metrics.replay_metrics(metrics.EventLog.load(out_dir / "events.jsonl"))
    data = (out_dir / "events.jsonl").read_bytes()
    problems = []
    if replayed != live:
        problems.append(f"{workload} seed {seed}: replayed metrics differ from live metrics")
    phases = (run, export, replay)
    return Simulation(seed, config.duration_ms / 1000.0, run.scaled_s, export.scaled_s,
                      replay.scaled_s, tuple(p.wall_s for p in phases),
                      tuple(p.pace_s for p in phases), len(data),
                      hashlib.sha256(data).hexdigest(), summary, problems)


def reference_problems(expected: dict | None, summary: dict, label: str) -> list[str]:
    if expected is None:
        return [f"{label}: no reference stored"]
    return [f"{label}: {key} differ from the reference" for key in ("counts", "tasks", "verdicts")
            if summary[key] != expected[key]]
