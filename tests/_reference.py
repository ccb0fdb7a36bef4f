"""A reference engine for the tick loop's skips: `EveryPhaseEngine` calls
every phase and steps every follower on every tick, and each phase decides
for itself whether it has anything to do, as the engine did before its loop
learned to call a phase only when it has work due. Each follower step is
told the time since the previous tick, 0 at tick 0, and it reads the
corridor's `finished` list after every tick.

`first_difference` names where two logs part, so that a mismatch says which
record the skips changed.

`reference_export` writes a run's files as `export_outputs` did before it
made them in one pass: each line by `json.dumps`, and each of the other
files from a walk of its own over the whole log."""

import csv
import json
import os

from wardsim.engine import _MOVING_KINDS, Engine
from wardsim.protocol import TaskKind
from wardsim.vitals import Posture


class EveryPhaseEngine(Engine):
    # the phases that the engine's loop guards, each with its own guard

    def _sample_wearable(self):
        period = self.config.vitals_sample_period_ms
        if period > 0 and self._now % period == 0:
            super()._sample_wearable()

    def _camera_checks(self):
        period = self.config.fall_detector.check_period_ms
        periodic = (self.patient.posture is Posture.FALLEN
                    and period > 0 and self._now % period == 0)
        if periodic or self._patrol_check_due:
            super()._camera_checks()

    def _drive(self, dt_s: float):
        active = self.corridor.active
        if self.config.patrol_always or (active is not None and active.kind in _MOVING_KINDS):
            super()._drive(dt_s)

    def run(self):
        cfg = self.config
        self._emit_meta()
        dt_ms, dt_s, leader = cfg.dt_ms, cfg.dt_ms / 1000.0, self.leader
        for tick in range(cfg.duration_ms // dt_ms):
            self._now = tick * dt_ms
            self._apply_script()
            self._sample_wearable()
            self._triage_ready()

            leader_out = leader.step(self._inboxes[leader.address], self._now)
            self._inboxes[leader.address] = []
            self._drain(leader.transitions, "task")
            for pkt in leader_out:
                self._send(pkt)

            self._route_deliveries()

            for addr, follower in self._step_order:
                out = follower.step(self._inboxes[addr], self._now, dt_ms if tick else 0)
                self._inboxes[addr] = []
                for pkt in out:
                    self._send(pkt)
            for done in self.corridor.finished:
                if done.kind is TaskKind.PATROL_CHECK:
                    self._patrol_check_due = True

            self._camera_checks()
            self._drive(dt_s)
            self._status_light()
            self._drain(leader.notifications, "notification")
        return self.log, self.acc.result()


def first_difference(jsonl: str, reference_jsonl: str) -> str | None:
    """Where the JSONL log `jsonl` first differs from `reference_jsonl`: the
    record's index, time and kind, with both sides; None if they are equal."""
    if jsonl == reference_jsonl:
        return None
    lines, ref_lines = jsonl.splitlines(), reference_jsonl.splitlines()
    i = next((i for i, (a, b) in enumerate(zip(lines, ref_lines)) if a != b),
             min(len(lines), len(ref_lines)))
    line = lines[i] if i < len(lines) else ref_lines[i]
    record = json.loads(line)
    return (f"record {i} (time_ms {record['time_ms']}, kind {record['kind']}) differs; "
            f"{len(lines)} records against the reference's {len(ref_lines)}\n"
            f"  engine:    {lines[i] if i < len(lines) else '(none)'}\n"
            f"  reference: {ref_lines[i] if i < len(ref_lines) else '(none)'}")


def reference_export(log, metrics, out_dir):
    """The files of `export_outputs(log, metrics, out_dir)`, each from its
    own walk over the log."""
    os.makedirs(out_dir, exist_ok=True)

    def path(name):
        return os.path.join(out_dir, name)

    with open(path("events.jsonl"), "w") as f:
        f.writelines(json.dumps(r, sort_keys=True) + "\n" for r in log.records)
    with open(path("metrics.txt"), "w") as f:
        f.write(metrics.as_text())
    metrics.save_csv(path("metrics.csv"))
    for name, kind, header, keys in (
            ("channel.csv", "packet_send",
             ("time_ms", "src", "dst", "kind", "seq", "condition", "outcome", "delay_ms"),
             ("src", "dst", "packet_kind", "seq", "condition", "outcome", "delay_ms")),
            ("tasks.csv", "task",
             ("time_ms", "task_id", "kind", "origin", "assignee", "state", "retry_count"),
             ("task_id", "kind", "origin", "assignee", "state", "retry_count"))):
        with open(path(name), "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows([r["time_ms"], *(r["payload"][k] for k in keys)]
                        for r in log.records if r["kind"] == kind)
    with open(path("vitals.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["time_ms", "spo2", "bpm", "temp", "valid", "flags", "class"])
        flags = cls = ""
        for r in log.records:
            p = r["payload"]
            if r["kind"] == "triage":
                flags, cls = "|".join(p["flags"]), p["class"]
            elif r["kind"] == "vitals_sample":
                w.writerow([r["time_ms"], p["spo2"], p["bpm"], p["temp"], p["valid"], flags, cls])
    with open(path("notifications.log"), "w") as f:
        for r in log.records:
            if r["kind"] == "notification":
                p = r["payload"]
                f.write(f"{r['time_ms']}\t{p['severity']}\t{p['cause']}\t{p['text']}\n")
