"""Fixed-timestep simulation engine wiring every subsystem together.

Tick order (one pass per dt): patient script, wearable sampling, triage
pipeline, leader step, channel deliveries, follower steps, camera checks,
corridor motion with line following, status light, notifications; each
record is logged as a row, its values in its kind's `metrics.RECORD_KINDS`
field order, and is folded as it is made. Only the leader steps on
every tick; the tick loop calls every other phase only when it has work due:
the script when its next event or link change is due, the wearable on a
sample tick, the triage pipeline when its earliest result is ready, the
deliveries when the channel's earliest packet is due, a follower when its
inbox holds a packet, it has an active execution or a nav fault, the camera
when a patrol check is due or the patient is down, the drive while the
corridor moves (always, with `patrol_always`), and the status light at tick 0
and after a corridor step. The engine logs and clears the leader's list of
task transitions after each leader call, and its list of staff alerts at the
end of the tick: nothing refers back to the engine, so a run makes no
reference cycles and a dropped log is freed at once.
All randomness comes from named streams derived from the scenario seed, so
a (config, seed) pair fully determines the event log.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
import os
import statistics
from dataclasses import dataclass, field

from .kinematics import DeadReckoner, MotionSimulator, Pose, drift_error, normalize_angle
from .line_following import LineFollower
from .metrics import (_BATCH_LINES, PAYLOAD_VALUES, EventLog, MetricsAccumulator, RowSink,
                      RunMetrics, gc_paused, success_rate)
from .protocol import Follower, Leader, StatusLight, TaskKind
from .rf_channel import Channel, Packet, PacketKind
from .rng import derive_streams
from .scenario import ScenarioConfig
from .vitals import (FallOutcome, Flag, PatientState, Posture, TriageClass,
                     TriageDecision, classify, detect_fall, rule_decision,
                     sample_vitals, triage_delay_ms)

# what is debounced before the leader acts: the flags derived from noisy
# numeric channels, and severity, so single-sample noise spikes trigger
# neither a patrol nor a hospital class
_SEVERE = "severe"
_LATCH_KEYS = (Flag.LOW_SPO2, Flag.FEVER, Flag.ABNORMAL_HR, _SEVERE)

# the corridor drives while it carries out one of these
_MOVING_KINDS = (TaskKind.PATROL_CHECK, TaskKind.DELIVER_MEDICINE)

_FOLDS = MetricsAccumulator.FOLDS
# the values of the packet_send payload that Channel.send returns
_send_values = PAYLOAD_VALUES["packet_send"]


class EngineAbort(RuntimeError):
    """The tick loop stopped on an exception: an internal invariant failed,
    the state left the range its constructors accept, or any other error.
    Carries the log up to the failure."""

    def __init__(self, message: str, log: EventLog):
        super().__init__(message)
        self.log = log


class Engine:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.streams = derive_streams(config.seed)
        robots, corridor = config.robots, config.robots.corridor
        self.channel = Channel(config.channel, robots.addresses, self.streams["channel"])

        durations = {kind: getattr(config.exec_durations_ms, kind.value) for kind in TaskKind}
        self.corridor = Follower(corridor.address, robots.leader.address,
                                 frozenset(_MOVING_KINDS), durations)
        self.arm = Follower(robots.arm.address, robots.leader.address,
                            frozenset({TaskKind.ARM_DISPENSE}), durations)
        self.followers = {f.address: f for f in (self.corridor, self.arm)}
        # the followers are the leader's roster: it reads their availability
        self.leader = Leader(robots.leader.address, self.followers, config.schedule,
                             config.timeout_policy)
        # the followers by address, in the order they step
        self._step_order = sorted(self.followers.items())

        self.patient = PatientState()
        self.motion = MotionSimulator(config.start_pose, corridor.chassis,
                                      corridor.slip_halfwidth, self.streams["slip"],
                                      slip_bias_halfwidth=corridor.slip_bias_halfwidth)
        self.follower_ctl = LineFollower(gains=corridor.gains, geometry=corridor.geometry,
                                         base_rpm=corridor.base_rpm)
        self.dr_raw = DeadReckoner(self.motion.pose, corridor.chassis)
        self.dr_corrected = DeadReckoner(self.motion.pose, corridor.chassis)

        self.log = EventLog()
        self.acc = MetricsAccumulator()
        self._append = self.log.rows.append
        self._inboxes: dict[int, list[Packet]] = {a: [] for a in robots.addresses}
        # heap of (ready_ms, sample_time, push count, decision). A link that
        # duplicates a report can queue one sample twice on the same tick, so
        # two entries can tie on (ready_ms, sample_time); the count breaks the
        # tie, as in Channel.in_flight, and no two decisions are compared
        self._pending_triage: list[tuple[int, int, int, TriageDecision]] = []
        self._triage_pushes = itertools.count()
        self._last_triage_sample = self._last_debounced_sample = -1
        self._script_idx = 0
        self._link_idx = 0
        self._energy = 0.0
        self._battery_low = False
        self._last_alert_ms = -10 ** 9
        self._last_light: StatusLight | None = None
        # per latch key, the consecutive samples that disagree with its latch;
        # a key that agrees is absent
        self._against: dict = {}
        # the latched keys, and the leader-visible decision they make
        self._latched: frozenset = frozenset()
        self._decision = rule_decision(False, frozenset())
        self._patrol_check_due = False
        self._now = 0

    # -- event plumbing --------------------------------------------------

    def _emit(self, kind: str, *values):
        """Log the row of a `kind` record at the engine's clock, its values
        in the kind's field order, and fold it. The clock never runs back,
        so EventLog.append's check is not needed."""
        row = (self._now, kind) + values
        self._append(row)
        fold = _FOLDS.get(kind)
        if fold is not None:
            fold(self.acc, row)

    def _drain(self, entries: list, kind: str):
        """Log the payloads of a list of the leader's (time_ms, payload)
        pairs at the engine's clock, then clear the list."""
        values = PAYLOAD_VALUES[kind]
        for _, payload in entries:
            self._emit(kind, *values(payload))
        entries.clear()

    def _send(self, packet: Packet, extra_delay_ms: float = 0.0):
        self._emit("packet_send", *_send_values(self.channel.send(packet, extra_delay_ms)))

    def _emit_meta(self):
        """Log the run's `meta` record: what the scenario fixes for the
        metrics, with the alert kinds that have a budget."""
        cfg = self.config
        self._emit("meta", cfg.name, cfg.seed, cfg.dt_ms, cfg.duration_ms,
                   {k: v for k, v in vars(cfg.budgets_ms).items() if v is not None},
                   cfg.track.line_width)

    # -- tick phases -----------------------------------------------------

    def _apply_script(self) -> float:
        """Apply the script events and link changes due by now; return the
        time the next one falls due."""
        script = self.config.patient_script
        while self._script_idx < len(script) and script[self._script_idx].time_ms <= self._now:
            ev = script[self._script_idx]
            self._script_idx += 1
            if ev.spo2 is not None:
                self.patient.true_spo2 = ev.spo2
            if ev.bpm is not None:
                self.patient.true_bpm = ev.bpm
            if ev.temp is not None:
                self.patient.true_temp = ev.temp
            if ev.posture is not None:
                self.patient.posture = ev.posture
            if ev.wearing is not None:
                self.patient.wearing_sensor = ev.wearing
            self._emit("script", ev.kind, ev.spo2, ev.bpm, ev.temp,
                       None if ev.posture is None else ev.posture.value, ev.wearing)
        links = self.config.link_conditions
        while self._link_idx < len(links) and links[self._link_idx].time_ms <= self._now:
            lc = links[self._link_idx]
            self._link_idx += 1
            self.channel.set_condition(lc.src, lc.dst, lc.condition)
        return min((seq[i].time_ms for seq, i in ((script, self._script_idx),
                                                  (links, self._link_idx)) if i < len(seq)),
                   default=math.inf)

    def _sample_wearable(self):
        cfg = self.config
        sample = sample_vitals(self.patient, cfg.noise, self.streams["vitals_noise"], self._now)
        self._emit("vitals_sample", sample.spo2, sample.bpm, sample.temp, sample.valid)
        if not sample.valid:
            # a disconnected wearable is noticed locally, with no radio leg
            self._deliver_triage(sample.sample_time, classify(sample))
            return
        seq = self._now // cfg.vitals_sample_period_ms
        pkt = Packet(cfg.robots.wearable.address, self.leader.address, seq,
                     PacketKind.VITALS_REPORT, {"sample": sample}, self._now)
        self._send(pkt, extra_delay_ms=cfg.latency.vitals_transmit_ms)

    def _queue_triage(self, sample_time: int, decision: TriageDecision):
        delay = triage_delay_ms(decision.flags, self.config.latency)
        heapq.heappush(self._pending_triage,
                       (self._now + delay, sample_time, next(self._triage_pushes), decision))

    def _triage_ready(self):
        pending = self._pending_triage
        while pending and pending[0][0] <= self._now:
            _, sample_time, _, decision = heapq.heappop(pending)
            self._deliver_triage(sample_time, decision)

    def _deliver_triage(self, sample_time: int, decision):
        # decision paths have different delays; a slow stale result must not
        # overwrite the state derived from a fresher sample
        if sample_time <= self._last_triage_sample:
            return
        self._last_triage_sample = sample_time
        self._emit("triage", sample_time, list(decision.flag_names),
                   decision.triage_class._value_,  # as in Channel.send
                   list(decision.probs))
        self.leader.handle_triage(decision, self._now)
        self._drain(self.leader.transitions, "task")

    def _route_deliveries(self):
        for pkt in self.channel.deliveries_due(self._now):
            self._emit("packet_deliver", pkt.src, pkt.dst, pkt.kind._value_, pkt.seq)
            if pkt.kind is PacketKind.VITALS_REPORT and pkt.dst == self.leader.address:
                # a report no newer than the last one debounced, such as a
                # duplicate, must not count toward a latch again
                sample = pkt.payload["sample"]
                if sample.sample_time > self._last_debounced_sample:
                    self._last_debounced_sample = sample.sample_time
                    self._queue_triage(sample.sample_time, self._debounce(classify(sample)))
            else:
                self._inboxes[pkt.dst].append(pkt)

    def _debounce(self, sample: TriageDecision) -> TriageDecision:
        """Hysteresis over one classified sample: a key latches on after K
        consecutive raised samples and off after K consecutive clear ones,
        so single noise spikes or dips never flip the leader-visible
        decision. That decision changes only when the latch does."""
        if sample is self._decision:
            # rule decisions are one object per (flags, severe): this sample
            # raises exactly the latched keys, so every key agrees
            self._against.clear()
            return sample
        need = self.config.flag_confirm_samples
        against, latched = self._against, self._latched
        # a delivered report is valid and has no fall flag, so its class is
        # GoToHospital exactly when it is severe
        severe = sample.triage_class is TriageClass.GO_TO_HOSPITAL
        for key in _LATCH_KEYS:
            raised = severe if key is _SEVERE else key in sample.flags
            if raised == (key in latched):
                against.pop(key, None)
                continue
            n = against.get(key, 0) + 1
            if n < need:
                against[key] = n
            else:
                against.pop(key, None)
                latched ^= {key}
        if latched != self._latched:
            self._latched = latched
            self._decision = rule_decision(_SEVERE in latched, latched - {_SEVERE})
        return self._decision

    def _camera_checks(self):
        # One deliberate posture check per finished patrol task; while the
        # patient is actually down the camera also spots them periodically.
        cfg = self.config
        self._patrol_check_due = False
        outcome = detect_fall(self.patient.posture, cfg.fall_detector,
                              self.streams["fall_detector"])
        self._emit("fall_check", self.patient.posture.value, outcome.value)
        fall_seen = (outcome is FallOutcome.FALLEN_DETECTED
                     or (self.patient.posture is Posture.STANDING
                         and outcome is FallOutcome.MISCLASSIFIED))
        # re-send until a response starts, so one lost alert packet only
        # costs the repeat interval; the leader absorbs duplicates
        responding = self.corridor.active is not None and self.corridor.active.emergency
        if fall_seen and not responding and self._now - self._last_alert_ms >= 300:
            self._last_alert_ms = self._now
            pkt = Packet(self.corridor.address, self.leader.address, self._now,
                         PacketKind.ALERT, {"alert": "fall"}, self._now)
            self._send(pkt, extra_delay_ms=cfg.latency.fall_path_ms)

    def _drive(self, dt_s: float):
        cfg = self.config
        # with the IR array disabled the robot steers by its odometry estimate
        # alone, so slip accumulates in the true pose uncorrected
        sense_pose = self.motion.pose if cfg.ir_enabled else self.dr_raw.pose
        cmd, err = self.follower_ctl.step(cfg.track, sense_pose, dt_s)
        if self.follower_ctl.faulted:
            self.corridor.nav_fault = True
            self._emit("nav_fault", self.motion.pose.x, self.motion.pose.y)
            # operator re-places the robot on the line and it resumes
            q = cfg.track.query(self.motion.pose.x, self.motion.pose.y)
            self.motion.pose = Pose(q.point[0], q.point[1], q.heading)
            self.follower_ctl.reset()
            return
        factor = cfg.battery.low_speed_factor if self._battery_low else 1.0
        pose, delta = self.motion.step(cmd.omega_right * factor, cmd.omega_left * factor, dt_s)
        raw = self.dr_raw.update(delta)
        corr = self.dr_corrected.update(delta)
        if cfg.ir_enabled and cfg.correction.enabled and err is not None:
            corr = self._correct_estimate(corr)
            self.dr_corrected.pose = corr
        self._energy += (abs(cmd.omega_right) + abs(cmd.omega_left)) * factor * dt_s / 60.0
        if cfg.battery.budget_units > 0 and not self._battery_low \
                and self._energy > cfg.battery.budget_units:
            self._battery_low = True
            self._emit("battery_low", self._energy)
        q = cfg.track.query(pose.x, pose.y)
        self._emit("nav", pose.x, pose.y, pose.theta, q.distance, q.tag,
                   q.distance < cfg.track.line_width, drift_error(raw, pose),
                   drift_error(corr, pose), self._energy)

    def _correct_estimate(self, est: Pose) -> Pose:
        cfg = self.config
        q = cfg.track.query(est.x, est.y)
        gx = est.x + cfg.correction.position_gain * (q.point[0] - est.x)
        gy = est.y + cfg.correction.position_gain * (q.point[1] - est.y)
        dh = normalize_angle(q.heading - est.theta)
        if abs(dh) > math.pi / 2:
            # robot may legitimately face the other way along the segment
            dh = normalize_angle(dh + math.pi)
        gtheta = normalize_angle(est.theta + cfg.correction.heading_gain * dh)
        return Pose(gx, gy, gtheta)

    def _status_light(self):
        light = self.corridor.status_light()
        if light is not self._last_light:
            self._last_light = light
            self._emit("status_light", light.value)

    # -- main loop -------------------------------------------------------

    def run(self) -> tuple[EventLog, RunMetrics]:
        """Run the scenario to its end; return the log and its metrics.

        The tick loop runs with the cyclic garbage collector paused
        (`metrics.gc_paused`): its records are rows of plain values and
        lists, and a tick makes no cyclic garbage, so the collector's passes
        during a run would free nothing. The pause leaves the log in the
        collector's oldest generation."""
        cfg = self.config
        self._emit_meta()
        dt_ms, dt_s = cfg.dt_ms, cfg.dt_ms / 1000.0
        leader, corridor, inboxes = self.leader, self.corridor, self._inboxes
        triage, in_flight = self._pending_triage, self.channel.in_flight
        sample_ms, fall_ms = cfg.vitals_sample_period_ms, cfg.fall_detector.check_period_ms
        script_due, driving = 0, cfg.patrol_always
        try:
            with gc_paused():
                for tick in range(cfg.duration_ms // dt_ms):
                    self._now = now = tick * dt_ms
                    if now >= script_due:
                        script_due = self._apply_script()
                    if sample_ms > 0 and now % sample_ms == 0:
                        self._sample_wearable()
                    if triage and triage[0][0] <= now:
                        self._triage_ready()

                    inbox = inboxes[leader.address]
                    leader_out = leader.step(inbox, now)
                    if inbox:
                        inboxes[leader.address] = []
                    if leader.transitions:
                        self._drain(leader.transitions, "task")
                    for pkt in leader_out:
                        self._send(pkt)

                    if in_flight and in_flight[0][0] <= now:
                        self._route_deliveries()

                    light_due = tick == 0
                    for addr, follower in self._step_order:
                        inbox = inboxes[addr]
                        if not (inbox or follower.active is not None or follower.nav_fault):
                            continue
                        if inbox:
                            inboxes[addr] = []
                        for pkt in follower.step(inbox, now, dt_ms):
                            self._send(pkt)
                        if follower is corridor:
                            light_due = True
                            for done in corridor.finished:
                                if done.kind is TaskKind.PATROL_CHECK:
                                    self._patrol_check_due = True
                            driving = cfg.patrol_always or (
                                corridor.active is not None
                                and corridor.active.kind in _MOVING_KINDS)

                    if self._patrol_check_due or (self.patient.posture is Posture.FALLEN
                                                  and fall_ms > 0 and now % fall_ms == 0):
                        self._camera_checks()
                    if driving:
                        self._drive(dt_s)
                    if light_due:
                        self._status_light()
                    if leader.notifications:
                        self._drain(leader.notifications, "notification")
        except Exception as exc:
            # an invariant can fail, and the state can leave its range (a
            # wheel radius near the float maximum, in a config built past the
            # schema's bounds, overflows the pose, whose constructor refuses
            # a non-finite coordinate); whatever stops the loop, the log so
            # far is kept, with the transitions and staff alerts of the tick
            # that raised
            self._drain(leader.transitions, "task")
            self._drain(leader.notifications, "notification")
            raise EngineAbort(f"{type(exc).__name__}: {exc}", self.log) from exc
        return self.log, self.acc.result()


def run(config: ScenarioConfig) -> tuple[EventLog, RunMetrics]:
    return Engine(config).run()


def export_outputs(log: EventLog, metrics: RunMetrics, out_dir):
    """Write the per-run artifacts: event log, metric summaries, CSVs.

    One pass over the log, `_BATCH_LINES` records at a time, writes
    events.jsonl and, through a `RowSink`, channel.csv, tasks.csv,
    vitals.csv and notifications.log: each batch's `to_jsonl` makes its
    lines and rows before any of them is written, so a record that fails to
    encode raises with each of those files holding the whole batches before
    it, and no metrics written."""
    os.makedirs(out_dir, exist_ok=True)
    rows = RowSink()
    with contextlib.ExitStack() as stack:
        def create(name, newline=None):
            return stack.enter_context(open(os.path.join(out_dir, name), "w", newline=newline))

        events = create("events.jsonl")
        # the rows end in csv's own "\r\n", written as they are
        files = [create(name, newline="") for name in ("channel.csv", "tasks.csv", "vitals.csv")]
        files.append(create("notifications.log"))
        for f, header in zip(files, RowSink.HEADERS):
            f.write(header)
        for i in range(0, len(log.rows), _BATCH_LINES):
            events.write(log.to_jsonl(i, i + _BATCH_LINES, rows))
            for f, batch in zip(files, rows.batches):
                f.write("".join(batch))
                batch.clear()
    with open(os.path.join(out_dir, "metrics.txt"), "w") as f:
        f.write(metrics.as_text())
    metrics.save_csv(os.path.join(out_dir, "metrics.csv"))


@dataclass
class SuiteRow:
    scenario: str
    runs: int
    latencies_ms: dict[str, tuple[float, float]] = field(default_factory=dict)  # kind -> (mean, std)
    verdicts: dict[str, str] = field(default_factory=dict)
    tasks_completed: int = 0
    tasks_escalated: int = 0

    @property
    def success_rate(self) -> float | None:
        return success_rate(self.tasks_completed, self.tasks_escalated)


@dataclass
class SuiteResult:
    rows: list[SuiteRow]

    @property
    def overall_success_rate(self) -> float | None:
        return success_rate(sum(r.tasks_completed for r in self.rows),
                            sum(r.tasks_escalated for r in self.rows))

    def as_text(self) -> str:
        lines = []
        for row in self.rows:
            lines.append(f"scenario {row.scenario} ({row.runs} runs):")
            for kind in sorted(row.latencies_ms.keys() | row.verdicts.keys()):
                mean, std = row.latencies_ms.get(kind, (None, None))
                shown = "not raised" if mean is None else \
                    f"avg {mean / 1000:.2f} s, stddev {std / 1000:.2f} s"
                lines.append(f"  alert[{kind}]: {shown}, result {row.verdicts.get(kind, 'n/a')}")
            if row.success_rate is not None:
                lines.append(f"  task success: {row.success_rate:.2%} "
                             f"({row.tasks_completed} completed, {row.tasks_escalated} escalated)")
        if self.overall_success_rate is not None:
            lines.append(f"overall task success rate: {self.overall_success_rate:.2%}")
        return "\n".join(lines) + "\n"


def run_suite(configs: list[ScenarioConfig], trials: int = 5) -> SuiteResult:
    """Run each scenario `trials` times with derived seeds and aggregate. A
    trial that aborts raises `EngineAbort` naming its scenario and seed, with
    the trial's partial log."""
    import dataclasses
    rows = []
    for config in configs:
        per_kind: dict[str, list[float]] = {}
        verdict_counts: dict[str, list[str]] = {}
        completed = escalated = 0
        for trial in range(trials):
            trial_cfg = dataclasses.replace(config, seed=config.seed + trial)
            try:
                _, metrics = run(trial_cfg)
            except EngineAbort as exc:
                raise EngineAbort(f"scenario {config.name} seed {trial_cfg.seed}: {exc}",
                                  exc.log) from exc
            for kind, lat in metrics.alert_latency_ms.items():
                per_kind.setdefault(kind, []).append(lat)
            for kind, verdict in metrics.alert_verdicts.items():
                verdict_counts.setdefault(kind, []).append(verdict)
            completed += metrics.tasks_completed
            escalated += metrics.tasks_escalated
        row = SuiteRow(scenario=config.name, runs=trials)
        for kind, values in per_kind.items():
            mean = statistics.fmean(values)
            std = statistics.pstdev(values) if len(values) > 1 else 0.0
            row.latencies_ms[kind] = (mean, std)
        for kind, verdicts in verdict_counts.items():
            # majority verdict across trials; a tie is a fail
            row.verdicts[kind] = "pass" if 2 * verdicts.count("pass") > len(verdicts) else "fail"
        row.tasks_completed = completed
        row.tasks_escalated = escalated
        rows.append(row)
    return SuiteResult(rows)
