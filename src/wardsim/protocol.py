"""Leader-follower task delegation over the lossy channel.

The leader creates tasks from triage results and the medication schedule,
dispatches them to capable idle followers, matches acks by command sequence
number and status reports by task id, and on timeout retries, reassigns, or
escalates. Followers ack every command receipt, execute each task id at most
once, and re-send their last status when a retry crosses a completed execution.

Task lifecycle:

    CREATED -> SENT -> ACKED -> IN_PROGRESS -> COMPLETED
                 \\        \\          \\
                  +-> TIMED_OUT <-----+
                        |-> SENT        (retry, same assignee)
                        |-> REASSIGNED -> SENT
                        +-> ESCALATED
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from . import ConfigurationError, InvariantError, require
from .rf_channel import Packet, PacketKind
from .vitals import Flag, TriageClass, TriageDecision


class TaskKind(enum.Enum):
    PATROL_CHECK = "patrol_check"
    DELIVER_MEDICINE = "deliver_medicine"
    ARM_DISPENSE = "arm_dispense"

    # members are singletons and compare by identity, so the identity hash
    # is consistent with ==; Enum's own hashes the name in Python code, and
    # capability tests and state tables hash members every tick. Set order
    # then follows addresses, so nothing may be written out in the iteration
    # order of a set of members (as for vitals.Flag).
    __hash__ = object.__hash__


class TaskOrigin(enum.Enum):
    SCHEDULED = "scheduled"
    EMERGENCY_OVERRIDE = "emergency_override"
    LEADER_DECISION = "leader_decision"


class TaskState(enum.Enum):
    CREATED = "created"
    SENT = "sent"
    ACKED = "acked"
    IN_PROGRESS = "in_progress"
    COMPLETED = "completed"
    TIMED_OUT = "timed_out"
    REASSIGNED = "reassigned"
    ESCALATED = "escalated"

    __hash__ = object.__hash__  # as for TaskKind


_LEGAL = {
    TaskState.CREATED: {TaskState.SENT, TaskState.ESCALATED},
    TaskState.SENT: {TaskState.ACKED, TaskState.TIMED_OUT},
    TaskState.ACKED: {TaskState.IN_PROGRESS, TaskState.TIMED_OUT},
    TaskState.IN_PROGRESS: {TaskState.COMPLETED, TaskState.TIMED_OUT},
    TaskState.TIMED_OUT: {TaskState.SENT, TaskState.REASSIGNED, TaskState.ESCALATED},
    TaskState.REASSIGNED: {TaskState.SENT},
    TaskState.COMPLETED: set(),
    TaskState.ESCALATED: set(),
}

TERMINAL_STATES = (TaskState.COMPLETED, TaskState.ESCALATED)


class Availability(enum.Enum):
    IDLE = "idle"
    BUSY = "busy"
    FAULTED = "faulted"

    __hash__ = object.__hash__  # as for TaskKind


class StatusLight(enum.Enum):
    IDLE = "idle"
    PATROL = "patrol"
    DELIVERY = "delivery"
    EMERGENCY = "emergency"


@dataclass
class Task:
    task_id: int
    kind: TaskKind
    origin: TaskOrigin
    created_at: int
    assignee: int | None = None
    target: int | None = None       # bed id or dispenser slot
    emergency: bool = False
    depends_on: int | None = None   # task that must complete before dispatch
    state: TaskState = TaskState.CREATED
    retry_count: int = 0
    last_activity: int = 0
    tried_assignees: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.last_activity = self.created_at

    def transition(self, new_state: TaskState, now: int):
        if new_state not in _LEGAL[self.state]:
            raise InvariantError(f"illegal task transition {self.state} -> {new_state}")
        self.state = new_state
        self.last_activity = now

    def payload(self) -> dict:
        """The task's `task` record as the event log stores it."""
        return {"task_id": self.task_id, "kind": self.kind.value, "origin": self.origin.value,
                "assignee": self.assignee, "state": self.state.value,
                "emergency": self.emergency, "retry_count": self.retry_count}


@dataclass(frozen=True)
class TimeoutPolicy:
    timeout_ms: int = 200        # waiting for an ack
    exec_timeout_ms: int = 15000  # waiting for completion after an ack
    max_retries: int = 5

    def __post_init__(self):
        # a wait that is over at once escalates every task
        require((self.timeout_ms > 0, "timeout_ms must be positive"),
                (self.exec_timeout_ms > 0, "exec_timeout_ms must be positive"),
                (self.max_retries >= 0, "max_retries must be nonnegative"))


@dataclass(frozen=True)
class ScheduleEntry:
    time_ms: int = 0
    bed: int = 1
    slot: int = 0
    dose_note: str = ""


def _priority(task: Task) -> int:
    if task.emergency:
        return 0
    if task.origin is TaskOrigin.SCHEDULED:
        return 1
    return 2


class Leader:
    """Decision-making hub: owns the task table and the staff alerts.

    The leader appends what it reports to two plain lists of `(time_ms,
    payload)` pairs, which a caller logs and clears: `transitions`, one per
    new task and per transition, with `Task.payload()` taken at that moment
    (a timeout or a reassignment changes the task again in the same call),
    and `notifications`, one per staff alert (for the email and app
    integrations). The time is the call's `now`; for a dependency's
    escalation, it is the time the dependency escalated.

    `tasks` holds every task ever created, under ids 1, 2, ... `_open` holds
    the tasks not yet in a terminal state, in task-id order: a task enters it
    on creation and leaves it on reaching a terminal state, which it never
    leaves, so the per-step scans cost the open work, not the whole shift.
    The roster maps each follower's address to the follower; the leader
    reads its `capabilities` and, in a full pass, its current `availability`,
    and changes neither. The roster's members and their capabilities are
    fixed at construction (their availability is not), so the leader lists
    the members that can do each kind, in address order, once.

    The leader is event-driven: `step` does its full pass only on a non-empty
    inbox or once `now` reaches `_wake`, and otherwise returns `[]` at once,
    which is what the full pass would return. `_wake` is set:
    - to -inf by a new task or a task transition (`_new_task`, `_record`),
      from `handle_triage`, `handle_fall_alert` or the previous step, so the
      dependency cascade still runs one step after its escalation;
    - to -inf by a fresh task that found no follower while a capable one
      could still turn idle, or recover from a fault, with no packet to say
      so (see `_dispatch`);
    - in a full pass, to no later than the next schedule entry (`_fire_schedule`)
      and each open task's wait deadline, `last_activity + _wait_limits[state]`
      (`_check_timeouts`); a pass that changes nothing ends at the earliest.
    """

    def __init__(self, address: int, roster: Mapping[int, Follower],
                 schedule: Iterable[ScheduleEntry] = (),
                 policy: TimeoutPolicy = TimeoutPolicy()):
        self.address = address
        # (address, follower) of each kind's capable followers; a kind that
        # none can do is escalated at once
        by_address = sorted(roster.items())
        self._capable = {kind: tuple((a, f) for a, f in by_address if kind in f.capabilities)
                         for kind in TaskKind}
        self.schedule = sorted(schedule, key=lambda e: e.time_ms)
        self.policy = policy
        # how long a task may wait in each state for an ack or a completion
        self._wait_limits = {TaskState.SENT: policy.timeout_ms,
                             TaskState.ACKED: policy.exec_timeout_ms,
                             TaskState.IN_PROGRESS: policy.exec_timeout_ms}
        self.transitions: list[tuple[int, dict]] = []
        self.notifications: list[tuple[int, dict]] = []
        self.tasks: dict[int, Task] = {}
        self._open: dict[int, Task] = {}
        self._cmd_seq: dict[int, int] = {}
        self._seq_to_task: dict[tuple[int, int], int] = {}
        self._schedule_cursor = 0   # entries before it have fired
        self._pending_resend: list[int] = []  # retried or reassigned this step
        self._assigned: dict[int, int] = {}   # follower addr -> open task_id
        self._prev_flags: frozenset[Flag] = frozenset()
        self._wake = -math.inf  # the next step at or after it does the full pass

    # -- helpers ---------------------------------------------------------

    def _record(self, task: Task, new_state: TaskState, now: int):
        task.transition(new_state, now)
        self._wake = -math.inf
        if new_state in TERMINAL_STATES:
            del self._open[task.task_id]
        self.transitions.append((now, task.payload()))

    def _new_task(self, kind: TaskKind, origin: TaskOrigin, now: int, *,
                  target=None, emergency=False, depends_on=None) -> Task:
        task = Task(len(self.tasks) + 1, kind, origin, now, target=target,
                    emergency=emergency, depends_on=depends_on)
        self.tasks[task.task_id] = task
        self._open[task.task_id] = task
        self._wake = -math.inf
        self.transitions.append((now, task.payload()))
        return task

    def _notify(self, now: int, severity: str, text: str, cause: str):
        # every alert goes to the staff on duty; its cause (a flag or
        # "escalation") pairs it with an onset in the alert-latency metric
        self.notifications.append((now, {"severity": severity, "text": text, "cause": cause,
                                         "recipients": ["duty_staff"]}))

    def _capable_idle(self, kind: TaskKind) -> int | None:
        for addr, follower in self._capable[kind]:
            if follower.availability is Availability.IDLE and addr not in self._assigned:
                return addr
        return None

    def _emit_command(self, task: Task, addr: int, now: int, outbox: list):
        """Put one COMMAND for `task` to `addr` in the outbox under the next
        sequence number of that link, and hold `addr` for the task."""
        seq = self._cmd_seq.get(addr, 0) + 1
        self._cmd_seq[addr] = seq
        self._seq_to_task[(addr, seq)] = task.task_id
        self._assigned[addr] = task.task_id
        payload = {"task_id": task.task_id, "kind": task.kind.value,
                   "target": task.target, "emergency": task.emergency}
        outbox.append(Packet(self.address, addr, seq, PacketKind.COMMAND, payload, now))

    def _send_command(self, task: Task, addr: int, now: int, outbox: list):
        task.assignee = addr
        if addr not in task.tried_assignees:
            task.tried_assignees.append(addr)
        self._emit_command(task, addr, now, outbox)
        self._record(task, TaskState.SENT, now)

    def _release(self, addr: int | None, task_id: int):
        if addr is not None and self._assigned.get(addr) == task_id:
            del self._assigned[addr]

    # -- triage intake ---------------------------------------------------

    def handle_triage(self, decision: TriageDecision, now: int) -> None:
        """Consume one triage result: fire notifications on newly raised
        flags and create follow-up tasks for abnormal conditions."""
        new_flags = decision.flags - self._prev_flags
        self._prev_flags = decision.flags
        if not new_flags:
            return
        emergency = decision.triage_class is TriageClass.GO_TO_HOSPITAL
        for flag in sorted(new_flags, key=lambda f: f.value):
            severity = "emergency" if emergency or flag is Flag.FALL else "warning"
            self._notify(now, severity,
                         f"{flag.value} detected; class {decision.triage_class.value}",
                         cause=flag.value)
        # a fall gets its response through the camera alert path
        # (handle_fall_alert); every other new flag gets a patrol check
        if new_flags - {Flag.FALL}:
            self._new_task(TaskKind.PATROL_CHECK, TaskOrigin.LEADER_DECISION, now,
                           emergency=emergency)

    def handle_fall_alert(self, now: int) -> None:
        """Emergency path for a relayed camera fall detection. Repeated
        alerts for the same incident are absorbed while a response task is
        still outstanding."""
        if any(task.origin is TaskOrigin.EMERGENCY_OVERRIDE for task in self._open.values()):
            return
        self._notify(now, "emergency", "fall detected by corridor camera", cause=Flag.FALL.value)
        self._new_task(TaskKind.PATROL_CHECK, TaskOrigin.EMERGENCY_OVERRIDE, now,
                       emergency=True)

    # -- main step -------------------------------------------------------

    def step(self, inbox: list[Packet], now: int) -> list[Packet]:
        if not inbox and now < self._wake:
            return []
        self._wake = math.inf
        outbox: list[Packet] = []
        self._consume_inbox(inbox, now)
        self._fire_schedule(now)
        self._check_timeouts(now)
        self._dispatch(now, outbox)
        return outbox

    def _consume_inbox(self, inbox: list[Packet], now: int):
        for pkt in inbox:
            if pkt.dst != self.address:
                raise InvariantError("leader observed a packet addressed elsewhere")
            if pkt.kind is PacketKind.ACK:
                self._on_ack(pkt, now)
            elif pkt.kind is PacketKind.STATUS:
                self._on_status(pkt, now)
            elif pkt.kind is PacketKind.ALERT:
                if pkt.payload.get("alert") == "fall":
                    self.handle_fall_alert(now)
            # VITALS_REPORT packets are decoded by the engine's triage
            # pipeline before reaching leader.step; anything else is dropped.

    def _on_ack(self, pkt: Packet, now: int):
        # an ack of no command we sent, or of one the task has moved past, is stale
        task = self.tasks.get(self._seq_to_task.get((pkt.src, pkt.seq)))
        if task is not None and task.state is TaskState.SENT and task.assignee == pkt.src:
            self._record(task, TaskState.ACKED, now)
            self._record(task, TaskState.IN_PROGRESS, now)

    def _on_status(self, pkt: Packet, now: int):
        task = self.tasks.get(pkt.payload.get("task_id"))
        # unknown, settled (the first terminal report wins), or a stale executor's;
        # an open task here is CREATED (no assignee), SENT, ACKED or IN_PROGRESS
        if task is None or task.state in TERMINAL_STATES or pkt.src != task.assignee:
            return
        status = pkt.payload.get("status")
        if status == "completed":
            # catch up the chain when the ack was lost
            if task.state is TaskState.SENT:
                self._record(task, TaskState.ACKED, now)
            if task.state is TaskState.ACKED:
                self._record(task, TaskState.IN_PROGRESS, now)
            self._record(task, TaskState.COMPLETED, now)
            self._release(task.assignee, task.task_id)
        elif status == "rejected_busy":
            # transient: retry the same follower later
            self._time_out(task, now, task.retry_count + 1)
        elif status in ("rejected_unsupported", "failed"):
            # this follower cannot do it; skip straight to reassignment
            self._time_out(task, now, self.policy.max_retries)

    def _fire_schedule(self, now: int):
        # entries are sorted by time, so the fired ones are a prefix
        while self._schedule_cursor < len(self.schedule) \
                and self.schedule[self._schedule_cursor].time_ms <= now:
            entry = self.schedule[self._schedule_cursor]
            self._schedule_cursor += 1
            dispense = self._new_task(TaskKind.ARM_DISPENSE, TaskOrigin.SCHEDULED, now,
                                      target=entry.slot)
            self._new_task(TaskKind.DELIVER_MEDICINE, TaskOrigin.SCHEDULED, now,
                           target=entry.bed, depends_on=dispense.task_id)
        if self._schedule_cursor < len(self.schedule):
            self._wake = min(self._wake, self.schedule[self._schedule_cursor].time_ms)

    def _check_timeouts(self, now: int):
        limits = self._wait_limits
        for task in list(self._open.values()):
            deadline = task.last_activity + limits.get(task.state, math.inf)
            if now >= deadline:
                self._time_out(task, now, task.retry_count + 1)
            elif deadline < self._wake:
                self._wake = deadline

    def _time_out(self, task: Task, now: int, retry_count: int):
        """Record the timeout and free the follower; retry it while retries
        remain, else reassign it to an untried capable idle follower (held
        in `_assigned` or not), else escalate. Resends go out in `_dispatch`."""
        self._record(task, TaskState.TIMED_OUT, now)
        self._release(task.assignee, task.task_id)
        task.retry_count = retry_count
        if retry_count < self.policy.max_retries:
            self._record(task, TaskState.SENT, now)
            self._pending_resend.append(task.task_id)
            return
        for addr, follower in self._capable[task.kind]:
            if addr not in task.tried_assignees and follower.availability is Availability.IDLE:
                self._record(task, TaskState.REASSIGNED, now)
                task.retry_count = 0
                task.assignee = addr
                self._pending_resend.append(task.task_id)
                return
        self._escalate(task, now, "no follower could complete it")

    def _escalate(self, task: Task, now: int, reason: str):
        self._record(task, TaskState.ESCALATED, now)
        self._notify(now, "emergency",
                     f"task {task.task_id} ({task.kind.value}) escalated: {reason}",
                     cause="escalation")

    def _dispatch(self, now: int, outbox: list):
        # resends decided by timeout handling this step
        pending, self._pending_resend = self._pending_resend, []
        for task_id in pending:
            task = self.tasks[task_id]
            if task.state is TaskState.SENT:
                # transitioned back to SENT by retry: emit the actual packet
                self._emit_command(task, task.assignee, now, outbox)
            elif task.state is TaskState.REASSIGNED:
                self._send_command(task, task.assignee, now, outbox)
        created = []
        for task in list(self._open.values()):
            if task.state is not TaskState.CREATED:
                continue
            dep = self.tasks.get(task.depends_on)
            if dep is not None and dep.state is TaskState.ESCALATED:
                # the dispense never happened, so the delivery that waits on
                # it cannot either; stamped with the time the dependency escalated
                self._escalate(task, dep.last_activity, "dependency escalated")
            elif dep is None or dep.state is TaskState.COMPLETED:
                created.append(task)
        # fresh tasks, emergencies first then scheduled then routine
        for task in sorted(created, key=lambda t: (_priority(t), t.task_id)):
            capable = self._capable[task.kind]
            if not capable:
                # nobody on the roster can ever do this; waiting is pointless
                self._escalate(task, now, "no follower is capable")
                continue
            addr = self._capable_idle(task.kind)
            if addr is None and task.emergency:
                # preemption: hand the emergency to a busy capable follower;
                # the follower parks its current work
                for a, follower in capable:
                    if follower.availability is not Availability.FAULTED:
                        addr = a
                        break
                if addr is not None and addr in self._assigned:
                    del self._assigned[addr]
            if addr is not None:
                self._send_command(task, addr, now, outbox)
            elif any(task.emergency or a not in self._assigned for a, _ in capable):
                # a follower that no task holds (any, for an emergency, which
                # preempts) can turn idle, or recover from a fault, with no
                # packet to say so; any other is freed only by a transition
                self._wake = -math.inf


# how long a follower takes to carry out each kind of task, in ms
DEFAULT_EXEC_DURATIONS_MS = {
    TaskKind.PATROL_CHECK: 3000,
    TaskKind.DELIVER_MEDICINE: 6000,
    TaskKind.ARM_DISPENSE: 2000,
}


@dataclass
class _Execution:
    task_id: int
    kind: TaskKind
    remaining_ms: float
    emergency: bool


class Follower:
    """Corridor robot or arm endpoint: acks, executes, reports.

    A step with an empty inbox, no active execution and no nav fault changes
    only `finished`: a caller may skip an idle step and reads `finished` only
    after a step it made."""

    def __init__(self, address: int, leader_address: int,
                 capabilities: frozenset[TaskKind], exec_duration_ms: dict[TaskKind, int]):
        if missing := capabilities - exec_duration_ms.keys():
            raise ConfigurationError(f"no execution time for {sorted(k.value for k in missing)}")
        self.address = address
        self.leader_address = leader_address
        self.capabilities = capabilities
        self.exec_duration_ms = exec_duration_ms
        self.active: _Execution | None = None
        self.parked: list[_Execution] = []
        self.completed: set[int] = set()
        self.finished: list[_Execution] = []  # the executions the last step completed
        self.execution_count: dict[int, int] = {}  # starts per task id: exactly-once audit
        self.nav_fault = False
        self._out_seq = 0

    def _report(self, task_id, status: str, now: int, outbox: list, **detail):
        """Put one STATUS in the outbox under this follower's next sequence number."""
        self._out_seq += 1
        outbox.append(Packet(self.address, self.leader_address, self._out_seq, PacketKind.STATUS,
                             {"task_id": task_id, "status": status, **detail}, now))

    def _end(self, status: str, now: int, outbox: list, **detail):
        """End the active execution as completed or failed, report it, and
        resume parked work."""
        done, self.active = self.active, None
        if status == "completed":
            self.completed.add(done.task_id)
            self.finished.append(done)
        self._report(done.task_id, status, now, outbox, **detail)
        if self.parked:
            self.active = self.parked.pop()

    def status_light(self) -> StatusLight:
        if self.active is not None:
            if self.active.emergency:
                return StatusLight.EMERGENCY
            if self.active.kind is TaskKind.PATROL_CHECK:
                return StatusLight.PATROL
            return StatusLight.DELIVERY
        return StatusLight.IDLE

    @property
    def availability(self) -> Availability:
        if self.nav_fault:
            return Availability.FAULTED
        return Availability.BUSY if self.active else Availability.IDLE

    def step(self, inbox: list[Packet], now: int, elapsed_ms: float) -> list[Packet]:
        """Handle the inbox and advance the active execution by `elapsed_ms`,
        the length of the caller's tick."""
        outbox: list[Packet] = []
        self.finished = []
        if self.active is None:
            # a fault with no task under way fails nothing: the robot is
            # re-placed on the line and is available again
            self.nav_fault = False

        for pkt in inbox:
            if pkt.dst != self.address:
                raise InvariantError("follower observed a packet addressed elsewhere")
            if pkt.kind is PacketKind.COMMAND:
                self._on_command(pkt, now, outbox)

        if self.active is not None and elapsed_ms > 0:
            self.active.remaining_ms -= elapsed_ms
            if self.nav_fault:
                self.nav_fault = False  # fault is per-task; robot recovers after re-placement
                self._end("failed", now, outbox, detail="navigation fault: line lost")
            elif self.active.remaining_ms <= 0:
                self._end("completed", now, outbox)
        return outbox

    def _on_command(self, pkt: Packet, now: int, outbox: list):
        task_id = pkt.payload.get("task_id")
        try:
            kind = TaskKind(pkt.payload.get("kind"))
        except ValueError:
            return  # malformed; drop defensively
        emergency = bool(pkt.payload.get("emergency"))
        # every receipt is acked, echoing the command seq
        outbox.append(Packet(self.address, self.leader_address, pkt.seq,
                             PacketKind.ACK, {"task_id": task_id}, now))
        if task_id in self.completed:
            self._report(task_id, "completed", now, outbox)
            return
        if task_id in self.execution_count:
            return  # retry crossed the ack; execution already under way
        if kind not in self.capabilities:
            self._report(task_id, "rejected_unsupported", now, outbox)
            return
        if self.active is not None and not emergency:
            self._report(task_id, "rejected_busy", now, outbox)
            return
        if self.active is not None:
            self.parked.append(self.active)  # an emergency parks, never cancels
        self.execution_count[task_id] = self.execution_count.get(task_id, 0) + 1
        duration = self.exec_duration_ms[kind]
        self.active = _Execution(task_id, kind, float(max(duration, 0)), emergency)
        if duration <= 0:
            self._end("completed", now, outbox)  # a zero-duration execution ends at once
