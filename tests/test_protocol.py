"""Task state machine, timeout ladder, follower idempotence, the full
leader/follower exchange under packet loss, and the leader's skipped steps."""

import ast
import hashlib
import itertools
import math
import trace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _exchange import (ROSTERS, TRANSCRIPT_EXEC_MS, TRANSCRIPT_PDRS, RosterEntry,
                       liveness_bound_ms, protocol_transcript, run_lossy_exchange)
from _statements import statement_lines
from wardsim import ConfigurationError, InvariantError, protocol
from wardsim.protocol import (DEFAULT_EXEC_DURATIONS_MS, Availability, Follower, Leader,
                              ScheduleEntry, StatusLight, Task, TaskKind, TaskOrigin,
                              TaskState, TimeoutPolicy, TERMINAL_STATES)
from wardsim.rf_channel import Packet, PacketKind
from wardsim.vitals import Flag, TriageClass, TriageDecision

ALL = frozenset(TaskKind)


def make_task(**kw):
    kw.setdefault("task_id", 1)
    kw.setdefault("kind", TaskKind.PATROL_CHECK)
    kw.setdefault("origin", TaskOrigin.SCHEDULED)
    kw.setdefault("created_at", 0)
    return Task(**kw)


def decision(*flags, cls=TriageClass.MONITOR_AT_HOME):
    return TriageDecision(cls, frozenset(flags))


# ---------------------------------------------------------------------------
# state machine


def test_happy_path_transitions():
    t = make_task()
    assert t.last_activity == 0
    for now, s in enumerate((TaskState.SENT, TaskState.ACKED, TaskState.IN_PROGRESS,
                             TaskState.COMPLETED), start=100):
        t.transition(s, now)
        assert (t.state, t.last_activity) == (s, now)


def test_illegal_transitions_raise():
    t = make_task()
    with pytest.raises(InvariantError):
        t.transition(TaskState.COMPLETED, 0)   # cannot skip straight to done
    t.transition(TaskState.SENT, 0)
    t.transition(TaskState.ACKED, 0)
    t.transition(TaskState.IN_PROGRESS, 0)
    t.transition(TaskState.COMPLETED, 0)
    with pytest.raises(InvariantError):
        t.transition(TaskState.SENT, 0)        # terminal states are final


def test_timed_out_can_retry_reassign_or_escalate_only():
    t = make_task()
    t.transition(TaskState.SENT, 0)
    t.transition(TaskState.TIMED_OUT, 0)
    with pytest.raises(InvariantError):
        t.transition(TaskState.COMPLETED, 0)


# ---------------------------------------------------------------------------
# timeout policy


def transitions(leader):
    """The (time, state, assignee, retry count) of each of the leader's
    records of a new task or a transition."""
    return [(t, TaskState(p["state"]), p["assignee"], p["retry_count"])
            for t, p in leader.transitions]


def unacked_patrol(roster, policy, times):
    """Step a leader that never hears back over `times`, for one patrol
    task; returns the leader, its task, its `transitions` and the
    destinations sent to at each step."""
    leader = Leader(1, roster, policy=policy)
    leader.handle_triage(decision(Flag.LOW_SPO2), 0)
    sent = [(now, [p.dst for p in leader.step([], now)]) for now in times]
    (task,) = leader.tasks.values()
    return leader, task, transitions(leader), sent


def test_timeouts_retry_until_budget_spent_then_reassign_to_an_untried_follower():
    roster = {2: RosterEntry(ALL), 3: RosterEntry(ALL)}
    _, task, records, sent = unacked_patrol(roster, TimeoutPolicy(timeout_ms=100, max_retries=2),
                                            range(0, 500, 100))
    S = TaskState
    assert records == [
        (0, S.CREATED, None, 0), (0, S.SENT, 2, 0),
        (100, S.TIMED_OUT, 2, 0), (100, S.SENT, 2, 1),      # retry
        (200, S.TIMED_OUT, 2, 1), (200, S.REASSIGNED, 2, 2), (200, S.SENT, 3, 0),
        (300, S.TIMED_OUT, 3, 0), (300, S.SENT, 3, 1),
        # 2 is idle but was tried, so the spent budget escalates
        (400, S.TIMED_OUT, 3, 1), (400, S.ESCALATED, 3, 2)]
    assert sent == [(0, [2]), (100, [2]), (200, [3]), (300, [3]), (400, [])]
    assert task.tried_assignees == [2, 3]


def test_a_budget_of_no_retries_reassigns_at_the_first_timeout_and_escalates_at_the_second():
    roster = {2: RosterEntry(ALL), 3: RosterEntry(ALL)}
    _, task, records, sent = unacked_patrol(roster, TimeoutPolicy(timeout_ms=100, max_retries=0),
                                            range(0, 300, 100))
    S = TaskState
    assert records == [
        (0, S.CREATED, None, 0), (0, S.SENT, 2, 0),
        # the timeout spends the empty budget at once: no retry
        (100, S.TIMED_OUT, 2, 0), (100, S.REASSIGNED, 2, 1), (100, S.SENT, 3, 0),
        (200, S.TIMED_OUT, 3, 0), (200, S.ESCALATED, 3, 1)]
    assert sent == [(0, [2]), (100, [3]), (200, [])]
    assert task.tried_assignees == [2, 3]


def test_timeouts_skip_busy_and_incapable_followers_and_escalate_with_a_notification():
    roster = {2: RosterEntry(ALL),
              3: RosterEntry(ALL, availability=Availability.BUSY),
              4: RosterEntry(frozenset({TaskKind.ARM_DISPENSE}))}
    leader, task, records, sent = unacked_patrol(
        roster, TimeoutPolicy(timeout_ms=100, max_retries=1), (0, 100))
    assert sent == [(0, [2]), (100, [])]
    assert records[-2:] == [(100, TaskState.TIMED_OUT, 2, 0), (100, TaskState.ESCALATED, 2, 1)]
    assert task.tried_assignees == [2]
    t, last = leader.notifications[-1]
    assert (t, last["severity"], last["cause"], last["text"]) == (
        100, "emergency", "escalation",
        "task 1 (patrol_check) escalated: no follower could complete it")


def test_liveness_bound_scales_with_roster():
    p = TimeoutPolicy(timeout_ms=200, max_retries=5)
    assert liveness_bound_ms(p, 1) == 200 * 6 + 200
    assert liveness_bound_ms(p, 2) == 200 * 6 * 2 + 200


# ---------------------------------------------------------------------------
# leader intake


def test_triage_rising_edge_creates_one_task_and_notification():
    leader = Leader(1, {2: RosterEntry(ALL)})
    leader.handle_triage(decision(Flag.LOW_SPO2), 1000)
    leader.handle_triage(decision(Flag.LOW_SPO2), 1100)   # still raised: no-op
    assert len(leader.tasks) == 1
    assert len(leader.notifications) == 1
    assert leader.notifications[0][1]["cause"] == "low_spo2"
    # flag clears then re-raises: a fresh incident
    leader.handle_triage(decision(), 1200)
    leader.handle_triage(decision(Flag.LOW_SPO2), 1300)
    assert len(leader.tasks) == 2


def test_severe_triage_marks_task_emergency():
    leader = Leader(1, {2: RosterEntry(ALL)})
    leader.handle_triage(decision(Flag.LOW_SPO2, cls=TriageClass.GO_TO_HOSPITAL), 0)
    (task,) = leader.tasks.values()
    assert task.emergency
    assert leader.notifications[0][1]["severity"] == "emergency"


def test_fall_alerts_deduplicate_while_response_is_open():
    leader = Leader(1, {2: RosterEntry(ALL)})
    leader.handle_fall_alert(5000)
    leader.handle_fall_alert(5300)
    leader.handle_fall_alert(5600)
    assert len(leader.tasks) == 1
    assert len(leader.notifications) == 1
    (task,) = leader.tasks.values()
    assert task.origin is TaskOrigin.EMERGENCY_OVERRIDE and task.emergency


def test_schedule_entry_spawns_dispense_then_delivery():
    sched = [ScheduleEntry(time_ms=500, bed=4, slot=1)]
    leader = Leader(1, {2: RosterEntry(ALL)}, schedule=sched)
    leader.step([], 100)
    assert not leader.tasks
    out = leader.step([], 500)
    kinds = {t.kind for t in leader.tasks.values()}
    assert kinds == {TaskKind.ARM_DISPENSE, TaskKind.DELIVER_MEDICINE}
    deliver = next(t for t in leader.tasks.values()
                   if t.kind is TaskKind.DELIVER_MEDICINE)
    assert deliver.depends_on is not None
    # only the dispense goes out; the delivery waits for its dependency
    assert len(out) == 1
    assert out[0].payload["kind"] == "arm_dispense"


def test_a_scheduled_task_goes_before_a_leader_decision_waiting_for_the_same_follower():
    # a flag makes a patrol check (task 1) while the corridor (2) is busy;
    # then a medication round fires, and the arm (3) completes its dispense,
    # so the scheduled delivery (task 3) waits for the corridor as well
    corridor = RosterEntry(frozenset({TaskKind.PATROL_CHECK, TaskKind.DELIVER_MEDICINE}),
                           availability=Availability.BUSY)
    arm = RosterEntry(frozenset({TaskKind.ARM_DISPENSE}))
    leader = Leader(1, {2: corridor, 3: arm}, schedule=[ScheduleEntry(time_ms=10, bed=4, slot=1)])
    leader.handle_triage(decision(Flag.LOW_SPO2), 0)
    assert leader.step([], 0) == []
    (dispense,) = leader.step([], 10)
    assert (dispense.dst, dispense.payload["task_id"]) == (3, 2)
    done = Packet(3, 1, 1, PacketKind.STATUS, {"task_id": 2, "status": "completed"}, 20)
    assert leader.step([done], 20) == []
    patrol, delivery = leader.tasks[1], leader.tasks[3]
    assert (patrol.origin, delivery.origin) == (TaskOrigin.LEADER_DECISION, TaskOrigin.SCHEDULED)
    assert patrol.state is delivery.state is TaskState.CREATED
    corridor.availability = Availability.IDLE
    (command,) = leader.step([], 30)
    assert (command.dst, command.payload["task_id"], command.payload["kind"]) == \
        (2, 3, "deliver_medicine")


def test_schedule_entries_fire_once():
    sched = [ScheduleEntry(time_ms=0, bed=4, slot=1)]
    leader = Leader(1, {2: RosterEntry(ALL)}, schedule=sched)
    leader.step([], 0)
    leader.step([], 100)
    assert len(leader.tasks) == 2


def test_schedule_entries_between_ticks_fire_once_on_the_next_tick():
    sched = [ScheduleEntry(time_ms=25, bed=5, slot=2), ScheduleEntry(time_ms=15, bed=4, slot=1)]
    leader = Leader(1, {2: RosterEntry(ALL)}, schedule=sched)
    counts = []
    for now in range(0, 60, 10):
        leader.step([], now)
        counts.append(len(leader.tasks))
    assert counts == [0, 0, 2, 4, 4, 4]
    assert [t.target for t in leader.tasks.values()] == [1, 4, 2, 5]


# ---------------------------------------------------------------------------
# follower behavior


def cmd(seq, task_id, kind=TaskKind.PATROL_CHECK, emergency=False, t=0, dst=2):
    return Packet(1, dst, seq, PacketKind.COMMAND,
                  {"task_id": task_id, "kind": kind.value, "target": None,
                   "emergency": emergency}, t)


def test_follower_acks_every_receipt_and_executes_once():
    fol = Follower(2, 1, ALL, exec_duration_ms={k: 100 for k in TaskKind})
    out1 = fol.step([cmd(1, 7)], 0, 0)
    out2 = fol.step([cmd(2, 7)], 10, 10)   # duplicate command after a lost ack
    assert [p.kind for p in out1] == [PacketKind.ACK]
    assert [p.kind for p in out2] == [PacketKind.ACK]
    out3 = fol.step([], 200, 190)
    assert [p.kind for p in out3] == [PacketKind.STATUS]
    assert out3[0].payload["status"] == "completed"
    assert fol.execution_count[7] == 1


def test_follower_resends_status_for_completed_task():
    fol = Follower(2, 1, ALL, exec_duration_ms={k: 0 for k in TaskKind})
    fol.step([cmd(1, 7)], 0, 0)
    out = fol.step([cmd(2, 7)], 50, 50)   # retry after the status was dropped
    statuses = [p for p in out if p.kind is PacketKind.STATUS]
    assert len(statuses) == 1
    assert statuses[0].payload == {"task_id": 7, "status": "completed"}
    assert fol.execution_count[7] == 1


def test_follower_rejects_unsupported_kind():
    fol = Follower(2, 1, frozenset({TaskKind.PATROL_CHECK}), DEFAULT_EXEC_DURATIONS_MS)
    out = fol.step([cmd(1, 7, kind=TaskKind.ARM_DISPENSE)], 0, 0)
    statuses = [p for p in out if p.kind is PacketKind.STATUS]
    assert statuses[0].payload["status"] == "rejected_unsupported"


def test_follower_rejects_second_routine_task_while_busy():
    fol = Follower(2, 1, ALL, exec_duration_ms={k: 1000 for k in TaskKind})
    fol.step([cmd(1, 7)], 0, 0)
    out = fol.step([cmd(2, 8)], 10, 10)
    statuses = [p for p in out if p.kind is PacketKind.STATUS]
    assert statuses[0].payload["status"] == "rejected_busy"
    assert 8 not in fol.execution_count


def test_emergency_preempts_and_parks_without_cancelling():
    fol = Follower(2, 1, ALL, exec_duration_ms={k: 1000 for k in TaskKind})
    fol.step([cmd(1, 7)], 0, 0)
    fol.step([cmd(2, 9, emergency=True)], 10, 10)
    assert fol.active.task_id == 9
    assert [e.task_id for e in fol.parked] == [7]
    assert fol.status_light() is StatusLight.EMERGENCY
    out = fol.step([], 1100, 1090)   # emergency finishes; parked work resumes
    assert out[0].payload == {"task_id": 9, "status": "completed"}
    assert fol.active.task_id == 7


def test_nav_fault_reports_failure_and_clears():
    fol = Follower(2, 1, ALL, exec_duration_ms={k: 1000 for k in TaskKind})
    fol.step([cmd(1, 7)], 0, 0)
    fol.nav_fault = True
    out = fol.step([], 100, 100)
    assert out[0].payload["status"] == "failed"
    assert fol.active is None and not fol.nav_fault
    assert fol.availability is Availability.IDLE


def test_a_failed_emergency_resumes_the_work_it_parked():
    fol = Follower(2, 1, ALL, exec_duration_ms={k: 1000 for k in TaskKind})
    fol.step([cmd(1, 7)], 0, 0)
    fol.step([cmd(2, 9, emergency=True)], 10, 10)   # parks patrol 7, 1000 ms to go
    fol.nav_fault = True
    out = fol.step([], 20, 10)
    assert [p.payload for p in out] == [
        {"task_id": 9, "status": "failed", "detail": "navigation fault: line lost"}]
    assert (fol.active.task_id, fol.parked) == (7, [])
    assert fol.status_light() is StatusLight.PATROL
    assert fol.step([], 1019, 999) == []
    out = fol.step([], 1020, 1)
    assert [p.payload for p in out] == [{"task_id": 7, "status": "completed"}]
    assert [e.task_id for e in fol.finished] == [7] and fol.completed == {7}
    assert fol.availability is Availability.IDLE


def test_a_follower_refuses_a_table_without_its_capabilities():
    with pytest.raises(ConfigurationError, match=r"no execution time for \['arm_dispense'\]"):
        Follower(2, 1, ALL, {TaskKind.PATROL_CHECK: 0, TaskKind.DELIVER_MEDICINE: 0})
    # an empty table is refused too, rather than read as the defaults
    with pytest.raises(ConfigurationError):
        Follower(2, 1, ALL, {})
    Follower(2, 1, frozenset({TaskKind.PATROL_CHECK}), {TaskKind.PATROL_CHECK: 0})


def test_nav_fault_while_idle_clears_on_the_next_step():
    # the corridor can lose the line while it patrols with no task; nothing
    # fails, and the robot is available again once re-placed
    fol = Follower(2, 1, ALL, DEFAULT_EXEC_DURATIONS_MS)
    fol.nav_fault = True
    assert fol.availability is Availability.FAULTED
    assert fol.step([], 0, 0) == []
    assert fol.availability is Availability.IDLE
    # and a command then starts at once
    assert [p.kind for p in fol.step([cmd(1, 7)], 10, 10)] == [PacketKind.ACK]
    assert fol.active is not None and fol.execution_count == {7: 1}


def test_status_light_mapping():
    fol = Follower(2, 1, ALL, exec_duration_ms={k: 1000 for k in TaskKind})
    assert fol.status_light() is StatusLight.IDLE
    fol.step([cmd(1, 7, kind=TaskKind.PATROL_CHECK)], 0, 0)
    assert fol.status_light() is StatusLight.PATROL
    fol2 = Follower(3, 1, ALL, exec_duration_ms={k: 1000 for k in TaskKind})
    fol2.step([cmd(1, 8, kind=TaskKind.DELIVER_MEDICINE, dst=3)], 0, 0)
    assert fol2.status_light() is StatusLight.DELIVERY


def test_misaddressed_packet_raises():
    fol = Follower(2, 1, ALL, DEFAULT_EXEC_DURATIONS_MS)
    with pytest.raises(InvariantError):
        fol.step([Packet(1, 3, 1, PacketKind.COMMAND, {}, 0)], 0, 0)


# ---------------------------------------------------------------------------
# leader status handling


def make_pair(exec_ms=0):
    fol = Follower(2, 1, ALL, exec_duration_ms={k: exec_ms for k in TaskKind})
    leader = Leader(1, {2: fol}, policy=TimeoutPolicy(200, 200, 2))
    return leader, fol


def lossless_loop(leader, fol, steps=200, dt=10):
    inbox_l, inbox_f = [], []
    for i in range(steps):
        now = i * dt
        out_l = leader.step(inbox_l, now)
        inbox_l = []
        inbox_f.extend(p for p in out_l)
        out_f = fol.step(inbox_f, now, dt if i else 0)
        inbox_f = []
        inbox_l.extend(out_f)
        if leader.tasks and all(t.state in TERMINAL_STATES
                                for t in leader.tasks.values()):
            return True
    return False


def test_lossless_round_trip_completes_task():
    leader, fol = make_pair()
    leader.handle_triage(decision(Flag.LOW_SPO2), 0)
    assert lossless_loop(leader, fol)
    (task,) = leader.tasks.values()
    assert task.state is TaskState.COMPLETED
    assert fol.execution_count[task.task_id] == 1


def test_a_roster_of_followers_is_read_at_each_step_with_no_copy():
    followers = {a: Follower(a, 1, ALL, exec_duration_ms=dict.fromkeys(TaskKind, 1000))
                 for a in (2, 3, 4)}
    leader = Leader(1, followers)
    # 2 is busy with a command the leader never sent, 3 has lost the line
    followers[2].step([cmd(1, 70)], 0, 0)
    followers[3].nav_fault = True
    leader.handle_triage(decision(Flag.LOW_SPO2), 0)
    (command,) = leader.step([], 0)
    assert command.dst == 4

    # a fault set after the followers have stepped shows at the leader's next
    # step; an idle robot is re-placed on the line by its own next step
    followers[4].step([command], 0, 0)
    followers[3].step([], 0, 0)
    followers[3].nav_fault = True
    leader.handle_triage(decision(Flag.LOW_SPO2, Flag.FEVER), 10)
    assert leader.step([], 10) == []
    followers[3].step([], 10, 10)
    assert [p.dst for p in leader.step([], 20)] == [3]


def test_completed_status_catches_up_lost_ack_chain():
    leader = Leader(1, {2: RosterEntry(ALL)})
    leader.handle_triage(decision(Flag.LOW_SPO2), 0)
    out = leader.step([], 0)
    (task,) = leader.tasks.values()
    assert task.state is TaskState.SENT
    # the ack never arrives; the completion status alone must finish the task
    status = Packet(2, 1, 1, PacketKind.STATUS,
                    {"task_id": task.task_id, "status": "completed"}, 50)
    leader.step([status], 50)
    assert task.state is TaskState.COMPLETED


def test_rejected_unsupported_forces_reassignment():
    roster = {2: RosterEntry(ALL), 3: RosterEntry(ALL)}
    leader = Leader(1, roster)
    leader.handle_triage(decision(Flag.LOW_SPO2), 0)
    leader.step([], 0)
    (task,) = leader.tasks.values()
    assert task.assignee == 2
    status = Packet(2, 1, 1, PacketKind.STATUS,
                    {"task_id": task.task_id, "status": "rejected_unsupported"}, 10)
    out = leader.step([status], 10)
    assert task.assignee == 3
    assert out and out[0].dst == 3


def test_a_failed_status_spends_the_whole_retry_budget():
    # A `failed` status means the follower lost the line mid-task and had to
    # be re-placed. It is handled like `rejected_unsupported`, not like a busy
    # rejection: retrying the robot that just failed would hold the task for
    # up to max_retries ack timeouts, and for an emergency patrol that delays
    # the staff alert. So the task moves at once to an untried idle capable
    # follower, or is escalated to the staff on duty.
    roster = {2: RosterEntry(ALL), 3: RosterEntry(ALL),
              4: RosterEntry(ALL, availability=Availability.BUSY)}
    leader = Leader(1, roster, policy=TimeoutPolicy(timeout_ms=100, max_retries=5))
    leader.handle_triage(decision(Flag.LOW_SPO2), 0)
    assert [p.dst for p in leader.step([], 0)] == [2]

    def failed(src, now):
        return Packet(src, 1, 1, PacketKind.STATUS, {"task_id": 1, "status": "failed"}, now)

    # 2 is idle again and has retries left, yet the task goes to untried 3
    S = TaskState
    assert [p.dst for p in leader.step([failed(2, 10)], 10)] == [3]
    assert transitions(leader)[2:] == [
        (10, S.TIMED_OUT, 2, 0), (10, S.REASSIGNED, 2, 5), (10, S.SENT, 3, 0)]
    # 2 was tried and 4 is busy, so a failure on 3 escalates in the same step
    assert leader.step([failed(3, 20)], 20) == []
    assert transitions(leader)[5:] == [(20, S.TIMED_OUT, 3, 0), (20, S.ESCALATED, 3, 5)]
    assert leader.notifications[-1][1]["text"] == \
        "task 1 (patrol_check) escalated: no follower could complete it"


def test_escalation_notifies_staff():
    roster = {2: RosterEntry(frozenset({TaskKind.ARM_DISPENSE}))}
    leader = Leader(1, roster, policy=TimeoutPolicy(100, 100, 1))
    leader.handle_triage(decision(Flag.LOW_SPO2), 0)   # needs PATROL_CHECK
    for i in range(40):
        leader.step([], i * 50)
    (task,) = leader.tasks.values()
    assert task.state is TaskState.ESCALATED
    assert any(p["cause"] == "escalation" and p["severity"] == "emergency"
               for _, p in leader.notifications)


def test_dependency_escalation_cascades_to_delivery():
    sched = [ScheduleEntry(time_ms=0, bed=4, slot=1)]
    # nobody can dispense, so the delivery must never be attempted
    roster = {2: RosterEntry(frozenset({TaskKind.DELIVER_MEDICINE}))}
    leader = Leader(1, roster, sched, TimeoutPolicy(100, 100, 1))
    for i in range(60):
        leader.step([], i * 50)
    states = {t.kind: t.state for t in leader.tasks.values()}
    assert states[TaskKind.ARM_DISPENSE] is TaskState.ESCALATED
    assert states[TaskKind.DELIVER_MEDICINE] is TaskState.ESCALATED
    # the dispense escalates at 0 and the next step (50) cascades it, with
    # the time the dependency escalated
    assert [(t, p["text"].split(":")[-1].strip()) for t, p in leader.notifications] == [
        (0, "no follower is capable"), (0, "dependency escalated")]


# ---------------------------------------------------------------------------
# lossy exchange


@pytest.mark.parametrize("pdr", [1.0, 0.9, 0.7, 0.5])
def test_exchange_settles_and_executes_exactly_once(pdr):
    for seed in range(25):
        leader, followers, settled = run_lossy_exchange(seed, pdr)
        assert settled, f"pdr={pdr} seed={seed} never settled"
        for fol in followers.values():
            assert all(n == 1 for n in fol.execution_count.values())
        for task in leader.tasks.values():
            assert task.state in TERMINAL_STATES


@pytest.mark.parametrize("pdr", [1.0, 0.7, 0.5, 0.3])
def test_open_index_holds_the_non_terminal_tasks_after_every_step(monkeypatch, pdr):
    step = Leader.step
    checked = []

    def checked_step(leader, inbox, now):
        out = step(leader, inbox, now)
        open_ids = [i for i, t in leader.tasks.items() if t.state not in TERMINAL_STATES]
        assert list(leader._open) == sorted(open_ids), f"pdr={pdr} now={now}"
        checked.append(now)
        return out

    monkeypatch.setattr(Leader, "step", checked_step)
    for seed in range(8):
        run_lossy_exchange(seed, pdr, n_entries=3)
    assert checked


def test_exchange_is_lossless_baseline_all_completed():
    leader, followers, settled = run_lossy_exchange(0, 1.0, n_entries=2)
    assert settled
    assert all(t.state is TaskState.COMPLETED for t in leader.tasks.values())
    total = sum(len(f.completed) for f in followers.values())
    assert total == len(leader.tasks)


# ---------------------------------------------------------------------------
# protocol transcript digest
#
# Every exchange of `_exchange.protocol_transcript` over the rosters,
# execution times, delivery ratios and seeds below, written down and hashed.
# The digest changes only with a change that alters the protocol's
# behaviour on purpose, and that change says why. To regenerate it:
#
#     PYTHONPATH=src:tests python -c "import test_protocol as t; \
# print(t.transcript_digest())" > tests/golden/protocol/exchange.sha256

TRANSCRIPT_DIGEST = Path(__file__).parent / "golden" / "protocol" / "exchange.sha256"
TRANSCRIPT_SEEDS = range(12)


def transcript_digest() -> str:
    digest = hashlib.sha256()
    for roster, exec_name, pdr, seed in itertools.product(
            ROSTERS, TRANSCRIPT_EXEC_MS, TRANSCRIPT_PDRS, TRANSCRIPT_SEEDS):
        digest.update(f"== {roster} {exec_name} {pdr} {seed}\n".encode())
        for line in protocol_transcript(seed, pdr, roster, exec_name):
            digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_protocol_exchanges_match_golden_digest():
    assert transcript_digest() == TRANSCRIPT_DIGEST.read_text().strip()


def is_check_raise(node) -> bool:
    """A raise that no exchange should run: an InvariantError, or the
    ConfigurationError of a Follower built without an execution time for
    one of its capabilities."""
    return any(error in ast.unparse(node) for error in ("InvariantError", "ConfigurationError"))


def test_the_transcript_exchanges_run_every_statement_of_leader_and_follower():
    # every roster and execution-time set at PDR 0.7 for two of the seeds;
    # between them they meet a busy rejection and a stale executor's status.
    # The leader reads availability only in a full pass, and none of those
    # finds a faulted follower, so one more exchange, in which a full pass
    # does, runs Follower.availability's FAULTED return
    tracer = trace.Trace(count=1, trace=0)
    exchanges = [(seed, 0.7, roster, exec_name) for roster, exec_name, seed
                 in itertools.product(ROSTERS, TRANSCRIPT_EXEC_MS, (4, 10))]
    for args in exchanges + [(4, 1.0, "all_capable", "mixed")]:
        tracer.runfunc(protocol_transcript, *args)
    ran = {line for path, line in tracer.results().counts if path == protocol.__file__}
    source = Path(protocol.__file__).read_text().splitlines()
    missed = [f"{n}: {source[n - 1].strip()}"
              for n in sorted(statement_lines(protocol, ("Leader", "Follower"), is_check_raise)
                              - ran)]
    assert not missed


# ---------------------------------------------------------------------------
# event-driven leader: a step that nothing has woken returns [] at once


def full_passes(leader):
    """The times of the leader's full passes from now on."""
    passes = []
    dispatch = leader._dispatch
    leader._dispatch = lambda now, outbox: (passes.append(now), dispatch(now, outbox))
    return passes


def test_a_roster_member_turning_idle_wakes_the_leader_on_that_tick():
    entry = RosterEntry(ALL, availability=Availability.BUSY)
    leader = Leader(1, {2: entry})
    passes = full_passes(leader)
    leader.handle_triage(decision(Flag.LOW_SPO2), 0)
    assert leader.step([], 0) == [] and leader.step([], 10) == []
    entry.availability = Availability.IDLE
    (command,) = leader.step([], 20)
    assert (command.dst, command.sent_at) == (2, 20)
    # no task holds 2, so it may turn idle with no packet to say so, and the
    # leader looks at every step while the task waits
    assert passes == [0, 10, 20]


def test_a_sent_task_times_out_exactly_at_its_deadline():
    leader = Leader(1, {2: RosterEntry(ALL)}, policy=TimeoutPolicy(timeout_ms=95))
    passes = full_passes(leader)
    leader.handle_triage(decision(Flag.LOW_SPO2), 0)
    sent = {now: [p.dst for p in leader.step([], now)] for now in range(0, 200, 5)}
    (task,) = leader.tasks.values()
    assert {now: dst for now, dst in sent.items() if dst} == {0: [2], 95: [2], 190: [2]}
    assert task.retry_count == 2
    # each send wakes the next step, which finds nothing to do
    assert passes == [0, 5, 95, 100, 190, 195]


def test_a_triage_task_created_between_steps_is_dispatched_on_the_next_step():
    leader = Leader(1, {2: RosterEntry(ALL)})
    passes = full_passes(leader)
    assert [leader.step([], now) for now in range(0, 40, 10)] == [[]] * 4
    leader.handle_triage(decision(Flag.LOW_SPO2), 35)
    (command,) = leader.step([], 40)
    assert (command.dst, command.payload["task_id"]) == (2, 1)
    assert passes == [0, 40]


def test_an_idle_nav_fault_that_clears_wakes_the_leader():
    fol = Follower(2, 1, ALL, DEFAULT_EXEC_DURATIONS_MS)
    fol.nav_fault = True
    leader = Leader(1, {2: fol})
    passes = full_passes(leader)
    leader.handle_triage(decision(Flag.LOW_SPO2), 0)
    assert leader.step([], 0) == [] and leader.step([], 10) == []
    fol.step([], 10, 0)   # re-placed on the line: FAULTED -> IDLE
    assert [p.dst for p in leader.step([], 20)] == [2]
    assert passes == [0, 10, 20]   # as above: no task holds 2


def test_an_emergency_waits_on_a_faulted_held_follower_until_it_turns_busy():
    # 2, the only follower, holds a routine task and has lost the line. An
    # emergency preempts a held follower but not a faulted one, so it waits;
    # no transition will say when 2 is back, and the leader looks at every step
    entry = RosterEntry(ALL)
    leader = Leader(1, {2: entry})
    passes = full_passes(leader)
    leader.handle_triage(decision(Flag.LOW_SPO2), 0)
    (routine,) = leader.step([], 0)
    entry.availability = Availability.FAULTED
    leader.handle_fall_alert(10)
    assert leader.step([], 10) == [] and leader.step([], 20) == []
    entry.availability = Availability.BUSY   # re-placed, still on the routine task
    (command,) = leader.step([], 30)
    assert (routine.dst, command.dst, command.sent_at) == (2, 2, 30)
    assert (command.payload["task_id"], command.payload["emergency"]) == (2, True)
    assert passes == [0, 10, 20, 30]


def test_a_task_waiting_on_a_held_follower_sleeps_until_the_hold_times_out():
    # 2 finished task 1, but its completion status was lost, so the leader
    # holds 2 for task 1 until the execution timeout; only a transition can
    # free a held follower, so task 2 waits with no full pass until then
    fol = Follower(2, 1, ALL, exec_duration_ms=dict.fromkeys(TaskKind, 0))
    leader = Leader(1, {2: fol}, policy=TimeoutPolicy(timeout_ms=100, exec_timeout_ms=300))
    passes = full_passes(leader)
    leader.handle_triage(decision(Flag.LOW_SPO2), 0)
    ack, _lost_status = fol.step(leader.step([], 0), 0, 0)
    assert leader.step([ack], 10) == []
    leader.handle_triage(decision(Flag.LOW_SPO2, Flag.FEVER), 20)
    assert [leader.step([], now) for now in range(20, 310, 10)] == [[]] * 29
    (retry,) = leader.step([], 310)   # task 1's execution timeout
    assert (retry.dst, retry.payload["task_id"]) == (2, 1)
    # the retry crosses the completed execution, so 2 re-sends its status
    (command,) = leader.step(fol.step([retry], 310, 310), 320)
    assert (command.dst, command.payload["task_id"]) == (2, 2)
    assert [t.state for t in leader.tasks.values()] == [TaskState.COMPLETED, TaskState.SENT]
    assert passes == [0, 10, 20, 310, 320]


class EveryStepLeader(Leader):
    """Does its full pass at every step, as the leader did before it skipped
    the steps that nothing woke."""

    def step(self, inbox, now):
        self._wake = -math.inf
        return super().step(inbox, now)


# Tier-1 runs hypothesis' default budget; CI runs the `protocol-fuzz` profile.
# Execution times past the 1000 ms execution timeout leave a follower busy
# after the leader has released it, so it turns idle with no packet to say so.
# A tick that is not 10 ms moves the inputs off the schedule and deadline
# times, and skips those of the transcript's inputs that fall between ticks.
# The emergency after the fault is the only input that leaves an emergency
# waiting on a faulted follower the leader holds.
@settings(deadline=None)
@given(roster=st.sampled_from(sorted(ROSTERS)),
       exec_name=st.sampled_from(sorted(TRANSCRIPT_EXEC_MS))
       | st.fixed_dictionaries({kind: st.integers(0, 3000) for kind in TaskKind}),
       pdr=st.sampled_from(TRANSCRIPT_PDRS) | st.floats(0.2, 1.0),
       seed=st.integers(0, 2 ** 32 - 1),
       dt_ms=st.sampled_from([10, 1, 7, 25]),
       emergency_after_fault=st.booleans())
def test_the_event_driven_leader_equals_one_that_steps_in_full(roster, exec_name, pdr,
                                                               seed, dt_ms, emergency_after_fault):
    # every transcript line is stamped with its tick, so equal transcripts
    # mean equal outboxes, task transitions and notifications at every tick
    args = (seed, pdr, roster, exec_name, dt_ms)
    kw = {"emergency_after_fault": emergency_after_fault}
    assert (protocol_transcript(*args, **kw)
            == protocol_transcript(*args, leader_cls=EveryStepLeader, **kw))
