"""Shared harness: leader and followers exchanging packets over the lossy
channel until every task reaches a terminal state.

Used both by the protocol unit tests and the acceptance gate, so the loss
sweep exercises exactly one implementation of the wiring.
"""

import json
from dataclasses import dataclass

import numpy as np

from wardsim.protocol import (Availability, Follower, Leader, ScheduleEntry, TaskKind,
                              TimeoutPolicy, TERMINAL_STATES)
from wardsim.rf_channel import Channel, ChannelConfig, Packet, PacketKind
from wardsim.vitals import Flag, TriageClass, TriageDecision

ALL_KINDS = frozenset(TaskKind)
LEADER = 1
FOLLOWERS = (2, 3)


@dataclass
class RosterEntry:
    """A stand-in for a follower on the leader's roster, which reads only a
    member's `capabilities` and `availability`: for a leader stepped with no
    followers, or one told other than a follower's own state."""
    capabilities: frozenset[TaskKind]
    availability: Availability = Availability.IDLE


def liveness_bound_ms(policy: TimeoutPolicy, n_capable: int) -> int:
    """Upper bound on the time from creation to a terminal state, assuming
    immediate execution: every assignee burns at most (max_retries + 1)
    ack timeouts, plus one timeout of slack for the final status delivery."""
    return policy.timeout_ms * (policy.max_retries + 1) * n_capable + policy.timeout_ms


def run_lossy_exchange(seed: int, pdr: float, n_entries: int = 1,
                       dt_ms: int = 10):
    """Drive one leader and two fully-capable followers over a channel with
    the given delivery ratio until the task table settles or the liveness
    deadline passes. Returns (leader, followers dict, settled flag)."""
    policy = TimeoutPolicy(timeout_ms=200, exec_timeout_ms=200, max_retries=5)
    schedule = [ScheduleEntry(time_ms=0, bed=4 + i, slot=i) for i in range(n_entries)]
    followers = {
        a: Follower(a, LEADER, ALL_KINDS,
                    exec_duration_ms={k: 0 for k in TaskKind})
        for a in FOLLOWERS
    }
    leader = Leader(LEADER, followers, schedule=schedule, policy=policy)
    channel = Channel(ChannelConfig(pdr_clear=pdr, pdr_obstructed=pdr),
                      [LEADER, *FOLLOWERS], np.random.default_rng(seed))

    # dependency chains and busy rejections serialize tasks, so budget one
    # full liveness bound per task plus channel-delay slack
    n_tasks = 2 * n_entries
    deadline = n_tasks * liveness_bound_ms(policy, len(FOLLOWERS)) + 2000

    inboxes: dict[int, list] = {LEADER: [], **{a: [] for a in FOLLOWERS}}
    now = 0
    settled = False
    while now <= deadline:
        for pkt in channel.deliveries_due(now):
            inboxes[pkt.dst].append(pkt)
        for pkt in leader.step(inboxes[LEADER], now):
            channel.send(pkt)
        inboxes[LEADER].clear()
        for addr, fol in followers.items():
            for pkt in fol.step(inboxes[addr], now, dt_ms if now else 0):
                channel.send(pkt)
            inboxes[addr].clear()
        if leader.tasks and all(t.state in TERMINAL_STATES
                                for t in leader.tasks.values()):
            settled = True
            break
        now += dt_ms
    return leader, followers, settled


# A protocol transcript: richer exchanges whose every observable step is
# written down, so that a rewrite of the protocol can be checked to keep
# every decision, packet and notification in order.

MOVE = frozenset({TaskKind.PATROL_CHECK, TaskKind.DELIVER_MEDICINE})
DISPENSE = frozenset({TaskKind.ARM_DISPENSE})

# roster name -> (the capabilities the leader's roster claims, the ones each
# follower really has), by follower address
ROSTERS = {
    "all_capable": ({2: ALL_KINDS, 3: ALL_KINDS},) * 2,
    "engine_split": ({2: MOVE, 3: DISPENSE},) * 2,
    "one_restricted": ({2: ALL_KINDS, 3: ALL_KINDS, 4: DISPENSE},) * 2,
    "claims_too_much": ({2: ALL_KINDS, 3: ALL_KINDS}, {2: MOVE, 3: ALL_KINDS}),
    "nobody_dispenses": ({2: MOVE, 3: MOVE},) * 2,
}
TRANSCRIPT_PDRS = (0.3, 0.5, 0.7, 0.9, 1.0)
# execution times in ms by kind: a zero-time emergency patrol that preempts
# a timed delivery resumes the parked work at once
TRANSCRIPT_EXEC_MS = {
    "instant": dict.fromkeys(TaskKind, 0),
    "timed": dict.fromkeys(TaskKind, 300),
    "mixed": {TaskKind.PATROL_CHECK: 0, TaskKind.DELIVER_MEDICINE: 600,
              TaskKind.ARM_DISPENSE: 300},
}


def _decision(cls, *flags):
    return TriageDecision(cls, frozenset(flags))


# time -> triage result handed to the leader before its step at that time
_TRIAGE = {
    20: _decision(TriageClass.MONITOR_AT_HOME, Flag.LOW_SPO2),
    400: _decision(TriageClass.GO_TO_HOSPITAL, Flag.LOW_SPO2, Flag.FEVER),
    700: _decision(TriageClass.NO_HOSPITAL),
    750: _decision(TriageClass.GO_TO_HOSPITAL, Flag.FALL),
}
_FALL_ALERTS = (300, 450)   # relayed camera detections, sent over the channel
_NAV_FAULT_FROM = 500       # first time follower 2 may lose the line
# raised, when asked for, at the tick after that fault: an emergency that no
# faulted follower can take
_TRIAGE_AFTER_FAULT = _decision(TriageClass.GO_TO_HOSPITAL, Flag.ABNORMAL_HR)
_LAST_INPUT = 800


class _Claim:
    """A roster value that claims `capabilities` for a follower and reads
    the follower's own availability."""

    def __init__(self, capabilities, follower):
        self.capabilities = capabilities
        self._follower = follower

    @property
    def availability(self):
        return self._follower.availability


def _packet_line(now, pkt):
    payload = json.dumps(pkt.payload, sort_keys=True)
    return f"{now} packet {pkt.src}->{pkt.dst} seq={pkt.seq} {pkt.kind.value} {payload}"


def protocol_transcript(seed: int, pdr: float, roster_name: str, exec_name: str | dict,
                        dt_ms: int = 10, deadline_ms: int = 60_000,
                        leader_cls: type[Leader] = Leader,
                        emergency_after_fault: bool = False) -> list[str]:
    """One lossy exchange, in the engine's tick order, written down as text:
    every new task and transition in `Leader.transitions`, every packet a
    leader or follower puts in its outbox, each change of a follower's status
    light, then the notifications and each follower's execution counts. Besides the
    medication schedule it feeds triage results and fall alerts, faults
    follower 2's navigation once, and hands the leader a stale ack and a
    status for an unknown task, and follower 2 a command of an unknown kind.
    `exec_name` names a set of execution times in TRANSCRIPT_EXEC_MS, or is
    such a set itself; `leader_cls` builds the leader, so a test can swap in
    a variant. With `emergency_after_fault`, a severe triage result reaches
    the leader on the tick after the fault, while follower 2 is faulted and
    usually still held for its task: where only 2 can patrol, the emergency
    patrol waits, and only the emergency itself can wake the leader on the
    tick that 2 recovers."""
    claimed, actual = ROSTERS[roster_name]
    policy = TimeoutPolicy(timeout_ms=200, exec_timeout_ms=1000, max_retries=2)
    schedule = [ScheduleEntry(time_ms=0, bed=4, slot=0), ScheduleEntry(time_ms=150, bed=5, slot=1)]
    exec_ms = TRANSCRIPT_EXEC_MS[exec_name] if isinstance(exec_name, str) else exec_name
    followers = {a: Follower(a, LEADER, caps, exec_duration_ms=exec_ms)
                 for a, caps in actual.items()}
    roster = {a: _Claim(caps, followers[a]) for a, caps in claimed.items()}
    leader = leader_cls(LEADER, roster, schedule=schedule, policy=policy)
    channel = Channel(ChannelConfig(pdr_clear=pdr, pdr_obstructed=pdr),
                      [LEADER, *followers], np.random.default_rng(seed))
    lines = []

    def take_transitions():
        # after each leader call, as the engine does, but each at the time
        # the leader gave it rather than the tick's
        lines.extend(f"{t} task {p['task_id']} {p['kind']} {p['origin']} {p['state']} "
                     f"assignee={p['assignee']} retries={p['retry_count']} "
                     f"emergency={p['emergency']}" for t, p in leader.transitions)
        leader.transitions.clear()

    inboxes: dict[int, list] = {LEADER: [], **{a: [] for a in followers}}
    lights = dict.fromkeys(followers)
    faulted_at = None
    now = 0
    while now <= deadline_ms:
        if now == 100:
            inboxes[LEADER] += [
                Packet(2, LEADER, 10 ** 6, PacketKind.ACK, {"task_id": 1}, now),
                Packet(2, LEADER, 10 ** 6, PacketKind.STATUS,
                       {"task_id": 10 ** 6, "status": "completed"}, now)]
            inboxes[2].append(Packet(LEADER, 2, 10 ** 6, PacketKind.COMMAND,
                                     {"task_id": 10 ** 6, "kind": "sweep"}, now))
        if now in _FALL_ALERTS:
            channel.send(Packet(2, LEADER, now, PacketKind.ALERT, {"alert": "fall"}, now))
        if now in _TRIAGE:
            leader.handle_triage(_TRIAGE[now], now)
        if emergency_after_fault and faulted_at == now - dt_ms:
            leader.handle_triage(_TRIAGE_AFTER_FAULT, now)
        take_transitions()
        leader_out = leader.step(inboxes[LEADER], now)
        take_transitions()
        for pkt in leader_out:
            lines.append(_packet_line(now, pkt))
            channel.send(pkt)
        inboxes[LEADER] = []
        for pkt in channel.deliveries_due(now):
            inboxes[pkt.dst].append(pkt)
        for addr, fol in followers.items():
            for pkt in fol.step(inboxes[addr], now, dt_ms if now else 0):
                lines.append(_packet_line(now, pkt))
                channel.send(pkt)
            inboxes[addr] = []
            if fol.status_light() is not lights[addr]:
                lights[addr] = fol.status_light()
                lines.append(f"{now} light {addr} {lights[addr].value}")
        # as in the engine, the leader sees the fault at its next step
        if faulted_at is None and now >= _NAV_FAULT_FROM and followers[2].active is not None:
            followers[2].nav_fault, faulted_at = True, now
        if now >= _LAST_INPUT and all(t.state in TERMINAL_STATES
                                      for t in leader.tasks.values()):
            break
        now += dt_ms
    lines += [f"{t} notify {p['severity']} {p['cause']} {tuple(p['recipients'])} {p['text']}"
              for t, p in leader.notifications]
    lines += [f"executed {addr} {sorted(fol.execution_count.items())}"
              for addr, fol in followers.items()]
    return lines
