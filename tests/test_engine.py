"""End-to-end engine behavior: determinism, replay equality, event-log
integrity, debouncing, and the CLI surface."""

import csv
import dataclasses
import functools
import gc
import json
import weakref
from pathlib import Path
from types import NoneType, SimpleNamespace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from _hostile import DuplicatingChannel
from _reference import EveryPhaseEngine, first_difference, reference_export
from test_golden import CORPUS, CORPUS_BASE, corpus_config, ward_shift_config
from wardsim import AddressingError, cli
from wardsim import engine as engine_module
from wardsim.cli import main
from wardsim.engine import (Engine, EngineAbort, SuiteResult, SuiteRow, export_outputs,
                            run, run_suite)
from wardsim.kinematics import ChassisParams
from wardsim.metrics import (_BATCH_LINES, RECORD_KINDS, EventLog, MetricsAccumulator,
                             gc_paused, replay_metrics)
from wardsim.protocol import TERMINAL_STATES, Leader
from wardsim.scenario import load_preset, preset_names, validate
from wardsim.vitals import Flag, TriageClass, TriageDecision, Vitals, classify


def short_config(**overrides):
    raw = {
        "seed": 5,
        "duration_ms": 5000,
        "patient_script": [{"time_ms": 1000, "kind": "low_spo2", "spo2": 87}],
    }
    raw.update(overrides)
    return validate(raw)


# ---------------------------------------------------------------------------
# determinism and replay


def test_same_config_and_seed_give_byte_identical_logs():
    log_a, _ = run(short_config())
    log_b, _ = run(short_config())
    assert log_a.to_jsonl() == log_b.to_jsonl()


def test_true_pose_stays_in_plain_floats():
    # numpy scalars in the pose would slow every track query and encode
    cfg = dataclasses.replace(load_preset("default"), duration_ms=2000)
    engine = Engine(cfg)
    engine.run()
    pose = engine.motion.pose
    assert pose != cfg.start_pose
    assert all(type(v) is float for v in (pose.x, pose.y, pose.theta))


def test_different_seeds_diverge():
    log_a, _ = run(short_config(seed=5))
    log_b, _ = run(short_config(seed=6))
    assert log_a.to_jsonl() != log_b.to_jsonl()


def test_replayed_metrics_equal_live_metrics(tmp_path):
    log, live = run(short_config())
    path = tmp_path / "events.jsonl"
    log.save(path)
    replayed = replay_metrics(EventLog.load(path))
    assert replayed == live


def test_event_timestamps_are_non_decreasing():
    log, _ = run(short_config())
    times = [r["time_ms"] for r in log.records]
    assert times == sorted(times)
    assert all(set(r) == {"time_ms", "source", "kind", "payload"} for r in log.records)


def test_log_rejects_time_travel():
    log = EventLog()
    log.append({"time_ms": 100, "kind": "x", "payload": {}})
    with pytest.raises(ValueError):
        log.append({"time_ms": 99, "kind": "x", "payload": {}})


def test_a_run_log_and_a_loaded_log_refuse_an_earlier_time(tmp_path):
    # the engine appends its records without EventLog.append's check, which
    # must still hold on the log it returns, and on an aborted run's log
    log, _ = run(short_config())
    last = log.records[-1]["time_ms"]
    assert last > 0
    path = tmp_path / "events.jsonl"
    log.save(path)
    with pytest.raises(EngineAbort) as exc:
        misaddressed_engine(load_preset("task_suite")).run()
    for each in (log, EventLog.load(path), exc.value.log):
        last = each.records[-1]["time_ms"]
        size = len(each.records)
        with pytest.raises(ValueError, match="non-decreasing"):
            each.append({"time_ms": last - 1, "kind": "x", "payload": {}})
        assert len(each.records) == size
        each.append({"time_ms": last, "kind": "x", "payload": {}})
        assert len(each.records) == size + 1


def idle_fault_config():
    """`lost_line` with a medication round at 1 s: the corridor loses the
    line at 490 ms with no task, and only a step of the faulted follower
    clears the fault, so that the leader can hand it the delivery."""
    return validate({**CORPUS_BASE, "name": "idle_fault", **CORPUS["lost_line"],
                     "schedule": [{"time_ms": 1000, "bed": 1, "slot": 0}]})


# every preset, every corpus run, the ward shift and an idle nav fault
ORACLE_RUNS = {**{name: lambda name=name: load_preset(name) for name in preset_names()},
               **{f"corpus/{name}": lambda name=name: corpus_config(name) for name in CORPUS},
               "ward_shift": ward_shift_config, "idle_fault": idle_fault_config}


@pytest.mark.parametrize("name", sorted(ORACLE_RUNS))
def test_the_engine_equals_one_that_runs_every_phase_every_tick(name):
    # the tick loop calls a phase only when it has work due; a skip that
    # drops work (a faulted idle follower, the first status light) changes
    # the log
    log, metrics = run(ORACLE_RUNS[name]())
    ref_log, ref_metrics = EveryPhaseEngine(ORACLE_RUNS[name]()).run()
    difference = first_difference(log.to_jsonl(), ref_log.to_jsonl())
    assert difference is None, f"{name}: {difference}"
    assert metrics == ref_metrics


def assert_records_have_their_kinds_fields(log) -> set:
    """Require every record of `log` to have the envelope keys in the
    engine's order, its kind's source, and exactly its kind's payload fields
    as `RECORD_KINDS` states them, keys in order and each value of one of its
    field's types; return the kinds seen."""
    kinds = set()
    for i, r in enumerate(log.records):
        assert list(r) == ["time_ms", "source", "kind", "payload"], (i, r)
        source, _, fields = RECORD_KINDS[r["kind"]]
        assert r["source"] == source, (i, r)
        assert list(r["payload"]) == [name for name, *_ in fields], (i, r)
        assert all(type(r["payload"][name]) in types for name, *types in fields), (i, r)
        kinds.add(r["kind"])
    return kinds


def test_every_record_has_its_kinds_source_and_fields():
    # the runs over a duplicating link check their records too
    # (run_over_a_duplicating_link)
    seen = set()
    for config in ORACLE_RUNS.values():
        seen |= assert_records_have_their_kinds_fields(run(config())[0])
    assert seen == set(RECORD_KINDS)


def test_the_readme_states_each_record_kind_with_its_source_and_payload_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Event log\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:4] for line in section.splitlines() if line.startswith("| `")]
    documented = {kind.strip(" `"): (source.strip(" `"),
                                     [tuple(key.strip().split(" ", 1)) for key in keys.split(",")])
                  for kind, source, keys in rows}
    assert documented == {
        kind: (source, [(f"`{name}`", " or ".join("None" if t is NoneType else t.__name__
                                                   for t in types))
                        for name, *types in fields])
        for kind, (source, _, fields) in RECORD_KINDS.items()}


def test_zero_duration_run_yields_only_the_meta_record():
    log, metrics = run(short_config(duration_ms=0))
    assert [r["kind"] for r in log.records] == ["meta"]
    assert metrics.tasks_created == 0
    assert metrics.alert_latency_ms == {}


# ---------------------------------------------------------------------------
# the cyclic garbage collector is paused while a log is built


@pytest.fixture
def collector_seen(monkeypatch):
    """gc.isenabled() at each tick of a run (its leader step, the one phase
    called on every tick) and at each record that EventLog.load appends."""
    seen = []
    leader_step, append = Leader.step, EventLog.append

    def tick(self, inbox, now):
        seen.append(gc.isenabled())
        return leader_step(self, inbox, now)

    def check(self, record):
        seen.append(gc.isenabled())
        append(self, record)

    monkeypatch.setattr(Leader, "step", tick)
    monkeypatch.setattr(EventLog, "append", check)
    return seen


def _run_returns(tmp_path):
    run(short_config(duration_ms=200))


def _run_aborts(tmp_path):
    with pytest.raises(EngineAbort):
        misaddressed_engine(load_preset("task_suite")).run()


def _load_returns(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"time_ms": 0, "kind": "meta", "payload": {}}\n')
    EventLog.load(path)


def _load_refuses(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"time_ms": 0, "kind": "meta", "payload": {}}\n[1]\n')
    with pytest.raises(ValueError, match="^malformed event log at record 1: "):
        EventLog.load(path)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("call", [_run_returns, _run_aborts, _load_returns, _load_refuses])
def test_a_run_or_load_pauses_the_collector_and_restores_it(call, enabled, collector_seen,
                                                            tmp_path):
    # a caller that turned the collector off, as an enclosing pause does,
    # finds it still off afterwards
    if not enabled:
        gc.disable()
    try:
        call(tmp_path)
        assert collector_seen and not any(collector_seen)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def passes_started(call):
    """The generation of each collector pass that starts while `call()` runs
    or when the first container after it is allocated, and what `call()`
    returned. A pass starts at an allocation once the young generation is
    over its threshold, so a log left there is walked at the first one."""
    starts = []

    def note(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(note)
    try:
        held = [call()]  # the first container allocated after the call
    finally:
        gc.callbacks.remove(note)
    return starts, held[0]


def test_a_run_and_a_load_leave_their_log_in_the_oldest_generation(tmp_path):
    # the only pass is the pause's own collection of the young generations
    # as it starts; the log it built is moved to the oldest generation, so
    # no young pass walks it once the collector is back on
    starts, (log, _) = passes_started(lambda: run(ward_shift_config()))
    assert starts == [1]
    path = tmp_path / "events.jsonl"
    log.save(path)
    starts, loaded = passes_started(lambda: EventLog.load(path))
    assert starts == [1]
    oldest = {id(o) for o in gc.get_objects(generation=2)}
    for records in (log.records, loaded.records):
        assert all(id(r) in oldest for r in records)


def test_a_run_keeps_what_the_caller_froze_frozen():
    # gc.unfreeze() would release the caller's frozen objects as well. The
    # freeze count itself may fall during a run, as frozen objects die
    config, mine = short_config(duration_ms=200), [[]]
    gc.freeze()
    try:
        run(config)
        assert gc.get_freeze_count() > 0
        assert not any(o is mine for o in gc.get_objects())
    finally:
        gc.unfreeze()


class Node:
    """A container that a weak reference can follow."""


def test_a_cycle_dropped_before_a_run_is_freed_by_its_end():
    # the pause collects the young generations as it starts, so it moves
    # none of the garbage made before it to the oldest generation
    engine = Engine(short_config(duration_ms=200))
    gc.collect()
    cycle = Node()
    cycle.self = cycle
    ref = weakref.ref(cycle)
    del cycle
    engine.run()
    assert ref() is None


@pytest.mark.parametrize("make", [lambda: load_preset("default"), ward_shift_config],
                         ids=["default", "ward_shift"])
def test_a_paused_run_makes_no_cyclic_garbage_that_grows_with_its_length(make):
    # the pause is safe only because the ticks make no cyclic garbage, and
    # no engine sits in a reference cycle: once the engine and its log are
    # dropped, the collector finds nothing after a 10 s or a 40 s run
    found = []
    for duration_ms in (10_000, 40_000):
        engine = Engine(dataclasses.replace(make(), duration_ms=duration_ms))
        gc.collect()
        with gc_paused():
            log, _ = engine.run()
            del engine, log
            found.append(gc.collect())
    assert found == [0, 0]


@pytest.mark.parametrize("name", [*preset_names(), "ward_shift"])
def test_a_dropped_log_is_freed_by_reference_counting(name):
    # with the collector off, the log that run() returned dies as soon as
    # the caller drops it, and nothing of the run is left for a collector pass
    config = ward_shift_config() if name == "ward_shift" else load_preset(name)
    with gc_paused():
        gc.collect()
        log, _ = run(config)
        ref = weakref.ref(log)
        del log
        assert ref() is None
        assert gc.collect() == 0


def test_a_suite_leaves_no_cyclic_garbage():
    config = load_preset("task_suite")
    with gc_paused():
        gc.collect()
        run_suite([config], trials=3)
        assert gc.collect() == 0


# ---------------------------------------------------------------------------
# behavior spot checks


def test_scripted_hypoxia_raises_warning_and_patrol_task():
    log, metrics = run(short_config())
    notes = [r for r in log.records if r["kind"] == "notification"]
    assert any(r["payload"]["cause"] == "low_spo2" for r in notes)
    assert metrics.tasks_created >= 1
    assert "low_spo2" in metrics.alert_latency_ms


def test_flag_debounce_ignores_single_sample_spike():
    # inject one flagged sample then return to normal before confirmation
    cfg = short_config(patient_script=[
        {"time_ms": 1000, "kind": "low_spo2", "spo2": 87},
        {"time_ms": 1100, "spo2": 97},
    ], noise={"spo2_tol": 0.0, "bpm_tol": 0.0, "temp_mean_abs_err": 0.0})
    log, metrics = run(cfg)
    notes = [r for r in log.records if r["kind"] == "notification"]
    assert not any(r["payload"]["cause"] == "low_spo2" for r in notes)

    # severity is debounced too: one severe sample is not a hospital case
    cfg = short_config(patient_script=[
        {"time_ms": 1000, "kind": "low_spo2", "spo2": 80},
        {"time_ms": 1100, "spo2": 97},
    ], noise={"spo2_tol": 0.0, "bpm_tol": 0.0, "temp_mean_abs_err": 0.0})
    log, _ = run(cfg)
    assert any(r["payload"]["spo2"] == 80 for r in log.records if r["kind"] == "vitals_sample")
    assert not any(r["payload"]["class"] == "go_to_hospital"
                   for r in log.records if r["kind"] == "triage")


class ReferenceDebounce:
    """The hysteresis latch as first written, with its own state per numeric
    flag and for severity; `Engine._debounce` must decide exactly as this."""

    NUMERIC = (Flag.LOW_SPO2, Flag.FEVER, Flag.ABNORMAL_HR)

    def __init__(self, need):
        self.need = need
        self.flag_streaks = {f: 0 for f in self.NUMERIC}
        self.flag_on = {f: False for f in self.NUMERIC}
        self.severe_streak = 0
        self.severe_on = False

    def __call__(self, decision):
        def advance(streak, raised):
            if raised:
                return max(streak, 0) + 1
            return min(streak, 0) - 1

        for f in self.NUMERIC:
            s = advance(self.flag_streaks[f], f in decision.flags)
            self.flag_streaks[f] = s
            if s >= self.need:
                self.flag_on[f] = True
            elif s <= -self.need:
                self.flag_on[f] = False
        severe = decision.triage_class is TriageClass.GO_TO_HOSPITAL
        self.severe_streak = advance(self.severe_streak, severe)
        if self.severe_streak >= self.need:
            self.severe_on = True
        elif self.severe_streak <= -self.need:
            self.severe_on = False

        flags = frozenset(f for f in self.NUMERIC if self.flag_on[f])
        flags |= decision.flags - frozenset(self.NUMERIC)
        if self.severe_on or Flag.FALL in flags:
            cls = TriageClass.GO_TO_HOSPITAL
        elif flags:
            cls = TriageClass.MONITOR_AT_HOME
        else:
            cls = TriageClass.NO_HOSPITAL
        return TriageDecision(cls, flags)


_DEBOUNCE_CONFIG = short_config(patient_script=[])


def _reading(edges, lo, hi):
    # values on and next to the thresholds, so flags and severity flip often
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi))


_SAMPLES = st.lists(st.builds(
    lambda spo2, temp, bpm: Vitals(0, True, spo2=spo2, bpm=bpm, temp=temp),
    _reading((80.0, 84.99, 85.0, 87.0, 89.99, 90.0, 97.0), 80.0, 100.0),
    _reading((36.8, 37.99, 38.0, 39.2, 39.49, 39.5, 41.0), 36.0, 41.0),
    _reading((40.0, 49.99, 50.0, 72.0, 120.0, 120.01, 130.0), 40.0, 130.0)), max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), _SAMPLES)
def test_debounce_decides_as_the_reference_latch(need, samples):
    engine = Engine(dataclasses.replace(_DEBOUNCE_CONFIG, flag_confirm_samples=need))
    reference = ReferenceDebounce(need)
    for sample in samples:
        got = engine._debounce(classify(sample))
        assert got == reference(classify(sample))


@pytest.mark.parametrize("patrol_ms", [0, 10, 20, 500])
def test_each_finished_patrol_check_gets_one_camera_check(patrol_ms):
    # a check of at most one 10 ms tick starts and finishes in one follower step
    log, _ = run(short_config(duration_ms=8000, patrol_always=False,
                              exec_durations_ms={"patrol_check": patrol_ms},
                              patient_script=[{"time_ms": 2000, "kind": "low_spo2", "spo2": 87}]))
    finished = [r["time_ms"] for r in log.records if r["kind"] == "task"
                and r["payload"]["kind"] == "patrol_check" and r["payload"]["state"] == "completed"]
    checks = [r["time_ms"] for r in log.records if r["kind"] == "fall_check"]
    assert len(finished) == 1 and len(checks) == 1
    # the camera looks when the robot finishes, before its status reaches the leader
    assert checks[0] < finished[0]


def test_quiet_run_creates_no_incident_tasks():
    cfg = short_config(patient_script=[], duration_ms=10000)
    _, metrics = run(cfg)
    assert metrics.tasks_created == 0


def test_dead_reckoning_only_mode_disables_correction():
    cfg = short_config(patient_script=[], ir_enabled=False, duration_ms=10000)
    _, metrics = run(cfg)
    # with no IR fix the two estimates never separate
    assert metrics.drift_final_corrected_m == metrics.drift_final_raw_m


def test_corrected_estimate_beats_raw_dead_reckoning():
    cfg = short_config(patient_script=[], duration_ms=30000)
    _, metrics = run(cfg)
    assert metrics.drift_final_corrected_m < metrics.drift_final_raw_m


def test_status_light_changes_are_logged_once_per_change():
    log, _ = run(load_preset("default"))
    lights = [r["payload"]["value"] for r in log.records if r["kind"] == "status_light"]
    assert lights[0] == "idle"
    assert all(a != b for a, b in zip(lights, lights[1:]))


def test_engine_abort_carries_partial_log():
    engine = Engine(short_config())
    engine._emit_meta()
    # corrupt the corridor follower so the next leader packet is misrouted
    engine.corridor.address = 99
    with pytest.raises(EngineAbort) as exc:
        engine.run()
    assert len(exc.value.log.records) >= 1


def misaddressed_engine(config):
    """An engine whose channel has forgotten the arm's address, so that the
    first command to the arm raises AddressingError inside the tick loop."""
    engine = Engine(config)
    engine.channel.addresses.discard(config.robots.arm.address)
    return engine


def test_any_error_in_the_tick_loop_aborts_with_the_partial_log():
    with pytest.raises(EngineAbort, match="^AddressingError: unknown destination address 3$") \
            as exc:
        misaddressed_engine(load_preset("task_suite")).run()
    assert isinstance(exc.value.__cause__, AddressingError)
    assert len(exc.value.log.records) == 672


def test_an_abort_inside_a_leader_step_keeps_the_transitions_it_made(monkeypatch):
    # the step at 0 creates the schedule's two tasks, then fails
    def check_timeouts(self, now):
        if self.tasks:
            raise RuntimeError("the timeout check failed")

    monkeypatch.setattr(Leader, "_check_timeouts", check_timeouts)
    config = short_config(schedule=[{"time_ms": 0, "bed": 1, "slot": 0}])
    with pytest.raises(EngineAbort, match="^RuntimeError: the timeout check failed$") as exc:
        run(config)
    assert [(r["time_ms"], r["kind"], r["payload"]["state"])
            for r in exc.value.log.records[-2:]] == [(0, "task", "created")] * 2


def test_an_abort_keeps_the_staff_alerts_of_the_tick_that_raised(monkeypatch):
    # the step at 0 creates the schedule's two tasks, alerts the staff, then fails
    def dispatch(self, now, outbox):
        self._notify(now, "info", "dispatch is about to fail", cause="escalation")
        raise RuntimeError("the dispatch failed")

    monkeypatch.setattr(Leader, "_dispatch", dispatch)
    config = short_config(schedule=[{"time_ms": 0, "bed": 1, "slot": 0}])
    with pytest.raises(EngineAbort, match="^RuntimeError: the dispatch failed$") as exc:
        run(config)
    assert [(r["time_ms"], r["kind"]) for r in exc.value.log.records[-3:]] == [
        (0, "task"), (0, "task"), (0, "notification")]
    assert exc.value.log.records[-1]["payload"]["text"] == "dispatch is about to fail"


def test_triage_results_are_delivered_by_ready_time_and_stale_ones_dropped():
    engine = Engine(short_config(patient_script=[]))

    def decision(*flags):
        cls = TriageClass.MONITOR_AT_HOME if flags else TriageClass.NO_HOSPITAL
        return TriageDecision(cls, frozenset(flags))

    # (arrival time, sample time, decision); fever takes the 3200 ms AI path,
    # the others the 900 ms threshold path
    for now, sample_time, d in ((0, 0, decision(Flag.FEVER)),          # ready 3200
                                (100, 100, decision(Flag.LOW_SPO2)),   # ready 1000
                                (2500, 2450, decision()),              # ready 3400
                                (2500, 2300, decision(Flag.LOW_SPO2))):  # ready 3400
        engine._now = now
        engine._queue_triage(sample_time, d)
    delivered = []
    for now in (999, 1000, 3200, 3400):
        engine._now = now
        engine._triage_ready()
        delivered.append([r["payload"]["sample_time"] for r in engine.log.records
                          if r["kind"] == "triage"])
    # the AI result for sample 0 comes due after the fresher sample 100 and
    # is dropped; on equal ready times the older sample goes first
    assert delivered == [[], [100], [100], [100, 2300, 2450]]
    assert not engine._pending_triage


HOSTILE_RUNS = {**{name: lambda name=name: load_preset(name) for name in preset_names()},
                **{f"corpus/{name}": lambda name=name: corpus_config(name) for name in CORPUS}}


def run_over_a_duplicating_link(cfg, **link):
    """Run `cfg` over a `DuplicatingChannel(**link)` and check what a
    duplicated packet must not change: the run ends without an abort, each
    sample time is debounced and queued for triage at most once (a
    duplicated vitals report comes back with a sample time that was already
    debounced, which must not count toward a latch again), the triage
    records' sample times strictly increase, no follower runs a task twice
    (a duplicated command must not start its task a second time), and every
    record has its kind's source and fields. Returns the engine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "Channel", functools.partial(DuplicatingChannel, **link))
        engine = Engine(cfg)
    queued = []

    def queue_triage(sample_time, decision, queue=engine._queue_triage):
        queued.append(sample_time)
        queue(sample_time, decision)

    engine._queue_triage = queue_triage
    log, _ = engine.run()
    assert len(set(queued)) == len(queued), \
        sorted(t for t in set(queued) if queued.count(t) > 1)
    times = [r["payload"]["sample_time"] for r in log.records if r["kind"] == "triage"]
    assert times and all(a < b for a, b in zip(times, times[1:]))
    assert_records_have_their_kinds_fields(log)
    for follower in (engine.corridor, engine.arm):
        assert all(n == 1 for n in follower.execution_count.values()), \
            (follower.address, follower.execution_count)
    return engine


@pytest.mark.parametrize("name", sorted(HOSTILE_RUNS))
def test_a_run_over_a_link_that_duplicates_packets_late_keeps_triage_in_sample_order(name):
    cfg = HOSTILE_RUNS[name]()
    engine = run_over_a_duplicating_link(
        dataclasses.replace(cfg, duration_ms=min(cfg.duration_ms, 20_000)))
    assert engine.channel.duplicated > 0


# each of these runs aborted when the triage heap held bare (ready time,
# sample time, decision) entries: a vitals report duplicated within a tick of
# itself tied with the original on both times, and heapq compared the two
# decisions
@pytest.mark.parametrize("name", ["alert_high_temp", "alert_low_spo2", "task_suite"])
@pytest.mark.parametrize("late_ms", [0, 5])
def test_a_report_duplicated_within_its_own_tick_does_not_abort_the_run(name, late_ms):
    cfg = dataclasses.replace(load_preset(name), duration_ms=60_000)
    assert late_ms < cfg.dt_ms
    engine = run_over_a_duplicating_link(cfg, duplicate_p=0.5, late_ms=late_ms)
    assert engine.channel.duplicated > 0


# each example is a whole run, so hypothesis' explain phase, which reruns a
# failing example many times to say which of its parts matter, would hold a
# failure back for minutes
@settings(deadline=None, phases=[phase for phase in Phase if phase is not Phase.explain])
@given(name=st.sampled_from(sorted(HOSTILE_RUNS)),
       duplicate_p=st.sampled_from([0.5, 1.0]) | st.floats(0.0, 1.0),
       # the window in ticks: a duplicate on the packet's own tick (a
       # report and its duplicate then tie on their ready time and sample
       # time), within one tick, or up to 30 ticks late
       late_ticks=st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True) | st.floats(0.0, 30.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_any_duplicating_link_leaves_triage_in_sample_order_and_each_task_run_once(
        name, duplicate_p, late_ticks, seed):
    cfg = HOSTILE_RUNS[name]()
    run_over_a_duplicating_link(cfg, duplicate_p=duplicate_p, late_ms=late_ticks * cfg.dt_ms,
                                seed=seed)


def test_link_conditions_apply_in_time_order_whatever_their_file_order():
    # the wearable reports to the leader every 100 ms, each send naming the
    # link's condition
    obstructed = {"time_ms": 0, "src": 4, "dst": 1, "condition": "obstructed"}
    clear = {"time_ms": 2000, "src": 4, "dst": 1, "condition": "clear"}

    def log_of(link_conditions):
        return run(short_config(duration_ms=4000, link_conditions=link_conditions))[0]

    log = log_of([obstructed, clear])
    assert log_of([clear, obstructed]).to_jsonl() == log.to_jsonl()
    conditions = {(r["time_ms"] >= 2000, r["payload"]["condition"]) for r in log.records
                  if r["kind"] == "packet_send" and r["payload"]["src"] == 4}
    assert conditions == {(False, "obstructed"), (True, "clear")}
    # the sort is stable: events at the same time keep their file order
    cfg = short_config(link_conditions=[{**clear, "time_ms": 0}, obstructed])
    assert [e.condition.value for e in cfg.link_conditions] == ["clear", "obstructed"]


def test_a_packet_due_on_a_tick_is_delivered_on_that_tick():
    # with no jitter every one-way delay is 20 ms, and every extra delay a
    # whole number of ticks, so each packet falls due exactly on a tick
    cfg = short_config(channel={"rtt_ms": 40, "one_way_jitter_ms": 0})
    log, _ = run(cfg)
    extra = {"vitals_report": cfg.latency.vitals_transmit_ms, "alert": cfg.latency.fall_path_ms}

    def key(p):
        return p["src"], p["dst"], p["packet_kind"], p["seq"]

    due = sorted((r["time_ms"] + p["delay_ms"] + extra.get(p["packet_kind"], 0), key(p))
                 for r in log.records if r["kind"] == "packet_send"
                 and (p := r["payload"])["outcome"] == "delivered")
    delivered = sorted((r["time_ms"], key(r["payload"])) for r in log.records
                       if r["kind"] == "packet_deliver")
    assert len(delivered) > 30
    assert delivered == [d for d in due if d[0] < cfg.duration_ms]


def test_a_period_of_zero_turns_vitals_sampling_off():
    log, _ = run(short_config(vitals_sample_period_ms=0))
    assert log.records[-1]["time_ms"] > 4000
    assert not [r for r in log.records if r["kind"] == "vitals_sample"]


def test_a_period_of_zero_turns_the_periodic_fall_check_off():
    cfg = load_preset("alert_fall")
    log, _ = run(dataclasses.replace(
        cfg, fall_detector=dataclasses.replace(cfg.fall_detector, check_period_ms=0)))
    assert log.records[-1]["time_ms"] > cfg.duration_ms // 2
    assert not [r for r in log.records if r["kind"] == "fall_check"]


def test_open_task_index_matches_the_task_table_over_a_shift(monkeypatch):
    schedule = [{"time_ms": t, "bed": 1 + (t // 5000) % 2, "slot": (t // 5000) % 2}
                for t in range(5000, 30000, 5000)]
    cfg = short_config(
        duration_ms=25500, patrol_always=False, vitals_sample_period_ms=10,
        exec_durations_ms={"patrol_check": 500, "deliver_medicine": 500, "arm_dispense": 500},
        link_conditions=[{"time_ms": 0, "src": 1, "dst": 2, "condition": "obstructed"},
                         {"time_ms": 0, "src": 2, "dst": 1, "condition": "obstructed"}],
        schedule=schedule,
        patient_script=[{"time_ms": 8000, "kind": "low_spo2", "spo2": 87},
                        {"time_ms": 18000, "spo2": 98}])
    engine = Engine(cfg)

    def open_ids_are_the_non_terminal_tasks():
        leader = engine.leader
        return list(leader._open) == sorted(
            i for i, t in leader.tasks.items() if t.state not in TERMINAL_STATES)

    step = type(engine.leader).step
    broken_at = []

    def checked_step(leader, inbox, now):
        out = step(leader, inbox, now)
        if not open_ids_are_the_non_terminal_tasks():
            broken_at.append(now)
        return out

    monkeypatch.setattr(type(engine.leader), "step", checked_step)
    engine.run()
    assert not broken_at
    assert open_ids_are_the_non_terminal_tasks()
    assert len(engine.leader.tasks) >= 10 and engine.leader._open


def test_metrics_fold_is_pure():
    # the engine folds each record by its kind's fold as it emits it;
    # consume, which replay uses, must give the same metrics, on every
    # preset and the golden ward shift
    for config in [*map(load_preset, preset_names()), ward_shift_config()]:
        log, live = run(config)
        acc = MetricsAccumulator()
        for r in log.records:
            acc.consume(r)
        assert acc.result() == live, config.name
        # folding twice from scratch gives the same answer
        acc2 = MetricsAccumulator()
        for r in log.records:
            acc2.consume(r)
        assert acc2.result() == live, config.name


def test_suite_aggregates_over_trials():
    cfg = dataclasses.replace(load_preset("alert_no_vitals"), duration_ms=15000)
    result = run_suite([cfg], trials=2)
    (row,) = result.rows
    assert row.runs == 2
    assert "no_vitals" in row.verdicts


@pytest.mark.parametrize("verdicts, majority", [
    (["pass", "fail"], "fail"), (["fail", "pass"], "fail"),
    (["pass", "fail", "pass"], "pass"), (["fail", "pass", "fail", "pass"], "fail"),
])
def test_suite_verdict_is_the_majority_and_a_tie_fails(monkeypatch, verdicts, majority):
    # the verdict must not follow set order, which varies with PYTHONHASHSEED
    trial_verdicts = iter(verdicts)

    def fake_run(_cfg):
        return None, SimpleNamespace(alert_latency_ms={"fall": 1000.0},
                                     alert_verdicts={"fall": next(trial_verdicts)},
                                     tasks_completed=0, tasks_escalated=0)

    monkeypatch.setattr(engine_module, "run", fake_run)
    (row,) = run_suite([short_config()], trials=len(verdicts)).rows
    assert row.verdicts == {"fall": majority}


def test_the_suite_text_names_an_alert_that_no_trial_raised():
    # each trial's onset at 9.5 s has a 3 s budget, and the run ends at 10 s
    # before any notification answers it
    late = validate({"name": "late", "seed": 3, "duration_ms": 10_000,
                     "patient_script": [{"time_ms": 9500, "kind": "low_spo2", "spo2": 87}],
                     "budgets_ms": {"low_spo2": 3000}})
    assert run_suite([late], trials=2).as_text() == (
        "scenario late (2 runs):\n  alert[low_spo2]: not raised, result fail\n")
    # the kinds of both dicts, sorted, whatever order they hold them in
    row = SuiteRow("mixed", 3, latencies_ms={"low_spo2": (900.0, 0.0), "fall": (1500.0, 500.0)},
                   verdicts={"no_vitals": "fail", "low_spo2": "pass"})
    assert SuiteResult([row]).as_text() == (
        "scenario mixed (3 runs):\n"
        "  alert[fall]: avg 1.50 s, stddev 0.50 s, result n/a\n"
        "  alert[low_spo2]: avg 0.90 s, stddev 0.00 s, result pass\n"
        "  alert[no_vitals]: not raised, result fail\n")


# ---------------------------------------------------------------------------
# artifact export


def test_export_outputs_writes_all_artifacts(tmp_path):
    log, metrics = run(short_config())
    export_outputs(log, metrics, tmp_path)
    for name in ("events.jsonl", "metrics.txt", "metrics.csv", "channel.csv",
                 "tasks.csv", "vitals.csv", "notifications.log"):
        assert (tmp_path / name).exists(), name
    first = json.loads((tmp_path / "events.jsonl").read_text().splitlines()[0])
    assert first["kind"] == "meta"
    # the header, then one row per event of the kind, in log order
    for name, kind, header, keys in (
            ("channel.csv", "packet_send",
             ["time_ms", "src", "dst", "kind", "seq", "condition", "outcome", "delay_ms"],
             ("src", "dst", "packet_kind", "seq", "condition", "outcome", "delay_ms")),
            ("tasks.csv", "task",
             ["time_ms", "task_id", "kind", "origin", "assignee", "state", "retry_count"],
             ("task_id", "kind", "origin", "assignee", "state", "retry_count"))):
        with open(tmp_path / name, newline="") as f:
            head, *rows = csv.reader(f)
        assert head == header, name
        events = [r for r in log.records if r["kind"] == kind]
        assert events, name
        assert rows == [[str(e["time_ms"])] + ["" if e["payload"][k] is None
                                               else str(e["payload"][k]) for k in keys]
                        for e in events], name


EXPORTS = ("events.jsonl", "channel.csv", "tasks.csv", "vitals.csv", "notifications.log")


def test_the_one_pass_export_writes_what_a_walk_per_file_writes(tmp_path):
    # 7,810 records, so 8 batches, with triage records and vitals samples on
    # either side of each batch edge
    log, metrics = run(ward_shift_config())
    assert len(log.records) > 7 * _BATCH_LINES
    export_outputs(log, metrics, tmp_path / "one_pass")
    reference_export(log, metrics, tmp_path / "reference")
    for name in (*EXPORTS, "metrics.txt", "metrics.csv"):
        assert (tmp_path / "one_pass" / name).read_bytes() \
            == (tmp_path / "reference" / name).read_bytes(), name


def test_an_export_that_fails_to_encode_leaves_the_whole_batches_before_it(tmp_path):
    log, metrics = run(ward_shift_config())
    b = _BATCH_LINES
    bad = EventLog()
    bad.records = log.records[:2 * b + 5] + [{"time_ms": log.records[2 * b + 4]["time_ms"],
                                              "kind": "x", "payload": {"bad": object()}}]
    with pytest.raises(TypeError):
        export_outputs(bad, metrics, tmp_path / "failed")
    before = EventLog()
    before.records = log.records[:2 * b]
    export_outputs(before, metrics, tmp_path / "before")
    for name in EXPORTS:
        assert (tmp_path / "failed" / name).read_bytes() \
            == (tmp_path / "before" / name).read_bytes(), name
    assert sorted(p.name for p in (tmp_path / "failed").iterdir()) == sorted(EXPORTS)


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_preset_exits_zero(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "alert_no_vitals", "--out", str(out)])
    assert code == 0
    assert (out / "events.jsonl").exists()
    assert "alert_latency_ms[no_vitals]" in capsys.readouterr().out


def test_cli_run_rejects_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("dt_ms: -1\nbogus_key: true\n")
    code = main(["run", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus_key" in err


@pytest.mark.parametrize("command", [["run"], ["suite", "--trials", "1"]])
def test_cli_yaml_syntax_error_exits_two_naming_the_line(tmp_path, capsys, command):
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: 1\nduration_ms: [1, 2\nfoo: 3\n")
    assert main([*command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "line 3" in err


def test_cli_run_directory_path_exits_two(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", "alert_no_vitals"],
                                     ["suite", "alert_no_vitals", "--trials", "1"]])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_cli_out_naming_a_file_exits_two_before_the_run(tmp_path, capsys, monkeypatch,
                                                        command, out):
    (tmp_path / "file").write_text("")
    out = tmp_path / out
    monkeypatch.setattr(cli, "run", None)
    monkeypatch.setattr(cli, "run_suite", None)  # the run never starts
    assert main([*command, "--out", str(out)]) == 2
    assert f"invalid option: --out {out}: " in capsys.readouterr().err


def test_cli_run_unknown_preset_exits_two(capsys):
    assert main(["run", "no_such_preset"]) == 2


def test_cli_run_negative_seed_exits_two(capsys):
    assert main(["run", "alert_no_vitals", "--seed", "-1"]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_cli_run_non_finite_pose_aborts_with_a_partial_log(tmp_path, capsys, monkeypatch):
    # a wheel radius near the float maximum overflows the pose; the schema
    # refuses it, so the chassis' own checks are skipped here
    monkeypatch.setattr(ChassisParams, "__post_init__", lambda self: None)
    scenario = tmp_path / "huge_wheel.yaml"
    scenario.write_text("duration_ms: 2000\n"
                        "robots: {corridor: {chassis: {wheel_radius_r: 1.7976931348623157e+308}}}\n")
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == 3
    assert "pose coordinates must be finite" in capsys.readouterr().err
    partial = EventLog.load(out / "events_partial.jsonl")
    assert partial.records[0]["kind"] == "meta"
    assert not (out / "events.jsonl").exists()


def test_cli_run_any_engine_error_aborts_with_a_partial_log(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run", lambda config: misaddressed_engine(config).run())
    out = tmp_path / "out"
    assert main(["run", "task_suite", "--out", str(out)]) == 3
    assert "unknown destination address 3" in capsys.readouterr().err
    assert len(EventLog.load(out / "events_partial.jsonl").records) == 672
    assert not (out / "events.jsonl").exists()


def test_cli_suite_abort_names_the_trial_and_saves_its_partial_log(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.setattr(engine_module, "run", lambda config: misaddressed_engine(config).run())
    out = tmp_path / "out"
    assert main(["suite", "task_suite", "--trials", "2", "--out", str(out)]) == 3
    # task_suite's seed is 21, and its first trial aborts
    assert capsys.readouterr().err == ("suite aborted: scenario task_suite seed 21: "
                                       "AddressingError: unknown destination address 3\n")
    assert len(EventLog.load(out / "events_partial.jsonl").records) == 672
    assert not (out / "suite.txt").exists()


def test_cli_replay_round_trip(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "alert_no_vitals", "--out", str(out)]) == 0
    run_text = capsys.readouterr().out
    assert main(["replay", str(out / "events.jsonl")]) == 0
    assert capsys.readouterr().out == run_text


def test_cli_replay_malformed_log_exits_two(tmp_path, capsys):
    path = tmp_path / "junk.jsonl"
    path.write_text("not json\n")
    assert main(["replay", str(path)]) == 2


def meta_record(**fields):
    """A `meta` record with each of its fields, some set by `fields`."""
    return {"kind": "meta", "source": "engine", "time_ms": 0, "payload": {
        "scenario": "x", "seed": 0, "dt_ms": 10, "duration_ms": 0, "budgets_ms": {},
        "line_width": 0.02, **fields}}


@pytest.mark.parametrize("bad", [
    "[1, 2]",
    "5",
    '{"kind": "nav", "payload": {}, "source": "x", "time_ms": "10"}\n'
    '{"kind": "nav", "payload": {}, "source": "x", "time_ms": 20}',
    '{"kind": "nav", "payload": {}, "source": "x", "time_ms": true}',
    '{"kind": "nav", "payload": {}, "source": "x", "time_ms": NaN}',
    '{"kind": "script", "payload": [1], "source": "x", "time_ms": 20}',
    '{"kind": "meta", "payload": "budgets", "source": "x", "time_ms": 20}',
    '{"kind": "notification", "payload": 3, "source": "x", "time_ms": 20}',
], ids=["array", "scalar", "string-time", "bool-time", "nan-time", "script-payload",
        "meta-payload", "notification-payload"])
def test_cli_replay_malformed_record_shape_exits_two(tmp_path, capsys, bad):
    # a good record and a blank line come first, so the bad record is number 2
    good = json.dumps(meta_record())
    path = tmp_path / "shape.jsonl"
    path.write_text(f"{good}\n\n{bad}\n")
    assert main(["replay", str(path)]) == 2
    assert "malformed event log at record 2:" in capsys.readouterr().err


def test_cli_replay_refuses_a_meta_record_without_its_fields(tmp_path, capsys):
    # a meta record without its budgets would replay as a run with none: its
    # alert's verdict would read n/a, not pass
    log, _ = run(load_preset("alert_low_spo2"))
    path = tmp_path / "events.jsonl"
    log.save(path)
    assert main(["replay", str(path)]) == 0
    assert "alert_latency_ms[low_spo2]: 2320 (pass)\n" in capsys.readouterr().out
    meta = log.records[0]["payload"]
    # a saved log sorts each payload's keys
    keys = "a meta payload must have exactly the keys scenario, seed, dt_ms, duration_ms, " \
           "budgets_ms, line_width, not"
    for payload, message in [
            ({}, f"{keys} none"),
            ({k: v for k, v in meta.items() if k != "budgets_ms"},
             f"{keys} dt_ms, duration_ms, line_width, scenario, seed"),
            ({**meta, "extra": 1},
             f"{keys} budgets_ms, dt_ms, duration_ms, extra, line_width, scenario, seed"),
            ({**meta, "budgets_ms": [3000]}, "meta budgets_ms must be dict, not [3000]"),
            ({**meta, "seed": True}, "meta seed must be int, not True"),
            ({**meta, "line_width": None}, "meta line_width must be float, not None")]:
        log.records[0]["payload"] = payload
        log.save(path)
        assert main(["replay", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"cannot replay: malformed event log at record 0: {message}\n")


def _nav(**fields):
    payload = {"tag": "straight", "on_line": True, "drift_raw": 0.1,
               "drift_corrected": 0.05, "energy": 1.5, **fields}
    return {"kind": "nav", "payload": payload, "source": "navigation", "time_ms": 10}


def _packet_send(condition):
    return {"kind": "packet_send", "source": "channel", "time_ms": 10, "payload": {
        "src": 1, "dst": 2, "packet_kind": "status", "seq": 1, "condition": condition,
        "outcome": "dropped", "delay_ms": 0.0}}


@pytest.mark.parametrize("records, message", [
    ([_nav(energy="x")], "nav energy must be a number, not 'x'"),
    ([_nav(drift_raw="y")], "nav drift_raw must be a number, not 'y'"),
    ([meta_record(budgets_ms={"low_spo2": "x"}),
      {"kind": "script", "source": "script", "time_ms": 10,
       "payload": {"scenario_kind": "low_spo2"}},
      {"kind": "notification", "source": "leader", "time_ms": 20,
       "payload": {"cause": "low_spo2"}}],
     "budgets_ms[low_spo2] must be a number, not 'x'"),
    ([_packet_send("clear"), _packet_send(5)], "packet condition must be a string, not 5"),
], ids=["nav-energy", "nav-drift", "budget", "condition"])
def test_cli_replay_malformed_payload_field_exits_two(tmp_path, capsys, records, message):
    # the values are checked once a log, when the fold's result is taken
    path = tmp_path / "fields.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["replay", str(path)]) == 2
    assert f"malformed event log: {message}" in capsys.readouterr().err


def test_cli_suite_from_directory(tmp_path, capsys):
    scen = tmp_path / "scenarios"
    scen.mkdir()
    (scen / "a.yaml").write_text(
        "name: quick\nseed: 1\nduration_ms: 3000\n"
        "patient_script: [{time_ms: 500, kind: no_vitals, wearing: false}]\n")
    code = main(["suite", str(scen), "--trials", "2", "--out", str(tmp_path / "out")])
    assert code == 0
    assert "scenario quick (2 runs):" in capsys.readouterr().out
    assert (tmp_path / "out" / "suite.txt").exists()


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_cli_suite_trials_below_one_exits_two(capsys, trials):
    assert main(["suite", "default", "--trials", trials]) == 2
    assert capsys.readouterr() == ("", "invalid suite option: --trials must be at least 1\n")


@pytest.mark.parametrize("option, message", [
    (["--n", "5"], "n must be at least 10"),
    (["--noise-rate", "1.5"], "noise_rate must be in [0, 1)"),
    (["--noise-rate", "nan"], "noise_rate must be in [0, 1)"),
])
def test_cli_mlbench_invalid_option_exits_two(capsys, option, message):
    assert main(["mlbench", *option]) == 2
    assert capsys.readouterr() == ("", f"invalid mlbench option: {message}\n")


def test_cli_mlbench_reports_three_models(capsys):
    assert main(["mlbench", "--n", "300", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    for name in ("knn", "decision_tree", "random_forest"):
        assert f"model: {name}" in out
