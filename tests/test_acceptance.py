"""Acceptance gate: ten release criteria, one test (and one pass/fail line
under -v) each. Tolerances and frozen figures are stated inline.

Each criterion's `report()` line, printed under -s, is pinned, figures and all, in
`tests/golden/acceptance.txt`: the acceptance output changes only together
with a change that alters behaviour on purpose, and that change says why.
To regenerate the file:

    PYTHONPATH=src python -m pytest -q -s tests/test_acceptance.py \
        | grep -o "criterion [0-9]* (.*" > tests/golden/acceptance.txt
"""

import dataclasses
import math
from pathlib import Path

import numpy as np

from _channel import measure_pdr, measure_rtt
from _exchange import run_lossy_exchange
from _odometry import angles_to_arcs
from _triage import class_from_probs
from test_golden import _numpy_hint
from wardsim.engine import run, run_suite
from wardsim.kinematics import ChassisParams, Pose, normalize_angle, pose_update
from wardsim.metrics import EventLog, replay_metrics
from wardsim.ml import DecisionTree, KnnClassifier, RandomForest, evaluate, \
    generate_dataset
from wardsim.protocol import TERMINAL_STATES
from wardsim.rf_channel import Channel, ChannelConfig, LinkCondition, Packet, PacketKind
from wardsim.scenario import load_preset, validate
from wardsim.vitals import Flag, TriageClass, Vitals, classify


# the committed report, one line a criterion in criterion order
PINNED = (Path(__file__).parent / "golden" / "acceptance.txt").read_text().splitlines()


def report(number: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}" + (
        f" [{detail}]" if detail else "")
    print(line)
    assert ok, f"criterion {number} ({name}) failed: {detail}"
    assert line == PINNED[number - 1], \
        f"the report moved from the pinned {PINNED[number - 1]!r}{_numpy_hint()}"


def test_criterion_01_channel_fidelity_soak():
    """Measured PDR within +-0.01 of 0.96 clear / 0.92 obstructed and mean
    command round trip within 37 +- 1 ms, in under 5 s of wall time."""
    rng = np.random.default_rng(0)
    ch = Channel(ChannelConfig(), [1, 2], rng)
    sends = []
    t = 0.0
    for phase, cond in ((0, LinkCondition.CLEAR), (1, LinkCondition.OBSTRUCTED)):
        ch.set_condition(1, 2, cond)
        ch.set_condition(2, 1, cond)
        for i in range(20_000):
            seq = phase * 20_000 + i
            sent = ch.send(Packet(1, 2, seq, PacketKind.COMMAND, {}, t))
            sends.append((t, sent))
            if sent["outcome"] == "delivered":
                # the far end acks the instant the command arrives
                acked_at = t + sent["delay_ms"]
                sends.append((acked_at, ch.send(Packet(2, 1, seq, PacketKind.ACK, {}, acked_at))))
            t += 50.0
    pdr = measure_pdr(sends)
    rtt_mean, rtt_std = measure_rtt(sends)
    ok = (abs(pdr[LinkCondition.CLEAR] - 0.96) <= 0.01
          and abs(pdr[LinkCondition.OBSTRUCTED] - 0.92) <= 0.01
          and abs(rtt_mean - 37.0) <= 1.0)
    report(1, "channel fidelity", ok,
           f"pdr_clear={pdr[LinkCondition.CLEAR]:.4f} "
           f"pdr_obstructed={pdr[LinkCondition.OBSTRUCTED]:.4f} "
           f"rtt={rtt_mean:.2f}+-{rtt_std:.2f} ms")


def test_criterion_02_protocol_settles_under_loss():
    """1000 loss patterns across delivery ratios 0.5-1.0: every task reaches
    a terminal state within the liveness bound and no task body ever runs
    twice, in under 30 s of wall time."""
    pdrs = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    ok = True
    detail = ""
    for seed in range(1000):
        leader, followers, settled = run_lossy_exchange(seed, pdrs[seed % len(pdrs)])
        if not settled:
            ok, detail = False, f"seed {seed} never settled"
            break
        if not all(t.state in TERMINAL_STATES for t in leader.tasks.values()):
            ok, detail = False, f"seed {seed} left a non-terminal task"
            break
        for fol in followers.values():
            if any(n != 1 for n in fol.execution_count.values()):
                ok, detail = False, f"seed {seed} executed a task twice"
                break
    report(2, "protocol liveness and exactly-once", ok,
           detail or "1000 loss patterns settled")


def test_criterion_03_odometry_matches_oracles():
    """Pose update reproduces the hand-worked encoder case to 1e-12, drives
    straight lines exactly, and closes a full circle within 0.5 %."""
    params = ChassisParams()
    arcs = angles_to_arcs(math.pi, math.pi / 2, params)
    pose = pose_update(Pose(0, 0, 0), *arcs, params)
    hand_ok = (abs(pose.x - 0.07019587279983032) < 1e-12
               and abs(pose.y - 0.008308229048451141) < 1e-12
               and abs(pose.theta - 0.23561944901923446) < 1e-12)

    straight = Pose(0, 0, 0)
    for _ in range(10_000):
        straight = pose_update(straight, 0.001, 0.001, params)
    straight_ok = abs(straight.y) < 1e-12 and abs(straight.x - 10.0) < 1e-9

    dth = math.radians(5.0)
    dsr = 0.01 + dth * params.axle_length_L / 2
    dsl = 0.01 - dth * params.axle_length_L / 2
    circle = Pose(0, 0, 0)
    for _ in range(72):
        circle = pose_update(circle, dsr, dsl, params)
    closure = math.hypot(circle.x, circle.y)
    circle_ok = closure < 0.005 * (0.01 * 72) \
        and abs(normalize_angle(circle.theta)) < 1e-9

    report(3, "odometry oracles", hand_ok and straight_ok and circle_ok,
           f"circle closure {closure:.2e} m")


def test_criterion_04_ir_correction_halves_drift():
    """Over 20 seeds the mean final pose-estimate error with line-referenced
    correction is at most half the dead-reckoning-only error."""
    corrected, dr_only = [], []
    for seed in range(20):
        _, m = run(validate({"seed": seed, "patient_script": []}))
        corrected.append(m.drift_final_corrected_m)
        _, m = run(validate({"seed": seed, "patient_script": [],
                             "ir_enabled": False}))
        dr_only.append(m.drift_final_raw_m)
    mc = sum(corrected) / len(corrected)
    md = sum(dr_only) / len(dr_only)
    ratio = mc / md
    report(4, "drift reduction", ratio <= 0.5,
           f"corrected {mc:.3f} m vs dead-reckoning {md:.3f} m, ratio {ratio:.3f}")


def test_criterion_05_line_kept_on_straights_and_turns():
    """Over 10 seeds the corridor robot stays within one line-width of the
    course at least 89 % of ticks on straights and 84 % on turns."""
    straights, turns = [], []
    for seed in range(10):
        _, m = run(validate({"seed": 100 + seed, "patient_script": []}))
        straights.append(m.line_on_track["straight"])
        turns.append(m.line_on_track["turn"])
    ok = min(straights) >= 0.89 and min(turns) >= 0.84
    report(5, "line keeping", ok,
           f"straights min {min(straights):.3f}, turns min {min(turns):.3f}")


def test_criterion_06_task_suite_success_rate():
    """50 trials of the mixed scheduled/emergency scenario complete at least
    85 % of all settled tasks."""
    result = run_suite([load_preset("task_suite")], trials=50)
    (row,) = result.rows
    ok = row.success_rate is not None and row.success_rate >= 0.85
    report(6, "task success rate", ok,
           f"{row.success_rate:.2%} ({row.tasks_completed} completed, "
           f"{row.tasks_escalated} escalated)")


def test_criterion_07_alert_latency_verdicts():
    """The four scripted incidents reproduce the reference outcome pattern:
    fall, low-SpO2 and sensor-removal alerts inside budget; the high-fever
    alert (AI decision path) over its 4 s budget."""
    expected = {
        "alert_fall": ("fall", "pass"),
        "alert_low_spo2": ("low_spo2", "pass"),
        "alert_high_temp": ("high_temp", "fail"),
        "alert_no_vitals": ("no_vitals", "pass"),
    }
    results = {}
    ok = True
    for preset, (kind, want) in expected.items():
        _, m = run(load_preset(preset))
        got = m.alert_verdicts.get(kind)
        results[kind] = (m.alert_latency_ms.get(kind), got)
        ok = ok and got == want
    detail = ", ".join(f"{k}={lat}ms/{v}" for k, (lat, v) in results.items())
    report(7, "alert latency table", ok, detail)


def test_criterion_08_threshold_triage_exact():
    """Exact classifications at the reference operating points."""
    a = classify(Vitals(0, True, spo2=87.0, bpm=72.0, temp=36.8))
    b = classify(Vitals(0, True, spo2=98.0, bpm=72.0, temp=39.2))
    # an ML classifier's probabilities pick the class by argmax
    c = class_from_probs((0.008, 0.990, 0.002))
    ok = (a.flags == frozenset({Flag.LOW_SPO2})
          and a.triage_class is TriageClass.MONITOR_AT_HOME
          and Flag.FEVER in b.flags
          and c is TriageClass.MONITOR_AT_HOME)
    report(8, "threshold triage", ok)


def test_criterion_09_ml_classifiers():
    """1-NN and the unbounded tree memorize clean data; all probability
    outputs lie on the simplex; the frozen forest configuration scores at
    least 0.85 held-out accuracy (measured 0.9196)."""
    clean = generate_dataset(n=400, noise_rate=0.0, seed=3)
    knn = KnnClassifier(k=1).fit(clean.features, clean.labels)
    tree = DecisionTree(max_depth=None, min_leaf=1).fit(clean.features, clean.labels)
    memorize_ok = all(
        model.predict(x)[0] == y
        for model in (knn, tree)
        for x, y in zip(clean.features, clean.labels))
    simplex_ok = all(
        abs(p.sum() - 1.0) < 1e-9 and (p >= 0).all()
        for model in (knn, tree)
        for p in (model.predict_proba(x) for x in clean.features[:100]))
    noisy = generate_dataset(n=1000, noise_rate=0.05, seed=0)
    forest = RandomForest(n_trees=50, max_depth=8, min_leaf=5,
                          feature_subsample=2, seed=0)
    accuracy = evaluate(forest, noisy, split_seed=0).accuracy
    ok = memorize_ok and simplex_ok and accuracy >= 0.85
    report(9, "ml triage", ok, f"forest held-out accuracy {accuracy:.4f}")


def test_criterion_10_determinism_and_replay(tmp_path):
    """A (scenario, seed) pair yields byte-identical event logs, and metrics
    recomputed from a saved log equal the live metrics."""
    cfg = load_preset("alert_low_spo2")
    log_a, metrics_a = run(cfg)
    log_b, _ = run(cfg)
    identical = log_a.to_jsonl() == log_b.to_jsonl()
    path = tmp_path / "events.jsonl"
    log_a.save(path)
    replay_equal = replay_metrics(EventLog.load(path)) == metrics_a
    diverges = run(dataclasses.replace(cfg, seed=cfg.seed + 1))[0].to_jsonl() \
        != log_a.to_jsonl()
    report(10, "determinism and replay", identical and replay_equal and diverges)
