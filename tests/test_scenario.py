"""Scenario schema: defaults, typo protection, and the shipped presets."""

import pytest

from wardsim.cli import main
from wardsim.rf_channel import LinkCondition
from wardsim.scenario import (DEFAULT_BUDGETS_MS, ScenarioValidationError,
                              load_preset, load_scenario, preset_names,
                              validate)
from wardsim.vitals import LatencyConfig, Posture


def test_empty_mapping_fills_documented_defaults():
    cfg = validate({})
    assert cfg.seed == 0
    assert cfg.dt_ms == 10
    assert cfg.duration_ms == 60000
    assert (cfg.leader_address, cfg.corridor_address,
            cfg.arm_address, cfg.wearable_address) == (1, 2, 3, 4)
    assert cfg.base_rpm == 50.0
    assert cfg.channel.pdr_clear == pytest.approx(0.96)
    assert cfg.channel.pdr_obstructed == pytest.approx(0.92)
    assert cfg.channel.rtt_ms == pytest.approx(37.0)
    assert cfg.budgets_ms == DEFAULT_BUDGETS_MS
    assert cfg.ir_enabled and cfg.correction_enabled
    assert cfg.flag_confirm_samples == 3
    # default start pose sits on the first waypoint facing along the course
    q = cfg.track.query(cfg.start_pose.x, cfg.start_pose.y)
    assert q.distance == pytest.approx(0.0, abs=1e-9)


def test_non_mapping_input_rejected():
    with pytest.raises(ScenarioValidationError):
        validate([1, 2, 3])


def test_unknown_keys_rejected_at_every_level():
    raw = {
        "tpyo": 1,
        "robots": {"corridor": {"adress": 5}},
        "channel": {"pdr_claer": 0.9, "range_m": [5.0, 8.0]},
        "patient_script": [{"time_ms": 0, "spoo2": 90}],
    }
    with pytest.raises(ScenarioValidationError) as exc:
        validate(raw)
    messages = "\n".join(exc.value.errors)
    for fragment in ("'tpyo'", "'adress'", "'pdr_claer'", "'range_m'", "'spoo2'"):
        assert fragment in messages


def test_all_errors_collected_not_just_the_first():
    raw = {"dt_ms": -5, "seed": "abc", "budgets_ms": {"bogus": 100},
           "flag_confirm_samples": 0}
    with pytest.raises(ScenarioValidationError) as exc:
        validate(raw)
    assert len(exc.value.errors) >= 4


def test_pdr_ordering_violation_is_reported():
    with pytest.raises(ScenarioValidationError) as exc:
        validate({"channel": {"pdr_clear": 0.5, "pdr_obstructed": 0.9}})
    assert "channel" in "\n".join(exc.value.errors)


def test_bool_is_not_accepted_as_int():
    with pytest.raises(ScenarioValidationError):
        validate({"seed": True})


@pytest.mark.parametrize("text, error", [
    ("seed: -1\n", "top.seed: must be nonnegative"),
    ("vitals_sample_period_ms: 15\n", "top.vitals_sample_period_ms: must be a multiple of dt_ms (10)"),
    ("fall_detector: {check_period_ms: 25}\n",
     "fall_detector.check_period_ms: must be a multiple of dt_ms (10)"),
    ("fall_detector: {check_period_ms: x}\n", "fall_detector.check_period_ms: expected"),
    ("budgets_ms: {fall: abc}\n", "budgets_ms.fall: expected"),
    ("exec_durations_ms: [1]\n", "exec_durations_ms: expected a mapping, got list"),
    ("exec_durations_ms: {patrol_check: 1.5}\n", "exec_durations_ms.patrol_check: expected"),
    ("fall_detector: [1]\n", "fall_detector: expected a mapping, got list"),
    ("robots: [1]\n", "robots: expected a mapping, got list"),
    ("robots: {corridor: 7}\n", "robots.corridor: expected a mapping, got int"),
    ("budgets_ms: 5\n", "budgets_ms: expected a mapping, got int"),
    ("schedule: 5\n", "schedule: expected a list, got int"),
    # a value of the wrong type is an error, never coerced by bool(), int() or float()
    ("patient_script: [{time_ms: 0, wearing: 'false'}]\n", "patient_script[0].wearing: expected"),
    ("correction: {enabled: 'no'}\n", "correction.enabled: expected"),
    ("track: {waypoints: [[0.2, 0.2], [1.2, 0.2], [1.2, 1.2]], tags: [straight, straight, straight],"
     " mat_size: [2.0, 2.0], closed: 'false'}\n", "track.closed: expected"),
    ("link_conditions: [{time_ms: 0, src: 1.9, dst: 2}]\n", "link_conditions[0].src: expected"),
    ("link_conditions: [{time_ms: 0, src: 1}]\n", "link_conditions[0].dst: required"),
    ("schedule: [{time_ms: 99.99, bed: 1, slot: 0}]\n", "schedule[0].time_ms: expected"),
    ("schedule: [{time_ms: 100, bed: 1, slot: 0, dose_note: 5}]\n", "schedule[0].dose_note: expected"),
    ("patient_script: [{time_ms: 0, spo2: '90'}]\n", "patient_script[0].spo2: expected"),
    ("track: {line_width: '0.02'}\n", "track.line_width: expected"),
    ("robots: {corridor: {start: {x: '1.0'}}}\n", "robots.corridor.start.x: expected"),
    ("name: 5\n", "top.name: expected"),
    ("timeout_policy: {max_retries: '3'}\n", "timeout_policy.max_retries: expected"),
    ("robots: {corridor: {geometry: {pitch: '0.01'}}}\n", "robots.corridor.geometry.pitch: expected"),
    ("track: {waypoints: [['0.2', 0.2], [1.2, 0.2], [1.2, 1.2]], tags: [straight, straight, straight],"
     " mat_size: [2.0, 2.0]}\n", "track.waypoints[0]: expected a list of two numbers"),
    ("track: {waypoints: [[true, 0.2], [1.2, 0.2], [1.2, 1.2]], tags: [straight, straight, straight],"
     " mat_size: [2.0, 2.0]}\n", "track.waypoints[0]: expected a list of two numbers"),
    ("track: {waypoints: [[0.2, 0.2], [1.2, 0.2], [1.2, 1.2]], tags: [straight, straight, straight],"
     " mat_size: [true, 2.0]}\n", "track.mat_size: expected a list of two numbers"),
    ("track: {waypoints: [[0.2, 0.2], [1.2, 0.2], [1.2, 1.2]], tags: [straight, 5, straight],"
     " mat_size: [2.0, 2.0]}\n", "track.tags[1]: expected str"),
    ("latency: {ai_flags: {fever: 1}}\n", "latency.ai_flags: expected a list of flag names"),
    # ranges the engine's own constructors reject, and values that would run
    # as a silently different scenario
    ("robots: {corridor: {slip_halfwidth: 0.5}}\n",
     "robots.corridor: slip_halfwidth must be in [0, 0.1]"),
    ("detect_threshold: 7.0\n", "top.detect_threshold: threshold must be in (0, 1)"),
    ("correction: {position_gain: 5.0}\n", "correction.position_gain: must be in [0, 1]"),
    ("link_conditions: [{src: 9, dst: 1, condition: obstructed}]\n",
     "link_conditions[0].src: 9 is not a robot address"),
], ids=["negative_seed", "vitals_period_off_tick", "fall_period_off_tick", "fall_period_not_int",
        "budget_not_int", "exec_durations_list", "exec_duration_float", "fall_detector_list",
        "robots_list", "robot_scalar", "budgets_scalar", "schedule_scalar",
        "wearing_string", "correction_enabled_string", "track_closed_string", "link_src_float",
        "link_dst_missing", "schedule_time_float", "dose_note_int", "spo2_string",
        "line_width_string", "start_x_string", "name_int", "max_retries_string",
        "geometry_pitch_string", "waypoint_string", "waypoint_bool", "mat_size_bool",
        "tag_int", "ai_flags_mapping", "slip_out_of_range", "threshold_out_of_range",
        "correction_gain_out_of_range", "link_end_not_a_robot"])
def test_scenario_that_would_fail_or_alias_at_run_time_exits_two(tmp_path, capsys, text, error):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(path)
    assert any(e.startswith(error) for e in exc.value.errors), exc.value.errors
    assert main(["run", str(path)]) == 2
    assert error in capsys.readouterr().err


def test_null_fields_take_their_defaults():
    track = {"waypoints": [[0.2, 0.2], [1.2, 0.2], [1.2, 1.2], [0.2, 1.2]],
             "tags": ["straight"] * 4}
    cfg = validate({"latency": {"ai_flags": None, "ai_decision_ms": None},
                    "track": dict(track, mat_size=None)})
    assert cfg.latency == LatencyConfig()
    assert cfg.track.mat_size == validate({"track": track}).track.mat_size


def test_duplicate_addresses_rejected():
    raw = {"robots": {"leader": {"address": 2}, "corridor": {"address": 2}}}
    with pytest.raises(ScenarioValidationError) as exc:
        validate(raw)
    assert any("unique" in e for e in exc.value.errors)


def test_track_default_shorthand_and_inline_track():
    cfg = validate({"track": "default"})
    assert cfg.track.closed
    inline = validate({"track": {
        "waypoints": [[0.2, 0.2], [1.2, 0.2], [1.2, 1.2], [0.2, 1.2]],
        "tags": ["straight"] * 4,
        "mat_size": [2.0, 2.0],
    }})
    assert inline.track.length == pytest.approx(4.0)


def test_patient_script_parsing_and_sorting():
    cfg = validate({"patient_script": [
        {"time_ms": 5000, "kind": "low_spo2", "spo2": 87},
        {"time_ms": 1000, "posture": "fallen", "kind": "fall"},
    ]})
    assert [e.time_ms for e in cfg.patient_script] == [1000, 5000]
    assert cfg.patient_script[0].posture is Posture.FALLEN
    assert cfg.patient_script[1].spo2 == 87.0


def test_unknown_scenario_kind_rejected():
    with pytest.raises(ScenarioValidationError):
        validate({"patient_script": [{"time_ms": 0, "kind": "earthquake"}]})


def test_link_condition_events():
    cfg = validate({"link_conditions": [
        {"time_ms": 2000, "src": 1, "dst": 2, "condition": "obstructed"}]})
    (ev,) = cfg.link_conditions
    assert ev.condition is LinkCondition.OBSTRUCTED
    assert (ev.src, ev.dst, ev.time_ms) == (1, 2, 2000)


def test_schedule_entries_sorted_by_time():
    cfg = validate({"schedule": [
        {"time_ms": 9000, "bed": 5, "slot": 1},
        {"time_ms": 4000, "bed": 6, "slot": 2},
    ]})
    assert [e.time_ms for e in cfg.schedule.entries] == [4000, 9000]


def test_shipped_presets_all_validate():
    names = preset_names()
    assert {"default", "alert_fall", "alert_low_spo2", "alert_high_temp",
            "alert_no_vitals", "task_suite"} <= set(names)
    for name in names:
        cfg = load_preset(name)
        assert cfg.dt_ms > 0


def test_unknown_preset_raises():
    with pytest.raises(FileNotFoundError):
        load_preset("does_not_exist")


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "scn.yaml"
    path.write_text("seed: 7\nduration_ms: 1000\n")
    cfg = load_scenario(path)
    assert cfg.seed == 7
    assert cfg.duration_ms == 1000
