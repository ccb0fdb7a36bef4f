"""Scenario schema: defaults, typo protection, and the shipped presets."""

import dataclasses
import enum
import math
import pickle
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wardsim import ConfigurationError, InvariantError
from wardsim.cli import main
from wardsim.engine import Engine, EngineAbort, run
from wardsim.kinematics import ChassisParams, Pose
from wardsim.line_following import IrGeometry, LineFollower, PidGains
from wardsim.protocol import DEFAULT_EXEC_DURATIONS_MS, ScheduleEntry, TaskKind, TimeoutPolicy
from wardsim.rf_channel import ChannelConfig, LinkCondition
from wardsim.scenario import (SCENARIO_KINDS, Battery, Budgets, Correction, ExecDurations,
                              PatientEvent, Robots, ScenarioConfig, ScenarioValidationError,
                              load_preset, load_scenario, preset_names, validate)
from wardsim.track import Track
from wardsim.vitals import FallDetectorModel, Flag, LatencyConfig, Posture, SensorNoiseModel


def test_empty_mapping_fills_documented_defaults():
    cfg = validate({})
    assert cfg.seed == 0
    assert cfg.dt_ms == 10
    assert cfg.duration_ms == 60000
    assert cfg.robots.addresses == (1, 2, 3, 4)
    assert cfg.robots.corridor.base_rpm == 50.0
    assert cfg.channel.pdr_clear == pytest.approx(0.96)
    assert cfg.channel.pdr_obstructed == pytest.approx(0.92)
    assert cfg.channel.rtt_ms == pytest.approx(37.0)
    assert cfg.budgets_ms == Budgets()
    assert (cfg.budgets_ms.fall, cfg.budgets_ms.battery_low) == (3000, None)
    assert cfg.ir_enabled and cfg.correction.enabled
    assert cfg.flag_confirm_samples == 3
    # default start pose sits on the first waypoint facing along the course
    q = cfg.track.query(cfg.start_pose.x, cfg.start_pose.y)
    assert q.distance == pytest.approx(0.0, abs=1e-9)
    # each default is written once, in the scenario's dataclasses, which the
    # engine passes on whole: the slip half-widths in Corridor alone (the
    # MotionSimulator has no defaults), the execution times in
    # protocol.DEFAULT_EXEC_DURATIONS_MS (a Follower has none), and
    # LineFollower's defaults are the line_following constants that Corridor
    # and ScenarioConfig read
    assert cfg.robots == Robots()
    assert cfg.battery == Battery()
    assert cfg.correction == Correction()
    assert cfg.fall_detector == FallDetectorModel()
    corridor, follower = cfg.robots.corridor, LineFollower()
    assert (follower.gains, follower.geometry, follower.base_rpm) \
        == (corridor.gains, corridor.geometry, corridor.base_rpm)


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
    # a field that fails to read leaves its section, here the top level,
    # unbuilt, so the section's own checks do not run
    assert exc.value.errors == ["top.seed: expected int, got str", "budgets_ms: unknown key 'bogus'"]
    with pytest.raises(ScenarioValidationError) as exc:
        validate({**raw, "seed": 0})
    # the top level's own checks are one entry, as each section's are
    assert exc.value.errors == [
        "budgets_ms: unknown key 'bogus'",
        "top level: dt_ms must be positive; flag_confirm_samples must be at least 1"]


@pytest.mark.parametrize("raw, error", [
    # checked against the default addresses, the link's end would not be a robot
    ({"robots": {"leader": {"address": 5}, "corridor": {"address": 5}},
      "link_conditions": [{"src": 5, "dst": 1}]}, "robots: addresses must be unique"),
    # checked against the default closed track, two tags would be too few
    ({"track": {"waypoints": [[0.2, 0.2], [1.2, 0.2], [1.2, 1.2]], "tags": ["straight", "turn"],
                "closed": "no"}}, "track.closed: expected bool, got str"),
    # checked against the default pdr_clear, 0.97 would be out of order
    ({"channel": {"pdr_clear": "x", "pdr_obstructed": 0.97}},
     "channel.pdr_clear: expected float, got str"),
], ids=["duplicate_addresses", "track_closed_string", "pdr_clear_string"])
def test_a_failed_part_adds_no_error_from_the_default_in_its_place(raw, error):
    with pytest.raises(ScenarioValidationError) as exc:
        validate(raw)
    assert exc.value.errors == [error]


def test_pdr_ordering_violation_is_reported():
    with pytest.raises(ScenarioValidationError) as exc:
        validate({"channel": {"pdr_clear": 0.5, "pdr_obstructed": 0.9}})
    assert "channel" in "\n".join(exc.value.errors)


def test_bool_is_not_accepted_as_int():
    with pytest.raises(ScenarioValidationError):
        validate({"seed": True})


@pytest.mark.parametrize("text, error", [
    ("seed: -1\n", "top level: seed must be nonnegative"),
    ("vitals_sample_period_ms: 15\n",
     "top level: vitals_sample_period_ms must be a multiple of dt_ms (10)"),
    ("fall_detector: {check_period_ms: 25}\n",
     "top level: fall_detector.check_period_ms must be a multiple of dt_ms (10)"),
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
    # an event before time 0 would run at the first tick
    ("schedule: [{time_ms: -5, bed: 1, slot: 0}]\n",
     "top level: schedule[0].time_ms must be nonnegative"),
    ("patient_script: [{time_ms: -100, spo2: 80}]\n",
     "top level: patient_script[0].time_ms must be nonnegative"),
    ("link_conditions: [{time_ms: -1, src: 1, dst: 2, condition: obstructed}]\n",
     "top level: link_conditions[0].time_ms must be nonnegative"),
    ("schedule: [{time_ms: 100, bed: 1, slot: 0, dose_note: 5}]\n", "schedule[0].dose_note: expected"),
    ("patient_script: [{time_ms: 0, spo2: '90'}]\n", "patient_script[0].spo2: expected"),
    ("patient_script: [{time_ms: 0, spo2: -80, bpm: 5000}]\n",
     "patient_script[0]: spo2 must be in [50, 100], got -80.0; bpm must be in [20, 220]"),
    ("patient_script: [{time_ms: 0, temp: 33.9}]\n", "patient_script[0]: temp must be in [34, 43]"),
    ("track: {line_width: '0.02'}\n", "track.line_width: expected"),
    ("track: {}\n", "track.waypoints: required"),
    # a point or a size is two numbers, each read as any other number is
    (f"track: {{waypoints: [[0.2, 0.2], [1.2, 0.2], [1.2, 1.2]], tags: [straight, straight, straight],"
     f" mat_size: [{10 ** 400}, 2.0]}}\n", "track.mat_size[0]: must be a finite number"),
    ("track: {waypoints: [[0.2, .nan], [1.2, 0.2], [1.2, 1.2]], tags: [straight, straight, straight],"
     " mat_size: [2.0, 2.0]}\n", "track.waypoints[0][1]: must be a finite number"),
    ("track: defualt\n", "track: expected 'default' or a mapping"),
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
    ("correction: {position_gain: 5.0}\n", "correction: position_gain must be in [0, 1]"),
    ("link_conditions: [{src: 9, dst: 1, condition: obstructed}]\n",
     "top level: link_conditions[0].src must be a robot address, got 9"),
    # a number that is not finite, read anywhere in the schema
    ("channel: {one_way_jitter_ms: .inf}\n", "channel.one_way_jitter_ms: must be a finite number"),
    ("robots: {corridor: {chassis: {wheel_radius_r: .inf}}}\n",
     "robots.corridor.chassis.wheel_radius_r: must be a finite number"),
    ("channel: {rtt_ms: .nan}\n", "channel.rtt_ms: must be a finite number"),
    ("robots: {corridor: {base_rpm: .nan}}\n", "robots.corridor.base_rpm: must be a finite number"),
    # an int beyond the float maximum, which the engine's float arithmetic
    # would overflow on
    (f"dt_ms: {10 ** 400}\nduration_ms: 0\nvitals_sample_period_ms: 0\n"
     "fall_detector: {check_period_ms: 0}\n", "top.dt_ms: must be a finite number"),
    (f"robots: {{corridor: {{chassis: {{ticks_per_rev_C: {10 ** 400}}}}}}}\n",
     "robots.corridor.chassis.ticks_per_rev_C: must be a finite number"),
    (f"latency: {{vitals_transmit_ms: {10 ** 400}}}\n",
     "latency.vitals_transmit_ms: must be a finite number"),
    (f"latency: {{fall_path_ms: {10 ** 400}}}\n", "latency.fall_path_ms: must be a finite number"),
    (f"budgets_ms: {{fall: {-10 ** 400}}}\n", "budgets_ms.fall: must be a finite number"),
    # the IR array reports detections, with no levels, noise or threshold to
    # set: a key that would set one is unknown, not silently ignored
    ("robots: {corridor: {geometry: {v_max: -5.0}}}\n",
     "robots.corridor.geometry: unknown key 'v_max'"),
    ("detect_threshold: 0.5\n", "top level: unknown key 'detect_threshold'"),
    ("robots: {corridor: {geometry: {low_level: 0.1}}}\n",
     "robots.corridor.geometry: unknown key 'low_level'"),
    ("robots: {corridor: {geometry: {high_level: 0.9}}}\n",
     "robots.corridor.geometry: unknown key 'high_level'"),
    ("robots: {corridor: {geometry: {noise_frac: 0.03}}}\n",
     "robots.corridor.geometry: unknown key 'noise_frac'"),
    # sensors laid out right to left steer the robot away from the line
    ("robots: {corridor: {geometry: {pitch: -0.015}}}\n",
     "robots.corridor.geometry: pitch must be nonnegative and finite"),
    # values that would run as a silently different scenario
    ("timeout_policy: {timeout_ms: 0}\n", "timeout_policy: timeout_ms must be positive"),
    ("timeout_policy: {timeout_ms: -5}\n", "timeout_policy: timeout_ms must be positive"),
    ("timeout_policy: {exec_timeout_ms: 0}\n", "timeout_policy: exec_timeout_ms must be positive"),
    ("timeout_policy: {exec_timeout_ms: -5}\n",
     "timeout_policy: exec_timeout_ms must be positive"),
    ("timeout_policy: {max_retries: -1}\n", "timeout_policy: max_retries must be nonnegative"),
    ("vitals_sample_period_ms: -10\n", "top level: vitals_sample_period_ms must be nonnegative"),
    ("fall_detector: {check_period_ms: -100}\n",
     "fall_detector: check_period_ms must be nonnegative"),
    ("exec_durations_ms: {patrol_check: -1}\n",
     "top level: exec_durations_ms.patrol_check must be nonnegative"),
    ("budgets_ms: {fall: -1}\n", "top level: budgets_ms.fall must be nonnegative"),
    ("battery: {budget_units: -1}\n", "battery: budget_units must be nonnegative"),
    ("battery: {low_speed_factor: -2.0}\n", "battery: low_speed_factor must be nonnegative"),
    # physical bounds: each value below validated, then overflowed the pose
    # and aborted the run
    ("battery: {low_speed_factor: 1.0e+308, budget_units: 0.5}\n",
     "battery: low_speed_factor must be at most 1"),
    ("robots: {corridor: {chassis: {wheel_radius_r: 1.7976931348623157e+308}}}\n",
     "robots.corridor.chassis: wheel_radius_r must be at most 1 (m)"),
    ("duration_ms: 25\n", "top level: duration_ms must be a multiple of dt_ms (10)"),
    # a uniform draw's span, twice the bound, must be a finite float
    ("channel: {one_way_jitter_ms: 1.0e+308}\n",
     "channel: one_way_jitter_ms must be at most half the float maximum"),
], ids=["negative_seed", "vitals_period_off_tick", "fall_period_off_tick", "fall_period_not_int",
        "budget_not_int", "exec_durations_list", "exec_duration_float", "fall_detector_list",
        "robots_list", "robot_scalar", "budgets_scalar", "schedule_scalar",
        "wearing_string", "correction_enabled_string", "track_closed_string", "link_src_float",
        "link_dst_missing", "schedule_time_float", "schedule_time_negative",
        "script_time_negative", "link_time_negative", "dose_note_int", "spo2_string",
        "spo2_bpm_out_of_range", "temp_out_of_range",
        "line_width_string", "track_empty", "mat_size_huge", "waypoint_nan",
        "track_name_misspelt", "start_x_string", "name_int", "max_retries_string",
        "geometry_pitch_string", "waypoint_string", "waypoint_bool", "mat_size_bool",
        "tag_int", "ai_flags_mapping", "slip_out_of_range",
        "correction_gain_out_of_range", "link_end_not_a_robot", "jitter_inf",
        "wheel_radius_inf", "rtt_nan", "base_rpm_nan", "dt_huge", "ticks_per_rev_huge",
        "vitals_transmit_huge", "fall_path_huge", "budget_huge_negative", "v_max_negative",
        "detect_threshold_removed", "low_level_removed", "high_level_removed",
        "noise_frac_removed", "geometry_pitch_negative", "timeout_zero", "timeout_negative", "exec_timeout_zero",
        "exec_timeout_negative", "max_retries_negative", "vitals_period_negative",
        "fall_period_negative", "exec_duration_negative", "budget_negative",
        "battery_budget_negative", "low_speed_factor_negative", "low_speed_factor_huge",
        "wheel_radius_huge", "duration_off_tick",
        "jitter_span_overflows"])
def test_scenario_that_would_fail_or_alias_at_run_time_exits_two(tmp_path, capsys, text, error):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(path)
    assert any(e.startswith(error) for e in exc.value.errors), exc.value.errors
    assert main(["run", str(path)]) == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("raw, error", [
    ({"channel": {"pdr_clear": 0.5, "pdr_obstructed": 0.9, "rtt_ms": -1}},
     "channel: require 0 < pdr_obstructed <= pdr_clear <= 1; rtt_ms must be positive"),
    ({"channel": {"rtt_ms": 0, "one_way_jitter_ms": -1}},
     "channel: rtt_ms must be positive; one_way_jitter_ms must be nonnegative"),
    ({"timeout_policy": {"timeout_ms": 0, "exec_timeout_ms": 0, "max_retries": -1}},
     "timeout_policy: timeout_ms must be positive; exec_timeout_ms must be positive;"
     " max_retries must be nonnegative"),
    ({"battery": {"budget_units": -1, "low_speed_factor": -1}},
     "battery: budget_units must be nonnegative; low_speed_factor must be nonnegative"),
    ({"robots": {"corridor": {"gains": {"kd": -1, "integral_clamp": 0}}}},
     "robots.corridor.gains: kd must be nonnegative; integral_clamp must be positive"),
    ({"robots": {"corridor": {"slip_halfwidth": 0.5, "slip_bias_halfwidth": -0.1}}},
     "robots.corridor: slip_halfwidth must be in [0, 0.1]; slip_bias_halfwidth must be in [0, 0.1]"),
    ({"fall_detector": {"sensitivity_fallen": 1.5, "sensitivity_standing": -0.5}},
     "fall_detector: sensitivity_fallen must be a probability;"
     " sensitivity_standing must be a probability"),
    ({"latency": {"vitals_transmit_ms": -1, "fall_path_ms": -1}},
     "latency: vitals_transmit_ms must be nonnegative; fall_path_ms must be nonnegative"),
    ({"patient_script": [{"kind": "nap", "spo2": 20}]},
     "patient_script[0]: unknown scenario kind 'nap'; spo2 must be in [50, 100], got 20.0"),
    ({"noise": {"spo2_tol": -1, "bpm_tol": -1, "temp_mean_abs_err": -1}},
     "noise: spo2_tol must be nonnegative; bpm_tol must be nonnegative;"
     " temp_mean_abs_err must be nonnegative"),
    ({"robots": {"corridor": {"chassis": {"wheel_radius_r": -1, "axle_length_L": -1}}}},
     "robots.corridor.chassis: wheel_radius_r must be positive; axle_length_L must be positive"),
    ({"track": {"waypoints": [[0.2, 0.2]], "tags": [], "line_width": 0.0, "mat_size": [-1.0, 2.0]}},
     "track: track needs at least two 2-D waypoints; line_width must be positive;"
     " mat_size must be two positive finite numbers"),
], ids=["channel_pdr_and_rtt", "channel_rtt_and_jitter", "timeout_policy", "battery", "gains",
        "slip", "fall_detector", "latency", "patient_event", "sensor_noise",
        "chassis", "track"])
def test_a_section_reports_every_check_it_fails(raw, error):
    with pytest.raises(ScenarioValidationError) as exc:
        validate(raw)
    assert error in exc.value.errors, exc.value.errors


# configs that no validate() reads: None where the config is refused, else the
# low-SpO2 alert's (latency ms, verdict). Each comment says how the config
# would run unchecked
@pytest.mark.parametrize("build, alert", [
    # unsorted, the recovery at 6 s would apply at the onset, and no alert come in 8 s
    (lambda cfg: dataclasses.replace(cfg, patient_script=[
        PatientEvent(6000, spo2=98), PatientEvent(1000, "low_spo2", spo2=87)]), (2330, "pass")),
    # ZeroDivisionError in the tick loop
    (lambda cfg: dataclasses.replace(cfg, dt_ms=0), None),
    # numpy's ValueError from Engine.__init__
    (lambda cfg: dataclasses.replace(cfg, seed=-1), None),
    # the corrected odometry estimate diverges
    (lambda cfg: dataclasses.replace(cfg, correction=Correction(position_gain=5.0)), None),
    # no camera check, so a fall raises no alert
    (lambda cfg: dataclasses.replace(cfg, fall_detector=FallDetectorModel(check_period_ms=-100)),
     None),
], ids=["unsorted_script", "dt_zero", "negative_seed", "gain_of_five", "negative_camera_period"])
def test_a_config_built_in_code_is_refused_or_runs_in_time_order(build, alert):
    base = dataclasses.replace(load_preset("alert_low_spo2"), duration_ms=8000)
    if alert is None:
        with pytest.raises(ConfigurationError):
            build(base)
        return
    log, metrics = run(build(base))
    assert [r["time_ms"] for r in log.records if r["kind"] == "script"] == [1000, 6000]
    assert (metrics.alert_latency_ms["low_spo2"], metrics.alert_verdicts["low_spo2"]) == alert


def _square_track(**kw):
    return Track([(0, 0), (1, 0), (1, 1), (0, 1)], ["straight"] * 4, mat_size=(2.0, 2.0), **kw)


# the schema refuses a non-finite number, so these are reachable only from a
# config built in code; each check is written so that NaN fails it
@pytest.mark.parametrize("build, key", [
    (ChannelConfig, "pdr_clear"), (ChannelConfig, "pdr_obstructed"), (ChannelConfig, "rtt_ms"),
    (ChannelConfig, "one_way_jitter_ms"),
    (TimeoutPolicy, "timeout_ms"), (TimeoutPolicy, "exec_timeout_ms"),
    (TimeoutPolicy, "max_retries"),
    (LatencyConfig, "vitals_transmit_ms"), (LatencyConfig, "ai_decision_ms"),
    (LatencyConfig, "threshold_decision_ms"), (LatencyConfig, "fall_path_ms"),
    (Battery, "budget_units"), (Battery, "low_speed_factor"),
    (Correction, "position_gain"), (Correction, "heading_gain"),
    (FallDetectorModel, "check_period_ms"),
    (PidGains, "kp"), (PidGains, "ki"), (PidGains, "kd"), (PidGains, "integral_clamp"),
    (ChassisParams, "wheel_radius_r"), (ChassisParams, "axle_length_L"),
    (ChassisParams, "ticks_per_rev_C"),
    (SensorNoiseModel, "spo2_tol"), (SensorNoiseModel, "bpm_tol"),
    (SensorNoiseModel, "temp_mean_abs_err"),
    (IrGeometry, "pitch"), (IrGeometry, "forward_offset"),
    (_square_track, "line_width"),
], ids=lambda v: v if isinstance(v, str) else getattr(v, "__name__", None))
def test_a_nan_parameter_is_refused(build, key):
    with pytest.raises(ConfigurationError):
        build(**{key: math.nan})


def test_patient_values_at_the_model_ranges_validate():
    cfg = validate({"patient_script": [{"spo2": 50, "bpm": 220, "temp": 34.0},
                                       {"spo2": 100.0, "bpm": 20, "temp": 43}]})
    assert [(e.spo2, e.bpm, e.temp) for e in cfg.patient_script] \
        == [(50.0, 220.0, 34.0), (100.0, 20.0, 43.0)]


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


def test_the_default_track_is_built_once_and_read_only():
    track = validate({"track": "default"}).track
    assert track is validate({}).track is ScenarioConfig().track is load_preset("default").track
    with pytest.raises(dataclasses.FrozenInstanceError):
        track.waypoints = ()
    with pytest.raises(TypeError):
        track.waypoints[0][0] = 1.0


def test_equal_inputs_give_equal_configs_that_survive_a_pickle_round_trip():
    raw = {"track": _SQUARE, "schedule": [{"time_ms": 9000, "bed": 5}, {"time_ms": 4000, "bed": 6}]}
    a, b = validate(raw), validate(raw)
    assert a == b and a.track is not b.track and hash(a.track) == hash(b.track)
    assert hash(a) == hash(b)
    for name in preset_names():
        cfg = load_preset(name)
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg, name
        # a config is a value, so it can key a cache or sit in a set
        assert hash(copy) == hash(cfg) == hash(load_preset(name)), name


def test_a_built_config_cannot_be_changed():
    cfg = load_preset("alert_low_spo2")
    with pytest.raises(AttributeError):
        cfg.patient_script.append(PatientEvent(-5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.track.waypoints = ()
    # a table would skip its nonnegative check; its pickle stays read-only
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg
    for each in (cfg, copy, dataclasses.replace(cfg, budgets_ms=Budgets(fall=10))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            each.budgets_ms.fall = -1
        with pytest.raises(dataclasses.FrozenInstanceError):
            each.exec_durations_ms.arm_dispense = -1
    assert cfg.budgets_ms.fall == 3000 and cfg.exec_durations_ms.arm_dispense == 2000


def test_a_table_set_in_code_means_what_it_means_in_a_file():
    # each key left out keeps its default, in code as in a file. The run
    # carries out a medication round and a patrol check, so it uses every
    # execution time, and its meta record logs the budgets
    events = {"duration_ms": 12_000, "schedule": [{"time_ms": 500}],
              "patient_script": [{"time_ms": 1000, "kind": "low_spo2", "spo2": 87}]}
    read = validate({**events, "budgets_ms": {"fall": 10},
                     "exec_durations_ms": {"patrol_check": 500}})
    assert read.budgets_ms == Budgets(fall=10, low_spo2=3000, high_temp=4000, no_vitals=500)
    log = run(read)[0]
    assert {r["payload"]["kind"] for r in log.records
            if r["kind"] == "task" and r["payload"]["state"] == "completed"} \
        == {kind.value for kind in TaskKind}
    tables = {"budgets_ms": Budgets(fall=10), "exec_durations_ms": ExecDurations(patrol_check=500)}
    for built in (dataclasses.replace(validate(events), **tables),
                  ScenarioConfig(duration_ms=12_000, schedule=(ScheduleEntry(500),),
                                 patient_script=(PatientEvent(1000, "low_spo2", spo2=87.0),),
                                 **tables)):
        assert built == read and hash(built) == hash(read)
        assert run(built)[0].to_jsonl() == log.to_jsonl()


def test_a_patient_event_built_in_code_with_ints_logs_what_a_file_logs():
    # a file's `spo2: 87` reads as 87.0; an int set in code once logged as 87
    read = dataclasses.replace(load_preset("alert_low_spo2"), duration_ms=12_000)
    built = dataclasses.replace(read, patient_script=(
        PatientEvent(10_000, "low_spo2", spo2=87, bpm=80, temp=37),))
    event = built.patient_script[0]
    assert (type(event.spo2), type(event.bpm), type(event.temp)) == (float, float, float)
    filed = dataclasses.replace(read, patient_script=validate({"patient_script": [
        {"time_ms": 10_000, "kind": "low_spo2", "spo2": 87, "bpm": 80, "temp": 37}]}
    ).patient_script)
    assert built == filed and hash(built) == hash(filed)
    assert run(built)[0].to_jsonl() == run(filed)[0].to_jsonl()


def test_the_execution_times_have_a_key_per_task_kind():
    # a new task kind cannot be left out of the scenario
    assert [(f.name, f.default) for f in dataclasses.fields(ExecDurations)] \
        == [(kind.value, DEFAULT_EXEC_DURATIONS_MS[kind]) for kind in TaskKind]


def test_a_corridor_start_of_only_x_and_y_runs_from_heading_zero():
    cfg = validate({"duration_ms": 1000,
                    "robots": {"corridor": {"start": {"x": 0.1, "y": 0.1}}}})
    assert cfg.start_pose == Pose(0.1, 0.1, 0.0)
    engine = Engine(cfg)
    assert engine.motion.pose == engine.dr_raw.pose == Pose(0.1, 0.1, 0.0)
    log, _ = engine.run()
    assert [r["kind"] for r in log.records].count("nav") > 0


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
    assert [e.time_ms for e in cfg.schedule] == [4000, 9000]


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


# -- the schema, walked ------------------------------------------------------

_INTS = st.sampled_from([0, 1, -1, 10, 100, 10**400, -10**400]) | st.integers(-10**4, 10**5)
_FLOATS = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]) | st.floats() | _INTS
# a string is now and then a scenario kind, which a patient event's kind must be
_SCALARS = {bool: st.booleans(), int: _INTS, float: _FLOATS,
            str: st.sampled_from(SCENARIO_KINDS) | st.text(max_size=4)}
_WRONG = st.sampled_from(["x", True, 0.5, -3, [], {}, [1, 2]])
_SQUARE = {"waypoints": [[0.2, 0.2], [1.2, 0.2], [1.2, 1.2], [0.2, 1.2]],
           "tags": ["straight"] * 4, "mat_size": [2.0, 2.0]}
# the types the scenario reads with their own parsers
_PARSED = {
    Track: st.sampled_from(["default", _SQUARE]),
    frozenset[Flag]: st.lists(st.sampled_from([f.value for f in Flag]), max_size=3),
}


def _values(hint):
    """YAML values for the schema annotation `hint`, drawn from the schema
    dataclasses' own fields and annotations: mostly of the right type, edge
    numbers among them, now and then a value of a wrong type."""
    args = typing.get_args(hint)
    if hint in _PARSED:
        right = _PARSED[hint]
    elif type(None) in args:
        right = st.none() | _values(args[0])
    elif dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        right = st.fixed_dictionaries({}, optional={
            f.name: _values(hints[f.name]) for f in dataclasses.fields(hint)})
    elif typing.get_origin(hint) is tuple:  # tuple[X, ...]
        right = st.lists(_values(args[0]), max_size=3)
    elif issubclass(hint, enum.Enum):
        right = st.sampled_from([m.value for m in hint])
    else:
        right = _SCALARS[hint]
    return st.integers(0, 15).flatmap(lambda k: _WRONG if k == 0 else right)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=_values(ScenarioConfig))
def test_a_scenario_drawn_from_the_schema_is_rejected_or_runs(raw):
    try:
        cfg = validate(raw)
    except ScenarioValidationError:
        return
    # a config is a value: a second reading and a pickle round trip equal it,
    # and hash as it does
    again, copy = validate(raw), pickle.loads(pickle.dumps(cfg))
    assert again == cfg and copy == cfg
    assert hash(again) == hash(copy) == hash(cfg)
    try:
        # whole ticks only, about 2 s of them
        Engine(dataclasses.replace(cfg, duration_ms=2000 // cfg.dt_ms * cfg.dt_ms)).run()
    except EngineAbort as exc:
        # the engine turns any error into an abort; a validated scenario may
        # only end in an invariant failure, never in a state out of the range
        # its constructors accept, which a bound in the schema must keep out
        assert isinstance(exc.__cause__, InvariantError), exc
