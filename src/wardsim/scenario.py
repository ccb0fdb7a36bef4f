"""Scenario files: schema, validation, and shipped presets.

A scenario is a YAML mapping that fully determines one run. Validation
fills documented defaults, rejects unknown keys (typo protection), and
reports every violation it finds, not just the first.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field

import yaml

from . import ConfigurationError
from .kinematics import ChassisParams, Pose, check_slip
from .line_following import IrGeometry, PidGains, threshold
from .protocol import (DEFAULT_EXEC_DURATIONS_MS, MedicationSchedule, ScheduleEntry,
                       TaskKind, TimeoutPolicy)
from .rf_channel import ChannelConfig, LinkCondition
from .track import DEFAULT_LINE_WIDTH, DEFAULT_MAT, Track, rounded_rect_track
from .vitals import FallDetectorModel, Flag, LatencyConfig, Posture, SensorNoiseModel


class ScenarioValidationError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {e}" for e in errors))


@dataclass(frozen=True)
class LinkConditionEvent:
    time_ms: int
    src: int
    dst: int
    condition: LinkCondition


@dataclass(frozen=True)
class PatientEvent:
    time_ms: int
    kind: str | None = None      # scenario label used for alert-latency budgets
    spo2: float | None = None
    bpm: float | None = None
    temp: float | None = None
    posture: Posture | None = None
    wearing: bool | None = None


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    dt_ms: int
    duration_ms: int
    track: Track
    leader_address: int
    corridor_address: int
    arm_address: int
    wearable_address: int
    chassis: ChassisParams
    gains: PidGains
    geometry: IrGeometry
    base_rpm: float
    start_pose: Pose
    slip_halfwidth: float
    slip_bias_halfwidth: float
    channel: ChannelConfig
    link_conditions: list[LinkConditionEvent]
    patient_script: list[PatientEvent]
    schedule: MedicationSchedule
    latency: LatencyConfig
    noise: SensorNoiseModel
    fall_detector: FallDetectorModel
    fall_check_period_ms: int
    vitals_sample_period_ms: int
    timeout_policy: TimeoutPolicy
    exec_durations_ms: dict[TaskKind, int]
    budgets_ms: dict[str, int]
    battery_budget_units: float      # 0 = unlimited
    battery_low_speed_factor: float
    correction_enabled: bool
    correction_position_gain: float
    correction_heading_gain: float
    patrol_always: bool
    detect_threshold: float
    ir_enabled: bool            # False: steer from the odometry estimate only
    flag_confirm_samples: int   # consecutive flagged samples before the leader acts


def _check_keys(section: dict, allowed, path: str, errors: list[str]):
    for key in section:
        if key not in allowed:
            errors.append(f"{path}: unknown key {key!r}")


def _mapping(value, path: str, errors: list[str]) -> dict:
    """A section that must be a mapping; an absent (null) one is empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        errors.append(f"{path}: expected a mapping, got {type(value).__name__}")
        return {}
    return value


def _sequence(value, path: str, errors: list[str]) -> list:
    """A section that must be a list; an absent (null) one is empty."""
    if value is None:
        return []
    if not isinstance(value, list):
        errors.append(f"{path}: expected a list, got {type(value).__name__}")
        return []
    return value


def _get(section: dict, key: str, default, path: str, errors: list[str], types):
    """A scalar that must already have one of `types`; it is never coerced,
    so a wrong type is an error and the default stands in for it."""
    value = section.get(key, default)
    if value is None:
        return default
    if types is bool:
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, types) and not isinstance(value, bool)
    if not ok:
        errors.append(f"{path}.{key}: expected {types}, got {type(value).__name__}")
        return default
    return value


def _float(section: dict, key: str, default, path: str, errors: list[str]):
    """A number, as a float; an int is widened, nothing else is accepted."""
    value = _get(section, key, default, path, errors, (int, float))
    return None if value is None else float(value)


def _check_pair(value, path: str, errors: list[str]):
    """A point or a size: a list of two numbers, each by `_float`'s rule."""
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        errors.append(f"{path}: expected a list of two numbers, got {value!r}")


def _build_track(raw, errors: list[str]) -> Track:
    if raw in (None, "default"):
        return rounded_rect_track()
    if not isinstance(raw, dict):
        errors.append("track: expected 'default' or a mapping")
        return rounded_rect_track()
    n_errors = len(errors)
    _check_keys(raw, {"waypoints", "tags", "line_width", "mat_size", "closed"}, "track", errors)
    waypoints = _sequence(raw.get("waypoints"), "track.waypoints", errors)
    for i, point in enumerate(waypoints):
        _check_pair(point, f"track.waypoints[{i}]", errors)
    tags = _sequence(raw.get("tags"), "track.tags", errors)
    errors.extend(f"track.tags[{i}]: expected str, got {type(tag).__name__}"
                  for i, tag in enumerate(tags) if not isinstance(tag, str))
    mat_size = _get(raw, "mat_size", list(DEFAULT_MAT), "track", errors, list)
    _check_pair(mat_size, "track.mat_size", errors)
    line_width = _float(raw, "line_width", DEFAULT_LINE_WIDTH, "track", errors)
    closed = _get(raw, "closed", True, "track", errors, bool)
    if len(errors) > n_errors:
        return rounded_rect_track()
    try:
        return Track(waypoints, tags, line_width=line_width, mat_size=tuple(mat_size),
                     closed=closed)
    except (ConfigurationError, TypeError, ValueError) as exc:
        errors.append(f"track: {exc}")
        return rounded_rect_track()


def _flag_names(value) -> frozenset[Flag]:
    if not (isinstance(value, list) and all(isinstance(f, str) for f in value)):
        raise TypeError(f"expected a list of flag names, got {value!r}")
    return frozenset(Flag(f) for f in value)


# the scalar field annotations of the config dataclasses, as `_get` types
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool}


def _build_dataclass(cls, raw, path, errors, casts=None):
    raw = _mapping(raw, path, errors)
    fields = cls.__dataclass_fields__
    _check_keys(raw, fields, path, errors)
    kwargs = {}
    for k, v in raw.items():
        if k not in fields or v is None:  # null takes the field's default
            continue
        if casts and k in casts:
            try:
                v = casts[k](v)
            except (ValueError, TypeError, KeyError) as exc:
                errors.append(f"{path}.{k}: {exc}")
                continue
        elif fields[k].type in _FIELD_TYPES:
            v = _get(raw, k, None, path, errors, _FIELD_TYPES[fields[k].type])
            if v is None:
                continue
        kwargs[k] = v
    try:
        return cls(**kwargs)
    except (ConfigurationError, TypeError) as exc:
        errors.append(f"{path}: {exc}")
        return cls()


_TOP_KEYS = {
    "name", "seed", "dt_ms", "duration_ms", "track", "robots", "channel",
    "link_conditions", "patient_script", "schedule", "latency", "noise",
    "fall_detector", "vitals_sample_period_ms", "timeout_policy",
    "exec_durations_ms", "budgets_ms", "battery", "correction", "patrol_always",
    "detect_threshold", "ir_enabled", "flag_confirm_samples",
}

SCENARIO_KINDS = ("fall", "low_spo2", "high_temp", "no_vitals", "battery_low")

DEFAULT_BUDGETS_MS = {"fall": 3000, "low_spo2": 3000, "high_temp": 4000, "no_vitals": 500}


def validate(raw: dict, name: str = "<scenario>") -> ScenarioConfig:
    """Validate a raw scenario mapping; raises ScenarioValidationError with
    every problem found."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ScenarioValidationError(["scenario file must be a mapping"])
    _check_keys(raw, _TOP_KEYS, "top level", errors)
    name = _get(raw, "name", name, "top", errors, str)

    seed = _get(raw, "seed", 0, "top", errors, int)
    dt_ms = _get(raw, "dt_ms", 10, "top", errors, int)
    duration_ms = _get(raw, "duration_ms", 60000, "top", errors, int)
    if seed < 0:
        errors.append("top.seed: must be nonnegative")
    if dt_ms is not None and dt_ms <= 0:
        errors.append("top.dt_ms: must be positive")
    if duration_ms is not None and duration_ms < 0:
        errors.append("top.duration_ms: must be nonnegative")

    track = _build_track(raw.get("track"), errors)

    robots = _mapping(raw.get("robots"), "robots", errors)
    _check_keys(robots, {"leader", "corridor", "arm", "wearable"}, "robots", errors)
    leader = _mapping(robots.get("leader"), "robots.leader", errors)
    corridor = _mapping(robots.get("corridor"), "robots.corridor", errors)
    arm = _mapping(robots.get("arm"), "robots.arm", errors)
    wearable = _mapping(robots.get("wearable"), "robots.wearable", errors)
    _check_keys(leader, {"address"}, "robots.leader", errors)
    _check_keys(corridor, {"address", "chassis", "gains", "geometry", "base_rpm",
                           "start", "slip_halfwidth", "slip_bias_halfwidth"},
                "robots.corridor", errors)
    _check_keys(arm, {"address"}, "robots.arm", errors)
    _check_keys(wearable, {"address"}, "robots.wearable", errors)

    leader_address = _get(leader, "address", 1, "robots.leader", errors, int)
    corridor_address = _get(corridor, "address", 2, "robots.corridor", errors, int)
    arm_address = _get(arm, "address", 3, "robots.arm", errors, int)
    wearable_address = _get(wearable, "address", 4, "robots.wearable", errors, int)
    addresses = [leader_address, corridor_address, arm_address, wearable_address]
    if len(set(addresses)) != 4:
        errors.append("robots: addresses must be unique")

    chassis = _build_dataclass(ChassisParams, corridor.get("chassis"), "robots.corridor.chassis", errors)
    gains = _build_dataclass(PidGains, corridor.get("gains"), "robots.corridor.gains", errors)
    geometry = _build_dataclass(IrGeometry, corridor.get("geometry"), "robots.corridor.geometry", errors)
    base_rpm = _float(corridor, "base_rpm", 50.0, "robots.corridor", errors)
    slip_halfwidth = _float(corridor, "slip_halfwidth", 0.02, "robots.corridor", errors)
    slip_bias_halfwidth = _float(corridor, "slip_bias_halfwidth", 0.01, "robots.corridor", errors)
    try:
        check_slip(slip_halfwidth, slip_bias_halfwidth)
    except ConfigurationError as exc:
        errors.append(f"robots.corridor: {exc}")

    start_raw = corridor.get("start")
    if start_raw is None:
        wx, wy = track.waypoints[0]
        tx, ty = track._tangents[0]
        start_pose = Pose(float(wx), float(wy), math.atan2(ty, tx))
    else:
        path = "robots.corridor.start"
        start_raw = _mapping(start_raw, path, errors)
        _check_keys(start_raw, {"x", "y", "theta"}, path, errors)
        try:
            start_pose = Pose(*(_float(start_raw, k, 0.0, path, errors) for k in ("x", "y", "theta")))
        except ConfigurationError as exc:
            errors.append(f"{path}: {exc}")
            start_pose = Pose(0.0, 0.0, 0.0)

    channel = _build_dataclass(ChannelConfig, raw.get("channel"), "channel", errors)

    link_conditions = []
    for i, item in enumerate(_sequence(raw.get("link_conditions"), "link_conditions", errors)):
        path = f"link_conditions[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{path}: expected a mapping")
            continue
        _check_keys(item, {"time_ms", "src", "dst", "condition"}, path, errors)
        ends = [_get(item, k, None, path, errors, int) for k in ("src", "dst")]
        errors.extend(f"{path}.{k}: required" for k in ("src", "dst") if item.get(k) is None)
        errors.extend(f"{path}.{k}: {end} is not a robot address"
                      for k, end in zip(("src", "dst"), ends)
                      if end is not None and end not in addresses)
        try:
            link_conditions.append(LinkConditionEvent(
                _get(item, "time_ms", 0, path, errors, int), *ends,
                LinkCondition(_get(item, "condition", "clear", path, errors, str))))
        except ValueError as exc:
            errors.append(f"{path}: {exc}")

    patient_script = []
    for i, item in enumerate(_sequence(raw.get("patient_script"), "patient_script", errors)):
        path = f"patient_script[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{path}: expected a mapping")
            continue
        _check_keys(item, {"time_ms", "kind", "spo2", "bpm", "temp", "posture", "wearing"},
                    path, errors)
        kind = _get(item, "kind", None, path, errors, str)
        if kind is not None and kind not in SCENARIO_KINDS:
            errors.append(f"{path}.kind: unknown scenario kind {kind!r}")
        posture = _get(item, "posture", None, path, errors, str)
        try:
            patient_script.append(PatientEvent(
                time_ms=_get(item, "time_ms", 0, path, errors, int),
                kind=kind,
                spo2=_float(item, "spo2", None, path, errors),
                bpm=_float(item, "bpm", None, path, errors),
                temp=_float(item, "temp", None, path, errors),
                posture=None if posture is None else Posture(posture),
                wearing=_get(item, "wearing", None, path, errors, bool),
            ))
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
    patient_script.sort(key=lambda e: e.time_ms)

    entries = []
    for i, item in enumerate(_sequence(raw.get("schedule"), "schedule", errors)):
        path = f"schedule[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{path}: expected a mapping")
            continue
        _check_keys(item, {"time_ms", "bed", "slot", "dose_note"}, path, errors)
        entries.append(ScheduleEntry(
            _get(item, "time_ms", 0, path, errors, int), _get(item, "bed", 1, path, errors, int),
            _get(item, "slot", 0, path, errors, int), _get(item, "dose_note", "", path, errors, str)))
    schedule = MedicationSchedule(entries)

    latency = _build_dataclass(
        LatencyConfig, raw.get("latency"), "latency", errors,
        casts={"ai_flags": _flag_names})
    noise = _build_dataclass(SensorNoiseModel, raw.get("noise"), "noise", errors)

    fall_raw = dict(_mapping(raw.get("fall_detector"), "fall_detector", errors))
    fall_check_period_ms = _get(fall_raw, "check_period_ms", 100, "fall_detector", errors, int)
    fall_raw.pop("check_period_ms", None)
    fall_detector = _build_dataclass(FallDetectorModel, fall_raw, "fall_detector", errors)

    vitals_sample_period_ms = _get(raw, "vitals_sample_period_ms", 100, "top", errors, int)
    # the engine samples on ticks whose time is a multiple of the period, so
    # any other period would silently sample less often than asked
    if dt_ms > 0:
        for path, period in (("fall_detector.check_period_ms", fall_check_period_ms),
                             ("top.vitals_sample_period_ms", vitals_sample_period_ms)):
            if period % dt_ms != 0:
                errors.append(f"{path}: must be a multiple of dt_ms ({dt_ms})")
    timeout_policy = _build_dataclass(TimeoutPolicy, raw.get("timeout_policy"),
                                      "timeout_policy", errors)

    exec_durations = dict(DEFAULT_EXEC_DURATIONS_MS)
    durations_raw = _mapping(raw.get("exec_durations_ms"), "exec_durations_ms", errors)
    for k in durations_raw:
        try:
            kind = TaskKind(k)
        except ValueError as exc:
            errors.append(f"exec_durations_ms.{k}: {exc}")
            continue
        exec_durations[kind] = _get(durations_raw, k, exec_durations[kind],
                                    "exec_durations_ms", errors, int)

    budgets = dict(DEFAULT_BUDGETS_MS)
    budgets_raw = _mapping(raw.get("budgets_ms"), "budgets_ms", errors)
    for k in budgets_raw:
        if k not in SCENARIO_KINDS:
            errors.append(f"budgets_ms: unknown scenario kind {k!r}")
            continue
        budget = _get(budgets_raw, k, budgets.get(k), "budgets_ms", errors, int)
        if budget is not None:
            budgets[k] = budget

    battery = _mapping(raw.get("battery"), "battery", errors)
    _check_keys(battery, {"budget_units", "low_speed_factor"}, "battery", errors)
    battery_budget = _float(battery, "budget_units", 0.0, "battery", errors)
    battery_factor = _float(battery, "low_speed_factor", 0.5, "battery", errors)

    correction = _mapping(raw.get("correction"), "correction", errors)
    _check_keys(correction, {"enabled", "position_gain", "heading_gain"}, "correction", errors)
    correction_enabled = _get(correction, "enabled", True, "correction", errors, bool)
    correction_pos = _float(correction, "position_gain", 0.1, "correction", errors)
    correction_head = _float(correction, "heading_gain", 0.1, "correction", errors)
    # a gain outside [0, 1] moves the estimate past the line or away from it,
    # and it diverges
    for key, gain in (("position_gain", correction_pos), ("heading_gain", correction_head)):
        if not 0.0 <= gain <= 1.0:
            errors.append(f"correction.{key}: must be in [0, 1]")

    patrol_always = _get(raw, "patrol_always", True, "top", errors, bool)
    detect_threshold = _float(raw, "detect_threshold", 0.5, "top", errors)
    try:
        threshold((), detect_threshold)  # the range check alone: no readings
    except ConfigurationError as exc:
        errors.append(f"top.detect_threshold: {exc}")
    ir_enabled = _get(raw, "ir_enabled", True, "top", errors, bool)
    flag_confirm_samples = _get(raw, "flag_confirm_samples", 3, "top", errors, int)
    if flag_confirm_samples is not None and flag_confirm_samples < 1:
        errors.append("top.flag_confirm_samples: must be at least 1")

    if errors:
        raise ScenarioValidationError(errors)

    return ScenarioConfig(
        name=name,
        seed=seed, dt_ms=dt_ms, duration_ms=duration_ms, track=track,
        leader_address=leader_address, corridor_address=corridor_address,
        arm_address=arm_address, wearable_address=wearable_address,
        chassis=chassis, gains=gains, geometry=geometry, base_rpm=base_rpm,
        start_pose=start_pose, slip_halfwidth=slip_halfwidth,
        slip_bias_halfwidth=slip_bias_halfwidth, channel=channel,
        link_conditions=link_conditions, patient_script=patient_script,
        schedule=schedule, latency=latency, noise=noise,
        fall_detector=fall_detector, fall_check_period_ms=fall_check_period_ms,
        vitals_sample_period_ms=vitals_sample_period_ms,
        timeout_policy=timeout_policy, exec_durations_ms=exec_durations,
        budgets_ms=budgets, battery_budget_units=battery_budget,
        battery_low_speed_factor=battery_factor,
        correction_enabled=correction_enabled,
        correction_position_gain=correction_pos,
        correction_heading_gain=correction_head,
        patrol_always=patrol_always,
        detect_threshold=detect_threshold,
        ir_enabled=ir_enabled,
        flag_confirm_samples=flag_confirm_samples,
    )


def load_scenario(path) -> ScenarioConfig:
    with open(path) as f:
        raw = yaml.safe_load(f)
    return validate(raw, name=str(path))


def preset_names() -> list[str]:
    root = importlib.resources.files("wardsim") / "presets"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_preset(name: str) -> ScenarioConfig:
    res = importlib.resources.files("wardsim") / "presets" / f"{name}.yaml"
    if not res.is_file():
        raise FileNotFoundError(f"no preset named {name!r}; have {preset_names()}")
    raw = yaml.safe_load(res.read_text())
    return validate(raw, name=name)
