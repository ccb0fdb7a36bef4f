"""Scenario files: schema, validation, and shipped presets.

A scenario is a YAML mapping that fully determines one run. The dataclasses
here and the parameter dataclasses they hold are its schema: each key is a
field, and an absent or null key takes the field's default. One walker
reads any of them from a mapping; it rejects unknown keys (typo protection),
type-checks values without coercing them, and reports every violation it
finds, not just the first.
"""

from __future__ import annotations

import enum
import functools
import importlib.resources
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

import yaml

from . import ConfigurationError, require
from .kinematics import ChassisParams, Pose, check_slip
from .line_following import DEFAULT_BASE_RPM, IrGeometry, PidGains
from .protocol import DEFAULT_EXEC_DURATIONS_MS, ScheduleEntry, TaskKind, TimeoutPolicy
from .rf_channel import ChannelConfig, LinkCondition
from .track import Track, rounded_rect_track
from .vitals import (BPM_RANGE, SPO2_RANGE, TEMP_RANGE, FallDetectorModel, Flag, LatencyConfig,
                     Posture, SensorNoiseModel)

# the `default` track, built once per process and shared by every scenario
# that uses it; a Track is never changed once built
default_track = functools.cache(rounded_rect_track)


@dataclass(frozen=True)
class ExecDurations:
    """How long a follower takes to carry out each kind of task, in ms: a
    field per `TaskKind` value."""
    patrol_check: int = DEFAULT_EXEC_DURATIONS_MS[TaskKind.PATROL_CHECK]
    deliver_medicine: int = DEFAULT_EXEC_DURATIONS_MS[TaskKind.DELIVER_MEDICINE]
    arm_dispense: int = DEFAULT_EXEC_DURATIONS_MS[TaskKind.ARM_DISPENSE]


@dataclass(frozen=True)
class Budgets:
    """Each alert kind's latency budget in ms; `battery_low` has none unless
    set. Its fields are the scenario kinds that a patient event may name."""
    fall: int = 3000
    low_spo2: int = 3000
    high_temp: int = 4000
    no_vitals: int = 500
    battery_low: int | None = None


SCENARIO_KINDS = tuple(f.name for f in fields(Budgets))


class ScenarioValidationError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {e}" for e in errors))


@dataclass(frozen=True, kw_only=True)
class LinkConditionEvent:
    time_ms: int = 0
    src: int
    dst: int
    condition: LinkCondition = LinkCondition.CLEAR


@dataclass(frozen=True)
class PatientEvent:
    time_ms: int = 0
    kind: str | None = None      # scenario label used for alert-latency budgets
    spo2: float | None = None
    bpm: float | None = None
    temp: float | None = None
    posture: Posture | None = None
    wearing: bool | None = None

    def __post_init__(self):
        # the patient model clamps to these ranges, so a value outside one
        # would run as the range's end
        require((self.kind is None or self.kind in SCENARIO_KINDS,
                 f"unknown scenario kind {self.kind!r}"),
                *((value is None or lo <= value <= hi,
                   f"{key} must be in [{lo:g}, {hi:g}], got {value!r}")
                  for key, value, (lo, hi) in (("spo2", self.spo2, SPO2_RANGE),
                                               ("bpm", self.bpm, BPM_RANGE),
                                               ("temp", self.temp, TEMP_RANGE))))
        # the patient model takes these values as they are, and they reach the
        # log: an int set in code must log as the float a file's value reads as
        for key in ("spo2", "bpm", "temp"):
            value = getattr(self, key)
            if value is not None:
                object.__setattr__(self, key, float(value))


@dataclass(frozen=True)
class Robot:
    address: int


@dataclass(frozen=True)
class Corridor:
    """The corridor Assistant Robot: a line follower on a slipping chassis."""
    address: int
    chassis: ChassisParams = ChassisParams()
    gains: PidGains = PidGains()
    geometry: IrGeometry = IrGeometry()
    base_rpm: float = DEFAULT_BASE_RPM
    start: Pose | None = None  # None: on the first waypoint, facing along the course
    slip_halfwidth: float = 0.02  # per-step multiplicative slip jitter, either way
    slip_bias_halfwidth: float = 0.01  # this chassis' tyre and motor asymmetry

    def __post_init__(self):
        check_slip(self.slip_halfwidth, self.slip_bias_halfwidth)


@dataclass(frozen=True)
class Robots:
    """The addressed parts of the swarm. A section's absent keys take the
    values of its default here, so these are the default addresses."""
    leader: Robot = Robot(1)
    corridor: Corridor = Corridor(2)
    arm: Robot = Robot(3)
    wearable: Robot = Robot(4)

    def __post_init__(self):
        require((len(set(self.addresses)) == len(self.addresses), "addresses must be unique"))

    @property
    def addresses(self) -> tuple[int, ...]:
        return (self.leader.address, self.corridor.address, self.arm.address,
                self.wearable.address)


@dataclass(frozen=True)
class Battery:
    budget_units: float = 0.0  # 0 = unlimited
    low_speed_factor: float = 0.5

    def __post_init__(self):
        # a negative factor drives the robot backwards once the battery is
        # low, and one above 1 speeds it up (near the float maximum, until
        # its pose overflows)
        require((self.budget_units >= 0, "budget_units must be nonnegative"),
                (self.low_speed_factor >= 0, "low_speed_factor must be nonnegative"),
                (self.low_speed_factor <= 1, "low_speed_factor must be at most 1"))


@dataclass(frozen=True)
class Correction:
    """Pulls the corrected odometry estimate toward the line the IR array sees."""
    enabled: bool = True
    position_gain: float = 0.1
    heading_gain: float = 0.1

    def __post_init__(self):
        # a gain outside [0, 1] moves the estimate past the line or away from
        # it, and it diverges
        require(*((0.0 <= getattr(self, key) <= 1.0, f"{key} must be in [0, 1]")
                  for key in ("position_gain", "heading_gain")))


# the scenario's lists of timed events, and its tables
_EVENT_LISTS = ("patient_script", "schedule", "link_conditions")
_TABLES = ("exec_durations_ms", "budgets_ms")


@dataclass(frozen=True)
class ScenarioConfig:
    """One run's scenario. However it is built (by `validate()`, in code or by
    `dataclasses.replace`), it checks the facts that span its fields and
    stores its timed lists as tuples sorted by time. Its two tables are
    sections like any other, so a table set in code keeps the defaults of
    the keys it leaves out, as one read from a file does."""
    name: str = "<scenario>"
    seed: int = 0
    dt_ms: int = 10
    duration_ms: int = 60000
    track: Track = field(default_factory=default_track)
    robots: Robots = Robots()
    channel: ChannelConfig = ChannelConfig()
    link_conditions: tuple[LinkConditionEvent, ...] = ()
    patient_script: tuple[PatientEvent, ...] = ()
    schedule: tuple[ScheduleEntry, ...] = ()
    latency: LatencyConfig = LatencyConfig()
    noise: SensorNoiseModel = SensorNoiseModel()
    fall_detector: FallDetectorModel = FallDetectorModel()
    vitals_sample_period_ms: int = 100
    timeout_policy: TimeoutPolicy = TimeoutPolicy()
    exec_durations_ms: ExecDurations = ExecDurations()
    budgets_ms: Budgets = Budgets()
    battery: Battery = Battery()
    correction: Correction = Correction()
    patrol_always: bool = True
    ir_enabled: bool = True        # False: steer from the odometry estimate only
    flag_confirm_samples: int = 3  # consecutive flagged samples before the leader acts

    def __post_init__(self):
        dt = self.dt_ms
        checks = [(self.seed >= 0, "seed must be nonnegative"), (dt > 0, "dt_ms must be positive")]
        # the engine samples on ticks whose time is a multiple of the period (a
        # period of 0 turns it off), so any other period would silently sample
        # less often than asked; a duration runs whole ticks only
        for key, period in (("duration_ms", self.duration_ms),
                            ("vitals_sample_period_ms", self.vitals_sample_period_ms),
                            ("fall_detector.check_period_ms", self.fall_detector.check_period_ms)):
            checks += [(period >= 0, f"{key} must be nonnegative"),
                       (period < 0 or dt <= 0 or period % dt == 0,
                        f"{key} must be a multiple of dt_ms ({dt})")]
        checks += ((end in self.robots.addresses, f"link_conditions[{i}].{k} must be a robot"
                    f" address, got {end}") for i, event in enumerate(self.link_conditions)
                   for k, end in (("src", event.src), ("dst", event.dst)))
        # an event listed before time 0 would run at the first tick
        checks += ((event.time_ms >= 0, f"{key}[{i}].time_ms must be nonnegative")
                   for key in _EVENT_LISTS for i, event in enumerate(getattr(self, key)))
        checks.append((self.flag_confirm_samples >= 1, "flag_confirm_samples must be at least 1"))
        checks += ((value >= 0, f"{table}.{key} must be nonnegative") for table in _TABLES
                   for key, value in vars(getattr(self, table)).items() if value is not None)
        require(*checks)
        # the engine reads each list with a cursor; the sort is stable, so
        # events at the same time keep their given order
        for key in _EVENT_LISTS:
            object.__setattr__(self, key, tuple(sorted(getattr(self, key), key=lambda e: e.time_ms)))

    @property
    def start_pose(self) -> Pose:
        """The corridor robot's start: as given, else on the first waypoint along the course."""
        start = self.robots.corridor.start
        if start is None:
            wx, wy = self.track.waypoints[0]
            start = Pose(float(wx), float(wy), self.track.headings[0])
        return start


# what the walker returns for a value it could not read; the error is listed
_FAIL = object()


def _shape(value, kind: type, path: str, errors: list[str]):
    """`value` if it is a `kind` (dict or list), else _FAIL."""
    if isinstance(value, kind):
        return value
    expected = "a mapping" if kind is dict else "a list"
    errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
    return _FAIL


@functools.cache
def _schema(cls) -> dict:
    """Each field of a dataclass: name -> (annotation, default). The default
    is MISSING for a field without one and None for a default factory."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default if f.default_factory is MISSING else None)
            for f in fields(cls)}


def _build(cls, raw, path: str, errors: list[str], base=None):
    """An instance of the dataclass `cls` from the mapping `raw`, or _FAIL
    when a field is missing or fails to read. An absent or null key takes its
    value from `base` when given, else its field default; a field with
    neither is required."""
    if _shape(raw, dict, path, errors) is _FAIL:
        return _FAIL
    schema = _schema(cls)
    errors.extend(f"{path or 'top level'}: unknown key {k!r}" for k in raw if k not in schema)
    kwargs = {}
    for name, (hint, default) in schema.items():
        if raw.get(name) is None:
            if base is None and default is MISSING:
                errors.append(f"{path}.{name}: required")
                kwargs[name] = _FAIL
            continue
        # the top level's own scalars are reported as "top.<key>"
        sub = f"{path}.{name}" if path else f"top.{name}" if hint in (bool, int, float, str) else name
        kwargs[name] = _read(hint, raw[name], sub, errors,
                             default if base is None else getattr(base, name))
    # a field that failed is already reported; built with its default in its
    # place, the checks that span fields could report an error that is not one
    if any(value is _FAIL for value in kwargs.values()):
        return _FAIL
    try:
        return cls(**kwargs) if base is None else replace(base, **kwargs)
    except ConfigurationError as exc:
        errors.append(f"{path or 'top level'}: {exc}")
        return _FAIL


def _read(hint, value, path: str, errors: list[str], base=None):
    """A non-null `value` as the annotation `hint`, or _FAIL. A scalar must
    have its type already, except that an int is widened to a float, and a
    number must be finite and no larger in magnitude than the float maximum.
    A `tuple[X, ...]` is read from a list, and a point or a size from a list
    of two numbers, whole or not at all. `base` is the value whose fields a
    section's absent keys take."""
    if hint in _PARSERS:
        return _PARSERS[hint](value, path, errors)
    if type(None) in typing.get_args(hint):  # X | None; a null took the default already
        hint = typing.get_args(hint)[0]
    if is_dataclass(hint):
        return _build(hint, value, path, errors, base)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...], else a point or a size
        item, *rest = typing.get_args(hint)
        if rest == [...]:
            if _shape(value, list, path, errors) is _FAIL:
                return _FAIL
        elif not (isinstance(value, list) and len(value) == 2 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
            errors.append(f"{path}: expected a list of two numbers, got {value!r}")
            return _FAIL
        items = tuple(_read(item, v, f"{path}[{i}]", errors) for i, v in enumerate(value))
        return _FAIL if any(v is _FAIL for v in items) else items
    if issubclass(hint, enum.Enum):
        value = _read(str, value, path, errors)
        try:
            return _FAIL if value is _FAIL else hint(value)
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
            return _FAIL
    if not (isinstance(value, (int, float) if hint is float else hint)
            and isinstance(value, bool) == (hint is bool)):
        errors.append(f"{path}: expected {hint.__name__}, got {type(value).__name__}")
        return _FAIL
    # nan, inf, or an int that the engine's float arithmetic would overflow on
    if hint in (int, float) and not -sys.float_info.max <= value <= sys.float_info.max:
        errors.append(f"{path}: must be a finite number within the float range, got {value!r}")
        return _FAIL
    return float(value) if hint is float else value


def _track(raw, path: str, errors: list[str]):
    if raw == "default":
        return default_track()
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected 'default' or a mapping")
        return _FAIL
    return _build(Track, raw, path, errors)


def _flag_names(raw, path: str, errors: list[str]):
    if not (isinstance(raw, list) and all(isinstance(f, str) for f in raw)):
        errors.append(f"{path}: expected a list of flag names, got {raw!r}")
        return _FAIL
    flags = _read(tuple[Flag, ...], raw, path, errors)
    return _FAIL if flags is _FAIL else frozenset(flags)


# values whose YAML form is not a mapping of their fields
_PARSERS = {
    Track: _track,
    frozenset[Flag]: _flag_names,
}


def validate(raw: dict, name: str | None = None) -> ScenarioConfig:
    """Validate a raw scenario mapping; raises ScenarioValidationError with
    every problem found. `name` names a scenario that does not name itself."""
    if not isinstance(raw, dict):
        raise ScenarioValidationError(["scenario file must be a mapping"])
    if name is not None and raw.get("name") is None:
        raw = {**raw, "name": name}
    errors: list[str] = []
    cfg = _build(ScenarioConfig, raw, "", errors)
    if errors:
        raise ScenarioValidationError(errors)
    return cfg


def load_scenario(path) -> ScenarioConfig:
    """Read and validate a scenario file. A file that is not UTF-8 YAML
    raises ScenarioValidationError with the reader's message, which names
    the line or byte."""
    with open(path) as f:
        try:
            raw = yaml.safe_load(f)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ScenarioValidationError([f"{path}: {exc}"]) from exc
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
