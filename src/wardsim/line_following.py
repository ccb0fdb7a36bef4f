"""5-way IR line sensing and PID steering for line following.

Each sensor reports a binary detection: 1 when it is over the dark line.
The detections are reduced to a lateral error as the weighted average of
the active sensors with weights (-2, -1, 0, +1, +2) ordered left to right.

Sign convention: positive error means the line lies to the robot's right.
The mixer adds the control output to the right wheel and subtracts it from
the left, so the steering loop feeds the PID the negated lateral error to
turn toward the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

from . import ConfigurationError, require
from .kinematics import Pose
from .track import Track

DEFAULT_WEIGHTS = (-2.0, -1.0, 0.0, 1.0, 2.0)
DEFAULT_SPEED_CAP_RPM = 85.0
DEFAULT_BASE_RPM = 50.0
HOLD_LOST_S = 0.5  # how long a lost line holds the last control before a fault


def line_error(s) -> float | None:
    """Weighted average of active sensors, or None when the line is lost."""
    if len(s) != 5:
        raise ConfigurationError("detections must have length 5")
    active = sum(s)
    if active == 0:
        return None
    return sum(map(mul, DEFAULT_WEIGHTS, s)) / active


@dataclass(frozen=True)
class PidGains:
    kp: float = 18.0
    ki: float = 0.5
    kd: float = 0.35
    integral_clamp: float = 4.0

    def __post_init__(self):
        require(*((getattr(self, k) >= 0, f"{k} must be nonnegative") for k in ("kp", "ki", "kd")),
                (self.integral_clamp > 0, "integral_clamp must be positive"))


@dataclass
class PidState:
    integral_accum: float = 0.0
    prev_error: float = 0.0
    initialized: bool = False

    def reset(self):
        self.integral_accum = 0.0
        self.prev_error = 0.0
        self.initialized = False


def pid_step(gains: PidGains, state: PidState, e: float, dt: float) -> float:
    """One PID update: rectangular integral (clamped), backward-difference
    derivative (zero on the first step after reset). Mutates state."""
    if not dt > 0:
        raise ConfigurationError("dt must be positive")
    state.integral_accum += e * dt
    c = gains.integral_clamp
    state.integral_accum = max(-c, min(c, state.integral_accum))
    de = (e - state.prev_error) / dt if state.initialized else 0.0
    state.prev_error = e
    state.initialized = True
    return gains.kp * e + gains.ki * state.integral_accum + gains.kd * de


@dataclass(slots=True)
class WheelCommand:
    omega_right: float
    omega_left: float


def apply_control(omega_base: float, u: float) -> WheelCommand:
    """Differential mixing: right wheel gets +u, left gets -u, both capped
    at DEFAULT_SPEED_CAP_RPM either way."""
    cap = DEFAULT_SPEED_CAP_RPM
    return WheelCommand(max(-cap, min(cap, omega_base + u)), max(-cap, min(cap, omega_base - u)))


@dataclass(frozen=True)
class IrGeometry:
    """Physical layout of the sensor array on the chassis."""
    pitch: float = 0.015          # lateral spacing between adjacent sensors, m
    forward_offset: float = 0.05  # array distance ahead of the axle center, m

    def __post_init__(self):
        # a negative pitch puts the sensors right to left, so the weights
        # turn the robot away from the line it detects
        require((self.pitch >= 0 and math.isfinite(self.pitch),
                 "pitch must be nonnegative and finite"),
                (math.isfinite(self.forward_offset), "forward_offset must be finite"))


def sensor_positions(pose: Pose, geometry: IrGeometry) -> list[tuple[float, float]]:
    """World (x, y) of the five sensors, left to right: the array's centre
    `forward_offset` ahead of the pose, sensor k (-2..2) `k * pitch` along
    the robot's right-hand direction (sin, -cos)."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    fo, pitch = geometry.forward_offset, geometry.pitch
    cx = pose.x + fo * c
    cy = pose.y + fo * s
    nc = -c
    # k * pitch for k = 0, 1, 2; -(k * pitch) is exactly -k * pitch
    o0, o1, o2 = 0 * pitch, pitch, 2 * pitch
    return [(cx + -o2 * s, cy + -o2 * nc), (cx + -o1 * s, cy + -o1 * nc), (cx + o0 * s, cy + o0 * nc),
            (cx + o1 * s, cy + o1 * nc), (cx + o2 * s, cy + o2 * nc)]


def simulate_ir(track: Track, pose: Pose, geometry: IrGeometry) -> tuple[int, ...]:
    """The five detections, left to right, for a pose over the track: 1 for a
    sensor on the mat within half a line width of the polyline, else 0.
    Off-mat sensors simply see no line."""
    half = track.line_width / 2.0
    w, h = track.mat_size
    query = track.query
    return tuple([1 if 0.0 <= sx <= w and 0.0 <= sy <= h and query(sx, sy).distance <= half
                  else 0 for sx, sy in sensor_positions(pose, geometry)])


@dataclass
class LineFollower:
    """Closed-loop steering: IR sense -> error -> PID -> wheel command.

    On line loss the last control output is held for up to HOLD_LOST_S,
    after which the robot stops and a navigation fault is flagged.
    """

    gains: PidGains = field(default_factory=PidGains)
    geometry: IrGeometry = field(default_factory=IrGeometry)
    base_rpm: float = DEFAULT_BASE_RPM

    def __post_init__(self):
        self.pid = PidState()
        self._last_u = 0.0
        self._lost_for = 0.0
        self.faulted = False

    def reset(self):
        self.pid.reset()
        self._last_u = 0.0
        self._lost_for = 0.0
        self.faulted = False

    def step(self, track: Track, pose: Pose, dt: float) -> tuple[WheelCommand, float | None]:
        """Returns the wheel command and the measured lateral error (None = lost)."""
        e = line_error(simulate_ir(track, pose, self.geometry))
        if e is None:
            self._lost_for += dt
            if self._lost_for > HOLD_LOST_S:
                self.faulted = True
                return WheelCommand(0.0, 0.0), None
            return apply_control(self.base_rpm, self._last_u), None
        self._lost_for = 0.0
        # line to the right (e > 0) needs the right wheel slower, hence -e
        u = pid_step(self.gains, self.pid, -e, dt)
        self._last_u = u
        return apply_control(self.base_rpm, u), e
