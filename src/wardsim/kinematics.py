"""Differential-drive ground truth motion and encoder dead reckoning.

Pose integration uses the midpoint-heading update (heading advanced by half
the step's rotation before projecting the displacement). Drift between the
true pose and the dead-reckoned estimate comes from two sources: per-wheel
multiplicative slip applied only to the true motion, and integer quantization
of the encoder tick counts.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass

from . import ConfigurationError, require
from .rng import Doubles, symmetric_range

TWO_PI = 2.0 * math.pi

# Pose.__init__'s calls, bound once: its check, and the setter that a frozen
# dataclass's own __init__ uses to get past its __setattr__
_isfinite = math.isfinite
_setattr = object.__setattr__


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    t = math.fmod(theta + math.pi, TWO_PI)
    if t <= 0.0:
        t += TWO_PI
    return t - math.pi


@dataclass(frozen=True, slots=True, init=False)
class Pose:
    """Planar robot state: position in meters, heading in radians (-pi, pi].

    Its own `__init__` checks the coordinates and sets the slots directly,
    at about three quarters of the cost of the generated one with a
    `__post_init__`; the field defaults are what a scenario's absent keys
    take."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __init__(self, x: float = 0.0, y: float = 0.0, theta: float = 0.0):
        if not (_isfinite(x) and _isfinite(y) and _isfinite(theta)):
            raise ConfigurationError("pose coordinates must be finite")
        _setattr(self, "x", x)
        _setattr(self, "y", y)
        _setattr(self, "theta", theta)


# The __setattr__ and __delattr__ that frozen=True generates refuse a field's
# name, but for any other name they call super() with the class that
# slots=True replaced, which on Python 3.11 raises TypeError. These refuse
# every name.
def _refuse_setattr(pose, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(pose, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


Pose.__setattr__ = _refuse_setattr
Pose.__delattr__ = _refuse_delattr


@dataclass(frozen=True)
class ChassisParams:
    wheel_radius_r: float = 0.03
    axle_length_L: float = 0.20
    ticks_per_rev_C: int = 1024

    def __post_init__(self):
        # the corridor robot is a small line follower on a floor mat, with a
        # 3 cm wheel by default; a wheel over 1 m makes no such robot, and a
        # radius near the float maximum overflows the pose within a few steps
        require((self.wheel_radius_r > 0, "wheel_radius_r must be positive"),
                (self.wheel_radius_r <= 1, "wheel_radius_r must be at most 1 (m)"),
                (self.axle_length_L > 0, "axle_length_L must be positive"),
                (self.ticks_per_rev_C > 0, "ticks_per_rev_C must be positive"))


@dataclass(slots=True)
class EncoderDelta:
    dn_right: int
    dn_left: int


def pose_update(pose: Pose, ds_right: float, ds_left: float, params: ChassisParams) -> Pose:
    """Advance a pose by per-wheel arc lengths with the midpoint-heading rule."""
    ds = 0.5 * (ds_right + ds_left)
    dtheta = (ds_right - ds_left) / params.axle_length_L
    mid = pose.theta + 0.5 * dtheta
    return Pose(
        pose.x + ds * math.cos(mid),
        pose.y + ds * math.sin(mid),
        normalize_angle(pose.theta + dtheta),
    )


def drift_error(estimate: Pose, truth: Pose) -> float:
    """Euclidean position error between two poses; heading is ignored."""
    return math.hypot(estimate.x - truth.x, estimate.y - truth.y)


def check_slip(slip_halfwidth: float, slip_bias_halfwidth: float):
    """The slip half-widths MotionSimulator accepts; raises ConfigurationError."""
    require((0.0 <= slip_halfwidth <= 0.1, "slip_halfwidth must be in [0, 0.1]"),
            (0.0 <= slip_bias_halfwidth <= 0.1, "slip_bias_halfwidth must be in [0, 0.1]"))


class MotionSimulator:
    """Ground-truth motion with slip plus quantized encoder readout.

    The true pose advances with per-wheel multiplicative slip: a per-run
    per-wheel bias (tyre and motor asymmetry, drawn once) plus zero-mean
    jitter resampled every step. The reported encoder ticks reflect the
    commanded (un-slipped) rotation, so the dead-reckoned estimate diverges
    from the truth. Tick counts are cumulative and truncated toward zero at
    read time, so no fractional rotation is permanently lost.
    """

    def __init__(self, start: Pose, params: ChassisParams, slip_halfwidth: float, rng: Doubles,
                 slip_bias_halfwidth: float):
        check_slip(slip_halfwidth, slip_bias_halfwidth)
        self.pose = start
        self.params = params
        self.slip_halfwidth = slip_halfwidth
        # a step's slip is uniform(1 - h, 1 + h), written out as numpy's
        # low + (high - low) * u; check_slip keeps its range finite
        h = slip_halfwidth
        self._slip_low, self._slip_span = 1.0 - h, (1.0 + h) - (1.0 - h)
        self.rng = rng
        if slip_bias_halfwidth > 0.0:  # each wheel's bias, right then left
            low, span = symmetric_range(slip_bias_halfwidth)
            self._bias_right = low + span * self.rng.random()
            self._bias_left = low + span * self.rng.random()
        else:
            self._bias_right = self._bias_left = 0.0
        self._angle_right = 0.0  # cumulative commanded wheel angle, rad
        self._angle_left = 0.0
        self._ticks_right = 0
        self._ticks_left = 0

    def step(self, omega_right_rpm: float, omega_left_rpm: float, dt: float) -> tuple[Pose, EncoderDelta]:
        """Advance truth by one timestep; returns (true pose, encoder delta).
        A wheel at `rpm` turns rpm / 60 * 2 pi * dt rad and rolls r times that."""
        if not dt > 0:
            raise ConfigurationError("dt must be positive")
        dth_r = omega_right_rpm / 60.0 * TWO_PI * dt
        dth_l = omega_left_rpm / 60.0 * TWO_PI * dt

        if self.slip_halfwidth > 0.0:
            low, span, random = self._slip_low, self._slip_span, self.rng.random
            s_r = low + span * random()
            s_l = low + span * random()
        else:
            s_r = s_l = 1.0
        s_r += self._bias_right
        s_l += self._bias_left
        params = self.params
        r = params.wheel_radius_r
        self.pose = pose_update(self.pose, r * (dth_r * s_r), r * (dth_l * s_l), params)

        self._angle_right += dth_r
        self._angle_left += dth_l
        c = params.ticks_per_rev_C
        new_r = math.trunc(self._angle_right / TWO_PI * c)
        new_l = math.trunc(self._angle_left / TWO_PI * c)
        delta = EncoderDelta(new_r - self._ticks_right, new_l - self._ticks_left)
        self._ticks_right, self._ticks_left = new_r, new_l
        return self.pose, delta


class DeadReckoner:
    """Integrates encoder tick deltas into a pose estimate."""

    def __init__(self, start: Pose, params: ChassisParams):
        self.pose = start
        self.params = params
        self._rad_per_tick = TWO_PI / params.ticks_per_rev_C

    def update(self, delta: EncoderDelta) -> Pose:
        """A wheel whose encoder moved dN ticks turned 2 pi dN / C rad and
        rolled r times that."""
        params = self.params
        scale = self._rad_per_tick
        r = params.wheel_radius_r
        self.pose = pose_update(self.pose, r * (delta.dn_right * scale),
                                r * (delta.dn_left * scale), params)
        return self.pose
