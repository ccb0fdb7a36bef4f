"""IR sensing, lateral-error reduction, PID, and the closed steering loop."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wardsim import ConfigurationError
from wardsim.kinematics import Pose
from wardsim.rng import Doubles
from wardsim.line_following import (DEFAULT_SPEED_CAP_RPM, DEFAULT_WEIGHTS, HOLD_LOST_S,
                                    IrGeometry, LineFollower, PidGains, PidState,
                                    apply_control, line_error, pid_step, sensor_positions,
                                    simulate_ir)
from wardsim.track import Track, rounded_rect_track


def test_line_error_examples():
    assert line_error((0, 0, 1, 0, 0)) == 0.0
    assert line_error((0, 0, 0, 1, 0)) == 1.0       # line one sensor to the right
    assert line_error((0, 1, 0, 0, 0)) == -1.0
    assert line_error((0, 0, 0, 1, 1)) == 1.5
    assert line_error((0, 0, 1, 1, 0)) == 0.5
    assert line_error((1, 1, 1, 1, 1)) == 0.0       # symmetric detection cancels
    assert line_error((0, 0, 0, 0, 0)) is None      # line lost


@given(st.tuples(*[st.integers(0, 1)] * 5))
def test_line_error_antisymmetric(s):
    e = line_error(s)
    mirrored = line_error(tuple(reversed(s)))
    if e is None:
        assert mirrored is None
    else:
        assert mirrored == pytest.approx(-e)
        assert -2.0 <= e <= 2.0


def test_line_error_validates_lengths():
    with pytest.raises(ConfigurationError):
        line_error((1, 0, 1))


# ---------------------------------------------------------------------------
# PID


def test_pid_proportional_only():
    g = PidGains(kp=2.0, ki=0.0, kd=0.0)
    st_ = PidState()
    assert pid_step(g, st_, 1.5, 0.01) == pytest.approx(3.0)


def test_pid_integral_accumulates_and_clamps():
    g = PidGains(kp=0.0, ki=1.0, kd=0.0, integral_clamp=0.05)
    st_ = PidState()
    u1 = pid_step(g, st_, 1.0, 0.02)
    u2 = pid_step(g, st_, 1.0, 0.02)
    u3 = pid_step(g, st_, 1.0, 0.02)   # would be 0.06, clamped to 0.05
    assert u1 == pytest.approx(0.02)
    assert u2 == pytest.approx(0.04)
    assert u3 == pytest.approx(0.05)


def test_pid_derivative_zero_on_first_step():
    g = PidGains(kp=0.0, ki=0.0, kd=1.0)
    st_ = PidState()
    assert pid_step(g, st_, 5.0, 0.1) == 0.0                  # no history yet
    assert pid_step(g, st_, 6.0, 0.1) == pytest.approx(10.0)  # (6-5)/0.1
    st_.reset()
    assert pid_step(g, st_, 2.0, 0.1) == 0.0


def test_pid_is_linear_in_proportional_term():
    g = PidGains(kp=3.0, ki=0.0, kd=0.0)
    s1, s2 = PidState(), PidState()
    for e in (0.5, -1.0, 2.0):
        assert pid_step(g, s1, 2 * e, 0.01) == pytest.approx(2 * pid_step(g, s2, e, 0.01))


def test_pid_rejects_nonpositive_dt():
    with pytest.raises(ConfigurationError):
        pid_step(PidGains(), PidState(), 1.0, 0.0)


def test_gains_validate():
    with pytest.raises(ConfigurationError):
        PidGains(kp=-1.0)
    with pytest.raises(ConfigurationError):
        PidGains(integral_clamp=0.0)


# ---------------------------------------------------------------------------
# mixer


def test_apply_control_differential_mixing():
    cmd = apply_control(60.0, 10.0)
    assert (cmd.omega_right, cmd.omega_left) == (70.0, 50.0)


def test_apply_control_caps_speeds():
    # at 85 rpm either way
    cmd = apply_control(60.0, 40.0)
    assert cmd.omega_right == 85.0
    assert cmd.omega_left == 20.0
    cmd = apply_control(0.0, -100.0)
    assert (cmd.omega_right, cmd.omega_left) == (-85.0, 85.0)


@given(st.floats(-60.0, 60.0), st.floats(-20.0, 20.0))
def test_apply_control_preserves_sum_when_uncapped(base, u):
    cmd = apply_control(base, u)
    assert cmd.omega_right + cmd.omega_left == pytest.approx(2 * base)
    assert cmd.omega_right - cmd.omega_left == pytest.approx(2 * u)


# ---------------------------------------------------------------------------
# simulated IR over track geometry


def test_sensor_positions_layout():
    geom = IrGeometry(pitch=0.015, forward_offset=0.05)
    pos = sensor_positions(Pose(1.0, 2.0, 0.0), geom)
    assert len(pos) == 5 and all(len(p) == 2 for p in pos)
    # facing +x: array sits 5 cm ahead; leftmost sensor is at +y
    assert [x for x, _ in pos] == pytest.approx(np.full(5, 1.05))
    assert [y for _, y in pos] == pytest.approx([2.03, 2.015, 2.0, 1.985, 1.97])


def reference_sensor_positions(pose, geometry):
    """The numpy computation sensor_positions replaced, kept as its oracle."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    heading = np.array([c, s])
    right = np.array([s, -c])
    center = np.array([pose.x, pose.y]) + geometry.forward_offset * heading
    offsets = np.arange(-2, 3) * geometry.pitch
    return center[None, :] + offsets[:, None] * right[None, :]


@pytest.mark.corridor_oracle
@given(x=st.floats(-50, 50), y=st.floats(-50, 50),
       theta=st.floats(-math.pi, math.pi, exclude_min=True),
       pitch=st.floats(0.0, 0.1), forward_offset=st.floats(-0.2, 0.2))
def test_sensor_positions_equal_the_numpy_expression(x, y, theta, pitch, forward_offset):
    pose = Pose(x, y, theta)
    geom = IrGeometry(pitch=pitch, forward_offset=forward_offset)
    got = sensor_positions(pose, geom)
    assert got == [tuple(p) for p in reference_sensor_positions(pose, geom).tolist()]
    assert all(type(v) is float for p in got for v in p)


# ---------------------------------------------------------------------------
# the rewritten helpers against the expressions they replaced, kept as
# oracles; repr also tells -0.0 from 0.0 and a numpy float from a float


def reference_line_error(s):
    active = sum(s)
    if active == 0:
        return None
    return sum(w * si for w, si in zip(DEFAULT_WEIGHTS, s)) / active


def reference_apply_control(omega_base, u):
    cap = DEFAULT_SPEED_CAP_RPM
    clamp = lambda w: max(-cap, min(cap, w))  # noqa: E731
    return clamp(omega_base + u), clamp(omega_base - u)


@pytest.mark.corridor_oracle
@given(st.tuples(*[st.integers(0, 1)] * 5))
def test_line_error_equals_the_generator_expression(s):
    assert repr(line_error(s)) == repr(reference_line_error(s))


@pytest.mark.corridor_oracle
@given(st.floats(-200.0, 200.0), st.floats(-300.0, 300.0) | st.sampled_from([0.0, -0.0]))
def test_apply_control_equals_the_lambda(omega_base, u):
    cmd = apply_control(omega_base, u)
    assert repr((cmd.omega_right, cmd.omega_left)) == repr(reference_apply_control(omega_base, u))


_TRACK = rounded_rect_track()
# a 0.04 m line along the borders of a 2 x 2 m mat: half of it is off the mat
_BORDER_TRACK = Track([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)], ["straight"] * 4,
                      line_width=0.04, mat_size=(2.0, 2.0))
# coordinates on the default track's straight lines (x = 0.6 or 2.9, y = 0.6
# or 3.4) and a half line width either side of one, on the mats' near and
# far borders (the default mat is 3.5 x 4.0 m), just past them and exactly a
# half line width inside the border track's, and on the 0.1 m candidate-cell
# edges on and off the mats; with a pitch and forward offset of 0 every
# sensor sits on the pose
_COORDS = st.sampled_from([0.6, 0.6 - 0.009, 0.6 + 0.009, 2.9, 3.4, 0.0, -0.0, 0.02, -0.02,
                           2.0 - 0.02, 2.0, 2.02, 3.5, 4.0]) \
    | st.integers(-5, 45).map(lambda k: k * 0.1) | st.floats(-0.5, 4.5)


@pytest.mark.corridor_oracle
@given(track=st.sampled_from([_TRACK, _BORDER_TRACK]), x=_COORDS, y=_COORDS,
       theta=st.sampled_from([0.0, math.pi / 2, math.pi]) | st.floats(-math.pi, math.pi),
       pitch=st.sampled_from([0.0, 0.015]) | st.floats(0.0, 0.1),
       forward_offset=st.sampled_from([0.0, 0.05]) | st.floats(-0.2, 0.2))
def test_simulate_ir_equals_the_per_sensor_loop(track, x, y, theta, pitch, forward_offset):
    # a sensor detects the line when it is on the mat and within half a line
    # width of the polyline
    pose = Pose(x, y, theta)
    geom = IrGeometry(pitch=pitch, forward_offset=forward_offset)
    half = track.line_width / 2
    w, h = track.mat_size

    def on_mat(p):
        return 0.0 <= p[0] <= w and 0.0 <= p[1] <= h

    got = simulate_ir(track, pose, geom)
    assert got == tuple(int(on_mat(p) and track.query(*p).distance <= half)
                        for p in sensor_positions(pose, geom))
    assert all(type(v) is int for v in got)


# a pose on the border track with a pitch and forward offset of 0, so all five
# sensors sit on it: a sensor detects the line up to and including half a line
# width from it and on the mat up to and including its borders
@pytest.mark.parametrize("x, y, detected", [
    (1.0, 0.0, 1), (1.0, 0.02, 1), (1.0, math.nextafter(0.02, 1.0), 0), (1.0, -0.01, 0),
    (2.0, 1.0, 1), (math.nextafter(2.0, 3.0), 1.0, 0), (2.0, 2.0, 1), (-0.0, 0.0, 1),
    (0.3, 0.0, 1), (0.3, 0.1, 0), (1.0, 1.0, 0),
], ids=["on_the_line", "half_a_line_width_from_it", "just_past_half_a_line_width",
        "off_the_mat_within_half_a_line_width", "on_the_far_border", "just_past_the_far_border",
        "on_the_far_corner", "on_the_near_corner_at_minus_zero", "on_a_cell_edge_on_the_line",
        "on_a_cell_corner_off_the_line", "mid_mat"])
def test_simulate_ir_at_a_point(x, y, detected):
    got = simulate_ir(_BORDER_TRACK, Pose(x, y, 0.3), IrGeometry(pitch=0.0, forward_offset=0.0))
    assert got == (detected,) * 5


@pytest.mark.parametrize("geometry, error", [
    ({"pitch": -0.015}, "pitch must be nonnegative and finite"),
    ({"pitch": math.inf}, "pitch must be nonnegative and finite"),
    ({"forward_offset": -math.inf}, "forward_offset must be finite"),
    ({"pitch": -0.015, "forward_offset": math.inf},
     "pitch must be nonnegative and finite; forward_offset must be finite"),
], ids=["pitch_negative", "pitch_inf", "forward_offset_inf", "both"])
def test_geometry_refuses_an_array_it_cannot_lay_out(geometry, error):
    with pytest.raises(ConfigurationError, match=f"^{error}$"):
        IrGeometry(**geometry)


def test_simulate_ir_centered_on_line():
    track = rounded_rect_track()
    # place the robot mid-bottom-edge heading along the track (+x)
    pose = Pose(1.75, 0.6, 0.0)
    s = simulate_ir(track, pose, IrGeometry())
    assert s == (0, 0, 1, 0, 0)
    assert line_error(s) == 0.0


def test_simulate_ir_offset_shifts_detection():
    track = rounded_rect_track()
    # robot displaced 15 mm to the left of the line: line appears one
    # sensor to the right
    pose = Pose(1.75, 0.6 + 0.015, 0.0)
    s = simulate_ir(track, pose, IrGeometry())
    assert line_error(s) == 1.0


def test_simulate_ir_far_from_line_sees_nothing():
    track = rounded_rect_track()
    s = simulate_ir(track, Pose(1.75, 2.0, 0.0), IrGeometry())
    assert line_error(s) is None


def test_sensors_off_the_mat_see_no_line():
    # a line along the mat's edge y = 0, wide enough to reach three sensors
    track = Track([(0.2, 0.0), (1.2, 0.0), (1.2, 1.0), (0.2, 1.0)], ["straight"] * 4,
                  line_width=0.04, mat_size=(2.0, 2.0))
    # sensors at y = 0.03, 0.015, 0, -0.015, -0.03: the one at -0.015 is
    # within half a line width of the line but off the mat
    s = simulate_ir(track, Pose(0.6, 0.0, 0.0), IrGeometry())
    assert s == (0, 1, 1, 0, 0)


# ---------------------------------------------------------------------------
# closed loop


def test_follower_steers_toward_the_line():
    """Right-offset line (e > 0) must slow the right wheel so the robot
    turns right, and symmetrically for the left."""
    track = rounded_rect_track()
    fol = LineFollower()
    cmd, e = fol.step(track, Pose(1.75, 0.6 + 0.015, 0.0), 0.01)
    assert e == 1.0
    assert cmd.omega_right < cmd.omega_left

    fol.reset()
    cmd, e = fol.step(track, Pose(1.75, 0.6 - 0.015, 0.0), 0.01)
    assert e == -1.0
    assert cmd.omega_right > cmd.omega_left


def test_follower_holds_last_control_then_faults():
    track = rounded_rect_track()
    fol = LineFollower()
    dt = 0.125  # a binary fraction, so the lost time adds up exactly
    # establish a control value on the line
    fol.step(track, Pose(1.75, 0.6 + 0.015, 0.0), dt)
    for _ in range(round(HOLD_LOST_S / dt)):  # lost to the end of the hold
        held, e = fol.step(track, Pose(1.75, 2.0, 0.0), dt)
        assert e is None and not fol.faulted
        assert held.omega_right != held.omega_left  # last correction still applied
    cmd, e = fol.step(track, Pose(1.75, 2.0, 0.0), dt)
    assert e is None and fol.faulted
    assert cmd.omega_right == cmd.omega_left == 0.0
    fol.reset()
    assert not fol.faulted


def test_follower_converges_from_offset_start():
    """From 1 cm of lateral offset the loop should recapture line center
    within a second of simulated driving."""
    from wardsim.kinematics import ChassisParams, MotionSimulator

    track = rounded_rect_track()
    fol = LineFollower()
    sim = MotionSimulator(Pose(1.2, 0.6 + 0.010, 0.0), ChassisParams(), 0.0,
                          Doubles(np.random.default_rng(0)), 0.0)
    pose = sim.pose
    for _ in range(100):
        cmd, _ = fol.step(track, pose, 0.01)
        pose, _ = sim.step(cmd.omega_right, cmd.omega_left, 0.01)
    assert track.query(pose.x, pose.y).distance < 0.005
    assert not fol.faulted
