"""Odometry unit tests against hand-worked and closed-form arc oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wardsim import ConfigurationError
from _odometry import (angles_to_arcs, reference_step, reference_update, rpm_to_wheel_angle,
                       ticks_to_angles)
from wardsim.kinematics import (ChassisParams, DeadReckoner, EncoderDelta, MotionSimulator,
                                Pose, drift_error, normalize_angle, pose_update)
from wardsim.rng import Doubles

PARAMS = ChassisParams()  # r=0.03 m, L=0.20 m, C=1024 ticks/rev


def stream(seed=0):
    """A slip stream; a simulator with no slip and no bias draws nothing from it."""
    return Doubles(np.random.default_rng(seed))


def test_ticks_to_angles_half_and_quarter_rev():
    dthr, dthl = ticks_to_angles(EncoderDelta(512, 256), PARAMS)
    assert dthr == pytest.approx(math.pi, abs=1e-15)
    assert dthl == pytest.approx(math.pi / 2, abs=1e-15)


def test_angles_to_arcs_scales_by_wheel_radius():
    ds_right, ds_left = angles_to_arcs(math.pi, math.pi / 2, PARAMS)
    assert ds_right == pytest.approx(0.03 * math.pi)
    assert ds_left == pytest.approx(0.015 * math.pi)


def test_pose_update_hand_worked_case():
    # ticks (512, 256) from the origin: ds = 0.075*pi/2... worked by hand:
    #   ds_r = 0.03*pi, ds_l = 0.015*pi
    #   ds   = 0.0225*pi = 0.070685834...
    #   dth  = 0.0075*pi
    # /0.2  = 0.117809724...*2 = 0.235619449...
    # midpoint heading 0.117809724 -> x = ds*cos, y = ds*sin
    arcs = angles_to_arcs(math.pi, math.pi / 2, PARAMS)
    pose = pose_update(Pose(0.0, 0.0, 0.0), *arcs, PARAMS)
    assert pose.x == pytest.approx(0.07019587279983032, abs=1e-12)
    assert pose.y == pytest.approx(0.008308229048451141, abs=1e-12)
    assert pose.theta == pytest.approx(0.23561944901923446, abs=1e-12)


def test_pose_update_agrees_with_exact_arc_for_small_steps():
    # closed-form ICC oracle: R = ds/dth; displacement (R sin, R(1-cos))
    ds_right, ds_left = 0.0101, 0.0099
    pose = pose_update(Pose(0.0, 0.0, 0.0), ds_right, ds_left, PARAMS)
    ds = 0.5 * (ds_right + ds_left)
    dth = (ds_right - ds_left) / PARAMS.axle_length_L
    R = ds / dth
    assert pose.x == pytest.approx(R * math.sin(dth), rel=1e-6)
    assert pose.y == pytest.approx(R * (1 - math.cos(dth)), rel=1e-4)


def test_straight_line_is_exact():
    pose = Pose(0.0, 0.0, 0.0)
    for _ in range(10_000):
        pose = pose_update(pose, 0.001, 0.001, PARAMS)
    assert abs(pose.y) < 1e-12
    assert abs(pose.theta) < 1e-12
    assert pose.x == pytest.approx(10.0, abs=1e-9)


def test_circle_closure_within_half_percent():
    # 5 degrees of rotation per step, 72 steps -> one full turn
    dth_step = math.radians(5.0)
    ds_step = 0.01
    dsr = ds_step + dth_step * PARAMS.axle_length_L / 2
    dsl = ds_step - dth_step * PARAMS.axle_length_L / 2
    pose = Pose(0.0, 0.0, 0.0)
    for _ in range(72):
        pose = pose_update(pose, dsr, dsl, PARAMS)
    circumference = ds_step * 72
    assert math.hypot(pose.x, pose.y) < 0.005 * circumference
    assert normalize_angle(pose.theta) == pytest.approx(0.0, abs=1e-9)


def test_zero_arcs_leave_pose_unchanged():
    p = Pose(1.0, 2.0, 0.5)
    assert pose_update(p, 0.0, 0.0, PARAMS) == p


def test_pure_rotation_keeps_position():
    p = pose_update(Pose(1.0, 2.0, 0.3), 0.01, -0.01, PARAMS)
    assert p.x == pytest.approx(1.0)
    assert p.y == pytest.approx(2.0)
    assert p.theta == pytest.approx(0.3 + 0.02 / PARAMS.axle_length_L)


@given(st.floats(-50.0, 50.0))
def test_normalize_angle_range_and_identity(theta):
    t = normalize_angle(theta)
    assert -math.pi < t <= math.pi
    # same direction modulo 2*pi
    assert math.cos(t) == pytest.approx(math.cos(theta), abs=1e-9)
    assert math.sin(t) == pytest.approx(math.sin(theta), abs=1e-9)


@given(st.floats(-0.01, 0.01), st.floats(-0.01, 0.01),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_pose_update_reversibility(dsr, dsl, x, y, theta):
    """Driving an arc then the reversed arc returns to the start pose."""
    start = Pose(x, y, normalize_angle(theta))
    fwd = pose_update(start, dsr, dsl, PARAMS)
    back = pose_update(fwd, -dsr, -dsl, PARAMS)
    assert back.x == pytest.approx(start.x, abs=1e-12)
    assert back.y == pytest.approx(start.y, abs=1e-12)
    assert math.cos(back.theta) == pytest.approx(math.cos(start.theta), abs=1e-12)
    assert math.sin(back.theta) == pytest.approx(math.sin(start.theta), abs=1e-12)


def test_rpm_to_wheel_angle():
    # 60 RPM for one second is exactly one revolution
    assert rpm_to_wheel_angle(60.0, 1.0) == pytest.approx(2 * math.pi)
    assert rpm_to_wheel_angle(-30.0, 0.5) == pytest.approx(-math.pi / 2)


def test_pose_rejects_non_finite():
    with pytest.raises(ConfigurationError):
        Pose(float("nan"), 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        Pose(0.0, float("inf"), 0.0)


def test_pose_is_immutable():
    pose = Pose(1.0, 2.0, 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pose.x = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del pose.theta
    # a name that is not a field: the generated methods raised TypeError
    with pytest.raises(dataclasses.FrozenInstanceError):
        pose.z = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del pose.z
    assert (pose.x, pose.y, pose.theta) == (1.0, 2.0, 0.5)


def test_pose_is_equal_and_hashable_by_value():
    a, b = Pose(1.0, 2.0, 0.5), Pose(x=1.0, y=2.0, theta=0.5)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Pose(1.0, 2.0, -0.5)
    assert Pose() == Pose(0.0, 0.0, 0.0) == dataclasses.replace(a, x=0.0, y=0.0, theta=0.0)
    assert repr(a) == "Pose(x=1.0, y=2.0, theta=0.5)"


def test_chassis_params_validate():
    with pytest.raises(ConfigurationError):
        ChassisParams(wheel_radius_r=0.0)
    with pytest.raises(ConfigurationError):
        ChassisParams(axle_length_L=-1.0)


# ---------------------------------------------------------------------------
# motion simulator + dead reckoning


def test_noise_free_motion_matches_dead_reckoning_exactly_on_tick_boundaries():
    """With zero slip the only estimate error is encoder quantization, and the
    cumulative tick counters never lose a fraction permanently."""
    sim = MotionSimulator(Pose(0, 0, 0), PARAMS, 0.0, stream(), 0.0)
    dr = DeadReckoner(Pose(0, 0, 0), PARAMS)
    for _ in range(1000):
        truth, delta = sim.step(50.0, 50.0, 0.01)
        est = dr.update(delta)
    # 1000 steps at 50 RPM, 10 ms: 500 ms of rotation = 8.3333 revs per wheel
    # quantization bounds the estimate error by one tick of arc per wheel
    tick_arc = 2 * math.pi / PARAMS.ticks_per_rev_C * PARAMS.wheel_radius_r
    assert drift_error(est, truth) <= tick_arc
    assert abs(truth.y) < 1e-12


def test_quantization_truncates_toward_zero_without_losing_fractions():
    sim = MotionSimulator(Pose(0, 0, 0), PARAMS, 0.0, stream(), 0.0)
    total = 0
    # 1 RPM for 10 ms steps: ~0.1745 ticks per step, so most deltas are 0
    for _ in range(1000):
        _, delta = sim.step(1.0, 1.0, 0.01)
        assert delta.dn_right in (0, 1)
        total += delta.dn_right
    expected = math.trunc(1.0 / 60.0 * 10.0 * PARAMS.ticks_per_rev_C)  # 10 s total
    assert total == expected


def test_slip_moves_truth_but_not_encoders():
    sim = MotionSimulator(Pose(0, 0, 0), PARAMS, 0.05, stream(5), 0.0)
    clean = MotionSimulator(Pose(0, 0, 0), PARAMS, 0.0, stream(), 0.0)
    deltas_noisy, deltas_clean = [], []
    for _ in range(200):
        _, d1 = sim.step(60.0, 40.0, 0.01)
        _, d2 = clean.step(60.0, 40.0, 0.01)
        deltas_noisy.append((d1.dn_right, d1.dn_left))
        deltas_clean.append((d2.dn_right, d2.dn_left))
    assert deltas_noisy == deltas_clean          # encoders report commanded rotation
    assert sim.pose != clean.pose                # truth diverges under slip


def test_per_run_wheel_bias_produces_systematic_drift():
    sim = MotionSimulator(Pose(0, 0, 0), PARAMS, 0.0, stream(11), 0.02)
    dr = DeadReckoner(Pose(0, 0, 0), PARAMS)
    drifts = []
    for _ in range(2000):
        truth, delta = sim.step(50.0, 50.0, 0.01)
        est = dr.update(delta)
        drifts.append(drift_error(est, truth))
    # systematic bias: drift grows roughly monotonically with distance
    assert drifts[-1] > drifts[len(drifts) // 2] > drifts[len(drifts) // 10]
    assert drifts[-1] > 0.001


def test_motion_simulator_rejects_bad_inputs():
    sim = MotionSimulator(Pose(0, 0, 0), PARAMS, 0.02, stream(), 0.01)
    with pytest.raises(ConfigurationError):
        sim.step(50.0, 50.0, 0.0)
    with pytest.raises(ConfigurationError):
        MotionSimulator(Pose(0, 0, 0), PARAMS, 0.5, stream(), 0.0)
    with pytest.raises(ConfigurationError):
        MotionSimulator(Pose(0, 0, 0), PARAMS, 0.02, stream(), 0.2)


def test_motion_is_deterministic_for_a_seed():
    def run(seed):
        sim = MotionSimulator(Pose(0, 0, 0), PARAMS, 0.02, stream(seed), 0.01)
        for _ in range(300):
            pose, _ = sim.step(55.0, 45.0, 0.01)
        return pose

    assert run(9) == run(9)
    assert run(9) != run(10)


# ---------------------------------------------------------------------------
# step and update against the composed conversions they compute inline

_COMMANDS = st.lists(st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0)),
                     min_size=1, max_size=30)


@pytest.mark.corridor_oracle
@given(commands=_COMMANDS, dt=st.floats(1e-4, 0.1),
       slip=st.sampled_from([0.0, 0.02, 0.1]), bias=st.sampled_from([0.0, 0.01, 0.1]),
       seed=st.integers(0, 2**32 - 1),
       radius=st.floats(1e-3, 1.0), axle=st.floats(1e-2, 2.0), ticks=st.integers(1, 1 << 16))
def test_motion_step_equals_the_composed_conversions(commands, dt, slip, bias, seed,
                                                     radius, axle, ticks):
    params = ChassisParams(radius, axle, ticks)
    sims = [MotionSimulator(Pose(1.0, 2.0, 0.5), params, slip, Doubles(np.random.default_rng(seed)),
                            slip_bias_halfwidth=bias) for _ in range(2)]
    gen = np.random.default_rng(seed)
    if bias > 0.0:  # each wheel's bias is the Generator's own uniform(-b, b), right then left
        assert sims[0]._bias_right == gen.uniform(-bias, bias)
        assert sims[0]._bias_left == gen.uniform(-bias, bias)
    for omega_right, omega_left in commands:
        pose, delta = sims[0].step(omega_right, omega_left, dt)
        assert (pose, (delta.dn_right, delta.dn_left)) == reference_step(sims[1], gen, omega_right,
                                                                         omega_left, dt)


@pytest.mark.corridor_oracle
@pytest.mark.parametrize("ticks", [100, 360, 1000])
def test_motion_step_equals_the_composed_conversions_on_tick_boundaries(ticks):
    """Whole speeds held over round timesteps bring the cumulative angle to
    a tick boundary now and then, where the order of the quantizing float
    operations shows in the tick count."""
    params = ChassisParams(ticks_per_rev_C=ticks)
    for rpm, dt in ((30.0, 0.1), (60.0, 0.01), (120.0, 0.1)):
        sim, reference = (MotionSimulator(Pose(), params, 0.0, stream(), 0.0) for _ in range(2))
        for _ in range(1000):  # no slip, so no draw
            pose, delta = sim.step(rpm, rpm / 2, dt)
            assert (pose, (delta.dn_right, delta.dn_left)) == reference_step(reference, None, rpm,
                                                                             rpm / 2, dt)


@pytest.mark.corridor_oracle
@given(deltas=st.lists(st.tuples(st.integers(-5000, 5000), st.integers(-5000, 5000)),
                       min_size=1, max_size=30),
       radius=st.floats(1e-3, 1.0), axle=st.floats(1e-2, 2.0), ticks=st.integers(1, 1 << 16))
def test_dead_reckoner_update_equals_the_composed_conversions(deltas, radius, axle, ticks):
    params = ChassisParams(radius, axle, ticks)
    reckoner, reference = (DeadReckoner(Pose(1.0, 2.0, 0.5), params) for _ in range(2))
    for dn_right, dn_left in deltas:
        delta = EncoderDelta(dn_right, dn_left)
        assert reckoner.update(delta) == reference_update(reference, delta)
