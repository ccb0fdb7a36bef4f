"""The odometry conversions that `MotionSimulator.step` and
`DeadReckoner.update` compute inline, kept as separate steps: the tests
check them against hand-worked values, and check that step and update give
exactly (==) their composition."""

import math

from wardsim.kinematics import TWO_PI, pose_update


def rpm_to_wheel_angle(rpm, dt):
    """Wheel rotation (rad) produced by a constant speed over dt seconds."""
    return rpm / 60.0 * TWO_PI * dt


def ticks_to_angles(delta, params):
    """Encoder tick deltas to wheel rotation angles: dtheta = 2*pi*dN/C."""
    scale = TWO_PI / params.ticks_per_rev_C
    return delta.dn_right * scale, delta.dn_left * scale


def angles_to_arcs(dtheta_right, dtheta_left, params):
    """Wheel rotation angles to arc lengths (right, left): ds = r*dtheta."""
    r = params.wheel_radius_r
    return r * dtheta_right, r * dtheta_left


def reference_step(sim, gen, omega_right_rpm, omega_left_rpm, dt):
    """`MotionSimulator.step` as the composition of the conversions, on the
    simulator's own state, with its slip drawn by `gen`'s own `uniform`: a
    numpy Generator on the seed of the simulator's stream, past the draws
    the simulator has made."""
    dth_r = rpm_to_wheel_angle(omega_right_rpm, dt)
    dth_l = rpm_to_wheel_angle(omega_left_rpm, dt)
    h = sim.slip_halfwidth
    if h > 0.0:
        s_r = gen.uniform(1.0 - h, 1.0 + h)
        s_l = gen.uniform(1.0 - h, 1.0 + h)
    else:
        s_r = s_l = 1.0
    s_r += sim._bias_right
    s_l += sim._bias_left
    sim.pose = pose_update(sim.pose, *angles_to_arcs(dth_r * s_r, dth_l * s_l, sim.params),
                           sim.params)
    sim._angle_right += dth_r
    sim._angle_left += dth_l
    c = sim.params.ticks_per_rev_C
    new_r = math.trunc(sim._angle_right / TWO_PI * c)
    new_l = math.trunc(sim._angle_left / TWO_PI * c)
    delta = (new_r - sim._ticks_right, new_l - sim._ticks_left)
    sim._ticks_right, sim._ticks_left = new_r, new_l
    return sim.pose, delta


def reference_update(reckoner, delta):
    """`DeadReckoner.update` as the composition of the conversions."""
    params = reckoner.params
    arcs = angles_to_arcs(*ticks_to_angles(delta, params), params)
    reckoner.pose = pose_update(reckoner.pose, *arcs, params)
    return reckoner.pose
