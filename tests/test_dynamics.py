import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from padlander.baseline import PidController, PursuitConfig
from padlander.dynamics import (
    ActionBoundError,
    DroneParams,
    DroneState,
    VEL_ENVELOPE,
    StateCorruptionError,
    apply_setpoint_delta,
    clamp,
    step_drone_many,
)
from padlander.environment import EnvConfig
from padlander.reward import RewardConfig
from padlander.scenario import ScenarioKind, ScenarioSpec
from padlander.td3 import Td3Hyperparams

DT = 1.0 / 240.0


def step_by_reference(state, params, force, dt, n_substeps):
    """The substep loop with atan2 on every substep and min(max()) clamps."""
    px, py, pz = (float(c) for c in state.position)
    vx, vy, vz = (float(c) for c in state.velocity)
    roll, pitch = float(state.attitude[0]), float(state.attitude[1])
    spx, spy, spz = (float(c) for c in state.setpoint)
    ex, ey, ez = (float(c) for c in VEL_ENVELOPE)
    fax, fay, faz = (float(c) / params.mass for c in force)
    kp, inv_tau, a_max, g = params.kp_pos, 1.0 / params.tau_v, params.a_max, params.gravity
    for _ in range(n_substeps):
        vcx = min(max(kp * (spx - px), -ex), ex)
        vcy = min(max(kp * (spy - py), -ey), ey)
        vcz = min(max(kp * (spz - pz), -ez), ez)
        ax = (vcx - vx) * inv_tau
        ay = (vcy - vy) * inv_tau
        az = (vcz - vz) * inv_tau
        norm = math.sqrt(ax * ax + ay * ay + az * az)
        if norm > a_max:
            scale = a_max / norm
            ax *= scale
            ay *= scale
            az *= scale
        prev_roll, prev_pitch = roll, pitch
        pitch = math.atan2(ax, g)
        roll = math.atan2(-ay, g)
        vx = min(max(vx + (ax + fax) * dt, -ex), ex)
        vy = min(max(vy + (ay + fay) * dt, -ey), ey)
        vz = min(max(vz + (az + faz) * dt, -ez), ez)
        px += vx * dt
        py += vy * dt
        pz += vz * dt
    return DroneState(
        np.array([px, py, pz]),
        np.array([vx, vy, vz]),
        np.array([roll, pitch, 0.0]),
        np.array([(roll - prev_roll) / dt, (pitch - prev_pitch) / dt, 0.0]),
        state.setpoint.copy(),
    )


FIELDS = ("position", "velocity", "attitude", "angular_velocity", "setpoint")


@pytest.mark.parametrize("n_substeps", [1, 2, 8])
def test_substep_loop_matches_every_substep_reference(n_substeps):
    rng = np.random.default_rng(n_substeps)
    cases = [
        # envelope-clamped: moving at the velocity limit toward a far setpoint
        (DroneState(np.zeros(3), np.array([3.0, -3.0, 2.0]), np.array([0.1, -0.2, 0.0]), np.zeros(3),
                    np.array([20.0, -20.0, 20.0])), DroneParams()),
        # a_max-saturated: a large setpoint error against a low acceleration cap
        (DroneState(np.array([0.5, 0.5, 1.0]), np.array([-1.0, 0.5, 0.0]), np.zeros(3), np.zeros(3),
                    np.array([-4.0, 3.0, -2.0])), DroneParams(a_max=2.0)),
        # both at once, with a stiff setpoint gain
        (DroneState(np.zeros(3), np.array([-3.0, 3.0, -2.0]), np.zeros(3), np.zeros(3),
                    np.array([9.0, -9.0, 9.0])), DroneParams(kp_pos=40.0, a_max=1.0)),
    ]
    for _ in range(40):
        cases.append((
            DroneState(rng.uniform(-1, 1, 3), rng.uniform(-3, 3, 3) * [1, 1, 2 / 3], rng.uniform(-0.5, 0.5, 3),
                       np.zeros(3), rng.uniform(-2, 2, 3)),
            DroneParams(a_max=float(rng.uniform(0.5, 20.0))),
        ))
    for state, params in cases:
        for force in (np.zeros(3), rng.uniform(-0.005, 0.005, 3)):
            got = step_drone_many(state, params, force, DT, n_substeps)
            ref = step_by_reference(state, params, force, DT, n_substeps)
            for f in FIELDS:
                a, b = getattr(got, f), getattr(ref, f)
                assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), (f, n_substeps)


def test_equilibrium_is_a_fixpoint():
    state = DroneState.at_rest([1.0, 2.0, 3.0])
    params = DroneParams()
    out = state
    for _ in range(100):
        out = step_drone_many(out, params, np.zeros(3), DT, 1)
    assert np.array_equal(out.position, state.position)
    assert np.array_equal(out.velocity, np.zeros(3))
    assert np.array_equal(out.attitude, np.zeros(3))
    assert np.array_equal(out.angular_velocity, np.zeros(3))


def test_force_integration_matches_f_equals_ma():
    state = DroneState.at_rest([0.0, 0.0, 1.0])
    params = DroneParams(mass=0.027)
    out = step_drone_many(state, params, np.array([0.005, 0.0, 0.0]), DT, 1)
    assert out.velocity[0] == pytest.approx(0.005 / 0.027 / 240.0, rel=1e-12)
    assert out.velocity[1] == 0.0 and out.velocity[2] == 0.0


def test_velocity_envelope_under_distant_setpoint():
    # Brute-force stepping toward a setpoint 10 m away: vx never exceeds 3.
    state = DroneState.at_rest([0.0, 0.0, 1.0])
    state = DroneState(
        state.position, state.velocity, state.attitude, state.angular_velocity,
        np.array([10.0, 0.0, 1.0]),
    )
    params = DroneParams()
    peak = 0.0
    for _ in range(1000):
        state = step_drone_many(state, params, np.zeros(3), DT, 1)
        assert abs(state.velocity[0]) <= 3.0 + 1e-12
        peak = max(peak, state.velocity[0])
    assert peak > 2.5  # the cap actually binds during the dash


def test_envelope_property_random_rollouts():
    rng = np.random.default_rng(7)
    params = DroneParams()
    for _ in range(20):
        state = DroneState.at_rest(rng.uniform(-1, 1, 3))
        for _ in range(200):
            if rng.uniform() < 0.1:
                delta = rng.uniform(-0.1, 0.1, 3)
                state = apply_setpoint_delta(state, delta)
            force = rng.uniform(-0.005, 0.005, 3)
            state = step_drone_many(state, params, force, DT, 1)
            assert abs(state.velocity[0]) <= 3.0 + 1e-12
            assert abs(state.velocity[1]) <= 3.0 + 1e-12
            assert abs(state.velocity[2]) <= 2.0 + 1e-12


def test_determinism():
    rng = np.random.default_rng(3)
    state = DroneState.at_rest(rng.uniform(-1, 1, 3))
    state = apply_setpoint_delta(state, [0.1, -0.05, 0.02])
    params = DroneParams()
    force = np.array([0.003, -0.002, 0.001])
    a = step_drone_many(state, params, force, DT, 1)
    b = step_drone_many(state, params, force, DT, 1)
    for f in ("position", "velocity", "attitude", "angular_velocity", "setpoint"):
        assert np.array_equal(getattr(a, f), getattr(b, f))


def test_attitude_stays_below_quarter_turn():
    rng = np.random.default_rng(11)
    params = DroneParams()
    state = DroneState.at_rest([0.0, 0.0, 1.0])
    for _ in range(500):
        state = apply_setpoint_delta(state, rng.uniform(-0.1, 0.1, 3))
        state = step_drone_many(state, params, rng.uniform(-0.005, 0.005, 3), DT, 1)
        assert abs(state.attitude[0]) < np.pi / 2
        assert abs(state.attitude[1]) < np.pi / 2
        assert state.attitude[2] == 0.0


def test_setpoint_delta_semantics():
    state = DroneState.at_rest([1.0, 1.0, 1.0])
    out = apply_setpoint_delta(state, [0.1, -0.1, 0.0])
    assert np.allclose(out.setpoint, [1.1, 0.9, 1.0])
    assert np.array_equal(out.position, state.position)
    hover = apply_setpoint_delta(state, [0.0, 0.0, 0.0])
    assert np.array_equal(hover.setpoint, state.position)


def test_setpoint_delta_bound_enforced():
    state = DroneState.at_rest([0.0, 0.0, 0.0])
    with pytest.raises(ActionBoundError):
        apply_setpoint_delta(state, [0.2, 0.0, 0.0])


def test_non_finite_inputs_rejected():
    state = DroneState.at_rest([0.0, 0.0, 0.0])
    with pytest.raises(StateCorruptionError):
        step_drone_many(state, DroneParams(), np.array([np.nan, 0.0, 0.0]), DT, 1)
    bad = DroneState(
        np.array([np.inf, 0.0, 0.0]), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3)
    )
    with pytest.raises(StateCorruptionError):
        step_drone_many(bad, DroneParams(), np.zeros(3), DT, 1)
    with pytest.raises(StateCorruptionError, match=r"^non-finite setpoint delta \[ 0\. nan  0\.\]$"):
        apply_setpoint_delta(state, [0.0, np.nan, 0.0])


@pytest.mark.parametrize("force, dt, n_substeps, message", [
    (np.zeros(3), 0.0, 1, r"^dt must be positive, got 0\.0$"),
    (np.zeros(3), -DT, 1, r"^dt must be positive, got -0\.004166"),
    (np.zeros(3), DT, 0, r"^n_substeps must be >= 1, got 0$"),
    (np.zeros(2), DT, 1, r"^expected 3-vector, got shape \(2,\)$"),
], ids=["dt-zero", "dt-negative", "no-substeps", "force-shape"])
def test_bad_step_arguments_rejected(force, dt, n_substeps, message):
    with pytest.raises(ValueError, match=message):
        step_drone_many(DroneState.at_rest([0.0, 0.0, 0.0]), DroneParams(), force, dt, n_substeps)


# The seven settings records, each built with one field set and the rest at defaults.
SETTINGS = [DroneParams, functools.partial(ScenarioSpec, ScenarioKind.CTL), EnvConfig, RewardConfig,
            PidController, PursuitConfig, Td3Hyperparams]

BAD_SETTINGS = [  # (build, field, value, error message pattern)
    *((build, name, value, f"^{name} must be positive, got {value}$")
      for build, name in [(DroneParams, "mass"), (DroneParams, "tau_v"),
                          (functools.partial(ScenarioSpec, ScenarioKind.LMPL), "direction_change_period"),
                          (functools.partial(ScenarioSpec, ScenarioKind.CMPL), "curve_radius")]
      for value in (math.nan, 0.0, -1.0)),
    # Every float field, read from dataclasses.fields so that a new one is swept too.
    *((build, f.name, value, rf"\b{f.name}\b")
      for build in SETTINGS for f in dataclasses.fields(getattr(build, "func", build)) if f.type is float
      for value in (math.nan, math.inf, -math.inf)),
    # Every int field: a fraction, an infinity or a bool is not an integer.
    *((build, f.name, value, f"^{f.name} must be an integer, got {value}$")
      for build in SETTINGS for f in dataclasses.fields(getattr(build, "func", build)) if f.type is int
      for value in (2.5, math.inf, True)),
    # A whole-number float is not an integer either, and the field named is the one that holds it.
    (functools.partial(EnvConfig, physics_hz=240.0), "control_hz", 30.0, "^control_hz must be an integer, got 30.0$"),
    (functools.partial(EnvConfig, physics_hz=240.0), "control_hz", 30, "^physics_hz must be an integer, got 240.0$"),
    *((PidController, "kp", kp, r"^kp must be finite") for kp in ([math.nan, 1, 1], [1, math.inf, 1], -math.inf)),
    # A layer width must be an integer >= 1: the He init divides by it and numpy sizes arrays with it.
    *((Td3Hyperparams, "hidden_dims", dims,
       f"^hidden_dims must be a tuple of integers >= 1, got {re.escape(str(dims))}$")
      for dims in ((0,), (-1,), (8.0,), (64, True), [64, 64])),
    # A kind that is not a ScenarioKind would reach platform_at's CTL branch.
    *((ScenarioSpec, "kind", kind, f"^kind must be a ScenarioKind, got {re.escape(repr(kind))}$")
      for kind in ("SPL", None, 0)),
]


@pytest.mark.parametrize("build, name, value, message", BAD_SETTINGS,
                         ids=[f"{getattr(b, 'func', b).__name__}.{n}={v}" for b, n, v, _ in BAD_SETTINGS])
def test_settings_reject_bad_values_when_built_in_code(build, name, value, message):
    """An interval check fails NaN too, and every float field must be finite, not only those set through config."""
    with pytest.raises(ValueError, match=message):
        build(**{name: value})


@pytest.mark.parametrize("dims", [(), (1,), (400, 300), (np.int64(8),)])
def test_hidden_dims_accepts_integer_widths(dims):
    """No hidden layer is a linear net; any integer type is a width."""
    assert Td3Hyperparams(hidden_dims=dims).hidden_dims == dims


@given(v=st.floats(), c=st.floats(min_value=0.0, exclude_min=True), tie=st.sampled_from([0, 1, -1]))
@example(v=math.nan, c=1.0, tie=0)
@example(v=-math.nan, c=0.46, tie=0)
@example(v=0.0, c=1.0, tie=0)
@example(v=-0.0, c=1.0, tie=0)
@example(v=math.inf, c=1.0, tie=0)
@example(v=-math.inf, c=1.0, tie=0)
@example(v=0.0, c=math.inf, tie=1)
@example(v=0.0, c=math.inf, tie=-1)
@example(v=5e-324, c=1.0, tie=0)
@example(v=-5e-324, c=5e-324, tie=0)
@example(v=1e-310, c=5e-324, tie=0)
@example(v=0.0, c=5e-324, tie=-1)
@example(v=0.0, c=0.1, tie=1)
@example(v=0.0, c=0.1, tie=-1)
def test_clamp_matches_numpy_bits(v, c, tie):
    """clamp(v, -c, c) has the bits of np.minimum(np.maximum(v, -c), c) for any c > 0."""
    if tie:
        v = tie * c
    expected = np.minimum(np.maximum(np.float64(v), -c), c)
    assert np.float64(clamp(v, -c, c)).tobytes() == expected.tobytes()
