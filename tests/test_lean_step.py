"""The control step's 3-vector math runs on Python floats, bit for bit.

Each function below is compared, with tobytes(), against a frozen in-test copy
of the numpy code it replaced: PID and pursuit, platform_at, the observation,
the action check and clamp, and the wind draw. The cases include signed
zeros, NaN, ties at the clamp bounds, actions at +-(1 + 1e-6) and reversed
CMPL arcs. The last tests check that the hot records stay immutable named
tuples, that a baseline episode still crosses every boundary the traced
benchmark wraps, and that each loop builds the observation only where it
reads it.
"""

import importlib
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padlander.baseline as baseline
import padlander.environment as environment
import padlander.scenario as scenario
import padlander.td3 as td3
from padlander.baseline import EkfState, PidController, PidState, PursuitConfig, pursuit_command, run_baseline_episode
from padlander.dynamics import SETPOINT_DELTA_BOUND, DroneState, StateCorruptionError
from padlander.environment import OBS_BOUNDS, ActionRangeError, EnvConfig, LandingEnv, StepOutcome, build_observation
from padlander.reward import RewardBreakdown, RewardCase
from padlander.scenario import (
    CALM_FORCE,
    PLATFORM_SPEED_LIMIT,
    PlatformState,
    ScenarioKind,
    ScenarioSpec,
    init_wind,
    platform_at,
    sample_wind_step,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SIGNED = [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 2.0, -2.0, math.nan, math.inf, -math.inf]


def same(a, b) -> bool:
    """Bit equality of two float64 arrays (-0.0 is not 0.0), with every NaN one value.

    Where two NaNs meet, which payload survives is up to the compiled
    instruction, in numpy and in CPython alike; nothing reads a NaN's payload.
    """
    a, b = np.asarray(a), np.asarray(b)
    if not (a.dtype == b.dtype == np.float64 and a.shape == b.shape):
        return False
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.where(nan, 0.0, a).tobytes() == np.where(nan, 0.0, b).tobytes()


# -- the numpy code each function replaced, frozen -------------------------


def old_pid_command(pid, state, error, dt):
    error = np.asarray(error, dtype=float)
    integral = np.maximum(state.integral + error * dt, -pid.integral_clamp)
    state.integral = np.minimum(integral, pid.integral_clamp)
    derivative = np.zeros(3) if state.prev_error is None else (error - state.prev_error) / dt
    state.prev_error = error.copy()
    out = pid.kp * error + pid.ki * state.integral + pid.kd * derivative
    return np.minimum(np.maximum(out, -pid.output_clamp), pid.output_clamp)


def old_pursuit_command(est, drone, pid, pid_state, approach_offset, dt, cfg):
    pad_pos = est.x[:3]
    pad_vel = est.x[3:]
    target = pad_pos + pad_vel * cfg.lookahead
    lateral_error = float(np.hypot(target[0] - drone.position[0], target[1] - drone.position[1]))
    if lateral_error < cfg.align_radius:
        approach_offset = max(0.0, approach_offset - cfg.descent_rate * dt)
    target = target + np.array([0.0, 0.0, approach_offset])
    delta = old_pid_command(pid, pid_state, target - drone.position, dt)
    return delta, approach_offset


def old_lmpl(spec, t):
    period = spec.direction_change_period
    k = int(t // period)
    if k == 0:
        ox = oy = 0.0
        cx, cy = math.cos(spec.initial_heading), math.sin(spec.initial_heading)
    else:
        ox, oy, cx, cy = scenario._lmpl_segment(spec, k)
    along = spec.speed * (t - k * period)
    pos = np.array([ox + along * cx, oy + along * cy, 0.0])
    vel = spec.speed * np.array([cx, cy, 0.0])
    return pos, vel


def old_cmpl(spec, t):
    r = spec.curve_radius
    theta, dtheta = scenario._arc_angle(spec, t)
    center = np.array([-r, 0.0, 0.0])
    pos = center + r * np.array([math.cos(theta), math.sin(theta), 0.0])
    vel = r * dtheta * np.array([-math.sin(theta), math.cos(theta), 0.0])
    return pos, vel


def old_ctl(spec, t):
    pos, vel = old_cmpl(spec, t)
    omega_z = 2.0 * math.pi / (2.0 * spec.direction_change_period)
    pos = pos + np.array([0.0, 0.0, spec.vertical_amplitude * math.sin(omega_z * t)])
    vel = vel + np.array([0.0, 0.0, spec.vertical_amplitude * omega_z * math.cos(omega_z * t)])
    return pos, vel


def old_platform_at(spec, t):
    if spec.kind is ScenarioKind.SPL:
        pos, vel = np.zeros(3), np.zeros(3)
    else:
        pos, vel = {ScenarioKind.LMPL: old_lmpl, ScenarioKind.CMPL: old_cmpl, ScenarioKind.CTL: old_ctl}[spec.kind](
            spec, t)
    return pos, np.minimum(np.maximum(vel, -PLATFORM_SPEED_LIMIT), PLATFORM_SPEED_LIMIT)


def old_build_observation(drone, pad):
    raw = np.concatenate(
        [drone.attitude, drone.velocity, drone.angular_velocity, pad.position - drone.position,
         pad.velocity - drone.velocity]
    )
    if not np.isfinite(raw).all():
        raise StateCorruptionError("non-finite state in observation assembly")
    bounds = OBS_BOUNDS
    return np.minimum(np.maximum(raw, -bounds), bounds) / bounds


def old_checked_action(action):
    """The clamped action, or None where the old check raised ActionRangeError."""
    a = np.asarray(action, dtype=float)
    if not np.abs(a).max() <= 1.0 + 1e-6:
        return None
    return np.minimum(np.maximum(a, -1.0), 1.0)


def old_wind_force(windy, p_step, bound, rng):
    if windy and rng.uniform() < p_step:
        return rng.uniform(-bound, bound, size=3)
    return np.zeros(3)


def drone_at(position, velocity=(0.0, 0.0, 0.0), attitude=(0.0, 0.0, 0.0), angular=(0.0, 0.0, 0.0)):
    p = np.array(position, dtype=float)
    return DroneState(p, np.array(velocity, dtype=float), np.array(attitude, dtype=float),
                      np.array(angular, dtype=float), p.copy())


# -- PID and pursuit --------------------------------------------------------


def assert_pid_step_equal(pid, state, ref, error, dt):
    with np.errstate(all="ignore"):
        want = old_pid_command(pid, ref, np.array(error, dtype=float), dt)
    got = pid.command(state, np.array(error, dtype=float), dt)
    assert same(got, want), (error, got, want)
    assert same(state.integral, ref.integral)
    assert same(state.prev_error, ref.prev_error)


class TestPid:
    def test_random_sequences_match_numpy(self):
        rng = np.random.default_rng(41)
        for clamp in (0.02, 0.5):
            pid = PidController(integral_clamp=clamp)
            state, ref = PidState(), PidState()
            for _ in range(400):
                error = rng.normal(size=3) * 10.0 ** rng.uniform(-4, 1)
                error[rng.uniform(size=3) < 0.15] = 0.0
                error[rng.uniform(size=3) < 0.1] = -0.0
                assert_pid_step_equal(pid, state, ref, error, 1.0 / 30.0)

    @pytest.mark.parametrize("error", [[a, b, c] for a, b, c in zip(SIGNED, SIGNED[3:] + SIGNED[:3], SIGNED[7:] + SIGNED[:7])])
    def test_signed_zeros_nan_and_inf_match_numpy(self, error):
        for kd in (0.3, -0.3, 0.0):
            pid = PidController(kd=kd)
            state, ref = PidState(), PidState()
            for e in (error, error[::-1], [0.0, -0.0, 0.0]):
                assert_pid_step_equal(pid, state, ref, e, 0.1)

    def test_ties_at_both_clamp_bounds(self):
        # integral + 0 * dt sits exactly on +-integral_clamp; kp * e sits exactly on +-output_clamp
        pid = PidController(kp=np.ones(3), ki=0.0, kd=0.0, integral_clamp=0.25, output_clamp=0.0625)
        for integral in ([0.25, -0.25, 0.0], [-0.25, 0.25, -0.0]):
            state, ref = PidState(np.array(integral)), PidState(np.array(integral))
            assert_pid_step_equal(pid, state, ref, [0.0, -0.0, 0.0], 0.1)
            assert_pid_step_equal(pid, state, ref, [0.0625, -0.0625, 0.0625], 0.1)

    def test_kp_is_a_tuple_of_three_floats(self):
        assert same(PidController(kp=2).kp, [2.0, 2.0, 2.0])
        assert same(PidController(kp=[1, 2, 3]).kp, [1.0, 2.0, 3.0])
        kp = PidController(kp=np.array([1.0, 2.0, 3.0])).kp
        assert kp == (1.0, 2.0, 3.0) and all(type(k) is float for k in kp)
        assert PidController(kp=[1, 2, 3]) == PidController(kp=(1.0, 2.0, 3.0))
        assert hash(PidController(kp=2)) == hash(PidController(kp=(2.0, 2.0, 2.0)))
        with pytest.raises(ValueError):
            PidController(kp=[1.0, 2.0])

    @settings(max_examples=300, deadline=None)
    @given(
        error=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=3, max_size=3),
        integral=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        prev=st.one_of(st.none(), st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=3, max_size=3)),
        gains=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
        integral_clamp=st.floats(1e-300, 1e300),
        output_clamp=st.floats(1e-300, SETPOINT_DELTA_BOUND),
        dt=st.floats(1e-3, 1.0),
    )
    def test_float_clamps_match_numpy_property(self, error, integral, prev, gains, integral_clamp, output_clamp, dt):
        pid = PidController(kp=np.array(gains[:3]), ki=gains[3], kd=gains[4],
                            integral_clamp=integral_clamp, output_clamp=output_clamp)
        prev = None if prev is None else np.array(prev)
        state = PidState(np.array(integral), prev)
        ref = PidState(np.array(integral), None if prev is None else prev.copy())
        assert_pid_step_equal(pid, state, ref, error, dt)


class TestPursuit:
    @staticmethod
    def assert_sequence_equal(xs, positions, offset0, cfg=PursuitConfig()):
        pid = PidController()
        state, ref = PidState(), PidState()
        offset = want_offset = offset0
        for x, position in zip(xs, positions):
            est = EkfState(np.array(x, dtype=float), np.eye(6), None)
            drone = drone_at(position)
            with np.errstate(all="ignore"):
                want, want_offset = old_pursuit_command(est, drone, pid, ref, want_offset, 1 / 30, cfg)
            got, offset = pursuit_command(est, drone, pid, state, offset, 1 / 30, cfg)
            assert same(got, want) and offset == want_offset, (x, position)
            assert same(state.integral, ref.integral) and same(state.prev_error, ref.prev_error)

    def test_random_estimates_match_numpy(self):
        rng = np.random.default_rng(42)
        xs = rng.normal(size=(300, 6)) * [1, 1, 0.5, 0.3, 0.3, 0.1]
        positions = xs[:, :3] + rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(-3, 0, size=(300, 1))
        positions[::7, :2] = xs[::7, :2]  # aligned: the descent branch
        self.assert_sequence_equal(xs, positions, 0.5)
        self.assert_sequence_equal(xs, positions, 0.001)

    def test_signed_zeros_and_nan_match_numpy(self):
        # a -0.0 target component meets a 0.0 or -0.0 drone coordinate
        xs = [[-0.0, -0.0, -0.0, 0.0, -0.0, -0.0], [0.0, -0.0, 0.0, -0.0, 0.0, 0.0],
              [-0.0, 0.0, -0.0, -0.0, -0.0, 0.0], [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
              [math.nan, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, math.inf, 0.0, 0.0, 0.0]]
        positions = [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0]]
        for offset in (0.0, -0.0, 0.5):
            self.assert_sequence_equal(xs, positions, offset, PursuitConfig(lookahead=0.0))
            self.assert_sequence_equal(xs, positions, offset)


    def test_descent_gate_uses_numpy_hypot(self):
        # math.hypot rounds differently from np.hypot on some inputs; on those,
        # an align_radius between the two results tells them apart
        rng = np.random.default_rng(45)
        found = 0
        while found < 5:
            a, b = rng.normal(size=2).tolist()
            lo, hi = sorted((float(np.hypot(a, b)), math.hypot(a, b)))
            if lo == hi:
                continue
            found += 1
            for radius in (lo, hi):
                cfg = PursuitConfig(align_radius=radius)
                self.assert_sequence_equal([[a, b, 0.0, 0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]], 0.5, cfg)


# -- platform, observation, action, wind -----------------------------------


def _spec_with_nan_amplitude():
    """A CTL spec whose vertical_amplitude is NaN.

    ScenarioSpec rejects a non-finite field when it is built, so the field is
    set after construction: platform_at must still match its reference on
    NaN input.
    """
    spec = ScenarioSpec(ScenarioKind.CTL)
    object.__setattr__(spec, "vertical_amplitude", math.nan)
    return spec


PLATFORM_SPECS = [
    ScenarioSpec(ScenarioKind.SPL),
    ScenarioSpec(ScenarioKind.LMPL, seed=3, initial_heading=0.0),
    ScenarioSpec(ScenarioKind.LMPL, seed=4, initial_heading=-0.0, speed=PLATFORM_SPEED_LIMIT),
    ScenarioSpec(ScenarioKind.LMPL, seed=5, speed=-0.0, direction_change_period=0.7),
    ScenarioSpec(ScenarioKind.CMPL),
    ScenarioSpec(ScenarioKind.CMPL, speed=0.46, curve_radius=0.3, direction_change_period=0.7),
    ScenarioSpec(ScenarioKind.CMPL, speed=0.0),
    ScenarioSpec(ScenarioKind.CTL),
    ScenarioSpec(ScenarioKind.CTL, vertical_amplitude=1.0, direction_change_period=0.7),  # the clamp bites
    ScenarioSpec(ScenarioKind.CTL, vertical_amplitude=0.0, speed=0.2),
    _spec_with_nan_amplitude(),  # NaN passes the velocity clamp
]


class TestPlatformAt:
    @pytest.mark.parametrize("spec", PLATFORM_SPECS, ids=lambda s: f"{s.kind.value}-{s.speed}-{s.direction_change_period}")
    def test_matches_numpy_over_time(self, spec):
        period = spec.direction_change_period
        ts = np.concatenate([np.linspace(0.0, 25.0, 751), np.arange(0.0, 25.0, period),
                             np.arange(0.0, 25.0, 1 / 30)])
        for t in ts.tolist():
            got = platform_at(spec, t)
            pos, vel = old_platform_at(spec, t)
            assert same(got.position, pos) and same(got.velocity, vel), t

    def test_reversed_cmpl_arc_keeps_its_negative_zero(self):
        spec = ScenarioSpec(ScenarioKind.CMPL)
        reversed_arc = platform_at(spec, 1.5 * spec.direction_change_period)  # segment 1 runs at -omega
        assert reversed_arc.velocity[2] == 0.0 and np.signbit(reversed_arc.velocity[2])
        forward = platform_at(spec, 0.5 * spec.direction_change_period)
        assert not np.signbit(forward.velocity[2])
        # CMPL's x velocity at t = 0 is -0.0, and CTL's + 0.0 makes it 0.0
        assert np.signbit(platform_at(spec, 0.0).velocity[0])
        assert not np.signbit(platform_at(ScenarioSpec(ScenarioKind.CTL), 0.0).velocity[0])

    def test_velocity_clamp_ties_and_bites(self):
        tie = platform_at(ScenarioSpec(ScenarioKind.LMPL, speed=PLATFORM_SPEED_LIMIT), 0.5)
        assert tie.velocity[0] == PLATFORM_SPEED_LIMIT
        steep = ScenarioSpec(ScenarioKind.CTL, vertical_amplitude=1.0, direction_change_period=0.7)
        assert platform_at(steep, 0.0).velocity[2] == PLATFORM_SPEED_LIMIT

    def test_hands_out_fresh_writable_arrays(self):
        for spec in PLATFORM_SPECS[:5]:
            a, b = platform_at(spec, 1.0), platform_at(spec, 1.0)
            assert a.position is not b.position and a.velocity is not b.velocity
            a.position[:] = 9.0
            assert same(platform_at(spec, 1.0).position, b.position)


class TestObservation:
    def test_random_states_match_numpy(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            v = rng.normal(size=(5, 3)) * rng.choice([0.1, 1.0, 20.0], size=(5, 1))
            drone = DroneState(v[0], v[1], v[2], v[3], v[0].copy())
            pad = PlatformState(v[4], rng.uniform(-0.46, 0.46, 3))
            assert same(build_observation(drone, pad), old_build_observation(drone, pad))

    def test_signed_zeros_and_bound_ties_match_numpy(self):
        b = OBS_BOUNDS
        cases = [
            # pad on the drone: zero differences, with either sign of zero
            (drone_at([0.0, -0.0, 1.0], [-0.0, 0.0, -0.0]), PlatformState(np.array([-0.0, 0.0, 1.0]), np.array([0.0, -0.0, -0.0]))),
            (drone_at([-0.0, -0.0, -0.0], attitude=[-0.0, 0.0, -0.0]), PlatformState(np.array([-0.0, -0.0, -0.0]), np.zeros(3))),
            # every component exactly on its bound, then just past it
            (drone_at([0.0, 0.0, 0.0], b[3:6], b[:3], -b[6:9]), PlatformState(b[9:12].copy(), b[3:6] + b[12:15])),
            (drone_at([0.0, 0.0, 0.0], -b[3:6] * 1.5, -b[:3] * 2, b[6:9] * 3),
             PlatformState(-b[9:12] * 4, np.array([0.46, -0.46, 0.0]))),
        ]
        for drone, pad in cases:
            assert same(build_observation(drone, pad), old_build_observation(drone, pad))

    @pytest.mark.parametrize("where", ["attitude", "velocity", "angular_velocity", "position"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_state_raises(self, where, bad):
        drone = drone_at([0.0, 0.0, 1.0])
        getattr(drone, where)[1] = bad
        pad = PlatformState(np.zeros(3), np.zeros(3))
        with pytest.raises(StateCorruptionError, match="non-finite"):
            build_observation(drone, pad)


GRACE = 1.0 + 1e-6
ACTIONS = [
    [GRACE, -GRACE, 0.0],
    [np.nextafter(GRACE, 2.0), 0.0, 0.0],
    [0.0, -np.nextafter(GRACE, 2.0), 0.0],
    [0.0, 0.0, np.nextafter(GRACE, 0.0)],
    [1.0, -1.0, -0.0],
    [-0.0, -0.0, 0.0],
    [1.0 + 1e-7, -(1.0 + 1e-7), 0.3],
    [math.nan, 0.0, 0.0],
    [0.0, 0.0, math.nan],
    [math.inf, 0.0, 0.0],
    [0.0, -math.inf, 0.0],
    [1.5, 0.0, 0.0],
]


class TestAction:
    @staticmethod
    def assert_step_matches(action):
        env = LandingEnv(ScenarioSpec(ScenarioKind.SPL), EnvConfig(wind_enabled=False))
        env.reset(0)
        before = env.drone
        with np.errstate(invalid="ignore"):
            want = old_checked_action(action)
        if want is None:
            with pytest.raises(ActionRangeError, match="outside"):
                env.step(np.array(action))
            return
        out = env.step(np.array(action))
        assert same(out.action, want)
        # the setpoint moved by SETPOINT_DELTA_BOUND * the clamped action
        assert same(out.drone.setpoint, before.position + SETPOINT_DELTA_BOUND * want)

    @pytest.mark.parametrize("action", ACTIONS, ids=str)
    def test_check_and_clamp_match_numpy(self, action):
        self.assert_step_matches(action)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(-1.0000011, 1.0000011), st.sampled_from([GRACE, -GRACE, 0.0, -0.0])),
                    min_size=3, max_size=3))
    def test_check_and_clamp_property(self, action):
        self.assert_step_matches(action)

    def test_wrong_shape_is_range_error(self):
        env = LandingEnv(ScenarioSpec(ScenarioKind.SPL))
        env.reset(0)
        with pytest.raises(ActionRangeError, match="shape"):
            env.step(np.zeros(4))


class TestWind:
    @pytest.mark.parametrize("p_episode, p_step", [(1.0, 0.2), (1.0, 1.0), (1.0, 0.0), (0.0, 0.2)])
    def test_forces_and_draws_match_numpy(self, p_episode, p_step):
        rng, ref_rng = np.random.default_rng(44), np.random.default_rng(44)
        windy = init_wind(rng, p_episode)
        assert windy == bool(ref_rng.uniform() < p_episode)
        for _ in range(500):
            assert same(sample_wind_step(windy, rng, p_step, 0.005), old_wind_force(windy, p_step, 0.005, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_calm_step_shares_one_read_only_zero(self):
        rng = np.random.default_rng(0)
        windy = init_wind(rng, 0.0)
        for _ in range(5):
            assert sample_wind_step(windy, rng, 0.2, 0.005) is CALM_FORCE  # nothing built
        with pytest.raises(ValueError, match="read-only"):
            CALM_FORCE[0] = 1.0
        assert same(CALM_FORCE, np.zeros(3))

    def test_calm_step_after_a_gust_returns_the_calm_zero(self):
        rng = np.random.default_rng(1)
        windy = init_wind(rng, 1.0)
        gust = sample_wind_step(windy, rng, 1.0, 0.005)
        assert gust is not CALM_FORCE and np.all(gust != 0.0)
        assert sample_wind_step(windy, rng, 0.0, 0.005) is CALM_FORCE


# -- records and traced boundaries ------------------------------------------


RECORDS = {
    DroneState: (lambda: drone_at([1.0, 2.0, 3.0]),
                 ("position", "velocity", "attitude", "angular_velocity", "setpoint")),
    PlatformState: (lambda: PlatformState(np.zeros(3), np.ones(3)), ("position", "velocity")),
    RewardBreakdown: (lambda: RewardBreakdown(0.5, RewardCase.MID, 0.0, 0.0, 0.0, 0.0, 0.1),
                      ("total", "case_id", "u_attractive", "u_repulsive", "beta_term", "delta_term", "progress")),
    StepOutcome: (lambda: StepOutcome(None, environment.Terminal.NONE, 0.1, None, None, np.zeros(3), CALM_FORCE),
                  ("reward", "terminal", "t", "drone", "pad", "action", "wind_force")),
}


class TestRecords:
    @pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
    def test_hot_records_are_immutable_named_tuples(self, cls):
        build, names = RECORDS[cls]
        record = build()
        assert isinstance(record, tuple) and cls._fields == names
        with pytest.raises(AttributeError):
            setattr(record, names[0], None)
        with pytest.raises(AttributeError):
            delattr(record, names[-1])
        moved = record._replace(**{names[-1]: "x"})
        assert type(moved) is cls and getattr(moved, names[-1]) == "x"
        assert all(getattr(moved, name) is getattr(record, name) for name in names[:-1])
        assert repr(record).startswith(cls.__name__ + "(")
        with pytest.raises(TypeError):
            cls()
        assert not hasattr(record, "__dict__")

    def test_keywords_and_equality(self):
        pad = PlatformState(velocity=np.ones(3), position=np.zeros(3))
        assert same(pad.position, np.zeros(3)) and same(pad.velocity, np.ones(3))
        a, b = RewardBreakdown(0.5, RewardCase.MID, 0, 0, 0, 0, 0.1), RewardBreakdown(0.5, RewardCase.MID, 0, 0, 0, 0, 0.1)
        assert a == b and hash(a) == hash(b)


def boundary_targets(monkeypatch):
    """The span targets of the traced benchmark that live in the env and baseline modules."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    modules = (environment, scenario, baseline)
    return [(owner, attr) for owner, attr, _ in tracing.span_targets()
            if owner in modules or getattr(owner, "__module__", None) in {m.__name__ for m in modules}]


def count_calls(monkeypatch, targets) -> Counter:
    """Wrap each (owner, attr) so it counts its calls under (owner.__name__, attr)."""
    calls = Counter()
    for owner, attr in targets:
        original = owner.__dict__[attr]

        def counted(*args, _key=(owner.__name__, attr), _fn=original, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    return calls


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_baseline_episode_crosses_every_traced_boundary(kind, monkeypatch):
    calls = count_calls(monkeypatch, boundary_targets(monkeypatch))
    env = LandingEnv(ScenarioSpec(kind), EnvConfig(wind_enabled=True))
    n = len(run_baseline_episode(env, 5).outcomes)
    per_step = {
        ("LandingEnv", "step"): n,
        ("LandingEnv", "reset"): 1,
        ("padlander.environment", "build_observation"): 1,  # reset only: the loop never reads out.observation
        ("padlander.environment", "apply_setpoint_delta"): n,
        ("padlander.environment", "step_drone_many"): n,
        ("padlander.environment", "platform_at"): n + 1,  # also at reset
        ("padlander.scenario", "platform_at"): 1,  # the filter's initial pad
        ("padlander.environment", "sample_wind_step"): n,
        ("padlander.environment", "compute_reward"): n,
        ("padlander.baseline", "ekf_predict"): n,
        ("padlander.baseline", "ekf_update"): n,
        ("padlander.baseline", "pursuit_command"): n,
    }
    assert n > 1
    assert dict(calls) == per_step


OBSERVATION_READS = ((LandingEnv, "step"), (LandingEnv, "reset"), (environment, "build_observation"))


def test_train_builds_one_observation_per_step_and_reset(monkeypatch):
    calls = count_calls(monkeypatch, OBSERVATION_READS)
    hp = td3.Td3Hyperparams(hidden_dims=(4,), batch_size=4, learning_starts=10, total_steps=60, eval_interval=0,
                            checkpoint_interval=0, buffer_capacity=100)
    result = td3.train(lambda: LandingEnv(ScenarioSpec(ScenarioKind.SPL), EnvConfig(episode_cap=0.5)), hp,
                       seed=3)
    steps, resets = calls[("LandingEnv", "step")], calls[("LandingEnv", "reset")]
    assert steps == 60 and resets == result.episodes + 1 and result.episodes > 1
    assert calls[("padlander.environment", "build_observation")] == steps + resets


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_agent_episode_builds_one_observation_per_non_terminal_step(kind, monkeypatch):
    calls = count_calls(monkeypatch, OBSERVATION_READS)
    learner = td3.Td3Learner(td3.Td3Hyperparams(hidden_dims=(4,)), seed=2)
    n = len(td3.run_agent_episode(learner, LandingEnv(ScenarioSpec(kind), EnvConfig(episode_cap=2.0)), 8))
    assert n > 1
    # One observation at reset and one on each of the n - 1 non-terminal steps.
    assert dict(calls) == {("LandingEnv", "step"): n, ("LandingEnv", "reset"): 1,
                           ("padlander.environment", "build_observation"): n}
