import numpy as np
import pytest

from padlander.baseline import (
    _ESTIMATOR_ROW,
    EkfState,
    FilterDivergenceError,
    PidController,
    PidState,
    PursuitConfig,
    ekf_predict,
    ekf_update,
    pursuit_command,
    run_baseline_episode,
    transition_matrix,
)
from padlander.dynamics import DroneState
from padlander.environment import EnvConfig, LandingEnv, Terminal
from padlander.scenario import ScenarioKind, ScenarioSpec


def ekf_update_by_reference(state, z):
    """The update with the SVD-based np.linalg.cond guard."""
    innovation = z - state.x[:3]
    s = state.P[:3, :3] + state.R_meas
    if np.linalg.cond(s) > 1e12:
        raise FilterDivergenceError("innovation covariance numerically singular")
    k = state.P[:, :3] @ np.linalg.inv(s)
    x = state.x + k @ innovation
    i_kh = np.eye(6)
    i_kh[:, :3] -= k
    p = i_kh @ state.P
    return EkfState(x, 0.5 * (p + p.T), state.Q, state.R_meas, state.A)


def ekf_with_innovation_covariance(diag):
    """An EKF whose innovation covariance P[:3, :3] + R is diag(diag)."""
    ekf = EkfState.create(0.1)
    ekf.P[:] = 0.0
    ekf.R_meas[:] = np.diag(diag)
    return ekf


class TestMatrices:
    def test_transition_couples_position_and_velocity(self):
        a = transition_matrix(0.5)
        x = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
        assert np.allclose(a @ x, [0.5, 1.0, 1.5, 1.0, 2.0, 3.0])


class TestEkf:
    def test_predict_moves_position_by_velocity(self):
        ekf = EkfState.create(1.0, x0=[1.0, 2.0, 3.0, 0.1, 0.2, 0.3])
        ekf = ekf_predict(ekf)
        assert np.allclose(ekf.x[:3], [1.1, 2.2, 3.3])
        assert np.allclose(ekf.x[3:], [0.1, 0.2, 0.3])

    def test_predict_matches_matrix_power_oracle(self):
        ekf = EkfState.create(1.0 / 30.0, x0=[0.5, -0.2, 1.0, 0.3, 0.0, -0.1])
        x0 = ekf.x.copy()
        a = ekf.A.copy()
        for _ in range(20):
            ekf = ekf_predict(ekf)
        assert np.max(np.abs(ekf.x - np.linalg.matrix_power(a, 20) @ x0)) < 1e-9

    def test_zero_innovation_leaves_state(self):
        ekf = EkfState.create(0.1, x0=[1.0, 2.0, 3.0, 0.0, 0.0, 0.0])
        updated = ekf_update(ekf, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(updated.x[:3], [1.0, 2.0, 3.0], atol=1e-12)

    def test_tiny_measurement_noise_snaps_to_measurement(self):
        # R -> 0 with large prior covariance: the update trusts the measurement
        ekf = EkfState.create(0.1, x0=np.zeros(6), p0=100.0, r=1e-12)
        updated = ekf_update(ekf, np.array([5.0, -3.0, 2.0]))
        assert np.max(np.abs(updated.x[:3] - [5.0, -3.0, 2.0])) < 1e-6

    def test_noiseless_constant_velocity_track_converges(self):
        dt = 1.0 / 30.0
        pos = np.array([0.3, -0.1, 0.0])
        vel = np.array([0.2, 0.1, 0.0])
        # exact motion model: shrink process noise so the filter can converge
        # to the truth instead of holding a Q-sized steady-state error floor
        ekf = EkfState.create(dt, x0=np.concatenate([pos, np.zeros(3)]), q=1e-14)
        for k in range(1, 51):
            ekf = ekf_predict(ekf)
            ekf = ekf_update(ekf, pos + vel * (k * dt))
        truth = np.concatenate([pos + vel * (50 * dt), vel])
        assert np.max(np.abs(ekf.x - truth)) < 1e-6

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(0)
        ekf = EkfState.create(1.0 / 30.0)
        for _ in range(2000):
            ekf = ekf_predict(ekf)
            ekf = ekf_update(ekf, rng.normal(size=3))
            assert np.allclose(ekf.P, ekf.P.T)
            assert np.min(np.linalg.eigvalsh(ekf.P)) > -1e-12

    def test_singular_innovation_raises(self):
        ekf = EkfState.create(0.1)
        ekf.P[:] = 0.0
        ekf.R_meas[:] = 0.0
        with pytest.raises(FilterDivergenceError):
            ekf_update(ekf, np.zeros(3))

    def test_update_matches_cond_guarded_reference(self):
        rng = np.random.default_rng(4)
        ekf = EkfState.create(1.0 / 30.0, x0=rng.normal(size=6))
        for _ in range(300):
            ekf = ekf_predict(ekf)
            z = rng.normal(size=3)
            got, ref = ekf_update(ekf, z), ekf_update_by_reference(ekf, z)
            assert np.array_equal(got.x, ref.x) and np.array_equal(got.P, ref.P)
            ekf = got

    def test_divergence_guard_at_the_condition_bound(self):
        # cond(diag(1, 1, e)) = 1 / e exactly
        with pytest.raises(FilterDivergenceError, match="singular"):
            ekf_update(ekf_with_innovation_covariance([1.0, 1.0, 1e-12 / 1.001]), np.zeros(3))
        with pytest.raises(FilterDivergenceError, match="singular"):
            ekf_update(ekf_with_innovation_covariance([0.0, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(FilterDivergenceError, match="singular"):
            ekf_update(ekf_with_innovation_covariance([1.0, -1.0, 0.0]), np.zeros(3))
        below = ekf_with_innovation_covariance([1.0, 1.0, 1e-12 * 1.001])
        assert np.linalg.cond(below.P[:3, :3] + below.R_meas) < 1e12
        ekf_update(below, np.zeros(3))

    @pytest.mark.parametrize("where", [(0, 0), (1, 2), (5, 5), (4, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_is_divergence(self, where, bad):
        ekf = EkfState.create(0.1)
        ekf.P[where] = bad
        with pytest.raises(FilterDivergenceError, match="covariance P"):
            ekf_update(ekf, np.zeros(3))

    def test_estimator_row_format_matches_fstring_join(self):
        rng = np.random.default_rng(9)
        vectors = [rng.normal(size=6) * 10.0 ** rng.uniform(-12, 12, 6) for _ in range(500)]
        vectors.append(np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]))
        vectors.append(np.array([1e16, -1e-16, 0.1, 123456789.0, 1234567890123.0, 1.0 / 3.0]))
        for v in vectors:
            assert _ESTIMATOR_ROW % tuple(v.tolist()) == ",".join(f"{x:.9g}" for x in v)

    def test_bad_measurement_rejected(self):
        ekf = EkfState.create(0.1)
        with pytest.raises(ValueError):
            ekf_update(ekf, np.array([1.0, np.nan, 0.0]))

    def test_innovation_magnitude_tracks_measurement_noise(self):
        # In steady state the innovations inherit the injected noise scale.
        rng = np.random.default_rng(7)
        dt = 1.0 / 30.0
        sigma = 0.001
        ekf = EkfState.create(dt)
        innovations = []
        for k in range(3000):
            ekf = ekf_predict(ekf)
            z = np.array([0.3 * k * dt, 0.0, 0.0]) + rng.normal(0.0, sigma, 3)
            if k > 500:
                innovations.append(z - ekf.x[:3])
            ekf = ekf_update(ekf, z)
        rms = float(np.sqrt(np.mean(np.square(innovations))))
        assert 0.5 * sigma < rms < 5.0 * sigma


class TestPid:
    def test_zero_error_zero_command(self):
        pid = PidController()
        assert np.array_equal(pid.command(PidState(), np.zeros(3), 0.1), np.zeros(3))

    def test_proportional_term(self):
        pid = PidController(ki=0.0, kd=0.0)
        out = pid.command(PidState(), np.array([0.01, -0.02, 0.03]), 0.1)
        assert np.allclose(out, [0.012, -0.024, 0.03])

    def test_output_clamped_to_actuation_bound(self):
        pid = PidController()
        out = pid.command(PidState(), np.array([10.0, -10.0, 10.0]), 0.1)
        assert np.max(np.abs(out)) <= 0.1 + 1e-12

    def test_integral_windup_clamped(self):
        pid = PidController(kp=np.zeros(3), kd=0.0)
        state = PidState()
        for _ in range(1000):
            pid.command(state, np.array([1.0, 0.0, 0.0]), 0.1)
        assert state.integral[0] == pytest.approx(pid.integral_clamp)

    @pytest.mark.parametrize("field", ["integral_clamp", "output_clamp"])
    @pytest.mark.parametrize("value", [0.0, -0.1, float("nan")])
    def test_clamps_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match="positive"):
            PidController(**{field: value})

    def test_clamps_match_np_clip(self):
        pid = PidController(integral_clamp=0.02)
        ref_pid = PidController(integral_clamp=0.02)
        rng = np.random.default_rng(12)
        state, ref, dt = PidState(), PidState(), 1.0 / 30.0
        for _ in range(500):
            error = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 1)
            error[rng.uniform(size=3) < 0.1] = 0.0
            got = pid.command(state, error, dt)
            # the same law, clamped with np.clip
            ref.integral = np.clip(ref.integral + error * dt, -0.02, 0.02)
            derivative = np.zeros(3) if ref.prev_error is None else (error - ref.prev_error) / dt
            ref.prev_error = error.copy()
            want = np.clip(ref_pid.kp * error + ref_pid.ki * ref.integral + ref_pid.kd * derivative, -0.1, 0.1)
            assert got.tobytes() == want.tobytes()
            assert state.integral.tobytes() == ref.integral.tobytes()

    def test_fresh_state_has_no_history(self):
        pid = PidController()
        used = PidState()
        first = pid.command(used, np.ones(3), 0.1)
        pid.command(used, -np.ones(3), 0.1)
        fresh = PidState()
        assert np.array_equal(fresh.integral, np.zeros(3))
        assert fresh.prev_error is None
        # the gains carry no history: a fresh state repeats the first command
        assert np.array_equal(pid.command(fresh, np.ones(3), 0.1), first)


class TestPursuit:
    def test_descent_gated_on_lateral_alignment(self):
        cfg = PursuitConfig()
        pid = PidController()
        est = EkfState.create(1 / 30, x0=np.zeros(6))
        far = DroneState.at_rest([1.0, 0.0, 0.5])
        _, off = pursuit_command(est, far, pid, PidState(), cfg.approach_height, 1 / 30, cfg)
        assert off == cfg.approach_height  # misaligned: hold altitude offset
        near = DroneState.at_rest([0.01, 0.0, 0.5])
        _, off = pursuit_command(est, near, pid, PidState(), cfg.approach_height, 1 / 30, cfg)
        assert off == pytest.approx(cfg.approach_height - cfg.descent_rate / 30)

    def test_offset_never_negative(self):
        cfg = PursuitConfig()
        pid = PidController()
        est = EkfState.create(1 / 30, x0=np.zeros(6))
        drone = DroneState.at_rest([0.0, 0.0, 0.1])
        state = PidState()
        off = 0.001
        for _ in range(10):
            _, off = pursuit_command(est, drone, pid, state, off, 1 / 30, cfg)
        assert off == 0.0

    def test_lookahead_leads_moving_estimate(self):
        cfg = PursuitConfig(lookahead=0.5)
        pid = PidController(kp=np.ones(3), ki=0.0, kd=0.0, output_clamp=10.0)
        est = EkfState.create(1 / 30, x0=[0.0, 0.0, 0.0, 0.3, 0.0, 0.0])
        drone = DroneState.at_rest([0.0, 0.0, 0.0])
        delta, _ = pursuit_command(est, drone, pid, PidState(), 0.0, 1 / 30, cfg)
        # pure P control toward the led target 0.3 * 0.5 = 0.15 m ahead
        assert delta[0] == pytest.approx(0.15)


class TestClosedLoop:
    def test_static_pad_touchdown(self):
        env = LandingEnv(ScenarioSpec(ScenarioKind.SPL), EnvConfig(wind_enabled=False))
        ep = run_baseline_episode(env, seed=3)
        assert ep.terminal is Terminal.TOUCHDOWN
        rel = ep.outcomes[-1].info["rel_pos"]
        assert float(np.hypot(rel[0], rel[1])) < 0.15

    def test_estimator_rows_align_with_outcomes(self):
        env = LandingEnv(ScenarioSpec(ScenarioKind.SPL), EnvConfig(wind_enabled=False))
        ep = run_baseline_episode(env, seed=5)
        assert len(ep.estimator_rows) == len(ep.outcomes)
        assert all(len(r.split(",")) == 6 for r in ep.estimator_rows)

    def test_episode_is_deterministic(self):
        env = LandingEnv(ScenarioSpec(ScenarioKind.LMPL), EnvConfig())
        a = run_baseline_episode(env, seed=11)
        b = run_baseline_episode(env, seed=11)
        assert a.terminal is b.terminal
        assert len(a.outcomes) == len(b.outcomes)
        assert a.estimator_rows == b.estimator_rows

    def test_moving_pad_tracked(self):
        # the filter's velocity estimate should settle near the true pad speed
        env = LandingEnv(ScenarioSpec(ScenarioKind.LMPL), EnvConfig(wind_enabled=False))
        ep = run_baseline_episode(env, seed=2)
        errs = []
        for row, out in zip(ep.estimator_rows, ep.outcomes):
            est_v = np.array([float(v) for v in row.split(",")[3:]])
            errs.append(np.max(np.abs(est_v - out.info["pad"].velocity)))
        # transients right after direction changes are large; typical steps track
        assert float(np.median(errs)) < 0.1
