import numpy as np
import pytest

import padlander.baseline as baseline
from padlander.baseline import (
    EkfState,
    FilterDivergenceError,
    KalmanModel,
    PidController,
    PidState,
    PursuitConfig,
    ekf_predict,
    ekf_update,
    kalman_model,
    pursuit_command,
    run_baseline_episode,
    transition_matrix,
)
from padlander.dynamics import SETPOINT_DELTA_BOUND, DroneState, StateCorruptionError
from padlander.environment import EnvConfig, LandingEnv, Terminal
from padlander.scenario import ScenarioKind, ScenarioSpec


def ekf_update_by_reference(state, z):
    """The update with the SVD-based np.linalg.cond guard."""
    innovation = z - state.x[:3]
    s = state.P[:3, :3] + state.model.R
    if np.linalg.cond(s) > 1e12:
        raise FilterDivergenceError("innovation covariance numerically singular")
    k = state.P[:, :3] @ np.linalg.inv(s)
    x = state.x + k @ innovation
    i_kh = np.eye(6)
    i_kh[:, :3] -= k
    p = i_kh @ state.P
    return EkfState(x, 0.5 * (p + p.T), state.model)


def ekf_with_innovation_covariance(diag):
    """An EKF whose innovation covariance P[:3, :3] + R is diag(diag), with R = 0."""
    ekf = EkfState.create(0.1, r=0.0)
    ekf.P[:] = 0.0
    ekf.P[:3, :3] = np.diag(diag)
    return ekf


def ekf_predict_unmemoized(x, P, A, Q):
    """The predict step as it was before the covariance memo."""
    x = A @ x
    p = A @ P @ A.T + Q
    return x, 0.5 * (p + p.T)


def ekf_update_unmemoized(x, P, R, z):
    """The update step as it was before the covariance memo, checks in the same order."""
    z = np.asarray(z, dtype=float)
    if z.shape != (3,) or not np.isfinite(z).all():
        raise StateCorruptionError(f"measurement must be a finite 3-vector, got {z}")
    if not np.isfinite(P).all():
        raise FilterDivergenceError("EKF covariance P is not finite")
    innovation = z - x[:3]
    s = P[:3, :3] + R
    w = [abs(v) for v in np.linalg.eigvalsh(s).tolist()]
    if min(w) == 0.0 or max(w) / min(w) > 1e12:
        raise FilterDivergenceError("innovation covariance numerically singular")
    k = P[:, :3] @ np.linalg.inv(s)
    x = x + k @ innovation
    i_kh = np.eye(6)
    i_kh[:, :3] -= k
    p = i_kh @ P
    return x, 0.5 * (p + p.T)


def fresh_model(dt, q=1e-4, r=1e-6):
    """A model with empty caches, not shared through kalman_model."""
    return KalmanModel(transition_matrix(dt), q * np.eye(6), r * np.eye(3))


def cache_infos(model):
    """The CacheInfo of the model's predict and update caches."""
    return model._predicted.cache_info(), model._updated.cache_info()


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
        a = ekf.model.A.copy()
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
        ekf = EkfState.create(0.1, r=0.0)
        ekf.P[:] = 0.0
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
        assert np.linalg.cond(below.P[:3, :3] + below.model.R) < 1e12
        ekf_update(below, np.zeros(3))

    @pytest.mark.parametrize("where", [(0, 0), (1, 2), (5, 5), (4, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_is_divergence(self, where, bad):
        ekf = EkfState.create(0.1)
        ekf.P[where] = bad
        with pytest.raises(FilterDivergenceError, match="covariance P"):
            ekf_update(ekf, np.zeros(3))

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


class TestKalmanMemo:
    MODELS = [(1 / 30, 1e-6), (1 / 60, 1e-6), (1 / 60, 1e-4)]

    def test_matches_unmemoized_filter_cold_and_warm(self):
        rng = np.random.default_rng(21)
        models = [fresh_model(dt, r=r) for dt, r in self.MODELS]
        misses = []
        # Episodes alternate between models, so a cache shared across models would show.
        for episode in range(3):
            for model, (dt, r) in zip(models, self.MODELS):
                A, Q, R = transition_matrix(dt), 1e-4 * np.eye(6), r * np.eye(3)
                x0 = rng.normal(size=6)
                ekf = EkfState(x0.copy(), np.eye(6), model)
                x, P = x0.copy(), np.eye(6)
                for _ in range(1100):  # past the 1035 distinct covariances at 60 Hz
                    ekf = ekf_predict(ekf)
                    x, P = ekf_predict_unmemoized(x, P, A, Q)
                    assert np.array_equal(ekf.x, x) and np.array_equal(ekf.P, P)
                    z = x[:3] + rng.normal(0.0, 10.0 ** rng.uniform(-4, 0), 3)
                    ekf = ekf_update(ekf, z)
                    x, P = ekf_update_unmemoized(x, P, R, z)
                    assert np.array_equal(ekf.x, x) and np.array_equal(ekf.P, P)
            misses.append([[info.misses for info in cache_infos(m)] for m in models])
        assert misses[0] == misses[1] == misses[2]  # episodes 2 and 3 ran on hits only
        assert sum(misses[0][0]) > 1000 and sum(misses[0][1]) > 2000

    def test_create_shares_one_model_per_parameters(self):
        a, b = EkfState.create(1 / 30, x0=np.ones(6)), EkfState.create(1 / 30)
        assert a.model is b.model is kalman_model(1 / 30, 1e-4, 1e-6)
        assert EkfState.create(1 / 60).model is not a.model
        assert EkfState.create(1 / 30, r=1e-4).model is not a.model

    def test_model_arrays_are_read_only(self):
        model = kalman_model(1 / 30, 1e-4, 1e-6)
        for a in (model.A, model.Q, model.R):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_raises_every_call_and_only_predict_stores_it(self, bad):
        model = fresh_model(1 / 30)
        P = np.eye(6)
        P[2, 4] = bad
        ekf = EkfState(np.zeros(6), P, model)
        for _ in range(3):
            with pytest.raises(FilterDivergenceError, match="covariance P"):
                ekf_update(ekf, np.zeros(3))
            with np.errstate(invalid="ignore"):
                assert not np.isfinite(ekf_predict(ekf).P).all()
        predicted, updated = cache_infos(model)
        assert (updated.misses, updated.currsize) == (3, 0)  # a raising update stores nothing
        # predict is a pure function of P, so its non-finite result is stored and reused
        assert (predicted.hits, predicted.misses, predicted.currsize) == (2, 1, 1)

    def test_singular_innovation_raises_every_call_and_is_not_stored(self):
        model = fresh_model(0.1, r=0.0)
        ekf = EkfState(np.zeros(6), np.zeros((6, 6)), model)
        for _ in range(3):
            with pytest.raises(FilterDivergenceError, match="singular"):
                ekf_update(ekf, np.zeros(3))
        assert cache_infos(model)[1].currsize == 0

    def test_bad_measurement_is_checked_before_a_memo_hit(self):
        ekf = ekf_predict(EkfState.create(1 / 30))
        ekf_update(ekf, np.zeros(3))  # the covariance is now stored
        with pytest.raises(StateCorruptionError):
            ekf_update(ekf, np.array([0.0, np.inf, 0.0]))

    def test_mutating_a_covariance_does_not_change_later_results(self):
        model = fresh_model(1 / 30)
        first = EkfState(np.zeros(6), np.eye(6), model)
        predicted = ekf_predict(first)
        updated = ekf_update(predicted, np.ones(3))
        want_p, want_u = predicted.P.copy(), updated.P.copy()
        for state in (first, predicted, updated):  # each state owns a writable copy
            state.P[0, 0] = 7.0
        for stored in (model.predicted_covariance(np.eye(6)), *model.updated_covariance_and_gain(want_p)):
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0] = 7.0
        again = ekf_predict(EkfState(np.zeros(6), np.eye(6), model))
        assert np.array_equal(again.P, want_p)
        assert np.array_equal(ekf_update(again, np.ones(3)).P, want_u)
        moved = ekf_predict(first)  # the mutated covariance is a new key, not a stale hit
        assert np.array_equal(moved.P, ekf_predict_unmemoized(first.x, first.P, model.A, model.Q)[1])

    def test_memo_never_exceeds_its_bound(self, monkeypatch):
        monkeypatch.setattr(baseline, "KALMAN_MEMO_ENTRIES", 16)
        model = fresh_model(1 / 30)
        ekf = EkfState(np.zeros(6), np.eye(6), model)
        x, P = np.zeros(6), np.eye(6)
        for _ in range(100):
            ekf = ekf_update(ekf_predict(ekf), np.ones(3))
            x, P = ekf_update_unmemoized(*ekf_predict_unmemoized(x, P, model.A, model.Q), model.R, np.ones(3))
            assert all(info.currsize <= 16 for info in cache_infos(model))
        assert [info.currsize for info in cache_infos(model)] == [16, 16]
        assert np.array_equal(ekf.x, x) and np.array_equal(ekf.P, P)

    def test_bound_holds_the_whole_recursion_at_the_highest_control_rate(self):
        # 240 Hz, the physics rate, is the highest control_hz EnvConfig accepts. From
        # P0 = I the recursion repeats within 3952 steps there, so a second pass over
        # 4000 steps must run on hits only: an LRU cache smaller than a repeating
        # sweep would miss on every call.
        model = fresh_model(1 / 240)

        def sweep():
            ekf = EkfState(np.zeros(6), np.eye(6), model)
            for _ in range(4000):
                ekf = ekf_update(ekf_predict(ekf), np.zeros(3))
            infos = cache_infos(model)
            assert all(info.currsize <= baseline.KALMAN_MEMO_ENTRIES for info in infos)
            return [info.misses for info in infos]

        first = sweep()
        assert min(first) > 3900
        assert sweep() == first


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

    @pytest.mark.parametrize("value", [0.1 + 1e-12, 0.125, 0.2, 10.0])
    def test_output_clamp_above_actuation_bound_rejected(self, value):
        # the env rejects a setpoint delta beyond SETPOINT_DELTA_BOUND, so the baseline's larger commands would crash
        with pytest.raises(ValueError, match="output_clamp must be at most the actuation bound 0.1"):
            PidController(output_clamp=value)
        assert PidController(output_clamp=SETPOINT_DELTA_BOUND).output_clamp == 0.1

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
        pid = PidController(kp=np.ones(3), ki=0.0, kd=0.0)
        est = EkfState.create(1 / 30, x0=[0.0, 0.0, 0.0, 0.12, 0.0, 0.0])
        drone = DroneState.at_rest([0.0, 0.0, 0.0])
        delta, _ = pursuit_command(est, drone, pid, PidState(), 0.0, 1 / 30, cfg)
        # pure P control toward the led target 0.12 * 0.5 = 0.06 m ahead, inside the 0.1 m output clamp
        assert delta[0] == pytest.approx(0.06)


class TestClosedLoop:
    def test_static_pad_touchdown(self):
        env = LandingEnv(ScenarioSpec(ScenarioKind.SPL), EnvConfig(wind_enabled=False))
        ep = run_baseline_episode(env, seed=3)
        last = ep.outcomes[-1]
        assert last.terminal is Terminal.TOUCHDOWN
        rel = last.drone.position - last.pad.position
        assert float(np.hypot(rel[0], rel[1])) < 0.15

    def test_estimator_rows_align_with_outcomes(self, monkeypatch):
        updates = []

        def recording_update(state, z):
            updates.append(ekf_update(state, z))
            return updates[-1]

        monkeypatch.setattr(baseline, "ekf_update", recording_update)
        env = LandingEnv(ScenarioSpec(ScenarioKind.SPL), EnvConfig(wind_enabled=False))
        ep = run_baseline_episode(env, seed=5)
        assert len(ep.estimator_rows) == len(ep.outcomes) == len(updates)
        # Step k's row is the array its update returned, not a copy.
        assert all(row is state.x and row.shape == (6,) for row, state in zip(ep.estimator_rows, updates))

    def test_episode_is_deterministic(self):
        env = LandingEnv(ScenarioSpec(ScenarioKind.LMPL), EnvConfig())
        a = run_baseline_episode(env, seed=11)
        b = run_baseline_episode(env, seed=11)
        assert a.outcomes[-1].terminal is b.outcomes[-1].terminal
        assert len(a.outcomes) == len(b.outcomes)
        assert len(a.estimator_rows) == len(b.estimator_rows)
        assert all(np.array_equal(x, y) for x, y in zip(a.estimator_rows, b.estimator_rows))

    def test_moving_pad_tracked(self):
        # the filter's velocity estimate should settle near the true pad speed
        env = LandingEnv(ScenarioSpec(ScenarioKind.LMPL), EnvConfig(wind_enabled=False))
        ep = run_baseline_episode(env, seed=2)
        errs = []
        for row, out in zip(ep.estimator_rows, ep.outcomes):
            est_v = row[3:]
            errs.append(np.max(np.abs(est_v - out.pad.velocity)))
        # transients right after direction changes are large; typical steps track
        assert float(np.median(errs)) < 0.1
