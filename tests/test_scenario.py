import math

import numpy as np
import pytest

from padlander.rng import substream
from padlander.scenario import (
    LMPL_SEGMENT_CACHE,
    PLATFORM_SPEED_LIMIT,
    ScenarioKind,
    ScenarioSpec,
    _arc_angle,
    _lmpl_segment,
    _segment_heading,
    init_wind,
    platform_at,
    sample_wind_step,
)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit equality: unlike np.array_equal, tells -0.0 from 0.0."""
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def lmpl_by_loop(spec: ScenarioSpec, t: float):
    """The O(k) per-call LMPL integral: every past segment re-derived and summed."""
    period = spec.direction_change_period
    k = int(t // period)
    pos = np.zeros(3)
    for j in range(k):
        phi = _segment_heading(spec, j)
        pos += spec.speed * period * np.array([math.cos(phi), math.sin(phi), 0.0])
    phi = _segment_heading(spec, k)
    direction = np.array([math.cos(phi), math.sin(phi), 0.0])
    pos += spec.speed * (t - k * period) * direction
    vel = np.clip(spec.speed * direction, -PLATFORM_SPEED_LIMIT, PLATFORM_SPEED_LIMIT)
    return pos, vel


def find_seed(predicate, limit=1000):
    for s in range(limit):
        if predicate(np.random.default_rng(s)):
            return s
    raise AssertionError("no seed found")


# EnvConfig's default wind: episode and step probabilities, component bound in N.
P_EPISODE, P_STEP, BOUND = 0.2, 0.2, 0.005


class TestWind:
    def test_episode_coin_branches(self):
        calm_seed = find_seed(lambda r: 0.2 <= r.uniform() < 0.3)
        windy_seed = find_seed(lambda r: r.uniform() < 0.2)
        assert not init_wind(np.random.default_rng(calm_seed), P_EPISODE)
        assert init_wind(np.random.default_rng(windy_seed), P_EPISODE)

    def test_calm_episode_force_stays_zero(self):
        rng = np.random.default_rng(0)
        windy = init_wind(rng, p_episode=0.0)
        assert not windy
        for _ in range(200):
            assert np.array_equal(sample_wind_step(windy, rng, P_STEP, BOUND), np.zeros(3))

    def test_zero_probability_never_windy(self):
        for s in range(50):
            assert not init_wind(np.random.default_rng(s), p_episode=0.0)

    def test_windy_force_components_bounded(self):
        rng = np.random.default_rng(1)
        windy = init_wind(rng, p_episode=1.0)
        for _ in range(2000):
            assert np.max(np.abs(sample_wind_step(windy, rng, P_STEP, BOUND))) <= 0.005

    def test_step_activation_rate(self):
        # Monte-Carlo estimate of the per-step Bernoulli rate inside a windy episode.
        rng = np.random.default_rng(2)
        windy = init_wind(rng, p_episode=1.0)
        n, active = 100_000, 0
        for _ in range(n):
            if np.any(sample_wind_step(windy, rng, P_STEP, BOUND) != 0.0):
                active += 1
        assert 0.19 <= active / n <= 0.21

    def test_force_symmetric_about_zero(self):
        rng = np.random.default_rng(3)
        windy = init_wind(rng, p_episode=1.0)
        total = np.zeros(3)
        n = 200_000
        for _ in range(n):
            total += sample_wind_step(windy, rng, 1.0, BOUND)
        assert np.all(np.abs(total / n) < 2e-4)

    def test_episode_rate_over_many_episodes(self):
        windy = sum(init_wind(substream(s, "wind"), P_EPISODE) for s in range(10_000))
        assert 0.18 <= windy / 10_000 <= 0.22

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            init_wind(np.random.default_rng(0), p_episode=1.5)


class TestPlatform:
    def test_arc_angle_matches_alternating_sum(self):
        # the closed form must equal the segment-by-segment sum bit for bit
        spec = ScenarioSpec(ScenarioKind.CMPL, direction_change_period=0.7, speed=0.33, curve_radius=0.45)
        omega, period = spec.speed / spec.curve_radius, spec.direction_change_period
        for t in np.linspace(0.0, 25.0, 997):
            k = int(t // period)
            theta = 0.0
            for j in range(k):
                theta += ((-1) ** j) * omega * period
            theta += ((-1) ** k) * omega * (t - k * period)
            assert _arc_angle(spec, float(t)) == (theta, ((-1) ** k) * omega)

    def test_lmpl_table_matches_per_call_loop(self):
        # the cached segment table must give the loop's bits, segment
        # boundaries included, whatever order the times are asked in
        ts = np.concatenate([np.linspace(0.0, 20.0, 161), np.arange(0.0, 21.0, 3.0), np.arange(0.0, 21.0, 0.7)])
        for seed in (0, 123456, 2**31 - 2):
            for speed, period in ((0.3, 3.0), (0.1, 3.0), (0.46, 0.7), (0.0, 3.0)):
                spec = ScenarioSpec(ScenarioKind.LMPL, seed=seed, speed=speed, direction_change_period=period,
                                    initial_heading=0.4)
                for t in np.concatenate([ts, ts[::-1]]):
                    got = platform_at(spec, float(t))
                    pos, vel = lmpl_by_loop(spec, float(t))
                    assert same_bits(got.position, pos) and same_bits(got.velocity, vel), (seed, speed, t)

    def test_lmpl_zero_heading_sign_survives_the_cache(self):
        # the two specs compare equal, but sin() gives -0.0 for one of them
        for heading in (0.0, -0.0, 0.0):
            spec = ScenarioSpec(ScenarioKind.LMPL, seed=8, initial_heading=heading)
            for t in (0.0, 1.0, 3.5, 7.25):
                got = platform_at(spec, t)
                pos, vel = lmpl_by_loop(spec, t)
                assert same_bits(got.position, pos) and same_bits(got.velocity, vel), (heading, t)

    def test_lmpl_cache_bounded_and_hands_out_fresh_arrays(self):
        assert _lmpl_segment.cache_info().maxsize == LMPL_SEGMENT_CACHE
        spec = ScenarioSpec(ScenarioKind.LMPL, seed=77)
        first = platform_at(spec, 7.0)
        first.position[:] = 99.0
        first.velocity[:] = 99.0
        again = platform_at(spec, 7.0)
        pos, vel = lmpl_by_loop(spec, 7.0)
        assert same_bits(again.position, pos) and same_bits(again.velocity, vel)

    def test_spl_static(self):
        spec = ScenarioSpec(ScenarioKind.SPL)
        for t in (0.0, 1.0, 7.3, 19.99):
            state = platform_at(spec, t)
            assert np.array_equal(state.position, np.zeros(3))
            assert np.array_equal(state.velocity, np.zeros(3))

    def test_lmpl_initial_segment_displacement(self):
        spec = ScenarioSpec(ScenarioKind.LMPL, speed=0.3, initial_heading=0.0)
        state = platform_at(spec, 2.0)
        assert np.allclose(state.position, [0.6, 0.0, 0.0], atol=1e-12)
        assert np.allclose(state.velocity, [0.3, 0.0, 0.0], atol=1e-12)

    def test_lmpl_position_continuous_across_heading_change(self):
        spec = ScenarioSpec(ScenarioKind.LMPL, seed=5)
        eps = 1e-7
        before = platform_at(spec, 3.0 - eps)
        after = platform_at(spec, 3.0 + eps)
        assert np.linalg.norm(after.position - before.position) < 1e-5

    def test_cmpl_speed_and_circle(self):
        spec = ScenarioSpec(ScenarioKind.CMPL, curve_radius=0.5, speed=0.3)
        center = np.array([-0.5, 0.0, 0.0])
        for t in np.linspace(0.0, 2.9, 40):
            state = platform_at(spec, float(t))
            assert np.linalg.norm(state.velocity) == pytest.approx(0.3, abs=1e-12)
            assert np.linalg.norm(state.position - center) == pytest.approx(0.5, abs=1e-9)

    def test_position_is_integral_of_velocity(self):
        # Numeric quadrature of the reported velocities must recover positions.
        for kind in (ScenarioKind.LMPL, ScenarioKind.CMPL, ScenarioKind.CTL):
            spec = ScenarioSpec(kind, seed=9)
            dt = 1e-3
            ts = np.arange(0.0, 8.0, dt)
            pos = platform_at(spec, 0.0).position.copy()
            for t in ts:
                v0 = platform_at(spec, float(t)).velocity
                v1 = platform_at(spec, float(t + dt)).velocity
                pos += 0.5 * (v0 + v1) * dt
            expected = platform_at(spec, float(ts[-1] + dt)).position
            # trapezoid error is dominated by the velocity jumps at segment
            # boundaries, each O(dt * |dv|)
            assert np.linalg.norm(pos - expected) < 5e-3, kind

    def test_speed_envelope_sweep(self):
        for kind in ScenarioKind:
            spec = ScenarioSpec(kind, seed=4)
            for t in np.linspace(0.0, 30.0, 1500):
                v = platform_at(spec, float(t)).velocity
                assert np.max(np.abs(v)) <= PLATFORM_SPEED_LIMIT + 1e-12

    def test_pure_function_of_spec_and_time(self):
        spec = ScenarioSpec(ScenarioKind.CTL, seed=123)
        a = platform_at(spec, 5.4321)
        b = platform_at(spec, 5.4321)
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.velocity, b.velocity)

    def test_overspeed_spec_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(ScenarioKind.LMPL, speed=0.5)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            platform_at(ScenarioSpec(ScenarioKind.SPL), -0.1)
