import numpy as np
import pytest

from padlander.dynamics import DroneState
from padlander.environment import (
    ActionRangeError,
    EnvConfig,
    EpisodeOverError,
    LandingEnv,
    StepOutcome,
    Terminal,
    build_observation,
    scenario_from_name,
    trace_row,
    write_trace,
    TRACE_COLUMNS,
)
from padlander.scenario import PlatformState, ScenarioKind, ScenarioSpec, platform_at

SPL = ScenarioSpec(ScenarioKind.SPL)


def make_env(kind=ScenarioKind.SPL, **cfg_kw):
    return LandingEnv(ScenarioSpec(kind), EnvConfig(**cfg_kw))


class TestObservation:
    def test_components_in_unit_box(self):
        env = make_env()
        obs = env.reset(0)
        assert obs.shape == (15,)
        assert np.all(obs >= -1.0) and np.all(obs <= 1.0)

    def test_clip_then_scale(self):
        cfg = EnvConfig()
        drone = DroneState(
            np.zeros(3), np.array([5.0, 0.0, 0.0]), np.zeros(3), np.zeros(3), np.zeros(3)
        )
        pad = PlatformState(np.zeros(3), np.zeros(3))
        obs = build_observation(drone, pad, cfg)
        assert obs[3] == 1.0  # vx=5 clipped to bound 3, normalized to 1

    def test_coincident_states_zero_relative_block(self):
        cfg = EnvConfig()
        drone = DroneState.at_rest([1.0, 2.0, 3.0])
        pad = PlatformState(np.array([1.0, 2.0, 3.0]), np.zeros(3))
        obs = build_observation(drone, pad, cfg)
        assert np.array_equal(obs[9:], np.zeros(6))

    def test_attitude_normalization(self):
        cfg = EnvConfig()
        drone = DroneState(
            np.zeros(3), np.zeros(3), np.array([np.pi / 2, 0.0, 0.0]), np.zeros(3), np.zeros(3)
        )
        pad = PlatformState(np.zeros(3), np.zeros(3))
        assert build_observation(drone, pad, cfg)[0] == pytest.approx(0.5)

    def test_fuzzed_observation_box(self):
        rng = np.random.default_rng(23)
        cfg = EnvConfig()
        for _ in range(5000):
            drone = DroneState(
                rng.uniform(-10, 10, 3), rng.uniform(-10, 10, 3),
                rng.uniform(-4, 4, 3), rng.uniform(-30, 30, 3), rng.uniform(-10, 10, 3),
            )
            pad = PlatformState(rng.uniform(-10, 10, 3), rng.uniform(-0.46, 0.46, 3))
            obs = build_observation(drone, pad, cfg)
            assert np.all(obs >= -1.0) and np.all(obs <= 1.0)


class TestReset:
    def test_same_seed_bit_identical(self):
        env = make_env()
        assert np.array_equal(env.reset(42), env.reset(42))

    def test_spawn_inside_shaped_region(self):
        env = make_env()
        for seed in range(1000):
            env.reset(seed)
            d = np.linalg.norm(env.drone.position - platform_at(env.episode_spec, 0.0).position)
            assert d < 2.0  # inside the far-field radius

    def test_spawn_altitude_band(self):
        env = make_env()
        for seed in range(200):
            env.reset(seed)
            dz = env.drone.position[2] - platform_at(env.episode_spec, 0.0).position[2]
            assert 0.5 <= dz <= 1.5

    def test_invalid_seed_rejected(self):
        with pytest.raises(ValueError):
            make_env().reset(-1)


class TestStep:
    def test_timeout_at_exact_cap(self):
        env = make_env()
        env.reset(7)
        for i in range(env.max_steps):
            out = env.step(np.zeros(3))
            if out.terminal is not Terminal.NONE:
                break
        assert out.terminal is Terminal.TIMEOUT
        assert out.info["step"] == 600
        assert out.info["t"] == pytest.approx(20.0)

    def test_stepping_terminal_episode_rejected(self):
        env = make_env()
        env.reset(7)
        while env.step(np.zeros(3)).terminal is Terminal.NONE:
            pass
        with pytest.raises(EpisodeOverError):
            env.step(np.zeros(3))

    def test_action_validation(self):
        env = make_env()
        env.reset(0)
        with pytest.raises(ActionRangeError):
            env.step(np.array([1.5, 0.0, 0.0]))
        # marginally outside is clipped, not rejected
        env.step(np.array([1.0 + 1e-7, 0.0, 0.0]))

    def test_scripted_descent_touches_down(self):
        # Open-loop proportional descent onto the static pad center.
        env = make_env()
        obs = env.reset(3)
        for _ in range(env.max_steps):
            rel = platform_at(env.episode_spec, env._t).position - env.drone.position
            action = np.clip(rel / env.cfg.action_scale, -1.0, 1.0)
            # soften the final approach to stay under the touchdown speed
            if np.linalg.norm(rel) < 0.3:
                action = np.clip(action, -0.3, 0.3)
            out = env.step(action)
            if out.terminal is not Terminal.NONE:
                break
        assert out.terminal is Terminal.TOUCHDOWN
        rel = out.info["rel_pos"]
        assert np.hypot(rel[0], rel[1]) < 0.25

    def test_full_episode_determinism(self):
        actions = np.random.default_rng(5).uniform(-1, 1, size=(200, 3))

        def run():
            env = make_env(wind_enabled=True)
            obs = [env.reset(11)]
            rewards, terms = [], []
            for a in actions:
                out = env.step(a)
                obs.append(out.observation)
                rewards.append(out.reward.total)
                terms.append(out.terminal)
                if out.terminal is not Terminal.NONE:
                    break
            return np.array(obs), np.array(rewards), terms

        o1, r1, t1 = run()
        o2, r2, t2 = run()
        assert np.array_equal(o1, o2)
        assert np.array_equal(r1, r2)
        assert t1 == t2

    def test_platform_clock_consistency(self):
        env = make_env(ScenarioKind.CMPL)
        env.reset(9)
        for _ in range(50):
            out = env.step(np.zeros(3))
        expected = platform_at(env.episode_spec, out.info["t"])
        assert np.array_equal(out.info["pad"].position, expected.position)

    def test_terminal_exclusivity_random_policy(self):
        rng = np.random.default_rng(31)
        counts = {}
        for seed in range(100):
            env = make_env(ScenarioKind.LMPL)
            env.reset(seed)
            while True:
                out = env.step(rng.uniform(-1, 1, 3))
                if out.terminal is not Terminal.NONE:
                    counts[out.terminal] = counts.get(out.terminal, 0) + 1
                    break
        assert sum(counts.values()) == 100  # exactly one cause per episode

    def test_wind_disabled_forces_zero(self):
        env = make_env(wind_enabled=False)
        env.reset(2)
        for _ in range(100):
            out = env.step(np.zeros(3))
            assert np.array_equal(out.info["wind_force"], np.zeros(3))


class TestTrace:
    def test_trace_round_trip(self, tmp_path):
        env = make_env()
        env.reset(1)
        outs = []
        for _ in range(30):
            outs.append(env.step(np.array([0.1, -0.1, 0.0])))
        path = tmp_path / "trace.csv"
        write_trace(path, outs)
        lines = path.read_text().splitlines()
        assert lines[0] == TRACE_COLUMNS
        assert len(lines) == 31
        first = lines[1].split(",")
        assert len(first) == len(TRACE_COLUMNS.split(","))
        assert first[-1] == "None"

    def test_trace_row_matches_fstring_join(self):
        def by_fstring(outcome):
            i = outcome.info
            d, p = i["drone"], i["pad"]
            vals = [i["t"], *d.position, *d.velocity, *d.attitude, *i["action"], *p.position, *p.velocity,
                    *i["wind_force"], outcome.reward.total]
            return ",".join(f"{v:.9g}" for v in vals) + f",{outcome.terminal.value}"

        env = make_env(ScenarioKind.CTL, wind_p_episode=1.0, wind_p_step=0.5)
        env.reset(4)
        rng = np.random.default_rng(4)
        outs = []
        while not outs or outs[-1].terminal is Terminal.NONE:
            outs.append(env.step(rng.uniform(-1, 1, 3)))
        # values a rollout rarely shows: signed zeros, non-finite, subnormal, huge
        odd = np.array([-0.0, np.nan, np.inf])
        drone = DroneState(odd, -odd, np.array([5e-324, 1e300, -1e-7]), np.zeros(3), np.zeros(3))
        info = dict(outs[0].info, drone=drone, action=np.array([1.0, -1.0, -0.0]), t=1.0 / 3.0)
        outs.append(StepOutcome(outs[0].observation, outs[0].reward, Terminal.CRASH, info))
        for out in outs:
            assert trace_row(out) == by_fstring(out)

    def test_scenario_from_name(self):
        assert scenario_from_name("spl") is ScenarioKind.SPL
        with pytest.raises(ValueError, match="valid"):
            scenario_from_name("XXL")
