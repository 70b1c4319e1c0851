import numpy as np
import pytest

from padlander.dynamics import SETPOINT_DELTA_BOUND, DroneState, StateCorruptionError
from padlander.environment import (
    ActionRangeError,
    EnvConfig,
    EpisodeOverError,
    LandingEnv,
    StepOutcome,
    Terminal,
    build_observation,
)
from padlander.evaluation import TRACE_COLUMNS, write_trace
from padlander.rng import substream
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
        drone = DroneState(
            np.zeros(3), np.array([5.0, 0.0, 0.0]), np.zeros(3), np.zeros(3)
        )
        pad = PlatformState(np.zeros(3), np.zeros(3))
        obs = build_observation(drone, pad)
        assert obs[3] == 1.0  # vx=5 clipped to bound 3, normalized to 1

    def test_coincident_states_zero_relative_block(self):
        drone = DroneState.at_rest([1.0, 2.0, 3.0])
        pad = PlatformState(np.array([1.0, 2.0, 3.0]), np.zeros(3))
        obs = build_observation(drone, pad)
        assert np.array_equal(obs[9:], np.zeros(6))

    def test_attitude_normalization(self):
        drone = DroneState(
            np.zeros(3), np.zeros(3), np.array([np.pi / 2, 0.0, 0.0]), np.zeros(3)
        )
        pad = PlatformState(np.zeros(3), np.zeros(3))
        assert build_observation(drone, pad)[0] == pytest.approx(0.5)

    def test_fuzzed_observation_box(self):
        rng = np.random.default_rng(23)
        for _ in range(5000):
            drone = DroneState(
                rng.uniform(-10, 10, 3), rng.uniform(-10, 10, 3),
                rng.uniform(-4, 4, 3), rng.uniform(-30, 30, 3),
            )
            pad = PlatformState(rng.uniform(-10, 10, 3), rng.uniform(-0.46, 0.46, 3))
            obs = build_observation(drone, pad)
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

    @pytest.mark.parametrize("call, message", [
        (lambda: make_env().reset(-1), r"^seed must be non-negative, got -1$"),
        (lambda: substream(-1, "wind"), r"^root seed must be non-negative, got -1$"),
    ], ids=["reset", "substream"])
    def test_invalid_seed_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestStep:
    def test_timeout_at_exact_cap(self):
        env = make_env()
        env.reset(7)
        for i in range(round(env.cfg.episode_cap * env.cfg.control_hz)):
            out = env.step(np.zeros(3))
            if out.terminal is not Terminal.NONE:
                break
        assert out.terminal is Terminal.TIMEOUT
        assert i + 1 == 600
        assert out.t == pytest.approx(20.0)

    def test_stepping_before_reset_rejected(self):
        env = make_env(control_hz=60, physics_hz=240)
        assert env.drone is None and env.episode_spec is None
        assert env.control_dt == 1 / 60
        with pytest.raises(EpisodeOverError, match=r"^reset\(\) must be called before step\(\)$"):
            env.step(np.zeros(3))
        env.reset(4)
        assert env.episode_spec.seed == int(substream(4, "scenario").integers(2**31 - 1))

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

    def test_outcome_is_a_frozen_record(self):
        env = make_env()
        env.reset(0)
        out = env.step(np.array([1.0 + 1e-7, -0.5, 0.0]))
        assert StepOutcome._fields == ("reward", "terminal", "t", "drone", "pad", "action", "wind_force")
        assert np.array_equal(out.action, [1.0, -0.5, 0.0])  # the clamped action
        assert out.drone is env.drone
        assert out.t == env.control_dt
        with pytest.raises(AttributeError):
            out.t = 0.0

    @pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
    def test_observation_is_built_from_drone_and_pad_on_each_read(self, kind):
        env = make_env(kind, wind_p_episode=1.0)
        env.reset(6)
        rng = np.random.default_rng(6)
        out = None
        while out is None or out.terminal is Terminal.NONE:
            out = env.step(rng.uniform(-1, 1, 3))
            obs = out.observation
            assert obs.tobytes() == build_observation(out.drone, out.pad).tobytes()
            assert obs.dtype == np.float64 and obs.shape == (15,)
        # A fresh array per read: writing into one read leaves the next alone.
        first = out.observation
        first[:] = 7.0
        assert out.observation.tobytes() == build_observation(out.drone, out.pad).tobytes()
        with pytest.raises(AttributeError):
            out.observation = first

    def test_observation_of_a_corrupt_state_raises(self):
        env = make_env()
        env.reset(0)
        out = env.step(np.zeros(3))
        bad = out._replace(drone=out.drone._replace(velocity=np.array([0.0, np.nan, 0.0])))
        with pytest.raises(StateCorruptionError):
            bad.observation

    @pytest.mark.parametrize("action", [[np.nan, 5.0, 0.0], [np.nan, 0.0, 0.0]])
    def test_nan_action_is_range_error(self, action):
        env = make_env()
        env.reset(0)
        with pytest.raises(ActionRangeError, match="nan"):
            env.step(np.array(action))

    def test_scripted_descent_touches_down(self):
        # Open-loop proportional descent onto the static pad center.
        env = make_env()
        env.reset(3)
        t = 0.0
        for _ in range(round(env.cfg.episode_cap * env.cfg.control_hz)):
            rel = platform_at(env.episode_spec, t).position - env.drone.position
            action = np.clip(rel / SETPOINT_DELTA_BOUND, -1.0, 1.0)
            # soften the final approach to stay under the touchdown speed
            if np.linalg.norm(rel) < 0.3:
                action = np.clip(action, -0.3, 0.3)
            out = env.step(action)
            t = out.t
            if out.terminal is not Terminal.NONE:
                break
        assert out.terminal is Terminal.TOUCHDOWN
        rel = out.drone.position - out.pad.position
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
        expected = platform_at(env.episode_spec, out.t)
        assert np.array_equal(out.pad.position, expected.position)

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
            assert np.array_equal(out.wind_force, np.zeros(3))


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

    def test_trace_row_matches_fstring_join(self, tmp_path):
        def by_fstring(outcome, extra):
            d, p = outcome.drone, outcome.pad
            vals = [outcome.t, *d.position, *d.velocity, *d.attitude, *outcome.action, *p.position, *p.velocity,
                    *outcome.wind_force, outcome.reward.total]
            return (",".join(f"{v:.9g}" for v in vals) + f",{outcome.terminal.value}"
                    + "".join(f",{v:.9g}" for v in extra) + "\n")

        env = make_env(ScenarioKind.CTL, wind_p_episode=1.0, wind_p_step=0.5)
        env.reset(4)
        rng = np.random.default_rng(4)
        outs = []
        while not outs or outs[-1].terminal is Terminal.NONE:
            outs.append(env.step(rng.uniform(-1, 1, 3)))
        # values a rollout rarely shows: signed zeros, non-finite, subnormal, huge
        odd = np.array([-0.0, np.nan, np.inf])
        drone = DroneState(odd, -odd, np.array([5e-324, 1e300, -1e-7]), np.zeros(3))
        outs.append(outs[0]._replace(terminal=Terminal.CRASH, t=1.0 / 3.0, drone=drone,
                                     action=np.array([1.0, -1.0, -0.0])))
        write_trace(tmp_path / "trace.csv", outs)
        assert (tmp_path / "trace.csv").read_text() == TRACE_COLUMNS + "\n" + "".join(
            by_fstring(out, ()) for out in outs)
        # Extra columns, such as the baseline's estimates, go through the same template.
        extra = [rng.normal(size=6) * 10.0 ** rng.uniform(-12, 12, 6) for _ in outs[:-2]]
        extra += [np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]),
                  np.array([1e16, -1e-16, 0.1, 123456789.0, 1234567890123.0, 1.0 / 3.0])]
        write_trace(tmp_path / "extra.csv", outs, "e0,e1,e2,e3,e4,e5", extra)
        assert (tmp_path / "extra.csv").read_text() == TRACE_COLUMNS + ",e0,e1,e2,e3,e4,e5\n" + "".join(
            by_fstring(out, e) for out, e in zip(outs, extra))

    def test_extra_rows_must_match_the_outcomes(self, tmp_path):
        env = make_env()
        env.reset(2)
        outs = [env.step(np.zeros(3)) for _ in range(3)]
        with pytest.raises(ValueError):
            write_trace(tmp_path / "trace.csv", outs, "e0", [[1.0], [2.0]])
