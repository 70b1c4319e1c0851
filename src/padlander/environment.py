"""Episode orchestration: dynamics + scenario + reward behind a step/reset API.

One control step (30 Hz) scales the action into a setpoint delta, substeps
the physics (240 Hz) under the current wind force, advances the platform
analytically, computes the shaped reward from the post-step relative state,
and classifies touchdown / crash / out-of-bounds / timeout.

The 15-component observation is, in order: attitude (3), linear velocity (3),
angular velocity (3), pad position relative to the drone (3), pad velocity
relative to the drone (3); each component clipped to its bound and divided
by it, so the observation lives in [-1, 1]^15.
"""

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from padlander.dynamics import DroneParams, DroneState, StateCorruptionError, apply_setpoint_delta, step_drone_many
from padlander.reward import RewardBreakdown, RewardConfig, compute_reward
from padlander.rng import substream
from padlander.scenario import (
    PlatformState,
    ScenarioKind,
    ScenarioSpec,
    WindState,
    init_wind,
    platform_at,
    sample_wind_step,
)


class Terminal(enum.Enum):
    NONE = "None"
    TOUCHDOWN = "Touchdown"
    CRASH = "Crash"
    OUT_OF_BOUNDS = "OutOfBounds"
    TIMEOUT = "Timeout"


class EpisodeOverError(RuntimeError):
    """step() called on a terminal episode without reset()."""


class ActionRangeError(ValueError):
    """Action component left [-1, 1] by more than the numerical grace band."""


def default_norm_bounds() -> np.ndarray:
    """Per-component clip bounds for the observation vector."""
    return np.array(
        [np.pi, np.pi, np.pi]  # attitude
        + [3.0, 3.0, 2.0]  # linear velocity
        + [10.0, 10.0, 10.0]  # angular velocity
        + [3.0, 3.0, 3.0]  # relative pad position
        + [3.5, 3.5, 2.5]  # relative pad velocity
    )


@dataclass(frozen=True)
class EnvConfig:
    episode_cap: float = 20.0  # s
    control_hz: int = 30
    physics_hz: int = 240
    action_scale: float = 0.1  # m per unit action
    norm_bounds: np.ndarray = field(default_factory=default_norm_bounds)
    touchdown_vertical: float = 0.05  # m, contact band above pad top
    touchdown_speed: float = 0.5  # m/s, max relative speed
    crash_descent_speed: float = 1.0  # m/s
    out_of_bounds_radius: float = 3.0  # m
    spawn_radius: float = 1.5  # m, hemisphere radius
    spawn_alt_min: float = 0.5  # m
    spawn_alt_max: float = 1.5  # m
    wind_p_episode: float = 0.2
    wind_p_step: float = 0.2
    wind_bound: float = 0.005  # N
    wind_enabled: bool = True

    def __post_init__(self):
        if self.physics_hz % self.control_hz != 0:
            raise ValueError("physics_hz must be an integer multiple of control_hz")
        if self.action_scale <= 0:
            raise ValueError("action_scale must be positive")


def build_observation(drone: DroneState, pad: PlatformState, cfg: EnvConfig) -> np.ndarray:
    """Assemble, clip and normalize the 15-component observation."""
    raw = np.concatenate(
        [
            drone.attitude,
            drone.velocity,
            drone.angular_velocity,
            pad.position - drone.position,
            pad.velocity - drone.velocity,
        ]
    )
    if not np.isfinite(raw).all():
        raise StateCorruptionError("non-finite state in observation assembly")
    bounds = cfg.norm_bounds
    return np.minimum(np.maximum(raw, -bounds), bounds) / bounds


@dataclass
class StepOutcome:
    observation: np.ndarray
    reward: RewardBreakdown
    terminal: Terminal
    info: dict


class LandingEnv:
    """A single seeded landing episode generator.

    reset(seed) spawns the drone above the pad and draws the wind coin;
    step(action) runs one control period. After a terminal step the episode
    must be reset before stepping again.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        env_cfg: Optional[EnvConfig] = None,
        reward_cfg: Optional[RewardConfig] = None,
        drone_params: Optional[DroneParams] = None,
    ):
        self.scenario = scenario
        self.cfg = env_cfg or EnvConfig()
        self.reward_cfg = reward_cfg or RewardConfig()
        self.drone_params = drone_params or DroneParams()
        self._drone: Optional[DroneState] = None
        self._wind: Optional[WindState] = None
        self._wind_rng: Optional[np.random.Generator] = None
        self._spec: Optional[ScenarioSpec] = None
        self._t = 0.0
        self._step_count = 0
        self._prev_distance = 0.0
        self._terminal = Terminal.NONE

    @property
    def control_dt(self) -> float:
        return 1.0 / self.cfg.control_hz

    @property
    def drone(self) -> Optional[DroneState]:
        return self._drone

    @property
    def episode_spec(self) -> Optional[ScenarioSpec]:
        """Scenario spec with the per-episode seed resolved at reset()."""
        return self._spec

    @property
    def substeps(self) -> int:
        return self.cfg.physics_hz // self.cfg.control_hz

    @property
    def max_steps(self) -> int:
        return int(round(self.cfg.episode_cap * self.cfg.control_hz))

    def _spawn(self, rng: np.random.Generator, pad: PlatformState) -> np.ndarray:
        """Seeded point in the spawn hemisphere above the pad."""
        cfg = self.cfg
        while True:
            p = rng.uniform(-cfg.spawn_radius, cfg.spawn_radius, size=3)
            if np.linalg.norm(p) <= cfg.spawn_radius and cfg.spawn_alt_min <= p[2] <= cfg.spawn_alt_max:
                return pad.position + p

    def reset(self, seed: int) -> np.ndarray:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        # Per-episode scenario seed so LMPL headings vary across episodes
        # while the platform stream stays independent of wind and spawn.
        scen_rng = substream(seed, "scenario")
        self._spec = replace(self.scenario, seed=int(scen_rng.integers(2**31 - 1)))
        self._t = 0.0
        self._step_count = 0
        self._terminal = Terminal.NONE

        pad = platform_at(self._spec, 0.0)
        spawn_rng = substream(seed, "spawn")
        self._drone = DroneState.at_rest(self._spawn(spawn_rng, pad))

        self._wind_rng = substream(seed, "wind")
        p_ep = self.cfg.wind_p_episode if self.cfg.wind_enabled else 0.0
        self._wind = init_wind(self._wind_rng, p_ep, self.cfg.wind_p_step, self.cfg.wind_bound)

        self._prev_distance = float(np.linalg.norm(pad.position - self._drone.position))
        return build_observation(self._drone, pad, self.cfg)

    def _classify(self, rel, rel_v, half_extent: float, t: float) -> Terminal:
        over_pad = abs(rel[0]) <= half_extent and abs(rel[1]) <= half_extent
        dz = rel[2]
        if over_pad and 0.0 <= dz <= self.cfg.touchdown_vertical:
            speed = math.hypot(rel_v[0], rel_v[1], rel_v[2])
            if speed <= self.cfg.touchdown_speed:
                return Terminal.TOUCHDOWN
            return Terminal.CRASH  # contact inside the footprint but too fast
        if over_pad and dz < 0.0:
            # Passed through or below the pad top while over it; a gentle
            # graze still counts as a crash once descending hard.
            if rel_v[2] < -self.cfg.crash_descent_speed or dz < -self.cfg.touchdown_vertical:
                return Terminal.CRASH
        if math.hypot(rel[0], rel[1], rel[2]) > self.cfg.out_of_bounds_radius:
            return Terminal.OUT_OF_BOUNDS
        if t >= self.cfg.episode_cap - 1e-9:
            return Terminal.TIMEOUT
        return Terminal.NONE

    def step(self, action: np.ndarray) -> StepOutcome:
        if self._drone is None:
            raise EpisodeOverError("reset() must be called before step()")
        if self._terminal is not Terminal.NONE:
            raise EpisodeOverError(f"episode already terminal ({self._terminal.value}); reset() first")

        a = np.asarray(action, dtype=float)
        if a.shape != (3,):
            raise ActionRangeError(f"action must be a 3-vector, got shape {a.shape}")
        if np.abs(a).max() > 1.0 + 1e-6:
            raise ActionRangeError(f"action {a} outside [-1, 1]")
        a = np.minimum(np.maximum(a, -1.0), 1.0)

        self._wind = sample_wind_step(self._wind, self._wind_rng)
        drone = apply_setpoint_delta(self._drone, self.cfg.action_scale * a)
        dt = 1.0 / self.cfg.physics_hz
        drone = step_drone_many(drone, self.drone_params, self._wind.force, dt, self.substeps)

        self._step_count += 1
        self._t = self._step_count * self.control_dt
        pad = platform_at(self._spec, self._t)

        rel = drone.position - pad.position
        rel_v = drone.velocity - pad.velocity
        rx, ry, rz = rel_xyz = rel.tolist()
        d = math.hypot(rx, ry, rz)
        lateral = max(abs(rx), abs(ry))
        near_edge = abs(rz) < 0.1 and 0.7 * pad.half_extent < lateral <= 1.3 * pad.half_extent
        reward = compute_reward(rel, rel_v, self._prev_distance, None, rz < 0.0, near_edge, self.reward_cfg)
        self._prev_distance = d

        self._terminal = self._classify(rel_xyz, rel_v.tolist(), pad.half_extent, self._t)
        self._drone = drone

        info = {
            "t": self._t,
            "step": self._step_count,
            "drone": drone,
            "pad": pad,
            "wind_force": self._wind.force.copy(),
            "episode_windy": self._wind.episode_windy,
            "distance": d,
            "rel_pos": rel,
            "rel_vel": rel_v,
            "action": a,
        }
        return StepOutcome(build_observation(drone, pad, self.cfg), reward, self._terminal, info)


TRACE_COLUMNS = (
    "t,px,py,pz,vx,vy,vz,roll,pitch,yaw,ax,ay,az,"
    "pad_x,pad_y,pad_z,pad_vx,pad_vy,pad_vz,fx,fy,fz,reward,terminal"
)


# Every numeric trace column, then the terminal name.
_TRACE_ROW = "%.9g," * TRACE_COLUMNS.count(",") + "%s"


def trace_row(outcome: StepOutcome) -> str:
    """One trace CSV row for a step outcome."""
    i = outcome.info
    d: DroneState = i["drone"]
    p = i["pad"]
    return _TRACE_ROW % (
        i["t"],
        *d.position.tolist(),
        *d.velocity.tolist(),
        *d.attitude.tolist(),
        *i["action"].tolist(),
        *p.position.tolist(),
        *p.velocity.tolist(),
        *i["wind_force"].tolist(),
        outcome.reward.total,
        outcome.terminal.value,
    )


def write_trace(path, outcomes, extra_header: str = "", extra_rows=None) -> None:
    """Write an episode trace CSV; extra columns (e.g. estimator state) optional."""
    header = TRACE_COLUMNS + ("," + extra_header if extra_header else "")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k, out in enumerate(outcomes):
            row = trace_row(out)
            if extra_rows is not None:
                row += "," + extra_rows[k]
            fh.write(row + "\n")


def scenario_from_name(name: str) -> ScenarioKind:
    try:
        return ScenarioKind[name.upper()]
    except KeyError:
        valid = ", ".join(k.name for k in ScenarioKind)
        raise ValueError(f"unknown scenario {name!r}; valid: {valid}") from None
