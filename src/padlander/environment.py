"""Episode orchestration: dynamics + scenario + reward behind a step/reset API.

One control step (30 Hz) scales the action into a setpoint delta, substeps
the physics (240 Hz) under the current wind force, advances the platform
analytically, computes the shaped reward from the post-step relative state,
and classifies touchdown / crash / out-of-bounds / timeout.

The 15-component observation is, in order: attitude (3), linear velocity (3),
angular velocity (3), pad position relative to the drone (3), pad velocity
relative to the drone (3); each component clipped to its bound and divided
by it, so the observation lives in [-1, 1]^15.

Inside a step, 3-vector math runs on Python floats read with tolist(), and
numpy arrays are built once, where a record (DroneState, PlatformState,
StepOutcome, the observation) holds them: on 3-vectors, numpy's per-call
dispatch costs more than the arithmetic. Elementwise + - * / and
dynamics.clamp give the same bits either way.
"""

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from padlander.dynamics import (DroneParams, DroneState, StateCorruptionError, apply_setpoint_delta, clamp,
                                step_drone_many)
from padlander.records import check_settings, frozen_record
from padlander.reward import RewardBreakdown, RewardConfig, compute_reward
from padlander.rng import substream
from padlander.scenario import (
    PlatformState,
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
        # A threshold <= 0 ends every episode at once or makes touchdown unreachable.
        check_settings(self, positive=("control_hz", "physics_hz", "action_scale", "episode_cap",
                                       "out_of_bounds_radius", "touchdown_vertical", "touchdown_speed",
                                       "crash_descent_speed"),
                       non_negative=("wind_bound",), unit=("wind_p_episode", "wind_p_step"))
        if self.physics_hz % self.control_hz != 0:
            raise ValueError("physics_hz must be an integer multiple of control_hz")
        # _spawn rejection-samples the spawn hemisphere; a band it cannot hit never returns.
        if not (0.0 <= self.spawn_alt_min < self.spawn_alt_max and self.spawn_alt_min < self.spawn_radius):
            raise ValueError("need 0 <= spawn_alt_min < spawn_alt_max and spawn_alt_min < spawn_radius")


def build_observation(drone: DroneState, pad: PlatformState, cfg: EnvConfig) -> np.ndarray:
    """Assemble, clip and normalize the 15-component observation."""
    px, py, pz = drone.position.tolist()
    vx, vy, vz = drone.velocity.tolist()
    qx, qy, qz = pad.position.tolist()
    ux, uy, uz = pad.velocity.tolist()
    # pad - drone, never -(drone - pad): a zero difference keeps its sign.
    raw = drone.attitude.tolist() + [vx, vy, vz] + drone.angular_velocity.tolist() + [
        qx - px, qy - py, qz - pz, ux - vx, uy - vy, uz - vz]
    if not all(map(math.isfinite, raw)):
        raise StateCorruptionError("non-finite state in observation assembly")
    bounds = cfg.norm_bounds
    return np.minimum(np.maximum(np.array(raw), -bounds), bounds) / bounds


@frozen_record
class StepOutcome:
    """What one control step produced; t, drone and pad are post-step."""

    observation: np.ndarray
    reward: RewardBreakdown
    terminal: Terminal
    t: float  # s since reset
    drone: DroneState
    pad: PlatformState
    action: np.ndarray  # the clamped normalized action that was applied
    wind_force: np.ndarray  # N, applied during this step


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
        # The clocks come from the frozen cfg once.
        self._control_dt = 1.0 / self.cfg.control_hz
        self._physics_dt = 1.0 / self.cfg.physics_hz
        self._substeps = self.cfg.physics_hz // self.cfg.control_hz
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
        return self._control_dt

    @property
    def drone(self) -> Optional[DroneState]:
        return self._drone

    @property
    def episode_spec(self) -> Optional[ScenarioSpec]:
        """Scenario spec with the per-episode seed resolved at reset()."""
        return self._spec

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

    def _classify(self, rel, rel_v, d: float, half_extent: float, t: float) -> Terminal:
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
        if d > self.cfg.out_of_bounds_radius:
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
        x, y, z = a.tolist()
        grace = 1.0 + 1e-6
        if not (abs(x) <= grace and abs(y) <= grace and abs(z) <= grace):  # NaN fails this too
            raise ActionRangeError(f"action {a} outside [-1, 1]")
        a = np.array([clamp(x, -1.0, 1.0), clamp(y, -1.0, 1.0), clamp(z, -1.0, 1.0)])

        self._wind = wind = sample_wind_step(self._wind, self._wind_rng)
        drone = apply_setpoint_delta(self._drone, self.cfg.action_scale * a)
        drone = step_drone_many(drone, self.drone_params, wind.force, self._physics_dt, self._substeps)

        self._step_count += 1
        self._t = t = self._step_count * self._control_dt
        pad = platform_at(self._spec, t)

        rel = drone.position - pad.position
        rel_v = drone.velocity - pad.velocity
        rx, ry, rz = rel_xyz = rel.tolist()
        d = math.hypot(rx, ry, rz)
        lateral = max(abs(rx), abs(ry))
        near_edge = abs(rz) < 0.1 and 0.7 * pad.half_extent < lateral <= 1.3 * pad.half_extent
        reward = compute_reward(rel, rel_v, self._prev_distance, None, rz < 0.0, near_edge, self.reward_cfg)
        self._prev_distance = d

        self._terminal = terminal = self._classify(rel_xyz, rel_v.tolist(), d, pad.half_extent, t)
        self._drone = drone
        observation = build_observation(drone, pad, self.cfg)
        return StepOutcome(observation, reward, terminal, t, drone, pad, a, wind.force)


TRACE_COLUMNS = (
    "t,px,py,pz,vx,vy,vz,roll,pitch,yaw,ax,ay,az,"
    "pad_x,pad_y,pad_z,pad_vx,pad_vy,pad_vz,fx,fy,fz,reward,terminal"
)


# Every numeric trace column, then the terminal name.
_TRACE_ROW = "%.9g," * TRACE_COLUMNS.count(",") + "%s"


def trace_row(outcome: StepOutcome) -> str:
    """One trace CSV row for a step outcome."""
    d = outcome.drone
    p = outcome.pad
    return _TRACE_ROW % (
        outcome.t,
        *d.position.tolist(),
        *d.velocity.tolist(),
        *d.attitude.tolist(),
        *outcome.action.tolist(),
        *p.position.tolist(),
        *p.velocity.tolist(),
        *outcome.wind_force.tolist(),
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

