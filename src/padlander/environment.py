"""Episode orchestration: dynamics + scenario + reward behind a step/reset API.

One control step (30 Hz) scales the action into a setpoint delta, substeps
the physics (240 Hz) under the current wind force, advances the platform
analytically, computes the shaped reward from the post-step relative state,
and classifies touchdown / crash / out-of-bounds / timeout.

The 15-component observation is, in order: attitude (3), linear velocity (3),
angular velocity (3), pad position relative to the drone (3), pad velocity
relative to the drone (3); each component clipped to its bound and divided
by it, so the observation lives in [-1, 1]^15. reset() returns it; a step
does not build it: StepOutcome.observation builds it from the outcome's
drone and pad each time it is read, so the EKF+PID loop, which never reads
it, never pays for it.

build_observation's finiteness check thus runs only where the observation
is read, but every step's state is still checked. On entry, step_drone_many's
probe rejects a non-finite drone state, setpoint or wind force with
StateCorruptionError. After the step, compute_reward rejects a non-finite
relative position or velocity with ValueError. Attitude and angular
velocity come from finite inputs through atan2 and a division by dt > 0,
so they are finite too.

Inside a step, 3-vector math runs on Python floats read with tolist(), and
numpy arrays are built once, where a record (DroneState, PlatformState,
StepOutcome) holds them: on 3-vectors, numpy's per-call dispatch costs more
than the arithmetic. Elementwise + - * / and dynamics.clamp give the same
bits either way.
"""

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from padlander.dynamics import (SETPOINT_DELTA_BOUND, DroneParams, DroneState, StateCorruptionError,
                                apply_setpoint_delta, clamp, step_drone_many)
from padlander.records import check_settings
from padlander.reward import RewardBreakdown, RewardConfig, compute_reward
from padlander.rng import substream
from padlander.scenario import PAD_HALF_EXTENT, PlatformState, ScenarioSpec, init_wind, platform_at, sample_wind_step


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


# Per-component clip bounds of the observation vector; its length is the observation size.
OBS_BOUNDS = np.array(
    [np.pi, np.pi, np.pi]  # attitude
    + [3.0, 3.0, 2.0]  # linear velocity
    + [10.0, 10.0, 10.0]  # angular velocity
    + [3.0, 3.0, 3.0]  # relative pad position
    + [3.5, 3.5, 2.5]  # relative pad velocity
)
OBS_BOUNDS.setflags(write=False)


@dataclass(frozen=True)
class EnvConfig:
    episode_cap: float = 20.0  # s
    control_hz: int = 30
    physics_hz: int = 240
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
        check_settings(self, positive=("control_hz", "physics_hz", "episode_cap",
                                       "out_of_bounds_radius", "touchdown_vertical", "touchdown_speed",
                                       "crash_descent_speed"),
                       non_negative=("wind_bound",), unit=("wind_p_episode", "wind_p_step"))
        if self.physics_hz % self.control_hz != 0:
            raise ValueError("physics_hz must be an integer multiple of control_hz")
        # _spawn rejection-samples the spawn hemisphere; a band it cannot hit never returns.
        if not (0.0 <= self.spawn_alt_min < self.spawn_alt_max and self.spawn_alt_min < self.spawn_radius):
            raise ValueError("need 0 <= spawn_alt_min < spawn_alt_max and spawn_alt_min < spawn_radius")


def build_observation(drone: DroneState, pad: PlatformState) -> np.ndarray:
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
    return np.minimum(np.maximum(np.array(raw), -OBS_BOUNDS), OBS_BOUNDS) / OBS_BOUNDS


class StepOutcome(NamedTuple):
    """What one control step produced; t, drone and pad are post-step."""

    reward: RewardBreakdown
    terminal: Terminal
    t: float  # s since reset
    drone: DroneState
    pad: PlatformState
    action: np.ndarray  # the clamped normalized action that was applied
    wind_force: np.ndarray  # N, applied during this step

    @property
    def observation(self) -> np.ndarray:
        """build_observation(drone, pad), built afresh on each read: read it once per step."""
        return build_observation(self.drone, self.pad)


class LandingEnv:
    """A seeded landing episode generator.

    reset(seed) spawns the drone above the pad and draws the wind coin;
    step(action) runs one control period. After a terminal step the episode
    must be reset before stepping again. reset(seed) rebuilds all episode
    state, so one env serves any number of episodes.

    Plain attributes: control_dt (s per control step); drone (the current
    DroneState) and episode_spec (the scenario with the per-episode seed
    drawn at reset), both None until the first reset().
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
        self.control_dt = 1.0 / self.cfg.control_hz
        self._physics_dt = 1.0 / self.cfg.physics_hz
        self._substeps = self.cfg.physics_hz // self.cfg.control_hz
        self.drone: Optional[DroneState] = None
        self.episode_spec: Optional[ScenarioSpec] = None
        self._windy = False
        self._wind_rng: Optional[np.random.Generator] = None
        self._step_count = 0
        self._prev_distance = 0.0
        self._terminal = Terminal.NONE

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
        self.episode_spec = replace(self.scenario, seed=int(scen_rng.integers(2**31 - 1)))
        self._step_count = 0
        self._terminal = Terminal.NONE

        pad = platform_at(self.episode_spec, 0.0)
        spawn_rng = substream(seed, "spawn")
        self.drone = DroneState.at_rest(self._spawn(spawn_rng, pad))

        self._wind_rng = substream(seed, "wind")
        p_ep = self.cfg.wind_p_episode if self.cfg.wind_enabled else 0.0
        self._windy = init_wind(self._wind_rng, p_ep)

        self._prev_distance = float(np.linalg.norm(pad.position - self.drone.position))
        return build_observation(self.drone, pad)

    def _classify(self, rel, rel_v, d: float, t: float) -> Terminal:
        over_pad = abs(rel[0]) <= PAD_HALF_EXTENT and abs(rel[1]) <= PAD_HALF_EXTENT
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
        if self.drone is None:
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

        cfg = self.cfg
        wind_force = sample_wind_step(self._windy, self._wind_rng, cfg.wind_p_step, cfg.wind_bound)
        setpoint = apply_setpoint_delta(self.drone, SETPOINT_DELTA_BOUND * a)
        drone = step_drone_many(self.drone, setpoint, self.drone_params, wind_force, self._physics_dt, self._substeps)

        self._step_count += 1
        t = self._step_count * self.control_dt
        pad = platform_at(self.episode_spec, t)

        rel = drone.position - pad.position
        rel_v = drone.velocity - pad.velocity
        rx, ry, rz = rel_xyz = rel.tolist()
        d = math.hypot(rx, ry, rz)
        lateral = max(abs(rx), abs(ry))
        near_edge = abs(rz) < 0.1 and 0.7 * PAD_HALF_EXTENT < lateral <= 1.3 * PAD_HALF_EXTENT
        reward = compute_reward(rel, rel_v, self._prev_distance, None, rz < 0.0, near_edge, self.reward_cfg)
        self._prev_distance = d

        self._terminal = terminal = self._classify(rel_xyz, rel_v.tolist(), d, t)
        self.drone = drone
        return StepOutcome(reward, terminal, t, drone, pad, a, wind_force)
