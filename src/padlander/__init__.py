"""Deterministic quadrotor landing workbench.

A desk-scale simulation and learning stack for landing a point-mass
quadrotor on static and moving platforms under stochastic wind:
a from-scratch TD3 agent, a Kalman-filter + PID pursuit baseline,
and a seeded benchmark harness.
"""

from padlander.dynamics import DroneParams, DroneState, apply_setpoint_delta
from padlander.environment import EnvConfig, LandingEnv, StepOutcome
from padlander.reward import RewardBreakdown, RewardConfig, compute_reward, reward_surface_grid
from padlander.scenario import PlatformState, ScenarioKind, ScenarioSpec, init_wind, platform_at, sample_wind_step

__version__ = "0.1.0"

__all__ = [
    "DroneParams",
    "DroneState",
    "EnvConfig",
    "LandingEnv",
    "PlatformState",
    "RewardBreakdown",
    "RewardConfig",
    "ScenarioKind",
    "ScenarioSpec",
    "StepOutcome",
    "apply_setpoint_delta",
    "compute_reward",
    "init_wind",
    "platform_at",
    "reward_surface_grid",
    "sample_wind_step",
]
