"""Potential-field landing reward.

Three distance bands around the pad center (d = |relative position|):

  Far   d >= far_radius          constant penalty tanh(gamma)
  Mid   near_radius <= d < far   progress reward tanh(alpha * (prev_d - d))
  Near  d < near_radius          tanh(-U - beta + delta): quadratic attractive
                                 well, optional repulsive term near obstacles,
                                 safety penalties, and a speed penalty that
                                 never punishes descending toward the pad.

Everything passes through tanh, so the reward is bounded in (-1, 1).
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from padlander.records import check_settings, frozen_record


class RewardCase(enum.Enum):
    FAR = "Far"
    MID = "Mid"
    NEAR = "Near"


class ObstacleContactError(ValueError):
    """Zero obstacle clearance with repulsion enabled; collision must be handled upstream."""


@dataclass(frozen=True)
class RewardConfig:
    gamma: float = -1.0  # far-field penalty (pre-tanh), < 0
    alpha: float = 5.0  # 1/m, progress scale
    zeta: float = 0.5  # 1/m^2, attractive strength
    eta: float = 0.1  # repulsive strength
    q_max: float = 0.4  # m, repulsive cutoff
    beta_below: float = 0.5  # penalty for being below the pad top
    beta_edge: float = 0.25  # penalty for hugging the pad edge
    k_delta: float = 0.3  # s/m, speed penalty scale
    far_radius: float = 2.0  # m
    near_radius: float = 0.1  # m
    repulsive_enabled: bool = False

    def __post_init__(self):
        # A sign flip here turns a penalty into a reward (or back) without any other symptom.
        check_settings(self, positive=("alpha", "q_max", "near_radius"),
                       non_negative=("zeta", "beta_below", "beta_edge", "k_delta"))
        if not self.far_radius > self.near_radius:
            raise ValueError(f"need far_radius > near_radius, got {self.far_radius}, {self.near_radius}")
        if not self.gamma < 0.0:
            raise ValueError(f"gamma must be negative, got {self.gamma}")


@frozen_record
class RewardBreakdown:
    total: float
    case_id: RewardCase
    u_attractive: float
    u_repulsive: float
    beta_term: float
    delta_term: float
    progress: float  # m, prev_distance - distance


def _squash(x: float) -> float:
    """tanh constrained to the open interval (-1, 1).

    Floating-point tanh saturates to exactly +/-1.0 for |x| above ~19; the
    reward contract is the open interval, so saturated values are nudged to
    the nearest representable interior value.
    """
    t = math.tanh(x)
    if t >= 1.0:
        return math.nextafter(1.0, 0.0)
    if t <= -1.0:
        return math.nextafter(-1.0, 0.0)
    return t


def repulsive_potential(obstacle_distance: Optional[float], cfg: RewardConfig) -> float:
    """Quadratic-in-inverse-clearance barrier, zero beyond the cutoff."""
    if not cfg.repulsive_enabled or obstacle_distance is None:
        return 0.0
    if obstacle_distance <= 0.0:
        raise ObstacleContactError("obstacle distance is zero: collision, not a reward query")
    if obstacle_distance >= cfg.q_max:
        return 0.0
    return 0.5 * cfg.eta * (1.0 / obstacle_distance - 1.0 / cfg.q_max) ** 2


def compute_reward(
    rel_pos: np.ndarray,
    rel_vel: np.ndarray,
    prev_distance: float,
    obstacle_distance: Optional[float],
    below_pad: bool,
    near_edge: bool,
    cfg: RewardConfig,
) -> RewardBreakdown:
    """Evaluate the shaped reward for one transition.

    rel_pos/rel_vel are pad-relative (drone minus pad); rel_vel[2] > 0 means
    the drone is climbing away from the pad, which the speed term penalizes,
    while descending is free.
    """
    x, y, z = rel_pos.tolist()
    vx, vy, vz = rel_vel.tolist()
    if prev_distance < 0 or not math.isfinite(prev_distance):
        raise ValueError(f"prev_distance must be finite and non-negative, got {prev_distance}")
    if not math.isfinite(x + y + z + vx + vy + vz):
        raise ValueError("non-finite relative state")

    d = math.sqrt(x * x + y * y + z * z)

    if d >= cfg.far_radius:
        total = _squash(cfg.gamma)
        return RewardBreakdown(total, RewardCase.FAR, 0.0, 0.0, 0.0, 0.0, prev_distance - d)

    if d >= cfg.near_radius:
        progress = prev_distance - d
        total = _squash(cfg.alpha * progress)
        return RewardBreakdown(total, RewardCase.MID, 0.0, 0.0, 0.0, 0.0, progress)

    u_att = 0.5 * cfg.zeta * d * d
    u_rep = repulsive_potential(obstacle_distance, cfg)
    beta = cfg.beta_below * float(below_pad) + cfg.beta_edge * float(near_edge)
    lateral_speed = math.hypot(vx, vy)
    delta = -cfg.k_delta * (lateral_speed + max(0.0, vz))
    total = _squash(-(u_att + u_rep) - beta + delta)
    return RewardBreakdown(total, RewardCase.NEAR, u_att, u_rep, beta, delta, prev_distance - d)


def reward_surface_grid(
    z_slice: float,
    xy_range: float,
    resolution: int,
    cfg: RewardConfig,
):
    """Evaluate the reward on a regular XY grid at fixed relative altitude.

    Velocities are zero and prev_distance = d (zero progress), so the grid
    shows the static shape of the field. Returns (xs, ys, grid) with grid
    row-major: grid[i][j] is the breakdown at (xs[j], ys[i]).
    """
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    xs = np.linspace(-xy_range, xy_range, resolution)
    ys = np.linspace(-xy_range, xy_range, resolution)
    zero = np.zeros(3)
    grid = []
    for y in ys:
        row = []
        for x in xs:
            rel = np.array([x, y, z_slice])
            d = float(np.linalg.norm(rel))
            row.append(compute_reward(rel, zero, d, None, False, False, cfg))
        grid.append(row)
    return xs, ys, grid


def write_surface_csv(path, z_slice: float, xy_range: float, resolution: int, cfg: RewardConfig) -> int:
    """Write the grid as CSV (header x,y,z,total,case,u_att,u_rep,beta,delta); returns row count."""
    xs, ys, grid = reward_surface_grid(z_slice, xy_range, resolution, cfg)
    n = 0
    with open(path, "w") as f:
        f.write("x,y,z,total,case,u_att,u_rep,beta,delta\n")
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                b = grid[i][j]
                f.write(
                    f"{x:.9g},{y:.9g},{z_slice:.9g},{b.total:.9g},{b.case_id.value},"
                    f"{b.u_attractive:.9g},{b.u_repulsive:.9g},{b.beta_term:.9g},{b.delta_term:.9g}\n"
                )
                n += 1
    return n
