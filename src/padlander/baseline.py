"""EKF + PID pursuit baseline.

A constant-velocity Kalman filter tracks the pad from noisy position
measurements; a PID pursuit law leads the estimated pad by a short
lookahead, ramps a vertical approach offset down once laterally aligned,
and emits position-setpoint deltas through the same bounded actuation
channel as the learned agent (per-axis |delta| <= 0.1 m).

With a linear transition and observation model the filter is the plain
Kalman special case; the "extended" naming of the source design is kept.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from padlander.dynamics import SETPOINT_DELTA_BOUND, DroneState, StateCorruptionError
from padlander.environment import LandingEnv, StepOutcome, Terminal
from padlander.rng import substream


class FilterDivergenceError(RuntimeError):
    """Covariance non-finite, or innovation covariance numerically singular."""


def transition_matrix(dt: float) -> np.ndarray:
    """Constant-velocity transition: position integrates velocity over dt."""
    a = np.eye(6)
    a[0, 3] = a[1, 4] = a[2, 5] = dt
    return a


@dataclass
class EkfState:
    x: np.ndarray  # [position(3), velocity(3)]
    P: np.ndarray  # 6x6 covariance
    Q: np.ndarray  # 6x6 process noise
    R_meas: np.ndarray  # 3x3 measurement noise
    A: np.ndarray  # 6x6 transition

    @staticmethod
    def create(
        dt: float,
        x0: Optional[np.ndarray] = None,
        p0: float = 1.0,
        q: float = 1e-4,
        r: float = 1e-6,
    ) -> "EkfState":
        return EkfState(
            x=np.zeros(6) if x0 is None else np.asarray(x0, dtype=float).copy(),
            P=p0 * np.eye(6),
            Q=q * np.eye(6),
            R_meas=r * np.eye(3),
            A=transition_matrix(dt),
        )


def ekf_predict(state: EkfState) -> EkfState:
    """Advance the estimate through the motion model: x <- Ax, P <- APA' + Q."""
    x = state.A @ state.x
    p = state.A @ state.P @ state.A.T + state.Q
    p = 0.5 * (p + p.T)
    return EkfState(x, p, state.Q, state.R_meas, state.A)


def ekf_update(state: EkfState, z: np.ndarray) -> EkfState:
    """Fold in a position measurement; with H = [I 0], H x, H P H' and P H' are slices."""
    z = np.asarray(z, dtype=float)
    if z.shape != (3,) or not np.isfinite(z).all():
        raise StateCorruptionError(f"measurement must be a finite 3-vector, got {z}")
    if not np.isfinite(state.P).all():
        raise FilterDivergenceError("EKF covariance P is not finite")
    innovation = z - state.x[:3]
    s = state.P[:3, :3] + state.R_meas
    # s is symmetric, so its singular values are its |eigenvalues|: this is
    # the 2-norm condition number np.linalg.cond gives, without an SVD.
    w = [abs(v) for v in np.linalg.eigvalsh(s).tolist()]
    if min(w) == 0.0 or max(w) / min(w) > 1e12:
        raise FilterDivergenceError("innovation covariance numerically singular")
    k = state.P[:, :3] @ np.linalg.inv(s)
    x = state.x + k @ innovation
    i_kh = np.eye(6)
    i_kh[:, :3] -= k
    p = i_kh @ state.P
    p = 0.5 * (p + p.T)
    return EkfState(x, p, state.Q, state.R_meas, state.A)


@dataclass(frozen=True)
class PidController:
    """PID gains; the per-episode history lives in a PidState."""

    kp: np.ndarray = field(default_factory=lambda: np.array([1.2, 1.2, 1.0]))
    ki: float = 0.05
    kd: float = 0.3
    integral_clamp: float = 0.5
    output_clamp: float = SETPOINT_DELTA_BOUND

    def __post_init__(self):
        # Each clamp is the interval [-c, c]: c <= 0 pins or inverts it.
        if not (self.integral_clamp > 0 and self.output_clamp > 0):
            raise ValueError(
                f"integral_clamp and output_clamp must be positive, got {self.integral_clamp}, {self.output_clamp}"
            )

    def command(self, state: "PidState", error: np.ndarray, dt: float) -> np.ndarray:
        """PID on the position error, clamped to the actuation bound; advances state."""
        error = np.asarray(error, dtype=float)
        integral = np.maximum(state.integral + error * dt, -self.integral_clamp)
        state.integral = np.minimum(integral, self.integral_clamp)
        derivative = np.zeros(3) if state.prev_error is None else (error - state.prev_error) / dt
        state.prev_error = error.copy()
        out = self.kp * error + self.ki * state.integral + self.kd * derivative
        return np.minimum(np.maximum(out, -self.output_clamp), self.output_clamp)


@dataclass
class PidState:
    integral: np.ndarray = field(default_factory=lambda: np.zeros(3))
    prev_error: Optional[np.ndarray] = None


@dataclass(frozen=True)
class PursuitConfig:
    lookahead: float = 0.5  # s, lead on the estimated pad velocity
    descent_rate: float = 0.3  # m/s, approach-offset ramp
    approach_height: float = 0.5  # m, initial vertical offset above the pad
    align_radius: float = 0.05  # m, lateral error gating the descent
    measurement_sigma: float = 0.001  # m, simulated localization noise


def pursuit_command(
    est: EkfState,
    drone: DroneState,
    pid: PidController,
    pid_state: PidState,
    approach_offset: float,
    dt: float,
    cfg: PursuitConfig,
):
    """One guidance tick: returns (setpoint delta, new approach offset)."""
    pad_pos = est.x[:3]
    pad_vel = est.x[3:]
    target = pad_pos + pad_vel * cfg.lookahead
    lateral_error = float(np.hypot(target[0] - drone.position[0], target[1] - drone.position[1]))
    if lateral_error < cfg.align_radius:
        approach_offset = max(0.0, approach_offset - cfg.descent_rate * dt)
    target = target + np.array([0.0, 0.0, approach_offset])
    delta = pid.command(pid_state, target - drone.position, dt)
    return delta, approach_offset


@dataclass
class BaselineEpisode:
    outcomes: List[StepOutcome]
    estimator_rows: list  # per-step "est_x,...,est_vz" strings


ESTIMATOR_COLUMNS = "est_x,est_y,est_z,est_vx,est_vy,est_vz"
_ESTIMATOR_ROW = ",".join(["%.9g"] * 6)


def run_baseline_episode(
    env: LandingEnv,
    seed: int,
    pursuit: Optional[PursuitConfig] = None,
    pid: Optional[PidController] = None,
) -> BaselineEpisode:
    """Close the loop: noisy pad measurements -> EKF -> PID -> env actions."""
    cfg = pursuit or PursuitConfig()
    pid = pid or PidController()
    pid_state = PidState()
    env.reset(seed)
    dt = env.control_dt
    meas_rng = substream(seed, "baseline-measurements")

    from padlander.scenario import platform_at

    pad0 = platform_at(env.episode_spec, 0.0)
    ekf = EkfState.create(dt, x0=np.concatenate([pad0.position, np.zeros(3)]))
    drone = env.drone
    approach_offset = cfg.approach_height

    outcomes, est_rows = [], []
    terminal = Terminal.NONE
    while terminal is Terminal.NONE:
        ekf = ekf_predict(ekf)
        delta, approach_offset = pursuit_command(ekf, drone, pid, pid_state, approach_offset, dt, cfg)
        out = env.step(delta / env.cfg.action_scale)
        drone = out.drone
        z = out.pad.position + meas_rng.normal(0.0, cfg.measurement_sigma, size=3)
        ekf = ekf_update(ekf, z)
        outcomes.append(out)
        est_rows.append(_ESTIMATOR_ROW % tuple(ekf.x.tolist()))
        terminal = out.terminal
    return BaselineEpisode(outcomes, est_rows)
