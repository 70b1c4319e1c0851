"""EKF + PID pursuit baseline.

A constant-velocity Kalman filter tracks the pad from noisy position
measurements; a PID pursuit law leads the estimated pad by a short
lookahead, ramps a vertical approach offset down once laterally aligned,
and emits position-setpoint deltas through the same bounded actuation
channel as the learned agent (per-axis |delta| <= 0.1 m).

With a linear transition and observation model the filter is the plain
Kalman special case; the "extended" naming of the source design is kept.
With constant Q and R its covariance/gain sequence does not depend on the
data, so a KalmanModel computes it once per distinct covariance and every
later episode reuses it; only the state estimate x is computed per step.

As in the environment, the guidance and PID 3-vector math runs on Python
floats read with tolist(), and an array is built once, where a record or a
caller needs it (PidState, the returned setpoint delta). The filter's
matrix products stay numpy: a float rewrite of A @ x or K @ innovation
could round differently.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional

import numpy as np

from padlander.dynamics import SETPOINT_DELTA_BOUND, DroneState, StateCorruptionError, clamp
from padlander.environment import LandingEnv, StepOutcome, Terminal
from padlander.records import check_settings
from padlander.rng import substream


class FilterDivergenceError(RuntimeError):
    """Covariance non-finite, or innovation covariance numerically singular."""


# Bound on the covariances one KalmanModel stores. From P0 = I the filter
# visits 1055 distinct (predicted and updated) covariances at the default
# 30 Hz before the recursion repeats, 2070 at 60 Hz and 7904 at 240 Hz.
KALMAN_MEMO_ENTRIES = 8192


def transition_matrix(dt: float) -> np.ndarray:
    """Constant-velocity transition: position integrates velocity over dt."""
    a = np.eye(6)
    a[0, 3] = a[1, 4] = a[2, 5] = dt
    return a


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Covariance:
    """One stored covariance and what predict and update make of it."""

    __slots__ = ("P", "predicted", "updated", "gain")

    def __init__(self, key: bytes):
        self.P = np.ndarray((6, 6), buffer=key)  # read-only, shares the key's bytes
        self.predicted = self.updated = self.gain = None


@dataclass(frozen=True, eq=False)
class KalmanModel:
    """Read-only A (6x6 transition), Q (6x6 process noise), R (3x3 measurement noise).

    The covariance recursion never reads x or a measurement, so every episode
    under one model repeats the same P and K sequence. The model memoizes it,
    keyed by the exact bytes of the input P: a miss runs the full computation
    with every check, a hit returns the stored arrays. Only covariances that
    passed every check are stored, and stored arrays are read-only.
    """

    A: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    _covariances: dict = field(default_factory=dict, init=False, repr=False)  # P bytes -> _Covariance

    def __post_init__(self):
        for name in ("A", "Q", "R"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=float)))

    def _entry(self, P: np.ndarray) -> Optional[_Covariance]:
        """The stored entry for P, added if the memo has room."""
        key = P.tobytes()
        c = self._covariances.get(key)
        if c is None and len(self._covariances) < KALMAN_MEMO_ENTRIES:
            c = self._covariances[key] = _Covariance(key)
        return c

    def predicted_covariance(self, P: np.ndarray) -> np.ndarray:
        """APA' + Q, symmetrized."""
        c = self._covariances.get(P.tobytes())
        if c is not None and c.predicted is not None:
            return c.predicted.P
        p = self.A @ P @ self.A.T + self.Q
        p = 0.5 * (p + p.T)
        if np.isfinite(p).all():
            c, nxt = self._entry(P), self._entry(p)
            if c and nxt:
                c.predicted = nxt
        return p

    def updated_covariance_and_gain(self, P: np.ndarray):
        """(P', K) for a position measurement; with H = [I 0], H P H' and P H' are slices."""
        c = self._covariances.get(P.tobytes())
        if c is not None and c.updated is not None:
            return c.updated.P, c.gain
        if not np.isfinite(P).all():
            raise FilterDivergenceError("EKF covariance P is not finite")
        s = P[:3, :3] + self.R
        # s is symmetric, so its singular values are its |eigenvalues|: this is
        # the 2-norm condition number np.linalg.cond gives, without an SVD.
        w = [abs(v) for v in np.linalg.eigvalsh(s).tolist()]
        if min(w) == 0.0 or max(w) / min(w) > 1e12:
            raise FilterDivergenceError("innovation covariance numerically singular")
        k = _read_only(P[:, :3] @ np.linalg.inv(s))
        i_kh = np.eye(6)
        i_kh[:, :3] -= k
        p = i_kh @ P
        p = 0.5 * (p + p.T)
        c, nxt = self._entry(P), self._entry(p)
        if c and nxt:
            c.updated, c.gain = nxt, k
        return p, k


@lru_cache(maxsize=4)  # a run uses one model; the rest serve tests that alternate a few
def kalman_model(dt: float, q: float, r: float) -> KalmanModel:
    """The shared model, and so the shared memo, of every filter with these parameters."""
    return KalmanModel(transition_matrix(dt), q * np.eye(6), r * np.eye(3))


@dataclass
class EkfState:
    x: np.ndarray  # [position(3), velocity(3)]
    P: np.ndarray  # 6x6 float64 covariance, the state's own copy
    model: KalmanModel

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
            model=kalman_model(dt, q, r),
        )


def ekf_predict(state: EkfState) -> EkfState:
    """Advance the estimate through the motion model: x <- Ax, P <- APA' + Q."""
    model = state.model
    return EkfState(model.A @ state.x, model.predicted_covariance(state.P).copy(), model)


def ekf_update(state: EkfState, z: np.ndarray) -> EkfState:
    """Fold in a position measurement: x <- x + K (z - x[:3]), P <- (I - KH) P."""
    z = np.asarray(z, dtype=float)
    if z.shape != (3,) or not all(map(math.isfinite, z.tolist())):
        raise StateCorruptionError(f"measurement must be a finite 3-vector, got {z}")
    model = state.model
    p, k = model.updated_covariance_and_gain(state.P)
    return EkfState(state.x + k @ (z - state.x[:3]), p.copy(), model)


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
        check_settings(self, positive=("integral_clamp", "output_clamp"))
        # command() reads the per-axis gains with tolist(), so kp is held as a float 3-vector.
        kp = np.asarray(self.kp, dtype=float)
        if kp.shape != (3,):
            kp = np.broadcast_to(kp, (3,)).copy()
        object.__setattr__(self, "kp", kp)

    def command(self, state: "PidState", error: np.ndarray, dt: float) -> np.ndarray:
        """PID on the position error, clamped to the actuation bound; advances state."""
        error = np.array(error, dtype=float)  # a copy: it becomes state.prev_error
        ex, ey, ez = error.tolist()
        ix, iy, iz = state.integral.tolist()
        c = self.integral_clamp
        ix, iy, iz = clamp(ix + ex * dt, -c, c), clamp(iy + ey * dt, -c, c), clamp(iz + ez * dt, -c, c)
        state.integral = np.array([ix, iy, iz])
        if state.prev_error is None:
            dx = dy = dz = 0.0
        else:
            px, py, pz = state.prev_error.tolist()
            dx, dy, dz = (ex - px) / dt, (ey - py) / dt, (ez - pz) / dt
        state.prev_error = error
        kx, ky, kz = self.kp.tolist()
        ki, kd = self.ki, self.kd
        c = self.output_clamp
        return np.array([clamp(kx * ex + ki * ix + kd * dx, -c, c), clamp(ky * ey + ki * iy + kd * dy, -c, c),
                         clamp(kz * ez + ki * iz + kd * dz, -c, c)])


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

    def __post_init__(self):
        # A rate or radius <= 0 stops the descent or reverses it.
        check_settings(self, non_negative=("lookahead", "approach_height", "measurement_sigma"),
                       positive=("descent_rate", "align_radius"))


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
    x, y, z, vx, vy, vz = est.x.tolist()
    lookahead = cfg.lookahead
    tx, ty, tz = x + vx * lookahead, y + vy * lookahead, z + vz * lookahead
    px, py, pz = drone.position.tolist()
    # np.hypot, not math.hypot: the two round differently on some inputs.
    lateral_error = float(np.hypot(tx - px, ty - py))
    if lateral_error < cfg.align_radius:
        approach_offset = max(0.0, approach_offset - cfg.descent_rate * dt)
    # The target lifted by (0, 0, offset); its + 0.0 turns a -0.0 into 0.0.
    error = ((tx + 0.0) - px, (ty + 0.0) - py, (tz + approach_offset) - pz)
    delta = pid.command(pid_state, error, dt)
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

    action_scale, sigma, normal = env.cfg.action_scale, cfg.measurement_sigma, meas_rng.normal
    outcomes, est_rows = [], []
    terminal = Terminal.NONE
    while terminal is Terminal.NONE:
        ekf = ekf_predict(ekf)
        delta, approach_offset = pursuit_command(ekf, drone, pid, pid_state, approach_offset, dt, cfg)
        out = env.step(delta / action_scale)
        drone = out.drone
        ekf = ekf_update(ekf, out.pad.position + normal(0.0, sigma, size=3))
        outcomes.append(out)
        est_rows.append(_ESTIMATOR_ROW % tuple(ekf.x.tolist()))
        terminal = out.terminal
    return BaselineEpisode(outcomes, est_rows)
