"""Point-mass quadrotor with an inner position-setpoint tracking loop.

The vehicle is a double integrator with first-order velocity tracking:
the setpoint error maps to a velocity command (clamped to the flight
envelope), the velocity error maps to an acceleration (clamped in norm),
and external forces enter as F/m. Roll/pitch are synthesized from the
commanded lateral acceleration so observation consumers see plausible
attitude signals; yaw is held at zero.

A DroneState holds the vehicle's state alone: position, velocity, attitude
and angular velocity. The command is the step's input: each control step,
apply_setpoint_delta turns the bounded delta into a setpoint, position +
delta, and step_drone_many tracks that setpoint for its substeps.

Envelope: |vx|, |vy| <= 3 m/s, |vz| <= 2 m/s after every step.

The integration core runs on python scalars: the environment substeps
this at 240 Hz inside a 30 Hz control loop, and scalar math is an order
of magnitude faster than 3-vector numpy ops at that size.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from padlander.records import check_settings

VEL_ENVELOPE = (3.0, 3.0, 2.0)  # m/s, per component
SETPOINT_DELTA_BOUND = 0.1  # m, max |delta| per axis per command


class StateCorruptionError(ValueError):
    """A non-finite quantity reached the dynamics."""


class ActionBoundError(ValueError):
    """A setpoint delta exceeded the post-scaling bound."""


def clamp(v: float, lo: float, hi: float) -> float:
    """v limited to [lo, hi] (lo <= hi), on Python floats.

    A NaN v passes through, and a v that ties a bound comes back as it is.
    For bounds other than zero that is the same bits as
    np.minimum(np.maximum(v, lo), hi); numpy returns a zero bound on a tie,
    so it can flip the sign of a zero v.
    """
    return lo if v < lo else (hi if v > hi else v)


def _vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected 3-vector, got shape {v.shape}")
    return v


class DroneState(NamedTuple):
    position: np.ndarray  # m, world frame
    velocity: np.ndarray  # m/s
    attitude: np.ndarray  # rad (roll, pitch, yaw)
    angular_velocity: np.ndarray  # rad/s

    @staticmethod
    def at_rest(position) -> "DroneState":
        z = np.zeros(3)
        return DroneState(_vec3(position), z.copy(), z.copy(), z.copy())

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(v)) for v in self)


@dataclass(frozen=True)
class DroneParams:
    mass: float = 0.027  # kg, Crazyflie-class airframe
    kp_pos: float = 4.0  # 1/s, setpoint -> velocity-command gain
    tau_v: float = 0.25  # s, velocity tracking time constant
    a_max: float = 10.0  # m/s^2, acceleration norm clamp
    gravity: float = 9.81  # m/s^2

    def __post_init__(self):
        # A non-positive a_max clamp reverses the commanded acceleration, a non-positive kp_pos
        # drives the drone away from its setpoint, and a gravity <= 0 tips roll and pitch to +-pi/2 or past.
        check_settings(self, positive=("mass", "kp_pos", "tau_v", "a_max", "gravity"))


def step_drone_many(
    state: DroneState,
    setpoint: np.ndarray,
    params: DroneParams,
    external_force: np.ndarray,
    dt: float,
    n_substeps: int = 1,
) -> DroneState:
    """Advance the drone n substeps of dt each toward setpoint (semi-implicit Euler).

    Per substep: velocity is updated first, clamped to the envelope, then
    position integrates the new velocity. Roll/pitch come from the commanded
    tracking acceleration (pitch = atan2(ax, g), roll = atan2(-ay, g));
    angular velocity is the attitude finite difference over dt.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_substeps < 1:
        raise ValueError(f"n_substeps must be >= 1, got {n_substeps}")
    sp, force = _vec3(setpoint), _vec3(external_force)

    px, py, pz = state.position.tolist()
    vx, vy, vz = state.velocity.tolist()
    roll, pitch, _ = state.attitude.tolist()
    spx, spy, spz = sp.tolist()
    ex, ey, ez = VEL_ENVELOPE
    fx, fy, fz = force.tolist()
    mass = params.mass
    fax, fay, faz = fx / mass, fy / mass, fz / mass
    # one fused scalar check: any nan/inf in the inputs poisons the sum
    probe = px + py + pz + vx + vy + vz + spx + spy + spz + roll + pitch
    if not math.isfinite(probe) or not math.isfinite(fax + fay + faz):
        if not state.is_finite():
            raise StateCorruptionError("non-finite drone state")
        if not np.isfinite(sp).all():
            raise StateCorruptionError(f"non-finite setpoint {sp}")
        raise StateCorruptionError("non-finite external force")
    kp, inv_tau, a_max, g = params.kp_pos, 1.0 / params.tau_v, params.a_max, params.gravity
    nex, ney, nez = -ex, -ey, -ez

    # Only the last two substeps' attitudes reach the output (the attitude
    # and its finite difference), so atan2 runs on their accelerations alone.
    ax = ay = None
    # The clamps stay inline: 48 clamp() calls would take this call from 15.0 to 17.8 us at 8 substeps.
    for _ in range(n_substeps):
        prev_ax, prev_ay = ax, ay
        vcx = kp * (spx - px)
        vcx = nex if vcx < nex else vcx
        vcx = ex if vcx > ex else vcx
        vcy = kp * (spy - py)
        vcy = ney if vcy < ney else vcy
        vcy = ey if vcy > ey else vcy
        vcz = kp * (spz - pz)
        vcz = nez if vcz < nez else vcz
        vcz = ez if vcz > ez else vcz
        ax = (vcx - vx) * inv_tau
        ay = (vcy - vy) * inv_tau
        az = (vcz - vz) * inv_tau
        norm = math.sqrt(ax * ax + ay * ay + az * az)
        if norm > a_max:
            scale = a_max / norm
            ax *= scale
            ay *= scale
            az *= scale
        vx = vx + (ax + fax) * dt
        vx = nex if vx < nex else vx
        vx = ex if vx > ex else vx
        vy = vy + (ay + fay) * dt
        vy = ney if vy < ney else vy
        vy = ey if vy > ey else vy
        vz = vz + (az + faz) * dt
        vz = nez if vz < nez else vz
        vz = ez if vz > ez else vz
        px += vx * dt
        py += vy * dt
        pz += vz * dt
    if prev_ax is None:
        prev_roll, prev_pitch = roll, pitch
    else:
        prev_roll, prev_pitch = math.atan2(-prev_ay, g), math.atan2(prev_ax, g)
    roll, pitch = math.atan2(-ay, g), math.atan2(ax, g)

    return DroneState(
        np.array([px, py, pz]),
        np.array([vx, vy, vz]),
        np.array([roll, pitch, 0.0]),
        np.array([(roll - prev_roll) / dt, (pitch - prev_pitch) / dt, 0.0]),
    )


def apply_setpoint_delta(state: DroneState, delta: np.ndarray) -> np.ndarray:
    """The setpoint state.position + delta, a fresh array (the agent's actuation channel).

    delta must already be scaled: |component| <= 0.1 m. Anything larger means
    an unscaled action leaked through and is rejected.
    """
    d = _vec3(delta)
    dx, dy, dz = d.tolist()
    if not (math.isfinite(dx) and math.isfinite(dy) and math.isfinite(dz)):
        raise StateCorruptionError(f"non-finite setpoint delta {d}")
    bound = SETPOINT_DELTA_BOUND + 1e-12
    if abs(dx) > bound or abs(dy) > bound or abs(dz) > bound:
        raise ActionBoundError(
            f"setpoint delta {d} exceeds per-axis bound {SETPOINT_DELTA_BOUND} m"
        )
    return state.position + d
