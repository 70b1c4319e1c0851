"""Moving-platform trajectories and the stochastic wind process.

Four benchmark scenarios:

  SPL   static pad
  LMPL  piecewise-linear XY motion, heading re-drawn every period
  CMPL  circular-arc XY motion, arc direction flipping every period
  CTL   CMPL motion plus a vertical sinusoid

Platform positions are exact time integrals of the reported velocities and
pure functions of (spec, t). No component of a valid spec's velocity passes
PLATFORM_SPEED_LIMIT, so platform_at's clamp never changes one: a speed
above the limit is refused, and so is a CTL spec whose vertical sinusoid
would move faster. Wind is a two-level Bernoulli process: one draw
decides whether an episode is windy at all, then each step of a windy episode
draws whether a force is applied, with components uniform in +-bound N.
"""

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from padlander.dynamics import clamp
from padlander.records import check_settings

PLATFORM_SPEED_LIMIT = 0.46  # m/s per component
PAD_HALF_EXTENT = 0.25  # m, half side of the 0.5 m square pad
# (spec, segment) entries kept by the LMPL segment table. Every episode has its
# own spec, and a 20 s episode at the default 3 s period has 7 segments.
LMPL_SEGMENT_CACHE = 1024


class ScenarioKind(enum.Enum):
    SPL = "SPL"
    LMPL = "LMPL"
    CMPL = "CMPL"
    CTL = "CTL"


class PlatformState(NamedTuple):
    position: np.ndarray  # m, pad center, top surface
    velocity: np.ndarray  # m/s


@dataclass(frozen=True)
class ScenarioSpec:
    kind: ScenarioKind
    seed: int = 0
    direction_change_period: float = 3.0  # s
    curve_radius: float = 0.5  # m
    vertical_amplitude: float = 0.2  # m, CTL only
    speed: float = 0.3  # m/s
    initial_heading: float = 0.0  # rad, first LMPL segment

    def __post_init__(self):
        # platform_at's last branch is CTL: any other kind must not get that far.
        if not isinstance(self.kind, ScenarioKind):
            raise ValueError(f"kind must be a ScenarioKind, got {self.kind!r}")
        check_settings(self, positive=("direction_change_period", "curve_radius"))
        if not 0.0 <= self.speed <= PLATFORM_SPEED_LIMIT:
            raise ValueError(f"platform speed must be in [0, {PLATFORM_SPEED_LIMIT}], got {self.speed}")
        # CTL's vertical speed peaks at |vertical_amplitude| * pi / direction_change_period; past the
        # limit, platform_at's clamp would report a velocity that is not its position's derivative.
        peak = abs(self.vertical_amplitude) * math.pi / self.direction_change_period
        if self.kind is ScenarioKind.CTL and peak > PLATFORM_SPEED_LIMIT:
            raise ValueError(f"CTL's peak vertical speed |vertical_amplitude| * pi / direction_change_period "
                             f"must be at most {PLATFORM_SPEED_LIMIT} m/s, got {peak}")


# The force of every calm step: one shared, read-only zero vector.
CALM_FORCE = np.zeros(3)
CALM_FORCE.setflags(write=False)


def init_wind(rng: np.random.Generator, p_episode: float) -> bool:
    """Draw the episode-level wind coin: whether this episode is windy."""
    if not 0.0 <= p_episode <= 1.0:
        raise ValueError(f"p_episode must be in [0, 1], got {p_episode}")
    return bool(rng.uniform() < p_episode)


def sample_wind_step(windy: bool, rng: np.random.Generator, p_step: float, bound: float) -> np.ndarray:
    """The force applied during one control step: CALM_FORCE on a calm step.

    A windy episode applies a force with probability p_step, each component
    uniform in [-bound, bound] N.
    """
    if windy and rng.uniform() < p_step:
        return rng.uniform(-bound, bound, size=3)
    return CALM_FORCE


def _segment_heading(spec: ScenarioSpec, k: int) -> float:
    if k == 0:
        return spec.initial_heading
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, k]))
    return float(rng.uniform(0.0, 2.0 * math.pi))


@functools.lru_cache(maxsize=LMPL_SEGMENT_CACHE)
def _lmpl_segment(spec: ScenarioSpec, k: int):
    """Start offset (x, y) and unit direction (x, y) of LMPL segment k >= 1.

    The offset adds up the full segments before k one at a time, in segment
    order. Segment 0 never comes from here: it starts at the origin along
    spec.initial_heading, and specs whose headings differ only in the sign of
    zero compare and hash equal while sin() tells them apart.
    """
    step = spec.speed * spec.direction_change_period
    ox = oy = 0.0
    for j in range(k):
        phi = _segment_heading(spec, j)
        ox += step * math.cos(phi)
        oy += step * math.sin(phi)
    phi = _segment_heading(spec, k)
    return ox, oy, math.cos(phi), math.sin(phi)


def _lmpl(spec: ScenarioSpec, t: float):
    period = spec.direction_change_period
    k = int(t // period)
    if k == 0:
        ox = oy = 0.0
        cx, cy = math.cos(spec.initial_heading), math.sin(spec.initial_heading)
    else:
        ox, oy, cx, cy = _lmpl_segment(spec, k)
    speed = spec.speed
    along = speed * (t - k * period)
    return ox + along * cx, oy + along * cy, 0.0, speed * cx, speed * cy, speed * 0.0


def _arc_angle(spec: ScenarioSpec, t: float):
    """Arc-length angle and its sign for CMPL's alternating arcs."""
    period = spec.direction_change_period
    omega = spec.speed / spec.curve_radius
    k = int(t // period)
    # Full segments alternate +omega, -omega starting positive: k of them sum to 0 or omega * period.
    theta = omega * period if k % 2 else 0.0
    sign = (-1) ** k
    theta += sign * omega * (t - k * period)
    return theta, sign * omega


def _cmpl(spec: ScenarioSpec, t: float):
    r = spec.curve_radius
    theta, dtheta = _arc_angle(spec, t)
    c, s = math.cos(theta), math.sin(theta)
    # A circle through the origin at t = 0, centred at (-r, 0, 0). The traces
    # pin the sign of each zero: the + 0.0 turns a -0.0 into 0.0, and
    # r * dtheta * 0.0 is -0.0 on a reversed arc.
    w = r * dtheta
    return -r + r * c, 0.0 + r * s, 0.0 + r * 0.0, w * -s, w * c, w * 0.0


def _ctl(spec: ScenarioSpec, t: float):
    px, py, pz, vx, vy, vz = _cmpl(spec, t)
    # Vertical period is twice the heading period so the peak vertical speed
    # stays well inside the platform envelope at the default amplitude.
    omega_z = 2.0 * math.pi / (2.0 * spec.direction_change_period)
    a = spec.vertical_amplitude
    return (px + 0.0, py + 0.0, pz + a * math.sin(omega_z * t),
            vx + 0.0, vy + 0.0, vz + a * omega_z * math.cos(omega_z * t))


def platform_at(spec: ScenarioSpec, t: float) -> PlatformState:
    """Platform state at time t; pure in (spec, t)."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    kind = spec.kind
    if kind is ScenarioKind.SPL:
        px = py = pz = vx = vy = vz = 0.0
    elif kind is ScenarioKind.LMPL:
        px, py, pz, vx, vy, vz = _lmpl(spec, t)
    elif kind is ScenarioKind.CMPL:
        px, py, pz, vx, vy, vz = _cmpl(spec, t)
    else:  # CTL; ScenarioSpec admits no other kind
        px, py, pz, vx, vy, vz = _ctl(spec, t)
    lo, hi = -PLATFORM_SPEED_LIMIT, PLATFORM_SPEED_LIMIT
    return PlatformState(np.array([px, py, pz]), np.array([clamp(vx, lo, hi), clamp(vy, lo, hi), clamp(vz, lo, hi)]))
