"""Benchmark harness: scenarios x trials for agent and EKF+PID baseline.

Each trial is an independent seeded episode; both controllers consume the
same scenario seed at the same trial index, so comparisons are paired.
Reported metric families:

  success rate      touchdowns / trials
  precision         mean and population STD of the lateral touchdown error
                    (XY distance from pad center), successful trials only
  velocity correlation  Pearson correlation of per-step drone and pad speed
                    magnitudes over the approach; undefined when either
                    series has zero variance (e.g. a static pad)

Every CSV file the package writes is made here: episode traces, the
training curve, the reward surface and the report tables. A float cell
holds 9 significant digits.
"""

import enum
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Sequence

import numpy as np

from padlander.baseline import ESTIMATOR_COLUMNS, FilterDivergenceError, run_baseline_episode
from padlander.config import RunConfig
from padlander.dynamics import ActionBoundError, StateCorruptionError
from padlander.environment import ActionRangeError, LandingEnv, Terminal
from padlander.reward import RewardConfig, reward_surface_grid
from padlander.rng import substream
from padlander.scenario import ScenarioKind
from padlander.td3 import CurvePoint, Td3Learner, run_agent_episode


# A controller that hits one of these ends its trial as a Crash; any other
# exception is a defect in the code and propagates.
CONTROLLER_FAILURES = (StateCorruptionError, ActionBoundError, ActionRangeError, FilterDivergenceError)


class Controller(enum.Enum):
    AGENT = "Agent"
    EKF_PID = "EkfPid"


@dataclass
class TrialResult:
    scenario: ScenarioKind
    controller: Controller
    seed: int
    terminal: Terminal
    touchdown_lateral_error: Optional[float]  # m, present iff Touchdown
    duration: float  # s
    velocity_correlation: Optional[float]
    wind_enabled: bool


@dataclass
class GroupStats:
    scenario: str
    controller: str
    trials: int
    successes: int
    success_rate: float
    precision_mean: Optional[float]
    precision_std: Optional[float]
    corr_mean: Optional[float]
    corr_median: Optional[float]
    corr_std: Optional[float]
    corr_min: Optional[float]
    corr_max: Optional[float]


@dataclass
class BenchmarkReport:
    groups: List[GroupStats] = field(default_factory=list)
    trials: List[TrialResult] = field(default_factory=list)


def velocity_correlation(drone_speeds: Sequence[float], pad_speeds: Sequence[float]) -> Optional[float]:
    """Pearson correlation of speed-magnitude series; None if degenerate."""
    a = np.asarray(drone_speeds, dtype=float)
    b = np.asarray(pad_speeds, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("series must be equal-length 1-D")
    if a.size < 2:
        raise ValueError("need at least 2 samples")
    if np.std(a) == 0.0 or np.std(b) == 0.0:
        return None
    return float(np.corrcoef(a, b)[0, 1])


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a real vector, sqrt(v . v), without its dispatch."""
    return math.sqrt(v.dot(v))


def _trial_from_outcomes(scenario, controller, seed, outcomes, wind: bool) -> TrialResult:
    last = outcomes[-1]
    lateral = None
    if last.terminal is Terminal.TOUCHDOWN:
        rel = last.drone.position - last.pad.position
        lateral = float(np.hypot(rel[0], rel[1]))
    drone_speeds = [_norm(o.drone.velocity) for o in outcomes]
    pad_speeds = [_norm(o.pad.velocity) for o in outcomes]
    corr = velocity_correlation(drone_speeds, pad_speeds) if len(outcomes) >= 2 else None
    return TrialResult(
        scenario=scenario,
        controller=controller,
        seed=seed,
        terminal=last.terminal,
        touchdown_lateral_error=lateral,
        duration=last.t,
        velocity_correlation=corr,
        wind_enabled=wind,
    )


def _group_stats(scenario: ScenarioKind, controller: Controller, trials: List[TrialResult]) -> GroupStats:
    successes = [t for t in trials if t.terminal is Terminal.TOUCHDOWN]
    errors = [t.touchdown_lateral_error for t in successes]
    corrs = [t.velocity_correlation for t in trials if t.velocity_correlation is not None]

    def _opt(fn, xs):
        return float(fn(xs)) if xs else None

    return GroupStats(
        scenario=scenario.value,
        controller=controller.value,
        trials=len(trials),
        successes=len(successes),
        success_rate=len(successes) / len(trials),
        precision_mean=_opt(np.mean, errors),
        precision_std=_opt(np.std, errors),  # population STD
        corr_mean=_opt(np.mean, corrs),
        corr_median=_opt(np.median, corrs),
        corr_std=_opt(np.std, corrs),
        corr_min=_opt(np.min, corrs),
        corr_max=_opt(np.max, corrs),
    )


def run_benchmark(
    scenarios: Sequence[ScenarioKind],
    controllers: Sequence[Controller],
    trials_per_scenario: int = 10,
    wind: Optional[bool] = None,
    seed: Optional[int] = None,
    learner: Optional[Td3Learner] = None,
    cfg: Optional[RunConfig] = None,
    trace_dir: Optional[str] = None,
) -> BenchmarkReport:
    """Seeded paired trials for the requested controllers and scenarios.

    cfg (default RunConfig()) is the run: cfg.seed draws the trial seeds,
    cfg.env, cfg.reward, cfg.drone and cfg.scenario_params shape the env,
    one per scenario, which every trial of that scenario resets with its
    seed; cfg.baseline and cfg.pid drive every baseline episode, each from a
    fresh PidState. Each scenario in turn replaces cfg.scenario_params.kind,
    so the kind in cfg does not reach a trial, and the per-episode seed
    drawn at reset replaces its seed. wind and seed default to
    cfg.env.wind_enabled and cfg.seed. Without cfg they set the default
    RunConfig's values; with cfg each must equal cfg's value.
    """
    if trials_per_scenario < 1:
        raise ValueError("trials_per_scenario must be >= 1")
    if Controller.AGENT in controllers and learner is None:
        raise ValueError("agent benchmark requires a learner/checkpoint")
    if cfg is None:
        cfg = RunConfig()
        if wind is not None:
            cfg = replace(cfg, env=replace(cfg.env, wind_enabled=wind))
        if seed is not None:
            cfg = replace(cfg, seed=seed)
    if wind is not None and wind != cfg.env.wind_enabled:
        raise ValueError(f"wind={wind} contradicts cfg.env.wind_enabled={cfg.env.wind_enabled}")
    if seed is not None and seed != cfg.seed:
        raise ValueError(f"seed={seed} contradicts cfg.seed={cfg.seed}")
    wind = cfg.env.wind_enabled
    report = BenchmarkReport()
    seed_rng = substream(cfg.seed, "benchmark-trials")
    # One seed per (scenario, trial index), shared across controllers.
    trial_seeds = {
        kind: seed_rng.integers(2**31 - 1, size=trials_per_scenario) for kind in scenarios
    }
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)

    for kind in scenarios:
        # reset(trial_seed) rebuilds all episode state, so every trial of the scenario shares one env.
        env = LandingEnv(replace(cfg.scenario_params, kind=kind), cfg.env, cfg.reward, cfg.drone)
        for controller in controllers:
            trials = []
            for i, trial_seed in enumerate(trial_seeds[kind].tolist()):
                estimates = None
                try:
                    if controller is Controller.AGENT:
                        outcomes = run_agent_episode(learner, env, trial_seed)
                    else:
                        ep = run_baseline_episode(env, trial_seed, cfg.baseline, cfg.pid)
                        outcomes, estimates = ep.outcomes, ep.estimator_rows
                    trial = _trial_from_outcomes(kind, controller, trial_seed, outcomes, wind)
                except CONTROLLER_FAILURES as e:
                    trial = TrialResult(kind, controller, trial_seed, Terminal.CRASH, None, 0.0, None, wind)
                    outcomes = []
                    print(f"[benchmark] {kind.value}/{controller.value} trial {i}: controller error: {e}")
                trials.append(trial)
                if trace_dir and outcomes:
                    write_trace(os.path.join(trace_dir, f"{kind.value}_{controller.value}_{i:02d}.csv"),
                                outcomes, ESTIMATOR_COLUMNS, estimates)
            report.trials.extend(trials)
            report.groups.append(_group_stats(kind, controller, trials))
    return report


# -- report and CSV emission ----------------------------------------------


def _fmt(v, nd=4):
    return "n/a" if v is None else f"{v:.{nd}f}"


def report_text(report: BenchmarkReport) -> str:
    """Aligned tables mirroring the three metric families."""
    lines = ["== Landing success rate ==",
             f"{'scenario':<10}{'controller':<10}{'trials':>8}{'success':>10}"]
    for g in report.groups:
        lines.append(f"{g.scenario:<10}{g.controller:<10}{g.trials:>8}{g.success_rate:>10.0%}")
    lines += ["", "== Landing precision (m, successful trials) ==",
              f"{'scenario':<10}{'controller':<10}{'mean':>10}{'std':>10}"]
    for g in report.groups:
        lines.append(f"{g.scenario:<10}{g.controller:<10}{_fmt(g.precision_mean):>10}{_fmt(g.precision_std):>10}")
    lines += ["", "== Drone-pad velocity correlation ==",
              f"{'scenario':<10}{'controller':<10}{'mean':>9}{'median':>9}{'std':>9}{'min':>9}{'max':>9}"]
    for g in report.groups:
        lines.append(
            f"{g.scenario:<10}{g.controller:<10}{_fmt(g.corr_mean):>9}{_fmt(g.corr_median):>9}"
            f"{_fmt(g.corr_std):>9}{_fmt(g.corr_min):>9}{_fmt(g.corr_max):>9}"
        )
    return "\n".join(lines) + "\n"


def _cell(v) -> str:
    """One CSV cell: empty for None, 9 significant digits for a float."""
    if v is None:
        return ""
    return f"{v:.9g}" if isinstance(v, float) else str(v)


def _csv_lines(header: str, rows):
    """The header line, then one line per row of values, each through _cell."""
    yield header + "\n"
    for row in rows:
        yield ",".join(map(_cell, row)) + "\n"


def report_csv(report: BenchmarkReport) -> str:
    names = [f.name for f in fields(GroupStats)]
    return "".join(_csv_lines(",".join(names), ([getattr(g, name) for name in names] for g in report.groups)))


def trials_csv(report: BenchmarkReport) -> str:
    return "".join(_csv_lines(
        "scenario,controller,seed,terminal,lateral_error,duration,velocity_correlation,wind",
        ((t.scenario.value, t.controller.value, t.seed, t.terminal.value, t.touchdown_lateral_error,
          t.duration, t.velocity_correlation, int(t.wind_enabled)) for t in report.trials),
    ))


def report_json(report: BenchmarkReport) -> str:
    return json.dumps(
        {"groups": [vars(g) for g in report.groups]},
        indent=2,
        allow_nan=False,
    ) + "\n"


def write_report(outdir: str, report: BenchmarkReport) -> None:
    os.makedirs(outdir, exist_ok=True)
    for name, render in (("report.txt", report_text), ("report.csv", report_csv),
                         ("report.json", report_json), ("trials.csv", trials_csv)):
        with open(os.path.join(outdir, name), "w") as f:
            f.write(render(report))


def write_curve_csv(path, curve: List[CurvePoint]) -> None:
    with open(path, "w") as f:
        f.writelines(_csv_lines("step,mean_reward,mean_ep_len,success_rate",
                                ((p.step, p.mean_reward, p.mean_ep_len, p.success_rate) for p in curve)))


def write_surface_csv(path, z_slice: float, xy_range: float, resolution: int, cfg: RewardConfig) -> int:
    """Write reward_surface_grid's breakdowns as CSV, one row per grid point; returns the row count."""
    xs, ys, grid = reward_surface_grid(z_slice, xy_range, resolution, cfg)
    with open(path, "w") as f:
        f.writelines(_csv_lines("x,y,z,total,case,u_att,u_rep,beta,delta", (
            (x, y, z_slice, b.total, b.case_id.value, b.u_attractive, b.u_repulsive, b.beta_term, b.delta_term)
            for y, row in zip(ys, grid) for x, b in zip(xs, row))))
    return len(xs) * len(ys)


TRACE_COLUMNS = (
    "t,px,py,pz,vx,vy,vz,roll,pitch,yaw,ax,ay,az,"
    "pad_x,pad_y,pad_z,pad_vx,pad_vy,pad_vz,fx,fy,fz,reward,terminal"
)


# Every numeric trace column, then the terminal name. Trace rows are the high-volume
# path, so a row is one % of a template, not a _cell call per value.
_TRACE_ROW = "%.9g," * TRACE_COLUMNS.count(",") + "%s"


def write_trace(path, outcomes, extra_header: str = "", extra_rows=None) -> None:
    """Write an episode trace CSV, one row per step outcome.

    With extra_rows, extra_header names extra numeric columns, comma-separated, and
    extra_rows[k] holds step k's values of them: e.g. baseline.ESTIMATOR_COLUMNS and
    a BaselineEpisode's estimator_rows. Without extra_rows, extra_header is not read.
    """
    header, row, extras = TRACE_COLUMNS, _TRACE_ROW + "\n", [()] * len(outcomes)
    if extra_rows is not None:
        header += "," + extra_header
        row = _TRACE_ROW + ",%.9g" * (extra_header.count(",") + 1) + "\n"
        extras = np.asarray(extra_rows, dtype=float).tolist()
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for out, extra in zip(outcomes, extras, strict=True):
            d, p = out.drone, out.pad
            fh.write(row % (
                out.t,
                *d.position.tolist(),
                *d.velocity.tolist(),
                *d.attitude.tolist(),
                *out.action.tolist(),
                *p.position.tolist(),
                *p.velocity.tolist(),
                *out.wind_force.tolist(),
                out.reward.total,
                out.terminal.value,
                *extra,
            ))
