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
"""

import enum
import json
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from padlander.baseline import ESTIMATOR_COLUMNS, PidController, PursuitConfig, run_baseline_episode
from padlander.environment import EnvConfig, LandingEnv, Terminal, write_trace
from padlander.reward import RewardConfig
from padlander.rng import substream
from padlander.scenario import ScenarioKind, ScenarioSpec
from padlander.td3 import Td3Learner


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


def _run_agent_episode(env: LandingEnv, learner: Td3Learner, seed: int):
    obs = env.reset(seed)
    outcomes = []
    while True:
        out = env.step(learner.act(obs))
        obs = out.observation
        outcomes.append(out)
        if out.terminal is not Terminal.NONE:
            return outcomes


def _trial_from_outcomes(scenario, controller, seed, outcomes, wind: bool) -> TrialResult:
    last = outcomes[-1]
    lateral = None
    if last.terminal is Terminal.TOUCHDOWN:
        rel = last.info["rel_pos"]
        lateral = float(np.hypot(rel[0], rel[1]))
    drone_speeds = [float(np.linalg.norm(o.info["drone"].velocity)) for o in outcomes]
    pad_speeds = [float(np.linalg.norm(o.info["pad"].velocity)) for o in outcomes]
    corr = velocity_correlation(drone_speeds, pad_speeds) if len(outcomes) >= 2 else None
    return TrialResult(
        scenario=scenario,
        controller=controller,
        seed=seed,
        terminal=last.terminal,
        touchdown_lateral_error=lateral,
        duration=last.info["t"],
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
    wind: bool = False,
    seed: int = 0,
    learner: Optional[Td3Learner] = None,
    env_cfg: Optional[EnvConfig] = None,
    reward_cfg: Optional[RewardConfig] = None,
    pursuit: Optional[PursuitConfig] = None,
    trace_dir: Optional[str] = None,
    pid: Optional[PidController] = None,
) -> BenchmarkReport:
    """Seeded paired trials for the requested controllers and scenarios.

    pid sets the baseline's gains (default PidController()); its state is
    reset at the start of every baseline episode.
    """
    if trials_per_scenario < 1:
        raise ValueError("trials_per_scenario must be >= 1")
    if Controller.AGENT in controllers and learner is None:
        raise ValueError("agent benchmark requires a learner/checkpoint")
    env_cfg = env_cfg or EnvConfig()
    pid = pid or PidController()
    report = BenchmarkReport()
    seed_rng = substream(seed, "benchmark-trials")
    # One seed per (scenario, trial index), shared across controllers.
    trial_seeds = {
        kind: seed_rng.integers(2**31 - 1, size=trials_per_scenario) for kind in scenarios
    }
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)

    for kind in scenarios:
        base_cfg = _with_wind(env_cfg, wind)
        for controller in controllers:
            trials = []
            for i in range(trials_per_scenario):
                trial_seed = int(trial_seeds[kind][i])
                env = LandingEnv(ScenarioSpec(kind), base_cfg, reward_cfg)
                est_rows = None
                try:
                    if controller is Controller.AGENT:
                        outcomes = _run_agent_episode(env, learner, trial_seed)
                    else:
                        ep = run_baseline_episode(env, trial_seed, pursuit, pid)
                        outcomes, est_rows = ep.outcomes, ep.estimator_rows
                    trial = _trial_from_outcomes(kind, controller, trial_seed, outcomes, wind)
                except Exception as e:  # controller crash: record failure, continue
                    trial = TrialResult(kind, controller, trial_seed, Terminal.CRASH, None, 0.0, None, wind)
                    trial_note = f"controller error: {e}"
                    outcomes = []
                    print(f"[benchmark] {kind.value}/{controller.value} trial {i}: {trial_note}")
                trials.append(trial)
                if trace_dir and outcomes:
                    path = os.path.join(trace_dir, f"{kind.value}_{controller.value}_{i:02d}.csv")
                    if est_rows is not None:
                        write_trace(path, outcomes, ESTIMATOR_COLUMNS, est_rows)
                    else:
                        write_trace(path, outcomes)
            report.trials.extend(trials)
            report.groups.append(_group_stats(kind, controller, trials))
    return report


def _with_wind(cfg: EnvConfig, wind: bool) -> EnvConfig:
    from dataclasses import replace

    return replace(cfg, wind_enabled=wind)


# -- report emission -------------------------------------------------------


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


def report_csv(report: BenchmarkReport) -> str:
    cols = (
        "scenario,controller,trials,successes,success_rate,precision_mean,precision_std,"
        "corr_mean,corr_median,corr_std,corr_min,corr_max"
    )
    out = [cols]
    for g in report.groups:
        vals = [
            g.scenario, g.controller, g.trials, g.successes, f"{g.success_rate:.9g}",
        ] + ["" if v is None else f"{v:.9g}" for v in (
            g.precision_mean, g.precision_std, g.corr_mean, g.corr_median,
            g.corr_std, g.corr_min, g.corr_max,
        )]
        out.append(",".join(str(v) for v in vals))
    return "\n".join(out) + "\n"


def trials_csv(report: BenchmarkReport) -> str:
    cols = "scenario,controller,seed,terminal,lateral_error,duration,velocity_correlation,wind"
    out = [cols]
    for t in report.trials:
        out.append(",".join([
            t.scenario.value,
            t.controller.value,
            str(t.seed),
            t.terminal.value,
            "" if t.touchdown_lateral_error is None else f"{t.touchdown_lateral_error:.9g}",
            f"{t.duration:.9g}",
            "" if t.velocity_correlation is None else f"{t.velocity_correlation:.9g}",
            str(int(t.wind_enabled)),
        ]))
    return "\n".join(out) + "\n"


def report_json(report: BenchmarkReport) -> str:
    return json.dumps(
        {"groups": [vars(g) for g in report.groups]},
        indent=2,
        allow_nan=False,
    ) + "\n"


def write_report(outdir: str, report: BenchmarkReport) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "report.txt"), "w") as f:
        f.write(report_text(report))
    with open(os.path.join(outdir, "report.csv"), "w") as f:
        f.write(report_csv(report))
    with open(os.path.join(outdir, "report.json"), "w") as f:
        f.write(report_json(report))
    with open(os.path.join(outdir, "trials.csv"), "w") as f:
        f.write(trials_csv(report))
