"""Command-line entry point.

Subcommands: train, benchmark, reward-surface, replay, config-dump.
Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

import argparse
import os
import sys
import time

from padlander.config import ConfigError, RunConfig, apply_item, dump_config, load_config
from padlander.environment import TRACE_COLUMNS, EnvConfig, LandingEnv
from padlander.evaluation import Controller, run_benchmark, write_report
from padlander.reward import write_surface_csv
from padlander.scenario import ScenarioKind
from padlander.td3 import load_checkpoint, save_checkpoint, train, write_curve_csv

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _load(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        cfg = load_config(args.config, cfg)
    for item in args.override or []:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg = apply_item(cfg, key, value)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    scenario = getattr(args, "scenario", None)
    if isinstance(scenario, str) and scenario:
        cfg = apply_item(cfg, "scenario", scenario)
    return cfg


def _run_dir(cfg: RunConfig, label: str, deterministic_name: bool) -> str:
    if deterministic_name:
        name = f"{label}_s{cfg.seed}"
    else:
        name = f"{label}_s{cfg.seed}_{time.strftime('%Y%m%d-%H%M%S')}"
    path = os.path.join(cfg.outdir, name)
    os.makedirs(path, exist_ok=True)
    return path


def _write_resolved(outdir: str, cfg: RunConfig) -> None:
    with open(os.path.join(outdir, "resolved.cfg"), "w") as f:
        f.write(dump_config(cfg))


def _scenario_list(names) -> list:
    out = []
    for name in names:
        if name.upper() == "ALL":
            return list(ScenarioKind)
        if name.upper() not in ScenarioKind.__members__:
            valid = ", ".join(list(ScenarioKind.__members__) + ["ALL"])
            raise ConfigError(f"unknown scenario {name!r}; valid: {valid}")
        out.append(ScenarioKind[name.upper()])
    return out


def cmd_train(args) -> int:
    cfg = _load(args)
    if args.total_steps is not None:
        cfg.td3.total_steps = args.total_steps
    outdir = _run_dir(cfg, "train", not args.timestamp_dir)
    _write_resolved(outdir, cfg)

    def env_factory():
        return LandingEnv(cfg.scenario_spec(), cfg.env, cfg.reward, cfg.drone)

    learner = None
    if args.resume:
        learner = load_checkpoint(args.resume, cfg.td3)

    def checkpoint_sink(step, lrn):
        save_checkpoint(os.path.join(outdir, f"checkpoint_{step:08d}.bin"), lrn)

    result = train(
        env_factory,
        cfg.td3,
        seed=cfg.seed,
        learner=learner,
        checkpoint_sink=checkpoint_sink,
        log=lambda msg: print(msg, flush=True),
    )
    save_checkpoint(os.path.join(outdir, "checkpoint.bin"), result.learner)
    write_curve_csv(os.path.join(outdir, "curve.csv"), result.curve)
    print(f"trained {cfg.td3.total_steps} steps over {result.episodes} episodes -> {outdir}")
    return 0


def cmd_benchmark(args) -> int:
    cfg = _load(args)
    scenarios = _scenario_list(args.scenario)
    if args.baseline and args.checkpoint:
        raise ConfigError("pass either --baseline or --checkpoint, not both")
    if not args.baseline and not args.checkpoint:
        raise ConfigError("pass --baseline or --checkpoint PATH")
    learner = None
    controllers = [Controller.EKF_PID]
    if args.checkpoint:
        learner = load_checkpoint(args.checkpoint, cfg.td3)
        controllers = [Controller.AGENT]
    if args.both:
        controllers = [Controller.AGENT, Controller.EKF_PID]

    outdir = _run_dir(cfg, "benchmark", not args.timestamp_dir)
    _write_resolved(outdir, cfg)
    report = run_benchmark(
        scenarios,
        controllers,
        trials_per_scenario=args.trials,
        wind=args.wind or cfg.evaluation.wind,
        seed=cfg.seed,
        learner=learner,
        env_cfg=cfg.env,
        reward_cfg=cfg.reward,
        pursuit=cfg.baseline,
        trace_dir=os.path.join(outdir, "traces"),
        pid=cfg.pid,
    )
    write_report(outdir, report)
    with open(os.path.join(outdir, "report.txt")) as f:
        print(f.read(), end="")
    print(f"report -> {outdir}")
    return 0


def cmd_reward_surface(args) -> int:
    cfg = _load(args)
    if args.res < 2:
        raise ConfigError(f"--res must be >= 2, got {args.res}")
    out = args.out or "reward_surface.csv"
    n = write_surface_csv(out, args.z, args.range, args.res, cfg.reward)
    print(f"wrote {n} grid rows -> {out}")
    return 0


def cmd_replay(args) -> int:
    import csv as _csv
    import math

    expected = TRACE_COLUMNS.split(",")
    if not os.path.exists(args.trace):
        raise ConfigError(f"trace file not found: {args.trace}")
    with open(args.trace) as f:
        rows = list(_csv.reader(f))
    if not rows:
        raise ConfigError(f"{args.trace}: empty file, expected header {TRACE_COLUMNS}")
    header = rows[0]
    for i, col in enumerate(expected):
        if i >= len(header) or header[i] != col:
            found = header[i] if i < len(header) else "<missing>"
            raise ConfigError(f"{args.trace}: bad column {i}: expected {col!r}, found {found!r}")
    body = rows[1:]
    if not body:
        raise ConfigError(f"{args.trace}: no data rows")

    def col(name):
        i = expected.index(name)
        return [float(r[i]) for r in body]

    dists = [
        math.sqrt((px - qx) ** 2 + (py - qy) ** 2 + (pz - qz) ** 2)
        for px, py, pz, qx, qy, qz in zip(
            col("px"), col("py"), col("pz"), col("pad_x"), col("pad_y"), col("pad_z")
        )
    ]
    last = body[-1]
    terminal = last[len(expected) - 1]
    lateral = math.hypot(
        float(last[1]) - float(last[13]), float(last[2]) - float(last[14])
    )
    print(f"steps: {len(body)}  duration: {float(last[0]):.3f} s  terminal: {terminal}")
    print(f"min drone-pad distance: {min(dists):.4f} m  final lateral error: {lateral:.4f} m")
    for axis, name in ((1, "x"), (2, "y"), (3, "z")):
        vals = [float(r[axis]) for r in body]
        print(f"drone {name} range: [{min(vals):.3f}, {max(vals):.3f}] m")

    if args.out:
        step = max(1, args.downsample)
        keep = body[::step]
        if keep[-1] is not body[-1]:
            keep.append(body[-1])  # endpoints preserved
        with open(args.out, "w") as f:
            f.write(",".join(header) + "\n")
            for r in keep:
                f.write(",".join(r) + "\n")
        print(f"downsampled {len(body)} -> {len(keep)} rows -> {args.out}")
    return 0


def cmd_config_dump(args) -> int:
    print(dump_config(_load(args)), end="")
    return 0


def _add_common(p, seed_default=None):
    p.add_argument("--config", help="flat-text config file (section.key = value)")
    p.add_argument("-o", "--override", action="append", metavar="KEY=VALUE",
                   help="config override, repeatable")
    p.add_argument("--seed", type=int, default=seed_default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="padlander", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the TD3 agent")
    _add_common(p)
    p.add_argument("--scenario", help="scenario for training episodes (SPL/LMPL/CMPL/CTL)")
    p.add_argument("--total-steps", type=int)
    p.add_argument("--resume", help="checkpoint to fine-tune from")
    p.add_argument("--timestamp-dir", action="store_true",
                   help="append a timestamp to the run directory name")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("benchmark", help="run the scenario benchmark")
    _add_common(p)
    p.add_argument("--checkpoint", help="trained agent checkpoint")
    p.add_argument("--baseline", action="store_true", help="run the EKF+PID baseline")
    p.add_argument("--both", action="store_true", help="run agent and baseline (paired seeds)")
    p.add_argument("--scenario", action="append", default=None,
                   help="scenario name or ALL; repeatable")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--wind", action="store_true")
    p.add_argument("--workers", type=int, default=1,
                   help="reserved; trials run sequentially for determinism")
    p.add_argument("--timestamp-dir", action="store_true")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("reward-surface", help="export the reward-surface grid CSV")
    _add_common(p)
    p.add_argument("--z", type=float, default=0.0, help="relative altitude of the slice")
    p.add_argument("--range", type=float, default=3.0, help="half-width of the XY grid (m)")
    p.add_argument("--res", type=int, default=101, help="grid points per axis")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_reward_surface)

    p = sub.add_parser("replay", help="summarize and downsample an episode trace")
    p.add_argument("trace", help="episode trace CSV")
    p.add_argument("--downsample", type=int, default=1)
    p.add_argument("--out", help="write downsampled CSV here")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("config-dump", help="print the fully resolved configuration")
    _add_common(p)
    p.set_defaults(func=cmd_config_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "benchmark" and not args.scenario:
            args.scenario = ["ALL"]
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
