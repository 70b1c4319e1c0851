"""Command-line entry point.

Subcommands: train, benchmark, reward-surface, replay, config-dump.
Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import replace

from padlander.config import KEYS, ConfigError, RunConfig, apply_items, config_items, dump_config, read_text
from padlander.environment import LandingEnv
from padlander.evaluation import (TRACE_COLUMNS, Controller, report_text, run_benchmark, write_curve_csv, write_report,
                                  write_surface_csv)
from padlander.scenario import ScenarioKind
from padlander.td3 import ACTION_DIM, OBS_DIM, load_checkpoint, save_checkpoint, train

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _load(args) -> RunConfig:
    """The run's config: the items of --config, then each -o item, then each flag whose dest is a config key.

    Those flags are --seed, and train's --scenario and --total-steps; a flag left out is None and sets nothing.
    """
    items = config_items(read_text(args.config, "config file")) if args.config else []
    for item in args.override or []:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        items.append(("", key, value))
    items += [("", key, str(value)) for key, value in vars(args).items() if key in KEYS and value is not None]
    return apply_items(RunConfig(), items)


def _run_dir(cfg: RunConfig, label: str) -> str:
    """Make the run directory and write the run's resolved.cfg into it; one directory holds one run."""
    path = os.path.join(cfg.outdir, f"{label}_s{cfg.seed}")
    if os.path.isdir(path) and os.listdir(path):
        raise ConfigError(f"run directory {path} exists and is not empty; pass a fresh -o outdir=")
    try:
        os.makedirs(path, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as e:  # a file stands where the path needs a directory
        raise ConfigError(f"cannot make run directory {path}: {e.strerror}; pass a fresh -o outdir=") from None
    with open(os.path.join(path, "resolved.cfg"), "w") as f:
        f.write(dump_config(cfg))
    return path


def _scenario_list(names) -> list:
    if "ALL" in (name.upper() for name in names):
        if len(names) > 1:
            raise ConfigError(f"scenario ALL must stand alone in --scenario, got {', '.join(names)}")
        return list(ScenarioKind)
    out = []
    for name in names:
        if name.upper() not in ScenarioKind.__members__:
            valid = ", ".join(list(ScenarioKind.__members__) + ["ALL"])
            raise ConfigError(f"unknown scenario {name!r}; valid: {valid}")
        kind = ScenarioKind[name.upper()]
        if kind in out:
            raise ConfigError(f"scenario {kind.name} given twice in --scenario")
        out.append(kind)
    return out


def _load_agent(path, hp):
    """The checkpoint's learner, whose actor must map the env's observation to its action."""
    learner = load_checkpoint(path, hp)
    if (learner.obs_dim, learner.action_dim) != (OBS_DIM, ACTION_DIM):
        raise ConfigError(f"{path}: actor maps {learner.obs_dim} -> {learner.action_dim} dims, "
                          f"the env needs {OBS_DIM} -> {ACTION_DIM}")
    return learner


def cmd_train(args) -> int:
    cfg = _load(args)
    learner = _load_agent(args.resume, cfg.td3) if args.resume else None
    outdir = _run_dir(cfg, "train")

    def env_factory():
        return LandingEnv(cfg.scenario_params, cfg.env, cfg.reward, cfg.drone)

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
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    scenarios = _scenario_list(args.scenario or ["ALL"])
    if not args.baseline and not args.checkpoint:
        raise ConfigError("pass --baseline, --checkpoint PATH, or both")
    # In each scenario the agent's trials come first, then the baseline's on the same seeds.
    controllers = ([Controller.AGENT] if args.checkpoint else []) + ([Controller.EKF_PID] if args.baseline else [])
    learner = _load_agent(args.checkpoint, cfg.td3) if args.checkpoint else None
    # run_benchmark swaps in each scenario's kind, and only a CTL spec checks vertical_amplitude.
    for kind in scenarios:
        try:
            replace(cfg.scenario_params, kind=kind)
        except ValueError as e:
            raise ConfigError(f"bad value for scenario_params.vertical_amplitude: {e}") from None

    outdir = _run_dir(cfg, "benchmark")
    report = run_benchmark(scenarios, controllers, args.trials, learner=learner, cfg=cfg,
                           trace_dir=os.path.join(outdir, "traces"))
    write_report(outdir, report)
    print(report_text(report), end="")
    print(f"report -> {outdir}")
    return 0


def cmd_reward_surface(args) -> int:
    cfg = _load(args)
    if args.res < 2:
        raise ConfigError(f"--res must be >= 2, got {args.res}")
    if not math.isfinite(args.z):
        raise ConfigError(f"--z must be finite, got {args.z}")
    if not 0.0 < args.range < math.inf:  # NaN fails this too
        raise ConfigError(f"--range must be finite and > 0, got {args.range}")
    out = args.out or "reward_surface.csv"
    n = write_surface_csv(out, args.z, args.range, args.res, cfg.reward)
    print(f"wrote {n} grid rows -> {out}")
    return 0


def cmd_replay(args) -> int:
    if args.downsample < 1:
        raise ConfigError(f"--downsample must be >= 1, got {args.downsample}")
    expected = TRACE_COLUMNS.split(",")
    rows = list(csv.reader(io.StringIO(read_text(args.trace, "trace file"))))
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
    # csv.reader gives one row per line: traces quote no newlines.
    for lineno, r in enumerate(body, 2):
        if len(r) != len(header):
            what = f"no {header[len(r)]!r} value" if len(r) < len(header) else "more cells than columns"
            raise ConfigError(f"{args.trace}: line {lineno} has {len(r)} cells of {len(header)}: {what}")

    column = {name: i for i, name in enumerate(expected)}

    def col(name):
        i, values = column[name], []
        for lineno, r in enumerate(body, 2):
            try:
                values.append(float(r[i]))
            except ValueError:
                raise ConfigError(f"{args.trace}: line {lineno}, column {name!r}: {r[i]!r} is not a number") from None
        return values

    px, py, pz = col("px"), col("py"), col("pz")
    qx, qy, qz = col("pad_x"), col("pad_y"), col("pad_z")
    dists = [
        math.sqrt((x - a) ** 2 + (y - b) ** 2 + (z - c) ** 2)
        for x, y, z, a, b, c in zip(px, py, pz, qx, qy, qz)
    ]
    last = body[-1]
    lateral = math.hypot(px[-1] - qx[-1], py[-1] - qy[-1])
    duration, terminal = col("t")[-1], last[column["terminal"]]
    print(f"steps: {len(body)}  duration: {duration:.3f} s  terminal: {terminal}")
    print(f"min drone-pad distance: {min(dists):.4f} m  final lateral error: {lateral:.4f} m")
    for name, vals in (("x", px), ("y", py), ("z", pz)):
        print(f"drone {name} range: [{min(vals):.3f}, {max(vals):.3f}] m")

    if args.out:
        keep = body[::args.downsample]
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


def _add_common(p, seed=True):
    p.add_argument("--config", help="flat-text config file (section.key = value)")
    p.add_argument("-o", "--override", action="append", metavar="KEY=VALUE",
                   help="config override, repeatable")
    if seed:
        p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="padlander", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the TD3 agent")
    _add_common(p)
    p.add_argument("--scenario", dest="scenario_params.kind", help="scenario for training episodes, SPL/LMPL/CMPL/CTL")
    p.add_argument("--total-steps", dest="td3.total_steps", type=int)
    p.add_argument("--resume", help="checkpoint to fine-tune from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("benchmark", help="run the scenario benchmark")
    _add_common(p)
    p.add_argument("--checkpoint", help="run the trained agent from this checkpoint")
    p.add_argument("--baseline", action="store_true",
                   help="run the EKF+PID baseline; with --checkpoint, on the agent's seeds")
    p.add_argument("--scenario", action="append", default=None,
                   help="scenario name or ALL; repeatable")
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("reward-surface", help="export the reward-surface grid CSV",
                       description="Export the reward-surface grid CSV. It draws no random numbers: no --seed.")
    _add_common(p, seed=False)
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
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
