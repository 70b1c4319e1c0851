#!/usr/bin/env python3
"""padlander benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload train-lmpl --seed 1 --seconds 50 --trace 0

Workloads: train-lmpl, rollout-agent, baseline-traces (see workloads.py);
--workload all runs each of them in turn, in its own process.
The timed section repeats the workload's fixed-size repetition for about
--seconds seconds. --trace 0 reports the end-to-end metrics. --trace 1
spends half the time untraced and half with span wrappers installed, and
reports the per-layer metrics. Output digests must agree across every
repetition and between the untraced and traced sections.

Human-readable lines go to stdout; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The full result, with the
machine record and (traced) the raw spans, is written under .perfbench_out/
in the checkout. Exit code 0 only when every gate passes and no operation
failed.
"""

import os

# Pin BLAS to one thread before numpy loads: at two threads the TD3 update
# time spreads far wider between runs on a shared two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
MIN_REPS = 2


def monotonic_ns() -> int:
    # CLOCK_MONOTONIC is system-wide, so a child's stamp compares with ours.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="minimal repetition sizes (smoke test only)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_record() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def timed_section(workload, seconds: float):
    """Whole repetitions until the next one would overrun the budget."""
    reps, busy = [], 0
    budget = seconds * 1e9
    while True:
        t0 = time.perf_counter_ns()
        rep = workload.rep()
        rep.wall_ns = time.perf_counter_ns() - t0
        rep.digest, rep.digest_fn = rep.digest_fn(), None  # release what the digest held
        rep.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reps.append(rep)
        busy += rep.wall_ns
        if len(reps) >= MIN_REPS and busy + 0.5 * busy / len(reps) > budget:
            return reps


def summary(reps) -> dict:
    lat = np.concatenate([np.asarray(r.latencies_ns, dtype=np.int64) for r in reps]) / 1e6
    steps = sum(r.steps for r in reps)
    wall_s = sum(r.wall_ns for r in reps) / 1e9
    return {
        "steps": steps,
        "wall_s": wall_s,
        # Median over repetitions: on a shared host, co-tenants speed up or
        # slow down whole seconds of a run; the median damps those phases.
        "steps_per_s": statistics.median(r.steps / r.wall_ns * 1e9 for r in reps),
        "step_ms_p50": float(np.percentile(lat, 50)),
        "step_ms_p90": float(np.percentile(lat, 90)),
        "step_ms_p99": float(np.percentile(lat, 99)),
        "step_ms_mean": float(lat.mean()),
        "samples": int(lat.size),
    }


def setup_seconds(args) -> float:
    """Median over fresh processes of process start -> ready to time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = monotonic_ns()
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "1", "--setup-only"] + (["--smoke"] if args.smoke else []),
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append((int(out.stdout.split()[-1]) - t0) / 1e9)
    return statistics.median(samples)


def digest_errors(reps) -> list:
    digests = {r.digest for r in reps}
    return [] if len(digests) == 1 else [f"{len(digests)} distinct output digests over {len(reps)} repetitions"]


def run_all(args, names) -> int:
    """Every workload, each in its own fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"[{name}] no result, exit code {proc.returncode}")
            merged["correct"] = False
            merged["failed"] += 1
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": m for k, m in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] and merged["failed"] == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "padlander" / "__init__.py").is_file():
        print(f"perfbench: no padlander sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import metrics
    import tracing
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; valid: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}" / str(os.getpid())
    if not args.setup_only:
        shutil.rmtree(run_dir.parent, ignore_errors=True)
    run_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(run_dir), smoke=args.smoke)
    if args.setup_only:
        print(monotonic_ns())
        shutil.rmtree(run_dir, ignore_errors=True)
        return 0

    # Each gate is one checked operation; its errors make it a failed one.
    gates = {}
    # A traced run splits its time between an untraced and a traced section,
    # so every run measures for --seconds in total.
    section_s = args.seconds / 2 if args.trace else args.seconds
    reps = timed_section(workload, section_s)
    finish_digest, gates["finish"] = workload.finish()
    gates["repetition digests"] = digest_errors(reps)
    sections = {"untraced": summary(reps)}
    traced = []
    if args.trace:
        recorder = tracing.SpanRecorder()
        with recorder.installed(tracing.span_targets()):
            t_first = time.perf_counter_ns()
            traced = timed_section(workload, section_s)
            t_last = time.perf_counter_ns()
            traced_finish_digest, gates["traced finish"] = workload.finish()
        gates["traced repetition digests"] = digest_errors(traced)
        same = traced[0].digest == reps[0].digest and traced_finish_digest == finish_digest
        gates["traced equals untraced"] = [] if same else ["traced run output differs from untraced run output"]
        sections["traced"] = summary(traced)
        recorder.save(run_dir / "spans.npz")
        layer = metrics.per_layer(
            tracing.SpanStats(recorder, (t_first, t_last)), tracing.SpanStats(recorder),
            traced, sections, workload, metrics.matmul_peak_gflops(),
        )
    gates["reference run"] = workload.reference_errors()
    workload.cleanup()

    all_reps = reps + traced
    failures = sum((r.failures for r in all_reps), start=Counter())
    errors = [f"{name}: {e}" for name, errs in gates.items() for e in errs]
    attempted = sum(r.attempted for r in all_reps) + len(gates)
    failed = sum(failures.values()) + sum(1 for errs in gates.values() if errs)
    if args.trace:
        layer["failed_ops_ratio"] = {"value": failed / attempted, "unit": "ratio"}
        reported = layer
    else:
        # Peak through set-up and the first repetition, i.e. one user-sized
        # run: later repetitions in the same process only add allocator growth.
        peak_rss_mb = reps[0].peak_rss_kb / 1024.0
        reported = metrics.end_to_end(sections["untraced"], setup_seconds(args), peak_rss_mb)
    correct = not errors
    machine = machine_record()
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "sections": sections, "reps": {"untraced": len(reps), "traced": len(traced)},
        "rep_steps_wall_p50_p90_p99_ns": {
            name: [[r.steps, r.wall_ns] + [int(np.percentile(r.latencies_ns, q)) for q in (50, 90, 99)] for r in rs if r.latencies_ns]
            for name, rs in (("untraced", reps), ("traced", traced))},
        "digest": reps[0].digest, "finish_digest": finish_digest, "gate_errors": errors,
        "failures_by_type": dict(failures), "metrics": reported,
    }
    with open(run_dir / "result.json", "w") as f:
        json.dump(full, f, indent=2)

    print("machine: " + json.dumps(machine))
    for name, section in sections.items():
        print(f"{name}: {section['steps']} steps in {section['wall_s']:.2f} s over "
              f"{full['reps'][name]} repetitions, {section['samples']} latency samples, "
              f"step p99 {section['step_ms_p99']:.4g} ms")
    for kind, n in sorted(failures.items()):
        print(f"failure {kind}: {n}")
    for e in errors:
        print(f"GATE FAILED: {e}")
    for name, m in reported.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
