#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload at minimal size (--smoke), untraced and traced,
   including any defined in workloads.py but not listed in BENCHMARK.json,
   and checks the result line: exit code 0, exactly the keys
   correct/attempted/failed/metrics, no failed operation, and every metric
   BENCHMARK.json names present with its unit.
2. Checks that corrupted outputs trip the gates: a checkpoint with one
   flipped byte fails the save->load round trip, and repetitions with
   different output digests fail the digest gate.
3. Runs the benchmark from a directory holding only BENCHMARK.json and the
   benchmark's files, where it must exit non-zero without a result.

Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_out" / "smoke"
TIMEOUT_S = 180


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def result_problems(proc, expected: dict) -> list:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"missing metric {name}")
        elif m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m.get('value')!r} is not a finite number")
    return problems


def check_workloads(spec: dict, names) -> list:
    failures = []
    tables = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for name in names:
        for trace, table in tables.items():
            proc = run_bench(ROOT, name, trace)
            problems = result_problems(proc, {m["name"]: m["unit"] for m in table})
            label = f"{name} --trace {trace}"
            print(("FAIL " if problems else "PASS ") + label)
            failures += [f"{label}: {p}" for p in problems]
    return failures


def check_gates() -> list:
    import run
    import workloads
    from padlander import td3

    failures = []
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    train = workloads.TrainLmpl(3, str(WORK_DIR), smoke=True)
    rep = train.rep()
    path = WORK_DIR / "checkpoint.bin"
    td3.save_checkpoint(path, train.learner)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))
    if not workloads.checkpoint_mismatches(train.learner, td3.load_checkpoint(path)):
        failures.append("a flipped checkpoint byte passed the round-trip gate")
    if train.finish()[1]:
        failures.append("an intact checkpoint failed the round-trip gate")

    good = rep.digest_fn()
    rep.digest = good
    twin = workloads.Rep(rep.steps, [], rep.attempted, rep.failures, rep.terminals, None, digest=good[::-1])
    if not run.digest_errors([rep, twin]):
        failures.append("differing repetition digests passed the digest gate")
    if run.digest_errors([rep, rep]):
        failures.append("equal repetition digests failed the digest gate")
    print(("FAIL " if failures else "PASS ") + "corrupted outputs trip the gates")
    return failures


def check_bare_directory(spec: dict) -> list:
    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    failures = []
    if proc.returncode == 0 or last.startswith("{"):
        failures.append(f"without sources: exit code {proc.returncode}, last line {last!r}")
    print(("FAIL " if failures else "PASS ") + "no sources: non-zero exit, no result")
    return failures


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    failures = check_workloads(spec, workloads.WORKLOADS) + check_gates() + check_bare_directory(spec)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    for f in failures:
        print("  " + f)
    print("smoke: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
