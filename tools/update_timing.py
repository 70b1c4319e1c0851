#!/usr/bin/env python3
"""Time Td3Learner.update at the default dims, plain and policy updates apart.

    python3 tools/update_timing.py [--updates 200] [--seed 11]

BLAS is pinned to one thread per call before numpy loads, as perfbench/run.py
pins it, so on two or more CPUs the update runs its worker lane. The learner
takes --updates updates on random batches of the default batch size, after
a few untimed ones. At the default policy_delay of 2 every second update is
a policy update (the actor and the target nets step too); the others are
plain (only the critics step). The two kinds take far apart times, so a
median over both falls between them: this prints the median and quartiles of
each kind on its own, and a digest of the learner's parameters, which equal
seeds and update counts give on every checkout that keeps the update's bits.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from padlander import td3  # noqa: E402

WARMUP = 6


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--updates", type=int, default=200, help="timed updates (default 200)")
    p.add_argument("--seed", type=int, default=11)
    args = p.parse_args(argv)
    if args.updates < 8:
        p.error("--updates must be >= 8: each kind needs four samples for its quartiles")

    hp = td3.Td3Hyperparams()
    learner = td3.Td3Learner(hp, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    b = hp.batch_size
    times = {True: [], False: []}  # policy update -> its times in ms
    for i in range(WARMUP + args.updates):
        batch = (
            rng.normal(size=(b, td3.OBS_DIM)).astype(np.float32),
            rng.uniform(-1, 1, (b, td3.ACTION_DIM)).astype(np.float32),
            rng.normal(size=b).astype(np.float32),
            rng.normal(size=(b, td3.OBS_DIM)).astype(np.float32),
            (rng.uniform(size=b) < 0.05).astype(np.float32),
        )
        policy = (learner.n_updates + 1) % hp.policy_delay == 0
        start = time.perf_counter_ns()
        learner.update(batch)
        if i >= WARMUP:
            times[policy].append((time.perf_counter_ns() - start) / 1e6)

    lanes = b * learner.critic1.n_params >= td3.LANE_MIN_WORK and td3._lane_pays()
    print(f"seed {args.seed}, {args.updates} updates at hidden_dims {hp.hidden_dims}, batch {b}, "
          f"worker lane {'on' if lanes else 'off'}")
    for policy, name in ((False, "plain"), (True, "policy")):
        q1, q2, q3 = statistics.quantiles(times[policy], n=4)
        print(f"{name:>6} updates: n={len(times[policy])} median {q2:.2f} ms [quartiles {q1:.2f}-{q3:.2f}]")
    digest = hashlib.sha256()
    for name in td3._NETS:
        digest.update(getattr(learner, name).flat.tobytes())
    print(f"parameter digest {digest.hexdigest()[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
