"""The benchmark's workloads and their output-correctness gates.

BENCHMARK.json runs train-lmpl and baseline-traces, which between them reach
every layer. rollout-agent runs on request (``--workload rollout-agent`` or
``all``); it adds the batch-1 actor forward on all four scenarios.

Each workload is built from the workload seed alone and runs in fixed-size
repetitions: one repetition always does the same work and must produce the
same output digest. The runner times repetitions, so a workload only has
to report what it did (control steps, one latency sample per control step,
operations attempted, failures by exception type, terminal counts) and how
to digest its output.

Trial seeds come from ``substream(seed, "benchmark-trials")`` exactly as in
``run_benchmark``, so the baseline workload can be checked against it.
Wind is on everywhere. Touchdown, Crash, OutOfBounds and Timeout are
outcomes; only an exception is a failure, and it is counted by type
instead of being turned into a Crash trial.

Library calls that a traced run wraps (``td3.save_checkpoint``,
``evaluation.write_trace``, ...) are looked up on their module at call time.
"""

import hashlib
import json
import math
import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from padlander import evaluation, td3
from padlander.baseline import ESTIMATOR_COLUMNS, PidController, run_baseline_episode
from padlander.environment import EnvConfig, LandingEnv, Terminal
from padlander.evaluation import BenchmarkReport, Controller
from padlander.rng import substream
from padlander.scenario import ScenarioKind, ScenarioSpec

SCENARIOS = list(ScenarioKind)
WIND_ON = EnvConfig(wind_enabled=True)

# Repetition sizes. A train repetition is one fixed-length td3.train run
# (learning_starts=100 random steps, then one update per step); rollout and
# baseline repetitions fly TRIALS_PER_SCENARIO seeded episodes per scenario.
TRAIN_STEPS = 300
TRIALS_PER_SCENARIO = 3
SMOKE_TRAIN_STEPS = 105
SMOKE_TRIALS_PER_SCENARIO = 1

clock = time.perf_counter_ns


@dataclass
class Rep:
    """What one repetition did; the digest is taken after the clock stops."""

    steps: int
    latencies_ns: List[int]
    attempted: int
    failures: Counter
    terminals: Counter  # (terminal, scenario) -> episodes
    digest_fn: Callable[[], str]
    digest: str = ""
    wall_ns: int = 0
    peak_rss_kb: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


def trial_seeds(seed: int, per_scenario: int) -> Dict[ScenarioKind, List[int]]:
    rng = substream(seed, "benchmark-trials")
    return {kind: [int(s) for s in rng.integers(2**31 - 1, size=per_scenario)] for kind in SCENARIOS}


def record_failure(failures: Counter, where: str, exc: BaseException) -> None:
    failures[type(exc).__name__] += 1
    print(f"[perfbench] {where}: {type(exc).__name__}: {exc}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def diffs(stamps: List[int], end: int) -> List[int]:
    stamps = stamps + [end]
    return [b - a for a, b in zip(stamps[:-1], stamps[1:])]


class StampedEnv(LandingEnv):
    """LandingEnv that stamps the entry of every step() and counts terminals.

    Consecutive stamps bracket one whole control step of a loop that the
    benchmark does not own (td3.train, run_baseline_episode).
    """

    def __init__(self, scenario: ScenarioSpec, stamps: List[int], terminals: Counter):
        super().__init__(scenario, WIND_ON)
        self.stamps = stamps
        self.terminals = terminals

    def step(self, action):
        self.stamps.append(clock())
        out = super().step(action)
        if out.terminal is not Terminal.NONE:
            self.terminals[(out.terminal.value, self.scenario.kind.value)] += 1
        return out


class CheckedLearner(td3.Td3Learner):
    """Td3Learner whose update() rejects a non-finite critic or actor loss."""

    def update(self, batch) -> dict:
        diags = super().update(batch)
        bad = {k: v for k, v in diags.items() if not math.isfinite(v)}
        if bad:
            raise td3.TrainingDivergedError(f"non-finite update diagnostics {bad} at update {self.n_updates}")
        return diags


def learner_state(learner: td3.Td3Learner):
    """Every array and counter a checkpoint carries, in checkpoint order."""
    nets = [learner.actor, learner.critic1, learner.critic2,
            learner.target_actor, learner.target_critic1, learner.target_critic2]
    opts = [learner.actor_opt, learner.critic1_opt, learner.critic2_opt]
    arrays = [n.flat for n in nets] + [a for o in opts for a in (o.m, o.v)]
    scalars = {
        "adam_t": [o.t for o in opts],
        "n_updates": learner.n_updates,
        "rng": learner.update_rng.bit_generator.state,
    }
    return arrays, scalars


def learner_digest(learner: td3.Td3Learner) -> str:
    arrays, scalars = learner_state(learner)
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    h.update(json.dumps(scalars, sort_keys=True).encode())
    return h.hexdigest()


def checkpoint_mismatches(saved: td3.Td3Learner, loaded: td3.Td3Learner) -> List[str]:
    """Bit-level differences between a learner and its save->load round trip."""
    a_arrays, a_scalars = learner_state(saved)
    b_arrays, b_scalars = learner_state(loaded)
    errors = [f"checkpoint buffer {i} differs after round trip"
              for i, (a, b) in enumerate(zip(a_arrays, b_arrays))
              if a.dtype != b.dtype or a.tobytes() != b.tobytes()]
    if a_scalars != b_scalars:
        errors.append("checkpoint counters or rng state differ after round trip")
    return errors


def files_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Interface the runner drives; the defaults suit a workload with no extra gates."""

    name = ""

    def rep(self) -> Rep:
        raise NotImplementedError

    def finish(self):
        """After each timed section: (output digest, gate errors)."""
        return "", []

    def reference_errors(self) -> List[str]:
        """Once, untraced: disagreements with a reference implementation."""
        return []

    def cleanup(self) -> None:
        pass


class TrainLmpl(Workload):
    """Fixed-length td3.train on LMPL with default Td3Hyperparams.

    Evaluation and periodic checkpoints are off; finish() saves and reloads
    one checkpoint after the timed section. TD3 updates dominate wall time,
    so this workload shows mlp/td3 changes and barely shows env changes.
    """

    name = "train-lmpl"

    def __init__(self, seed: int, out_dir: str, smoke: bool = False):
        self.seed = seed
        self.out_dir = out_dir
        steps = SMOKE_TRAIN_STEPS if smoke else TRAIN_STEPS
        self.hp = td3.Td3Hyperparams(total_steps=steps, eval_interval=0, checkpoint_interval=0)
        self.spec = ScenarioSpec(ScenarioKind.LMPL)
        self.expected_updates = steps - self.hp.learning_starts
        self.learner = None
        self.checkpoint_bytes = 0

    def rep(self) -> Rep:
        stamps, terminals, failures = [], Counter(), Counter()
        learner = CheckedLearner(self.hp, seed=self.seed)
        try:
            result = td3.train(lambda: StampedEnv(self.spec, stamps, terminals), self.hp, seed=self.seed, learner=learner)
        except Exception as e:  # a failed update aborts the run: count it, keep measuring
            record_failure(failures, f"{self.name} update {max(0, len(stamps) - self.hp.learning_starts)}", e)
            self.learner = None
            return Rep(len(stamps), diffs(stamps, clock()), max(1, len(stamps) - self.hp.learning_starts),
                       failures, terminals, lambda: "failed")
        end = clock()
        if learner.n_updates != self.expected_updates:
            failures["UpdateCountMismatch"] += 1
        self.learner = result.learner

        def digest() -> str:
            return text_digest(learner_digest(learner) + json.dumps(sorted(terminals.items())) + str(result.episodes))

        return Rep(len(stamps), diffs(stamps, end), learner.n_updates, failures, terminals, digest)

    def finish(self):
        """One checkpoint save + load; returns (file digest, gate errors)."""
        if self.learner is None:
            return "failed", ["no trained learner to checkpoint"]
        path = os.path.join(self.out_dir, "checkpoint.bin")
        td3.save_checkpoint(path, self.learner)
        loaded = td3.load_checkpoint(path)
        self.checkpoint_bytes = os.path.getsize(path)
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        os.remove(path)
        return digest, checkpoint_mismatches(self.learner, loaded)


class RolloutAgent(Workload):
    """A seeded untrained actor flies the trial seeds on every scenario.

    One act + LandingEnv.step per control step, no exploration noise, as in
    ``padlander benchmark --checkpoint``. No backward pass and no Adam: the
    env layers and the batch-1 actor forward share the time.
    """

    name = "rollout-agent"

    def __init__(self, seed: int, out_dir: str, smoke: bool = False):
        self.learner = td3.Td3Learner(td3.Td3Hyperparams(), seed=seed)
        self.seeds = trial_seeds(seed, SMOKE_TRIALS_PER_SCENARIO if smoke else TRIALS_PER_SCENARIO)

    def rep(self) -> Rep:
        trials, latencies, terminals, failures, attempted = [], [], Counter(), Counter(), 0
        act = self.learner.act
        for kind in SCENARIOS:
            for trial_seed in self.seeds[kind]:
                attempted += 1
                env = LandingEnv(ScenarioSpec(kind), WIND_ON)
                try:
                    obs = env.reset(trial_seed)
                    outcomes = []
                    while True:
                        t0 = clock()
                        out = env.step(act(obs))
                        latencies.append(clock() - t0)
                        outcomes.append(out)
                        obs = out.observation
                        if out.terminal is not Terminal.NONE:
                            break
                    terminals[(out.terminal.value, kind.value)] += 1
                    trials.append(evaluation._trial_from_outcomes(kind, Controller.AGENT, trial_seed, outcomes, True))
                except Exception as e:
                    record_failure(failures, f"{self.name} {kind.value} seed {trial_seed}", e)
        return Rep(len(latencies), latencies, attempted, failures, terminals,
                   lambda: text_digest(evaluation.trials_csv(BenchmarkReport(trials=trials))))


class BaselineTraces(Workload):
    """EKF+PID on the trial seeds, writing traces and the report.

    Mirrors ``padlander benchmark --baseline --wind``: every trial's trace
    with estimator columns, then report.txt/csv/json and trials.csv. Zero
    MLP work; time goes to env, baseline and trace I/O.
    """

    name = "baseline-traces"

    def __init__(self, seed: int, out_dir: str, smoke: bool = False):
        self.seed = seed
        self.out_dir = os.path.join(out_dir, "baseline")
        self.trace_dir = os.path.join(self.out_dir, "traces")
        os.makedirs(self.trace_dir, exist_ok=True)
        self.seeds = trial_seeds(seed, SMOKE_TRIALS_PER_SCENARIO if smoke else TRIALS_PER_SCENARIO)
        self.trials = []

    def rep(self) -> Rep:
        trials, latencies, terminals, failures, attempted = [], [], Counter(), Counter(), 0
        for kind in SCENARIOS:
            for i, trial_seed in enumerate(self.seeds[kind]):
                attempted += 1
                stamps = []
                env = StampedEnv(ScenarioSpec(kind), stamps, terminals)
                try:
                    ep = run_baseline_episode(env, trial_seed, None, PidController())
                    latencies += diffs(stamps, clock())
                    trials.append(evaluation._trial_from_outcomes(kind, Controller.EKF_PID, trial_seed, ep.outcomes, True))
                    path = os.path.join(self.trace_dir, f"{kind.value}_{Controller.EKF_PID.value}_{i:02d}.csv")
                    evaluation.write_trace(path, ep.outcomes, ESTIMATOR_COLUMNS, ep.estimator_rows)
                except Exception as e:
                    latencies += diffs(stamps, clock())
                    record_failure(failures, f"{self.name} {kind.value} seed {trial_seed}", e)
        groups = [evaluation._group_stats(kind, Controller.EKF_PID, [t for t in trials if t.scenario is kind])
                  for kind in SCENARIOS if any(t.scenario is kind for t in trials)]
        evaluation.write_report(self.out_dir, BenchmarkReport(groups, trials))
        self.trials = trials
        trace_bytes = sum(e.stat().st_size for e in os.scandir(self.trace_dir))
        return Rep(len(latencies), latencies, attempted, failures, terminals,
                   lambda: files_digest(self.out_dir), extra={"trace_bytes": trace_bytes})

    def reference_errors(self) -> List[str]:
        """The trials must match what run_benchmark gives on the same seeds."""
        per_scenario = len(self.seeds[SCENARIOS[0]])
        ref = evaluation.run_benchmark(SCENARIOS, [Controller.EKF_PID], per_scenario, wind=True, seed=self.seed)
        errors = []
        for g in ref.groups:
            ours = sum(1 for t in self.trials if t.scenario.value == g.scenario and t.terminal is Terminal.TOUCHDOWN)
            if ours != g.successes:
                errors.append(f"{g.scenario}: {ours} touchdowns, run_benchmark gives {g.successes}")
        if evaluation.trials_csv(ref) != evaluation.trials_csv(BenchmarkReport(trials=self.trials)):
            errors.append("trial rows differ from run_benchmark on the same seeds")
        return errors

    def cleanup(self) -> None:
        for e in os.scandir(self.trace_dir):
            os.remove(e.path)


WORKLOADS = {w.name: w for w in (TrainLmpl, RolloutAgent, BaselineTraces)}
