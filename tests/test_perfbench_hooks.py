"""The benchmark's traced run wraps padlander attributes by name; keep them resolvable."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_span_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = tracing.span_targets()
    assert targets
    for owner, attr, _ in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is gone; the traced benchmark run wraps it"
        assert callable(owner.__dict__[attr])


def test_learner_state_is_the_checkpoint_layout(monkeypatch):
    # The benchmark keeps its own copy of the checkpoint order; it must agree with td3._layout.
    from padlander import td3

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    learner = td3.Td3Learner(td3.Td3Hyperparams(hidden_dims=(4,)), seed=0)
    arrays, _ = workloads.learner_state(learner)
    _, layout, _ = td3._layout(learner)
    assert len(arrays) == len(layout) == 12
    assert all(a is b for a, b in zip(arrays, layout))


def test_baseline_traces_call_writes_the_benchmark_trace(tmp_path):
    # perfbench's baseline-traces writes each trace with the evaluation.write_trace call below,
    # on an env built from ScenarioSpec(kind) alone; it must write run_benchmark's bytes for the seed.
    from padlander import evaluation
    from padlander.baseline import ESTIMATOR_COLUMNS, PidController, run_baseline_episode
    from padlander.config import RunConfig
    from padlander.environment import LandingEnv
    from padlander.scenario import ScenarioKind, ScenarioSpec

    trace_dir = tmp_path / "benchmark"
    report = evaluation.run_benchmark(list(ScenarioKind), [evaluation.Controller.EKF_PID], 1, cfg=RunConfig(seed=5),
                                      trace_dir=str(trace_dir))
    assert [t.scenario for t in report.trials] == list(ScenarioKind)
    for trial in report.trials:
        ep = run_baseline_episode(LandingEnv(ScenarioSpec(trial.scenario)), trial.seed, None, PidController())
        path = tmp_path / f"{trial.scenario.value}.csv"
        evaluation.write_trace(path, ep.outcomes, ESTIMATOR_COLUMNS, ep.estimator_rows)
        assert path.read_bytes() == (trace_dir / f"{trial.scenario.value}_EkfPid_00.csv").read_bytes()


def test_step_outcome_observation_looks_up_build_observation_when_read(monkeypatch):
    # The traced train run wraps padlander.environment.build_observation; the property must call that name.
    import numpy as np

    import padlander.environment as environment
    from padlander.scenario import ScenarioKind, ScenarioSpec

    env = environment.LandingEnv(ScenarioSpec(ScenarioKind.SPL))
    env.reset(0)
    out = env.step(np.zeros(3))
    seen = []
    monkeypatch.setattr(environment, "build_observation", lambda drone, pad: seen.append((drone, pad)) or "patched")
    assert out.observation == "patched"
    assert len(seen) == 1 and seen[0][0] is out.drone and seen[0][1] is out.pad
