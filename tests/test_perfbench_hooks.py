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
