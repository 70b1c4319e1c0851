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
