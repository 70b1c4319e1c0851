"""In-memory span recording around padlander's layer boundaries.

A traced run replaces selected functions and methods with wrappers at the
attribute the calling module looks up at call time (e.g.
``padlander.environment.platform_at``, ``Mlp.forward``), records one span per
call (name, start, end, parent) into flat arrays, and restores the originals
when the traced section ends. Nothing is installed in an untraced run.

Wrappers only read the clock and their arguments: they draw no random
numbers, so a traced run must produce byte-identical outputs.
"""

import time
from array import array
from contextlib import contextmanager

import numpy as np


def _per_scenario(prefix):
    return lambda spec, *a, **k: prefix + spec.kind.value


def _env_step_name(env, *a, **k):
    return "environment.step." + env.scenario.kind.value


def _forward_name(net, x, *a, **k):
    batch = 1 if getattr(x, "ndim", 1) == 1 else x.shape[0]
    return f"mlp.forward.b{batch}"


def span_targets():
    """(owner, attribute, span name or namer(args)) for every traced boundary."""
    import padlander.baseline as baseline
    import padlander.environment as environment
    import padlander.evaluation as evaluation
    import padlander.mlp as mlp
    import padlander.scenario as scenario
    import padlander.td3 as td3

    return [
        (environment.LandingEnv, "step", _env_step_name),
        (environment.LandingEnv, "reset", "environment.reset"),
        (environment, "build_observation", "environment.build_observation"),
        (environment, "apply_setpoint_delta", "dynamics.apply_setpoint_delta"),
        (environment, "step_drone_many", "dynamics.step_drone_many"),
        (environment, "platform_at", _per_scenario("scenario.platform_at.")),
        # run_baseline_episode imports platform_at from the scenario module.
        (scenario, "platform_at", _per_scenario("scenario.platform_at.")),
        (environment, "sample_wind_step", "scenario.sample_wind_step"),
        (environment, "compute_reward", "reward.compute_reward"),
        (baseline, "ekf_predict", "baseline.ekf_predict"),
        (baseline, "ekf_update", "baseline.ekf_update"),
        (baseline, "pursuit_command", "baseline.pursuit_command"),
        (td3.Td3Learner, "act", "td3.act"),
        (td3.Td3Learner, "update", "td3.update"),
        (td3.ReplayBuffer, "add", "td3.replay_add"),
        (td3.ReplayBuffer, "sample", "td3.replay_sample"),
        (td3, "save_checkpoint", "td3.checkpoint.save"),
        (td3, "load_checkpoint", "td3.checkpoint.load"),
        (mlp.Mlp, "forward", _forward_name),
        (mlp.Mlp, "backward", "mlp.backward"),
        (mlp.Mlp, "polyak_from", "mlp.polyak"),
        (mlp.Adam, "step", "mlp.adam_step"),
        (evaluation, "write_trace", "evaluation.write_trace"),
        (evaluation, "write_report", "evaluation.write_report"),
    ]


class SpanRecorder:
    """Flat, append-only span store; parents come from a call stack."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock, intern = self._stack, time.perf_counter_ns, self.intern
        fixed = self.intern(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed if fixed is not None else intern(name(*args, **kwargs)))
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Install span wrappers on every target; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        """Spans as numpy columns: names (list), name_id, parent, start_ns, end_ns."""
        return (
            self.names,
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.int64).copy(),
            np.frombuffer(self.end, dtype=np.int64).copy(),
        )

    def save(self, path) -> None:
        names, nid, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(names), name_id=nid, parent=parent, start_ns=start, end_ns=end)


class SpanStats:
    """Per-name durations and self times of the spans inside a window."""

    def __init__(self, recorder: SpanRecorder, window_ns=None):
        names, nid, parent, start, end = recorder.arrays()
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        self_ns = dur - child
        keep = np.ones(len(dur), dtype=bool)
        if window_ns is not None:
            keep = (start >= window_ns[0]) & (end <= window_ns[1])
        self.durations = {}
        self.self_ns = {}
        self.top_level_ns = int(dur[keep & (parent < 0)].sum())
        for i, name in enumerate(names):
            sel = keep & (nid == i)
            if sel.any():
                self.durations[name] = dur[sel]
                self.self_ns[name] = int(self_ns[sel].sum())

    def calls(self, prefix: str) -> int:
        return sum(len(d) for n, d in self.durations.items() if _matches(n, prefix))

    def total_ns(self, prefix: str) -> int:
        return sum(int(d.sum()) for n, d in self.durations.items() if _matches(n, prefix))

    def self_total_ns(self, prefix: str) -> int:
        return sum(s for n, s in self.self_ns.items() if _matches(n, prefix))

    def p50_ns(self, prefix: str) -> float:
        ds = [d for n, d in self.durations.items() if _matches(n, prefix)]
        return float(np.median(np.concatenate(ds))) if ds else 0.0


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")
