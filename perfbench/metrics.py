"""Metric tables: end-to-end from an untraced section, per-layer from spans.

Span names follow ``<layer>.<boundary>[.<detail>]`` (see tracing.py), and
every per-layer metric names the layer it measures. Counts are per
repetition, so they repeat exactly for a given workload and seed. A layer a
workload never calls reports zero calls and a zero time.

Which end-to-end metric each layer should move, and on which workload:

  mlp, td3      steps_per_s and step_ms_p50 on train-lmpl; the batch-1
                forward and td3.act also on rollout-agent; nothing on
                baseline-traces. Checkpoint save/load/bytes are reported only.
  environment, dynamics, scenario, reward
                rollout-agent and baseline-traces, LMPL most exposed; under
                4% of train-lmpl, so no change expected there.
  baseline      baseline-traces only.
  evaluation    steps_per_s on baseline-traces (trace and report writing).

The ``<layer>.self_ms_per_step`` values plus ``trace.unattributed_ms_per_step``
add up to ``trace.step_ms_mean``: every span is on the single thread's
blocking path.
"""

import statistics
import time

import numpy as np

from padlander.environment import Terminal
from padlander.scenario import ScenarioKind
from padlander.td3 import ACTION_DIM, OBS_DIM, Td3Hyperparams

LAYERS = ("mlp", "td3", "environment", "dynamics", "scenario", "reward", "baseline", "evaluation")
SCENARIOS = [k.value for k in ScenarioKind]
OUTCOMES = [t.value for t in Terminal if t is not Terminal.NONE]
BATCH = Td3Hyperparams().batch_size


def _m(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(section: dict, setup_s: float, peak_rss_mb: float) -> dict:
    # The gated tail is p90. On a shared two-vCPU host, stalls caused by
    # co-tenants set the p99, whose spread over ten seeds reached 40-100% of
    # its median; p99 is printed and kept in result.json instead.
    return {
        "setup_s": _m(setup_s, "s"),
        "steps_per_s": _m(section["steps_per_s"], "1/s"),
        "step_ms_p50": _m(section["step_ms_p50"], "ms"),
        "step_ms_p90": _m(section["step_ms_p90"], "ms"),
        "peak_rss_mb": _m(peak_rss_mb, "MB"),
    }


def _matmul_flops(dims, batch: int) -> int:
    return sum(2 * batch * i * o for i, o in zip(dims[:-1], dims[1:]))


def _n_params(dims) -> int:
    return sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))


def update_cost(hp: Td3Hyperparams):
    """Computed matmul GFLOP, and Adam/Polyak floor bytes, per TD3 update.

    Per update: target actor + two target critic forwards, and for each
    online critic a forward, a backward (two matmuls per layer) and one Adam
    pass. Every policy_delay updates: actor forward, critic1 forward +
    backward, actor backward, one Adam pass over the actor and one Polyak
    pass over each target net. A fused Adam pass reads params, grads, m, v and writes
    params, m, v (7 float32 streams); Polyak reads two and writes one.
    """
    hidden = list(hp.hidden_dims)
    actor = [OBS_DIM] + hidden + [ACTION_DIM]
    critic = [OBS_DIM + ACTION_DIM] + hidden + [1]
    fa, fc = _matmul_flops(actor, hp.batch_size), _matmul_flops(critic, hp.batch_size)
    na, nc = _n_params(actor), _n_params(critic)
    delay = hp.policy_delay
    gflop = (fa + 2 * fc + 2 * 3 * fc + (3 * fa + 3 * fc) / delay) / 1e9
    adam_bytes = 7 * 4 * (2 * nc + na / delay)
    polyak_bytes = 3 * 4 * (na + 2 * nc) / delay
    return gflop, adam_bytes, polyak_bytes


def matmul_peak_gflops(batches: int = 7, per_batch: int = 50) -> float:
    """Median rate of a 100x512 @ 512x512 float32 matmul."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((100, 512)).astype(np.float32)
    b = rng.standard_normal((512, 512)).astype(np.float32)
    out = np.empty((100, 512), dtype=np.float32)
    for _ in range(10):
        np.matmul(a, b, out=out)
    rates = []
    for _ in range(batches):
        t0 = time.perf_counter_ns()
        for _ in range(per_batch):
            np.matmul(a, b, out=out)
        rates.append(2 * 100 * 512 * 512 * per_batch / (time.perf_counter_ns() - t0))
    return statistics.median(rates)


def per_layer(stats, all_stats, traced_reps, sections: dict, workload, peak_gflops: float) -> dict:
    """Per-layer metrics from the traced repetitions' spans."""
    n_reps = len(traced_reps)
    traced = sections["traced"]
    out = {}

    def us(name, span):
        out[name] = _m(stats.p50_ns(span) / 1e3, "us")

    def ms(name, span, source=stats):
        out[name] = _m(source.p50_ns(span) / 1e6, "ms")

    def calls(span):
        out[span + ".calls_per_rep"] = _m(stats.calls(span) // n_reps, "count")

    def self_share(span):
        total = stats.total_ns(span)
        out[span + ".self_share"] = _m(stats.self_total_ns(span) / total if total else 0.0, "ratio")

    # mlp
    us("mlp.forward.b1.us_p50", "mlp.forward.b1")
    us(f"mlp.forward.b{BATCH}.us_p50", f"mlp.forward.b{BATCH}")
    us("mlp.backward.us_p50", "mlp.backward")
    us("mlp.adam_step.us_p50", "mlp.adam_step")
    us("mlp.polyak.us_p50", "mlp.polyak")
    gflop, adam_bytes, polyak_bytes = update_cost(Td3Hyperparams())
    update_s = stats.p50_ns("td3.update") / 1e9
    achieved = gflop / update_s if update_s else 0.0
    out["mlp.update_gflop"] = _m(gflop, "GFLOP")
    out["mlp.matmul_peak_gflops"] = _m(peak_gflops, "GFLOP/s")
    out["mlp.update_gflops_achieved"] = _m(achieved, "GFLOP/s")
    out["mlp.update_floor_ratio"] = _m(achieved / peak_gflops, "ratio")
    out["mlp.adam.bytes_per_update"] = _m(adam_bytes, "bytes")
    out["mlp.polyak.bytes_per_update"] = _m(polyak_bytes, "bytes")
    for span in ("mlp.forward.b1", f"mlp.forward.b{BATCH}", "mlp.backward", "mlp.adam_step", "mlp.polyak"):
        calls(span)

    # td3
    ms("td3.update.ms_p50", "td3.update")
    self_share("td3.update")
    us("td3.act.us_p50", "td3.act")
    us("td3.replay_sample.us_p50", "td3.replay_sample")
    us("td3.replay_add.us_p50", "td3.replay_add")
    ms("td3.checkpoint.save_ms", "td3.checkpoint.save", all_stats)
    ms("td3.checkpoint.load_ms", "td3.checkpoint.load", all_stats)
    out["td3.checkpoint.bytes"] = _m(getattr(workload, "checkpoint_bytes", 0), "bytes")
    for span in ("td3.update", "td3.act", "td3.replay_sample", "td3.replay_add"):
        calls(span)

    # environment
    us("environment.step.us_p50", "environment.step")
    self_share("environment.step")
    us("environment.build_observation.us_p50", "environment.build_observation")
    us("environment.reset.us_p50", "environment.reset")
    for s in SCENARIOS:
        span = "environment.step." + s
        total = stats.total_ns(span)
        out["environment.steps_per_s." + s] = _m(stats.calls(span) / (total / 1e9) if total else 0.0, "1/s")
    for span in ("environment.step", "environment.reset", "environment.build_observation"):
        calls(span)
    terminals = traced_reps[0].terminals
    for t in OUTCOMES:
        for s in SCENARIOS:
            out[f"environment.terminal.{t}.{s}"] = _m(terminals.get((t, s), 0), "count")

    # dynamics, scenario, reward
    us("dynamics.step_drone_many.us_p50", "dynamics.step_drone_many")
    us("dynamics.apply_setpoint_delta.us_p50", "dynamics.apply_setpoint_delta")
    for s in SCENARIOS:
        us("scenario.platform_at.us_p50." + s, "scenario.platform_at." + s)
    us("scenario.sample_wind_step.us_p50", "scenario.sample_wind_step")
    us("reward.compute_reward.us_p50", "reward.compute_reward")
    for span in ("dynamics.step_drone_many", "dynamics.apply_setpoint_delta", "scenario.platform_at",
                 "scenario.sample_wind_step", "reward.compute_reward"):
        calls(span)

    # baseline
    for span in ("baseline.ekf_predict", "baseline.ekf_update", "baseline.pursuit_command"):
        us(span + ".us_p50", span)
        calls(span)

    # evaluation
    ms("evaluation.write_trace.ms_p50", "evaluation.write_trace")
    out["evaluation.trace_bytes"] = _m(traced_reps[0].extra.get("trace_bytes", 0), "bytes")
    ms("evaluation.write_report.ms", "evaluation.write_report")
    calls("evaluation.write_trace")
    episodes = sum(terminals.values())
    touchdowns = sum(n for (t, _), n in terminals.items() if t == Terminal.TOUCHDOWN.value)
    out["evaluation.success_rate"] = _m(touchdowns / episodes if episodes else 0.0, "ratio")

    # Accounting: per control step, the layers' self times plus the
    # benchmark loop's own time add up to the traced mean step time.
    steps = traced["steps"]
    wall_ns = traced["wall_s"] * 1e9
    for layer in LAYERS:
        out[layer + ".self_ms_per_step"] = _m(stats.self_total_ns(layer) / steps / 1e6, "ms")
    out["trace.unattributed_ms_per_step"] = _m((wall_ns - stats.top_level_ns) / steps / 1e6, "ms")
    out["trace.step_ms_mean"] = _m(traced["wall_s"] * 1e3 / steps, "ms")
    out["trace.step_ms_p50"] = _m(traced["step_ms_p50"], "ms")
    out["trace.overhead_share"] = _m(1.0 - traced["steps_per_s"] / sections["untraced"]["steps_per_s"], "ratio")
    return out
