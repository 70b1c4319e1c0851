"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Criteria 1-6, 8, 9 run in the default suite. Criterion 7 (full desk-scale
training, several hours) is marked slow and deselected by default; run it
with `pytest -m slow tests/test_acceptance.py`.
"""

import math

import numpy as np
import pytest

from padlander.baseline import EkfState, ekf_predict, ekf_update
from padlander.dynamics import DroneState
from padlander.environment import EnvConfig, LandingEnv, Terminal, build_observation
from padlander.evaluation import Controller, run_benchmark, trials_csv
from padlander.mlp import Mlp
from padlander.reward import RewardConfig, compute_reward, repulsive_potential
from padlander.rng import substream
from padlander.scenario import (
    PlatformState,
    ScenarioKind,
    ScenarioSpec,
    init_wind,
    sample_wind_step,
)
from padlander.td3 import Td3Hyperparams, Td3Learner, evaluate_policy, train


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_reward_unit_suite():
    cfg = RewardConfig()
    rng = np.random.default_rng(0)
    zero = np.zeros(3)

    # far branch exactly tanh(gamma) for d >= 2
    far_ok = all(
        compute_reward(np.array([d, 0.0, 0.0]), rng.normal(size=3), d, None, False, False, cfg).total
        == math.tanh(cfg.gamma)
        for d in (2.0, 2.5, 10.0)
    )

    # bounded on 1e5 fuzzed inputs
    bounded = True
    for _ in range(100_000):
        rel = rng.uniform(-3, 3, 3)
        vel = rng.uniform(-4, 4, 3)
        prev = rng.uniform(0, 4)
        b = compute_reward(rel, vel, prev, None, bool(rng.integers(2)), bool(rng.integers(2)), cfg)
        if not (-1.0 < b.total < 1.0):
            bounded = False
            break

    # repulsive hand case
    rep_ok = abs(repulsive_potential(0.2) - 0.3125) < 1e-12

    # below-pad penalty strictly decreases reward
    rel = np.array([0.0, 0.0, -0.05])
    below = compute_reward(rel, zero, 0.05, None, True, False, cfg).total
    above = compute_reward(rel, zero, 0.05, None, False, False, cfg).total
    below_ok = below < above

    ok = far_ok and bounded and rep_ok and below_ok
    report("criterion 1 (reward unit suite)", ok,
           f"far={far_ok} bounded={bounded} rep={rep_ok} below={below_ok}")


def test_criterion_2_wind_statistics():
    windy = 0
    episodes = 20_000
    for ep in range(episodes):
        if init_wind(substream(ep, "wind"), 0.2):
            windy += 1
    frac_episodes = windy / episodes

    rng = substream(123, "wind")
    windy = init_wind(rng, 1.0)  # force windy to measure step rate
    active = 0
    max_component = 0.0
    steps = 1_000_000
    for _ in range(steps):
        force = sample_wind_step(windy, rng, 0.2, 0.005)
        if np.any(force != 0.0):
            active += 1
            max_component = max(max_component, float(np.max(np.abs(force))))
    frac_steps = active / steps

    ok = 0.18 <= frac_episodes <= 0.22 and 0.19 <= frac_steps <= 0.21 and max_component <= 0.005
    report("criterion 2 (wind statistics)", ok,
           f"episode_frac={frac_episodes:.4f} step_frac={frac_steps:.4f} max|F|={max_component:.4f}")


def test_criterion_3_gradient_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    # toy shape, float64, exhaustive
    net = Mlp([4, 8, 2], "tanh", rng, np.float64)
    x = rng.normal(size=(3, 4))
    up = rng.normal(size=(3, 2))
    net.forward(x)
    grads, _ = net.backward(up)
    h = 1e-6
    for i in range(net.flat.size):
        orig = net.flat[i]
        net.flat[i] = orig + h
        f1 = float(np.sum(net.forward(x) * up))
        net.flat[i] = orig - h
        f2 = float(np.sum(net.forward(x) * up))
        net.flat[i] = orig
        fd = (f1 - f2) / (2 * h)
        denom = max(1e-8, abs(fd) + abs(grads[i]))
        worst = max(worst, abs(fd - grads[i]) / denom)
    toy_ok = worst < 1e-5

    # full production shapes, sampled parameters
    full_ok = True
    for dims, act in (([15, 512, 512, 256, 128, 3], "tanh"),
                      ([18, 512, 512, 256, 128, 1], "linear")):
        net = Mlp(dims, act, rng, np.float64)
        x = rng.normal(size=(4, dims[0]))
        up = rng.normal(size=(4, dims[-1]))
        net.forward(x)
        grads, _ = net.backward(up)
        for i in rng.choice(net.flat.size, size=200, replace=False):
            orig = net.flat[i]
            net.flat[i] = orig + h
            f1 = float(np.sum(net.forward(x) * up))
            net.flat[i] = orig - h
            f2 = float(np.sum(net.forward(x) * up))
            net.flat[i] = orig
            fd = (f1 - f2) / (2 * h)
            # the difference quotient loses ~eps*|f|/h to cancellation
            fd_noise = 1e-15 * (abs(f1) + abs(f2)) / (2 * h)
            tol = max(1e-5 * (abs(fd) + abs(grads[i])), 10 * fd_noise + 1e-12)
            if abs(fd - grads[i]) > tol:
                full_ok = False
    ok = toy_ok and full_ok
    report("criterion 3 (gradient oracle)", ok, f"toy_worst_rel={worst:.2e} full={full_ok}")


def test_criterion_4_td3_bandit_fixed_point():
    hp = Td3Hyperparams(hidden_dims=(32, 32), batch_size=16, discount=0.0, learning_rate=3e-3)
    learner = Td3Learner(hp, seed=6, obs_dim=1, action_dim=1)
    obs = np.zeros((16, 1), dtype=np.float32)
    batch = (obs, np.zeros((16, 1), np.float32), np.ones(16, np.float32), obs,
             np.zeros(16, np.float32))
    for _ in range(2000):
        learner.update(batch)
    probe = np.zeros((1, 2), dtype=np.float32)
    q1 = float(learner.critic1.forward(probe)[0, 0])
    q2 = float(learner.critic2.forward(probe)[0, 0])
    ok = abs(q1 - 1.0) <= 0.01 and abs(q2 - 1.0) <= 0.01
    report("criterion 4 (TD3 bandit fixed point)", ok, f"q1={q1:.4f} q2={q2:.4f}")


def test_criterion_5_ekf_oracle():
    dt = 1.0 / 30.0
    # noiseless constant-velocity track
    pos = np.array([0.3, -0.1, 0.0])
    vel = np.array([0.2, 0.1, 0.0])
    ekf = EkfState.create(dt, x0=np.concatenate([pos, np.zeros(3)]), q=1e-14)
    for k in range(1, 51):
        ekf = ekf_predict(ekf)
        ekf = ekf_update(ekf, pos + vel * (k * dt))
    truth = np.concatenate([pos + vel * (50 * dt), vel])
    track_err = float(np.max(np.abs(ekf.x - truth)))

    # covariance health over fuzzed cycles
    rng = np.random.default_rng(3)
    ekf = EkfState.create(dt)
    sym_ok = psd_ok = True
    for _ in range(100_000):
        ekf = ekf_predict(ekf)
        ekf = ekf_update(ekf, rng.normal(size=3))
        if np.max(np.abs(ekf.P - ekf.P.T)) > 1e-9:
            sym_ok = False
            break
    psd_ok = float(np.min(np.linalg.eigvalsh(ekf.P))) > -1e-9

    # predict matches matrix-power oracle
    ekf2 = EkfState.create(dt, x0=[1, 2, 3, 0.1, 0.2, 0.3])
    x0 = ekf2.x.copy()
    a = ekf2.model.A.copy()
    for _ in range(30):
        ekf2 = ekf_predict(ekf2)
    power_err = float(np.max(np.abs(ekf2.x - np.linalg.matrix_power(a, 30) @ x0)))

    ok = track_err < 1e-6 and sym_ok and psd_ok and power_err < 1e-9
    report("criterion 5 (EKF oracle)", ok,
           f"track_err={track_err:.2e} sym={sym_ok} psd={psd_ok} power_err={power_err:.2e}")


def test_criterion_6_baseline_closed_loop():
    r = run_benchmark([ScenarioKind.SPL], [Controller.EKF_PID], trials_per_scenario=10, seed=0)
    g = r.groups[0]
    ok = g.success_rate >= 0.8 and g.precision_mean is not None and g.precision_mean <= 0.15
    report("criterion 6 (baseline closed loop)", ok,
           f"success={g.success_rate:.2f} mean_lateral={g.precision_mean}")


@pytest.mark.slow
def test_criterion_7_desk_scale_training():
    hp = Td3Hyperparams()
    seed = 42

    def factory(kind):
        return lambda: LandingEnv(ScenarioSpec(kind), EnvConfig())

    spl = train(factory(ScenarioKind.SPL), hp, seed=seed,
                log=lambda m: print(f"[SPL] {m}", flush=True))
    eval_seeds = substream(seed, "eval-episodes").integers(2**31 - 1, size=100)
    point = evaluate_policy(spl.learner, factory(ScenarioKind.SPL)(), eval_seeds)
    spl_ok = point.success_rate >= 0.8
    print(f"[acceptance] SPL 100-episode success: {point.success_rate:.2f}")

    lmpl = train(factory(ScenarioKind.LMPL), hp, seed=seed + 1, learner=spl.learner,
                 log=lambda m: print(f"[LMPL] {m}", flush=True))
    r = run_benchmark([ScenarioKind.LMPL], [Controller.AGENT, Controller.EKF_PID],
                      trials_per_scenario=50, wind=True, seed=seed, learner=lmpl.learner)
    agent = next(g for g in r.groups if g.controller == Controller.AGENT.value)
    base = next(g for g in r.groups if g.controller == Controller.EKF_PID.value)
    gap = agent.success_rate - base.success_rate
    ok = spl_ok and gap >= 0.2
    report("criterion 7 (desk-scale training)", ok,
           f"spl_success={point.success_rate:.2f} lmpl_agent={agent.success_rate:.2f} "
           f"lmpl_baseline={base.success_rate:.2f} gap={gap:.2f}")


def test_criterion_8_determinism():
    hp = Td3Hyperparams(hidden_dims=(32, 32), batch_size=16, total_steps=5000,
                        eval_interval=2500, eval_episodes=3, checkpoint_interval=0,
                        buffer_capacity=10_000)

    def factory():
        return LandingEnv(ScenarioSpec(ScenarioKind.SPL), EnvConfig())

    r1 = train(factory, hp, seed=17)
    r2 = train(factory, hp, seed=17)
    curves_equal = all(
        (a.step, a.mean_reward, a.mean_ep_len, a.success_rate)
        == (b.step, b.mean_reward, b.mean_ep_len, b.success_rate)
        for a, b in zip(r1.curve, r2.curve)
    ) and len(r1.curve) == len(r2.curve)
    params_equal = np.array_equal(r1.learner.actor.flat, r2.learner.actor.flat)

    b1 = run_benchmark([ScenarioKind.LMPL], [Controller.EKF_PID], trials_per_scenario=5,
                       wind=True, seed=17)
    b2 = run_benchmark([ScenarioKind.LMPL], [Controller.EKF_PID], trials_per_scenario=5,
                       wind=True, seed=17)
    bench_equal = trials_csv(b1) == trials_csv(b2)

    ok = curves_equal and params_equal and bench_equal
    report("criterion 8 (determinism)", ok,
           f"curves={curves_equal} params={params_equal} benchmark={bench_equal}")


def test_criterion_9_environment_contracts():
    rng = np.random.default_rng(5)

    # observation box on fuzzed states
    box_ok = True
    pad = PlatformState(np.zeros(3), np.zeros(3))
    for _ in range(100_000):
        drone = DroneState(
            rng.uniform(-5, 5, 3), rng.uniform(-4, 4, 3), rng.uniform(-4, 4, 3),
            rng.uniform(-20, 20, 3),
        )
        moving = PlatformState(rng.uniform(-5, 5, 3), rng.uniform(-0.5, 0.5, 3))
        obs = build_observation(drone, moving if rng.integers(2) else pad)
        if obs.shape != (15,) or np.max(np.abs(obs)) > 1.0:
            box_ok = False
            break

    # timeout at exactly 600 steps
    env = LandingEnv(ScenarioSpec(ScenarioKind.SPL), EnvConfig(wind_enabled=False))
    env.reset(0)
    steps = 0
    terminal = Terminal.NONE
    hover = np.zeros(3)
    while terminal is Terminal.NONE:
        out = env.step(hover)
        terminal = out.terminal
        steps += 1
    timeout_ok = steps == 600 and terminal is Terminal.TIMEOUT

    # terminal exclusivity over 1000 random-policy episodes
    exclusive_ok = True
    env = LandingEnv(ScenarioSpec(ScenarioKind.LMPL), EnvConfig())
    act_rng = np.random.default_rng(9)
    for ep in range(1000):
        env.reset(ep)
        while True:
            out = env.step(act_rng.uniform(-1, 1, 3))
            if out.terminal is not Terminal.NONE:
                if out.terminal not in (Terminal.TOUCHDOWN, Terminal.CRASH,
                                        Terminal.OUT_OF_BOUNDS, Terminal.TIMEOUT):
                    exclusive_ok = False
                break

    ok = box_ok and timeout_ok and exclusive_ok
    report("criterion 9 (environment contracts)", ok,
           f"box={box_ok} timeout_steps={steps} exclusivity={exclusive_ok}")
