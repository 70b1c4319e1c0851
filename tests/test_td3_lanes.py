"""Td3Learner.update with its work split over the worker lane equals the sequential update, bit for bit."""

import glob
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import padlander.mlp as mlp
import padlander.td3 as td3
from padlander.td3 import Td3Hyperparams, Td3Learner, TrainingDivergedError

SMALL = dict(hidden_dims=(16, 16), batch_size=8)


def sequential_update(self, batch) -> dict:
    """Td3Learner.update as it ran before the two lanes: every net on the caller's thread."""
    hp = self.hp
    obs, actions, rewards, next_obs, terminals = batch
    b = obs.shape[0]

    noise = self.update_rng.normal(0.0, hp.target_noise_sigma, size=(b, self.action_dim))
    noise = np.clip(noise, -hp.target_noise_clip, hp.target_noise_clip)
    next_actions = np.clip(self.target_actor.forward(next_obs) + noise, -1.0, 1.0)

    next_in = np.concatenate([next_obs, next_actions.astype(np.float32)], axis=1)
    q1_t = self.target_critic1.forward(next_in)[:, 0]
    q2_t = self.target_critic2.forward(next_in)[:, 0]
    y = rewards + hp.discount * (1.0 - terminals) * np.minimum(q1_t, q2_t)

    critic_in = np.concatenate([obs, actions], axis=1)
    diags = {}
    for name, critic, opt in (
        ("critic1", self.critic1, self.critic1_opt),
        ("critic2", self.critic2, self.critic2_opt),
    ):
        q = critic.forward(critic_in)[:, 0]
        err = q - y
        loss = float(np.mean(err**2))
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"{name} loss non-finite at update {self.n_updates}")
        grads, _ = critic.backward((2.0 * err / b)[:, None], need_input_grad=False)
        opt.step(grads)
        diags[f"{name}_loss"] = loss
        diags[f"{name}_q_mean"] = float(np.mean(q))

    self.n_updates += 1
    if self.n_updates % hp.policy_delay == 0:
        pi = self.actor.forward(obs)
        actor_in = np.concatenate([obs, pi.astype(np.float32)], axis=1)
        self.critic1.forward(actor_in)
        up = np.full((b, 1), -1.0 / b, dtype=np.float32)
        _, d_in = self.critic1.backward(up, need_param_grads=False)
        d_action = d_in[:, self.obs_dim :]
        actor_grads, _ = self.actor.backward(d_action, need_input_grad=False)
        self.actor_opt.step(actor_grads)
        diags["actor_loss"] = float(-np.mean(self.critic1._cache[-1]))
        self.target_actor.polyak_from(self.actor, hp.polyak_tau)
        self.target_critic1.polyak_from(self.critic1, hp.polyak_tau)
        self.target_critic2.polyak_from(self.critic2, hp.polyak_tau)
    return diags


def batches(hp: Td3Hyperparams, n: int, seed: int = 1):
    rng = np.random.default_rng(seed)
    b = hp.batch_size
    return [(
        rng.normal(size=(b, td3.OBS_DIM)).astype(np.float32),
        rng.uniform(-1, 1, (b, td3.ACTION_DIM)).astype(np.float32),
        rng.normal(size=b).astype(np.float32),
        rng.normal(size=(b, td3.OBS_DIM)).astype(np.float32),
        (rng.uniform(size=b) < 0.2).astype(np.float32),
    ) for _ in range(n)]


def state_bytes(learner: Td3Learner):
    nets = [getattr(learner, name) for name in td3._NETS]
    opts = [learner.actor_opt, learner.critic1_opt, learner.critic2_opt]
    return ([net.flat.tobytes() for net in nets], [(o.m.tobytes(), o.v.tobytes(), o.t) for o in opts],
            learner.n_updates, learner.update_rng.bit_generator.state)


def call_threads(net, method: str):
    """Record the thread of every call to net.<method>; the float operations are untouched."""
    seen, original = [], getattr(net, method)

    def recording(*args, **kwargs):
        seen.append(threading.get_ident())
        return original(*args, **kwargs)

    setattr(net, method, recording)
    return seen


def assert_lanes_match_sequential(hp: Td3Hyperparams, n: int):
    lanes, reference = Td3Learner(hp, seed=3), Td3Learner(hp, seed=3)
    critic2 = call_threads(lanes.critic2, "forward")
    pi = call_threads(lanes.actor, "forward")  # the update's only actor forward
    actor_grads = call_threads(lanes.actor, "_param_grads")
    for batch in batches(hp, n):
        got, want = lanes.update(batch), sequential_update(reference, batch)
        assert list(got.items()) == list(want.items())
    assert state_bytes(lanes) == state_bytes(reference)
    # critic2, pi and the actor's weight-gradient products ran on the worker lane.
    policy_steps = n // hp.policy_delay
    assert policy_steps and len(critic2) == n
    assert len(pi) == policy_steps and len(actor_grads) == policy_steps * lanes.actor.n_layers
    assert threading.get_ident() not in critic2 + pi + actor_grads


@pytest.fixture
def always_lane(monkeypatch):
    """Every update uses the worker lane, whatever the net size, BLAS threads and CPUs."""
    monkeypatch.setattr(td3, "LANE_MIN_WORK", 0)
    monkeypatch.setattr(td3, "_lane_pays", lambda: True)


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond, so the lanes interleave as finely as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("chunk", [mlp.CHUNK, 64])
@pytest.mark.parametrize("policy_delay", [1, 2, 3])
def test_lanes_equal_sequential_update(always_lane, fast_switching, monkeypatch, policy_delay, chunk):
    # With 64-element chunks the actor's 579 parameters make 10 Adam chunks:
    # 5 on each lane, the worker's last one short.
    monkeypatch.setattr(mlp, "CHUNK", chunk)
    assert_lanes_match_sequential(Td3Hyperparams(**SMALL, policy_delay=policy_delay), 7)


def test_learners_on_three_threads_share_the_worker(always_lane, fast_switching, monkeypatch):
    monkeypatch.setattr(mlp, "CHUNK", 64)  # each actor Adam step puts chunks on both lanes
    results = []

    def run():
        try:
            assert_lanes_match_sequential(Td3Hyperparams(**SMALL), 7)
            results.append(None)
        except Exception as e:  # handed to the test's thread below
            results.append(e)

    callers = [threading.Thread(target=run) for _ in range(3)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=60)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [None] * 3


def test_default_dims_use_the_lane_and_equal_sequential_update(monkeypatch):
    monkeypatch.setattr(td3, "_lane_pays", lambda: True)
    hp = Td3Hyperparams()
    assert hp.batch_size * Td3Learner(hp).critic1.n_params >= td3.LANE_MIN_WORK
    assert_lanes_match_sequential(hp, 4)  # two policy steps


@pytest.mark.parametrize("min_work, pays", [(td3.LANE_MIN_WORK, True), (0, False)])
def test_small_nets_or_no_spare_core_run_inline(monkeypatch, min_work, pays):
    monkeypatch.setattr(td3, "LANE_MIN_WORK", min_work)
    monkeypatch.setattr(td3, "_lane_pays", lambda: pays)
    learner = Td3Learner(Td3Hyperparams(**SMALL, policy_delay=1), seed=3)
    threads = [call_threads(learner.critic2, "forward"), call_threads(learner.actor, "forward"),
               call_threads(learner.actor, "_param_grads")]
    learner.update(batches(learner.hp, 1)[0])
    assert threads == [[threading.get_ident()] * n for n in (1, 1, learner.actor.n_layers)]


LANE_PAYS = """
import os
from padlander import td3
print(td3._lane_pays())
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
print(td3._lane_pays.__wrapped__())
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
                    or not glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"),
                    reason="needs 2 CPUs and the OpenBLAS numpy's wheels bundle")
@pytest.mark.parametrize("blas_threads, pays", [("1", "True"), ("2", "False")])
def test_lane_pays_only_with_one_blas_thread_and_two_cpus(blas_threads, pays):
    src = os.path.dirname(os.path.dirname(td3.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", LANE_PAYS], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == [pays, "False"]


@pytest.mark.parametrize("poisoned, named", [
    (("critic2",), "critic2"),
    (("critic1", "critic2"), "critic1"),
])
def test_divergence_raises_after_both_lanes_with_the_sequential_error(always_lane, poisoned, named):
    hp = Td3Hyperparams(**SMALL, policy_delay=1)
    learner = Td3Learner(hp, seed=3)
    for name in poisoned:
        getattr(learner, name).flat[0] = np.nan
    with pytest.raises(TrainingDivergedError, match=f"^{named} loss non-finite at update 0$"):
        learner.update(batches(hp, 1)[0])
    # Each lane finished before the raise: a finite critic took its step, a diverged one none.
    for name in ("critic1", "critic2"):
        assert getattr(learner, f"{name}_opt").t == (0 if name in poisoned else 1)
    assert learner.n_updates == 0
    # The worker holds no pending work: the next update, on a fresh learner, is the reference's.
    assert_lanes_match_sequential(hp, 1)


def test_weight_gradient_error_raises_after_every_worker_job(always_lane, monkeypatch):
    hp = Td3Hyperparams(**SMALL, policy_delay=1)
    learner = Td3Learner(hp, seed=3)
    submitted, submit = [], td3._submit

    def recording_submit(job):
        submitted.append(submit(job))
        return submitted[-1]

    monkeypatch.setattr(td3, "_submit", recording_submit)
    finished, param_grads = [], learner.actor._param_grads

    def last_layer_fails(i, h, delta):
        if i == learner.actor.n_layers - 1:  # the first job backward() submits
            raise FloatingPointError("weight-gradient job")
        time.sleep(0.05)  # the jobs queued behind it are still running when it fails
        param_grads(i, h, delta)
        finished.append(i)

    learner.actor._param_grads = last_layer_fails
    with pytest.raises(FloatingPointError, match="weight-gradient job"):
        learner.update(batches(hp, 1)[0])
    assert finished == list(range(learner.actor.n_layers - 2, -1, -1))
    assert submitted and all(future.done() for future in submitted)
    # The worker holds no pending work: the next update, on a fresh learner, is the reference's.
    assert_lanes_match_sequential(hp, 1)


def test_lane_is_joined_when_the_caller_raises():
    finished = []

    def slow():
        time.sleep(0.05)
        finished.append(True)

    def fail():
        raise KeyError("caller lane")

    with pytest.raises(KeyError, match="caller lane"):
        td3._both(fail, slow)
    assert finished == [True]
    with pytest.raises(ZeroDivisionError):
        td3._both(lambda: None, lambda: 1 / 0)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_starts_its_own_worker(always_lane):
    td3._both(lambda: None, lambda: None)  # this process's worker is up and idle
    child = multiprocessing.get_context("fork").Process(
        target=assert_lanes_match_sequential, args=(Td3Hyperparams(**SMALL), 2))
    child.start()
    child.join(timeout=30)
    if child.is_alive():  # its lane never ran
        child.kill()
        child.join()
    assert child.exitcode == 0
