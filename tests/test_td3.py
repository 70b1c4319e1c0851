import numpy as np
import pytest

from padlander.environment import EnvConfig, LandingEnv
from padlander.scenario import ScenarioKind, ScenarioSpec
from padlander.td3 import (
    HIDDEN,
    CheckpointFormatError,
    ReplayBuffer,
    Td3Hyperparams,
    Td3Learner,
    load_checkpoint,
    save_checkpoint,
    train,
)

SMALL = dict(hidden_dims=(16, 16))


class TestReplayBuffer:
    def test_ring_eviction(self):
        buf = ReplayBuffer(capacity=10, obs_dim=2, action_dim=1)
        for i in range(13):
            buf.add([i, i], [0.0], float(i), [i, i], False)
        assert buf.size == 10
        # oldest 3 gone: stored rewards are 3..12
        assert sorted(buf.rewards.tolist()) == [float(i) for i in range(3, 13)]

    def test_sample_only_filled_region(self):
        buf = ReplayBuffer(capacity=100, obs_dim=2, action_dim=1)
        for i in range(5):
            buf.add([1, 1], [0.5], 1.0, [2, 2], False)
        rng = np.random.default_rng(0)
        obs, act, rew, nxt, term = buf.sample(5, rng)
        assert np.all(rew == 1.0)
        with pytest.raises(ValueError):
            buf.sample(6, rng)


class TestUpdate:
    def make_batch(self, learner, rng, terminals=False):
        b = learner.hp.batch_size
        return (
            rng.normal(size=(b, learner.obs_dim)).astype(np.float32),
            rng.uniform(-1, 1, (b, learner.action_dim)).astype(np.float32),
            rng.normal(size=b).astype(np.float32),
            rng.normal(size=(b, learner.obs_dim)).astype(np.float32),
            np.full(b, float(terminals), dtype=np.float32),
        )

    def test_terminal_transitions_do_not_bootstrap(self):
        hp = Td3Hyperparams(**SMALL, batch_size=8)
        learner = Td3Learner(hp, seed=0)
        rng = np.random.default_rng(1)
        obs, act, rew, nxt, term = self.make_batch(learner, rng, terminals=True)
        # with terminal=1 the TD target is exactly r: train critics long
        # enough on one fixed batch and they regress to the rewards
        batch = (obs, act, rew, nxt, term)
        hp.learning_rate = 1e-3
        learner = Td3Learner(hp, seed=0)
        for _ in range(500):
            learner.update(batch)
        q = learner.critic1.forward(np.concatenate([obs, act], axis=1))[:, 0]
        assert np.max(np.abs(q - rew)) < 0.05

    def test_twin_min_is_symmetric(self):
        hp = Td3Hyperparams(**SMALL, batch_size=4, target_noise_sigma=0.0)
        learner = Td3Learner(hp, seed=3)
        rng = np.random.default_rng(2)
        obs, act, rew, nxt, term = self.make_batch(learner, rng)
        nxt_a = learner.target_actor.forward(nxt)
        nxt_in = np.concatenate([nxt, nxt_a], axis=1)
        q1 = learner.target_critic1.forward(nxt_in)[:, 0]
        q2 = learner.target_critic2.forward(nxt_in)[:, 0]
        y_12 = rew + hp.discount * (1 - term) * np.minimum(q1, q2)
        y_21 = rew + hp.discount * (1 - term) * np.minimum(q2, q1)
        assert np.array_equal(y_12, y_21)

    def test_identical_twins_degenerate_min(self):
        hp = Td3Hyperparams(**SMALL)
        learner = Td3Learner(hp, seed=4)
        learner.critic2.load_flat(learner.critic1.flat)
        x = np.random.default_rng(5).normal(size=(3, 18)).astype(np.float32)
        assert np.array_equal(learner.critic1.forward(x), learner.critic2.forward(x))

    def test_bandit_fixed_point(self):
        # 1-state 1-action bandit, reward 1, discount 0: Q* = 1 exactly.
        hp = Td3Hyperparams(
            hidden_dims=(32, 32), batch_size=16, discount=0.0, learning_rate=3e-3
        )
        learner = Td3Learner(hp, seed=6, obs_dim=1, action_dim=1)
        obs = np.zeros((16, 1), dtype=np.float32)
        act = np.zeros((16, 1), dtype=np.float32)
        rew = np.ones(16, dtype=np.float32)
        term = np.zeros(16, dtype=np.float32)
        batch = (obs, act, rew, obs, term)
        for i in range(2000):
            learner.update(batch)
        q1 = learner.critic1.forward(np.zeros((1, 2), dtype=np.float32))[0, 0]
        q2 = learner.critic2.forward(np.zeros((1, 2), dtype=np.float32))[0, 0]
        assert abs(q1 - 1.0) <= 0.01
        assert abs(q2 - 1.0) <= 0.01

    def test_action_bounds_with_noise(self):
        hp = Td3Hyperparams(**SMALL)
        learner = Td3Learner(hp, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = learner.act(rng.normal(size=15), noise_sigma=0.5, rng=rng)
            assert np.all(a >= -1.0) and np.all(a <= 1.0)

    def test_polyak_drift_after_update(self):
        hp = Td3Hyperparams(**SMALL, policy_delay=1)
        learner = Td3Learner(hp, seed=9)
        rng = np.random.default_rng(10)
        before = learner.target_critic1.flat.copy()
        online_before = learner.critic1.flat.copy()
        batch = self.make_batch(learner, rng)
        learner.update(batch)
        # target moved strictly toward the online net, by a tau-sized amount
        drift = np.linalg.norm(learner.target_critic1.flat - before)
        assert 0.0 < drift < 0.01 * np.linalg.norm(online_before)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        hp = Td3Hyperparams(**SMALL, batch_size=4)
        learner = Td3Learner(hp, seed=11)
        rng = np.random.default_rng(12)
        batch = TestUpdate().make_batch(learner, rng)
        for _ in range(5):
            learner.update(batch)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, learner)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.actor.flat, learner.actor.flat)
        assert np.array_equal(loaded.target_critic2.flat, learner.target_critic2.flat)
        assert np.array_equal(loaded.critic1_opt.m, learner.critic1_opt.m)
        assert loaded.n_updates == learner.n_updates
        assert loaded.update_rng.bit_generator.state == learner.update_rng.bit_generator.state
        # the loaded learner continues identically
        d1 = learner.update(batch)
        d2 = loaded.update(batch)
        assert d1 == d2

    def test_corrupt_payload_rejected(self, tmp_path):
        hp = Td3Hyperparams(**SMALL)
        learner = Td3Learner(hp, seed=13)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, learner)
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])  # truncate payload
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_load_leaves_caller_hyperparams_alone(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, Td3Learner(Td3Hyperparams(**SMALL), seed=14))
        hp = Td3Hyperparams()
        loaded = load_checkpoint(path, hp)
        assert loaded.hp.hidden_dims == SMALL["hidden_dims"]
        assert hp.hidden_dims == HIDDEN

    def test_missing_header_key_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, Td3Learner(Td3Hyperparams(**SMALL), seed=15))
        blob = path.read_bytes()
        start = blob.index(b"\nn_updates ")
        path.write_bytes(blob[:start] + blob[blob.index(b"\n", start + 1) :])
        with pytest.raises(CheckpointFormatError, match="n_updates"):
            load_checkpoint(path)

    def test_non_ascii_header_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, Td3Learner(Td3Hyperparams(**SMALL), seed=16))
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"nets actor", b"nets \xe9ctor", 1))
        with pytest.raises(CheckpointFormatError, match="ASCII"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint\n---\n")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


class TestTrainLoop:
    def factory(self):
        return LandingEnv(ScenarioSpec(ScenarioKind.SPL), EnvConfig())

    def smoke_hp(self, steps=800):
        return Td3Hyperparams(
            **SMALL,
            batch_size=16,
            total_steps=steps,
            eval_interval=400,
            eval_episodes=2,
            checkpoint_interval=0,
            buffer_capacity=5000,
        )

    def test_seeded_smoke_run_is_deterministic(self):
        r1 = train(self.factory, self.smoke_hp(), seed=21)
        r2 = train(self.factory, self.smoke_hp(), seed=21)
        assert len(r1.curve) == len(r2.curve) == 2
        for a, b in zip(r1.curve, r2.curve):
            assert a.step == b.step
            assert a.mean_reward == b.mean_reward
            assert a.mean_ep_len == b.mean_ep_len
            assert a.success_rate == b.success_rate
        assert np.array_equal(r1.learner.actor.flat, r2.learner.actor.flat)

    def test_different_seeds_differ(self):
        r1 = train(self.factory, self.smoke_hp(400), seed=1)
        r2 = train(self.factory, self.smoke_hp(400), seed=2)
        assert not np.array_equal(r1.learner.actor.flat, r2.learner.actor.flat)

    def test_parameters_stay_finite(self):
        r = train(self.factory, self.smoke_hp(600), seed=33)
        assert r.learner.actor.all_finite()
        assert r.learner.critic1.all_finite()
        assert r.learner.critic2.all_finite()
