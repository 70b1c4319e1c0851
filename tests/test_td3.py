import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlander.environment import EnvConfig, LandingEnv
from padlander.scenario import ScenarioKind, ScenarioSpec
from padlander.td3 import (
    HIDDEN,
    CheckpointFormatError,
    ReplayBuffer,
    Td3Hyperparams,
    Td3Learner,
    load_checkpoint,
    _layout,
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
        assert sorted(buf.rows[:, buf.fields[2]].tolist()) == [float(i) for i in range(3, 13)]

    def test_sample_only_filled_region(self):
        buf = ReplayBuffer(capacity=100, obs_dim=2, action_dim=1)
        for i in range(5):
            buf.add([1, 1], [0.5], 1.0, [2, 2], False)
        rng = np.random.default_rng(0)
        obs, act, rew, nxt, term = buf.sample(5, rng)
        assert np.all(rew == 1.0)
        with pytest.raises(ValueError):
            buf.sample(6, rng)

    def test_sample_gives_each_field_as_added(self):
        buf = ReplayBuffer(capacity=20, obs_dim=3, action_dim=2)
        added = [(np.arange(3) + i, [-i, 0.5 * i], i / 7, np.arange(3) - i, i % 3 == 0) for i in range(12)]
        for transition in added:
            buf.add(*transition)
        idx = np.random.default_rng(4).integers(0, 12, size=8)
        batch = buf.sample(8, np.random.default_rng(4))
        assert [field.shape for field in batch] == [(8, 3), (8, 2), (8,), (8, 3), (8,)]
        for field, column in zip(batch, zip(*added)):
            expected = np.array([column[i] for i in idx], dtype=np.float32)
            assert field.dtype == np.float32 and field.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("field", range(4))
    def test_add_rejects_a_field_of_the_wrong_shape(self, field):
        buf = ReplayBuffer(capacity=4, obs_dim=3, action_dim=2)
        transition = [np.zeros(3), np.zeros(2), 0.0, np.zeros(3), False]
        transition[field] = np.zeros(4)
        with pytest.raises(ValueError):
            buf.add(*transition)
        assert buf.size == 0 and buf.cursor == 0


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
        hp = replace(hp, learning_rate=1e-3)
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
        learner.critic2.flat[:] = learner.critic1.flat
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

    @pytest.mark.parametrize("change", [-100, -1, 1, 4],
                             ids=["truncated", "one-byte-short", "one-byte-long", "one-float-long"])
    def test_corrupt_payload_rejected(self, tmp_path, change):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, Td3Learner(Td3Hyperparams(**SMALL), seed=13))
        blob = path.read_bytes()
        promised = len(blob) - blob.index(b"\n---\n") - len(b"\n---\n")
        path.write_bytes(blob[:change] if change < 0 else blob + bytes(change))
        with pytest.raises(CheckpointFormatError,
                           match=f"payload is {promised + change} bytes, header promises {promised}$"):
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

    @pytest.mark.parametrize("key, bad", [
        ("dims.actor", b"15,x16,3"),
        ("dims.critic2", b""),
        ("adam_t", b"1,2"),
        ("adam_t", b"1,two,3"),
        ("n_updates", b"1e3"),
        ("rng", b"{not json"),
        ("rng", b"[1, 2]"),
        ("rng", b'{"bit_generator": "PCG64"}'),
    ])
    def test_malformed_header_number_named(self, tmp_path, key, bad):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, Td3Learner(Td3Hyperparams(**SMALL), seed=17))
        blob = path.read_bytes()
        start = blob.index(b"\n" + key.encode() + b" ") + len(key) + 2
        path.write_bytes(blob[:start] + bad + blob[blob.index(b"\n", start) :])
        with pytest.raises(CheckpointFormatError, match=f"malformed '{key}'"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint\n---\n")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    # Header lines of a hidden_dims (16, 16) checkpoint, each with a value the
    # writer would not write, and the key the error must name. The loader
    # rebuilds the learner from dims.actor, so a well-formed but different
    # dims.actor is named by the first line that disagrees with it.
    @pytest.mark.parametrize("line, bad, named", [
        ("padlander-checkpoint v1", "padlander-checkpoint v17", "not a padlander v1 checkpoint"),
        ("nets actor,critic1,critic2,target_actor,target_critic1,target_critic2",
         "nets critic1,actor,critic2,target_actor,target_critic1,target_critic2", "malformed 'nets'"),
        ("dims.actor 15,16,16,3", "dims.actor 15,16,0,3", "malformed 'dims.actor'"),
        ("dims.actor 15,16,16,3", "dims.actor 15,16,16,3,", "malformed 'dims.actor'"),
        ("dims.actor 15,16,16,3", "dims.actor 15,16,17,3", "malformed 'dims.critic1'"),
        # More actor parameters than the whole payload holds: refused before allocating.
        ("dims.actor 15,16,16,3", "dims.actor 15,1000,1000,3", "malformed 'dims.actor'"),
        ("activation.actor relu/tanh", "activation.actor relu/linear", "malformed 'activation.actor'"),
        ("dims.critic1 18,16,16,1", "dims.critic1 18,16,16,2", "malformed 'dims.critic1'"),
        ("activation.critic1 relu/linear", "activation.critic1 relu/tanh", "malformed 'activation.critic1'"),
        ("dims.critic2 18,16,16,1", "dims.critic2 18,16,17,1", "malformed 'dims.critic2'"),
        ("activation.critic2 relu/linear", "activation.critic2 sigmoid", "malformed 'activation.critic2'"),
        ("dims.target_actor 15,16,16,3", "dims.target_actor 15,16,16,4", "malformed 'dims.target_actor'"),
        ("activation.target_actor relu/tanh", "activation.target_actor relu/linear",
         "malformed 'activation.target_actor'"),
        ("dims.target_critic1 18,16,16,1", "dims.target_critic1 18,8,1", "malformed 'dims.target_critic1'"),
        ("activation.target_critic1 relu/linear", "activation.target_critic1 relu/tanh",
         "malformed 'activation.target_critic1'"),
        ("dims.target_critic2 18,16,16,1", "dims.target_critic2  18,16,16,1", "malformed 'dims.target_critic2'"),
        ("activation.target_critic2 relu/linear", "activation.target_critic2 relu/tanh",
         "malformed 'activation.target_critic2'"),
        ("optimizer_state 1", "optimizer_state 2", "malformed 'optimizer_state'"),
        # Nets without Adam moments: no writer makes this form, so it is refused.
        ("optimizer_state 1", "optimizer_state 0", "malformed 'optimizer_state'"),
        ("n_updates 0", "n_updates -7", "malformed 'n_updates'"),
        ("n_updates 0", "n_updates +0", "malformed 'n_updates'"),
        ("adam_t 0,0,0", "adam_t -1,0,0", "malformed 'adam_t'"),
        ("adam_t 0,0,0", "adam_t 0, 0,0", "malformed 'adam_t'"),
    ])
    def test_header_must_be_what_the_writer_writes(self, tmp_path, line, bad, named):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, Td3Learner(Td3Hyperparams(**SMALL), seed=17))
        blob = path.read_bytes()
        old = line.encode() + b"\n"
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, bad.encode() + b"\n"))
        with pytest.raises(CheckpointFormatError, match=named):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, first_bad", [("repeat", 4), ("swap", 3)])
    def test_header_lines_in_writer_order_only(self, tmp_path, edit, first_bad):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, Td3Learner(Td3Hyperparams(**SMALL), seed=20))
        blob = path.read_bytes()
        cut = blob.index(b"\n---\n")
        lines = blob[:cut].split(b"\n")
        if edit == "repeat":
            lines.insert(3, lines[2])
        else:
            lines[2], lines[3] = lines[3], lines[2]
        path.write_bytes(b"\n".join(lines) + blob[cut:])
        with pytest.raises(CheckpointFormatError, match=f"header line {first_bad}:"):
            load_checkpoint(path)

    @settings(max_examples=25, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 8), min_size=1, max_size=3),
        obs_dim=st.integers(1, 4),
        action_dim=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_is_bit_exact_for_any_architecture(self, hidden, obs_dim, action_dim, seed):
        learner = Td3Learner(Td3Hyperparams(hidden_dims=tuple(hidden)), seed=seed,
                             obs_dim=obs_dim, action_dim=action_dim)
        fill = np.random.default_rng(seed)
        _, arrays, opts = _layout(learner)
        for a in arrays:  # every float32 bit pattern, NaNs included
            a[:] = fill.integers(0, 2**32, a.size, dtype=np.uint32).view(np.float32)
        for opt in opts:
            opt.t = int(fill.integers(0, 10**9))
        learner.n_updates = int(fill.integers(0, 10**9))
        learner.update_rng.random(int(fill.integers(0, 5)))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "ckpt.bin"
            save_checkpoint(path, learner)
            loaded = load_checkpoint(path)
        _, loaded_arrays, loaded_opts = _layout(loaded)
        for a, b in zip(arrays, loaded_arrays, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert [opt.t for opt in loaded_opts] == [opt.t for opt in opts]
        assert loaded.n_updates == learner.n_updates
        assert loaded.update_rng.bit_generator.state == learner.update_rng.bit_generator.state


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
        assert np.isfinite(r.learner.actor.flat).all()
        assert np.isfinite(r.learner.critic1.flat).all()
        assert np.isfinite(r.learner.critic2.flat).all()
