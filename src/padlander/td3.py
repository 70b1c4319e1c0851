"""Twin Delayed DDPG on the numpy MLP stack.

Twin critics regress to y = r + discount * (1 - terminal) * min(Q1', Q2')
with target-policy smoothing noise; the actor ascends Q1(s, actor(s)) every
policy_delay updates, after which all three target networks Polyak-average
toward their online twins. Replay is a uniform ring buffer.

Checkpoints are a text header (format version, layer dims, activations,
optimizer flag, RNG state) followed by little-endian float32 arrays in
declaration order.
"""

import json
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from padlander.environment import LandingEnv, Terminal
from padlander.mlp import Adam, Mlp
from padlander.rng import substream

OBS_DIM = 15
ACTION_DIM = 3
HIDDEN = (512, 512, 256, 128)


class TrainingDivergedError(RuntimeError):
    """A loss or parameter went non-finite during training."""


@dataclass
class Td3Hyperparams:
    learning_rate: float = 1e-4
    batch_size: int = 100
    learning_starts: int = 100
    buffer_capacity: int = 1_000_000
    discount: float = 0.99
    polyak_tau: float = 0.005
    policy_delay: int = 2
    target_noise_sigma: float = 0.2
    target_noise_clip: float = 0.5
    exploration_noise_sigma: float = 0.1
    total_steps: int = 300_000
    eval_interval: int = 10_000
    eval_episodes: int = 10
    checkpoint_interval: int = 50_000
    hidden_dims: tuple = HIDDEN

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size <= 0:
            raise ValueError("learning_rate and batch_size must be positive")
        if self.policy_delay < 1:
            raise ValueError("policy_delay must be >= 1")


class ReplayBuffer:
    """Uniform ring buffer of (obs, action, reward, next_obs, terminal)."""

    def __init__(self, capacity: int, obs_dim: int = OBS_DIM, action_dim: int = ACTION_DIM):
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim), dtype=np.float32)
        self.actions = np.zeros((capacity, action_dim), dtype=np.float32)
        self.rewards = np.zeros(capacity, dtype=np.float32)
        self.next_obs = np.zeros((capacity, obs_dim), dtype=np.float32)
        self.terminals = np.zeros(capacity, dtype=np.float32)
        self.cursor = 0
        self.size = 0

    def add(self, obs, action, reward, next_obs, terminal: bool) -> None:
        i = self.cursor
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.terminals[i] = float(terminal)
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        if self.size < batch_size:
            raise ValueError(f"buffer holds {self.size} < batch {batch_size} transitions")
        idx = rng.integers(0, self.size, size=batch_size)
        return (
            self.obs[idx],
            self.actions[idx],
            self.rewards[idx],
            self.next_obs[idx],
            self.terminals[idx],
        )


class Td3Learner:
    def __init__(
        self,
        hp: Optional[Td3Hyperparams] = None,
        seed: int = 0,
        obs_dim: int = OBS_DIM,
        action_dim: int = ACTION_DIM,
        dtype=np.float32,
    ):
        self.hp = hp or Td3Hyperparams()
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.dtype = dtype
        hidden = list(self.hp.hidden_dims)
        init_rng = substream(seed, "net-init")
        self.actor = Mlp([obs_dim] + hidden + [action_dim], "tanh", init_rng, dtype)
        self.critic1 = Mlp([obs_dim + action_dim] + hidden + [1], "linear", init_rng, dtype)
        self.critic2 = Mlp([obs_dim + action_dim] + hidden + [1], "linear", init_rng, dtype)
        self.target_actor = self.actor.copy()
        self.target_critic1 = self.critic1.copy()
        self.target_critic2 = self.critic2.copy()
        lr = self.hp.learning_rate
        self.actor_opt = Adam(self.actor.flat, lr)
        self.critic1_opt = Adam(self.critic1.flat, lr)
        self.critic2_opt = Adam(self.critic2.flat, lr)
        self.update_rng = substream(seed, "td3-update")
        self.n_updates = 0

    # -- acting ----------------------------------------------------------

    def act(self, obs: np.ndarray, noise_sigma: float = 0.0, rng: Optional[np.random.Generator] = None):
        a = self.actor.forward(np.asarray(obs, dtype=self.dtype))
        if noise_sigma > 0.0:
            a = a + rng.normal(0.0, noise_sigma, size=self.action_dim)
        return np.clip(a, -1.0, 1.0)

    # -- learning --------------------------------------------------------

    def update(self, batch) -> dict:
        """One TD3 update from a sampled batch; returns loss diagnostics."""
        hp = self.hp
        obs, actions, rewards, next_obs, terminals = batch
        b = obs.shape[0]

        noise = self.update_rng.normal(0.0, hp.target_noise_sigma, size=(b, self.action_dim))
        noise = np.clip(noise, -hp.target_noise_clip, hp.target_noise_clip)
        next_actions = np.clip(self.target_actor.forward(next_obs) + noise, -1.0, 1.0)

        next_in = np.concatenate([next_obs, next_actions.astype(self.dtype)], axis=1)
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
            actor_in = np.concatenate([obs, pi.astype(self.dtype)], axis=1)
            self.critic1.forward(actor_in)
            # Ascend Q1: minimize -mean(Q1(s, pi(s))). Only dQ1/da is needed.
            up = np.full((b, 1), -1.0 / b, dtype=self.dtype)
            _, d_in = self.critic1.backward(up, need_param_grads=False)
            d_action = d_in[:, self.obs_dim :]
            actor_grads, _ = self.actor.backward(d_action, need_input_grad=False)
            self.actor_opt.step(actor_grads)
            diags["actor_loss"] = float(-np.mean(self.critic1._cache[-1]))
            self.target_actor.polyak_from(self.actor, hp.polyak_tau)
            self.target_critic1.polyak_from(self.critic1, hp.polyak_tau)
            self.target_critic2.polyak_from(self.critic2, hp.polyak_tau)
        return diags


# -- checkpoint format ----------------------------------------------------


def save_checkpoint(path, learner: Td3Learner, with_optimizer: bool = True) -> None:
    nets = [
        ("actor", learner.actor),
        ("critic1", learner.critic1),
        ("critic2", learner.critic2),
        ("target_actor", learner.target_actor),
        ("target_critic1", learner.target_critic1),
        ("target_critic2", learner.target_critic2),
    ]
    opts = [learner.actor_opt, learner.critic1_opt, learner.critic2_opt]
    header = ["padlander-checkpoint v1"]
    header.append("nets " + ",".join(n for n, _ in nets))
    for name, net in nets:
        header.append(f"dims.{name} " + ",".join(str(d) for d in net.layer_dims))
        header.append(f"activation.{name} relu/{net.output_activation}")
    header.append(f"optimizer_state {int(with_optimizer)}")
    header.append("adam_t " + ",".join(str(o.t) for o in opts))
    header.append(f"n_updates {learner.n_updates}")
    header.append("rng " + json.dumps(learner.update_rng.bit_generator.state))
    header.append("---")
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        for _, net in nets:
            f.write(np.ascontiguousarray(net.flat, dtype="<f4").tobytes())
        if with_optimizer:
            for opt in opts:
                f.write(np.ascontiguousarray(opt.m, dtype="<f4").tobytes())
                f.write(np.ascontiguousarray(opt.v, dtype="<f4").tobytes())


class CheckpointFormatError(ValueError):
    pass


def load_checkpoint(path, hp: Optional[Td3Hyperparams] = None) -> Td3Learner:
    with open(path, "rb") as f:
        blob = f.read()
    sep = b"---\n"
    cut = blob.find(sep)
    if cut < 0 or not blob.startswith(b"padlander-checkpoint v1"):
        raise CheckpointFormatError(f"{path}: not a padlander v1 checkpoint")
    try:
        header = blob[:cut].decode("ascii")
    except UnicodeDecodeError as e:
        raise CheckpointFormatError(f"{path}: header is not ASCII (byte {e.start})") from e
    fields = {}
    for line in header.splitlines()[1:]:
        key, _, value = line.partition(" ")
        fields[key] = value

    def need(key: str) -> str:
        if key not in fields:
            raise CheckpointFormatError(f"{path}: header has no {key!r} line")
        return fields[key]

    net_names = need("nets").split(",")
    dims = {n: [int(d) for d in need(f"dims.{n}").split(",")] for n in net_names}
    if "actor" not in dims or "critic1" not in dims:
        raise CheckpointFormatError(f"{path}: header nets {net_names} lack actor or critic1")

    hp = replace(hp or Td3Hyperparams(), hidden_dims=tuple(dims["actor"][1:-1]))
    learner = Td3Learner(hp, seed=0, obs_dim=dims["actor"][0], action_dim=dims["actor"][-1])
    if dims["critic1"][0] != learner.obs_dim + learner.action_dim:
        raise CheckpointFormatError("critic input dim inconsistent with actor dims")

    payload = blob[cut + len(sep) :]
    offset = 0

    def take(shape):
        nonlocal offset
        n = int(np.prod(shape))
        arr = np.frombuffer(payload, dtype="<f4", count=n, offset=offset).reshape(shape).copy()
        offset += 4 * n
        return arr

    nets = [
        learner.actor,
        learner.critic1,
        learner.critic2,
        learner.target_actor,
        learner.target_critic1,
        learner.target_critic2,
    ]
    try:
        for net in nets:
            net.load_flat(take(net.flat.shape))
    except ValueError as e:
        raise CheckpointFormatError(f"{path}: payload shorter than header promises") from e

    opts = [learner.actor_opt, learner.critic1_opt, learner.critic2_opt]
    if need("optimizer_state") == "1":
        try:
            for opt in opts:
                opt.m[:] = take(opt.m.shape)
                opt.v[:] = take(opt.v.shape)
        except ValueError as e:
            raise CheckpointFormatError(f"{path}: optimizer payload truncated") from e
    if offset != len(payload):
        raise CheckpointFormatError(f"{path}: {len(payload) - offset} trailing payload bytes")
    for opt, t in zip(opts, need("adam_t").split(",")):
        opt.t = int(t)
    learner.n_updates = int(need("n_updates"))
    learner.update_rng.bit_generator.state = json.loads(need("rng"))
    return learner


# -- training loop --------------------------------------------------------


@dataclass
class CurvePoint:
    step: int
    mean_reward: float
    mean_ep_len: float
    success_rate: float


@dataclass
class TrainResult:
    learner: Td3Learner
    curve: List[CurvePoint] = field(default_factory=list)
    episodes: int = 0


def evaluate_policy(learner: Td3Learner, env: LandingEnv, seeds) -> CurvePoint:
    """Deterministic evaluation episodes; returns aggregate statistics."""
    rewards, lengths, successes = [], [], 0
    for s in seeds:
        obs = env.reset(int(s))
        total, steps = 0.0, 0
        while True:
            out = env.step(learner.act(obs))
            obs = out.observation
            total += out.reward.total
            steps += 1
            if out.terminal is not Terminal.NONE:
                if out.terminal is Terminal.TOUCHDOWN:
                    successes += 1
                break
        rewards.append(total)
        lengths.append(steps)
    return CurvePoint(0, float(np.mean(rewards)), float(np.mean(lengths)), successes / len(seeds))


def train(
    env_factory: Callable[[], LandingEnv],
    hp: Td3Hyperparams,
    seed: int = 0,
    learner: Optional[Td3Learner] = None,
    checkpoint_sink: Optional[Callable[[int, Td3Learner], None]] = None,
    curve_sink: Optional[Callable[[CurvePoint], None]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> TrainResult:
    """Standard off-policy loop: act with exploration noise, store, update.

    Pass an existing learner to fine-tune it on a new environment. Fully
    seeded: episode seeds, exploration noise and update noise all derive
    from the root seed via named substreams.
    """
    env = env_factory()
    eval_env = env_factory()
    learner = learner or Td3Learner(hp, seed=seed)
    buffer = ReplayBuffer(hp.buffer_capacity, learner.obs_dim, learner.action_dim)
    explore_rng = substream(seed, "exploration")
    episode_rng = substream(seed, "train-episodes")
    eval_rng = substream(seed, "eval-episodes")
    result = TrainResult(learner)

    obs = env.reset(int(episode_rng.integers(2**31 - 1)))
    for step in range(1, hp.total_steps + 1):
        if step <= hp.learning_starts:
            action = explore_rng.uniform(-1.0, 1.0, size=learner.action_dim)
        else:
            action = learner.act(obs, hp.exploration_noise_sigma, explore_rng)
        out = env.step(action)
        # Timeout is a time-limit artifact, not an absorbing state: bootstrap it.
        absorbing = out.terminal in (Terminal.TOUCHDOWN, Terminal.CRASH, Terminal.OUT_OF_BOUNDS)
        buffer.add(obs, action, out.reward.total, out.observation, absorbing)
        obs = out.observation
        if out.terminal is not Terminal.NONE:
            result.episodes += 1
            obs = env.reset(int(episode_rng.integers(2**31 - 1)))

        if step > hp.learning_starts and buffer.size >= hp.batch_size:
            learner.update(buffer.sample(hp.batch_size, learner.update_rng))

        if hp.eval_interval and step % hp.eval_interval == 0:
            point = evaluate_policy(
                learner, eval_env, eval_rng.integers(2**31 - 1, size=hp.eval_episodes)
            )
            point.step = step
            result.curve.append(point)
            if curve_sink:
                curve_sink(point)
            if log:
                log(
                    f"step {step}: mean_reward={point.mean_reward:.3f} "
                    f"mean_ep_len={point.mean_ep_len:.1f} success={point.success_rate:.2f}"
                )
        if checkpoint_sink and hp.checkpoint_interval and step % hp.checkpoint_interval == 0:
            checkpoint_sink(step, learner)
    return result


def write_curve_csv(path, curve: List[CurvePoint]) -> None:
    with open(path, "w") as f:
        f.write("step,mean_reward,mean_ep_len,success_rate\n")
        for p in curve:
            f.write(f"{p.step},{p.mean_reward:.9g},{p.mean_ep_len:.9g},{p.success_rate:.9g}\n")
