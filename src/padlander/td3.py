"""Twin Delayed DDPG on the numpy MLP stack.

Twin critics regress to y = r + discount * (1 - terminal) * min(Q1', Q2')
with target-policy smoothing noise; the actor ascends Q1(s, actor(s)) every
policy_delay updates, after which all three target networks Polyak-average
toward their online twins. Replay is a uniform ring buffer.

An update runs in two lanes: the caller's thread and one long-lived worker
thread. The caller draws the target noise (the update's only RNG use) and
owns the target actor's forward, target_critic1 and critic1's forward and
backward. The worker owns the target_critic2 forward and critic2's forward
and backward, and runs beside the target actor the forward that needs no
target value: critic2's on a plain update, pi = actor(obs) on a policy
update (the actor steps only after the critics). Each Adam step given both
lanes lets them claim its chunks from one counter, so the worker steps
critic1's chunks left over once critic2's work is done. A plain update
steps critic2 on the worker in the critic stage. A policy update fuses each
target's Polyak update into its online net's Adam step (a target is not
read after the target stage) and leaves critic2's step for the actor
phase, where it is the worker's first job, ahead of each actor layer's
weight-gradient product and bias sum, which the worker takes as soon as the
caller's delta chain has that layer's delta. The lanes join at the end of each stage (the first
forwards, the target critics' forwards, the critic steps, the actor's
backward pass, its Adam step, the policy update), also when a lane raises.
Neither lane reads a buffer the other writes between two joins, each net
and each lane of an Adam step keeps its own scratch buffers, the worker
runs its jobs in the order they were queued, and each element sees its
float operations in the sequential order, so every output byte of an
update that returns equals the one-thread update's. The worker is used
only when it has a core to itself (see _lane_pays) and the critic work
reaches LANE_MIN_WORK; otherwise the same functions run one after the
other on the caller's thread, in the sequential order.

A diverged critic is reported only after both lanes finish the critic
stage, critic1 before critic2, with the error the one-thread update raised.
By then a finite critic1 has taken its step (on a policy update with
target_critic1's Polyak update fused in), and a finite critic2 has taken
its step on a plain update but not on a policy update. The one-thread
update raised before critic2's step when critic1 diverged, and before any
Polyak update, so a learner that raised TrainingDivergedError is not the
one-thread update's and must not be checkpointed or trained further.

Checkpoints are an ASCII text header (format version, layer dims,
activations, optimizer flag, Adam step counts, update count, RNG state)
ended by a `---` line, then little-endian float32 arrays: the six nets'
parameters, then each Adam's m and v. `_layout` is the one definition of
that layout, and the writer and the loader both follow it.

The loader accepts exactly what the writer writes. It rebuilds the learner
from `dims.actor`, sets the counters and RNG state from their lines, and
then requires the file's header to equal, line for line, the header the
writer would write for that learner; the error names the key of the first
line that differs.
"""

import functools
import json
import os
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import Callable, List, Optional

import numpy as np

from padlander.environment import OBS_BOUNDS, LandingEnv, StepOutcome, Terminal
from padlander.mlp import Adam, Mlp
from padlander.records import check_settings, is_int
from padlander.rng import substream

OBS_DIM = len(OBS_BOUNDS)
ACTION_DIM = 3
HIDDEN = (512, 512, 256, 128)
# Critic work per update, batch_size * critic.n_params, from which the update
# runs its critic2 lane on a worker thread. Small nets run inline below it:
# demo 04's (64, 64) critics at batch 100 (0.54M) read the lane 1.91-2.48x
# slower than inline on 2 vCPUs, while the benchmark runs the default dims
# (43.7M). pytest pins no BLAS thread count, so with OpenBLAS at one thread
# per core _lane_pays() is false there and this threshold does not set test
# time. The crossover is unresolved between 7M and 11M (table in CHANGES.md).
# Not a setting.
LANE_MIN_WORK = 1 << 23
_worker = None  # the one worker thread's executor, started on first use


class TrainingDivergedError(RuntimeError):
    """A loss or parameter went non-finite during training.

    The learner that raised it is left part-way through an update: do not
    checkpoint it or train it further.
    """


@dataclass(frozen=True)
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
        # Run lengths: an interval of 0 turns evaluation or checkpoints off, and
        # train() divides by eval_episodes after each evaluation.
        check_settings(self, positive=("learning_rate", "batch_size"),
                       at_least_one=("policy_delay", "total_steps", "eval_episodes"),
                       unit=("discount",), positive_unit=("polyak_tau",),
                       non_negative=("target_noise_sigma", "target_noise_clip", "exploration_noise_sigma",
                                     "learning_starts", "eval_interval", "checkpoint_interval"))
        if not self.buffer_capacity >= self.batch_size:
            raise ValueError(f"buffer_capacity {self.buffer_capacity} is below batch_size {self.batch_size}")
        if not isinstance(self.hidden_dims, tuple) or not all(is_int(d) and d >= 1 for d in self.hidden_dims):
            raise ValueError(f"hidden_dims must be a tuple of integers >= 1, got {self.hidden_dims!r}")


class ReplayBuffer:
    """Uniform ring buffer of (obs, action, reward, next_obs, terminal), one float32 row per transition.

    `fields` holds each field's columns in that order: a slice for obs,
    action and next_obs, a column index for reward and terminal, so a
    sampled reward or terminal column is 1-D.
    """

    def __init__(self, capacity: int, obs_dim: int = OBS_DIM, action_dim: int = ACTION_DIM):
        self.capacity = capacity
        reward = obs_dim + action_dim
        terminal = reward + 1 + obs_dim
        self.fields = (slice(0, obs_dim), slice(obs_dim, reward), reward, slice(reward + 1, terminal), terminal)
        self.rows = np.zeros((capacity, terminal + 1), dtype=np.float32)
        self.cursor = 0
        self.size = 0

    def add(self, obs, action, reward, next_obs, terminal: bool) -> None:
        row = self.rows[self.cursor]
        for cols, value in zip(self.fields, (obs, action, reward, next_obs, float(terminal))):
            row[cols] = value
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """batch_size rows drawn uniformly from the filled ones, as column views of one gathered block."""
        if self.size < batch_size:
            raise ValueError(f"buffer holds {self.size} < batch {batch_size} transitions")
        rows = self.rows[rng.integers(0, self.size, size=batch_size)]
        return tuple(rows[:, cols] for cols in self.fields)


class Td3Learner:
    def __init__(
        self,
        hp: Optional[Td3Hyperparams] = None,
        seed: int = 0,
        obs_dim: int = OBS_DIM,
        action_dim: int = ACTION_DIM,
    ):
        self.hp = hp or Td3Hyperparams()
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        hidden = list(self.hp.hidden_dims)
        init_rng = substream(seed, "net-init")
        self.actor = Mlp([obs_dim] + hidden + [action_dim], "tanh", init_rng)
        self.critic1 = Mlp([obs_dim + action_dim] + hidden + [1], "linear", init_rng)
        self.critic2 = Mlp([obs_dim + action_dim] + hidden + [1], "linear", init_rng)
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
        a = self.actor.forward(np.asarray(obs, dtype=np.float32))
        if noise_sigma > 0.0:
            a = a + rng.normal(0.0, noise_sigma, size=self.action_dim)
        return np.clip(a, -1.0, 1.0)

    # -- learning --------------------------------------------------------

    def update(self, batch) -> dict:
        """One TD3 update from a sampled batch; returns loss diagnostics."""
        hp = self.hp
        obs, actions, rewards, next_obs, terminals = batch
        b = obs.shape[0]
        lanes = b * self.critic1.n_params >= LANE_MIN_WORK and _lane_pays()
        both, submit = (_both, _submit) if lanes else (_inline, None)
        policy_step = (self.n_updates + 1) % hp.policy_delay == 0

        noise = self.update_rng.normal(0.0, hp.target_noise_sigma, size=(b, self.action_dim))
        noise = np.clip(noise, -hp.target_noise_clip, hp.target_noise_clip)
        critic_in = np.concatenate([obs, actions], axis=1)
        # Beside the target actor runs a forward that needs no target value:
        # pi on a policy update (the actor steps only after the critics), else critic2's.
        early = (lambda: self.actor.forward(obs)) if policy_step else (lambda: self.critic2.forward(critic_in)[:, 0])
        next_pi, pi_or_q2 = both(lambda: self.target_actor.forward(next_obs), early)
        next_actions = np.clip(next_pi + noise, -1.0, 1.0)

        next_in = np.concatenate([next_obs, next_actions.astype(np.float32)], axis=1)
        q1_t, q2_t = both(lambda: self.target_critic1.forward(next_in)[:, 0],
                          lambda: self.target_critic2.forward(next_in)[:, 0])
        y = rewards + hp.discount * (1.0 - terminals) * np.minimum(q1_t, q2_t)

        def critic1_lane():
            q = self.critic1.forward(critic_in)[:, 0]
            loss, grads = _critic_grads(self.critic1, q, y)
            if grads is not None:  # target_critic1 is not read again in this update
                self.critic1_opt.step(grads, self.target_critic1 if policy_step else None, hp.polyak_tau, both)
            return loss, q

        def critic2_lane():
            q = self.critic2.forward(critic_in)[:, 0] if policy_step else pi_or_q2
            loss, grads = _critic_grads(self.critic2, q, y)
            if grads is not None and not policy_step:  # a policy update steps critic2 in its actor phase
                self.critic2_opt.step(grads)
            return loss, q, grads

        (loss1, q1), (loss2, q2, grads2) = both(critic1_lane, critic2_lane)
        diags = {}
        for name, loss, q in (("critic1", loss1, q1), ("critic2", loss2, q2)):
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"{name} loss non-finite at update {self.n_updates}")
            diags[f"{name}_loss"] = loss
            diags[f"{name}_q_mean"] = float(np.mean(q))

        self.n_updates += 1
        if policy_step:

            def actor_lane():
                actor_in = np.concatenate([obs, pi_or_q2.astype(np.float32)], axis=1)
                self.critic1.forward(actor_in)
                # Ascend Q1: minimize -mean(Q1(s, pi(s))). Only dQ1/da is needed.
                up = np.full((b, 1), -1.0 / b, dtype=np.float32)
                _, d_in = self.critic1.backward(up, need_param_grads=False)
                d_action = d_in[:, self.obs_dim :]
                actor_grads, _ = self.actor.backward(d_action, need_input_grad=False, submit=submit)
                self.actor_opt.step(actor_grads, self.target_actor, hp.polyak_tau, both)
                diags["actor_loss"] = float(-np.mean(self.critic1._cache[-1]))

            # critic2's step fills the worker's wait for the actor's first delta; the actor step never reads critic2.
            both(actor_lane, lambda: self.critic2_opt.step(grads2, self.target_critic2, hp.polyak_tau))
        return diags


def _critic_grads(critic: Mlp, q, y):
    """critic's squared-error loss against y and its gradients, from the forward() that gave q.

    A non-finite loss returns no gradients, for the caller to raise once
    both lanes have finished.
    """
    err = q - y
    loss = float(np.mean(err**2))
    if not np.isfinite(loss):
        return loss, None
    grads, _ = critic.backward((2.0 * err / err.shape[0])[:, None], need_input_grad=False)
    return loss, grads


@functools.cache
def _lane_pays() -> bool:
    """Whether the worker lane has a core to itself; read once per process.

    It has one when this process may run on two or more CPUs and numpy's BLAS
    runs each call on one thread. At the default dims on 2 vCPUs an update
    took 18.1 ms with the lane against 28.3 ms without when OpenBLAS ran one
    thread, 28.3 against 22.4 ms when it ran two (BLAS already used both
    cores), and on one CPU 22-29 against 21-26 ms. The thread count is read
    from the OpenBLAS in `numpy.libs`, where numpy's wheels bundle it; a BLAS
    it cannot read counts as threaded.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    if len(cpus) < 2:
        return False
    import ctypes  # here, not at import: only large nets need it
    import glob

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)  # the copy numpy loaded, not a second one
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)() == 1
    return False


def _inline(mine, theirs):
    """Both lanes' work on this thread, in the sequential order."""
    return mine(), theirs()


def _forget_worker():
    """In a forked child: the executor came without its thread and would never
    start one, so the child's first lane starts its own."""
    global _worker
    _worker = None


def _submit(job):
    """Queue job() on the worker thread; returns its Future. The worker runs jobs in submission order."""
    global _worker
    if _worker is None:  # started on first use: the import alone costs ~13 ms
        from concurrent.futures import ThreadPoolExecutor

        _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="td3-lane")
        os.register_at_fork(after_in_child=_forget_worker)
    return _worker.submit(job)


def _both(mine, theirs):
    """theirs() on the worker thread while this thread runs mine(); returns both results.

    Joins before returning, also when mine() raises; an error in theirs() is
    raised here. mine() may submit more work: it queues behind theirs().
    """
    future = _submit(theirs)
    try:
        result = mine()
    finally:
        future.exception()  # waits for theirs() without raising its error
    return result, future.result()


# -- checkpoint format ----------------------------------------------------

_MAGIC = "padlander-checkpoint v1"
_HEADER_END = b"\n---\n"
# The learner's nets in payload order; the first three are online and each has an Adam.
_NETS = ("actor", "critic1", "critic2", "target_actor", "target_critic1", "target_critic2")


class CheckpointFormatError(ValueError):
    pass


def _layout(learner: Td3Learner):
    """The checkpoint layout for this learner, each part in file order.

    Returns the header lines the writer writes (format version, `nets`,
    `dims.<net>` and `activation.<net>` for each net, then the optimizer
    flag, Adam step counts, update count and RNG state), every payload
    array (the six nets' flat parameters, then each Adam's m and v), and
    the three Adams.
    """
    nets = {name: getattr(learner, name) for name in _NETS}
    opts = [getattr(learner, f"{name}_opt") for name in _NETS[:3]]
    header = [_MAGIC, "nets " + ",".join(nets)]
    for name, net in nets.items():
        header.append(f"dims.{name} " + ",".join(str(d) for d in net.layer_dims))
        header.append(f"activation.{name} relu/{net.output_activation}")
    header += [
        "optimizer_state 1",
        "adam_t " + ",".join(str(opt.t) for opt in opts),
        f"n_updates {learner.n_updates}",
        "rng " + json.dumps(learner.update_rng.bit_generator.state),
    ]
    arrays = [net.flat for net in nets.values()] + [a for opt in opts for a in (opt.m, opt.v)]
    return header, arrays, opts


def save_checkpoint(path, learner: Td3Learner) -> None:
    header, arrays, _ = _layout(learner)
    with open(path, "wb") as f:
        f.write("\n".join(header).encode("ascii") + _HEADER_END)
        for a in arrays:
            f.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def _count(text: str) -> int:
    """A non-negative integer. The header comparison refuses any spelling the writer would not print."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def load_checkpoint(path, hp: Optional[Td3Hyperparams] = None) -> Td3Learner:
    with open(path, "rb") as f:
        blob = f.read()
    cut = blob.find(_HEADER_END)
    if cut < 0 or not blob.startswith(_MAGIC.encode() + b"\n"):
        raise CheckpointFormatError(f"{path}: not a padlander v1 checkpoint (first line must be {_MAGIC!r})")
    try:
        lines = blob[:cut].decode("ascii").split("\n")
    except UnicodeDecodeError as e:
        raise CheckpointFormatError(f"{path}: header is not ASCII (byte {e.start})") from e
    fields = dict(line.partition(" ")[::2] for line in lines[1:])
    payload = blob[cut + len(_HEADER_END) :]

    def need(key: str, parse):
        if key not in fields:
            raise CheckpointFormatError(f"{path}: header has no {key!r} line")
        try:
            return parse(fields[key])
        except (ValueError, TypeError, KeyError) as e:
            raise CheckpointFormatError(f"{path}: malformed {key!r} value {fields[key]!r}") from e

    def build(text: str) -> Td3Learner:
        dims = [int(d) for d in text.split(",")]
        # Refuse dims whose actor alone outgrows the payload before allocating it.
        if min(dims) < 1 or 4 * sum(i * o + o for i, o in zip(dims[:-1], dims[1:])) > len(payload):
            raise ValueError(text)
        learner_hp = replace(hp or Td3Hyperparams(), hidden_dims=tuple(dims[1:-1]))
        return Td3Learner(learner_hp, seed=0, obs_dim=dims[0], action_dim=dims[-1])

    learner = need("dims.actor", build)
    _, arrays, opts = _layout(learner)
    # A wrong count of adam_t values leaves a line the header comparison below refuses.
    for opt, t in zip(opts, need("adam_t", lambda text: [_count(v) for v in text.split(",")])):
        opt.t = t
    learner.n_updates = need("n_updates", _count)
    need("rng", lambda text: setattr(learner.update_rng.bit_generator, "state", json.loads(text)))
    # The writer's header for this learner must be the file's, line for line.
    for n, (got, want) in enumerate(zip_longest(lines, _layout(learner)[0]), 1):
        if got != want:
            key = (want or got).partition(" ")[0]
            raise CheckpointFormatError(f"{path}: malformed {key!r} value in header line {n}: "
                                        f"{got!r}, expected {want!r}")

    expected = 4 * sum(a.size for a in arrays)
    if len(payload) != expected:
        raise CheckpointFormatError(f"{path}: payload is {len(payload)} bytes, header promises {expected}")
    values = np.frombuffer(payload, dtype="<f4")
    offset = 0
    for a in arrays:
        a[:] = values[offset : offset + a.size]
        offset += a.size
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


def run_agent_episode(learner: Td3Learner, env: LandingEnv, seed: int) -> List[StepOutcome]:
    """One noise-free episode from reset(seed) through its terminal step."""
    obs = env.reset(seed)
    outcomes = []
    while True:
        out = env.step(learner.act(obs))
        outcomes.append(out)
        if out.terminal is not Terminal.NONE:
            return outcomes
        obs = out.observation


def evaluate_policy(learner: Td3Learner, env: LandingEnv, seeds) -> CurvePoint:
    """Deterministic evaluation episodes; returns aggregate statistics."""
    rewards, lengths, successes = [], [], 0
    for s in seeds:
        outcomes = run_agent_episode(learner, env, int(s))
        total = 0.0
        for out in outcomes:  # in step order: the curve's bits depend on it
            total += out.reward.total
        rewards.append(total)
        lengths.append(len(outcomes))
        successes += outcomes[-1].terminal is Terminal.TOUCHDOWN
    return CurvePoint(0, float(np.mean(rewards)), float(np.mean(lengths)), successes / len(seeds))


def train(
    env_factory: Callable[[], LandingEnv],
    hp: Td3Hyperparams,
    seed: int = 0,
    learner: Optional[Td3Learner] = None,
    checkpoint_sink: Optional[Callable[[int, Td3Learner], None]] = None,
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
        next_obs = out.observation
        buffer.add(obs, action, out.reward.total, next_obs, absorbing)
        obs = next_obs
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
            if log:
                log(
                    f"step {step}: mean_reward={point.mean_reward:.3f} "
                    f"mean_ep_len={point.mean_ep_len:.1f} success={point.success_rate:.2f}"
                )
        if checkpoint_sink and hp.checkpoint_interval and step % hp.checkpoint_interval == 0:
            checkpoint_sink(step, learner)
    return result
