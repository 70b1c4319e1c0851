# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # Training a small agent from scratch
#
# The full configuration (four hidden layers up to 512 wide, 300k steps)
# takes hours on a CPU; this demo shrinks the networks and the step budget
# to show the learning loop end to end in a few minutes. Everything else —
# the TD3 machinery with twin critics, target networks, delayed policy
# updates, the hand-written backprop — is identical.
#
# Expect the evaluation return to move as the agent learns to close distance
# to the pad. Do not expect landings: the last measurement of this demo ended
# at 0.0 evaluation success. It is a learning-curve demonstration, not a
# landing agent.

# %%
import time

from padlander.environment import EnvConfig, LandingEnv
from padlander.scenario import ScenarioKind, ScenarioSpec
from padlander.td3 import Td3Hyperparams, train

hp = Td3Hyperparams(
    hidden_dims=(64, 64),
    batch_size=100,
    learning_rate=3e-4,
    total_steps=30_000,
    eval_interval=5_000,
    eval_episodes=10,
    checkpoint_interval=0,
    buffer_capacity=100_000,
)

t0 = time.time()
result = train(
    lambda: LandingEnv(ScenarioSpec(ScenarioKind.SPL), EnvConfig()),
    hp,
    seed=7,
    log=lambda msg: print(f"[{time.time() - t0:6.1f}s] {msg}", flush=True),
)
print(f"\n{result.episodes} episodes, final curve point: {result.curve[-1]}")

# %% [markdown]
# ## Reading the curve
#
# `mean_ep_len` tells the story as much as the reward does. Early random
# policies drift out of bounds (short episodes, negative return); a learning
# agent first discovers hovering near the pad (episodes stretch toward the
# 600-step timeout, return goes positive), then starts converting hovers
# into touchdowns (length drops again, success rate rises).
#
# The full-scale run is the CLI's job, with checkpoints and a curve CSV:
#
# ```
# padlander train --scenario SPL --seed 42
# padlander train --scenario LMPL --seed 43 --resume runs/train_s42/checkpoint.bin
# ```
#
# The second line fine-tunes the static-pad agent on moving pads. This is the
# recipe acceptance criterion 7 runs (`tests/test_acceptance.py`, marked slow);
# no trained agent is committed to this repository.
