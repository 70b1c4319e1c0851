# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # Anatomy of a landing episode
#
# One episode of the landing environment, stepped by hand with a scripted
# controller, to show exactly what crosses the agent boundary:
#
# * actions are 3-vectors in [-1, 1], scaled by 0.1 m into position-setpoint
#   deltas for the drone's inner tracking loop (30 Hz control, 240 Hz physics);
# * observations are 15 components — attitude, velocity, angular velocity,
#   relative pad position, relative pad velocity — clipped and normalized
#   to [-1, 1];
# * episodes end in Touchdown, Crash, OutOfBounds, or Timeout at 20 s.

# %%
import numpy as np

from padlander.environment import EnvConfig, LandingEnv, Terminal
from padlander.scenario import ScenarioKind, ScenarioSpec

env = LandingEnv(ScenarioSpec(ScenarioKind.LMPL), EnvConfig())
obs = env.reset(seed=7)
print("observation shape:", obs.shape, " bounds:", float(obs.min()), float(obs.max()))
print("drone spawn:", np.round(env.drone.position, 3))

# %% [markdown]
# ## A proportional chase
#
# The observation's components 9..11 are the pad position relative to the
# drone, normalized by 3 m. Steering a fraction of that vector back out as
# the action gives a crude proportional pursuit — enough to land on a slow
# pad, and a useful sanity probe for the environment.

# %%
total_reward = 0.0
terminal = Terminal.NONE
step = 0
while terminal is Terminal.NONE:
    rel = obs[9:12] * 3.0  # un-normalize the relative pad position
    action = np.clip(4.0 * rel, -1.0, 1.0)
    out = env.step(action)
    obs = out.observation
    total_reward += out.reward.total
    terminal = out.terminal
    step += 1
    if step % 60 == 0 or terminal is not Terminal.NONE:
        d = np.linalg.norm(out.pad.position - out.drone.position)
        print(
            f"t={out.t:5.2f}s  d={d:.3f} m  "
            f"case={out.reward.case_id.value:<4}  r={out.reward.total:+.3f}  "
            f"wind={np.linalg.norm(out.wind_force) * 1000:.1f} mN  {terminal.value}"
        )

print(f"\nterminal: {terminal.value} after {step} steps, return {total_reward:+.2f}")

# %% [markdown]
# ## Determinism
#
# Every source of randomness — spawn point, platform headings, wind coin —
# derives from the reset seed through named substreams. Re-running the same
# seed with the same actions replays the identical episode, bit for bit.

# %%
env2 = LandingEnv(ScenarioSpec(ScenarioKind.LMPL), EnvConfig())
o1 = env.reset(seed=21)
o2 = env2.reset(seed=21)
print("same spawn:", np.array_equal(env.drone.position, env2.drone.position))
a = np.array([0.3, -0.2, -0.5])
print("same first step:", np.array_equal(env.step(a).observation, env2.step(a).observation))

# %% [markdown]
# Episode traces (drone, pad, wind, reward per step) can be written as CSV
# with `padlander.evaluation.write_trace` and summarized/downsampled from
# the command line with `padlander replay <trace.csv>`.
