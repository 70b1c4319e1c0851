# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # The EKF + PID baseline, and where it breaks
#
# The classical comparison stack: a constant-velocity Kalman filter tracks
# the pad from noisy position measurements (sigma = 1 mm), and a PID pursuit
# law leads the estimate by half a second, descending only while laterally
# aligned. It emits the same bounded setpoint deltas as the learned agent,
# so the comparison is about guidance, not actuation.
#
# The interesting part is the failure mode: the gains were tuned against the
# static pad and frozen. On moving pads the alignment gate keeps pausing the
# descent around every direction change, and the episode clock runs out.

# %%
import numpy as np

from padlander.baseline import run_baseline_episode
from padlander.environment import EnvConfig, LandingEnv
from padlander.evaluation import Controller, report_text, run_benchmark
from padlander.scenario import ScenarioKind, ScenarioSpec

# %% [markdown]
# ## One static-pad episode, inside view
#
# Watch the filter lock on (estimate error drops to millimeters) and the
# approach offset ramp the drone down.

# %%
env = LandingEnv(ScenarioSpec(ScenarioKind.SPL), EnvConfig(wind_enabled=False))
ep = run_baseline_episode(env, seed=3)
for k in range(0, len(ep.outcomes), 20):
    out = ep.outcomes[k]
    err = np.linalg.norm(ep.estimator_rows[k][:3] - out.pad.position)
    print(f"t={out.t:5.2f}s  altitude={out.drone.position[2]:+.3f} m  "
          f"estimate error={err * 1000:6.2f} mm")
last = ep.outcomes[-1]
rel = last.drone.position - last.pad.position
print(f"\n{last.terminal.value} at t={last.t:.2f}s, "
      f"lateral error {np.hypot(rel[0], rel[1]) * 100:.1f} cm")

# %% [markdown]
# ## All four scenarios, ten paired trials each
#
# SPL is the static pad; LMPL moves linearly with sudden heading changes;
# CMPL rides a circular arc with direction flips; CTL adds a vertical
# sinusoid. The success-rate cliff from SPL to the moving scenarios is the
# point of the whole exercise — it is the gap the learned agent closes.

# %%
report = run_benchmark(
    scenarios=list(ScenarioKind),
    controllers=[Controller.EKF_PID],
    trials_per_scenario=10,
    wind=True,
    seed=0,
)
print(report_text(report))

# %% [markdown]
# The same benchmark, with artifacts written to a run directory:
#
# ```
# padlander benchmark --baseline --scenario ALL --trials 10 --seed 0
# ```
#
# A trained agent checkpoint slots into the identical trial seeds with
# `--checkpoint <path> --baseline`, making the comparison paired.
