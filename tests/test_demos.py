"""The narrative demos run to completion against the current library.

Demo 04 trains for minutes and is left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_reward_landscape.py", "02_episode_anatomy.py", "03_baseline_pursuit.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
