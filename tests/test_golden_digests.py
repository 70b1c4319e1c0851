"""Byte-for-byte pins on benchmark output and on a short training run.

The digests were taken with numpy 2.4.6 on OpenBLAS 0.3.31 (Python 3.11,
x86-64). A refactor that claims "same behaviour" must leave them unchanged;
a change that moves one on purpose records the new digest and the reason.
The train pins are also checked at one and at two OpenBLAS threads, which
hold the update's worker lanes and its inline path to the same bytes.
"""

import glob
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import padlander
from padlander.cli import main
from padlander.config import RunConfig
from padlander.environment import EnvConfig, LandingEnv
from padlander.evaluation import Controller, run_benchmark, write_curve_csv, write_report
from padlander.scenario import ScenarioKind, ScenarioSpec
from padlander.td3 import Td3Hyperparams, Td3Learner, save_checkpoint, train

GOLDEN = {
    "report.csv": "98c29b0afcf7cef953defe9226f72519260ea9cc95b956876758e2140c9d6e5a",
    "report.json": "e8bfaafb4ace463f4256716e2be38358009ef070239a2868acc173629e88a4c5",
    "report.txt": "fef5a5bd2d46fc8603c7d01abce5c70df37da10bed7393965b9f0c3fb1d5edfc",
    "trials.csv": "c66cb16f8fdd295404d9461b11bca692e4828968bd3a91fa1fea7db001ddd216",
    "traces/SPL_EkfPid_00.csv": "bcb5a6054149bd3147daf0dfc1ad4f124e1f3dd396781122707570ea9bc2d6d4",
    "traces/LMPL_EkfPid_00.csv": "07f61505a6ae92fa3b0cfd1064cdc5374ca49a309d243831935e54fba29f2859",
    "traces/CMPL_EkfPid_00.csv": "d1cb25c200f8b5979dc3f1b7d03cbe3c940fbebd60108d8481a9f324a2ea7422",
    "traces/CTL_EkfPid_00.csv": "5398e014c504db05c980216bec327387b0b053dab58094fbe06fcb1173ffec0c",
}

# Three wind-on baseline trials per scenario at 60 Hz control, seed 1: the
# Kalman model (dt) differs from the default-rate pins in this module, so a
# covariance memo shared across models would move these.
GOLDEN_60HZ = {
    "trials.csv": "6e019d3034693f4814e14b635347a5aee3071a72db22e360fadb5504520ebacf",
    "traces/SPL_EkfPid_00.csv": "2e5a10e28d2ef716f54d299cc5a4682a2ad7c142df56a00c15c51c95a31733a7",
    "traces/LMPL_EkfPid_00.csv": "fe82b1f02a3b2b347c85f9ba76b26db85b7201c1119902510a0bbdbec2f46f33",
    "traces/CMPL_EkfPid_00.csv": "bc052fe2a668cb901fc4f9733dd9f542dcdd217ead820498ee6185bd4bafd03e",
    "traces/CTL_EkfPid_00.csv": "f387cfaabadb21f810a10280dad975abff68ce09005f70e564eb3fedef0be7e8",
}

# An untrained agent (net-init seed 0) paired with the baseline.
GOLDEN_AGENT = {
    "trials.csv": "eeecd38641bb9e8da110090755654465cce7bc46a8a8dc7115f8df6cc2a1cf3d",
    "traces/SPL_Agent_00.csv": "7a02c933dd69956ab1417976e7ad438cdcd62586ce77076329706792732088f2",
    "traces/LMPL_Agent_00.csv": "c08a42c905a91ac5b5f1c0f10ac0bbbb034f3b016ca06a93eaadc41a368da575",
    "traces/CMPL_Agent_00.csv": "535d1fa5665148ec4480bef6b210ab4369fd4675fb1d2d84fd934fe3a36a8e1e",
    "traces/CTL_Agent_00.csv": "56d04f068924212c1596d8db4f599f9bc40dc0a4f5859a89f63dc69751524d92",
}

# 300 LMPL train steps (200 updates) with two 2-episode evaluations.
GOLDEN_TRAIN = {
    "checkpoint.bin": "98ee8d46c77121f5e5fe61c9d58dbdb6fe72f722bd8328b08ee42a54c3233ef6",
    "curve.csv": "fcb455c73668e5ea4f4e0d36452548a4e3078179b21ad3342ae5f1ae01cb7491",
}


# `padlander reward-surface` at its defaults: z 0, range 3 m, 101 x 101 points.
GOLDEN_REWARD_SURFACE = "55728c4768ef214001db467551af284a5ff3c37f53a4db40298b3cdebba6ccf7"

# `padlander config-dump` with no config file or override.
GOLDEN_CONFIG_DUMP = "6988eff3a59a0a96e4fc60ea421acace92b6a9521b8c78bcf2a7bb90b1793872"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def benchmark_dir(tmp_path_factory):
    """Ten wind-on baseline trials per scenario, seed 0, as `benchmark --baseline`."""
    out = tmp_path_factory.mktemp("golden")
    report = run_benchmark(list(ScenarioKind), [Controller.EKF_PID], 10, wind=True, seed=0,
                           trace_dir=str(out / "traces"))
    write_report(str(out), report)
    return out


@pytest.fixture(scope="module")
def benchmark_60hz_dir(tmp_path_factory):
    """Three wind-on baseline trials per scenario at 60 Hz control, seed 1."""
    out = tmp_path_factory.mktemp("golden-60hz")
    report = run_benchmark(list(ScenarioKind), [Controller.EKF_PID], 3,
                           cfg=RunConfig(seed=1, env=EnvConfig(control_hz=60)), trace_dir=str(out / "traces"))
    write_report(str(out), report)
    return out


@pytest.fixture(scope="module")
def agent_dir(tmp_path_factory):
    """Three wind-on paired agent/baseline trials per scenario, seed 0."""
    out = tmp_path_factory.mktemp("golden-agent")
    report = run_benchmark(list(ScenarioKind), [Controller.AGENT, Controller.EKF_PID], 3, wind=True, seed=0,
                           learner=Td3Learner(Td3Hyperparams(), seed=0), trace_dir=str(out / "traces"))
    write_report(str(out), report)
    return out


def write_golden_train(out):
    """Write the files `padlander train` writes, for a short LMPL run at seed 0, into out."""
    hp = Td3Hyperparams(total_steps=300, eval_interval=150, eval_episodes=2, checkpoint_interval=0)
    result = train(lambda: LandingEnv(ScenarioSpec(ScenarioKind.LMPL)), hp, seed=0)
    save_checkpoint(out / "checkpoint.bin", result.learner)
    write_curve_csv(out / "curve.csv", result.curve)


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden-train")
    write_golden_train(out)
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_baseline_output_digest(benchmark_dir, name):
    assert _sha256(benchmark_dir / name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_60HZ))
def test_baseline_60hz_output_digest(benchmark_60hz_dir, name):
    assert _sha256(benchmark_60hz_dir / name) == GOLDEN_60HZ[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_AGENT))
def test_agent_output_digest(agent_dir, name):
    assert _sha256(agent_dir / name) == GOLDEN_AGENT[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_TRAIN))
def test_train_output_digest(train_dir, name):
    assert _sha256(train_dir / name) == GOLDEN_TRAIN[name]


# argv: this directory, the output directory. Prints whether the update's
# worker lanes pay here and whether the run took them.
TRAIN_CHILD = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_golden_digests import write_golden_train
from padlander import td3
write_golden_train(Path(sys.argv[2]))
print(td3._lane_pays(), td3._worker is not None)
"""


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_train_digest_holds_at_one_and_two_blas_threads(tmp_path, blas_threads):
    """The pins hold whether the update runs its worker lanes (one BLAS thread) or inline (two)."""
    src = os.path.dirname(os.path.dirname(padlander.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", TRAIN_CHILD, str(Path(__file__).parent), str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=600, check=True)
    pays, took_lanes = out.stdout.split()
    assert took_lanes == pays  # the default dims reach LANE_MIN_WORK, so the lanes run wherever they pay
    for name, digest in GOLDEN_TRAIN.items():
        assert _sha256(tmp_path / name) == digest
    if (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*")):
        assert took_lanes == str(blas_threads == "1")


def test_default_reward_surface_digest(tmp_path):
    out = tmp_path / "surface.csv"
    assert main(["reward-surface", "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN_REWARD_SURFACE


def test_default_config_dump_digest(capsys):
    assert main(["config-dump"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_CONFIG_DUMP
