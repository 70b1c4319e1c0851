"""Byte-for-byte pins on the EKF+PID baseline's benchmark output.

The digests were taken with numpy 2.4.6 on OpenBLAS 0.3.31 (Python 3.11,
x86-64). A refactor that claims "same behaviour" must leave them unchanged;
a change that moves one on purpose records the new digest and the reason.
"""

import hashlib

import pytest

from padlander.evaluation import Controller, run_benchmark, write_report
from padlander.scenario import ScenarioKind

GOLDEN = {
    "trials.csv": "c66cb16f8fdd295404d9461b11bca692e4828968bd3a91fa1fea7db001ddd216",
    "traces/SPL_EkfPid_00.csv": "bcb5a6054149bd3147daf0dfc1ad4f124e1f3dd396781122707570ea9bc2d6d4",
    "traces/LMPL_EkfPid_00.csv": "07f61505a6ae92fa3b0cfd1064cdc5374ca49a309d243831935e54fba29f2859",
    "traces/CMPL_EkfPid_00.csv": "d1cb25c200f8b5979dc3f1b7d03cbe3c940fbebd60108d8481a9f324a2ea7422",
    "traces/CTL_EkfPid_00.csv": "5398e014c504db05c980216bec327387b0b053dab58094fbe06fcb1173ffec0c",
}


@pytest.fixture(scope="module")
def benchmark_dir(tmp_path_factory):
    """Ten wind-on baseline trials per scenario, seed 0, as `benchmark --baseline --wind`."""
    out = tmp_path_factory.mktemp("golden")
    report = run_benchmark(list(ScenarioKind), [Controller.EKF_PID], 10, wind=True, seed=0,
                           trace_dir=str(out / "traces"))
    write_report(str(out), report)
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_baseline_output_digest(benchmark_dir, name):
    digest = hashlib.sha256((benchmark_dir / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
