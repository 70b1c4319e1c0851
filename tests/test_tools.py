"""The scripts in tools/ run to completion against the current library.

tools/update_timing.py reads td3._worker and td3._NETS, so a rename of either
shows here.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_tool(*argv):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / argv[0]), *argv[1:]], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_loc_counts_every_module_and_the_three_totals():
    lines = run_tool("loc.py")
    for tree, label in ((ROOT / "src" / "padlander", "total"), (ROOT / "tests", "tests total"),
                        (ROOT / "tools", "tools total")):
        names = sorted(path.name for path in tree.glob("*.py"))
        rows, total, lines = lines[:len(names)], lines[len(names)], lines[len(names) + 1:]
        assert [line.split()[1] for line in rows] == names
        assert re.fullmatch(rf" *\d+  {label}", total)
        assert int(total.split()[0]) == sum(int(line.split()[0]) for line in rows)
    assert lines == []


# git's empty tree: a revision at which no file exists, in any repository.
EMPTY_TREE = "4b825dc642cb6eb9a060e54bf8d69288fbee4904"


@pytest.mark.parametrize("rev", ["HEAD", EMPTY_TREE], ids=["HEAD", "empty-tree"])
def test_loc_compares_a_revision_with_the_working_tree(rev):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    now = dict(reversed(line.split(maxsplit=1)) for line in run_tool("loc.py"))
    rows = [re.fullmatch(r" *(\d+) +(\d+) +([+-]\d+)  (.+)", line) for line in run_tool("loc.py", rev)]
    assert all(rows)
    rows = [(int(m[1]), int(m[2]), int(m[3]), m[4]) for m in rows]
    # Every file and total of the plain count with its working-tree count; a file only at rev counts 0 here.
    assert set(now) <= {name for *_, name in rows}
    for then, tree, delta, name in rows:
        assert tree == int(now.get(name, 0))
        assert delta == tree - then
        assert then == 0 or rev != EMPTY_TREE
    names = [name for *_, name in rows]
    src_end, tests_end = names.index("total"), names.index("tests total")
    assert names[-1] == "tools total"
    for part in (rows[:src_end + 1], rows[src_end + 1:tests_end + 1], rows[tests_end + 1:]):
        assert part[-1][0] == sum(then for then, *_ in part[:-1])
        assert part[-1][1] == sum(tree for _, tree, *_ in part[:-1])


def test_loc_counts_a_file_missing_from_the_working_tree_as_zero(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    loc = importlib.import_module("loc")
    monkeypatch.setattr(loc, "counts_at", lambda rev, tree: {"gone.py": 5})
    monkeypatch.setattr(sys, "argv", ["loc.py", "REV"])
    loc.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines.count("     5     0     -5  gone.py") == 3


def test_update_timing_reports_both_update_kinds_and_a_digest():
    lines = run_tool("update_timing.py", "--updates", "8")
    assert re.match(r"seed 11, 8 updates at hidden_dims .*, worker lane (on|off)$", lines[0])
    assert re.fullmatch(r" plain updates: n=4 median [\d.]+ ms \[quartiles [\d.]+-[\d.]+\]", lines[1])
    assert re.fullmatch(r"policy updates: n=4 median [\d.]+ ms \[quartiles [\d.]+-[\d.]+\]", lines[2])
    assert re.fullmatch(r"parameter digest [0-9a-f]{12}", lines[3])


def test_line_hits_lists_the_lines_a_test_file_never_ran(tmp_path):
    def checkout():
        return {path for path in ROOT.rglob("*") if ".git" not in path.parts}

    before = checkout()
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "line_hits.py"), str(ROOT / "tests" / "test_reward.py"),
                           "-q"], cwd=tmp_path, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    missed = [re.fullmatch(r"(src/padlander/\w+\.py):(\d+): (.+)", line) for line in proc.stdout.splitlines()]
    missed = [(m[1], int(m[2]), m[3]) for m in missed if m]
    for path, n, source in missed:
        assert (ROOT / path).read_text().splitlines()[n - 1].strip() == source
    sources = {(path, source) for path, _, source in missed}
    # test_reward.py never imports td3, and runs compute_reward's first body line.
    assert ("src/padlander/td3.py", "class ReplayBuffer:") in sources
    assert ("src/padlander/reward.py", "x, y, z = rel_pos.tolist()") not in sources
    assert checkout() == before
