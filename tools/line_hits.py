#!/usr/bin/env python3
"""Run pytest under a line tracer and print every src/padlander line that never ran.

    python3 tools/line_hits.py [pytest arguments, e.g. tests/test_td3.py -q]

Each line with bytecode in a src/padlander module that no traced thread
executed is printed after pytest's own output as `path:line: source`, path
relative to the repository root; the exit status is pytest's. It uses
sys.settrace and threading.settrace, so it needs no coverage package, and
runs pytest with -p no:cacheprovider. Only this process is traced: code run
only in a subprocess shows as never run, e.g. the train digest at one and two
BLAS threads in test_golden_digests.py and td3._lane_pays's probes there.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "padlander"
sys.path.insert(0, str(SRC.parent))

import pytest  # noqa: E402


def code_lines(code):
    """Line numbers that code and the code objects nested in it have bytecode on."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def main(argv) -> int:
    hits = set()  # (filename, line) pairs that ran

    def trace_lines(frame, event, arg):
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines(frame, event, arg) if frame.f_code.co_filename.startswith(str(SRC)) else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main([*argv, "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        for n in sorted(code_lines(compile(text, str(path), "exec"))):
            if (str(path), n) not in hits:
                print(f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
