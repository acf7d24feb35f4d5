"""Measure line coverage of src/repro under the tier-1 suite.

A dependency-free stand-in for coverage.py (which is not installed in
the development container): a ``sys.settrace`` hook records every line
executed in files under ``src/repro`` while pytest runs, and the
executable-line universe comes from walking each file's compiled code
objects (``co_lines``). The percentage approximates coverage.py's
closely but not exactly — docstring lines, for instance, appear in
``co_lines`` but never fire a line event — so the CI floor derived from
it should be rounded down with a small margin.

Usage::

    PYTHONPATH=src python tools/coverage_floor.py [pytest args...]

Prints per-file and total coverage; exits with pytest's status.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def executable_lines(path: Path) -> set:
    """Line numbers with bytecode, per the compiled code-object tree."""
    code = compile(path.read_text(), str(path), "exec")
    lines: set = set()
    stack = [code]
    while stack:
        co = stack.pop()
        for _start, _end, line in co.co_lines():
            if line is not None:
                lines.add(line)
        for const in co.co_consts:
            if isinstance(const, CodeType):
                stack.append(const)
    return lines


def main(argv) -> int:
    prefix = str(SRC) + "/"
    executed: dict = {}
    # The line universe is read before the suite runs, so a file edited
    # during the run is still scored against the lines that executed.
    universes = {path: executable_lines(path)
                 for path in sorted(SRC.rglob("*.py"))}

    def local_trace(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local_trace

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None  # skip line events outside src/repro entirely
        if filename not in executed:
            executed[filename] = set()
        return local_trace

    import pytest  # after path setup, before tracing: keep it cheap

    sys.settrace(global_trace)
    threading.settrace(global_trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_exec = total_hit = 0
    rows = []
    for path, universe in universes.items():
        hit = executed.get(str(path), set()) & universe
        total_exec += len(universe)
        total_hit += len(hit)
        pct = 100.0 * len(hit) / len(universe) if universe else 100.0
        rows.append((pct, len(hit), len(universe),
                     str(path.relative_to(REPO))))
    print(f"\n{'cover':>6}  {'hit':>5}/{'lines':<5}  file")
    for pct, hit, n, name in rows:
        print(f"{pct:5.1f}%  {hit:5d}/{n:<5d}  {name}")
    total_pct = 100.0 * total_hit / total_exec if total_exec else 100.0
    print(f"\nTOTAL: {total_hit}/{total_exec} lines = {total_pct:.2f}%")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
