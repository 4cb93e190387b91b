"""List the lines of the cchlab package that no test runs.

    python3 tools/line_trace.py [PYTEST_ARGS ...]

runs pytest in this process (on ``tests`` when no arguments are given) under
a line tracer set with ``sys.settrace`` and ``threading.settrace`` that
records only frames whose code lives under ``src/cchlab``.  It then prints,
as ``path:line: source``, each executable line of those modules -- the lines
that ``co_lines()`` of their compiled code names -- that no test ran, and
a count.  It exits with pytest's status.  It needs only the standard library
and pytest, so it works where no coverage package is installed.

The tracer starts before cchlab is imported, so module-level lines count.
Tests that start a child process (the console-script tests, a ``sweep``
with a process pool) run their cchlab code unseen: a line that only such a
test reaches is listed as not run.  Tracing makes the suite 1.4-1.8 times
as slow (39-45 s against 26-28 s for the whole of ``tests`` on a 2-vCPU
host, Python 3.11).
"""

from __future__ import annotations

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cchlab")


def executable_lines(source: str, path: str) -> set[int]:
    """Every line number that the compiled code of ``source`` maps an instruction to."""
    stack = [compile(source, path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    hits: dict[str, set[int]] = {}
    owners: dict[str, str | None] = {}  # code filename -> package file, or None

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in owners:
            path = os.path.abspath(filename)
            owners[filename] = path if path.startswith(PACKAGE + os.sep) else None
        if owners[filename] is None:
            return None
        lines = hits.setdefault(owners[filename], set())
        lines.add(frame.f_lineno)

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    sys.path.insert(0, os.path.dirname(PACKAGE))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or [os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for dirpath, _, filenames in sorted(os.walk(PACKAGE)):
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            text = source.splitlines()
            for line in sorted(executable_lines(source, path) - hits.get(path, set())):
                print(f"{os.path.relpath(path, ROOT)}:{line}: {text[line - 1].strip()}")
                missed += 1
    print(f"{missed} executable line(s) of src/cchlab not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
