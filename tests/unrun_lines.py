"""Count, for each engine module, the function lines that the tests never run.

A function line is a line of a function, method, lambda or comprehension:
one its code object's line table names, or the line it starts at (its `def`,
or its first decorator).  Module and class bodies are left out: importing
runs them.

The script runs the tests with `pytest.main` in this process under
`sys.settrace` (and `threading.settrace`), records each line run in a file
of `src/cedar_engine`, and prints, for each module, its unrun and total
function lines and the unrun line numbers.  Code run in a child process (the
CLI and standalone-solver tests spawn some) is not seen.  Nor is the rest of
a test in which the trace function raises: it does so at the recursion
limit, which some tests reach on purpose, and Python then unsets it.  It is
set again before each test.  Tracing makes the tests several times slower:
tier-1 takes about 11 minutes on a 2-vCPU host.

From the repository root (pytest arguments, if any, replace the default of
the whole `tests` directory):

    PYTHONPATH=src python tests/unrun_lines.py [pytest args ...]
"""

import inspect
import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cedar_engine")


def function_lines(path: str) -> set:
    with open(path, encoding="utf-8") as f:
        todo = [compile(f.read(), path, "exec")]
    lines: set = set()
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_NEWLOCALS:
            lines.add(code.co_firstlineno)
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def ranges(lines) -> str:
    """`1-3, 7` for lines 1, 2, 3 and 7."""
    out, lines = [], sorted(lines)
    for line in lines:
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(args: list) -> int:
    modules = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
    ran = {name: set() for name in modules}
    tracers: dict = {}  # a code file name -> the line tracer of its module, or None

    def line_tracer(lines: set):
        def trace(frame, event, arg):
            lines.add(frame.f_lineno)
            return trace

        return trace

    def call_tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            path = os.path.realpath(filename)
            inside = os.path.dirname(path) == os.path.realpath(PACKAGE) and os.path.basename(path) in ran
            tracers[filename] = line_tracer(ran[os.path.basename(path)]) if inside else None
        trace = tracers[filename]
        return trace and trace(frame, event, arg)  # a call starts at the code's first line

    class Rearm:
        @staticmethod
        def pytest_runtest_setup(item):
            sys.settrace(call_tracer)

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              *(args or [os.path.join(ROOT, "tests")])], plugins=[Rearm()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"\npytest exit status {int(status)}\n")
    print(f"{'module':<16} {'unrun':>6} {'lines':>6}  unrun lines")
    for name in modules:
        lines = function_lines(os.path.join(PACKAGE, name))
        unrun = lines - ran[name]
        print(f"{name:<16} {len(unrun):>6} {len(lines):>6}  {ranges(unrun)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
