"""Opt-in pytest plugin: the lines of src/normform that no test runs.

Run the whole suite under it:

    PYTHONPATH=src:tests python -m pytest -q -p linereach

It traces, with sys.settrace, every frame whose code lives in the normform
package and records the lines it runs.  A line counts when it holds bytecode
of a function, lambda or comprehension body: docstrings hold none, the def
line itself is left out, and module and class bodies, which run at import,
are not counted.  Tracing starts before conftest.py loads, so before
normform is imported.  Tests that run the CLI in a subprocess are not seen.

At the end of the run the unreached lines are written to linereach.txt at
the repository root, one "file:line: text" each, and the run fails if an
unreached line is not in ALLOWED or an ALLOWED entry names no unreached
line.  The trace costs about three times the untraced run.
"""

import dis
import importlib.util
import inspect
import sys
import threading
import types
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
OUT = REPO / "linereach.txt"

# (file name, stripped line text): why no in-process test runs the line
ALLOWED = {}


def candidate_lines(source, filename):
    """The line numbers of `source` that hold bytecode of a function body,
    past the prologue that ends at the function's first RESUME."""
    found = set()

    def walk(code):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_flags & inspect.CO_NEWLOCALS:
                body = list(dis.get_instructions(const))
                start = next(i for i, ins in enumerate(body)
                             if ins.opname == "RESUME")
                found.update(ins.positions.lineno for ins in body[start + 1:]
                             if ins.positions.lineno is not None)
            walk(const)

    walk(compile(source, filename, "exec"))
    return found


class LineRecorder:
    """Records, per resolved file path, the lines that frames of code under
    `root` run between start() and stop()."""

    def __init__(self, root):
        self.root = Path(root).resolve()
        self.reached = {}
        self._tracers = {}

    def _tracer(self, code):
        path = Path(code.co_filename).resolve()
        if self.root not in path.parents:
            return None
        add = self.reached.setdefault(path, set()).add

        def trace(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace

        return trace

    def _call(self, frame, event, arg):
        code = frame.f_code
        try:
            return self._tracers[code]
        except KeyError:
            trace = self._tracers[code] = self._tracer(code)
            return trace

    def start(self):
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])

    def unreached(self):
        """(file name, line number, stripped text) of each candidate line
        of the .py files directly under root that no traced frame ran."""
        found = []
        for path in sorted(self.root.glob("*.py")):
            source = path.read_text()
            text = source.splitlines()
            missed = candidate_lines(source, str(path)) - self.reached.get(
                path, set())
            found.extend((path.name, n, text[n - 1].strip())
                         for n in sorted(missed))
        return found


def check(unreached, allowed):
    """The problems of a run: each unreached line not in `allowed`, and each
    entry of `allowed` that names no unreached line."""
    keys = {(name, text) for name, _, text in unreached}
    problems = [f"unreached and not allowed: {name}:{n}: {text}"
                for name, n, text in unreached if (name, text) not in allowed]
    problems += [f"allowed but reached: {name}: {text}"
                 for name, text in allowed if (name, text) not in keys]
    return problems


class _Report:
    """Stops the recorder at the end of the run, writes OUT and fails the
    run on any problem that check() finds."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.problems = []

    def pytest_sessionfinish(self, session):
        self.recorder.stop()
        unreached = self.recorder.unreached()
        OUT.write_text("".join(f"{name}:{n}: {text}\n"
                               for name, n, text in unreached))
        self.problems = check(unreached, ALLOWED)
        if self.problems and session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.section("linereach")
        terminalreporter.write_line(
            f"{sum(1 for _ in OUT.open())} unreached lines written to {OUT}")
        for line in self.problems:
            terminalreporter.write_line(line)


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config):
    package = Path(importlib.util.find_spec("normform").origin).parent
    recorder = LineRecorder(package)
    recorder.start()
    early_config.pluginmanager.register(_Report(recorder), "linereach-report")
