"""The opt-in line tracer, tests/linereach.py, stays honest: each ALLOWED
entry names a line of its file, and the line accounting finds an unreached
line in a small module of known shape."""

import importlib.util

from linereach import ALLOWED, REPO, LineRecorder, check

SRC = REPO / "src" / "normform"

MODULE = '''\
"""Module docstring: not a candidate, nor is any module-level line."""
LIMIT = 3


def clip(x):
    """Function docstring: no bytecode."""
    if x > LIMIT:
        return LIMIT
    return x


class Box:
    size = 2

    def grow(self, by):
        return [self.size + b
                for b in by]
'''


def test_every_allowed_entry_is_a_line_of_its_file():
    missing = [(name, text) for name, text in ALLOWED
               if text not in {line.strip() for line in
                               (SRC / name).read_text().splitlines()}]
    assert missing == []


def test_the_accounting_finds_the_unreached_lines(tmp_path):
    (tmp_path / "clipmod.py").write_text(MODULE)
    recorder = LineRecorder(tmp_path)
    recorder.start()
    try:
        spec = importlib.util.spec_from_file_location(
            "clipmod", tmp_path / "clipmod.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.clip(1) == 1
    finally:
        recorder.stop()
    unreached = recorder.unreached()
    assert unreached == [("clipmod.py", 8, "return LIMIT"),
                         ("clipmod.py", 16, "return [self.size + b"),
                         ("clipmod.py", 17, "for b in by]")]
    allowed = {("clipmod.py", "return LIMIT"): "a test reason",
               ("clipmod.py", "if x > LIMIT:"): "stale: the line is run"}
    assert check(unreached, allowed) == [
        "unreached and not allowed: clipmod.py:16: return [self.size + b",
        "unreached and not allowed: clipmod.py:17: for b in by]",
        "allowed but reached: clipmod.py: if x > LIMIT:"]
