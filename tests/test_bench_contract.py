"""The traced benchmark run looks its functions up by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


@pytest.mark.parametrize("layer, module, attr", _traced())
def test_traced_name_resolves(layer, module, attr):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # a method is wrapped through its class __dict__, so it must be defined
    # on the class itself, not inherited
    assert callable(vars(owner).get(name))
