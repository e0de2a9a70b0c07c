"""The benchmark calls the program by name; what it calls must exist.

The traced run looks its functions up by name, and the workloads pass
keyword arguments to normform functions and methods that must still
accept them.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import normform

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def _methods():
    """Each method a normform class defines, by name."""
    index = {}
    for info in pkgutil.iter_modules(normform.__path__):
        mod = importlib.import_module(f"normform.{info.name}")
        for cls in vars(mod).values():
            if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                for name, member in vars(cls).items():
                    if inspect.isfunction(member):
                        index.setdefault(name, []).append(member)
    return index


def _bindings(tree):
    """The names a perfbench file binds to normform modules and objects by
    its imports (`import normform.x as y`, `from normform.x import z`)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("normform.") and a.asname:
                    bound[a.asname] = importlib.import_module(a.name)
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").startswith("normform"):
            mod = importlib.import_module(node.module)
            for a in node.names:
                bound[a.asname or a.name] = getattr(mod, a.name)
    return bound


def _accepts(fn, keyword):
    return any(p.kind is p.VAR_KEYWORD
               or (p.name == keyword and p.kind is not p.POSITIONAL_ONLY)
               for p in inspect.signature(fn).parameters.values())


def _unaccepted(source, methods):
    """(line, name, keyword) for each keyword argument that a call in
    `source` passes to a normform callable that does not accept it.

    A bare name or a `module.name` call is resolved through the file's
    imports.  Any other `obj.name(...)` call is taken for a call of the
    normform method of that name; when several normform classes define
    one, the call cannot be resolved and is reported with keyword None.
    """
    tree = ast.parse(source)
    bound = _bindings(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.keywords:
            continue
        fn = node.func
        if isinstance(fn, ast.Name):
            name, targets = fn.id, [bound[fn.id]] if fn.id in bound else []
        elif isinstance(fn, ast.Attribute):
            name = fn.attr
            owner = bound.get(getattr(fn.value, "id", None))
            targets = ([getattr(owner, name)] if inspect.ismodule(owner)
                       else methods.get(name, []))
        else:
            continue
        if len(targets) > 1:
            found.append((node.lineno, name, None))
        elif targets:
            found.extend((node.lineno, name, kw.arg) for kw in node.keywords
                         if kw.arg is not None
                         and not _accepts(targets[0], kw.arg))
    return found


def test_benchmark_keywords_are_accepted():
    methods = _methods()
    unaccepted = [(path.name, *call) for path in sorted(PERFBENCH.glob("*.py"))
                  for call in _unaccepted(path.read_text(), methods)]
    assert unaccepted == []


def test_the_check_finds_a_dropped_keyword():
    source = ("import normform.simkit as simkit\n"
              "from normform.expr import numeric_equivalent as neq\n"
              "law.closed_loop_rhs(with_disturbance=True)\n"
              "law.closed_loop_rhs(dropped=1)\n"
              "simkit.SimConfig(dt=0.1, dropped=2)\n"
              "neq(a, b, tol=1e-9, dropped=3)\n"
              "a.is_zero(dropped=4)\n"
              "tol(dropped=5)\n"
              "print(sep='', **{})\n")
    assert _unaccepted(source, _methods()) == [
        (4, "closed_loop_rhs", "dropped"), (5, "SimConfig", "dropped"),
        (6, "neq", "dropped"), (7, "is_zero", None)]
