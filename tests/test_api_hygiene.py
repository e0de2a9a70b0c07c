"""Every parameter of every function in src/normform is read by its body,
and every parameter with a default is set by some call.

A parameter that is accepted and ignored tells callers that it does
something.  The receiver of a method (self, cls) is exempt, and so are the
parameters listed in EXEMPT, which protocols or outside callers fix.  A
default that no call in src/normform, perfbench/ or tests/ overrides is a
constant with the look of an option; UNSET_EXEMPT lists the parameters that
calls set where the check cannot see it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "normform"
CALLERS = [SRC, SRC.parent.parent / "perfbench", SRC.parent.parent / "tests"]

# (qualified function name, parameter): why it stays unread
EXEMPT = {
    ("SymMatrix.inverse", "max_size"): "accepted for callers that pass a cap",
    ("Expr.__setattr__", "a"): "any assignment is refused",
    ("_float_route", "nruns"): "the route protocol: the numpy route sizes "
                               "its stage rows by it",
    ("batch_simulate.fold", "w"): "the fold protocol of _integrate: a batch "
                                  "runs at w = 0 and keeps no w",
}

# (qualified function name, parameter): the call that sets it
UNSET_EXEMPT = {
    ("infinite_zero_algorithm", "tol"): "cli's algo(..., tol=...) alias",
    ("zero_output_algorithm", "tol"): "cli's algo(..., tol=...) alias",
}


def _defs(tree):
    """(qualified name, callee name, def node, positional parameters) for
    each def: a call names an __init__ by its class, and a method's
    receiver is not among its positional parameters."""
    found = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                pos = [a.arg for a in child.args.posonlyargs + child.args.args]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if cls is not None and not static:
                    pos = pos[1:]
                callee = cls if child.name == "__init__" else child.name
                found.append((prefix + child.name, callee, child, pos))
                visit(child, prefix + child.name + ".", None)
            else:
                visit(child, prefix, cls)

    visit(tree, "", None)
    return found


def _unread(tree):
    """(qualified name, parameter) for each def parameter its body never
    reads."""
    found = []
    for name, _, node, pos in _defs(tree):
        args = node.args
        params = pos + [a.arg for a in args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found.extend((name, p) for p in params if p not in read)
    return found


def test_every_parameter_is_read():
    unread = [(path.name, name, param)
              for path in sorted(SRC.glob("*.py"))
              for name, param in _unread(ast.parse(path.read_text()))
              if (name, param) not in EXEMPT]
    assert unread == []


def test_the_check_finds_an_unread_parameter():
    tree = ast.parse("class A:\n"
                     "    def f(self, x, *, y):\n"
                     "        return x\n"
                     "    @staticmethod\n"
                     "    def g(z):\n"
                     "        return 0\n"
                     "def h(w, **k):\n"
                     "    return lambda: w\n")
    assert _unread(tree) == [("A.f", "y"), ("A.g", "z"), ("h", "k")]


def test_exemptions_are_still_needed():
    unread = {key for path in SRC.glob("*.py")
              for key in _unread(ast.parse(path.read_text()))}
    assert set(EXEMPT) <= unread


class _Sets:
    """What the calls to one name pass: keywords, the most positional
    arguments, and whether some call passes * or ** arguments."""

    def __init__(self):
        self.kw = set()
        self.npos = 0
        self.star = False
        self.splat = False


def _calls(tree, sets, keys):
    """Add each call in tree to sets ({callee name: _Sets}), and to keys
    the string keys of its dict displays."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys.update(k.value for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str))
        f = node.func if isinstance(node, ast.Call) else None
        name = f.id if isinstance(f, ast.Name) else \
            f.attr if isinstance(f, ast.Attribute) else None
        if name:
            s = sets.setdefault(name, _Sets())
            s.npos = max(s.npos, len(node.args))
            s.star |= any(isinstance(a, ast.Starred) for a in node.args)
            s.kw.update(k.arg for k in node.keywords if k.arg is not None)
            s.splat |= any(k.arg is None for k in node.keywords)


def _unset(def_trees, call_trees):
    """(qualified name, parameter) for each defaulted parameter of the defs
    in def_trees that no call in call_trees sets.  A call sets a parameter
    by keyword or by position; * arguments set every positional parameter,
    and ** arguments every key that a dict display or dict(...) call
    writes or that a function takes into its **kwargs."""
    sets, keys = {}, set()
    for t in call_trees:
        _calls(t, sets, keys)
    keys |= sets.get("dict", _Sets()).kw
    for _, callee, node, pos in (d for t in call_trees for d in _defs(t)):
        if node.args.kwarg is not None:
            keys |= sets.get(callee, _Sets()).kw - set(pos) - {
                a.arg for a in node.args.kwonlyargs}
    found = []
    for name, callee, node, pos in (d for t in def_trees for d in _defs(t)):
        args = node.args
        every = [a.arg for a in args.posonlyargs + args.args]
        defaulted = every[len(every) - len(args.defaults):] + [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
        s = sets.get(callee, _Sets())
        found.extend((name, p) for p in defaulted
                     if p not in s.kw and p not in pos[:s.npos]
                     and not (s.star and p in pos)
                     and not (s.splat and p in keys))
    return found


def _trees(*roots):
    return [ast.parse(p.read_text()) for r in roots for p in sorted(r.glob("*.py"))]


def test_every_default_is_set_by_some_call():
    unset = [key for key in _unset(_trees(SRC), _trees(*CALLERS))
             if key not in UNSET_EXEMPT]
    assert unset == []


def test_the_check_finds_an_unset_parameter():
    defs = ast.parse("def f(a, b=1, *, c=2, d=3):\n"
                     "    pass\n"
                     "class K:\n"
                     "    def __init__(self, x=0, y=0):\n"
                     "        pass\n"
                     "    def m(self, p=0, q=0):\n"
                     "        pass\n"
                     "def g(x, **kw):\n"
                     "    return f(x, **kw)\n"
                     "def h(e=0, r=0):\n"
                     "    pass\n")
    calls = ast.parse("f(1, 2)\nK(5)\nk.m(1)\ng(0, d=4)\nh(**{'e': 0})\n")
    assert _unset([defs], [defs, calls]) == [
        ("f", "c"), ("K.__init__", "y"), ("K.m", "q"), ("h", "r")]


def test_unset_exemptions_are_still_needed():
    unset = set(_unset(_trees(SRC), _trees(*CALLERS)))
    assert set(UNSET_EXEMPT) <= unset
