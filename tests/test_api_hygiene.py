"""Every parameter of every function in src/normform is read by its body.

A parameter that is accepted and ignored tells callers that it does
something.  The receiver of a method (self, cls) is exempt, and so are the
parameters listed in EXEMPT, which protocols or outside callers fix.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "normform"

# (qualified function name, parameter): why it stays unread
EXEMPT = {
    ("SymMatrix.inverse", "max_size"): "accepted for callers that pass a cap",
    ("Expr.__setattr__", "a"): "any assignment is refused",
}


def _unread(tree):
    """(qualified name, parameter) for each def parameter its body never
    reads."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                args = child.args
                params = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if in_class and not static:
                    params = params[1:]
                params = params + args.kwonlyargs + [
                    a for a in (args.vararg, args.kwarg) if a is not None]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                found.extend((name, p.arg) for p in params
                             if p.arg not in read)
                visit(child, name + ".", False)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
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
