from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")

REPO = Path(__file__).resolve().parent.parent
SYSTEMS = REPO / "systems"


@pytest.fixture(scope="session")
def systems_dir():
    return SYSTEMS


@pytest.fixture(scope="session")
def ex31():
    from normform.sysmodel import load_system
    return load_system(SYSTEMS / "ex31.sys")


@pytest.fixture(scope="session")
def ex32():
    from normform.sysmodel import load_system
    return load_system(SYSTEMS / "ex32.sys")


@pytest.fixture(scope="session")
def ex33():
    from normform.sysmodel import load_system
    return load_system(SYSTEMS / "ex33.sys")


@pytest.fixture(scope="session")
def ex34():
    from normform.sysmodel import load_system
    return load_system(SYSTEMS / "ex34.sys")


@pytest.fixture(scope="session")
def out31(ex31):
    from normform.structure import infinite_zero_algorithm
    from normform.sysmodel import SamplePlan
    return infinite_zero_algorithm(ex31, SamplePlan(count=40))


@pytest.fixture(scope="session")
def out32(ex32):
    from normform.structure import infinite_zero_algorithm
    from normform.sysmodel import SamplePlan
    return infinite_zero_algorithm(ex32, SamplePlan(count=40))


@pytest.fixture(scope="session")
def out33(ex33):
    from normform.structure import zero_output_algorithm
    from normform.sysmodel import SamplePlan
    return zero_output_algorithm(ex33, SamplePlan(count=60))


@pytest.fixture(scope="session")
def nf31(ex31, out31):
    from normform.normalform import build_normal_form
    return build_normal_form(ex31, out31)


def counter3_triple(alpha=1.0):
    from normform.linstruct import LinearTriple
    A = np.array([[0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 1, 0],
                  [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]], float)
    B = np.array([[0, 0], [1, 0], [alpha, 0], [0, 0], [0, 1]], float)
    C = np.array([[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]], float)
    return LinearTriple(A, B, C)


def counter3_affine(alpha=1):
    """counter3 encoded as an affine system for the symbolic algorithm."""
    from normform.expr import parse
    from normform.sysmodel import AffineSystem
    states = [f"x{i}" for i in range(1, 6)]
    f = [parse("x2"), parse("0"), parse("x4"), parse("x5"), parse("0")]
    g = [[parse("0"), parse("0")], [parse("1"), parse("0")],
         [parse(str(alpha)), parse("0")], [parse("0"), parse("0")],
         [parse("0"), parse("1")]]
    h = [parse("x1"), parse("x3")]
    return AffineSystem(states, f, g, h)


def unmarked_copy(e):
    """A structural copy that carries no canonical mark."""
    from normform.expr import Add, Const, Func, Mul, Pow, Var
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Var):
        return Var(e.name)
    if isinstance(e, Func):
        return Func(e.fname, unmarked_copy(e.arg))
    if isinstance(e, Pow):
        return Pow(unmarked_copy(e.base), e.exp)
    if isinstance(e, Mul):
        return Mul(tuple(unmarked_copy(f) for f in e.factors))
    return Add(tuple(unmarked_copy(t) for t in e.terms))


def _reference_diff_raw(e, name):
    """The derivative tree before pruning: every product-rule term is
    built, also around a factor whose derivative is 0."""
    from fractions import Fraction

    from normform.expr import ONE, ZERO, Add, Const, Func, Mul, Pow, Var
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return Add(tuple(_reference_diff_raw(t, name) for t in e.terms))
    if isinstance(e, Mul):
        fs = e.factors
        return Add(tuple(Mul(fs[:i] + (_reference_diff_raw(fs[i], name),)
                             + fs[i + 1:]) for i in range(len(fs))))
    if isinstance(e, Pow):
        if e.exp == 0:
            return ZERO
        return Mul((Const(e.exp), Pow(e.base, e.exp - 1),
                    _reference_diff_raw(e.base, name)))
    inner = _reference_diff_raw(e.arg, name)
    u = e.arg
    outer = {"sin": lambda: Func("cos", u),
             "cos": lambda: Mul((Const(-1), Func("sin", u))),
             "exp": lambda: Func("exp", u),
             "sqrt": lambda: Mul((Const(Fraction(1, 2)), Pow(Func("sqrt", u), -1))),
             "abs": lambda: Func("sign", u),
             "sign": lambda: ZERO}[e.fname]()
    return Mul((outer, inner))


def _reference_lie_bracket(f, g):
    """[f, g] = (dg/dx) f - (df/dx) g through Jacobians and matrix
    products, each entry simplified from its raw sum, as lie_bracket
    computed it before it took L_f g_i - L_g f_i through lie_derivative."""
    from normform.geom import VectorField, jacobian
    names = f.states
    jg = jacobian(g.components, names)
    jf = jacobian(f.components, names)
    out = (jg @ f.as_column()) - (jf @ g.as_column())
    return VectorField([out[i, 0] for i in range(len(names))], names)


def _reference_w_dot(law):
    """dW/dt along the undisturbed closed loop, summed as ControlLaw.w_dot
    did before it went through lie_derivative: dW/dx_i * rhs_i over the
    state names in order, from 0, simplified once."""
    from normform.expr import const, diff, simplify
    acc = const(0)
    for name, r in zip(law.system.state_names(), law.closed_loop_rhs()):
        acc = acc + diff(law.W, name) * r
    return simplify(acc)


def _reference_evalf(e, env):
    """The recursive tree walk that evaluated at one point before evalf
    became a call of the scalar kernel: Python floats node by node, a sum
    from 0, EvalError at a pole and at the sqrt of a negative value, and
    whatever else the float operations raise or return (an exp overflow
    raises OverflowError, a product overflow gives inf)."""
    import math

    from normform.expr import Add, Const, EvalError, Func, Mul, Pow, Var
    funcs = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
             "sqrt": math.sqrt, "abs": abs, "sign": lambda v: (v > 0) - (v < 0)}

    def ev(n):
        if isinstance(n, Const):
            return float(n.value)
        if isinstance(n, Var):
            try:
                return float(env[n.name])
            except KeyError:
                raise EvalError(f"unbound variable {n.name!r}") from None
        if isinstance(n, Add):
            return sum(ev(t) for t in n.terms)
        if isinstance(n, Mul):
            out = 1.0
            for t in n.factors:
                out *= ev(t)
            return out
        if isinstance(n, Pow):
            b = ev(n.base)
            if n.exp < 0 and b == 0.0:
                raise EvalError("division by zero")
            return b ** n.exp
        if isinstance(n, Func):
            a = ev(n.arg)
            if n.fname == "sqrt" and a < 0:
                raise EvalError("sqrt of negative value")
            return funcs[n.fname](a)
        raise TypeError(f"unknown node {n!r}")

    return ev(e)
