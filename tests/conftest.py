from contextlib import contextmanager
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


# every NormalForm made since the last test call ended
BUILT_NORMAL_FORMS = []


@pytest.fixture(scope="session", autouse=True)
def _record_normal_forms():
    """build_normal_form makes its NormalForm through this subclass, which
    records it for the sparsity check after each test call."""
    from normform import normalform

    class Recorded(normalform.NormalForm):
        def __init__(self, outcome):
            super().__init__(outcome)
            BUILT_NORMAL_FORMS.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalform, "NormalForm", Recorded)
        yield


def delta_keys_obey_sparsity(nf):
    """The sparsity law delta_{i,j,l} = 0 for j < q_l, read off the keys:
    no key (i, j, l) has j < q_l."""
    return all(j >= nf.q[l - 1] for _, j, l in nf.delta)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """The sparsity law holds by construction, so every normal form that a
    test or its fixtures build obeys it on its keys."""
    result = yield
    built = list(BUILT_NORMAL_FORMS)
    BUILT_NORMAL_FORMS.clear()
    for nf in built:
        assert delta_keys_obey_sparsity(nf), sorted(nf.delta)
    return result


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


@contextmanager
def term_budget(n):
    """expr.TERM_BUDGET is n inside the block.  A node simplified inside is
    marked canonical at n, so the block simplifies fresh trees only
    (unmarked_copy), and nothing simplified in it is used after it."""
    from normform import expr
    saved = expr.TERM_BUDGET
    expr.TERM_BUDGET = n
    try:
        yield
    finally:
        expr.TERM_BUDGET = saved


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


def check_decrease(law, seed=17, npoints=500):
    """Sampled Wdot <= 1e-9 (1 + |W|) of a ControlLaw at seeded points of
    [-1, 1]^n (no disturbance): (ok, worst Wdot or the first violation,
    None or the violating point)."""
    from normform.geom import SymMatrix
    names = law.system.state_names()
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                              size=(npoints, len(names)))
    wdot, w = SymMatrix([[law.w_dot(), law.W]]).sample(names, pts.T)[:, 0].T
    bad = wdot > 1e-9 * (1.0 + np.abs(w))
    if bad.any():
        i = int(np.argmax(bad))
        return False, float(wdot[i]), dict(zip(names, pts[i].tolist()))
    return True, float(np.max(wdot, initial=-np.inf)), None


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


def _reference_frac_cancel(num, den):
    """expr._frac_cancel without its fast path for the exact denominator 1:
    the Pythagorean pass on both parts, the common monomial content, exact
    division both ways, then a leading denominator coefficient of 1."""
    from normform.expr import (_Frac, _div, _mono_divides, _poly_const,
                               _poly_divide_exact, _poly_lead,
                               _pythagorean_pass)
    num = _pythagorean_pass(dict(num))
    den = _pythagorean_pass(dict(den))
    if not num:
        return _Frac({}, _poly_const(1))

    def content(p):
        it = iter(p)
        first = dict(next(it))
        for m in it:
            dm = dict(m)
            for a in list(first):
                e = min(first[a], dm.get(a, 0))
                if e <= 0:
                    del first[a]
                else:
                    first[a] = e
            if not first:
                break
        return first
    cn, cd = content(num), content(den)
    common = {a: min(e, cd.get(a, 0)) for a, e in cn.items() if cd.get(a, 0) > 0}
    if common:
        cm = tuple(sorted(common.items(), key=lambda ae: ae[0].key))
        num = {_mono_divides(cm, m): c for m, c in num.items()}
        den = {_mono_divides(cm, m): c for m, c in den.items()}
    if den != _poly_const(1):
        q = _poly_divide_exact(num, den)
        if q is not None:
            return _Frac(q, _poly_const(1))
        q = _poly_divide_exact(den, num)
        if q is not None and q:
            return _Frac(_poly_const(1), q)
    ld = den[_poly_lead(den)]
    if ld != 1:
        den = {m: _div(c, ld) for m, c in den.items()}
        num = {m: _div(c, ld) for m, c in num.items()}
    return _Frac(num, den)


def _reference_project_points(system, theta_stack, samples, out, k):
    """The per-point damped Gauss-Newton loop that projected the samples
    onto the zero set before the projection ran on all of them at once:
    one lstsq step per iteration, each halved until the squared residual
    falls (down to alpha = 1e-4), at most 50 iterations, and the squared
    residual PROJ_TOL.  A non-finite Jacobian makes lstsq raise
    LinAlgError."""
    from normform.expr import compile_exprs
    from normform.geom import jacobian
    from normform.structure import PROJ_TOL
    states = system.states
    pts = [system.origin()]
    if not theta_stack:
        return samples
    fn = compile_exprs(theta_stack, states)
    grads = compile_exprs([d for row in jacobian(theta_stack, states)
                           for d in row], states)
    box = system.box()
    for p0 in samples[1:]:
        x = np.array(p0, dtype=float)
        converged = False
        for _ in range(50):
            r = np.asarray(fn(list(x)), dtype=float)
            if not np.all(np.isfinite(r)):
                break
            if float(np.dot(r, r)) <= PROJ_TOL:
                converged = True
                break
            J = np.asarray(grads(list(x)), dtype=float).reshape(len(theta_stack), -1)
            step, *_ = np.linalg.lstsq(J, r, rcond=None)
            alpha = 1.0
            base = float(np.dot(r, r))
            while alpha > 1e-4:
                xn = x - alpha * step
                rn = np.asarray(fn(list(xn)), dtype=float)
                if np.all(np.isfinite(rn)) and float(np.dot(rn, rn)) < base:
                    x = xn
                    break
                alpha *= 0.5
            else:
                break
        if converged and all(lo <= v <= hi for v, (lo, hi) in zip(x, box)):
            pts.append(x)
    if len(pts) == 1 and len(samples) > 1:
        out.warnings.append(
            f"step {k}: projection onto the zero set failed for all samples; "
            "rank hypotheses checked at x=0 only")
    return pts
