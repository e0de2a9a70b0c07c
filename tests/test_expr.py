"""Expression core: parser, canonicalization, calculus, equivalence."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (_reference_diff_raw, _reference_evalf,
                      _reference_frac_cancel, malformed_monomial, mono,
                      term_budget, unmarked_copy)
from normform.expr import (_FRAC_KEY, SAMPLE_CUTOFF, SAMPLE_REDRAWS,
                           TERM_BUDGET, ONE, ZERO, Add, BudgetError, Const,
                           EvalError, Expr, Func,
                           Mul, ParseError, Pow, Var, _CHUNK, _diff_raw,
                           _expand, _Frac, _frac_add, _frac_cancel,
                           _frac_mul, _frac_written, _kernel_source,
                           _blank, _memoized, _mono_divides, _mono_mul,
                           _poly_const, _set,
                           _poly_lead, _poly_mul, _poly_pow,
                           _poly_written,
                           _to_frac, _token,
                           _var_names, backends_agree, compile_exprs,
                           compile_block_numpy, compile_block_scalar,
                           compile_exprs_scalar, const,
                           diff, equivalent, evalf, free_vars, is_zero,
                           numeric_equivalent, parse, render, sample_box,
                           simplify, subs)


def test_parse_product():
    e = parse("x1*x2")
    assert isinstance(e, Mul)
    assert free_vars(e) == {"x1", "x2"}
    assert parse("+x1*x2") == e


def test_parse_example_theta2():
    # the step-2 residue of the five-state example
    e = parse("x4 - x1*x4")
    assert e == simplify(Var("x4") - Var("x1") * Var("x4"))
    assert simplify(1 - Var("x1")) == simplify(parse("1 - x1"))


def test_parse_sin_at_zero():
    assert evalf(parse("sin(x4)"), {"x4": 0.0}) == 0.0


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as ei:
        parse("x1 + @")
    assert ei.value.offset == 5
    with pytest.raises(ParseError):
        parse("foo(x1)")
    with pytest.raises(ParseError):
        parse("x1 + (x2")
    with pytest.raises(ParseError):
        parse("x1^x2")  # exponent must be an integer literal


@pytest.mark.parametrize("build, error, message", [
    (lambda: Const("1"), TypeError, "^bad constant '1'$"),
    (lambda: Pow(Var("x"), 0.5), TypeError, "^Pow exponent must be an int$"),
    (lambda: Func("tan", Var("x")), ValueError, "^unknown function 'tan'$"),
    (lambda: Var("x") + "1", TypeError, "^cannot coerce '1' to Expr$"),
    (lambda: setattr(Var("x"), "name", "y"), AttributeError,
     "^Expr nodes are immutable$"),
])
def test_nodes_refuse_malformed_parts(build, error, message):
    with pytest.raises(error, match=message):
        build()


class _Foreign(Expr):
    """A node type the core does not know.  Marked as simplify's output,
    it reaches each walker's own dispatch; unmarked, simplify's."""
    __slots__ = ()

    def __init__(self, canon):
        _blank(self)
        _set(self, "_canon", canon)

    def _compute_key(self):
        return "9X"


@pytest.mark.parametrize("call, canon", [
    (simplify, False),
    (lambda e: diff(e, "x"), True),
    (lambda e: subs(e, {"x": 1}), True),
    (lambda e: compile_exprs([e], ["x"]), True),
    (render, True),
], ids=["simplify", "diff", "subs", "compile_exprs", "render"])
def test_an_unknown_node_type_is_refused_by_name(call, canon):
    with pytest.raises(TypeError, match="^unknown node _Foreign$"):
        call(_Foreign(canon))


def test_rational_and_decimal_constants():
    assert parse("3/4") == Const(Fraction(3, 4))
    v = parse("0.5")
    assert isinstance(v, Const) and v.value == 0.5
    assert evalf(parse("2e-3"), {}) == pytest.approx(0.002)
    # mixed arithmetic promotes to float
    assert isinstance(parse("1/2 + 0.25"), Const)


def test_simplify_idempotent_on_rationals():
    e = parse("(x4 + x3^2*x4)/(1 + x3^2)")
    assert e == parse("x4")
    assert simplify(simplify(e)) == simplify(e)


def test_pythagorean_rewrite_only():
    assert parse("sin(x1)^2 + cos(x1)^2") == const(1)
    assert parse("2*sin(x1)^2 + 3*cos(x1)^2") == parse("2 + cos(x1)^2")
    # no other trig identities
    assert parse("sin(2*x1)") != parse("2*sin(x1)*cos(x1)")


def test_abs_square_collapses():
    assert parse("abs(x1)^2") == parse("x1^2")
    assert simplify(Pow(Func("abs", parse("x1 + x2")), 2)) == parse("(x1+x2)^2")
    # |(|x1|)|^2 gives |x1|^2, which collapses in turn; the product once
    # stopped at abs(x1)^3, so is_zero missed the difference
    nested = parse("abs(x1)*abs(abs(x1))*abs(abs(x1))")
    assert nested == parse("abs(x1)^3") == parse("x1^2*abs(x1)")
    assert is_zero(nested - parse("abs(x1)^3"))


def test_free_vars_cancellation():
    assert free_vars(parse("x1 - x1")) == set()
    assert free_vars(parse("x1*x2")) == {"x1", "x2"}


def test_diff_product_rule():
    assert diff(parse("x1*x2"), "x1") == Var("x2")


def test_diff_example_feeds_lg_row():
    assert diff(parse("x4 - x1*x4"), "x1") == parse("-x4")


def test_diff_abs_uses_sign():
    assert diff(parse("abs(x1)"), "x1") == Func("sign", Var("x1"))
    # documented caveat: derivative of sign is 0 almost everywhere
    assert diff(parse("sign(x1)"), "x1") == const(0)


def test_diff_against_central_differences():
    rng = np.random.default_rng(12)
    pool = ["x1*x2 - x3^2", "sin(x1)*exp(x2)", "sqrt(1 + x1^2) + cos(x2*x3)",
            "x1^3/(1 + x2^2)", "exp(-x3)*x1 + 2/3*x2"]
    names = ["x1", "x2", "x3"]
    checked = 0
    while checked < 50:
        text = pool[checked % len(pool)]
        e = parse(text)
        var = names[checked % 3]
        d = diff(e, var)
        env = {n: rng.uniform(-0.8, 0.8) for n in names}
        h = 1e-6
        up = dict(env); up[var] += h
        dn = dict(env); dn[var] -= h
        fd = (evalf(e, up) - evalf(e, dn)) / (2 * h)
        val = evalf(d, env)
        assert abs(val - fd) <= 1e-5 * (1 + abs(val))
        checked += 1


@st.composite
def small_exprs(draw, names=("x1", "x2", "x3"), wide=False):
    """Raw expression trees.  wide=True adds abs, sqrt and exp, negative
    exponents, float constants and one more level of depth."""
    depth = draw(st.integers(0, 4 if wide else 3))
    funcs = ("sin", "cos", "abs", "sqrt", "exp") if wide else ("sin", "cos")

    def rec(d):
        if d == 0:
            kind = draw(st.integers(0, 3 if wide else 2))
            if kind == 0:
                return Const(Fraction(draw(st.integers(-3, 3))))
            if kind == 3:
                return Const(draw(st.sampled_from((0.5, -1.25, 0.1, 3.0))))
            return Var(draw(st.sampled_from(names)))
        k = draw(st.integers(0, 3))
        if k == 0:
            return rec(d - 1) + rec(d - 1)
        if k == 1:
            return rec(d - 1) * rec(d - 1)
        if k == 2:
            return Pow(rec(d - 1), draw(st.integers(-2 if wide else 0, 2)))
        return Func(draw(st.sampled_from(funcs)), rec(d - 1))

    return rec(depth)


def assert_idempotent(e):
    try:
        s = simplify(e)
    except ZeroDivisionError:
        assume(False)
    assert simplify(s) is s
    assert simplify(unmarked_copy(s)) == s


@settings(max_examples=300, deadline=None)
@given(small_exprs(wide=True), st.sampled_from([TERM_BUDGET, 2, 4, 8]))
def test_simplify_idempotent(e, budget):
    # small budgets reach the BudgetError fallback and factored powers
    with term_budget(budget):
        assert_idempotent(unmarked_copy(e))


def test_simplify_idempotent_on_abs_of_quotient():
    # |q|*|q| with q a quotient: the product path must fold |q|^2 to q^2
    # the way the power path does, or a second pass expands it
    q = parse("(3/4*z + 3/4*z^3 + gamma^2*z)/gamma^2")
    e = Mul((Func("abs", q), Func("abs", q)))
    assert_idempotent(e)
    assert simplify(e) == simplify(Pow(q, 2))


def test_simplify_idempotent_at_budget_edges():
    x1, x2, x3 = Var("x1"), Var("x2"), Var("x3")
    cases = [
        # the raw product overflows, the simplified factors do not
        (Mul((x2 + x3 + 1, x1 ** 2 / (x1 + 1) + x1 / (x1 + 1))), 4),
        # an uncancelled base overflows its power, the cancelled one does not
        (Pow(x2 / (x2 + 1) + 1 / (x2 + 1), 3), 2),
        # cancellation leaves a factored power at exponent 1
        (Pow(x1 + x2 + 1, 3) / Pow(x1 + x2 + 1, 2) + 1, 2),
        # |u|^2 inside a factored power folds before the power is factored
        (Pow(Pow(Func("abs", x1 * x2) * (x1 + x2) / (x2 * x2), -2), 2), 3),
        # a first power is never factored, whatever its size
        (Add((Const(3), Pow(x1 + x2 + 1, -1))), 2),
    ]
    for e, budget in cases:
        with term_budget(budget):
            assert_idempotent(unmarked_copy(e))


def test_exp_of_overflowing_constant_stays_unfolded():
    e = simplify(Func("exp", Const(5e8)))
    assert render(e) == "exp(500000000.0)"
    assert simplify(e) is e
    # and sin of a product that overflowed, where math.sin raises: parse
    # would read the text inf as a variable, so it does not render
    e = simplify(parse("sin(1e308*10)"))
    assert e == Func("sin", Const(math.inf))
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^constant {value} is not "
                           "finite and has no text form$"):
            render(e if value == math.inf else Func("sin", Const(value)))


def test_a_node_with_no_text_form_still_shows_in_repr_and_str():
    # render refuses inf and nan, but an error message or a test report that
    # shows such a node must not fail: it shows the node's parts instead
    e = simplify(parse("sin(1e308*10)"))
    assert repr(e) == str(e) == "Func('sin', Const(inf))"
    e = Func("cos", Const(math.nan)) + Var("y") * 2
    assert str(e) == "Add((Func('cos', Const(nan)), Expr('2*y')))"
    with pytest.raises(ValueError, match="^constant nan is not finite"):
        render(e)


def test_numpy_integer_constants_stay_exact():
    big = Fraction(np.int64(2 ** 62))
    assert render(simplify(const(big) * Var("x") * 8)) == "36893488147419103232*x"
    assert type(Const(big).value.numerator) is int
    assert render(simplify(Var("x") * np.float64(0.5))) == "0.5*x"


def test_simplify_returns_marked_input():
    c = simplify(parse("x1/(1 + x2)") + 3)
    assert simplify(c) is c
    assert render(c) == render(unmarked_copy(c))


EXACT_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _draw_poly(draw, coeffs):
    """A raw sum of one to three terms c*x1^i*x2^j, i, j <= 2."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        t = const(draw(coeffs))
        for name in ("x1", "x2"):
            t = t * Pow(Var(name), draw(st.integers(0, 2)))
        terms.append(t)
    return Add(tuple(terms))


@st.composite
def polynomials(draw):
    return _draw_poly(draw, EXACT_COEFFS)


@st.composite
def rational_functions(draw, floats=False):
    """Raw sums and products of polynomials and quotients of polynomials
    with rational (optionally also float) coefficients in x1, x2."""
    coeffs = EXACT_COEFFS
    if floats:
        coeffs = st.one_of(coeffs, st.sampled_from((0.5, -1.25, 0.1, 3.0)))

    def piece():
        p = _draw_poly(draw, coeffs)
        return p / _draw_poly(draw, coeffs) if draw(st.booleans()) else p

    e = piece()
    for _ in range(draw(st.integers(0, 2))):
        e = e * piece() if draw(st.booleans()) else e + piece()
    return e


def sympy_expr(e):
    import sympy

    if isinstance(e, Const):
        v = e.value
        return sympy.Float(v) if isinstance(v, float) else sympy.Rational(
            v.numerator, v.denominator)
    if isinstance(e, Var):
        return sympy.Symbol(e.name)
    if isinstance(e, Add):
        return sympy.Add(*(sympy_expr(t) for t in e.terms))
    if isinstance(e, Mul):
        return sympy.Mul(*(sympy_expr(f) for f in e.factors))
    if isinstance(e, Pow):
        return sympy.Pow(sympy_expr(e.base), e.exp)
    fn = {"abs": sympy.Abs, "sign": sympy.sign}.get(e.fname) or getattr(sympy, e.fname)
    return fn(sympy_expr(e.arg))


def simplified_or_reject(e):
    try:
        return simplify(e)
    except ZeroDivisionError:
        assume(False)


@settings(max_examples=25, deadline=None)
@given(rational_functions())
def test_simplify_matches_sympy_exact(e):
    import sympy

    s = simplified_or_reject(e)
    assert sympy.simplify(sympy_expr(parse(render(s))) - sympy_expr(e)) == 0
    assert simplify(s) is s


@settings(max_examples=30, deadline=None)
@given(rational_functions(floats=True), st.randoms(use_true_random=False))
def test_simplify_matches_sympy_with_floats(e, rnd):
    import sympy

    s = simplified_or_reject(e)
    got, want = sympy_expr(s), sympy_expr(e)
    x1, x2 = sympy.symbols("x1 x2")
    checked = 0
    for _ in range(20):
        point = {x1: rnd.uniform(-2, 2), x2: rnd.uniform(-2, 2)}
        try:
            w = complex(want.evalf(subs=point))
        except ZeroDivisionError:
            # a pole of the reference tree, as a non-finite value is
            continue
        if not np.isfinite(w) or abs(w) > 1e6:
            continue
        g = complex(got.evalf(subs=point))
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w))
        checked += 1
    assume(checked > 0)


@settings(max_examples=40, deadline=None)
@given(small_exprs(), small_exprs(), st.integers(-3, 3), st.integers(-3, 3))
def test_diff_linearity(e1, e2, a, b):
    lhs = diff(const(a) * e1 + const(b) * e2, "x1")
    rhs = simplify(const(a) * diff(e1, "x1") + const(b) * diff(e2, "x1"))
    assert lhs == rhs


def _nodes(e):
    yield e
    kids = {Add: "terms", Mul: "factors"}.get(type(e))
    if kids:
        for c in getattr(e, kids):
            yield from _nodes(c)
    elif isinstance(e, (Pow, Func)):
        yield from _nodes(e.base if isinstance(e, Pow) else e.arg)


def _with_sign(e, wrap):
    # small_exprs draws no sign(); put one in on request
    return Func("sign", e) * e + e if wrap else e


@settings(max_examples=300, deadline=None)
@given(small_exprs(wide=True), st.sampled_from(["x1", "x2", "y"]),
       st.booleans())
def test_diff_raw_simplifies_as_unpruned_reference(e, x, wrap):
    e = _with_sign(e, wrap)
    # a zero term around an undefined factor (1/0) makes the reference
    # raise where the pruned tree need not
    want = simplified_or_reject(_reference_diff_raw(e, x))
    assert simplify(_diff_raw(e, x)).key == want.key


@settings(max_examples=300, deadline=None)
@given(small_exprs(wide=True), st.sampled_from(["x1", "x2", "y"]),
       st.booleans())
def test_diff_raw_builds_no_zero_terms(e, x, wrap):
    e = _with_sign(e, wrap)
    d = _diff_raw(e, x)
    if x not in _var_names(e):
        assert d is ZERO
    if d is ZERO:
        return
    # a zero constant in a product of the output comes from e itself
    zeros = {id(n) for n in _nodes(e) if isinstance(n, Const) and n.value == 0}
    for n in _nodes(d):
        assert n is not ZERO
        if isinstance(n, Mul):
            assert all(id(f) in zeros for f in n.factors
                       if isinstance(f, Const) and f.value == 0)


@settings(max_examples=40, deadline=None)
@given(small_exprs())
def test_render_roundtrip(e):
    s = simplify(e)
    assert parse(render(s)) == s


def test_render_deterministic():
    t = "x2*x1 + x1*x2 + sin(x1)*3 - x3/(x1 - 1)"
    assert render(parse(t)) == render(parse(t))


def test_equivalence_tester():
    assert equivalent(parse("(x1+x2)^2"), parse("x1^2 + 2*x1*x2 + x2^2"))
    assert not numeric_equivalent(parse("x1"), parse("x1 + 1e-3"))
    # rational identity via difference simplifying to zero
    assert equivalent(parse("x4/(1-x1)"), parse("x4*(1+x1)/((1-x1)*(1+x1))"))


def test_degenerate_division():
    with pytest.raises(ZeroDivisionError):
        simplify(parse("x1") / (parse("x1") - parse("x1")))


def test_budget_keeps_factored():
    # (1 + x1 + x2 + x3)^9 at a tiny budget stays factored but still evaluates
    e = Pow(parse("1 + x1 + x2 + x3"), 9)
    with term_budget(20):
        s = simplify(unmarked_copy(e))
    assert isinstance(s, (Pow, Mul))
    env = {"x1": 0.1, "x2": 0.2, "x3": -0.3}
    assert evalf(s, env) == pytest.approx(evalf(e, env))


def test_over_budget_product_keeps_every_constant():
    # A*B exceeds the term budget, so simplify keeps the product; its
    # constants 2 and 3 are folded into one leading 6, which render writes
    A, B = (Pow(parse(" + ".join(["1"] + [f"{v}{i}" for i in range(1, 10)])),
                3) for v in "xy")
    e = Mul((Const(2), A, Const(3), B))
    s = simplify(e)
    assert s.factors[0] == Const(6)
    assert not any(isinstance(f, Const) for f in s.factors[1:])
    env = {**{f"x{i}": 0.1 for i in range(1, 10)},
           **{f"y{i}": 0.2 for i in range(1, 10)}}
    text = render(e)
    assert text.startswith("6*(")
    assert evalf(e, env) == pytest.approx(903.412608, rel=1e-9)
    assert evalf(parse(text), env) == pytest.approx(evalf(e, env), rel=1e-12)
    assert simplify(s) is s and render(s) == text


def test_over_budget_product_reads_back_as_one_product():
    # 6*(A)*(B) parses as one product; the product 6*A alone fits the
    # budget, so reading it as (6*A)*B expanded 6*A.  A product in a
    # denominator is parenthesized: z/(A)*(B) read back as z*B/A.  The
    # text 1/((A)*(B)) is a product of 1 and one factor, which is that
    # factor, and ((A)*(B))^2 in a denominator is one power, (A*B)^-2.
    A, B = (Pow(parse(" + ".join(["1"] + [f"{v}{i}" for i in range(1, 10)])),
                3) for v in "xy")
    AB, z = Mul((A, B)), Var("z")
    env = {**{f"x{i}": 0.1 for i in range(1, 10)},
           **{f"y{i}": 0.2 for i in range(1, 10)}, "z": 0.7}
    for e in (Mul((Const(6), A, B)), Mul((Const(6), A, B, Pow(z, -2))),
              Mul((z, Pow(AB, -1))), Pow(AB, -1), Mul((z, Pow(AB, -2))),
              Mul((Pow(AB, 2), Pow(z, -1)))):
        s = simplify(e)
        text = render(s)
        assert parse(text) == s
        assert render(parse(text)) == text
        assert evalf(parse(text), env) == pytest.approx(evalf(e, env), rel=1e-12)


def test_render_sends_no_constant_to_the_factor_writer(monkeypatch):
    # _render_mul takes every constant factor as the coefficient, and
    # simplify folds every power of a constant, so no Const is a multiplicand
    import normform.expr as ex

    seen = []
    factor = ex._render_factor

    def recording(e):
        seen.append(type(e))
        return factor(e)

    monkeypatch.setattr(ex, "_render_factor", recording)

    @settings(max_examples=300, deadline=None)
    @given(small_exprs(wide=True), st.sampled_from([TERM_BUDGET, 2, 4, 8]))
    def check(e, budget):
        # small budgets reach simplify's over-budget product
        try:
            with term_budget(budget):
                render(e)
        except ZeroDivisionError:
            assume(False)

    check()
    assert seen and Const not in seen


def test_subs_simplifies():
    e = subs(parse("x1*x4"), {"x4": parse("1 - x1")})
    assert e == parse("x1 - x1^2")


def test_variable_ordering_numeric_suffix():
    assert Var("x2").key < Var("x10").key


def test_numeric_equivalent_redraws_overflowing_points():
    # exp(1000 x) overflows for x > 0.71 and x^400 for |x| > 5.9; such
    # points are redrawn like any other non-finite one
    assert numeric_equivalent(parse("exp(1000*x)"), parse("exp(1000*x)"))
    assert numeric_equivalent(parse("x^400"), parse("x^400"),
                              box={"x": (-9, 9)})
    with pytest.raises(EvalError):
        numeric_equivalent(parse("10^400*x"), parse("x"))


def test_sample_box_keeps_the_per_coordinate_stream():
    # per-coordinate boxes, and rejections that leave chunks of uneven size
    box = [(-1.0, 1.0), (0.0, 5.0), (-3.0, -2.0)]

    def evaluate(p):
        return [np.where(p[0] > 0.3, p[1] * p[2], np.nan), 2.0]

    pts, (v, c) = sample_box(evaluate, box, 20, np.random.default_rng(4), 500)
    rng = np.random.default_rng(4)
    want = []
    while len(want) < 20:
        pt = [rng.uniform(lo, hi) for lo, hi in box]
        if pt[0] > 0.3:
            want.append(pt)
    assert np.array_equal(pts, want)
    assert np.array_equal(v, pts[:, 1] * pts[:, 2])
    assert np.array_equal(c, np.full(20, 2.0))


def test_sample_box_budget_cutoff_and_constant_failures():
    rng = np.random.default_rng(0)
    pts, (v,) = sample_box(lambda p: [1.0 / (p[0] - p[0])], [(-1, 1)] * 2,
                           10, rng, 35)
    assert pts.shape == (0, 2) and v.shape == (0,)
    # exactly the 35 allowed points were drawn
    assert rng.uniform() == np.random.default_rng(0).uniform(size=71)[-1]
    pts, (v,) = sample_box(lambda p: [1.0 / p[0]], [(-1, 1)], 50,
                           np.random.default_rng(1), 10_000, cutoff=4.0)
    assert len(pts) == 50 and np.all(np.abs(v) <= 4.0)
    # a constant that no float holds fails at every point alike
    with pytest.raises(EvalError, match="undefined at every point"):
        sample_box(compile_exprs([parse("10^400*x")], ["x"]),
                   [(-1, 1)], 5, np.random.default_rng(0), 100)


def _tree_names(e):
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (Add, Mul)):
        return set().union(*map(_tree_names, e.terms if isinstance(e, Add)
                                else e.factors))
    if isinstance(e, Pow):
        return _tree_names(e.base)
    if isinstance(e, Func):
        return _tree_names(e.arg)
    return set()


def _reference_numeric_equivalent(e1, e2, seed=0, points=32, tol=1e-9,
                                  box=None):
    """The per-point evalf loop that numeric_equivalent replaced, one
    coordinate per rng call, over the names in the trees as given.  Kept
    as the reference for identical verdicts."""
    names = sorted(_tree_names(e1) | _tree_names(e2))
    rng = np.random.default_rng(seed)
    got = attempts = 0
    while got < points:
        attempts += 1
        if attempts > SAMPLE_REDRAWS * points:
            raise EvalError("could not find enough valid sample points")
        env = {n: rng.uniform(*(box or {}).get(n, (-0.9, 0.9))) for n in names}
        try:
            v1 = _reference_evalf(e1, env)
            v2 = _reference_evalf(e2, env)
        except EvalError:
            continue
        if not (math.isfinite(v1) and math.isfinite(v2)):
            continue
        if abs(v1) > SAMPLE_CUTOFF or abs(v2) > SAMPLE_CUTOFF:
            continue
        if abs(v1 - v2) > tol * (1.0 + max(abs(v1), abs(v2))):
            return False
        got += 1
    return True


def _verdict(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (EvalError, ZeroDivisionError) as exc:
        return type(exc).__name__


@settings(max_examples=300, deadline=None)
@given(small_exprs(wide=True), small_exprs(wide=True),
       st.sampled_from(["other", "canonical", "shifted"]),
       st.sampled_from([None, {"x1": (-3.0, 3.0)},
                        {"x2": (0.5, 2.0), "x3": (-5.0, -1.0)}]),
       st.integers(0, 5))
def test_numeric_equivalent_matches_per_point_reference(e1, e2, pair, box,
                                                        seed):
    # raw trees with poles (negative powers), sqrt, abs and exp, against
    # another tree, their own canonical form, or that form shifted a little
    if pair != "other":
        try:
            e2 = simplify(e1)
        except ZeroDivisionError:
            assume(False)
        if pair == "shifted":
            e2 = e2 + const(Fraction(1, 1000))
    try:
        want = _verdict(_reference_numeric_equivalent, e1, e2, seed=seed,
                        box=box)
    except OverflowError:
        assume(False)   # the reference walk lets an exp overflow escape
    assert _verdict(numeric_equivalent, e1, e2, seed=seed, box=box) == want


def test_numeric_equivalent_samples_the_names_as_given():
    # x1 - x1 cancels in the canonical form, but the tree as given reads x1
    assert numeric_equivalent(Var("x1") - Var("x1") + Var("y"), Var("y"))
    assert not numeric_equivalent(Var("x1") * Var("y") - Var("x1"), Var("y"))


# ---------------------------------------------------------------------------
# Compiler: value numbering against the inlining compilers it replaced
# ---------------------------------------------------------------------------

def _old_pycode(e, names, square=False):
    if isinstance(e, Const):
        if isinstance(e.value, Fraction) and e.value.denominator == 1:
            return f"({e.value.numerator})"
        return f"({float(e.value)!r})"
    if isinstance(e, Var):
        return f"_a[{names.index(e.name)}]"
    if isinstance(e, Add):
        return "(" + "+".join(_old_pycode(t, names, square)
                              for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + "*".join(_old_pycode(t, names, square)
                              for t in e.factors) + ")"
    if isinstance(e, Pow):
        base = _old_pycode(e.base, names, square)
        if e.exp == 2 and square:   # the float backend writes a product
            return f"({base}*{base})"
        if e.exp < 0:
            return f"({base}**({float(e.exp)}))"
        return f"({base}**{e.exp})"
    fn = {"sin": "_np.sin", "cos": "_np.cos", "exp": "_np.exp",
          "sqrt": "_np.sqrt", "abs": "_np.abs", "sign": "_np.sign"}[e.fname]
    return f"{fn}({_old_pycode(e.arg, names, square)})"


def _old_compile_exprs(exprs, names):
    body = "[" + ",".join(_old_pycode(e, list(names)) for e in exprs) + "]"
    return eval(f"lambda _a, _np=_np: {body}", {"_np": np})


class _OldScalarMath:
    sin = staticmethod(math.sin)
    cos = staticmethod(math.cos)
    abs = staticmethod(abs)

    @staticmethod
    def exp(v):
        try:
            return math.exp(v)
        except OverflowError:
            return math.inf

    @staticmethod
    def sqrt(v):
        return math.sqrt(v) if v >= 0 else math.nan

    @staticmethod
    def sign(v):
        # a nan argument as it is, as numpy's sign
        return float((v > 0) - (v < 0)) if v == v else v


def _old_compile_exprs_scalar(exprs, names):
    body = "[" + ",".join(_old_pycode(e, list(names), square=True)
                          for e in exprs) + "]"
    return eval(f"lambda _a, _np=_sm: {body}", {"_sm": _OldScalarMath})


@st.composite
def shared_expr_lists(draw):
    """Lists of raw trees built over a small pool of subtrees, each reused
    as the same object or as a structural copy, beside fresh trees."""
    pool = draw(st.lists(small_exprs(wide=True), min_size=1, max_size=3))
    funcs = ("sin", "cos", "abs", "sqrt", "exp", "sign")

    def rec(d):
        if d == 0:
            kind = draw(st.integers(0, 2))
            if kind == 2:
                return draw(small_exprs(wide=True))
            e = draw(st.sampled_from(pool))
            return unmarked_copy(e) if kind else e
        k = draw(st.integers(0, 3))
        if k == 0:
            return Add(tuple(rec(d - 1) for _ in range(draw(st.integers(2, 3)))))
        if k == 1:
            return Mul(tuple(rec(d - 1) for _ in range(draw(st.integers(2, 3)))))
        if k == 2:
            return Pow(rec(d - 1), draw(st.integers(-2, 3)))
        return Func(draw(st.sampled_from(funcs)), rec(d - 1))

    return [rec(draw(st.integers(0, 3)))
            for _ in range(draw(st.integers(1, 4)))]


def _outcome(fn, args):
    try:
        with np.errstate(all="ignore"):
            return fn(args)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(shared_expr_lists(), st.integers(0, 3))
def test_compilers_match_the_inlining_compilers(exprs, seed):
    names = ["x1", "x2", "x3"]
    pts = np.random.default_rng(seed).uniform(-2, 2, size=(3, 24))
    # poles, overflow in powers and products, and inf
    pts[:, :8] = [[0.0, 1.0, -1.0, 0.0, 1e200, 0.0, math.inf, -3e160],
                  [0.0, 0.0, 2.0, -0.5, 0.0, 1e300, 1.0, 1e-200],
                  [0.0, 1.0, 0.0, 3.0, -1e155, 0.0, 0.0, -math.inf]]
    want = _outcome(_old_compile_exprs(exprs, names), list(pts))
    got = _outcome(compile_exprs(exprs, names), list(pts))
    if isinstance(want, type):
        assert got is want
    else:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))
    old = _old_compile_exprs_scalar(exprs, names)
    new = compile_exprs_scalar(exprs, names)
    for p in pts.T.tolist():
        want, got = _outcome(old, p), _outcome(new, p)
        # repr tells nan, -0.0, an int and a float apart
        assert repr(got) == repr(want)


@st.composite
def kernel_lists(draw):
    """shared_expr_lists with a constant root, a bare-variable root and a
    power of a sum over x3, which the kernel test passes as a float."""
    exprs = draw(shared_expr_lists())
    x3 = Var("x3") + Const(Fraction(1, 2))
    extra = [Const(Fraction(draw(st.integers(-3, 3)))),
             Var(draw(st.sampled_from(("x1", "x2", "x3")))),
             Pow(x3, draw(st.integers(-2, 3))) * Func("sin", x3) + exprs[0]]
    return draw(st.permutations(exprs + extra))


_LONG_SUM = Add(tuple(Const(Fraction(i % 7 - 3)) * Var(f"x{i % 3 + 1}")
                      * Func(("sin", "exp", "abs")[i % 3], Var("x3"))
                      for i in range(300)))


@settings(max_examples=200, deadline=None)
@given(kernel_lists(), st.integers(0, 3))
@example([_LONG_SUM, Pow(_LONG_SUM, 3), Var("x1")], 0)
@example([Add((Var("x1"),)), Mul((Func("sin", Var("x2")),)), Var("x3")], 1)
def test_numpy_stepper_stage_gives_the_bits_of_compile_exprs(exprs, seed):
    assert len(_LONG_SUM.terms) > _CHUNK
    pts = np.random.default_rng(seed).uniform(-2, 2, size=(3, 1000))
    # poles, overflow in powers and products, and inf
    pts[:, :8] = [[0.0, 1.0, -1.0, 0.0, 1e200, 0.0, math.inf, -3e160],
                  [0.0, 0.0, 2.0, -0.5, 0.0, 1e300, 1.0, 1e-200],
                  [0.0, 1.0, 0.0, 3.0, -1e155, 0.0, 0.0, -math.inf]]
    # x3 is w, so the stepper reads it as one array or as a float
    names = ["x1", "x2"] + [f"p{i}" for i in range(len(exprs) - 2)] + ["x3"]
    lam = compile_exprs(exprs, names)
    steps = compile_block_numpy(exprs, names, "euler", 1e16)
    for size in (1, 7, 1000):
        rows = np.zeros((2, len(exprs), size))
        stages = np.empty((5, len(exprs), size))
        for x3 in (pts[2, :size], float(pts[2, seed]), float(pts[2, 8 + seed])):
            rows[0, :2] = pts[:2, :size]
            args = [*rows[0], x3]
            want = _outcome(lam, args)

            def stage(_):
                # one Euler step at dt 1 leaves 1.0*f in stages[0], which
                # keeps the bits of f: nan payloads, -0.0 and subnormals
                steps(rows, [x3], [x3], [x3], 1.0, 0,
                      np.ones(size, dtype=bool), np.zeros(size, dtype=int),
                      stages)

            got = _outcome(stage, None)
            if isinstance(want, type):
                assert got is want
                continue
            assert got is None
            for row, v in zip(stages[0], want):
                # bit for bit, but a nan's sign: where a sum meets two nans
                # numpy's in-place loop on one element returns the second
                v = np.broadcast_to(np.asarray(v, dtype=float), (size,))
                assert np.array_equal(np.isnan(row), np.isnan(v))
                assert row[~np.isnan(row)].tobytes() == \
                    v[~np.isnan(v)].tobytes()


def _func_values(exprs):
    seen = {}

    def walk(e):
        if isinstance(e, Func):
            seen.setdefault(e.fname, set()).add(e.key)
        for c in getattr(e, "terms", ()) + getattr(e, "factors", ()):
            walk(c)
        if isinstance(e, Pow):
            walk(e.base)
        if isinstance(e, Func):
            walk(e.arg)

    for e in exprs:
        walk(e)
    return seen


@settings(max_examples=300, deadline=None)
@given(shared_expr_lists())
def test_kernel_source_writes_each_function_value_once(exprs):
    src = _kernel_source(exprs, ["x1", "x2", "x3"])
    values = _func_values(exprs)
    for fname in ("sin", "cos", "abs", "sqrt", "exp", "sign"):
        assert src.count(f"_{fname}(") == len(values.get(fname, ()))


@settings(max_examples=300, deadline=None)
@given(shared_expr_lists())
def test_backends_agree_reads_the_kernel_operations(exprs):
    src = _kernel_source(exprs, ["x1", "x2", "x3"])
    inexact = ("**", "_exp(", "_sin(", "_cos(")
    assert backends_agree(exprs) == (not any(op in src for op in inexact))


def test_kernel_source_without_repeats_is_the_inlined_lambda():
    e = Add((Mul((Const(Fraction(2)), Func("sin", Var("x2")))),
             Pow(Var("x1"), -2), Const(0.5)))
    assert _kernel_source([e, Var("x1")], ["x1", "x2"]) == \
        "lambda _a: [(((2)*_sin(_a[1]))+(_a[0]**(-2.0))+(0.5)),_a[0]]"
    twice = Func("cos", Var("x1"))
    assert _kernel_source([twice * twice, Func("cos", Var("x1"))], ["x1"]) == \
        "lambda _a: [((_t1:=_cos(_a[0]))*_t1),_t1]"


def test_long_sum_expands_as_the_pairwise_fold():
    # _expand adds a term no larger than the sum so far in place; the fold
    # of _frac_add copied the sum for every term.  Larger terms, cancelling
    # monomials, zero terms and denominators take both branches.
    x1, x2 = Var("x1"), Var("x2")
    long = [x1, simplify((x1 + x2 + 1) ** 6)]
    long += [simplify(Const(Fraction(i % 7 - 3, 1 + i % 2)) * x1 ** (i % 40)
                      * x2 ** (i // 40)) for i in range(2000)]
    long += [simplify(-x1 * x2 ** 3), simplify((x1 - x2) ** 3)]
    over = [x2, simplify(x2 / (x1 + 1)), simplify(x1 ** 2 / (x1 + 1)),
            simplify(-x2 / (x1 + 1)), simplify((x1 + x2) ** 4), ONE,
            simplify(x1 / (x1 + 1))]
    for terms in (long, over):
        want = _Frac({}, _poly_const(1))
        for t in terms:
            want = _frac_add(want, _to_frac(t))
        got = _expand(Add(tuple(terms)))
        for p, q in zip(got, want):
            assert list(p.items()) == list(q.items())
        assert simplify(Add(tuple(terms))).key == \
            _frac_written(_frac_cancel(*want))[0].key


def test_long_sums_compile_in_both_backends_as_a_left_fold():
    # a canonical sum at the term budget, written from its polynomial as
    # simplify writes it; Python's compiler recurses once per operator, so
    # the kernel folds long chains in chunks
    names = ["x1", "x2", "x3", "x4"]
    full = _poly_written({
        mono(*((Var(x), i // 10 ** k % 10) for k, x in enumerate(names)
               if i // 10 ** k % 10)): Fraction((-1) ** i * (1 + i % 5), 1 + i % 3)
        for i in range(TERM_BUDGET)})[0]
    assert len(full.terms) == TERM_BUDGET
    assert simplify(Add(full.terms[:300])).terms == full.terms[:300]
    pts = np.random.default_rng(3).uniform(-1.01, 1.01, size=(4, 5))
    for compile_, args in ((compile_exprs_scalar, pts[:, 0].tolist()),
                           (compile_exprs, list(pts))):
        vals = compile_(list(full.terms), names)(args)
        for size in (5000, TERM_BUDGET):
            (got,) = compile_([Add(full.terms[:size])], names)(args)
            want = vals[0]
            for v in vals[1:size]:
                want = want + v
            assert np.array_equal(got, want)
    # a short chain keeps its one-expression source
    short = Add(full.terms[:256])
    assert _kernel_source([short], names).startswith("lambda _a: [((")
    assert "_s" not in _kernel_source([short], names)


def test_compile_rejects_a_non_finite_constant():
    for compile_ in (compile_exprs, compile_exprs_scalar):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(EvalError, match="not finite"):
                compile_([Var("x") + Const(value)], ["x"])
    with pytest.raises(ParseError, match="number 1e999 is not finite"):
        parse("x + 1e999")


def test_scalar_sqrt_gives_numpy_nan_bits():
    # numpy's default nan below zero; a nan argument keeps sign and payload
    payload = np.array([0x7FF8000000001234], dtype=np.uint64).view(float)[0]
    sqrt = compile_exprs_scalar([Func("sqrt", Var("x"))], ["x"])
    for v in (-1.0, -0.0, -math.inf, math.nan, -math.nan, float(payload)):
        with np.errstate(invalid="ignore"):
            want = np.sqrt(np.float64(v))
        got = np.float64(sqrt([v])[0])
        assert got.view(np.uint64) == want.view(np.uint64), v


def test_scalar_sign_gives_numpy_bits():
    # a nan argument keeps its sign and payload; sign(-0.0) is 0.0
    payload = np.array([0x7FF8000000001234], dtype=np.uint64).view(float)[0]
    sign = compile_exprs_scalar([Func("sign", Var("x"))], ["x"])
    for v in (2.5, -2.5, 0.0, -0.0, math.inf, -math.inf, math.nan,
              -math.nan, float(payload), -float(payload)):
        want = np.sign(np.float64(v))
        got = np.float64(sign([v])[0])
        assert got.view(np.uint64) == want.view(np.uint64), v
    x = Var("x")
    undefined = Func("sign", Func("sqrt", x + Const(Fraction(-1))))
    with pytest.raises(EvalError, match="not finite"):
        evalf(undefined, {"x": 0.0})


def test_compile_binds_names_as_list_index_does():
    for compile_ in (compile_exprs, compile_exprs_scalar):
        with pytest.raises(EvalError, match="unbound variable 'y'"):
            compile_([Var("x") + Var("y")], ["x"])
        # a repeated name reads its first slot
        assert compile_([Var("w")], ["w", "x", "w"])([1.0, 2.0, 3.0]) == [1.0]


# compiled once per process: kernels of one source share a code object,
# never an environment or scratch rows
_SHARED_SOURCE = [parse("(x1 + x2)*(x1 - x2) + sin(x1*x2)*(x1*x2 + 1)"),
                  parse("x1*x2*x2 + (x1 + 1)*(x2 + 2) + x1^3")]


def _uncached(monkeypatch):
    from normform import expr
    monkeypatch.setattr(expr, "_code", expr._code.__wrapped__)


def _numpy_block(steps, x0, w, dt):
    """The rows, live flags and ends of one block of a numpy stepper from
    the (n, nruns) state x0, one step per value of w."""
    nruns = x0.shape[1]
    rows = np.zeros((len(w) + 1,) + x0.shape)
    rows[0] = x0
    live, end = np.ones(nruns, dtype=bool), np.full(nruns, len(w) + 1)
    steps(rows, w, w, w, dt, 0, live, end, np.empty((5,) + x0.shape))
    return rows.tobytes(), live.tolist(), end.tolist()


def test_numpy_block_steppers_of_one_source_keep_their_own_scratch(
        monkeypatch):
    names = ["x1", "x2", "w"]
    k1 = compile_block_numpy(_SHARED_SOURCE, names, "rk4", 1e16)
    k2 = compile_block_numpy(_SHARED_SOURCE, names, "rk4", 1e16)
    assert k1.__code__ is k2.__code__ and k1.__globals__ is not k2.__globals__
    _uncached(monkeypatch)
    r1 = compile_block_numpy(_SHARED_SOURCE, names, "rk4", 1e16)
    r2 = compile_block_numpy(_SHARED_SOURCE, names, "rk4", 1e16)
    assert r1.__code__ is not k1.__code__
    rng = np.random.default_rng(3)
    # interleaved blocks of two run counts, each stepper against its own
    # compile; a call of one stepper leaves the other's scratch rows where
    # they were
    for k, nruns in enumerate([5, 3, 5, 3, 2]):
        steps, ref, other = (k1, r1, k2) if k % 2 == 0 else (k2, r2, k1)
        x0 = rng.uniform(-0.5, 0.5, size=(2, nruns))
        w = rng.uniform(-1, 1, size=20).tolist()
        rows = steps.__globals__["_scratch"]((nruns,))
        held = other.__globals__["_scratch"]((7,))
        got = _numpy_block(steps, x0, w, 0.01)
        assert got == _numpy_block(ref, x0, w, 0.01) and all(got[1])
        assert rows and steps.__globals__["_scratch"]((nruns,)) is rows
        assert other.__globals__["_scratch"]((7,)) is held


def test_block_steppers_of_one_source_run_independently(monkeypatch):
    exprs = [parse("x2"), parse("-x1 + x2^2 + w")]
    names = ["x1", "x2", "w"]
    s1 = compile_block_scalar(exprs, names, "rk4", 1e8)
    s2 = compile_block_scalar(exprs, names, "rk4", 1e8)
    assert s1.__code__ is s2.__code__ and s1.__globals__ is not s2.__globals__
    _uncached(monkeypatch)
    ref = compile_block_scalar(exprs, names, "rk4", 1e8)
    w = [0.1 * k for k in range(40)]
    w1, w2, w4 = w[:-1], [v + 0.05 for v in w[:-1]], w[1:]
    # interleaved blocks: the first stepper continues its run, the second
    # restarts one that leaves the bound within the block
    x, y = (0.5, -0.2), (3.0, 2.0)
    for _ in range(3):
        got1, got2 = s1(x, w1, w2, w4, 0.01), s2(y, w1, w2, w4, 0.1)
        assert got1 == ref(x, w1, w2, w4, 0.01) and got1[1] is None
        assert got2 == ref(y, w1, w2, w4, 0.1) and got2[1] is True
        assert len(got2[0]) < len(w1)
        x = got1[0][-1]


def test_a_repeated_source_is_a_cache_hit():
    from normform.expr import _CODE_CACHE_SIZE, _code
    assert _code.cache_info().maxsize == _CODE_CACHE_SIZE < math.inf
    exprs, names = [parse("x1*x2 + sqrt(2)*x1")], ["x1", "x2"]
    compile_exprs_scalar(exprs, names)
    before = _code.cache_info()
    f = compile_exprs_scalar(exprs, names)
    g = compile_exprs(exprs, names)
    after = _code.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
    assert f is not g and f.__code__ is g.__code__
    assert f([2.0, 3.0]) == [6.0 + math.sqrt(2) * 2.0]


def _squares_as_products(e):
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Pow):
        b = _squares_as_products(e.base)
        return Mul((b, b)) if e.exp == 2 else Pow(b, e.exp)
    if isinstance(e, Func):
        return Func(e.fname, _squares_as_products(e.arg))
    kids = tuple(map(_squares_as_products, getattr(e, "terms", ())
                     or e.factors))
    return Add(kids) if isinstance(e, Add) else Mul(kids)


def _subtrees(e):
    yield e
    for c in getattr(e, "terms", ()) + getattr(e, "factors", ()):
        yield from _subtrees(c)
    if isinstance(e, (Pow, Func)):
        yield from _subtrees(e.base if isinstance(e, Pow) else e.arg)


def _finite_or_none(evaluate, e, env):
    try:
        v = evaluate(e, env)
    except (ZeroDivisionError, OverflowError, ValueError):
        return None
    return v if math.isfinite(v) else None


@settings(max_examples=200, deadline=None)
@given(shared_expr_lists(), st.integers(0, 3))
def test_evalf_matches_the_reference_walk(exprs, seed):
    names = ["x1", "x2", "x3"]
    pts = np.random.default_rng(seed).uniform(-2, 2, size=(3, 8))
    # poles, overflow in powers and products, and tiny values
    pts[:, :5] = [[0.0, 1.0, -1.0, 1e200, -3e160],
                  [0.0, 0.0, 2.0, 0.0, 1e-200],
                  [0.0, 1.0, 0.0, -1e155, 2.0]]
    for e in exprs:
        as_products = _squares_as_products(e)
        squares = any(isinstance(s, Pow) and s.exp == 2 for s in _subtrees(e))
        for p in pts.T.tolist():
            env = dict(zip(names, p))
            want = _finite_or_none(_reference_evalf, e, env)
            try:
                got = evalf(e, env)
            except EvalError:
                got = None
            if got is None:
                assert want is None
            elif want is None:
                # the kernel carries an inner inf or nan on, as
                # SymMatrix.sample does: 1/inf is 0
                assert any(_finite_or_none(evalf, s, env) is None
                           for s in _subtrees(e))
            else:
                # bit for bit with each square written as a product (a sum
                # from 0 may give 0.0 for -0.0); a square itself is a pow
                # in the walk and can differ from the product by one ulp
                assert got == _reference_evalf(as_products, env)
                if not squares:
                    assert got == want
    for x in pts[:, 5:].ravel().tolist():
        square = evalf(Pow(Var("x"), 2), {"x": x})
        assert abs(square - x ** 2) <= math.ulp(x ** 2)


def test_evalf_raises_eval_error_where_undefined():
    x = Var("x")
    for e, env in [(Pow(x, -1), {"x": 0.0}), (Func("sqrt", x), {"x": -1.0}),
                   (Func("exp", x), {"x": 1e3}), (x * x * x, {"x": 1e200}),
                   (Func("sin", x), {"x": math.inf}), (x + Var("y"), {"x": 1.0})]:
        with pytest.raises(EvalError):
            evalf(e, env)
    assert evalf(parse("2"), {}) == 2.0 and type(evalf(parse("2"), {})) is float


# ---------------------------------------------------------------------------
# Node memos: a stored derivative or polynomial form is what a fresh node
# with blank slots gives
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(small_exprs(wide=True), st.booleans(), st.sampled_from(["x1", "x2"]))
def test_diff_memo_matches_fresh_copy(e, canonical, name):
    if canonical:
        e = simplified_or_reject(e)
    try:
        d = diff(e, name)
    except ZeroDivisionError:
        assume(False)
    assert d.key == simplify(_diff_raw(unmarked_copy(e), name)).key
    assert diff(e, name) is d
    assert e._memo[name] is d


# a float coefficient 1.0 is written as no coefficient, so the tree of
# -1.0/x1 + 1.0*x3 reads back with an exact 1
FLOAT_ONE_CASE = (Const(-1.0), Pow(Var("x1"), -1), True)


@settings(max_examples=150, deadline=None)
@given(small_exprs(wide=True), small_exprs(wide=True), st.booleans())
@example(*FLOAT_ONE_CASE)
def test_memoized_children_simplify_as_fresh_copies(e1, e2, product):
    s1, s2 = simplified_or_reject(e1), simplified_or_reject(e2)
    op = Mul if product else Add

    def tree(a, b):
        # s1 twice, once nested, so its stored form is read back in one call
        return op((a, Add((b, Mul((a, Var("x3")))))))

    try:
        first = simplify(tree(s1, s2))
    except ZeroDivisionError:
        assume(False)
    again = simplify(tree(s1, s2))
    fresh = simplify(tree(unmarked_copy(s1), unmarked_copy(s2)))
    assert first.key == again.key == fresh.key
    if not isinstance(s1, (Const, Var)):
        assert _FRAC_KEY in s1._memo


def _typed(p):
    # in order: float products and the Pythagorean pass read dicts in order
    return [(m, type(c), c) for m, c in p.items()]


@settings(max_examples=300, deadline=None)
@given(small_exprs(wide=True), st.sampled_from([TERM_BUDGET, 2, 4, 8]))
@example(Mul((FLOAT_ONE_CASE[0], Add((FLOAT_ONE_CASE[1],
                                      Mul((FLOAT_ONE_CASE[0], Var("x3"))))))),
         TERM_BUDGET)
# 1/(1/x1 + 1): the expansion orders a denominator by leading monomial
@example(Pow(Add((Pow(Var("x1"), -1), Const(1))), -1), TERM_BUDGET)
# the x1 coefficient 2 * 1/2 is a whole Fraction; the expansion reads an int
@example(Pow(Add((Var("x1"), Pow(Const(2), -1))), 2), TERM_BUDGET)
def test_simplify_stores_the_fraction_of_a_fresh_copy(e, budget):
    with term_budget(budget):
        try:
            s = simplify(unmarked_copy(e))
        except ZeroDivisionError:
            assume(False)
        stored = (s._memo or {}).get(_FRAC_KEY)
        if stored is not None:
            fresh = _to_frac(unmarked_copy(s))
            assert [_typed(p) for p in stored] == [_typed(p) for p in fresh]


def test_simplify_stores_exact_fractions_only():
    s = simplify(parse("x1/(1 + x2)") + 3)
    assert s._memo[_FRAC_KEY] == _to_frac(unmarked_copy(s))
    assert simplify(parse("0.5*x1/(1 + x2)"))._memo is None


@settings(max_examples=100, deadline=None)
@given(polynomials(), rational_functions(floats=True))
def test_stored_fraction_multiplies_floats_as_a_fresh_copy(e1, e2):
    # a float coefficient of a product sums its contributions in the order
    # of the factors' dicts, so a stored exact factor must keep that order
    s1 = simplified_or_reject(e1 * e1 + e1)
    try:
        first = simplify(Mul((s1, e2)))
    except ZeroDivisionError:
        assume(False)
    assert first.key == simplify(Mul((unmarked_copy(s1), e2))).key


_SIN, _COS = Func("sin", Var("x1")), Func("cos", Var("x1"))
POLY_COEFFS = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
        bool).map(lambda c: c.numerator if c.denominator == 1 else c),
    st.sampled_from((0.5, -1.25, 0.1, 3.0, 1.0)))


@st.composite
def poly_dicts(draw, min_terms=0):
    """A polynomial dict over x1, x2, sin(x1), cos(x1), with exact and float
    coefficients; some monomials come with sin^2 and cos^2 partners."""
    p = {}
    for _ in range(draw(st.integers(min_terms, 4))):
        m = mono(*((atom, e) for atom in (Var("x1"), Var("x2"), _SIN, _COS)
                   if (e := draw(st.integers(0, 2)))))
        p[m] = draw(POLY_COEFFS)
        if draw(st.booleans()):
            for atom in (_SIN, _COS):
                p[_mono_mul(m, mono((atom, 2)))] = draw(POLY_COEFFS)
    return p


DENOMINATORS = st.one_of(st.sampled_from(tuple({mono(): c} for c in
                                               (1, 1.0, Fraction(1), 2, -1))),
                         poly_dicts(min_terms=1))


def _cancelled(fn, *args):
    try:
        return [_typed(p) for p in fn(*args)]
    except (ZeroDivisionError, BudgetError, StopIteration) as exc:
        # StopIteration: a denominator that the Pythagorean pass empties
        return type(exc)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(poly_dicts(), DENOMINATORS, poly_dicts(), DENOMINATORS)
@example({mono((_SIN, 2)): 3, mono((_COS, 2)): 5, mono(): 1}, {mono(): 1}, {},
         {mono(): 1})
@example({mono((_SIN, 2), (Var("x2"), 1)): 0.5,
          mono((_COS, 2), (Var("x2"), 1)): 1.0},
         {mono(): 1}, {mono((_SIN, 2)): 2}, {mono(): 1.0})
def test_frac_cancel_matches_the_general_body(n1, d1, n2, d2):
    # the exact denominator 1 takes a fast path with the general result:
    # the same dicts, in the same order, with the same coefficient types
    assert _cancelled(_frac_cancel, n1, d1) == _cancelled(
        _reference_frac_cancel, n1, d1)
    want = _cancelled(lambda: _reference_frac_cancel(_poly_mul(n1, n2),
                                                     _poly_mul(d1, d2)))
    assert _cancelled(_frac_mul, _Frac(n1, d1), _Frac(n2, d2)) == want


_DEN_FACTORS = tuple(_to_frac(parse(t)).num for t in ("1 + x1^2*x2", "1 - x1", "x2"))


@st.composite
def exact_fractions(draw):
    """An exact fraction over x1, x2 as _frac_cancel leaves it, whose
    denominator is a product of powers of 1 + x1^2 x2, 1 - x1 and x2."""
    num = {}
    for _ in range(draw(st.integers(0, 3))):
        m = mono(*((Var(x), e) for x in ("x1", "x2")
                   if (e := draw(st.integers(0, 2)))))
        num[m] = draw(st.integers(-3, 3).filter(bool))
    den = _poly_const(1)
    for p in _DEN_FACTORS:
        k = draw(st.integers(0, 3))
        if k:
            den = _poly_mul(den, _poly_pow(p, k))
    return _Frac(num, den) if not num else _frac_cancel(num, den)


def _sympy_poly(p):
    import sympy

    return sympy.Add(*(c * sympy.Mul(*(sympy.Symbol(t.atom.name) ** -e
                                       for t, e in m[1:]))
                       for m, c in p.items()))


@settings(max_examples=100, deadline=None)
@given(exact_fractions(), exact_fractions())
@example(_Frac({mono(): 1}, _poly_pow(_DEN_FACTORS[0], 2)),
         _Frac({mono(): 1}, _poly_pow(_DEN_FACTORS[0], 3)))
def test_frac_add_keeps_the_multiple_of_the_denominators(f1, f2):
    # a/d1 + b/d2 with d1 = k d2 is (a + b k)/d1: the sum of 1/q^2 and 1/q^3
    # is over q^3, not q^5
    import sympy

    got = _frac_add(f1, f2)
    assert got == _frac_add(f2, f1)
    d1, d2 = _sympy_poly(f1.den), _sympy_poly(f2.den)
    want = sympy.cancel(_sympy_poly(f1.num) / d1 + _sympy_poly(f2.num) / d2)
    assert sympy.cancel(_sympy_poly(got.num) / _sympy_poly(got.den) - want) == 0
    gens = sympy.symbols("x1 x2")
    for big, small in ((d1, d2), (d2, d1)):
        if sympy.div(big, small, *gens)[1] == 0:
            # _frac_cancel may take a common factor off the multiple
            assert sympy.div(big, _sympy_poly(got.den), *gens)[1] == 0


# The monomial layout before a monomial was its own sort key: (atom, e)
# pairs sorted by atom key, ordered by _old_mono_key, multiplied and divided
# by the pair arithmetic below.  The stored layout must agree with it.  No
# atom is a nested |.|: there the old rule stopped after one level.
def _old_mono_key(m):
    return (-sum(e for _, e in m), tuple((a.key, -e) for a, e in m))


def _old_mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = {}
    for a, e in m1:
        d[a] = d.get(a, 0) + e
    for a, e in m2:
        d[a] = d.get(a, 0) + e
    for a in list(d):
        e = d[a]
        if (e >= 2 and isinstance(a, Func) and a.fname == "abs"
                and isinstance(a.arg, (Var, Func))):
            k = e - (e % 2)
            d[a] = e % 2
            d[a.arg] = d.get(a.arg, 0) + k
    return tuple(sorted(((a, e) for a, e in d.items() if e != 0),
                        key=lambda ae: ae[0].key))


def _old_mono_divides(md, mn):
    dn = dict(mn)
    for a, e in md:
        if dn.get(a, 0) < e:
            return None
    for a, e in md:
        dn[a] -= e
    return tuple(sorted(((a, e) for a, e in dn.items() if e != 0),
                        key=lambda ae: ae[0].key))


def _stored(pairs):
    """The stored monomial of old-layout pairs, entry by entry."""
    if pairs is None:
        return None
    return (-sum(e for _, e in pairs), *((_token(a), -e) for a, e in pairs))


_X1, _X2 = Var("x1"), Var("x2")
ORACLE_ATOMS = (
    _X1, _X2, Var("x10"), Var("y"), Func("sin", _X1), Func("cos", _X1),
    Func("abs", _X2), Func("abs", Func("sin", _X1)), Func("sqrt", Add((_X1, _X2))),
    Func("abs", Add((_X1, Const(1)))), Add((_X1, Const(1))),     # opaque atoms:
    Pow(Add((_X1, _X2)), 3), Mul((_X1, Func("exp", _X2))))       # budget-capped


@st.composite
def old_monomials(draw):
    atoms = draw(st.lists(st.sampled_from(ORACLE_ATOMS), max_size=4,
                          unique_by=lambda a: a.key))
    return tuple(sorted(((a, draw(st.integers(1, 4))) for a in atoms),
                        key=lambda ae: ae[0].key))


@settings(max_examples=300, deadline=None)
@given(st.lists(old_monomials(), min_size=1, max_size=6), old_monomials())
def test_stored_monomials_order_multiply_and_divide_as_the_pairs(ms, m2):
    # the abs rule (|u|^2 = u^2 for an atomic u) may leave no pairs of the
    # old layout, so the oracle runs on what _old_mono_mul gives back
    new = [_stored(m) for m in ms]
    assert sorted(new) == [_stored(m) for m in sorted(ms, key=_old_mono_key)]
    assert _poly_lead(dict.fromkeys(new)) == _stored(min(ms, key=_old_mono_key))
    for m1 in ms:
        prod = _old_mono_mul(m1, m2)
        assert _mono_mul(_stored(m1), _stored(m2)) == _stored(prod)
        for md, mn in ((m1, m2), (m2, m1), (m1, prod), (m2, prod), (prod, m1)):
            assert _mono_divides(_stored(md), _stored(mn)) == \
                _stored(_old_mono_divides(md, mn))


def test_malformed_monomial_finds_each_broken_rule():
    good = mono((_X1, 2), (_X2, 1))
    x1, x2 = good[1][0], good[2][0]
    assert malformed_monomial({mono(): 1, good: 2}) is None
    for bad in ((-2, (x1, -2), (x2, -1)),      # wrong degree
                (-3, (x2, -1), (x1, -2)),      # not ascending
                (-2, (x1, -2), (x1, -2)),      # repeated token
                (-2, (x1, -2), (x2, 0)),       # exponent 0
                (1,)):
        assert malformed_monomial({good: 1, bad: 1}) == bad


class _Canary:
    """Stored in a node's memo, it lives as long as the node."""


def _atom_refs():
    """Weak references to the sin atom, the budget-capped atom (through a
    canary in each one's memo) and their tokens, of a product simplified
    with a small budget, and the tokens' keys; nothing else of it outlives
    the call."""
    import weakref

    e = Mul((Func("sin", Add((_X1, Var("x3")))),
             Pow(Add((_X1, _X2, Const(1))), 3)))
    with term_budget(4):
        s = simplify(unmarked_copy(e))
    (m,) = _to_frac(s).num
    toks = [t for t, _ in m[1:]]
    assert [type(t.atom).__name__ for t in toks] == ["Func", "Add"]
    return ([weakref.ref(t) for t in toks]
            + [weakref.ref(_memoized(t.atom, "canary", _Canary)) for t in toks],
            [str(t) for t in toks])


def test_tokens_do_not_outlive_their_polynomials():
    import gc

    from normform import expr

    refs, keys = _atom_refs()
    gc.collect()
    assert [r() for r in refs] == [None] * 4
    assert not any(k in expr._TOKENS for k in keys)


# ---------------------------------------------------------------------------
# diff and subs against sympy
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(rational_functions())
def test_diff_matches_sympy(e):
    import sympy

    try:
        d = diff(e, "x1")
    except ZeroDivisionError:
        assume(False)
    want = sympy.diff(sympy_expr(e), sympy.Symbol("x1"))
    assert sympy.cancel(sympy_expr(d) - want) == 0


@settings(max_examples=25, deadline=None)
@given(rational_functions(), polynomials(), polynomials())
def test_subs_matches_sympy(e, p1, p2):
    import sympy

    try:
        got = subs(e, {"x1": p1, "x2": p2})
    except ZeroDivisionError:
        assume(False)
    x1, x2 = sympy.symbols("x1 x2")
    want = sympy_expr(e).subs({x1: sympy_expr(p1), x2: sympy_expr(p2)},
                              simultaneous=True)
    assert sympy.cancel(sympy_expr(got) - want) == 0

