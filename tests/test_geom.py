"""Lie calculus primitives and the sampled involutivity test."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (_reference_diff_raw, _reference_evalf,
                      _reference_lie_bracket, unmarked_copy)
from normform import geom
from normform.expr import (_FRAC_KEY, SAMPLE_CUTOFF, SAMPLE_POINTS,
                           SAMPLE_REDRAWS, BudgetError, Const, EvalError, Func,
                           Pow, Var, _to_frac, const, diff, evalf, free_vars,
                           parse, numeric_equivalent, render, sample_box,
                           simplify)
from normform.geom import (SymMatrix, VectorField, ad_power, bracket_sampler,
                           involutive, jacobian, lie_bracket, lie_derivative,
                           lie_derivative_cols, rank)
from normform.normalform import _chain_fields, build_normal_form

STATES5 = ["x1", "x2", "x3", "x4", "x5"]


def five_state_field():
    return VectorField([parse(s) for s in ["x3", "x5", "x1", "x1*x2", "x4"]],
                       STATES5)


def five_state_inputs():
    return SymMatrix([[parse(a), parse(b)] for a, b in
                      [("0", "0"), ("0", "0"), ("1", "x3"), ("0", "1"),
                       ("x4", "x3*x4")]])


def test_jacobian_simple():
    J = jacobian([parse("x1*x2")], ["x1", "x2"])
    assert J.rows == [[parse("x2"), parse("x1")]]


def test_jacobian_coordinate_outputs():
    J = jacobian([parse("x1"), parse("x2")], STATES5)
    assert J.eval_at({}).tolist() == [
        [1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]


def test_jacobian_of_step2_residue():
    J = jacobian([parse("x4 - x1*x4")], STATES5)
    assert J.rows[0] == [parse("-x4"), const(0), const(0), parse("1 - x1"),
                         const(0)]


def test_lie_derivative_output_chain():
    f = five_state_field()
    assert lie_derivative(f, [parse("x1"), parse("x2")]) == \
        [parse("x3"), parse("x5")]
    assert lie_derivative(f, const(3)) == const(0)


def test_lie_derivative_matrix_rows():
    g = five_state_inputs()
    got = lie_derivative_cols(g, STATES5, [parse("x3"), parse("x5")])
    assert got.rows == [[parse("1"), parse("x3")], [parse("x4"), parse("x3*x4")]]


def test_lie_derivative_leibniz():
    f = five_state_field()
    lam, mu = parse("x1*x4"), parse("x2 + x3^2")
    lhs = lie_derivative(f, lam * mu)
    rhs = lam * lie_derivative(f, mu) + mu * lie_derivative(f, lam)
    assert numeric_equivalent(lhs, rhs, tol=1e-9)


STATES3 = ["x1", "x2", "x3"]


@st.composite
def exact_polynomials(draw, names=STATES3):
    """A raw polynomial over `names` (x1..x3) with exact coefficients, of
    degree at most 2 in each variable."""
    t = const(draw(st.fractions(-3, 3, max_denominator=4)))
    e = t
    for _ in range(draw(st.integers(0, 3))):
        t = const(draw(st.fractions(-3, 3, max_denominator=4)))
        for name in names:
            t = t * Pow(Var(name), draw(st.integers(0, 2)))
        e = e + t
    return e


@st.composite
def lie_inputs(draw):
    """A raw expression over x1..x3, most often a polynomial with exact
    coefficients, else one with a float coefficient, a denominator or a
    function atom; and whether it is the plain polynomial."""
    e = draw(exact_polynomials())
    kind = draw(st.integers(0, 5))
    if kind == 1:   # x3^3 is of a degree no drawn term has
        e = e + 0.5 * Pow(Var("x3"), 3)
    elif kind == 2:
        e = e + 1 / (Var("x1") + 1)
    elif kind == 3:
        e = e + Func("sin", Var("x2"))
    return e, kind not in (1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(st.lists(lie_inputs(), min_size=4, max_size=4), st.booleans())
def test_polynomial_lie_derivative_matches_tree_route(drawn, overflow):
    (lam, lam_poly), *comps = drawn
    f = VectorField([c for c, _ in comps], STATES3)
    real, calls = geom._poly_mul, []

    def poly_mul(p, q):
        calls.append(True)
        if overflow:   # a product over the budget: the tree route is taken
            raise BudgetError
        return real(p, q)

    with mock.patch.object(geom, "_poly_mul", poly_mul):
        got = lie_derivative(f, lam)
    tree = simplify(sum((diff(unmarked_copy(lam), n) * unmarked_copy(c)
                         for n, c in zip(STATES3, f.components)), const(0)))
    assert got.key == tree.key
    polynomial = lam_poly and all(p for _, p in comps)
    assert bool(calls) == (polynomial and bool(free_vars(lam)))
    if polynomial and not isinstance(got, (Const, Var)):
        assert got._memo[_FRAC_KEY] == _to_frac(unmarked_copy(got))


def _sympy(e):
    import sympy
    return sympy.parse_expr(render(e).replace("^", "**"))


@settings(max_examples=100, deadline=None)
@given(exact_polynomials(STATES3 + ["eps"]),
       st.lists(exact_polynomials(STATES3 + ["eps"]), min_size=2, max_size=2))
def test_lie_derivative_holds_non_state_names_fixed(lam, comps):
    # a field over x1, x2 whose components, like lam, read x3 and eps
    import sympy
    f = VectorField(comps, ["x1", "x2"])
    poly = lie_derivative(f, lam)
    with mock.patch.object(geom, "_poly_mul", side_effect=BudgetError):
        tree = lie_derivative(f, lam)
    want = sum((sympy.diff(_sympy(lam), sympy.Symbol(n)) * _sympy(c)
                for n, c in zip(f.states, comps)), sympy.Integer(0))
    for got in (poly, tree):
        assert sympy.expand(_sympy(got) - want) == 0
    assert poly.key == tree.key


@st.composite
def bracket_fields(draw):
    """The raw components of a vector field over x1..x3: exact polynomials,
    or one drawn component with a denominator, a sin or an exp atom added;
    and per component, whether it is the plain polynomial."""
    comps = [draw(exact_polynomials()) for _ in STATES3]
    plain = [True] * len(comps)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(comps) - 1))
        comps[i] = comps[i] + draw(st.sampled_from(
            [1 / (Var("x1") + 1), Func("sin", Var("x2")),
             Func("exp", Var("x3"))]))
        plain[i] = False
    return comps, plain


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(bracket_fields(), bracket_fields(), st.booleans())
def test_lie_bracket_matches_jacobian_route(drawn_f, drawn_g, overflow):
    (f_raw, f_plain), (g_raw, g_plain) = drawn_f, drawn_g
    f, g, f_ref, g_ref = (VectorField([unmarked_copy(c) for c in raw], STATES3)
                          for raw in (f_raw, g_raw, f_raw, g_raw))
    real, calls = geom._poly_mul, []

    def poly_mul(p, q):
        calls.append(True)
        if overflow:   # a product over the budget: the tree route is taken
            raise BudgetError
        return real(p, q)

    with mock.patch.object(geom, "_poly_mul", poly_mul):
        got = lie_bracket(f, g)
    want = _reference_lie_bracket(f_ref, g_ref)
    assert [c.key for c in got.components] == \
        [c.key for c in want.components]

    def dict_route(a_plain, b, b_plain):
        # L_a b_i is a polynomial product when a and b_i are polynomials
        # and b_i is not constant
        return all(a_plain) and any(
            p and free_vars(c) for c, p in zip(b.components, b_plain))

    # for two polynomial fields: whenever a component is not constant
    assert bool(calls) == (dict_route(f_plain, g, g_plain)
                           or dict_route(g_plain, f, f_plain))


def test_bracket_antisymmetry_and_self():
    f = five_state_field()
    g = VectorField(five_state_inputs().col(1), STATES5)
    assert lie_bracket(f, f).is_zero()
    fg = lie_bracket(f, g)
    gf = lie_bracket(g, f)
    from normform.expr import simplify
    assert all(simplify(a + b) == const(0)
               for a, b in zip(fg.components, gf.components))


def test_bracket_constant_fields():
    a = VectorField([const(1), const(2)], ["x1", "x2"])
    b = VectorField([const(-1), const(3)], ["x1", "x2"])
    assert lie_bracket(a, b).is_zero()


def test_bracket_dimension_mismatch():
    a = VectorField([const(1)], ["x1"])
    b = VectorField([const(1), const(0)], ["x1", "x2"])
    with pytest.raises(ValueError):
        lie_bracket(a, b)


_M12 = SymMatrix([[const(1), const(2)]])


@pytest.mark.parametrize("build, message", [
    (lambda: SymMatrix([[const(1)], [const(1), const(2)]]), "^ragged SymMatrix$"),
    (lambda: _M12 @ _M12, r"^shape mismatch \(1, 2\) @ \(1, 2\)$"),
    (lambda: _M12 - _M12.transpose(), "^shape mismatch$"),
    (lambda: _M12.vstack(_M12.transpose()), "^column mismatch in vstack$"),
    (lambda: SymMatrix.from_numpy(np.zeros(2)), "^expected 2-D array$"),
    (lambda: _M12.det(), "^determinant of non-square matrix$"),
    (lambda: _M12.inverse(), "^inverse of non-square matrix$"),
    (lambda: VectorField([const(1)], ["x1", "x2"]),
     "^component count must equal state count$"),
    (lambda: ad_power(VectorField([const(1)], ["x1"]),
                      VectorField([parse("x1")], ["x1"]), -1),
     "^ad power must be nonnegative$"),
    (lambda: bracket_sampler([]), "^need at least one vector field$"),
])
def test_malformed_shapes_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_reprs_show_rendered_entries():
    m = SymMatrix([[parse("x1*x2"), const(0)]])
    assert repr(m) == "SymMatrix([['x1*x2', '0']])"
    f = VectorField([parse("x2"), parse("-x1")], ["x1", "x2"])
    assert repr(f) == "VectorField(['x2', '-x1'], states=['x1', 'x2'])"


def test_jacobi_identity_numeric():
    rng = np.random.default_rng(5)
    names = ["x1", "x2", "x3"]
    polys = ["x2*x3", "x1^2 - x3", "x1*x2 + 1/2*x3^2", "x3", "x1 - x2^2",
             "x2", "x1*x3", "x2^2", "x1"]
    f = VectorField([parse(p) for p in polys[0:3]], names)
    g = VectorField([parse(p) for p in polys[3:6]], names)
    h = VectorField([parse(p) for p in polys[6:9]], names)
    resid = [lie_bracket(f, lie_bracket(g, h)),
             lie_bracket(g, lie_bracket(h, f)),
             lie_bracket(h, lie_bracket(f, g))]
    for _ in range(20):
        env = {n: rng.uniform(-1, 1) for n in names}
        for i in range(3):
            total = sum(evalf(r.components[i], env) for r in resid)
            assert abs(total) <= 1e-9


def test_ad_power_base_and_linear():
    f = five_state_field()
    g = VectorField(five_state_inputs().col(0), STATES5)
    assert ad_power(f, g, 0) == g
    # linear case: f = Ax, g = b constant: [f, b] = -Ab
    A = [["0", "1"], ["-2", "0"]]
    fl = VectorField([parse("x2"), parse("-2*x1")], ["x1", "x2"])
    b = VectorField([const(1), const(0)], ["x1", "x2"])
    ad1 = ad_power(fl, b, 1)
    assert [evalf(c, {"x1": 0, "x2": 0}) for c in ad1.components] == [0, 2]


def test_ad_power_brute_force_oracle():
    # f = (x2, 0), g = (0, 1): hand/brute-force bracket twice
    f = VectorField([parse("x2"), const(0)], ["x1", "x2"])
    g = VectorField([const(0), const(1)], ["x1", "x2"])
    ad1 = ad_power(f, g, 1)
    assert ad1.components == [const(-1), const(0)]
    # second bracket: the Jacobian of a constant field vanishes and
    # (df/dx)(-1,0) = 0, so ad^2 is the zero field
    ad2 = ad_power(f, g, 2)
    assert ad2.is_zero()


@st.composite
def polynomial_fields(draw):
    """Two or three polynomial vector fields over two or three states."""
    n = draw(st.integers(2, 3))
    names = [f"x{i + 1}" for i in range(n)]
    monomial = st.tuples(st.integers(-3, 3),
                         st.lists(st.integers(0, 3), min_size=n, max_size=n))

    def poly():
        terms = draw(st.lists(monomial, max_size=3))
        return parse(" + ".join(
            f"({c})" + "".join(f"*{x}^{e}" for x, e in zip(names, exps))
            for c, exps in terms) or "0")

    k = draw(st.integers(2, 3))
    return [VectorField([poly() for _ in names], names) for _ in range(k)]


@settings(max_examples=60, deadline=None)
@given(polynomial_fields(), st.integers(0, 2**32 - 1))
def test_sampled_bracket_matches_symbolic(fields, seed):
    names = fields[0].states
    pts = np.random.default_rng(seed).uniform(-1, 1, size=(len(names), 4))
    vals, br, scale = bracket_sampler(fields)(pts)
    symbolic = [lie_bracket(fields[a], fields[b])
                for a in range(len(fields)) for b in range(a + 1, len(fields))]
    assert br.shape[0] == len(symbolic)
    for p in range(pts.shape[1]):
        env = dict(zip(names, pts[:, p]))
        for f, got in zip(fields, vals[:, :, p]):
            assert np.allclose(got, [_reference_evalf(c, env)
                                     for c in f.components],
                               rtol=1e-12, atol=0)
        for i, sym in enumerate(symbolic):
            want = [_reference_evalf(c, env) for c in sym.components]
            assert np.all(np.abs(br[i, :, p] - want)
                          <= 1e-9 * (1 + scale[i, :, p]))


@pytest.mark.parametrize("case", ["ex31", "ex33"])
def test_bracket_sampler_matches_unpruned_reference(case, request,
                                                    monkeypatch):
    # the pruned Jacobian trees drop only terms that are +-0 wherever their
    # factors are finite, so the points assumption D keeps and every array
    # at them are bit-identical
    system = request.getfixturevalue(case)
    outcome = request.getfixturevalue("out" + case[2:])
    Y = _chain_fields(build_normal_form(system, outcome))
    fields = [Y[key] for key in sorted(Y)]
    pruned = bracket_sampler(fields)
    monkeypatch.setattr(geom, "_diff_raw", _reference_diff_raw)
    reference = bracket_sampler(fields)
    for seed in range(8):
        (p1, v1), (p2, v2) = (
            sample_box(evaluate, system.box(), SAMPLE_POINTS,
                       np.random.default_rng(seed),
                       SAMPLE_REDRAWS * SAMPLE_POINTS, SAMPLE_CUTOFF)
            for evaluate in (pruned, reference))
        for got, want in zip((p1, *v1), (p2, *v2)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_bracket_sampler_rejects_mixed_states():
    f = VectorField([const(1)], ["x1"])
    g = VectorField([const(1)], ["x2"])
    with pytest.raises(ValueError):
        bracket_sampler([f, g])


def test_involutive_single_and_constant():
    pts = [np.array([0.1, 0.2, -0.1, 0.3, 0.0])]
    g = five_state_inputs()
    single = [VectorField(g.col(0), STATES5)]
    assert involutive(single, pts)
    consts = [VectorField([const(1), const(0)], ["x1", "x2"]),
              VectorField([const(0), const(1)], ["x1", "x2"])]
    assert involutive(consts, [np.zeros(2)])


def test_involutive_fails_for_twisting_columns():
    # input columns of the two-output four-state example with non-involutive span
    names = ["x1", "x2", "x3", "x4"]
    g = SymMatrix([[parse(a), parse(b)] for a, b in
                   [("1", "x1"), ("x1", "x2"), ("x2", "-x3"), ("x3", "1")]])
    fields = [VectorField(g.col(j), names) for j in range(2)]
    rng = np.random.default_rng(3)
    pts = [rng.uniform(-0.6, 0.6, size=4) for _ in range(25)]
    assert involutive(fields, pts) is False


def test_involutive_margin_covers_cancelling_large_terms():
    # X1 = (1, 0, F_x1) and X2 = (0, 1, F_x2) with F = sin(K x1 x2) / K
    # commute exactly and span a well-conditioned plane in three states,
    # but the bracket's third component is the difference of two terms of
    # size ~K = 1e6.  Their rounding residue lies off the plane and is above
    # tol = 1e-12 times the largest singular value; only the margin relative
    # to the terms keeps it from adding rank.
    names = ["x1", "x2", "x3"]

    def fields(extra):
        return [VectorField([const(1), const(0),
                             parse("x2*cos(1000000*x1*x2)")], names),
                VectorField([const(0), const(1),
                             parse(f"x1*cos(1000000*x1*x2){extra}")], names)]

    rng = np.random.default_rng(0)
    pts = [rng.uniform(-1, 1, size=3) for _ in range(50)]
    assert involutive(fields(""), pts, tol=1e-12) is True
    # scaling F_x2 by 1 + 1e-9 leaves a bracket of 1e-9 times its terms at
    # every point, a thousand times the margin: it is not taken for rounding
    assert involutive(fields("*1000000001/1000000000"), pts,
                      tol=1e-12) is False


def test_involutive_requires_points():
    f = VectorField([const(1)], ["x1"])
    g = VectorField([parse("x1")], ["x1"])
    with pytest.raises(ValueError):
        involutive([f, g], [])


def _rank_loop(stack, tol):
    return [rank(a, tol) for a in stack]


@pytest.mark.parametrize("shape", [(7, 3, 4), (7, 4, 3), (1, 3, 3), (5, 1, 6),
                                   (7, 0, 4), (7, 4, 0), (1, 0, 0), (0, 3, 3)])
def test_rank_of_stack_equals_per_matrix_loop(shape):
    rng = np.random.default_rng(4)
    stack = rng.normal(size=shape)
    ranks = rank(stack, 1e-8)
    assert ranks.shape == shape[:1]
    assert ranks.tolist() == _rank_loop(stack, 1e-8)


def test_rank_of_rank_deficient_stack_equals_per_matrix_loop():
    rng = np.random.default_rng(5)
    # products of 5x r and r x 4 factors have rank r; the last matrix is 0
    stack = np.array([rng.normal(size=(5, r)) @ rng.normal(size=(r, 4))
                      for r in (0, 1, 2, 3, 4, 2, 1)]
                     + [np.zeros((5, 4)), 1e-12 * rng.normal(size=(5, 4))])
    ranks = rank(stack, 1e-8)
    assert ranks.tolist() == _rank_loop(stack, 1e-8) == [0, 1, 2, 3, 4, 2, 1, 0, 0]
    # a 4-D stack keeps its leading axes
    assert rank(stack.reshape(3, 3, 5, 4), 1e-8).tolist() == [[0, 1, 2], [3, 4, 2],
                                                             [1, 0, 0]]


def test_rank_ignores_row_scale():
    # rows are divided by max(1, |row|) before the rule s_i > tol*max(1, s_1):
    # a large row no longer hides a small one, a row below 1 keeps its size
    assert rank(np.diag([1.0, 1e-7]), 1e-8) == 2
    assert rank(np.diag([1e2, 1e-7]), 1e-8) == 2
    assert rank(np.diag([3.1e5, 2.4e-3]), 1e-8) == 2
    assert rank(np.diag([1e2, 1e-9]), 1e-8) == 1
    assert rank(np.diag([1e-3, 1e-9]), 1e-8) == 1
    # dependent rows stay dependent at any scale
    assert rank(np.array([[1e6, 2e6], [2.0, 4.0]]), 1e-8) == 1
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 5))
    scaled = np.logspace(-6, 6, 4)[:, None] * a
    assert rank(scaled, 1e-8) == rank(a, 1e-8) == 2
    assert rank(np.stack([a, scaled]), 1e-8).tolist() == [2, 2]
    assert isinstance(rank(np.eye(2), 1e-8), int)
    assert rank(np.zeros((0, 3)), 1e-8) == 0


def test_sample_matches_eval_at():
    states = ["x1", "x2", "x3"]
    M = SymMatrix([[parse(s) for s in row] for row in
                   [["2", "x1", "x2^3"], ["x1*x2 - x3", "x3^-2", "-1/3"],
                    ["sin(x1)*exp(x2)", "sqrt(x3)", "x1^2*x3^-1"]]])
    rng = np.random.default_rng(6)
    pts = rng.uniform(0.1, 2.0, size=(3, 40))
    vals = M.sample(states, pts)
    assert vals.shape == (40, 3, 3)
    for p in range(pts.shape[1]):
        env = dict(zip(states, pts[:, p]))
        want = [[_reference_evalf(e, env) for e in r] for r in M.rows]
        assert np.allclose(vals[p], want, rtol=1e-12, atol=0.0)
        assert np.allclose(M.eval_at(env), want, rtol=1e-12, atol=0.0)


def test_sample_shapes_and_constants():
    pts = np.zeros((2, 5))
    assert SymMatrix([]).sample(["x1", "x2"], pts).shape == (5, 0, 0)
    assert SymMatrix([[], []]).sample(["x1", "x2"], pts).shape == (5, 2, 0)
    vals = SymMatrix.identity(2).sample(["x1", "x2"], pts)
    assert np.array_equal(vals, np.broadcast_to(np.eye(2), (5, 2, 2)))


def test_sample_names_first_non_finite_point():
    M = SymMatrix([[parse("x1^-1"), parse("1")]])
    pts = np.array([[1.0, 0.5, 0.0, 0.0]])
    with pytest.raises(EvalError, match=r"at \[0\.\]"):
        M.sample(["x1"], pts)
    # finite=False hands the values back instead
    vals = M.sample(["x1"], pts, finite=False)
    assert np.isinf(vals[2, 0, 0]) and vals[2, 0, 1] == 1.0


# ---------------------------------------------------------------------------
# det and inverse on one table of minors, against the expansion that
# recomputed every minor
# ---------------------------------------------------------------------------

def _reference_det(M):
    """SymMatrix.det as it stood before minors were shared: Laplace along
    the first row, every minor a new SymMatrix."""
    n, m = M.shape
    if n != m:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return const(1)
    if n == 1:
        return M.rows[0][0]
    acc = const(0)
    for j in range(n):
        minor = SymMatrix([r[:j] + r[j + 1:] for r in M.rows[1:]])
        term = M.rows[0][j] * _reference_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return simplify(acc)


def _reference_inverse(M, max_size=4):
    """SymMatrix.inverse as it stood before minors were shared."""
    n, m = M.shape
    if n != m:
        raise ValueError("inverse of non-square matrix")
    if n > max_size:
        raise ValueError(f"symbolic inverse beyond supported size {max_size}")
    d = _reference_det(M)
    if simplify(d) == const(0):
        raise ValueError("symbolically singular matrix")
    if n == 1:
        return SymMatrix([[const(1) / d]])
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = SymMatrix([r[:j] + r[j + 1:]
                               for k, r in enumerate(M.rows) if k != i])
            c = _reference_det(minor)
            row.append(c if (i + j) % 2 == 0 else -c)
        cof.append(row)
    adj = SymMatrix(cof).transpose()
    return SymMatrix([[e / d for e in r] for r in adj.rows])


def _keys_or_error(fn, *args):
    try:
        out = fn(*args)
    except ValueError as exc:
        return str(exc)
    if isinstance(out, SymMatrix):
        return [[e.key for e in r] for r in out.rows]
    return out.key


@st.composite
def square_matrices(draw, symbolic=False):
    """Square matrices of small integers or fractions (1x1 to 5x5), or of
    small polynomials in x1, x2 (1x1 to 3x3); singular ones are frequent."""
    if symbolic:
        n = draw(st.integers(1, 3))

        def entry():
            c0, c1 = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            i, j = draw(st.integers(0, 2)), draw(st.integers(0, 1))
            return const(c0) + const(c1) * Pow(Var("x1"), i) * Pow(Var("x2"), j)
    else:
        n = draw(st.integers(1, 5))
        values = st.one_of(st.integers(-3, 3),
                           st.fractions(-3, 3, max_denominator=4))

        def entry():
            return const(draw(values))
    return SymMatrix([[entry() for _ in range(n)] for _ in range(n)])


@settings(max_examples=50, deadline=None)
@given(square_matrices())
def test_shared_minors_match_reference_on_constants(M):
    assert _keys_or_error(M.det) == _keys_or_error(_reference_det, M)
    assert (_keys_or_error(M.inverse, 5)
            == _keys_or_error(_reference_inverse, M, 5))


@settings(max_examples=80, deadline=None)
@given(square_matrices(symbolic=True))
def test_shared_minors_match_reference_on_polynomials(M):
    assert _keys_or_error(M.det) == _keys_or_error(_reference_det, M)
    assert _keys_or_error(M.inverse) == _keys_or_error(_reference_inverse, M)


@st.composite
def ranked_matrices(draw):
    """Rational n x c matrices (n <= 5, c <= 6) of rank at most k <= 5, the
    product of an n x k and a k x c factor."""
    k = draw(st.integers(0, 5))
    n, c = draw(st.integers(max(k, 1), 5)), draw(st.integers(max(k, 1), 6))
    values = st.one_of(st.integers(-3, 3),
                       st.fractions(-3, 3, max_denominator=4))
    left = [[draw(values) for _ in range(k)] for _ in range(n)]
    right = [[draw(values) for _ in range(c)] for _ in range(k)]
    return SymMatrix([[const(sum((left[i][l] * right[l][j] for l in range(k)),
                                 start=0)) for j in range(c)]
                      for i in range(n)])


@settings(max_examples=80, deadline=None)
@given(ranked_matrices())
def test_pivots_and_nullspace_match_sympy(M):
    import sympy
    ref = sympy.Matrix([[sympy.Rational(e.value.numerator, e.value.denominator)
                         for e in r] for r in M.rows])
    assert M.pivots() == list(ref.rref()[1])
    null = M.nullspace()
    assert len(null) == len(ref.nullspace())
    for v in null:
        assert (M @ SymMatrix([[e] for e in v])).col(0) == [const(0)] * len(M.rows)
    n, c = M.shape
    if n == c and len(M.pivots()) < n:
        assert M.det() == const(0)


def test_singular_and_oversized_inverse_errors():
    singular = SymMatrix([[parse("x1"), parse("x2")],
                          [parse("2*x1"), parse("2*x2")]])
    with pytest.raises(ValueError) as got:
        singular.inverse()
    with pytest.raises(ValueError) as want:
        _reference_inverse(singular)
    assert str(got.value) == str(want.value)
    # no size cap: a 5x5 inverts as the uncapped adjugate does
    big = SymMatrix.identity(5)
    assert big.inverse() == _reference_inverse(big, 5)


@pytest.mark.parametrize("n, names", [(5, ["x1", "x2"]), (6, ["x1"])])
def test_polynomial_inverse_matches_sympy(n, names):
    import sympy
    rng = np.random.default_rng(n)
    rows = [[str(rng.integers(-2, 3)) if rng.random() < (0.5 if n == 5 else 0.3)
             else " + ".join(f"({rng.integers(-2, 3)})*{x}" for x in names)
             + f" + {rng.integers(-2, 3)}" for _ in range(n)] for _ in range(n)]
    got = SymMatrix([[parse(e) for e in r] for r in rows]).inverse()
    want = sympy.Matrix(rows).inv().applyfunc(sympy.cancel)
    for i in range(n):
        for j in range(n):
            entry = sympy.sympify(str(got[i, j]).replace("^", "**"))
            assert sympy.cancel(entry) == want[i, j]


def test_inverse_past_the_term_budget():
    # the product of the off-diagonal entries overflows the budget, so the
    # elimination runs again on trees that keep those parts factored
    s = parse("(1 + x1 + 2*x2 + x3 + x4 + x5 + x6)^4")
    M = SymMatrix([[parse("x1 + 1"), s], [s, parse("x2 + 2")]])
    product = M @ M.inverse()
    for i in range(2):
        for j in range(2):
            assert numeric_equivalent(product[i, j], const(int(i == j)))



def test_trig_zero_found_by_the_pythagorean_rewrite():
    # after step 0 the (1, 1) entry of the 3x3 is sin^2 + cos^2 - 1, which
    # must not be taken as a pivot; the 2x2 is singular for the same reason.
    # The division by the last pivot is exact only up to that identity, so
    # the inverse is compared by value, not by key.
    m3 = SymMatrix([[parse(e) for e in r] for r in
                    [["sin(x)", "1 + cos(x)", "0"],
                     ["1 - cos(x)", "sin(x)", "1"], ["0", "1", "1"]]])
    m2 = SymMatrix([[parse("sin(x)"), parse("1 + cos(x)")],
                    [parse("1 - cos(x)"), parse("sin(x)")]])
    for M in (m3, m2):
        assert _keys_or_error(M.det) == _keys_or_error(_reference_det, M)
    assert m3.det() == parse("-sin(x)")
    got, want = m3.inverse(), _reference_inverse(m3)
    for i in range(3):
        for j in range(3):
            assert numeric_equivalent(got[i, j], want[i, j])
    assert (_keys_or_error(m2.inverse) == _keys_or_error(_reference_inverse, m2)
            == "symbolically singular matrix")


def test_tree_route_skips_a_zero_over_the_term_budget():
    # S*S - S*S stays a factored, non-ZERO tree over the budget; the tree
    # route must not pick it as the pivot of step 1
    s = simplify(parse("(1 + x1 + 2*x2 + x3 + x4 + x5 + x6)^4"))
    M = SymMatrix([[s, s, const(0)], [s, s, const(1)],
                   [const(0), const(1), const(1)]])
    assert numeric_equivalent(M.det(), -s)
    product = M @ M.inverse()
    for i in range(3):
        for j in range(3):
            assert numeric_equivalent(product[i, j], const(int(i == j)))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_rank_refuses_a_tol_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="rank tolerance must be positive "
                                         f"and finite, got {tol}"):
        rank(np.eye(2), tol)
