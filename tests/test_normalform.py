"""Normal-form assembly, assumption checks, and zero dynamics."""

import itertools

import numpy as np
import pytest

import conftest
from conftest import _reference_evalf
from normform.expr import (EvalError, Var, const, evalf, numeric_equivalent,
                           parse, render, simplify, subs)
from normform.geom import (SymMatrix, bracket_sampler, complete_rows,
                           jacobian, lie_bracket, rank)
from normform.normalform import (_chain_fields, _input_complement,
                                 build_normal_form,
                                 check_assumption_B, check_assumption_C,
                                 check_assumption_D, solve_triangular,
                                 zero_dynamics)
from normform.structure import (StructureError, infinite_zero_algorithm,
                                zero_output_algorithm)
from normform.sysmodel import AffineSystem, SamplePlan


class TestFiveStateNormalForm:
    def test_chain_coordinates(self, nf31):
        assert [[render(e) for e in c] for c in nf31.chains] == \
            [["x1", "x3"], ["x2", "x5", "x4 - x1*x4"]]
        assert nf31.xi_names == [["xi1_1", "xi1_2"],
                                 ["xi2_1", "xi2_2", "xi2_3"]]
        assert nf31.eta_exprs == []

    def test_delta_table(self, nf31, ex31):
        assert set(nf31.delta) == {(2, 2, 1)}
        assert nf31.delta[(2, 2, 1)] == parse("x4")
        assert nf31.delta_entry(2, 1, 1) == const(0)
        # delta in the new coordinates through the forward map
        claim = subs(parse("xi2_3/(1 - xi1_1)"),
                     dict(zip(nf31.forward_names(), nf31.forward_exprs())))
        assert numeric_equivalent(nf31.delta[(2, 2, 1)], claim,
                                  box=ex31.domain)

    def test_sparsity_law(self, nf31, ex31, out31):
        # delta_{i,j,l} = 0 for j < q_l holds because no such key is
        # written; conftest checks it on every normal form the suite builds
        assert conftest.delta_keys_obey_sparsity(nf31)
        nf = build_normal_form(ex31, out31)
        assert conftest.BUILT_NORMAL_FORMS[-1] is nf
        nf.delta[(2, 1, 2)] = parse("x1")     # j = 1 < q_2 = 3
        assert not conftest.delta_keys_obey_sparsity(nf)
        del nf.delta[(2, 1, 2)]               # conftest checks nf next

    def test_inverse_map(self, nf31):
        inv = nf31.inverse_map()
        assert inv["x4"] == parse("-xi2_3/(-1 + xi1_1)")

    def test_zero_dynamics_degenerates(self, nf31):
        rep = zero_dynamics(nf31)
        assert rep.degenerate_point
        assert repr(rep) == "ZeroDynamicsReport(point)"

    def test_dynamics_identity(self, nf31, ex31):
        # assembled chain equations reproduce the true derivatives for
        # random states and inputs
        rng = np.random.default_rng(8)
        states = ex31.states
        chains = nf31.chains
        m = ex31.m
        for _ in range(15):
            env = {s: rng.uniform(-0.6, 0.6) for s in states}
            u = rng.uniform(-1, 1, size=m)
            xdot = ex31.f.eval_at(env) + ex31.g.eval_at(env) @ u
            denv = dict(zip(states, xdot))
            vd = [evalf(nf31.a[i], env)
                  + sum(evalf(nf31.b[i, j], env) * u[j] for j in range(m))
                  for i in range(nf31.m_d)]
            for ci, chain in enumerate(chains, start=1):
                for j, coord in enumerate(chain, start=1):
                    lhs = sum(evalf(simplify(parse(f"0") + e), env) * 0 for e in [])
                    # d/dt of the coordinate via the chain rule
                    dcoord = sum(evalf(d, env) * denv[s]
                                 for s, d in zip(states,
                                                 [_pd(coord, s) for s in states]))
                    if j < len(chain):
                        rhs = evalf(chain[j], env)
                        for l in range(1, ci):
                            rhs += evalf(nf31.delta_entry(ci, j, l), env) * vd[l - 1]
                    else:
                        rhs = vd[ci - 1]
                    assert dcoord == pytest.approx(rhs, abs=1e-9)


def _pd(e, s):
    from normform.expr import diff
    return diff(e, s)


class TestAssumptions:
    def test_B_constant_P_shortcut(self, ex31):
        # engineered: duplicated output makes rank drop, caught by sampling
        out = infinite_zero_algorithm(ex31, SamplePlan(count=40))
        assert check_assumption_B(out)

    def test_B_fails_for_dependent_rows(self, ex31, out31, monkeypatch):
        # duplicate a chain coordinate to force a rank defect
        import normform.normalform as nfm
        chain_coords = nfm._chain_coords
        monkeypatch.setattr(nfm, "_chain_coords", lambda outcome, h: [
            c + [c[0]] if i == 0 else c
            for i, c in enumerate(chain_coords(outcome, h))])
        assert check_assumption_B(out31) is False
        with pytest.raises(StructureError, match="Assumption B fails"):
            build_normal_form(ex31, out31)

    def test_C_single_column(self, ex32):
        out = infinite_zero_algorithm(ex32, SamplePlan(count=40))
        gie = SymMatrix([[parse("0"), parse("exp(-x4)")]])
        assert check_assumption_C(build_normal_form(ex32, out, gamma_ie=gie))

    def test_C_fails_for_twisting_inputs(self, ex33):
        out = zero_output_algorithm(ex33, SamplePlan(count=60))
        # m_d = m here, so g_d spans the full input image of g, whose columns
        # are not involutive
        assert check_assumption_C(build_normal_form(ex33, out)) is False

    def test_C_constant_inputs(self):
        from normform.sysmodel import AffineSystem
        sysm = AffineSystem(["x1", "x2"], [parse("x2"), parse("0")],
                            [[parse("1"), parse("0")],
                             [parse("0"), parse("1")]],
                            [parse("x1"), parse("x2")])
        out = infinite_zero_algorithm(sysm, SamplePlan(count=20))
        assert check_assumption_C(build_normal_form(sysm, out))

    def test_D_commuting_cases(self, ex31, out31, nf31):
        # linear systems with constant chain fields commute
        assert check_assumption_D(ex31, out31, nf31) is True
        from normform.sysmodel import AffineSystem
        lin = AffineSystem(["x1", "x2"], [parse("x2"), parse("0")],
                           [[parse("1"), parse("0")],
                            [parse("0"), parse("1")]],
                           [parse("x1"), parse("x2")])
        out = infinite_zero_algorithm(lin, SamplePlan(count=20))
        assert check_assumption_D(lin, out) is True

    def test_D_fails_for_twisting_chain_fields(self, ex33, out33):
        # the non-involutive-input example also has non-commuting chain
        # fields: some pairwise bracket has a nonzero component
        nf = build_normal_form(ex33, out33)
        assert check_assumption_D(ex33, out33, nf) is False

    # components of ex33's chain fields, reduced by sympy.cancel
    EX33_FIELDS = {
        ((1, 1), 1): "(x1**5*x4 - 3*x1**4*x2*x3 - x1**3*x2 - 2*x1**3*x3**2"
                     " + 2*x1**2*x2**2*x3 - x1**2*x3 + x1*x2**2"
                     " + 2*x1*x2*x3**2 + x1*x4)/(x1**4*x2**2 + 2*x1**2*x2 + 1)",
        ((2, 1), 3): "(-x1*x3 + 1)/(x1**2*x2 + 1)",
        ((2, 2), 1): "(x1**4*x4 - 3*x1**3*x2*x3 - x1**2*x2**3 - 2*x1**2*x2"
                     " - 2*x1**2*x3**2 + 2*x1*x2**2*x3 - x1*x3 + 2*x2*x3**2"
                     " + x4 - 1)/(x1**4*x2**2 + 2*x1**2*x2 + 1)",
    }

    def test_ex33_chain_fields_keep_the_common_denominator(self, ex33, out33):
        # g Gamma_i^-1 and f_t are over q = 1 + x1^2 x2; a sum whose
        # denominators divide one another stays over the multiple, where the
        # product of the denominators put the fields over q^11 to q^14 (the
        # D verdicts are checked by the two tests above)
        import sympy

        from normform.expr import _poly_pow, _to_frac

        nf = build_normal_form(ex33, out33)
        Y = _chain_fields(nf)
        q = _to_frac(parse("1 + x1^2*x2")).num
        powers = [{conftest.mono(): 1}] + [_poly_pow(q, k) for k in (1, 2, 3)]
        for key, field in Y.items():
            for c in field.components:
                assert _to_frac(c).den in powers, (key, render(c))
        for (key, i), want in self.EX33_FIELDS.items():
            got = sympy.sympify(render(Y[key].components[i]).replace("^", "**"))
            assert sympy.cancel(got - sympy.sympify(want)) == 0

    def test_bracket_sampler_compiles_one_kernel(self, ex33, out33,
                                                 monkeypatch):
        from normform import expr, geom

        sources = []

        def compile_exprs(exprs, names):
            sources.append(expr._kernel_source(exprs, names))
            return expr.compile_exprs(exprs, names)

        Y = _chain_fields(build_normal_form(ex33, out33))
        monkeypatch.setattr(geom, "compile_exprs", compile_exprs)
        bracket_sampler([Y[key] for key in sorted(Y)])
        # 64.7 kB when the fields were over q^11 to q^14
        assert len(sources) == 1 and len(sources[0]) <= 25_000

    def test_D_margin_covers_cancelling_large_terms(self):
        # y = h(x) is a chart, so the chain fields g b^{-1} = (dh)^{-1} are
        # its coordinate fields and commute exactly.  With h the inverse of
        # the shear (x1 + 100 x2^2, x2) followed by (x1, x2 + 100 x1^2), the
        # bracket's terms reach ~1e7 and cancel to a rounding residue of
        # ~1e-9, above tol = 1e-12 itself: only the margin relative to the
        # terms passes it.
        w = "(x2 - 100*x1^2)"
        sysm = AffineSystem(
            ["x1", "x2"], [parse("x2"), parse("x1^2")],
            [[parse("1"), parse(f"200*{w}")],
             [parse("200*x1"), parse(f"1 + 40000*x1*{w}")]],
            [parse(f"x1 - 100*{w}^2"), parse(w)])
        out = infinite_zero_algorithm(sysm, SamplePlan(count=20))
        assert out.q == [1, 1]
        nf = build_normal_form(sysm, out)
        assert all(check_assumption_D(sysm, out, nf, seed=s, tol=1e-12)
                   for s in range(5))
        Y = _chain_fields(nf)
        pts = np.random.default_rng(0).uniform(-1, 1, size=(2, 200))
        _, _, scale = bracket_sampler([Y[(1, 1)], Y[(2, 1)]])(pts)
        # one rounding unit of the terms already exceeds the absolute bound
        # tol * (1 + |v|) ~ 1e-12 that sampling the bracket alone would use
        assert np.finfo(float).eps * scale.max() > 1e-12

    def test_D_fails_for_small_bracket_against_unit_terms(self):
        # Y(1,1) = (1, 0, 1.001 x2), Y(2,1) = (0, 1, x1): the bracket is
        # (0, 0, -1e-3) while each of its two terms is about 1
        sysm = AffineSystem(
            ["x1", "x2", "x3"], [parse("x2"), parse("x3"), parse("0")],
            [[parse("1"), parse("0")], [parse("0"), parse("1")],
             [parse("1001/1000*x2"), parse("x1")]],
            [parse("x1"), parse("x2")])
        out = infinite_zero_algorithm(sysm, SamplePlan(count=20))
        assert out.invertibility == "Invertible"
        assert not any(check_assumption_D(sysm, out, seed=s) for s in range(5))

    @pytest.mark.parametrize("case", ["ex31", "ex33"])
    def test_sampled_brackets_match_symbolic(self, case, ex31, nf31, ex33,
                                             out33):
        if case == "ex31":
            system, nf = ex31, nf31
        else:
            system, nf = ex33, build_normal_form(ex33, out33)
        Y = _chain_fields(nf)
        keys = sorted(Y)
        pairs = list(zip(*np.triu_indices(len(keys), 1)))
        lo, hi = np.array(system.box()).T
        pts = np.random.default_rng(7).uniform(lo[:, None], hi[:, None],
                                              size=(system.n, 6))
        _, br, scale = bracket_sampler([Y[k] for k in keys])(pts)
        for i, (a, b) in enumerate(pairs):
            sym = lie_bracket(Y[keys[a]], Y[keys[b]])
            for p in range(pts.shape[1]):
                env = dict(zip(system.states, pts[:, p]))
                want = np.array([_reference_evalf(c, env)
                                 for c in sym.components])
                assert np.all(np.abs(br[i, :, p] - want)
                              <= 1e-9 * (1 + scale[i, :, p]))

    def test_D_needs_enough_valid_points(self):
        # the one chain field (1, exp(1e5*x2^2)) stays below the cutoff
        # 1e12 only for |x2| < 0.017, where 1280 draws put ~21 points
        sysm = AffineSystem(["x1", "x2"], [parse("0"), parse("0")],
                            [[parse("1")], [parse("exp(100000*x2^2)")]],
                            [parse("x1")])
        out = infinite_zero_algorithm(sysm, SamplePlan(count=20))
        with pytest.raises(EvalError, match="^could not find enough valid "
                                            "sample points$"):
            check_assumption_D(sysm, out)

    def test_D_requires_square_invertible(self, ex32):
        out = infinite_zero_algorithm(ex32, SamplePlan(count=30))
        from normform.structure import StructureError
        with pytest.raises(StructureError):
            check_assumption_D(ex32, out)


@pytest.fixture(scope="module")
def nf32(ex32):
    out = infinite_zero_algorithm(ex32, SamplePlan(count=40))
    gie = SymMatrix([[parse("0"), parse("exp(-x4)")]])
    return build_normal_form(
        ex32, out, phi_e=[parse("x1 - x2*x4"), parse("x2"), parse("x3")],
        gamma_ie=gie)


class TestDegenerateNormalForm:
    def test_complement(self, nf32):
        assert [render(e) for e in nf32.eta_exprs] == \
            ["x1 - x2*x4", "x2", "x3"]
        assert nf32.phi_cols.rows == [[const(0)], [const(0)], [const(0)]]

    def test_eta_block_matches_reference(self, nf32, ex32):
        # eta1' = -eta1 + eta3 - eta2 xi^2 + u_e in original coordinates
        expect = [parse("-(x1 - x2*x4) + x3 - x2*x4^2"),
                  parse("x2*x4"),
                  parse("-x2*x4 - x2*x4^2")]
        for mine, ref in zip(nf32.f_e, expect):
            assert numeric_equivalent(mine, ref, box=ex32.domain)
        assert nf32.g_e.rows == [[const(1)], [const(0)], [const(1)]]

    def test_zero_dynamics_split(self, nf32):
        rep = zero_dynamics(nf32)
        assert rep.split is not None
        assert rep.zero_dynamics is not None
        (name, rhs), = rep.zero_dynamics
        assert rhs == simplify(-Var(name))

    def test_auto_completion_also_works(self, ex32):
        out = infinite_zero_algorithm(ex32, SamplePlan(count=40))
        nf = build_normal_form(ex32, out)
        assert len(nf.eta_exprs) == 3

    def test_non_annihilating_phi_e_warns_once(self, ex32, out32):
        # every residue row is non-zero; the warning is given once
        nf = build_normal_form(ex32, out32, phi_e=[
            parse("x1 + x2"), parse("x3 + x4"), parse("x4 + x1")])
        assert nf.warnings == ["supplied phi_e does not annihilate the chain "
                               "input directions; residue columns kept"]


def test_empty_gamma_ie_when_every_input_drives_a_chain(ex31, out31, nf31):
    nf = build_normal_form(ex31, out31, gamma_ie=np.zeros((0, 2)))
    for name in ("q", "chains", "eta_exprs", "delta", "a", "b", "gamma_ie",
                 "f_e", "g_e", "phi_cols", "h_e", "warnings"):
        assert getattr(nf, name) == getattr(nf31, name), name
    assert np.array_equal(nf.gamma_od, nf31.gamma_od)
    assert np.array_equal(nf.gamma_oe, nf31.gamma_oe)
    with pytest.raises(ValueError, match=r"gamma_ie must be \(0, 2\)"):
        build_normal_form(ex31, out31, gamma_ie=np.zeros((1, 2)))


def _complement_free():
    """L_g h = [x2, 1 - 2*x2]: the constant row [1, 0] completes it except
    at x2 = 1/2, and [0, 1] except at x2 = 0; both points are sampled."""
    sysm = AffineSystem(["x1", "x2"], [parse("0"), parse("0")],
                        [[parse("x2"), parse("1 - 2*x2")],
                         [parse("0"), parse("0")]], [parse("x1")])
    return sysm, infinite_zero_algorithm(sysm, SamplePlan(points=[(0.0, 0.5)]))


def _chart_free():
    """h = e*(x2 + x3) with e = 8e-9: dh = [0, e, e] has rank 1 at tol 1e-8
    (singular value e*sqrt(2)), and [dh; e1] rank 2, but neither e2 nor e3
    adds a singular value above tol (each adds about e)."""
    sysm = AffineSystem(["x1", "x2", "x3"], [parse("0")] * 3,
                        [[parse("0")], [parse("1")], [parse("1")]],
                        [parse("8e-9*(x2 + x3)")])
    return sysm, infinite_zero_algorithm(sysm, SamplePlan(count=5))


@pytest.mark.parametrize("case, kwargs, error, message", [
    (_complement_free, {}, StructureError,
     "^no constant input complement found; supply gamma_ie$"),
    (_chart_free, {}, StructureError,
     "^no coordinate subset completes the chart; supply phi_e$"),
    (_complement_free, {"phi_e": ["x1", "x2"]}, ValueError,
     "^phi_e must have 1 entries$"),
    (_complement_free, {"phi_e": ["x1"]}, StructureError,
     "^d\\(Phi\\) singular at the base point$"),
])
def test_build_refuses_what_it_cannot_complete(case, kwargs, error, message):
    sysm, out = case()
    assert out.regular and out.q == [1]
    if "phi_e" in kwargs:
        # [1, -2] completes [x2, 1 - 2*x2] everywhere (determinant 1)
        kwargs = {"gamma_ie": np.array([[1.0, -2.0]]),
                  "phi_e": [parse(e) for e in kwargs["phi_e"]]}
    with pytest.raises(error, match=message):
        build_normal_form(sysm, out, **kwargs)


def test_one_exact_inverse_per_normal_form(ex31, out31, ex32, out32,
                                           monkeypatch):
    # Gamma_i^-1 is inverted once in build_normal_form, also when the
    # constant-residue shift decomposes eta twice; C and D read the stored
    # input fields g Gamma_i^-1
    cases = (("ex32", ex32, out32), ("ex31", ex31, out31),
             ("exam_sch", *_exam_sch()))
    calls = []
    inverse = SymMatrix.inverse

    def counted(self):
        calls.append(self.shape)
        return inverse(self)

    monkeypatch.setattr(SymMatrix, "inverse", counted)
    built = {}
    for case, system, outcome in cases:
        nf = built[case] = build_normal_form(system, outcome)
        m = system.m
        assert calls == [(m, m)], case
        gamma_i = nf.gamma_ie.vstack(nf.gamma_id)
        assert gamma_i @ nf.gamma_i_inv == SymMatrix.identity(m)
        assert nf.input_fields == system.g @ nf.gamma_i_inv
        calls.clear()
    assert built["ex32"].eta_exprs and not built["ex31"].eta_exprs
    # the constant-residue shift ran: the complement picks bare states
    assert built["exam_sch"].eta_exprs[1] == parse("2*x3")
    assert check_assumption_C(built["ex32"])
    assert check_assumption_D(ex31, out31, built["ex31"]) is True
    assert calls == []


def test_singular_gamma_i_is_refused_at_build(ex32, out32):
    # gamma_ie = 2 gamma_id = [2, 0] makes [gamma_ie; gamma_id] singular
    with pytest.raises(ValueError, match=r"\[gamma_ie; gamma_id\] is "
                       "symbolically singular"):
        build_normal_form(ex32, out32, gamma_ie=np.array([[2.0, 0.0]]))


@pytest.mark.parametrize("case, algorithm", [
    (case, algorithm) for case in ("ex31", "ex32", "ex33", "ex34")
    for algorithm in (infinite_zero_algorithm, zero_output_algorithm)
    # ex33 is not regular under the infinite zero algorithm
    if (case, algorithm) != ("ex33", infinite_zero_algorithm)])
def test_eta_block_keys_match_chart_differential_route(case, algorithm,
                                                       request):
    # f_e, g_e and the residue columns as d(phi_e) f and d(phi_e) g
    # Gamma_i^-1, each entry simplified from its matrix-product sum
    system = request.getfixturevalue(case)
    nf = build_normal_form(system, algorithm(system, SamplePlan(count=40)))
    if not nf.eta_exprs:
        assert nf.f_e == []
        return
    m, m_d = system.m, nf.m_d
    dphi_e = jacobian(nf.eta_exprs, system.states)
    gamma_i = nf.gamma_ie.vstack(nf.gamma_id) if m - m_d else nf.gamma_id
    G = dphi_e @ system.g @ gamma_i.inverse()
    drift = dphi_e @ system.f.as_column()
    f_e = []
    for i, row in enumerate(G.rows):
        acc = drift[i, 0]
        for l in range(m_d):
            acc = acc - row[m - m_d + l] * nf.a[l]
        f_e.append(simplify(acc))
    assert [e.key for e in nf.f_e] == [e.key for e in f_e]
    assert [[e.key for e in r] for r in nf.g_e.rows] == \
        [[e.key for e in r[:m - m_d]] for r in G.rows]
    assert [[e.key for e in r] for r in nf.phi_cols.rows] == \
        [[e.key for e in r[m - m_d:]] for r in G.rows]


def test_zero_dynamics_cubic(ex33, out33):
    nf = build_normal_form(ex33, out33)
    rep = zero_dynamics(nf)
    assert rep.eta_rhs == [simplify(-Var(rep.eta_names[0]) ** 3)]
    assert repr(rep) == "ZeroDynamicsReport(eta1' = -eta1^3)"


def test_a_chart_without_an_affine_block_has_no_closed_form_zero_dynamics():
    # x1 + x1^3 = eta1 is not affine in x1, so solve_triangular stops
    sysm = AffineSystem(["x1", "x2"], [parse("-x1"), parse("-x2")],
                        [[parse("0")], [parse("1")]], [parse("x1")])
    out = infinite_zero_algorithm(sysm, SamplePlan(count=20))
    nf = build_normal_form(sysm, out, phi_e=[parse("x1 + x1^3"), parse("x2")])
    rep = zero_dynamics(nf)
    assert rep.notes == ["no closed-form chart inverse; zero dynamics "
                         "available only numerically"]
    assert rep.eta_rhs == [] and repr(rep) == "ZeroDynamicsReport()"


def test_split_skipped_where_the_rank_test_missed_a_weak_coupling():
    # y = x1, x1' = 1e-12*x2, x2' = u: the sampled rank reads L_g L_f h =
    # 1e-12 as 0, so there is no chain, but the exact residual has
    # C A B = 1e-12
    sysm = AffineSystem(["x1", "x2"], [parse("x2/1000000000000"), parse("0")],
                        [[parse("0")], [parse("1")]], [parse("x1")])
    out = infinite_zero_algorithm(sysm, SamplePlan(count=20))
    assert out.regular and out.q == []
    rep = zero_dynamics(build_normal_form(sysm, out))
    assert rep.notes == ["controllable directions are partially observable; "
                         "split skipped"]
    assert rep.split is None and rep.zero_dynamics is None


def test_linear_split_is_exact():
    # the unobservable span {(1, 1, 0), (0, 0, 1)} holds the controllable
    # direction e3; za = eta2 is its exact complement coordinate
    sysm = AffineSystem(["x1", "x2", "x3", "x4"],
                        [parse(e) for e in ["x1 + 2*x2", "2*x1 + x2", "-x3",
                                            "x1"]],
                        [[parse(a), parse(b)] for a, b in
                         [("0", "0"), ("0", "0"), ("0", "1"), ("1", "0")]],
                        [parse("x4"), parse("x1 - x2")])
    out = infinite_zero_algorithm(sysm, SamplePlan(count=20))
    rep = zero_dynamics(build_normal_form(sysm, out))
    assert rep.split == {"za": [("za1", Var("eta2"))], "zb_dim": 1,
                         "zc_dim": 1}
    assert rep.zero_dynamics == [("za1", simplify(3 * Var("za1")))]


@pytest.mark.parametrize("f2", ["0.5*x2", "x2^3"])
def test_split_needs_rational_constant_coefficients(f2):
    # a float coefficient leaves the same note as a nonlinear residual
    sysm = AffineSystem(["x1", "x2"], [parse("0"), parse(f2)],
                        [[parse("1")], [parse("0")]], [parse("x1"), parse("x2")])
    out = infinite_zero_algorithm(sysm, SamplePlan(count=20))
    rep = zero_dynamics(build_normal_form(sysm, out))
    assert rep.split is None and rep.zero_dynamics is None
    assert rep.notes == ["residual system not linear with rational "
                         "coefficients; split not computed (supply "
                         "coordinates to refine)"]


def _exam_sch():
    """The exam_sch triple lifted with exact entries, and its outcome."""
    from conftest import SYSTEMS
    from test_linstruct import _lift
    from normform.linstruct import load_matrix
    A, B, C = (load_matrix(SYSTEMS / "linear" / f"exam_sch_{k}.txt")
               for k in "ABC")
    sysm = _lift(A, B, C)
    return sysm, infinite_zero_algorithm(sysm, SamplePlan(count=20))


def test_constant_residue_shift_is_exact():
    # the exam_sch triple with exact entries: the shift that removes the
    # constant residue column keeps rational coefficients
    nf = build_normal_form(*_exam_sch())
    assert nf.eta_exprs[1] == parse("2*x3")
    rep = zero_dynamics(nf)
    assert rep.zero_dynamics[1] == ("eta2", parse("2*eta2"))


def _inverts(equations, sol):
    """Each left side at the solution is its right side, by key."""
    return [subs(lhs, sol).key for lhs, _ in equations] == \
        [simplify(rhs).key for _, rhs in equations]


def _chart(nf):
    """The chart's equations forward_exprs = (eta, xi) names."""
    return list(zip(nf.forward_exprs(), map(Var, nf.forward_names())))


def test_solve_triangular(monkeypatch):
    from test_linstruct import _lift
    # the dense triple of ROADMAP P12, q = [1, 1] with its one invariant
    # zero at 3/2; no equation of its chart reads a single unknown
    sysm = _lift(np.array([[2, -2, 2], [0, -1, 1], [0, -1, -1]]),
                 np.array([[1, 0], [0, -1], [1, -1]]),
                 np.array([[-1, 2, -1], [-1, 1, 1]]))
    nf = build_normal_form(sysm, infinite_zero_algorithm(
        sysm, SamplePlan(count=5, seed=0)))
    sizes, inverse = [], SymMatrix.inverse

    def recording(self):    # the size of each block solved, in order
        sizes.append(self.shape[0])
        return inverse(self)

    monkeypatch.setattr(SymMatrix, "inverse", recording)
    assert nf.q == [1, 1] and _inverts(_chart(nf), nf.inverse_map())
    assert sizes == [3]
    rep = zero_dynamics(nf)
    assert rep.notes == [] and rep.eta_rhs == [parse("3/2*eta1")]
    sizes.clear()
    eqs = [(parse("x1"), Var("a")), (parse("x2 - x1*x2"), Var("b"))]
    sol = solve_triangular(eqs, ["x1", "x2"])
    assert sol["x1"] == Var("a")
    assert numeric_equivalent(sol["x2"], parse("b/(1 - a)"))
    assert _inverts(eqs, sol) and sizes == [1, 1]
    # ex32's complement (x1 - x2*x4, x2, x3) with its chain x4: one block
    # {x2, x3, x4}, then x1, which the first block leaves affine
    sizes.clear()
    eqs = [(parse(e), Var(n)) for e, n in
           [("x1 - x2*x4", "eta1"), ("x2", "eta2"), ("x3", "eta3"),
            ("x4", "xi1_1")]]
    sol = solve_triangular(eqs, ["x1", "x2", "x3", "x4"])
    assert sol["x1"] == parse("eta1 + eta2*xi1_1")
    assert _inverts(eqs, sol) and sizes == [3, 1]
    # unsolvable quadratic coupling, and a round with no affine block
    assert solve_triangular([(parse("x1^2 + x2^2"), Var("a")),
                             (parse("x1*x2"), Var("b"))], ["x1", "x2"]) is None
    assert solve_triangular([(parse("x1 + x1^3"), Var("a"))], ["x1"]) is None


def _draws(seed, count, square):
    """Integer triples (n in 2..5, entries in -2..2) lifted exactly, with
    their regular outcomes: square ones with m = p in 1..2, or non-square
    ones with m != p in 1..3 (draws with m = p are skipped)."""
    from test_linstruct import _lift
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        if square:
            m = p = int(rng.integers(1, 3))
        else:
            m, p = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            if m == p:
                continue
        A, B, C = (rng.integers(-2, 3, size=sh)
                   for sh in ((n, n), (n, m), (p, n)))
        sysm = _lift(A, B, C)
        out = infinite_zero_algorithm(sysm, SamplePlan(count=5, seed=0))
        if out.regular:
            yield (A, B, C), out


def test_zero_dynamics_match_the_rosenbrock_pencil():
    # every square invertible draw gets zero dynamics, whose eigenvalues
    # are the finite zeros of the pencil [[A, B], [C, 0]] - s [[I, 0],
    # [0, 0]] (Emami-Naeini & Van Dooren 1982); eig reports some infinite
    # ones as finite values near 1e17, so |s| > 1e8 is dropped
    from scipy.linalg import eig
    from scipy.optimize import linear_sum_assignment
    count = 0
    for (A, B, C), out in _draws(0, 400, square=True):
        if out.invertibility != "Invertible":
            continue
        count += 1
        rep = zero_dynamics(build_normal_form(out.system, out))
        assert not any("closed-form" in note for note in rep.notes)
        n, m = B.shape
        pencil = eig(np.block([[A, B], [C, np.zeros((m, m))]]),
                     np.diag([1.0] * n + [0.0] * m), right=False)
        zeros = pencil[np.isfinite(pencil) & (np.abs(pencil) < 1e8)]
        lam = (np.linalg.eigvals(jacobian(rep.eta_rhs, rep.eta_names)
                                 .eval_at({}))
               if rep.eta_rhs else np.zeros(0))
        assert len(lam) == len(zeros) == n - out.n_d
        dist = np.abs(zeros[:, None] - lam[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert np.all(dist[rows, cols] < 1e-6)
    assert count == 369


def test_non_square_linear_charts_invert():
    count = 0
    for _, out in _draws(1, 100, square=False):
        count += 1
        nf = build_normal_form(out.system, out)
        inv = nf.inverse_map()
        assert inv is not None and _inverts(_chart(nf), inv)
    assert count == 74


def test_multiplicity_two_chains_same_step():
    # two chains of equal length arise in one step; the block permutation
    # must give each chain contiguous levels and per-chain feedback rows
    from normform.sysmodel import AffineSystem
    from normform.expr import diff, evalf
    import numpy as np
    states = ["x1", "x2", "x3", "x4"]
    sysm = AffineSystem(states,
                        [parse("x3 + x2*x4"), parse("x4"), parse("0"),
                         parse("0")],
                        [[parse("0"), parse("0")], [parse("0"), parse("0")],
                         [parse("1"), parse("x1")], [parse("0"), parse("1")]],
                        [parse("x1"), parse("x2")])
    out = infinite_zero_algorithm(sysm, SamplePlan(count=30))
    assert out.regular and out.q == [2, 2]
    nf = build_normal_form(sysm, out)
    assert [len(c) for c in nf.chains] == [2, 2]
    assert nf.chains[0][0] == parse("x1") and nf.chains[1][0] == parse("x2")
    # dynamics identity at random states and inputs
    rng = np.random.default_rng(4)
    for _ in range(10):
        env = {s: rng.uniform(-0.5, 0.5) for s in states}
        u = rng.uniform(-1, 1, size=2)
        xdot = sysm.f.eval_at(env) + sysm.g.eval_at(env) @ u
        denv = dict(zip(states, xdot))
        vd = [evalf(nf.a[i], env)
              + sum(evalf(nf.b[i, j], env) * u[j] for j in range(2))
              for i in range(2)]
        for ci, chain in enumerate(nf.chains, start=1):
            for j, coord in enumerate(chain, start=1):
                dcoord = sum(evalf(diff(coord, s), env) * denv[s]
                             for s in states)
                if j < len(chain):
                    rhs = evalf(chain[j], env)
                    for l in range(1, ci):
                        rhs += evalf(nf.delta_entry(ci, j, l), env) * vd[l - 1]
                else:
                    rhs = vd[ci - 1]
                assert dcoord == pytest.approx(rhs, abs=1e-9)


def test_external_channel_widths_match_classification(ex32, ex34):
    # u_e width m - m_d and y_e height p - m_d agree with the verdict
    for sysm, expect in ((ex32, ("Degenerate", 1, 1)),
                         (ex34, ("LeftInvertible", 0, 1))):
        out = infinite_zero_algorithm(sysm, SamplePlan(count=30))
        nf = build_normal_form(
            sysm, out,
            gamma_ie=SymMatrix([[parse("0"), parse("exp(-x4)")]])
            if sysm is ex32 else None)
        verdict, ue_w, ye_h = expect
        assert out.invertibility == verdict
        assert nf.gamma_ie.shape[0] == ue_w
        assert len(nf.h_e) == ye_h


def test_counter3_affine_delta_constant():
    from conftest import counter3_affine
    sysm = counter3_affine()
    out = infinite_zero_algorithm(sysm, SamplePlan(count=25))
    nf = build_normal_form(sysm, out)
    assert out.q == [1, 4]
    from normform.expr import free_vars
    for (i, j, l), e in nf.delta.items():
        assert free_vars(e) == set()   # constant couplings
        assert j >= nf.q[l - 1]
    # the single coupling matches the numeric decomposition (1/alpha = 1)
    assert nf.delta_entry(2, 2, 1) == parse("1")


def test_no_chains_gives_all_eta_normal_form():
    # h = x1 never reaches the input (rho = [0, 0], m_d = 0): the normal
    # form has no chains, eta is the state and y_e is every output
    sysm = AffineSystem(["x1", "x2"], [parse("-x1"), parse("-x2")],
                        [[parse("0")], [parse("1")]], [parse("x1")])
    out = infinite_zero_algorithm(sysm, SamplePlan(count=20))
    assert out.regular and out.q == [] and out.m_d == 0
    nf = build_normal_form(sysm, out)
    assert nf.chains == [] and nf.delta == {}
    assert nf.eta_exprs == [Var("x1"), Var("x2")]
    assert nf.gamma_od.shape == (0, 1)
    assert nf.gamma_oe.tolist() == [[1.0]]
    assert nf.gamma_ie.rows == [[const(1)]]
    assert nf.h_e == [Var("x1")]
    assert [render(e) for e in nf.f_e] == ["-x1", "-x2"]
    rep = zero_dynamics(nf)
    assert [render(e) for e in rep.eta_rhs] == ["-eta1", "ue1 - eta2"]
    assert [render(e) for e in rep.y_e] == ["eta1"]


def test_external_output_keeps_exact_coefficients():
    # y_e = x1 - 3 x1^2 passes through the 0/1 output selection unchanged:
    # no float coefficient may appear
    sysm = AffineSystem(["x1", "x2"], [parse("x2"), parse("-x1")],
                        [[parse("0")], [parse("1")]],
                        [parse("x2"), parse("x1 - 3*x1^2")])
    out = infinite_zero_algorithm(sysm, SamplePlan(count=20))
    nf = build_normal_form(sysm, out)
    assert [render(e) for e in nf.h_e] == ["x1 - 3*x1^2"]
    assert [render(e) for e in zero_dynamics(nf).y_e] == ["eta1 - 3*eta1^2"]


def _reference_input_complement(vals, tol):
    """The loop _input_complement replaced: the first rows I_rows of I, in
    itertools.combinations order, making [I_rows; Gamma_id] nonsingular at
    every sample, or None."""
    P, m_d, m = vals.shape
    for combo in itertools.combinations(range(m), m - m_d):
        rows = np.broadcast_to(np.eye(m)[list(combo)], (P, m - m_d, m))
        if np.all(rank(np.concatenate([rows, vals], axis=1), tol) == m):
            return list(combo)
    return None


def test_input_complement_matches_the_combinations_loop():
    # sparse full-row-rank Gamma_id values of 1 to 3 samples, some varying
    # across the samples, so that the first sample's greedy basis fails at
    # another sample or no constant complement exists
    rng = np.random.default_rng(11)
    cases, fallbacks, missing = 0, 0, 0
    while cases < 800:
        m = int(rng.integers(1, 6))
        m_d, P = int(rng.integers(0, m + 1)), int(rng.integers(1, 4))
        base = rng.integers(-1, 2, (m_d, m)) * (rng.random((m_d, m)) < 0.5)
        vals = np.stack([base + rng.integers(-1, 2, (m_d, m))
                         * (rng.random((m_d, m)) < 0.3 * (i > 0))
                         for i in range(P)]).astype(float)
        if not np.all(rank(vals, 1e-8) == m_d):
            continue
        cases += 1
        want = _reference_input_complement(vals, 1e-8)
        assert _input_complement(vals, 1e-8) == want, vals
        missing += want is None
        fallbacks += want is not None and want != complete_rows(
            vals[0], np.eye(m), m - m_d, 1e-8)
    assert missing and fallbacks
