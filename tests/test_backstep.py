"""Backstepping synthesis against the worked controller examples."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import SYSTEMS, _reference_w_dot, check_decrease
from normform.backstep import (ChainSystem, ControlLaw, Disturbance,
                               OrderViolation, Stabilizer, _Engine,
                               da_synthesize, dissipative_backstep,
                               integrator_backstep, load_chain_system,
                               low_gain, parse_kappa, semi_global_synthesize,
                               synthesize, validate_order)
from normform.expr import (EvalError, Func, Var, const, diff, evalf, free_vars,
                           numeric_equivalent, parse, simplify, subs)


@pytest.fixture(scope="module")
def linear_sys():
    return ChainSystem(q=[2, 2], eta_names=["eta1"],
                       eta_dot=[parse("eta1 + xi1_1 + xi2_1")])


@pytest.fixture(scope="module")
def linear_stab():
    return Stabilizer([parse("-eta1"), parse("-eta1")], parse("eta1^2/2"))


class TestLinearComparison:
    def test_chain_by_chain(self, linear_sys, linear_stab):
        law = synthesize(linear_sys, "xi1_1,xi1_2,xi2_1,xi2_2", linear_stab)
        assert law.v[0] == parse("-3*eta1 - 5*xi1_1 - 3*xi1_2")
        assert law.v[1] == parse(
            "-11*eta1 - 4*xi1_1 - 2*xi1_2 - 11*xi2_1 - 3*xi2_2")
        V = parse("(eta1^2 + (xi1_1+eta1)^2 + (xi1_2+2*eta1+2*xi1_1)^2 "
                  "+ (xi2_1+eta1)^2 "
                  "+ (xi2_2+8*eta1+6*xi1_1+2*xi1_2+2*xi2_1)^2)/2")
        assert simplify(law.W - V) == const(0)
        assert simplify(law.w_dot() + 2 * law.W) == const(0)

    def test_level_by_level(self, linear_sys, linear_stab):
        law = synthesize(linear_sys, "xi1_1,xi2_1,xi1_2,xi2_2", linear_stab)
        assert law.v[0] == parse("-5*eta1 - 5*xi1_1 - 3*xi1_2 - 2*xi2_1")
        assert law.v[1] == parse(
            "-9*eta1 - 6*xi1_1 - 2*xi1_2 - 7*xi2_1 - 3*xi2_2")
        V = parse("(eta1^2 + (xi1_1+eta1)^2 + (xi2_1+eta1)^2 "
                  "+ (xi1_2+2*eta1+2*xi1_1)^2 "
                  "+ (xi2_2+4*eta1+2*xi1_1+2*xi2_1)^2)/2")
        assert simplify(law.W - V) == const(0)
        assert simplify(law.w_dot() + 2 * law.W) == const(0)

    def test_ledger_covers_kappa_and_vanishes_at_zero(self, linear_sys,
                                                      linear_stab):
        kappa = parse_kappa("xi1_1,xi2_1,xi1_2,xi2_2")
        law = synthesize(linear_sys, kappa, linear_stab)
        assert [e["var"] for e in law.ledger] == kappa
        origin = {n: 0.0 for n in linear_sys.state_names()}
        for v in law.v:
            assert evalf(v, origin) == 0.0
        assert evalf(law.W, origin) == 0.0


@pytest.fixture(scope="module")
def mixed_sys():
    return ChainSystem(q=[1, 2, 4], eta_names=["eta1"],
                       eta_dot=[parse("eta1 + xi1_1 + xi2_1")],
                       delta={(2, 1, 1): parse("xi3_2"),
                              (3, 3, 1): parse("xi2_2")})


@pytest.fixture(scope="module")
def mixed_stab():
    return Stabilizer([parse("0"), parse("-2*eta1"), parse("0")],
                      parse("eta1^2/2"))


MIXED_KAPPA = "xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4"
MIXED_GAINS = {"xi1_1": 0, "xi3_1": 0, "xi2_1": 0}


@pytest.fixture(scope="module")
def mixed_law(mixed_sys, mixed_stab):
    return synthesize(mixed_sys, MIXED_KAPPA, mixed_stab, gains=MIXED_GAINS)


class TestMixedExample:
    def test_first_control(self, mixed_law):
        assert mixed_law.v[0] == parse("-eta1")

    def test_second_control(self, mixed_law):
        printed = parse("-6*eta1 - 5*xi1_1 - 6*xi2_1 - 3*xi2_2 "
                        "+ eta1*(-xi3_1 + 3*xi3_2) + xi3_2*(xi1_1 + xi2_1)")
        assert simplify(mixed_law.v[1] - printed) == const(0)

    def test_beta_combination(self, mixed_law):
        z5 = next(e["z"] for e in mixed_law.ledger if e["var"] == "xi2_2")
        beta = parse("3*eta1 + 2*xi1_1 + 2*xi2_1 + 2*xi2_2 - eta1*xi3_2")
        assert simplify(z5 + parse("xi2_2") - beta) == const(0)

    def test_lyapunov_terms(self, mixed_law):
        zs = {e["var"]: e["z"] for e in mixed_law.ledger}
        assert zs["xi1_1"] == parse("xi1_1")
        assert zs["xi3_1"] == parse("xi3_1")
        assert zs["xi3_2"] == parse("xi3_2")
        assert zs["xi2_1"] == parse("xi2_1 + 2*eta1")
        assert zs["xi3_3"] == parse("xi3_3 + xi3_1 + xi3_2")
        expected = simplify(parse("eta1^2/2")
                            + sum((z * z / 2 for z in zs.values()),
                                  start=const(0)))
        assert simplify(mixed_law.W - expected) == const(0)

    def test_wdot_semidefinite_form(self, mixed_law):
        zs = {e["var"]: e["z"] for e in mixed_law.ledger}
        expect = simplify(-parse("eta1^2") - parse("xi3_2^2")
                          - zs["xi2_2"] ** 2 - zs["xi3_3"] ** 2
                          - zs["xi3_4"] ** 2)
        assert simplify(mixed_law.w_dot() - expect) == const(0)

    def test_sampled_decrease(self, mixed_law):
        ok, worst, _ = check_decrease(mixed_law, seed=21, npoints=500)
        assert ok, f"Wdot positive somewhere: {worst}"

    def test_pure_orders_rejected(self, mixed_sys, mixed_stab):
        with pytest.raises(OrderViolation) as e1:
            synthesize(mixed_sys, "xi1_1,xi2_1,xi2_2,xi3_1,xi3_2,xi3_3,xi3_4",
                       mixed_stab, gains=MIXED_GAINS)
        assert e1.value.condition in ("2b", "2c")
        with pytest.raises(OrderViolation) as e2:
            synthesize(mixed_sys, "xi1_1,xi2_1,xi3_1,xi2_2,xi3_2,xi3_3,xi3_4",
                       mixed_stab, gains=MIXED_GAINS)
        assert e2.value.condition in ("2b", "2c")


class TestValidateOrder:
    def equ_delta3(self):
        # chains {2,4,4} with level-by-level triangular couplings
        return ChainSystem(
            q=[2, 4, 4], eta_names=["eta1"],
            eta_dot=[parse("-eta1 + xi1_1 + xi2_1 + xi3_1")],
            delta={(2, 2, 1): parse("xi2_2*xi3_1"),
                   (2, 3, 1): parse("xi3_2 + xi2_3"),
                   (3, 2, 1): parse("xi2_2 + xi3_2"),
                   (3, 3, 1): parse("xi2_3*xi3_3")})

    def test_level_order_accepted(self):
        cs = self.equ_delta3()
        kappa = ("xi1_1,xi2_1,xi3_1,xi1_2,xi2_2,xi3_2,"
                 "xi2_3,xi3_3,xi2_4,xi3_4")
        assert validate_order(cs, parse_kappa(kappa)) == []

    def test_chain_order_violates_2c(self):
        cs = self.equ_delta3()
        kappa = ("xi1_1,xi1_2,xi2_1,xi2_2,xi2_3,xi2_4,"
                 "xi3_1,xi3_2,xi3_3,xi3_4")
        violations = validate_order(cs, parse_kappa(kappa))
        assert violations and violations[0][0] == "2c"

    def test_all_zero_deltas_allow_any_admissible_order(self):
        cs = ChainSystem(q=[2, 2], eta_names=["eta1"],
                         eta_dot=[parse("-eta1 + xi1_1 + xi2_1")])
        for kappa in ("xi1_1,xi1_2,xi2_1,xi2_2", "xi1_1,xi2_1,xi1_2,xi2_2",
                      "xi2_1,xi1_1,xi2_2,xi1_2"):
            assert validate_order(cs, parse_kappa(kappa)) == []
        # a coupling entered as 0 orders nothing either
        cs = ChainSystem(q=[1, 2], delta={(2, 1, 1): const(0)})
        assert validate_order(cs, parse_kappa("xi2_1,xi1_1,xi2_2")) == []

    def test_malformed_kappa(self):
        cs = self.equ_delta3()
        with pytest.raises(OrderViolation, match="malformed"):
            validate_order(cs, parse_kappa("xi1_1,xi1_2"))


def test_integrator_backstep_trivial():
    # no residual dynamics, single integrator: u = -c z
    u, W = integrator_backstep([], [], "xi1_1", const(0), const(0), const(0),
                               c=1)
    assert u == parse("-xi1_1")
    assert W == parse("xi1_1^2/2")


def test_integrator_backstep_rejects_non_affine():
    with pytest.raises(OrderViolation, match="affine"):
        integrator_backstep(["eta1"], [parse("eta1 + xi1_1^2")], "xi1_1",
                            const(0), parse("-eta1"), parse("eta1^2/2"))


class TestLowGain:
    def test_three_long_chain_double_pole(self):
        d = low_gain([3], Var("eps"))
        assert simplify(d.laws[0]
                        - parse("-eps^2*xi1_1 - 2*eps*xi1_2")) == const(0)

    def test_length_one_chain_empty_law(self):
        d = low_gain([3, 1], Var("eps"))
        assert d.laws[1] is None
        assert d.lyapunovs[1] == const(0)

    def test_two_chain_single_pole(self):
        d = low_gain([2], Var("eps"))
        assert simplify(d.laws[0] - parse("-eps*xi1_1")) == const(0)

    def test_coefficient_pattern(self):
        # in the slow law the coefficient of xi_{i,j} is -eps^{l-j} c_{j-1}
        d = low_gain([4], 0.25, poles=[[-1.0, -2.0, -3.0]])
        cs_poly = d.coeffs[0]
        assert cs_poly == pytest.approx([6.0, 11.0, 6.0])
        law = d.laws[0]
        for j in range(1, 4):
            coeff = diff(law, f"xi1_{j}")
            assert evalf(coeff, {}) == pytest.approx(
                -(0.25 ** (4 - j)) * cs_poly[j - 1])

    def test_positive_eps_and_stable_poles_required(self):
        with pytest.raises(ValueError):
            low_gain([2], -0.1)
        for eps in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps must be positive and "
                               f"finite, got {eps}"):
                low_gain([2], eps)
        with pytest.raises(ValueError):
            low_gain([3], 0.1, poles=[[-1.0, 0.5]])

    @pytest.mark.parametrize("lengths, poles, chain", [
        ([3], [[-1.0, -2.0, -3.0]], 1),   # a cubic for two slow states
        ([3], [[-1.0]], 1),
        ([3, 1], [[-1.0, -2.0], [-3.0]], 2),
        ([2, 3], [[-1.0], []], 2)])
    def test_pole_list_must_fit_its_chain(self, lengths, poles, chain):
        with pytest.raises(ValueError, match=f"chain {chain} of slow length"):
            low_gain(lengths, 0.5, poles=poles)

    def test_empty_chain_and_uncertified_symbolic_eps_refused(self):
        with pytest.raises(ValueError, match="^chain length must be >= 1$"):
            low_gain([0], 0.5)
        with pytest.raises(ValueError, match="^slow chains longer than 2 states "
                           "with non-default poles need a numeric eps$"):
            low_gain([3], Var("eps"), poles=[[-1.0, -3.0]])

    def test_one_pole_list_per_chain(self):
        with pytest.raises(ValueError, match="one pole list per chain"):
            low_gain([3, 1], 0.5, poles=[[-1.0, -2.0]])
        assert low_gain([3, 1], 0.5, poles=[[-1.0, -2.0], []]).laws[1] is None


@pytest.fixture(scope="module")
def semiglobal_sys():
    return ChainSystem(q=[2, 3], eta_names=["eta1"],
                       eta_dot=[parse("-eta1 + (v1 + xi2_2)*sin(eta1)")],
                       delta={(2, 2, 1): parse("eta1")})


@pytest.fixture(scope="module")
def semiglobal_stab():
    return Stabilizer([parse("0"), parse("0")], parse("eta1^2/2"))


SEMI_KAPPA = "xi1_1,xi1_2,xi2_1,xi2_2,xi2_3"


@pytest.fixture(scope="module")
def semi_law(semiglobal_sys, semiglobal_stab):
    return semi_global_synthesize(semiglobal_sys, [3, 2], SEMI_KAPPA,
                                  semiglobal_stab, Var("eps"))


class TestSemiGlobal:
    def test_low_gain_control(self, semi_law):
        assert simplify(semi_law.v[0]
                        - parse("-eps^2*xi1_1 - 2*eps*xi1_2")) == const(0)

    def test_virtual_law(self, semi_law):
        star = next(e["law"] for e in semi_law.ledger if e["var"] == "xi2_2")
        printed = parse("-(eps+1)*xi2_1 - (eps+1)*xi2_2 "
                        "- eta1*(sin(eta1) - eps^2*xi1_1 - 2*eps*xi1_2)")
        assert simplify(star - printed) == const(0)

    def test_final_control(self, semi_law):
        v1 = "(-eps^2*xi1_1 - 2*eps*xi1_2)"
        printed = parse(
            f"-(2*eps+1)*xi2_1 - (2*eps+3)*xi2_2 - (eps+2)*xi2_3 "
            f"- eta1*(sin(eta1) + 2*{v1} - eps*{v1} - eps^2*xi1_2) "
            f"- (-eta1 + ({v1} + xi2_2)*sin(eta1))"
            f"*(sin(eta1) + eta1*cos(eta1) + {v1})")
        assert simplify(semi_law.v[1] - printed) == const(0)

    def test_storage_function(self, semi_law):
        printed = parse(
            "(eta1^2 + eps^2*xi1_1^2 + (eps*xi1_1 + xi1_2)^2 + xi2_1^2 "
            "+ (xi2_2 + eps*xi2_1)^2 "
            "+ (xi2_3 + (eps+1)*xi2_1 + (eps+1)*xi2_2 "
            "+ eta1*(sin(eta1) - eps^2*xi1_1 - 2*eps*xi1_2))^2)/2")
        assert simplify(semi_law.W - printed) == const(0)

    def test_w_dot_keeps_eps_symbolic(self, semi_law, semiglobal_sys,
                                      semiglobal_stab):
        # eps is a parameter, not a state: Wdot is taken along the states
        # only, and at eps = 0.5 it is the Wdot of the law built at 0.5
        wdot = semi_law.w_dot()
        assert "eps" in free_vars(wdot)
        at_half = semi_global_synthesize(semiglobal_sys, [3, 2], SEMI_KAPPA,
                                         semiglobal_stab, 0.5)
        assert numeric_equivalent(subs(wdot, {"eps": const(0.5)}),
                                  at_half.w_dot(), points=32, tol=1e-9)

    def test_slot_constraint_enforced(self, semiglobal_sys, semiglobal_stab):
        with pytest.raises(ValueError, match="slot constraint"):
            semi_global_synthesize(semiglobal_sys, [4, 2], SEMI_KAPPA,
                                   semiglobal_stab, 0.5)

    def test_slow_prefix_enforced(self, semiglobal_sys, semiglobal_stab):
        # xi2_2 is not a slow variable, so it may not sit in the prefix
        with pytest.raises(ValueError, match="slow"):
            semi_global_synthesize(semiglobal_sys, [3, 2],
                                   "xi1_1,xi2_2,xi1_2,xi2_1,xi2_3",
                                   semiglobal_stab, 0.5)

    def test_unit_lengths_reduce_to_plain_synthesis(self):
        cs = ChainSystem(q=[2, 2], eta_names=["eta1"],
                         eta_dot=[parse("eta1 + xi1_1 + xi2_1")])
        stab = Stabilizer([parse("-eta1"), parse("-eta1")],
                          parse("eta1^2/2"))
        kappa = "xi1_1,xi2_1,xi1_2,xi2_2"
        a = semi_global_synthesize(cs, [1, 1], kappa, stab, 0.3)
        b = synthesize(cs, kappa, stab)
        assert a.v == b.v and simplify(a.W - b.W) == const(0)

    def test_linear_composition_is_stable_feedback(self):
        # all-linear chain system: the composed semi_law is linear and the closed
        # loop has stable eigenvalues
        cs = ChainSystem(q=[2], eta_names=["eta1"],
                         eta_dot=[parse("-eta1 + xi1_2")])
        stab = Stabilizer([parse("0")], parse("eta1^2/2"))
        semi_law = semi_global_synthesize(cs, [2], "xi1_1,xi1_2", stab, 0.4)
        names = cs.state_names()
        rhs = semi_law.closed_loop_rhs()
        from normform.geom import jacobian
        J = jacobian(rhs, names)
        assert J.is_constant()
        eig = np.linalg.eigvals(J.eval_at({}))
        assert np.all(eig.real < 0)


@pytest.fixture(scope="module")
def addexam_sys():
    return ChainSystem(
        q=[1, 2], eta_names=["z"], eta_dot=[parse("z + xi1_1 + xi2_1")],
        xi_dist={(1, 1): Disturbance(parse("xi2_1*w")),
                 (2, 1): Disturbance(parse("z*w")),
                 (2, 2): Disturbance(parse("cos(xi1_1)*sin(w)"),
                                     lin=parse("0"),
                                     bound=parse("cos(xi1_1)"))})


@pytest.fixture(scope="module")
def addexam_stab():
    return Stabilizer([parse("-2*z"), parse("0")], parse("z^2/2"))


ADD_GAINS = {"xi2_1": 1, "xi1_1": Fraction(1, 3), "xi2_2": 1}


@pytest.fixture(scope="module")
def da_law(addexam_sys, addexam_stab):
    g = Var("gamma")
    budget = simplify(g * g / 3)
    return da_synthesize(addexam_sys, "xi2_1,xi1_1,xi2_2", addexam_stab,
                         g, 0.0, budgets=[budget] * 3, gains=ADD_GAINS)


class TestDisturbanceAttenuation:
    def test_first_virtual_law(self, da_law):
        phi22 = next(e["law"] for e in da_law.ledger if e["var"] == "xi2_1")
        printed = parse("-z - xi2_1 - 3/(4*gamma^2)*xi2_1*(1+z^2)")
        assert simplify(phi22 - printed) == const(0)

    def test_v1_structure(self, da_law):
        # the fully-transported analogue of the reference da_law: same damping
        # factor, the bracket carries both transport contributions
        expect = parse("-11/3*z - 7/3*xi1_1 - 2*xi2_1 "
                       "- 3/(4*gamma^2)*(xi1_1+2*z)*(1+xi2_1^2)")
        assert simplify(da_law.v[0] - expect) == const(0)

    def test_v2_with_printed_combinations(self, da_law):
        phi22 = parse("-z - xi2_1 - 3/(4*gamma^2)*xi2_1*(1+z^2)")
        Phi = parse("z + 3/(4*gamma^2)*(z + z^3)")
        Psi = parse("z + xi1_1 + 2*xi2_1 + xi2_2 "
                    "+ 3/(4*gamma^2)*xi2_2*(1+z^2) "
                    "+ 3/(2*gamma^2)*xi2_1*z*(z + xi1_1 + xi2_1)")
        rbar = Func("abs", Phi) + Func("abs", parse("cos(xi1_1)"))
        printed = simplify(-(parse("xi2_2") - phi22) - Psi
                           - parse("3/(4*gamma^2)")
                           * (parse("xi2_2") - phi22) * (1 + rbar ** 2))
        assert simplify(da_law.v[1] - printed) == const(0)

    def test_ledger_budgets(self, da_law):
        assert all(simplify(e["budget"] - parse("gamma^2/3")) == const(0)
                   for e in da_law.ledger)

    def test_controls_vanish_at_origin(self, da_law):
        env = {n: 0.0 for n in da_law.system.state_names()}
        env["gamma"] = 0.5
        for v in da_law.v:
            assert evalf(v, env) == 0.0

    def test_no_disturbance_reduces_to_plain_synthesis(self):
        cs = ChainSystem(q=[1, 2], eta_names=["z"],
                         eta_dot=[parse("-z + xi1_1 + xi2_1")])
        stab = Stabilizer([parse("0"), parse("0")], parse("z^2/2"))
        kappa = "xi2_1,xi1_1,xi2_2"
        plain = synthesize(cs, kappa, stab)
        da = da_synthesize(cs, kappa, stab, 0.5, 0.1)
        assert plain.v == da.v
        assert simplify(plain.W - da.W) == const(0)

    def test_default_schedule_supply(self, addexam_sys, addexam_stab):
        da_law = da_synthesize(addexam_sys, "xi2_1,xi1_1,xi2_2", addexam_stab,
                            0.5, 0.3)
        total, budgets = da_law.supply
        assert evalf(total, {}) == pytest.approx(0.8 ** 2)
        assert sum(evalf(b, {}) for b in budgets) == \
            pytest.approx(0.8 ** 2 - 0.5 ** 2)


def test_dissipative_single_step_matches_reference():
    # first step of the attenuation example, done standalone
    u, W = dissipative_backstep(
        eta_names=["z"], F=[parse("-z + xi1_1")],
        eta_dists=[None], xi_name_="xi1_1", G=const(0),
        xi_dist=Disturbance(parse("z*w")), phi=const(0),
        V=parse("z^2/2"), budget=parse("gamma^2/3"), c=1)
    printed = parse("-z - xi1_1 - 3/(4*gamma^2)*xi1_1*(1+z^2)")
    assert simplify(u - printed) == const(0)
    assert simplify(W - parse("z^2/2 + xi1_1^2/2")) == const(0)


@pytest.mark.parametrize("xi", ["xi1_1", "s"])
def test_dissipative_single_step_zero_bounds_reduces(xi):
    u, W = dissipative_backstep(
        eta_names=["z"], F=[parse(f"-z + {xi}")], eta_dists=[None],
        xi_name_=xi, G=parse("z^2"), xi_dist=None, phi=const(0),
        V=parse("z^2/2"), budget=parse("gamma^2/3"), c=1)
    ub, Wb = integrator_backstep(["z"], [parse(f"-z + {xi}")], xi,
                                 parse("z^2"), const(0), parse("z^2/2"), c=1)
    assert simplify(u - ub) == const(0)
    assert simplify(W - Wb) == const(0)


def test_dissipative_step_damps_a_bounded_residual_disturbance():
    # phi = -z reads z, whose disturbance is bounded by |z| per unit |w|, so
    # Rbar = |dphi/dz * z| = |z|, and at budget 1/4 the law gains the
    # damping -(xi1_1 - phi) (1 + z^2)
    F, phi, V = [parse("-z + xi1_1")], parse("-z"), parse("z^2/2")
    dist = Disturbance(parse("z*sin(w)"), lin=const(0), bound=parse("z"))
    u, _ = dissipative_backstep(["z"], F, [dist], "xi1_1", const(0), None,
                                phi, V, parse("1/4"))
    plain, _ = integrator_backstep(["z"], F, "xi1_1", const(0), phi, V)
    assert simplify(u - plain + parse("(xi1_1 + z)*(1 + z^2)")) == const(0)


def test_dissipative_refuses_lists_of_different_lengths():
    with pytest.raises(ValueError, match="^F has 1 and eta_dists 2 entries "
                                         "for 1 eta states$"):
        dissipative_backstep(["z"], [parse("-z")], [None, None], "xi1_1",
                             const(0), None, const(0), parse("z^2/2"), const(1))


def test_dissipative_refuses_an_eta_name_equal_to_the_stepped_name():
    with pytest.raises(ValueError) as got:
        dissipative_backstep(
            eta_names=["z"], F=[parse("-z")], eta_dists=[None], xi_name_="z",
            G=const(0), xi_dist=None, phi=const(0), V=parse("z^2/2"),
            budget=parse("gamma^2/3"), c=1)
    assert "'z'" in str(got.value)
    assert "xi1_1" not in str(got.value)


def test_dissipative_renames_an_eta_name_the_step_reserves():
    # the single step reserves no name: an eta state may be called xi1_1, v1
    # or w, as long as the stepped variable is named otherwise
    def design(eta, disturbed):
        dist = Disturbance(lin=parse(f"{eta}^2")) if disturbed else None
        return dissipative_backstep(
            eta_names=[eta], F=[parse(f"-{eta} + s")], eta_dists=[dist],
            xi_name_="s", G=parse(f"{eta}^2"), xi_dist=dist,
            phi=parse(f"-{eta}"), V=parse(f"{eta}^2/2"),
            budget=parse("gamma^2/3"), c=1)

    for eta in ("xi1_1", "v1", "w"):
        u, W = design(eta, True)
        un, Wn = design("z", True)
        assert simplify(u - subs(un, {"z": Var(eta)})) == const(0)
        assert simplify(W - subs(Wn, {"z": Var(eta)})) == const(0)
        u, W = design(eta, False)
        ub, Wb = integrator_backstep([eta], [parse(f"-{eta} + s")], "s",
                                     parse(f"{eta}^2"), parse(f"-{eta}"),
                                     parse(f"{eta}^2/2"), c=1)
        assert simplify(u - ub) == const(0)
        assert simplify(W - Wb) == const(0)


# one-chain systems eta1' = F + p_eta, xi1_1' = v1 + p_xi: (F, phi, V,
# eta disturbance, xi disturbance, gain, budget)
ONE_CHAIN = {
    "linear": ("-eta1 + xi1_1", "0", "eta1^2/2", None,
               Disturbance(parse("eta1*w")), 1, parse("gamma^2/3")),
    "bounded": ("-eta1 + eta1^2*xi1_1", "-eta1", "eta1^2/2",
                Disturbance(parse("eta1*w")),
                Disturbance(parse("cos(xi1_1)*sin(w)"), lin=parse("0"),
                            bound=parse("cos(xi1_1)")), 2, parse("1/12")),
}


@pytest.mark.parametrize("case", ONE_CHAIN)
def test_single_steps_match_the_one_chain_designs(case):
    F, phi, V, eta_dist, xi_dist, c, budget = ONE_CHAIN[case]
    F, phi, V = parse(F), parse(phi), parse(V)
    cs = ChainSystem([1], ["eta1"], [F], eta_dist=[eta_dist],
                     xi_dist={(1, 1): xi_dist})
    stab = Stabilizer([phi], V)
    gains = {"xi1_1": c}
    law = synthesize(cs, "xi1_1", stab, gains=gains)
    u, W = integrator_backstep(["eta1"], [F], "xi1_1", const(0), phi, V, c=c)
    assert simplify(u - law.v[0]) == const(0)
    assert simplify(W - law.W) == const(0)
    da = da_synthesize(cs, "xi1_1", stab, Var("gamma"), 0.0, budgets=[budget],
                       gains=gains)
    u, W = dissipative_backstep(["eta1"], [F], [eta_dist], "xi1_1", const(0),
                                xi_dist, phi, V, budget, c=c)
    assert simplify(u - da.v[0]) == const(0)
    assert simplify(W - da.W) == const(0)
    assert simplify(u - law.v[0]) != const(0)   # the damping is there


def test_dissipative_backstep_rejects_non_affine():
    with pytest.raises(OrderViolation, match="affine") as err:
        dissipative_backstep(["eta1"], [parse("eta1 + xi1_1^2")], [None],
                             "xi1_1", const(0), None, parse("-eta1"),
                             parse("eta1^2/2"), parse("1/12"))
    assert err.value.condition == "affine"


@pytest.mark.parametrize("budgets", [["0", "0", "0"], ["1/12", "0", "1/12"],
                                     ["1/12", "1/12", "-1"]])
def test_da_synthesize_refuses_a_budget_not_positive(addexam_sys, addexam_stab,
                                                     budgets):
    # the damping of a disturbed step divides by its budget
    step = parse_kappa("xi2_1,xi1_1,xi2_2")[next(
        k for k, b in enumerate(budgets) if b in ("0", "-1"))]
    with pytest.raises(ValueError, match=f"step on {step} .*--budgets"):
        da_synthesize(addexam_sys, "xi2_1,xi1_1,xi2_2", addexam_stab, 0.5,
                      0.0, budgets=[parse(b) for b in budgets], gains=ADD_GAINS)


@pytest.mark.parametrize("budget", ["0", "-1/12"])
def test_dissipative_backstep_refuses_a_budget_not_positive(budget):
    with pytest.raises(ValueError, match="step on xi1_1 .*--budgets"):
        dissipative_backstep(["z"], [parse("-z + xi1_1")], [None], "xi1_1",
                             const(0), Disturbance(parse("z*w")), const(0),
                             parse("z^2/2"), parse(budget))


def test_synthesize_without_residual_block():
    # single integrator, no residual state: u = -c*xi, W = xi^2/2
    cs = ChainSystem(q=[1], eta_names=[], eta_dot=[])
    stab = Stabilizer([const(0)], const(0))
    law = synthesize(cs, "xi1_1", stab)
    assert law.v[0] == parse("-xi1_1")
    assert simplify(law.W - parse("xi1_1^2/2")) == const(0)
    law3 = synthesize(cs, "xi1_1", stab, gains={"xi1_1": 3})
    assert law3.v[0] == parse("-3*xi1_1")


@pytest.mark.parametrize("phi, V, want", [
    ("1 + eta1", "eta1^2/2", r"^stabilizer virtual output nonzero at 0$"),
    ("0", "eta1^2/2 + 1", r"^V\(0\) must be 0$"),
    ("0", "-eta1^2", r"^V not positive at a sampled nonzero point$"),
    ("2*eta1", "eta1^2/2", r"^V not decreasing along the stabilized residual "
                           r"block \(Vdot=.* at \{'eta1': .*\}\)$"),
])
def test_synthesize_refuses_a_stabilizer_that_fails_validation(phi, V, want):
    # eta1' = -eta1 + xi1_1 at xi1_1 = phi: 2*eta1 makes it eta1' = eta1
    cs = ChainSystem([1], ["eta1"], [parse("-eta1 + xi1_1")])
    with pytest.raises(ValueError, match=want):
        synthesize(cs, "xi1_1", Stabilizer([parse(phi)], parse(V)))


@pytest.mark.parametrize("synth", [
    lambda cs, stab: synthesize(cs, "xi1_1", stab),
    lambda cs, stab: da_synthesize(cs, "xi1_1", stab, 0.5, 0.1),
    lambda cs, stab: semi_global_synthesize(cs, [1], "xi1_1", stab, 0.5),
], ids=["synthesize", "da_synthesize", "semi_global_synthesize"])
def test_every_synthesizer_refuses_a_stabilizer_that_fails_validation(synth):
    # eta1' = eta1 + xi1_1 at xi1_1 = phi = eta1 is eta1' = 2*eta1
    cs = ChainSystem([1], ["eta1"], [parse("eta1 + xi1_1")])
    with pytest.raises(ValueError, match="^V not decreasing along"):
        synth(cs, Stabilizer([parse("eta1")], parse("eta1^2/2")))


def test_a_residual_row_that_reads_a_deeper_chain_state_is_checked_at_0():
    # at phi, eta1' = -eta1 + xi1_2 still reads xi1_2, so V cannot be
    # sampled along it; phi and V are checked at 0 (this leaked an
    # EvalError for the unbound xi1_2)
    cs = ChainSystem([2], ["eta1"], [parse("-eta1 + xi1_2")])
    law = synthesize(cs, "xi1_1,xi1_2", Stabilizer([const(0)], parse("eta1^2/2")))
    assert evalf(law.v[0], {"eta1": 0.0, "xi1_1": 0.0, "xi1_2": 0.0}) == 0.0
    with pytest.raises(ValueError, match="^stabilizer virtual output nonzero at 0$"):
        synthesize(cs, "xi1_1,xi1_2", Stabilizer([parse("1 + eta1")],
                                                 parse("eta1^2/2")))


def test_closed_loop_adds_a_disturbance_given_by_its_linear_part():
    cs = ChainSystem([1], xi_dist={(1, 1): Disturbance(lin=parse("xi1_1"))})
    law = synthesize(cs, "xi1_1", Stabilizer([const(0)], const(0)))
    assert law.closed_loop_rhs() == [parse("-xi1_1")]
    assert law.closed_loop_rhs(with_disturbance=True) == [
        simplify(parse("-xi1_1 + xi1_1*w"))]


def test_engine_refuses_a_row_fed_by_an_undetermined_control():
    # xi2_1' = xi2_2 + xi2_1*v1: stepping xi2_1 before chain 1 is closed
    # leaves v1 in the row of xi2_1 itself
    cs = ChainSystem(q=[1, 2], delta={(2, 1, 1): parse("xi2_1")})
    engine = _Engine(cs, Stabilizer([const(0), const(0)], const(0)))
    with pytest.raises(OrderViolation, match=r"dynamics of xi2_1 depend on "
                       r"undetermined controls \['v1'\] at the step on "
                       r"xi2_1") as err:
        engine.step("xi2_1")
    assert err.value.condition == "2b"


def test_sampled_checks_raise_where_undefined(linear_sys, linear_stab):
    # sqrt(eta1) is undefined for eta1 < 0, and its derivative as well: a
    # point there must raise EvalError, never pass on a NaN value
    V = parse("eta1^2 + eta1^2*sqrt(eta1)")
    with pytest.raises(EvalError):
        Stabilizer([parse("-eta1")], V).validate(["eta1"], [parse("-eta1")])
    law = synthesize(linear_sys, "xi1_1,xi1_2,xi2_1,xi2_2", linear_stab)
    with pytest.raises(EvalError):
        check_decrease(ControlLaw(linear_sys, law.kappa, law.v, V, []))


# the designs the CLI builds for the shipped chain systems, as in the golden
# backstep cases
SHIPPED_DESIGNS = {
    "mixed": ("nf_mixed", lambda cs, stab: synthesize(
        cs, "xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4", stab,
        gains={"xi1_1": 0, "xi3_1": 0, "xi2_1": 0})),
    "uchain-chain": ("nf_uchain", lambda cs, stab: synthesize(
        cs, "xi1_1,xi1_2,xi2_1,xi2_2", stab)),
    "uchain-level": ("nf_uchain", lambda cs, stab: synthesize(
        cs, "xi1_1,xi2_1,xi1_2,xi2_2", stab)),
    "semiglobal": ("nf_semiglobal", lambda cs, stab: semi_global_synthesize(
        cs, [3, 2], SEMI_KAPPA, stab, 0.5)),
    "addexam": ("nf_addexam", lambda cs, stab: da_synthesize(
        cs, "xi2_1,xi1_1,xi2_2", stab, 0.5, 0.0,
        budgets=[parse("1/12")] * 3, gains=ADD_GAINS)),
}


@pytest.mark.parametrize("case", SHIPPED_DESIGNS)
def test_w_dot_matches_the_reference_sum(case):
    stem, design = SHIPPED_DESIGNS[case]
    law = design(*load_chain_system(SYSTEMS / f"{stem}.nf"))
    assert law.w_dot().key == _reference_w_dot(law).key


def test_w_dot_matches_the_reference_sum_with_symbolic_parameters(semi_law,
                                                                   da_law):
    # eps and gamma are no states: lie_derivative holds them fixed
    for law, name in ((semi_law, "eps"), (da_law, "gamma")):
        wdot = law.w_dot()
        assert name in free_vars(wdot)
        assert wdot.key == _reference_w_dot(law).key


def test_a_gain_on_a_variable_that_is_not_stepped_is_refused(
        mixed_sys, mixed_stab, semiglobal_sys, semiglobal_stab, addexam_sys,
        addexam_stab):
    # such a gain was dropped without a word
    with pytest.raises(ValueError, match=r"not stepped: \['xi9_9'\]"):
        synthesize(mixed_sys, MIXED_KAPPA, mixed_stab,
                   gains={**MIXED_GAINS, "xi9_9": 3})
    with pytest.raises(ValueError, match=r"not stepped: \['xi1_l'\]"):
        da_synthesize(addexam_sys, "xi2_1,xi1_1,xi2_2", addexam_stab, 0.5,
                      0.1, gains={**ADD_GAINS, "xi1_l": 2})
    # the low-gain laws close the slow variables; they are not stepped
    with pytest.raises(ValueError, match=r"not stepped: \['xi1_2'\]"):
        semi_global_synthesize(semiglobal_sys, [3, 2], SEMI_KAPPA,
                               semiglobal_stab, 0.5,
                               gains={"xi1_2": 2, "xi2_3": 2})
    law = semi_global_synthesize(semiglobal_sys, [3, 2], SEMI_KAPPA,
                                 semiglobal_stab, 0.5, gains={"xi2_3": 2})
    assert [e["gain"] for e in law.ledger] == [1, 2]
