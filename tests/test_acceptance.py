"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Tolerances are pinned here: exact integer matches for structure lists,
structural or 32-point/1e-9 randomized equivalence for expressions, 1e-6
relative for the L2-gain booleans, and the stated simulation thresholds.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import counter3_affine, counter3_triple
from normform.backstep import (ChainSystem, Disturbance, Stabilizer,
                               da_synthesize, semi_global_synthesize,
                               synthesize)
from normform.expr import (Func, Var, const, diff, evalf, numeric_equivalent,
                           parse, simplify, subs)
from normform.geom import SymMatrix
from normform.linstruct import (LinearTriple, linear_infinite_zeros,
                                vector_relative_degree)
from normform.normalform import build_normal_form, zero_dynamics
from normform.simkit import (SimConfig, batch_simulate, l2_gain_check,
                             simulate, step_signal)
from normform.structure import (infinite_zero_algorithm, invariance_harness,
                                zero_output_algorithm)
from normform.sysmodel import SamplePlan, numeric_rank, sample_domain


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" - {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# -------------------------------------------------------------------------
# Criterion 1: structure algorithm regression on the four worked systems
# -------------------------------------------------------------------------

def test_criterion_1_structure_regression(ex31, ex32, ex33, ex34):
    t0 = time.time()
    out31 = infinite_zero_algorithm(ex31, SamplePlan(count=40))
    ok = (out31.regular and out31.rho == [0, 1, 2] and out31.q == [2, 3]
          and out31.invertibility == "Invertible")
    nf31 = build_normal_form(ex31, out31)
    claim = subs(parse("xi2_3/(1 - xi1_1)"),
                 dict(zip(nf31.forward_names(), nf31.forward_exprs())))
    ok &= numeric_equivalent(nf31.delta_entry(2, 2, 1), claim, points=32,
                             tol=1e-9, box=ex31.domain)
    report("criterion 1a: five-state example rho/q/invertibility/coupling",
           ok, f"{time.time() - t0:.1f}s")

    t0 = time.time()
    out32 = infinite_zero_algorithm(ex32, SamplePlan(count=40))
    ok = out32.regular and out32.q == [1]
    gie = SymMatrix([[parse("0"), parse("exp(-x4)")]])
    nf32 = build_normal_form(ex32, out32,
                             phi_e=[parse("x1 - x2*x4"), parse("x2"),
                                    parse("x3")], gamma_ie=gie)
    rep = zero_dynamics(nf32)
    ok &= rep.zero_dynamics is not None and len(rep.zero_dynamics) == 1
    name, rhs = rep.zero_dynamics[0]
    ok &= simplify(rhs + Var(name)) == const(0)
    report("criterion 1b: degenerate example q={1}, residual za' = -za",
           ok, f"{time.time() - t0:.1f}s")

    t0 = time.time()
    out33 = zero_output_algorithm(ex33, SamplePlan(count=60))
    ok = out33.regular and out33.rho == [1, 2] and out33.q == [1, 2]
    nf33 = build_normal_form(ex33, out33)
    zd = zero_dynamics(nf33)
    ok &= zd.eta_rhs == [simplify(-Var(zd.eta_names[0]) ** 3)]
    report("criterion 1c: zero-output example rho/q and cubic zero dynamics",
           ok, f"{time.time() - t0:.1f}s")

    t0 = time.time()
    out34 = infinite_zero_algorithm(ex34, SamplePlan(count=30))
    ok = (out34.regular and out34.invertibility == "LeftInvertible"
          and out34.q == [1] * ex34.m)
    report("criterion 1d: vehicle instance left invertible, m order-1 zeros",
           ok, f"{time.time() - t0:.1f}s")


# -------------------------------------------------------------------------
# Criterion 2: linear fixtures
# -------------------------------------------------------------------------

def test_criterion_2_linear_fixtures():
    ok = linear_infinite_zeros(counter3_triple()).q == [1, 4]
    A1 = np.array([[0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1],
                   [0, 0, 0, 0]], float)
    B1 = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], float)
    C1 = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], float)
    ok &= linear_infinite_zeros(LinearTriple(A1, B1, C1)).q == [1, 3]
    As = np.array([[1, 1, -2, 0, 0], [0, 5, -4, 1, 2], [0, 1, 0, 0, 1],
                   [-2, 0, -1, 0, 0], [0, 0, 0, -1, 0]], float)
    Bs = np.array([[0, 0], [1, 1], [0, 0], [-1, 1], [0, 0]], float)
    Cs = np.array([[0, 1, -2, 0, 0], [0, 1, -2, 0, 1]], float)
    ok &= vector_relative_degree(LinearTriple(As, Bs, Cs)) is None
    To = np.array([[1, 0], [-1, 1]], float)
    ok &= vector_relative_degree(LinearTriple(As, Bs, To @ Cs)) == [1, 2]
    report("criterion 2: linear fixtures q lists and relative degrees", ok)


# -------------------------------------------------------------------------
# Criterion 3: invariance property suite (20 seeded transforms x 5 kinds)
# -------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_3_invariance(ex31, ex32):
    t0 = time.time()
    for label, system in (("five-state", ex31), ("degenerate", ex32),
                          ("counter3-affine", counter3_affine())):
        res = invariance_harness(system, n_trials=20, seed=7,
                                 plan=SamplePlan(count=25))
        base = res["baseline"]
        for kind, qs in res["trials"].items():
            for q in qs:
                assert q == base, f"{label}/{kind}: {q} != {base}"
    report("criterion 3: q invariant under 20x5 seeded transforms "
           "on three systems", True, f"{time.time() - t0:.1f}s")


# -------------------------------------------------------------------------
# Criterion 4: backstepping formula reproduction
# -------------------------------------------------------------------------

def test_criterion_4_backstepping():
    cs = ChainSystem(q=[2, 2], eta_names=["eta1"],
                     eta_dot=[parse("eta1 + xi1_1 + xi2_1")])
    stab = Stabilizer([parse("-eta1"), parse("-eta1")], parse("eta1^2/2"))

    chain = synthesize(cs, "xi1_1,xi1_2,xi2_1,xi2_2", stab)
    ok = chain.v[0] == parse("-3*eta1 - 5*xi1_1 - 3*xi1_2")
    ok &= chain.v[1] == parse("-11*eta1 - 4*xi1_1 - 2*xi1_2 "
                              "- 11*xi2_1 - 3*xi2_2")
    ok &= simplify(chain.w_dot() + 2 * chain.W) == const(0)
    level = synthesize(cs, "xi1_1,xi2_1,xi1_2,xi2_2", stab)
    ok &= level.v[0] == parse("-5*eta1 - 5*xi1_1 - 3*xi1_2 - 2*xi2_1")
    ok &= level.v[1] == parse("-9*eta1 - 6*xi1_1 - 2*xi1_2 "
                              "- 7*xi2_1 - 3*xi2_2")
    ok &= simplify(level.w_dot() + 2 * level.W) == const(0)
    report("criterion 4a: chain/level coefficients exact, Wdot = -2W "
           "symbolically", ok)

    mixed = ChainSystem(q=[1, 2, 4], eta_names=["eta1"],
                        eta_dot=[parse("eta1 + xi1_1 + xi2_1")],
                        delta={(2, 1, 1): parse("xi3_2"),
                               (3, 3, 1): parse("xi2_2")})
    mstab = Stabilizer([parse("0"), parse("-2*eta1"), parse("0")],
                       parse("eta1^2/2"))
    law = synthesize(mixed, "xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4",
                     mstab, gains={"xi1_1": 0, "xi3_1": 0, "xi2_1": 0})
    ok = simplify(law.v[0] + parse("eta1")) == const(0)
    v2_ref = parse("-6*eta1 - 5*xi1_1 - 6*xi2_1 - 3*xi2_2 "
                   "+ eta1*(-xi3_1 + 3*xi3_2) + xi3_2*(xi1_1 + xi2_1)")
    ok &= numeric_equivalent(law.v[1], v2_ref, points=32, tol=1e-9)
    zs = {e["z"].key: e["z"] for e in law.ledger}
    z5 = next(e["z"] for e in law.ledger if e["var"] == "xi2_2")
    beta = parse("3*eta1 + 2*xi1_1 + 2*xi2_1 + 2*xi2_2 - eta1*xi3_2")
    ok &= numeric_equivalent(simplify(z5 + parse("xi2_2")), beta,
                             points=32, tol=1e-9)
    # the storage function and its derivative in the engine's certified form
    ledger_z = {e["var"]: e["z"] for e in law.ledger}
    V_ref = simplify(parse("eta1^2/2")
                     + sum((z * z / 2 for z in ledger_z.values()),
                           start=const(0)))
    ok &= numeric_equivalent(law.W, V_ref, points=32, tol=1e-9)
    wdot_ref = simplify(-parse("eta1^2") - parse("xi3_2^2")
                        - ledger_z["xi2_2"] ** 2 - ledger_z["xi3_3"] ** 2
                        - ledger_z["xi3_4"] ** 2)
    ok &= numeric_equivalent(law.w_dot(), wdot_ref, points=32, tol=1e-9)
    report("criterion 4b: mixed-order example v1/beta/v2/V/Vdot reproduced",
           ok)

    rhs = law.closed_loop_rhs()
    # the 50 initial states batch_simulate draws from master seed 99; a
    # batch keeps no V channel, so simulate gives the 50 runs' traces
    x0 = np.random.default_rng(99).uniform(-1, 1, (50, 8))
    V = simulate(rhs, mixed.state_names(), x0,
                 SimConfig(dt=2e-3, horizon=6.0), V_expr=law.W).V
    dt = 2e-3
    bound = dt * 1e-6 * (1.0 + V[:-1])
    ok = bool(np.all(np.diff(V, axis=0) <= bound))
    report("criterion 4c: V monotone along 50 seeded closed-loop runs", ok)


# -------------------------------------------------------------------------
# Criterion 5: semi-global example
# -------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_5_semi_global():
    cs = ChainSystem(q=[2, 3], eta_names=["eta1"],
                     eta_dot=[parse("-eta1 + (v1 + xi2_2)*sin(eta1)")],
                     delta={(2, 2, 1): parse("eta1")})
    stab = Stabilizer([parse("0"), parse("0")], parse("eta1^2/2"))
    kappa = "xi1_1,xi1_2,xi2_1,xi2_2,xi2_3"

    sym = semi_global_synthesize(cs, [3, 2], kappa, stab, Var("eps"))
    star = next(e["law"] for e in sym.ledger if e["var"] == "xi2_2")
    star_ref = parse("-(eps+1)*xi2_1 - (eps+1)*xi2_2 "
                     "- eta1*(sin(eta1) - eps^2*xi1_1 - 2*eps*xi1_2)")
    ok = numeric_equivalent(star, star_ref, points=32, tol=1e-9,
                            box={"eps": (0.05, 0.9)})
    v1s = "(-eps^2*xi1_1 - 2*eps*xi1_2)"
    v2_ref = parse(f"-(2*eps+1)*xi2_1 - (2*eps+3)*xi2_2 - (eps+2)*xi2_3 "
                   f"- eta1*(sin(eta1) + 2*{v1s} - eps*{v1s} - eps^2*xi1_2) "
                   f"- (-eta1 + ({v1s} + xi2_2)*sin(eta1))"
                   f"*(sin(eta1) + eta1*cos(eta1) + {v1s})")
    ok &= numeric_equivalent(sym.v[1], v2_ref, points=32, tol=1e-9,
                             box={"eps": (0.05, 0.9)})
    V_ref = parse("(eta1^2 + eps^2*xi1_1^2 + (eps*xi1_1 + xi1_2)^2 + xi2_1^2"
                  " + (xi2_2 + eps*xi2_1)^2 + (xi2_3 + (eps+1)*xi2_1"
                  " + (eps+1)*xi2_2 + eta1*(sin(eta1) - eps^2*xi1_1"
                  " - 2*eps*xi1_2))^2)/2")
    ok &= numeric_equivalent(sym.W, V_ref, points=32, tol=1e-9,
                             box={"eps": (0.05, 0.9)})
    report("criterion 5a: slow law, virtual law, final control, and V match",
           ok)

    names = cs.state_names()
    law05 = semi_global_synthesize(cs, [3, 2], kappa, stab, 0.5)
    rhs05 = law05.closed_loop_rhs()
    t0 = time.time()
    tr = simulate(rhs05, names, [5, 0.5, 0.5, 0.5, 5, 5],
                  SimConfig(dt=1e-3, horizon=60.0))
    wall = time.time() - t0
    nrm = float(np.linalg.norm(tr.x[-1, 0]))
    ok = (not tr.diverged) and nrm <= 1e-3 and wall < 5.0
    report("criterion 5b: eps=0.5 moderate start converges",
           ok, f"|x(T)|={nrm:.2e}, wall={wall:.2f}s")

    law015 = semi_global_synthesize(cs, [3, 2], kappa, stab, 0.15)
    tr2 = simulate(law015.closed_loop_rhs(), names,
                   [-20, -2, -2, -2, -20, -20],
                   SimConfig(dt=1e-3, horizon=100.0))
    nrm2 = float(np.linalg.norm(tr2.x[-1, 0]))
    ok = (not tr2.diverged) and nrm2 <= 1e-3
    report("criterion 5c: eps=0.15 large start converges",
           ok, f"|x(T)|={nrm2:.2e}")

    tr3 = simulate(rhs05, names, [-20, -2, -2, -2, -20, -20],
                   SimConfig(dt=1e-3, horizon=60.0))
    nrm3 = float(np.linalg.norm(tr3.x[-1, 0]))
    report("criterion 5d: eps=0.5 large start (domain-of-attraction "
           "contrast, observational)", True,
           f"diverged={tr3.diverged}, |x(T)|={nrm3:.2e}")


# -------------------------------------------------------------------------
# Criterion 6: disturbance attenuation example
# -------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_disturbance_attenuation():
    gamma = 0.5
    cs = ChainSystem(
        q=[1, 2], eta_names=["z"], eta_dot=[parse("z + xi1_1 + xi2_1")],
        xi_dist={(1, 1): Disturbance(parse("xi2_1*w")),
                 (2, 1): Disturbance(parse("z*w")),
                 (2, 2): Disturbance(parse("cos(xi1_1)*sin(w)"),
                                     lin=parse("0"),
                                     bound=parse("cos(xi1_1)"))})
    stab = Stabilizer([parse("-2*z"), parse("0")], parse("z^2/2"))
    g = Var("gamma")
    budget = simplify(g * g / 3)
    gains = {"xi2_1": 1, "xi1_1": Fraction(1, 3), "xi2_2": 1}
    law = da_synthesize(cs, "xi2_1,xi1_1,xi2_2", stab, g, 0.0,
                        budgets=[budget] * 3, gains=gains)

    phi22 = next(e["law"] for e in law.ledger if e["var"] == "xi2_1")
    phi22_ref = parse("-z - xi2_1 - 3/(4*gamma^2)*xi2_1*(1+z^2)")
    ok = numeric_equivalent(phi22, phi22_ref, points=32, tol=1e-9,
                            box={"gamma": (0.3, 1.2)})
    Phi = parse("z + 3/(4*gamma^2)*(z + z^3)")
    Psi = parse("z + xi1_1 + 2*xi2_1 + xi2_2 + 3/(4*gamma^2)*xi2_2*(1+z^2)"
                " + 3/(2*gamma^2)*xi2_1*z*(z + xi1_1 + xi2_1)")
    rbar = Func("abs", Phi) + Func("abs", parse("cos(xi1_1)"))
    v2_ref = simplify(-(parse("xi2_2") - phi22_ref) - Psi
                      - parse("3/(4*gamma^2)") * (parse("xi2_2") - phi22_ref)
                      * (1 + rbar ** 2))
    ok &= numeric_equivalent(law.v[1], v2_ref, points=32, tol=1e-9,
                             box={"gamma": (0.3, 1.2)})
    v1_ref = parse("-11/3*z - 7/3*xi1_1 - 2*xi2_1 "
                   "- 3/(4*gamma^2)*(xi1_1+2*z)*(1+xi2_1^2)")
    ok &= numeric_equivalent(law.v[0], v1_ref, points=32, tol=1e-9,
                             box={"gamma": (0.3, 1.2)})
    report("criterion 6a: attenuation laws phi22/v1/v2 reproduced "
           "(v1 in corrected-transport form, see decisions ledger)", ok)

    fixed = {"gamma": parse(str(gamma))}
    rhs = [subs(e, fixed) for e in law.closed_loop_rhs(with_disturbance=True)]
    W = subs(law.W, fixed)
    names = cs.state_names()
    outs = [parse("xi1_1"), parse("xi2_1")]
    tr = simulate(rhs, names, [0, 0, 0, 0], SimConfig(dt=2e-4, horizon=12.0),
                  w_signal=step_signal(2.0), output_exprs=outs, V_expr=W)
    res = l2_gain_check(tr, gamma, V0=0.0)
    report("criterion 6b: L2 gain holds from the origin", res["pass"],
           f"lhs={res['lhs']:.4g} rhs={res['rhs']:.4g}")

    x0 = [1.0, 1.0, 1.0, 1.0]
    V0 = evalf(W, dict(zip(names, x0)))
    tr2 = simulate(rhs, names, x0, SimConfig(dt=2e-4, horizon=12.0),
                   w_signal=step_signal(2.0, scale=10.0), output_exprs=outs,
                   V_expr=W)
    res2 = l2_gain_check(tr2, gamma, V0=V0)
    report("criterion 6c: L2 gain holds with storage offset W(x0)",
           res2["pass"], f"lhs={res2['lhs']:.4g} rhs={res2['rhs']:.4g}")


# -------------------------------------------------------------------------
# Criterion 7: numeric foundations
# -------------------------------------------------------------------------

def test_criterion_7_numeric_foundations(ex31):
    rng = np.random.default_rng(12)
    pool = ["x1*x2 - x3^2", "sin(x1)*exp(x2)", "sqrt(1 + x1^2) + cos(x2*x3)",
            "x1^3/(1 + x2^2)", "exp(-x3)*x1 + 2/3*x2"]
    names = ["x1", "x2", "x3"]
    ok = True
    for k in range(50):
        e = parse(pool[k % len(pool)])
        var = names[k % 3]
        d = diff(e, var)
        env = {n: rng.uniform(-0.8, 0.8) for n in names}
        h = 1e-6
        up = dict(env); up[var] += h
        dn = dict(env); dn[var] -= h
        fd = (evalf(e, up) - evalf(e, dn)) / (2 * h)
        val = evalf(d, env)
        ok &= abs(val - fd) <= 1e-5 * (1 + abs(val))
    report("criterion 7a: 50 finite-difference derivative agreements", ok)

    errs = []
    for dt in (0.02, 0.01):
        tr = simulate([parse("-x1")], ["x1"], [1.0],
                      SimConfig(dt=dt, horizon=1.0))
        errs.append(abs(tr.x[-1, 0, 0] - np.exp(-1.0)))
    factor = errs[0] / errs[1]
    report("criterion 7b: RK4 halving factor in [12, 20]",
           12.0 <= factor <= 20.0, f"factor={factor:.2f}")

    M = SymMatrix([[parse("1"), parse("x3")], [parse("x4"), parse("x3*x4")]])
    pts = sample_domain(SamplePlan(count=20, seed=3), ex31)
    base = numeric_rank(M, pts, ex31.states).ranks
    ok = True
    for trial in range(5):
        L = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        R = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        lm = SymMatrix.from_numpy(L) @ M @ SymMatrix.from_numpy(R)
        ok &= numeric_rank(lm, pts, ex31.states).ranks == base
    report("criterion 7c: rank invariant under invertible multipliers", ok)


# -------------------------------------------------------------------------
# Criterion 8: Monte Carlo protocol (observational, non-gating comparison)
# -------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_monte_carlo():
    cs = ChainSystem(q=[2, 2], eta_names=["eta1"],
                     eta_dot=[parse("eta1 + xi1_1 + xi2_1")])
    stab = Stabilizer([parse("-eta1"), parse("-eta1")], parse("eta1^2/2"))
    chain = synthesize(cs, "xi1_1,xi1_2,xi2_1,xi2_2", stab)
    level = synthesize(cs, "xi1_1,xi2_1,xi1_2,xi2_2", stab)
    cfg = SimConfig(dt=2e-3, horizon=5.0)
    box = [(-1.0, 1.0)] * 5
    results = {}
    for label, law in (("chain", chain), ("level", level)):
        a = batch_simulate(law.closed_loop_rhs(), cs.state_names(), box,
                           nruns=1000, master_seed=2024, cfg=cfg)
        b = batch_simulate(law.closed_loop_rhs(), cs.state_names(), box,
                           nruns=1000, master_seed=2024, cfg=cfg)
        assert np.array_equal(a["endpoint_norms"], b["endpoint_norms"])
        assert a["envelope_min"].shape == (len(a["t"]), 5)
        results[label] = a
    med_c = results["chain"]["median_endpoint"]
    med_l = results["level"]["median_endpoint"]
    faster = "level-by-level" if med_l <= med_c else "chain-by-chain"
    report("criterion 8: 1000-run batches deterministic with envelopes "
           "(observational comparison recorded)", True,
           f"median endpoints: chain={med_c:.3e}, level={med_l:.3e}; "
           f"{faster} converged faster in the median")
