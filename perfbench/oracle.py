"""Known answers and an independent integrator for checking outputs.

The expected values are written out by hand from README.md and the test
suite (tests/test_cli.py, tests/test_acceptance.py); they are never
computed by the program under test.  Simulation endpoints are checked
against a reference that parses the rendered right-hand sides with sympy
and integrates them with this file's own numpy RK4.
"""

from __future__ import annotations

import numpy as np

# analyze: exit code, and for regular outcomes rho / q / invertibility.
ANALYZE = {
    "ex31": {"code": 0, "rho": [0, 1, 2], "q": [2, 3],
             "invertibility": "Invertible"},
    "ex32": {"code": 0, "rho": [1, 1, 1], "q": [1],
             "invertibility": "Degenerate"},
    # ex33 is the zero-output example: L_g h drops rank on the box, so the
    # infinite zero algorithm reports it as not regular
    "ex33": {"code": 2, "text": "rank not constant"},
    "ex34": {"code": 0, "rho": [1], "q": [1],
             "invertibility": "LeftInvertible"},
    "remark_nonregular": {"code": 2, "text": "rank not constant"},
    "ex33 --zero-output": {"code": 0, "rho": [1, 2], "q": [1, 2],
                           "invertibility": "Invertible"},
}

# linzeros: lines that must appear in stdout.
LINZEROS = {
    "counter3": ["q = {1, 4}"],
    "exam1": ["q = {1, 3}"],
    "exam2": ["q = {1, 3}"],
    "exam_sch": ["q = {1, 2}", "vector relative degree: none"],
    "exam_sch --output-transform": ["q = {1, 2}",
                                    "vector relative degree: {1, 2}"],
}

# backstep: exit code and reference laws (criteria 4a, 4b and 6a; the
# disturbance design is evaluated at gamma = 1/2, where the per-step
# budgets gamma^2/3 equal the 1/12 passed on the command line).
BACKSTEP = {
    "mixed": {"code": 0, "ledger": 7, "text": ["v1 = -eta1"], "laws": {
        2: "-6*eta1 - 5*xi1_1 - 6*xi2_1 - 3*xi2_2 "
           "+ eta1*(-xi3_1 + 3*xi3_2) + xi3_2*(xi1_1 + xi2_1)"}},
    "mixed-inadmissible": {"code": 2, "stderr": ["2c", "2b"]},
    "uchain-chain": {"code": 0, "laws": {
        1: "-3*eta1 - 5*xi1_1 - 3*xi1_2",
        2: "-11*eta1 - 4*xi1_1 - 2*xi1_2 - 11*xi2_1 - 3*xi2_2"}},
    "uchain-level": {"code": 0, "laws": {
        1: "-5*eta1 - 5*xi1_1 - 3*xi1_2 - 2*xi2_1",
        2: "-9*eta1 - 6*xi1_1 - 2*xi1_2 - 7*xi2_1 - 3*xi2_2"}},
    "semiglobal": {"code": 0, "text": ["v1 = ", "1.0*xi1_2"]},
    "addexam": {"code": 0, "laws": {
        1: "-11/3*z - 7/3*xi1_1 - 2*xi2_1 "
           "- 3/(4*gamma^2)*(xi1_1+2*z)*(1+xi2_1^2)"}},
}

# simulate: exit code and stdout fragments; endpoints go to the reference.
SIMULATE = {
    "mixed": {"code": 0, "text": ["diverged=False"]},
    "addexam": {"code": 0, "text": ["diverged=False", "pass=True"]},
}

# invariance: q of the untransformed systems (criteria 1 and 2).
INVARIANCE_Q = {"ex31": [2, 3], "ex32": [1], "counter3": [1, 4]}

# assumption D verdicts (tests/test_normalform.py).
ASSUMPTION_D = {"ex31": True, "ex33": False}

ENDPOINT_RTOL = 1e-9


def law_matches(got, ref_text, fixed=None):
    """Randomized equivalence of a synthesized law and its reference."""
    from normform.expr import numeric_equivalent, parse, subs
    ref = parse(ref_text)
    if fixed:
        ref = subs(ref, {k: parse(v) for k, v in fixed.items()})
    return numeric_equivalent(got, ref, points=32, tol=1e-9)


def lambdify_rhs(rhs_exprs, names, modules="numpy"):
    """Render the program's expressions and rebuild them in sympy."""
    import sympy
    from normform.expr import render
    syms = sympy.symbols(list(names) + ["w"])
    table = {str(s): s for s in syms}
    table.update({"abs": sympy.Abs, "sign": sympy.sign})
    exprs = [sympy.sympify(render(e).replace("^", "**"), locals=table)
             for e in rhs_exprs]
    return sympy.lambdify(syms, exprs, modules)


def rk4_endpoints(fn, x0, dt, horizon, w=lambda t: 0.0):
    """Fixed-step RK4 of x' = fn(*x, w(t)) from the rows of x0 (runs, n).

    The state is kept as one entry per component: floats for a single run
    (fn lambdified for "math"), arrays over the runs otherwise."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    x = [float(v) for v in x0[0]] if len(x0) == 1 else list(x0.T)
    for k in range(int(round(horizon / dt))):
        t = k * dt
        w1, w2, w4 = w(t), w(t + dt / 2), w(t + dt)
        k1 = fn(*x, w1)
        k2 = fn(*[a + dt / 2 * b for a, b in zip(x, k1)], w2)
        k3 = fn(*[a + dt / 2 * b for a, b in zip(x, k2)], w2)
        k4 = fn(*[a + dt * b for a, b in zip(x, k3)], w4)
        x = [a + dt / 6 * (b + 2 * c + 2 * d + e)
             for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
    return np.column_stack([np.broadcast_to(np.asarray(a, dtype=float), (len(x0),))
                            for a in x])


def endpoints_agree(got, ref):
    """Row-wise relative agreement of two (runs, n) endpoint arrays."""
    got = np.atleast_2d(got)
    ref = np.atleast_2d(ref)
    err = np.linalg.norm(got - ref, axis=1)
    scale = np.maximum(np.linalg.norm(ref, axis=1), 1e-300)
    return np.all(np.isfinite(got)) and np.all(err <= ENDPOINT_RTOL * scale)
