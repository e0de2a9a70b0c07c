"""Infinite zero structure and zero output structure algorithms.

Both algorithms repeatedly differentiate the output map, split the fresh rows
into a part whose input coefficient matrix extends the accumulated full-row-
rank stack (picked by a 0/1 selection matrix R_k) and a complementary part
S_k, eliminate the dependent input directions through coefficient matrices
P_{k,l}, and continue with the eliminated rows.  The recorded integers
rho_1 <= rho_2 <= ... determine the chain lengths q and the invertibility
class.  Rank hypotheses are certified by seeded sampling: on the whole domain
box for the infinite zero algorithm, on Newton-projected points of the nested
zero sets for the zero output algorithm.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .expr import EvalError, Var, compile_exprs, const, render, simplify, subs
from .geom import (SymMatrix, complete_rows, jacobian, kernel_values,
                   lie_derivative, lie_derivative_cols, rank)
from .sysmodel import DEFAULT_TOL, AffineSystem, SamplePlan

__all__ = ["StructureOutcome", "StepRecord", "StructureError", "select_RS",
           "classify_invertibility", "infinite_zero_algorithm",
           "zero_output_algorithm", "invariance_harness", "apply_state_diffeo",
           "apply_input_transform", "apply_output_transform",
           "apply_state_feedback", "apply_output_injection"]

LEFT = "LeftInvertible"
RIGHT = "RightInvertible"
INVERTIBLE = "Invertible"
DEGENERATE = "Degenerate"

# the squared residual below which a zero-output projection has converged
PROJ_TOL = 1e-10


class StructureError(RuntimeError):
    pass


class StepRecord:
    def __init__(self, k, rho, R, S, theta, omega, P_blocks, a_new, b_new):
        self.k = k
        self.rho = rho                # rho_k
        self.R = R                    # (rho_k - rho_{k-1}) x (p - rho_{k-1}) one-hot rows
        self.S = S                    # (p - rho_k) x (p - rho_{k-1}) one-hot rows
        self.theta = theta            # Theta_k
        self.omega = omega            # Omega_k
        self.P_blocks = P_blocks      # {l: SymMatrix (p-rho_k) x (rho_l - rho_{l-1})}
        self.a_new = a_new            # L_f R_k Theta_{k-1} (list)
        self.b_new = b_new            # L_g R_k Theta_{k-1} (SymMatrix)


class StructureOutcome:
    def __init__(self, system, mode, samples, tol):
        self.system = system
        self.mode = mode              # "infinite-zero" | "zero-output"
        self.samples = samples
        self.tol = tol
        self.regular = True
        self.failure_step = None
        self.failure_reason = None
        self.k_star = None
        self.rho = []
        self.q = []
        self.chains = []              # (step k, row r of R_k) per chain
        self.m_d = 0
        self.n_d = 0
        self.invertibility = None
        self.steps = []
        self.a = []                   # L_f Omega_{k*}
        self.b = None                 # L_g Omega_{k*}
        self.W = {}                   # zero-output residuals per step
        self.sigma = {}               # zero-output sigma_{i,j} rows
        self.step_points = {}         # zero-output projected points per step
        self.warnings = []

    def fail(self, k, reason):
        """Mark the outcome not regular at step k and return it."""
        self.regular = False
        self.failure_step = k
        self.failure_reason = reason
        return self

    def raise_if_irregular(self):
        if not self.regular:
            raise StructureError(
                f"system not regular at step {self.failure_step}: {self.failure_reason}")
        return self

    def report_dict(self):
        d = {
            "mode": self.mode,
            "regular": self.regular,
            "rho": list(self.rho),
            "q": list(self.q),
            "m_d": self.m_d,
            "n_d": self.n_d,
            "invertibility": self.invertibility,
            "warnings": list(self.warnings),
        }
        if not self.regular:
            d["failure"] = {"step": self.failure_step, "reason": self.failure_reason}
        d["steps"] = []
        for rec in self.steps:
            d["steps"].append({
                "k": rec.k,
                "rho": rec.rho,
                "R": rec.R.astype(int).tolist(),
                "S": rec.S.astype(int).tolist(),
                "Theta": [render(t) for t in rec.theta],
                "Omega": [render(t) for t in rec.omega],
                "P": {str(l): [[render(e) for e in row] for row in blk.rows]
                      for l, blk in rec.P_blocks.items()},
            })
        if self.mode == "zero-output":
            d["W"] = {str(k): [[render(e) for e in row] for row in w.rows]
                      for k, w in self.W.items()}
        return d

    def report_text(self):
        lines = [f"structure report ({self.mode})"]
        lines.append(f"regular: {'yes' if self.regular else 'no'}")
        if not self.regular:
            lines.append(f"not regular at step {self.failure_step}: {self.failure_reason}")
        lines.append("rho = {" + ", ".join(str(r) for r in self.rho) + "}")
        lines.append("q = {" + ", ".join(str(v) for v in self.q) + "}")
        if self.invertibility:
            lines.append(f"invertibility: {self.invertibility}")
        lines.append(f"m_d = {self.m_d}, n_d = {self.n_d}")
        for rec in self.steps:
            lines.append(f"step {rec.k}: rho_{rec.k} = {rec.rho}")
            lines.append(f"  R = {rec.R.astype(int).tolist()}")
            lines.append(f"  S = {rec.S.astype(int).tolist()}")
            lines.append("  Theta = [" + ", ".join(render(t) for t in rec.theta) + "]")
            for l in sorted(rec.P_blocks):
                blk = rec.P_blocks[l]
                lines.append(f"  P_{rec.k},{l} = "
                             + str([[render(e) for e in row] for row in blk.rows]))
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"


def classify_invertibility(rho_last, m, p):
    if rho_last == m and m < p:
        return LEFT
    if rho_last == p and p < m:
        return RIGHT
    if rho_last == m == p:
        return INVERTIBLE
    return DEGENERATE


def chain_structure(rho):
    """What rho_1 <= rho_2 <= ... fixes: step k starts rho_k - rho_{k-1}
    chains, each of length k.  Returns (q, chains, n_d): the chain lengths,
    each chain's (step k, row r of R_k), and n_d = sum(q); m_d = len(q)."""
    chains = [(k, r) for k, (lo, hi) in enumerate(zip([0] + rho, rho), start=1)
              for r in range(hi - lo)]
    q = [k for k, _ in chains]
    return q, chains, sum(q)


def _settle(out, rho, m, p):
    """Record the ranks of a finished run and the structure they fix."""
    out.k_star = len(rho)
    out.rho = rho
    out.q, out.chains, out.n_d = chain_structure(rho)
    out.m_d = len(out.q)
    out.invertibility = classify_invertibility(out.m_d, m, p)


def _sel_product(outcome, i, j):
    """Row indices into Theta_{j-1} of the selection product
    R_i S_{i-1} ... S_j over outcome.steps (R_i alone for j = i); used for
    the symbolic and the linear outcomes alike.  Every R_k and S_k has one
    1 per row, so the product picks rows and applying it is indexing."""
    rows = np.nonzero(outcome.steps[i - 1].R)[1]
    for t in range(i - 1, j - 1, -1):
        rows = np.nonzero(outcome.steps[t - 1].S)[1][rows]
    return rows


def _chain_coords(outcome, theta0):
    """Per chain (k, r): row r of R_k S_{k-1} ... S_j Theta_{j-1} for
    j = 1..k, where Theta_0 = theta0 is the output map and Theta_j the
    residue that step j records as `theta`; expressions for the symbolic
    outcome, numeric rows for the linear one."""
    levels = [theta0] + [rec.theta for rec in outcome.steps]
    return [[levels[j - 1][_sel_product(outcome, k, j)[r]]
             for j in range(1, k + 1)] for k, r in outcome.chains]


def select_RS(lg_omega_vals, lg_theta_vals, need, tol):
    """Choose 0/1 row-selection R (and complement S) so that the stack
    [L_g Omega; L_g R Theta] has full row rank at every sample.

    The values are stacks over the samples, of shapes (P, rows, m) (or
    sequences of per-sample matrices).  The greedy completion at the base
    sample (index 0) is tried first, then every row subset in order; the
    first that gives full row rank at all samples is taken.  Returns (R, S)
    as numpy arrays of one-hot rows, or None when no selection works.
    """
    lg_omega_vals = np.asarray(lg_omega_vals, dtype=float)
    lg_theta_vals = np.asarray(lg_theta_vals, dtype=float)
    nrows = lg_theta_vals.shape[1]
    greedy = complete_rows(lg_omega_vals[0], lg_theta_vals[0], need, tol)
    for rows in itertools.chain([greedy], itertools.combinations(range(nrows), need)):
        rows = list(rows)
        stack = np.concatenate([lg_omega_vals, lg_theta_vals[:, rows]], axis=1)
        if len(rows) == need and np.all(rank(stack, tol) == stack.shape[1]):
            eye = np.eye(nrows)
            return eye[rows], eye[[r for r in range(nrows) if r not in rows]]
    return None


def _solve_P_pivot(lg_s_theta, lg_omega, origin_vals, tol):
    """P with P L_g Omega = L_g S Theta, solved exactly on rho_k columns of
    L_g Omega independent at the origin (sample 0, values `origin_vals`).
    L_g Omega has full row rank at every sample, so this P is the only one;
    in zero-output mode its residual W vanishes on the zero set."""
    piv = complete_rows([], origin_vals.T, lg_omega.shape[0], tol)
    if len(piv) < lg_omega.shape[0]:
        raise StructureError("could not find pivot columns at the origin")
    target, sub = (SymMatrix([[r[j] for j in piv] for r in mat.rows])
                   for mat in (lg_s_theta, lg_omega))
    return target @ sub.inverse()


def _run_algorithm(system, plan, tol, zero_output):
    samples = [system.origin()] + plan.realize(system)
    mode = "zero-output" if zero_output else "infinite-zero"
    out = StructureOutcome(system, mode, samples, tol)

    n, m, p = system.n, system.m, system.p
    states = system.states
    f = system.f
    g = system.g

    theta = list(system.h)                             # Theta_{k-1}
    omega = []                                         # Omega_{k-1}
    a_stack = []                                       # L_f Omega_{k-1}
    lg_omega = SymMatrix([])                           # L_g Omega_{k-1}
    rho_list = []
    k = 0

    while True:
        k += 1
        lg_theta = lie_derivative_cols(g, states, theta)

        if zero_output:
            stack = system.h + [t for rec in out.steps for t in rec.theta]
            pts = out.step_points[k] = _project_points(system, stack, samples, out, k)
        else:
            pts = samples

        try:
            at = np.transpose(pts)
            lg_theta_vals = lg_theta.sample(states, at)
            lg_omega_vals = (lg_omega.sample(states, at) if lg_omega.shape[0]
                             else np.zeros((len(pts), 0, m)))
        except EvalError as exc:
            return out.fail(k, f"evaluation failed: {exc}")

        ranks = rank(np.concatenate([lg_omega_vals, lg_theta_vals], axis=1),
                     tol).tolist()
        if len(set(ranks)) != 1:
            return out.fail(k, "rank not constant across samples: "
                            f"observed {sorted(set(ranks))}"
                            + (" on the zero set" if zero_output else ""))
        rho_k = ranks[0]
        need = rho_k - len(omega)

        sel = select_RS(lg_omega_vals, lg_theta_vals, need, tol)
        if sel is None:
            return out.fail(k, "no constant 0/1 row selection R_k gives a full-row-rank "
                            "stack at all samples (Assumption A_k fails)")
        R, S = sel
        rho_list.append(rho_k)

        r_idx, s_idx = np.nonzero(R)[1], np.nonzero(S)[1]
        r_theta = [theta[i] for i in r_idx]
        s_theta = [theta[i] for i in s_idx]
        a_new = lie_derivative(f, r_theta)
        b_new = SymMatrix([lg_theta.rows[i] for i in r_idx])

        omega = omega + r_theta
        a_stack = a_stack + a_new
        lg_omega = lg_omega.vstack(b_new)

        P_blocks = {}
        W_k = None
        if s_theta:
            lg_s_theta = SymMatrix([lg_theta.rows[i] for i in s_idx])
            theta_next = lie_derivative(f, s_theta)
            if rho_k > 0:
                P_full = _solve_P_pivot(lg_s_theta, lg_omega, np.concatenate(
                    [lg_omega_vals[0], lg_theta_vals[0][r_idx]]), tol)
                W_k = lg_s_theta - (P_full @ lg_omega)
                if not zero_output:
                    _assert_zero_matrix(W_k, states, pts, out, k)
                # column c of P_full belongs to chain c, which has length q[c]
                q = chain_structure(rho_list)[0]
                for l in dict.fromkeys(q):
                    P_blocks[l] = SymMatrix([[row[c] for c in range(rho_k) if q[c] == l]
                                             for row in P_full.rows])
                correction = (P_full @ SymMatrix([[e] for e in a_stack])).col(0)
                theta_next = [simplify(x - c)
                              for x, c in zip(theta_next, correction)]
        else:
            theta_next = []

        rec = StepRecord(k, rho_k, R, S, theta_next, list(omega), P_blocks,
                         a_new, b_new)
        out.steps.append(rec)
        if zero_output and W_k is not None:
            out.W[k] = W_k
        theta = theta_next

        if k + chain_structure(rho_list)[2] < n and rho_k < min(p, m):
            continue
        break

    _settle(out, rho_list, m, p)
    out.a = a_stack
    out.b = lg_omega
    if zero_output:
        _fill_sigma(out)
    return out


def _assert_zero_matrix(mat, states, pts, out, k):
    """Warn at the first sample where the residual is above 1e-6 or not
    finite."""
    peak = np.abs(mat.sample(states, np.transpose(pts), finite=False)).max(axis=(1, 2))
    big = np.flatnonzero(~(peak <= 1e-6))
    if big.size:
        out.warnings.append(
            f"step {k}: elimination residual not numerically zero "
            f"(max {peak[big[0]]:.2e}); rank hypothesis may be marginal")


def _project_points(system, theta_stack, samples, out, k):
    """Damped Gauss-Newton projection of all domain samples at once onto the
    Theta stack's zero set, to a squared residual of PROJ_TOL.  The origin is
    kept; samples meeting non-finite values or ending off the box are dropped."""
    nr, n = len(theta_stack), system.n
    fn, grads = (compile_exprs(e, system.states) for e in (theta_stack, [
        d for row in jacobian(theta_stack, system.states) for d in row]))
    x = np.array(samples[1:], dtype=float).reshape(-1, n).T      # a sample per column
    converged, live = np.zeros(x.shape[1], dtype=bool), np.arange(x.shape[1])
    for _ in range(50):
        r = kernel_values(fn, x[:, live], np.empty((nr, live.size)))
        base, finite = np.einsum("ip,ip->p", r, r), np.isfinite(r).all(axis=0)
        converged[live[finite & (base <= PROJ_TOL)]] = True
        J = kernel_values(grads, x[:, live], np.empty((nr * n, live.size)))
        go = finite & (base > PROJ_TOL) & np.isfinite(J).all(axis=0)
        live, r, base, J = live[go], r[:, go], base[go], J[:, go].T.reshape(-1, nr, n)
        if not live.size:
            break
        # the minimum-norm least-squares step, at lstsq's rcond=None cutoff
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        inv = np.divide(1.0, s, out=np.zeros_like(s),
                        where=s > np.finfo(float).eps * max(nr, n) * s[:, :1])
        step = np.einsum("pkj,pk->jp", Vt, inv * np.einsum("pik,ip->pk", U, r))
        # halve each step until its squared residual falls, to alpha = 1e-4
        alpha = np.ones(live.size)      # 0 once the sample's step is taken
        while np.any(wait := alpha > 1e-4):
            xn = x[:, live[wait]] - alpha[wait] * step[:, wait]
            rn = kernel_values(fn, xn, np.empty((nr, xn.shape[1])))
            took = np.einsum("ip,ip->p", rn, rn) < base[wait]    # never if not finite
            x[:, live[wait][took]] = xn[:, took]
            alpha[wait] = np.where(took, 0.0, alpha[wait] * 0.5)
        live = live[alpha == 0]
    lo, hi = np.transpose(system.box())
    kept = converged & np.all((lo <= x.T) & (x.T <= hi), axis=1)
    pts = [system.origin()] + list(x.T[kept])
    if len(pts) == 1 and len(samples) > 1:
        out.warnings.append(
            f"step {k}: projection onto the zero set failed for all samples; "
            "rank hypotheses checked at x=0 only")
    return pts


def _fill_sigma(out):
    """sigma_{i,j} rows of the zero-output normal form: the residual input
    feedthrough R_i S_{i-1..j+1} W_j appearing in the level-j equations."""
    for idx, (k, r) in enumerate(out.chains, start=1):
        for j in range(1, k):
            if j in out.W:
                out.sigma[(idx, j)] = out.W[j].row(_sel_product(out, k, j + 1)[r])


def infinite_zero_algorithm(system, plan=None, tol=DEFAULT_TOL):
    """Run the infinite zero structure algorithm on the domain box."""
    return _run_algorithm(system, plan or SamplePlan(), tol, zero_output=False)


def zero_output_algorithm(system, plan=None, tol=DEFAULT_TOL):
    """Run the zero output structure algorithm: rank hypotheses are checked
    on points projected onto the nested zero sets (origin always included);
    the points of each step are kept in `step_points`."""
    return _run_algorithm(system, plan or SamplePlan(), tol, zero_output=True)


# ---------------------------------------------------------------------------
# Invariance transforms
# ---------------------------------------------------------------------------

def apply_state_diffeo(system, T):
    """z = T x for an invertible constant matrix T (entries int/Fraction for
    exact arithmetic); returns the transformed system on a box covering the
    image of the original one."""
    n = system.n
    Tfr = [[Fraction(v).limit_denominator(10**9) for v in row] for row in T]
    T_sym = SymMatrix([[const(v) for v in row] for row in Tfr])
    zs = [f"z{i + 1}" for i in range(n)]
    zcol = SymMatrix([[Var(z)] for z in zs])
    xmap = dict(zip(system.states, (T_sym.inverse() @ zcol).col(0)))
    f_col = T_sym @ system.f.as_column()
    f_new = [subs(f_col[i, 0], xmap) for i in range(n)]
    g_new = T_sym @ system.g
    g_new = SymMatrix([[subs(e, xmap) for e in row] for row in g_new.rows])
    h_new = [subs(e, xmap) for e in system.h]
    Tnum = np.array([[float(v) for v in row] for row in Tfr])
    lo = np.array([system.domain[s][0] for s in system.states])
    hi = np.array([system.domain[s][1] for s in system.states])
    corners = np.abs(Tnum) @ np.maximum(np.abs(lo), np.abs(hi))
    domain = {z: (-float(c) - 1e-9, float(c) + 1e-9) for z, c in zip(zs, corners)}
    return AffineSystem(zs, f_new, g_new, h_new, domain, name=system.name + "+diffeo")


def apply_input_transform(system, gamma_inv):
    """u = Gamma^{-1} u_check: g -> g Gamma^{-1} (Gamma constant or SymMatrix)."""
    gi = gamma_inv if isinstance(gamma_inv, SymMatrix) else SymMatrix.from_numpy(gamma_inv)
    return AffineSystem(system.states, system.f.components, system.g @ gi,
                        system.h, dict(system.domain), name=system.name + "+input")


def apply_output_transform(system, gamma_o):
    go = gamma_o if isinstance(gamma_o, SymMatrix) else SymMatrix.from_numpy(gamma_o)
    h_new = (go @ SymMatrix([[e] for e in system.h])).col(0)
    return AffineSystem(system.states, system.f.components, system.g, h_new,
                        dict(system.domain), name=system.name + "+output")


def apply_state_feedback(system, K_exprs):
    """u = u_check + K(x): f -> f + g K."""
    kcol = SymMatrix([[e] for e in K_exprs])
    shift = system.g @ kcol
    f_new = [simplify(c + shift[i, 0]) for i, c in enumerate(system.f.components)]
    return AffineSystem(system.states, f_new, system.g, system.h,
                        dict(system.domain), name=system.name + "+feedback")


def apply_output_injection(system, F):
    """f -> f + F(x) h(x) with F an n x p SymMatrix (or numpy)."""
    Fm = F if isinstance(F, SymMatrix) else SymMatrix.from_numpy(F)
    shift = Fm @ SymMatrix([[e] for e in system.h])
    f_new = [simplify(c + shift[i, 0]) for i, c in enumerate(system.f.components)]
    return AffineSystem(system.states, f_new, system.g, system.h,
                        dict(system.domain), name=system.name + "+injection")


def invariance_harness(system, n_trials=20, seed=7, plan=None):
    """Apply seeded random admissible transforms and re-run the infinite
    zero structure algorithm; returns {transform kind: [q lists]} for
    comparison with the baseline.

    Rank hypotheses of a transformed system are checked at the images of the
    baseline sample points, so open-set assumptions carry over exactly.
    """
    plan = plan or SamplePlan(count=40)
    base_points = plan.realize(system)
    base = infinite_zero_algorithm(
        system, SamplePlan(points=base_points)).raise_if_irregular()
    rng = np.random.default_rng(seed)
    results = {"baseline": base.q, "trials": {}}

    def rand_invertible(sz):
        while True:
            M = rng.integers(-2, 3, size=(sz, sz))
            if abs(round(float(np.linalg.det(M.astype(float))))) >= 1:
                return M

    def same_points():
        return SamplePlan(points=base_points)

    def diffeo_case():
        T = rand_invertible(system.n)
        sysT = apply_state_diffeo(system, T)
        Tn = T.astype(float)
        return sysT, SamplePlan(points=[Tn @ np.asarray(p) for p in base_points])

    def input_case():
        M = rand_invertible(system.m)
        Minv = SymMatrix([[const(Fraction(int(v))) for v in row]
                          for row in M]).inverse()
        return apply_input_transform(system, Minv), same_points()

    def output_case():
        M = rand_invertible(system.p)
        return apply_output_transform(
            system, SymMatrix([[const(int(v)) for v in row] for row in M])), same_points()

    def feedback_case():
        K = [const(int(v)) * Var(system.states[int(i) % system.n])
             for i, v in enumerate(rng.integers(-2, 3, size=system.m))]
        return apply_state_feedback(system, K), same_points()

    def injection_case():
        F = rng.integers(-2, 3, size=(system.n, system.p))
        Fm = SymMatrix([[const(int(v)) for v in row] for row in F])
        return apply_output_injection(system, Fm), same_points()

    kinds = {"diffeo": diffeo_case, "input": input_case, "output": output_case,
             "feedback": feedback_case, "injection": injection_case}
    for kind, make in kinds.items():
        qs = []
        for _ in range(n_trials):
            transformed, tplan = make()
            res = infinite_zero_algorithm(transformed, tplan)
            qs.append(res.q if res.regular else None)
        results["trials"][kind] = qs
    return results
