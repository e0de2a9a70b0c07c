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

import numpy as np

from .expr import EvalError, compile_exprs, const, render, simplify
from .geom import SymMatrix, lie_derivative, lie_derivative_cols, rank
from .sysmodel import DEFAULT_TOL, SamplePlan

__all__ = ["StructureOutcome", "StepRecord", "StructureError", "select_RS",
           "classify_invertibility", "infinite_zero_algorithm",
           "zero_output_algorithm", "invariance_harness", "apply_state_diffeo",
           "apply_input_transform", "apply_output_transform",
           "apply_state_feedback", "apply_output_injection"]

LEFT = "LeftInvertible"
RIGHT = "RightInvertible"
INVERTIBLE = "Invertible"
DEGENERATE = "Degenerate"


class StructureError(RuntimeError):
    pass


class StepRecord:
    def __init__(self, k, rho, R, S, theta, omega, P_blocks, a_new, b_new):
        self.k = k
        self.rho = rho                # rho_k
        self.R = R                    # (rho_k - rho_{k-1}) x (p - rho_{k-1}) 0/1
        self.S = S                    # (p - rho_k) x (p - rho_{k-1}) 0/1
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

    def raise_if_irregular(self):
        if not self.regular:
            raise StructureError(
                f"system not regular at step {self.failure_step}: {self.failure_reason}")
        return self

    def chains(self):
        """Chain descriptors [(length q_i, step k, row r within the step)]."""
        out = []
        prev = 0
        for rec in self.steps:
            for r in range(rec.rho - prev):
                out.append((rec.k, rec.k, r))
            prev = rec.rho
        return out

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


def _sel_product(outcome, i, j):
    """Row-selection product R_i S_{i-1} ... S_j over outcome.steps
    (R_i alone for j > i - 1); used for the symbolic and the linear
    outcomes alike."""
    sel = outcome.steps[i - 1].R
    for t in range(i - 1, j - 1, -1):
        sel = sel @ outcome.steps[t - 1].S
    return sel


def select_RS(lg_omega_vals, lg_theta_vals, need, tol):
    """Choose 0/1 row-selection R (and complement S) so that the stack
    [L_g Omega; L_g R Theta] has full row rank at every sample.

    The values are stacks over the samples, of shapes (P, rows, m) (or
    sequences of per-sample matrices).  Greedy pivoting at the base sample
    (index 0), then verification at all samples; falls back to exhaustive
    search over row subsets.  Returns (R, S) as numpy arrays, or None when
    no selection works.
    """
    lg_omega_vals = np.asarray(lg_omega_vals, dtype=float)
    lg_theta_vals = np.asarray(lg_theta_vals, dtype=float)
    nrows = lg_theta_vals.shape[1]

    def ok_everywhere(rows):
        stack = np.concatenate([lg_omega_vals, lg_theta_vals[:, rows]], axis=1)
        return bool(np.all(rank(stack, tol) == lg_omega_vals.shape[1] + len(rows)))

    chosen = []
    base0, cand0 = lg_omega_vals[0], lg_theta_vals[0]
    cur = rank(base0, tol)
    for r in range(nrows):
        if len(chosen) == need:
            break
        trial = np.vstack([base0] + [cand0[chosen + [r]]])
        if rank(trial, tol) == cur + len(chosen) + 1:
            chosen.append(r)
    if len(chosen) == need and ok_everywhere(chosen):
        return _selection_matrices(chosen, nrows)
    for combo in itertools.combinations(range(nrows), need):
        if ok_everywhere(list(combo)):
            return _selection_matrices(list(combo), nrows)
    return None


def _selection_matrices(rows, nrows):
    rows = list(rows)
    rest = [r for r in range(nrows) if r not in rows]
    R = np.zeros((len(rows), nrows))
    for i, r in enumerate(rows):
        R[i, r] = 1.0
    S = np.zeros((len(rest), nrows))
    for i, r in enumerate(rest):
        S[i, r] = 1.0
    return R, S


def _apply_selection(sel, exprs):
    """Apply a 0/1 selection matrix to a column of expressions."""
    out = []
    for row in sel:
        acc = const(0)
        for coef, e in zip(row, exprs):
            if coef:
                acc = acc + const(int(coef)) * e
        out.append(simplify(acc))
    return out


def _sym_from_rows_times(sel, matrix):
    """sel (numpy 0/1) times a SymMatrix."""
    rows = []
    for row in sel:
        picked = None
        for coef, mrow in zip(row, matrix.rows):
            if coef:
                picked = mrow if picked is None else [a + b for a, b in zip(picked, mrow)]
        rows.append([simplify(e) for e in (picked or [const(0)] * matrix.shape[1])])
    return SymMatrix(rows) if rows else SymMatrix([])


def _solve_P_gram(lg_s_theta, lg_omega):
    """Coefficient matrix from the pseudo-inverse identity
    P = [L_g S Theta][L_g Omega]^T [L_g Omega (L_g Omega)^T]^{-1}."""
    gram = lg_omega @ lg_omega.transpose()
    inv = gram.inverse(max_size=4)
    return (lg_s_theta @ lg_omega.transpose()) @ inv


def _solve_P_pivot(lg_s_theta, lg_omega, origin_vals, tol):
    """Coefficient matrix solved exactly on pivot columns of L_g Omega.

    Pivot columns are chosen numerically at the origin; the resulting P
    reproduces the zero-output algorithm's smooth extension, whose residual
    W vanishes on the zero set.
    """
    rho, m = lg_omega.shape
    piv = []
    for j in range(m):
        if len(piv) == rho:
            break
        sub = origin_vals[:, piv + [j]]
        if rank(sub, tol) == len(piv) + 1:
            piv.append(j)
    if len(piv) < rho:
        raise StructureError("could not find pivot columns at the origin")
    sub = SymMatrix([[lg_omega[i, j] for j in piv] for i in range(rho)])
    target = SymMatrix([[lg_s_theta[i, j] for j in piv]
                        for i in range(lg_s_theta.shape[0])])
    return target @ sub.inverse(max_size=4)


def _run_algorithm(system, plan, tol, zero_output, proj_tol=1e-10,
                   step_points=None):
    samples = [system.origin()] + plan.realize(system)
    mode = "zero-output" if zero_output else "infinite-zero"
    out = StructureOutcome(system, mode, samples, tol)

    n, m, p = system.n, system.m, system.p
    states = system.states
    f = system.f
    g = system.g

    theta = [simplify(e) for e in system.h]            # Theta_{k-1}
    omega = []                                         # Omega_{k-1}
    a_blocks = []                                      # L_f R_l Theta_{l-1}
    b_blocks = []                                      # L_g R_l Theta_{l-1}
    rho_prev = 0
    rho_list = []
    k = 0

    while True:
        k += 1
        if k > n + 1:
            out.regular = False
            out.failure_step = k
            out.failure_reason = "step bound exceeded (internal)"
            return out

        lg_theta = lie_derivative_cols(g, states, theta)
        lg_omega = SymMatrix([list(b.rows[i]) for b in b_blocks
                              for i in range(b.shape[0])]) if b_blocks else SymMatrix([])

        if zero_output:
            if step_points and k in step_points:
                pts = [system.origin()] + [np.asarray(p, dtype=float)
                                           for p in step_points[k]]
            else:
                pts = _project_points(system,
                                      theta_stack=_all_thetas(system.h, out.steps),
                                      samples=samples, proj_tol=proj_tol,
                                      out=out, k=k)
            out.step_points[k] = pts
        else:
            pts = samples

        try:
            at = np.transpose(pts)
            lg_theta_vals = lg_theta.sample(states, at)
            lg_omega_vals = (lg_omega.sample(states, at) if lg_omega.shape[0]
                             else np.zeros((len(pts), 0, m)))
        except EvalError as exc:
            out.regular = False
            out.failure_step = k
            out.failure_reason = f"evaluation failed: {exc}"
            return out

        ranks = rank(np.concatenate([lg_omega_vals, lg_theta_vals], axis=1),
                     tol).tolist()
        if len(set(ranks)) != 1:
            out.regular = False
            out.failure_step = k
            out.failure_reason = ("rank not constant across samples: "
                                  f"observed {sorted(set(ranks))}"
                                  + (" on the zero set" if zero_output else ""))
            return out
        rho_k = ranks[0]
        need = rho_k - rho_prev

        sel = select_RS(lg_omega_vals, lg_theta_vals, need, tol)
        if sel is None:
            out.regular = False
            out.failure_step = k
            out.failure_reason = ("no constant 0/1 row selection R_k gives a full-row-rank "
                                  "stack at all samples (Assumption A_k fails); "
                                  "try a user-supplied R_k")
            return out
        R, S = sel

        r_theta = _apply_selection(R, theta)
        s_theta = _apply_selection(S, theta)
        a_new = [lie_derivative(f, e) for e in r_theta]
        b_new = lie_derivative_cols(g, states, r_theta) if r_theta else SymMatrix([])

        omega = omega + r_theta
        a_blocks.append(a_new)
        b_blocks.append(b_new)
        lg_omega_k = SymMatrix([list(b.rows[i]) for b in b_blocks
                                for i in range(b.shape[0])]) if rho_k else SymMatrix([])

        P_blocks = {}
        W_k = None
        if s_theta:
            lg_s_theta = lie_derivative_cols(g, states, s_theta)
            P_full = None
            if rho_k > 0:
                if rho_k > 4:
                    raise StructureError(
                        "symbolic Gram inverse beyond supported size (rho_k > 4)")
                if zero_output:
                    origin_vals = lg_omega_k.eval_at({s: 0.0 for s in states})
                    P_full = _solve_P_pivot(lg_s_theta, lg_omega_k, origin_vals, tol)
                else:
                    P_full = _solve_P_gram(lg_s_theta, lg_omega_k)
                W_k = lg_s_theta - (P_full @ lg_omega_k)
                W_k = SymMatrix([[simplify(e) for e in row] for row in W_k.rows])
                if not zero_output:
                    _assert_zero_matrix(W_k, states, pts, tol, out, k)
                col = 0
                widths = _block_widths(rho_list + [rho_k])
                for l, w in enumerate(widths, start=1):
                    if w:
                        P_blocks[l] = SymMatrix([row[col:col + w] for row in P_full.rows])
                    col += w

            lf_s_theta = [lie_derivative(f, e) for e in s_theta]
            correction = [const(0)] * len(s_theta)
            if rho_k > 0:
                a_stack = [e for blk in a_blocks for e in blk]
                for i in range(len(s_theta)):
                    acc = const(0)
                    for j, ae in enumerate(a_stack):
                        acc = acc + P_full[i, j] * ae
                    correction[i] = acc
            theta_next = [simplify(x - c) for x, c in zip(lf_s_theta, correction)]
        else:
            theta_next = []

        rec = StepRecord(k, rho_k, R, S, theta_next, list(omega), P_blocks,
                         a_new, b_new)
        out.steps.append(rec)
        if zero_output and W_k is not None:
            out.W[k] = W_k
        rho_list.append(rho_k)
        rho_prev = rho_k
        theta = theta_next

        n_d_running = sum(j * (rho_list[j - 1] - (rho_list[j - 2] if j > 1 else 0))
                          for j in range(1, k + 1))
        if k + n_d_running < n and rho_k < min(p, m):
            continue
        break

    out.k_star = k
    out.rho = rho_list
    out.m_d = rho_list[-1]
    out.n_d = sum(j * (rho_list[j - 1] - (rho_list[j - 2] if j > 1 else 0))
                  for j in range(1, k + 1))
    q = []
    prev = 0
    for j, r in enumerate(rho_list, start=1):
        q.extend([j] * (r - prev))
        prev = r
    out.q = q
    out.invertibility = classify_invertibility(out.m_d, m, p)
    out.a = [e for blk in a_blocks for e in blk]
    out.b = SymMatrix([list(b.rows[i]) for b in b_blocks for i in range(b.shape[0])]) \
        if out.m_d else SymMatrix([])
    if zero_output:
        _fill_sigma(out)
    return out


def _block_widths(rho_list):
    widths = []
    prev = 0
    for r in rho_list:
        widths.append(r - prev)
        prev = r
    return widths


def _all_thetas(h, steps):
    stack = [simplify(e) for e in h]
    for rec in steps:
        stack = stack + list(rec.theta)
    return stack


def _assert_zero_matrix(mat, states, pts, tol, out, k):
    """Warn at the first sample where the residual is above 1e-6 or not
    finite."""
    if 0 in mat.shape:
        return
    peak = np.abs(mat.sample(states, np.transpose(pts), finite=False)).max(axis=(1, 2))
    big = np.flatnonzero(~(peak <= 1e-6))
    if big.size:
        out.warnings.append(
            f"step {k}: elimination residual not numerically zero "
            f"(max {peak[big[0]]:.2e}); rank hypothesis may be marginal")


def _project_points(system, theta_stack, samples, proj_tol, out, k):
    """Damped Gauss-Newton projection of domain samples onto the zero set of
    the accumulated Theta stack; the origin is always included."""
    states = system.states
    pts = [system.origin()]
    constraints = theta_stack
    if not constraints:
        return samples
    fn = compile_exprs(constraints, states)
    grads = compile_exprs([d for e in constraints
                           for d in _grad(e, states)], states)
    nc = len(constraints)
    n = system.n
    box = system.box()
    failures = 0
    for p0 in samples[1:]:
        x = np.array(p0, dtype=float)
        converged = False
        for _ in range(50):
            try:
                r = np.asarray(fn(list(x)), dtype=float)
            except EvalError:
                break
            if not np.all(np.isfinite(r)):
                break
            if float(np.dot(r, r)) <= proj_tol:
                converged = True
                break
            J = np.asarray(grads(list(x)), dtype=float).reshape(nc, n)
            step, *_ = np.linalg.lstsq(J, r, rcond=None)
            alpha = 1.0
            base = float(np.dot(r, r))
            while alpha > 1e-4:
                xn = x - alpha * step
                try:
                    rn = np.asarray(fn(list(xn)), dtype=float)
                except EvalError:
                    alpha *= 0.5
                    continue
                if np.all(np.isfinite(rn)) and float(np.dot(rn, rn)) < base:
                    x = xn
                    break
                alpha *= 0.5
            else:
                break
        if converged and all(lo <= v <= hi for v, (lo, hi) in zip(x, box)):
            pts.append(x)
        else:
            failures += 1
    if len(pts) == 1 and len(samples) > 1:
        out.warnings.append(
            f"step {k}: projection onto the zero set failed for all samples; "
            "rank hypotheses checked at x=0 only")
    return pts


def _grad(e, states):
    from .expr import diff
    return [diff(e, s) for s in states]


def _fill_sigma(out):
    """sigma_{i,j} rows of the zero-output normal form: the residual input
    feedthrough R_i S_{i-1..j+1} W_j appearing in the level-j equations."""
    for idx, (k_i, _, r) in enumerate(out.chains(), start=1):
        for j in range(1, k_i):
            if j not in out.W:
                continue
            sel = _sel_product(out, k_i, j + 1)[[r]]
            row = _sym_from_rows_times(sel, out.W[j])
            out.sigma[(idx, j)] = row.rows[0] if row.rows else []


def infinite_zero_algorithm(system, plan=None, tol=DEFAULT_TOL):
    """Run the infinite zero structure algorithm on the domain box."""
    return _run_algorithm(system, plan or SamplePlan(), tol, zero_output=False)


def zero_output_algorithm(system, plan=None, tol=DEFAULT_TOL, proj_tol=1e-10,
                          step_points=None):
    """Run the zero output structure algorithm: rank hypotheses are checked
    on points projected onto the nested zero sets (origin always included).

    `step_points` may map a step index to an explicit point list on that
    step's zero set, overriding the Newton projection."""
    return _run_algorithm(system, plan or SamplePlan(), tol, zero_output=True,
                          proj_tol=proj_tol, step_points=step_points)


# ---------------------------------------------------------------------------
# Invariance transforms
# ---------------------------------------------------------------------------

def apply_state_diffeo(system, T):
    """z = T x for an invertible constant matrix T (entries int/Fraction for
    exact arithmetic); returns the transformed system on a box covering the
    image of the original one."""
    from fractions import Fraction
    from .sysmodel import AffineSystem
    n = system.n
    Tfr = [[Fraction(v).limit_denominator(10**9) for v in row] for row in T]
    T_sym = SymMatrix([[const(v) for v in row] for row in Tfr])
    Tinv = T_sym.inverse(max_size=max(4, n))
    zs = [f"z{i + 1}" for i in range(n)]
    xmap = {}
    for i, s in enumerate(system.states):
        acc = const(0)
        for j in range(n):
            acc = acc + Tinv[i, j] * _vz(zs[j])
        xmap[s] = simplify(acc)
    f_col = T_sym @ system.f.as_column()
    f_new = [simplify_subs(f_col[i, 0], xmap) for i in range(n)]
    g_new = T_sym @ system.g
    g_new = SymMatrix([[simplify_subs(e, xmap) for e in row] for row in g_new.rows])
    h_new = [simplify_subs(e, xmap) for e in system.h]
    Tnum = np.array([[float(v) for v in row] for row in Tfr])
    lo = np.array([system.domain[s][0] for s in system.states])
    hi = np.array([system.domain[s][1] for s in system.states])
    corners = np.abs(Tnum) @ np.maximum(np.abs(lo), np.abs(hi))
    domain = {z: (-float(c) - 1e-9, float(c) + 1e-9) for z, c in zip(zs, corners)}
    return AffineSystem(zs, f_new, g_new, h_new, domain, name=system.name + "+diffeo")


def _vz(name):
    from .expr import Var
    return Var(name)


def simplify_subs(e, mapping):
    from .expr import subs
    return subs(e, mapping)


def apply_input_transform(system, gamma_inv):
    """u = Gamma^{-1} u_check: g -> g Gamma^{-1} (Gamma constant or SymMatrix)."""
    from .sysmodel import AffineSystem
    gi = gamma_inv if isinstance(gamma_inv, SymMatrix) else SymMatrix.from_numpy(gamma_inv)
    return AffineSystem(system.states, system.f.components, system.g @ gi,
                        system.h, dict(system.domain), name=system.name + "+input")


def apply_output_transform(system, gamma_o):
    go = gamma_o if isinstance(gamma_o, SymMatrix) else SymMatrix.from_numpy(gamma_o)
    from .sysmodel import AffineSystem
    h_new = (go @ SymMatrix([[e] for e in system.h])).col(0)
    return AffineSystem(system.states, system.f.components, system.g, h_new,
                        dict(system.domain), name=system.name + "+output")


def apply_state_feedback(system, K_exprs):
    """u = u_check + K(x): f -> f + g K."""
    from .sysmodel import AffineSystem
    kcol = SymMatrix([[e] for e in K_exprs])
    shift = system.g @ kcol
    f_new = [simplify(c + shift[i, 0]) for i, c in enumerate(system.f.components)]
    return AffineSystem(system.states, f_new, system.g, system.h,
                        dict(system.domain), name=system.name + "+feedback")


def apply_output_injection(system, F):
    """f -> f + F(x) h(x) with F an n x p SymMatrix (or numpy)."""
    from .sysmodel import AffineSystem
    Fm = F if isinstance(F, SymMatrix) else SymMatrix.from_numpy(F)
    shift = Fm @ SymMatrix([[e] for e in system.h])
    f_new = [simplify(c + shift[i, 0]) for i, c in enumerate(system.f.components)]
    return AffineSystem(system.states, f_new, system.g, system.h,
                        dict(system.domain), name=system.name + "+injection")


def invariance_harness(system, n_trials=20, seed=7, tol=DEFAULT_TOL, plan=None,
                       zero_output=False):
    """Apply seeded random admissible transforms and re-run the algorithm;
    returns {transform kind: [q lists]} for comparison with the baseline.

    Rank hypotheses of a transformed system are checked at the images of the
    baseline sample points, so open-set assumptions carry over exactly.
    """
    from fractions import Fraction
    algo = zero_output_algorithm if zero_output else infinite_zero_algorithm
    plan = plan or SamplePlan(count=40)
    base_points = plan.realize(system)
    base = algo(system, SamplePlan(points=base_points), tol).raise_if_irregular()
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
        Minv = SymMatrix([[const(Fraction(int(v))) for v in row] for row in M]) \
            .inverse(max_size=max(4, system.m))
        return apply_input_transform(system, Minv), same_points()

    def output_case():
        M = rand_invertible(system.p)
        return apply_output_transform(
            system, SymMatrix([[const(int(v)) for v in row] for row in M])), same_points()

    def feedback_case():
        K = [const(int(v)) * _vz(system.states[int(i) % system.n])
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
            res = algo(transformed, tplan, tol)
            qs.append(res.q if res.regular else None)
        results["trials"][kind] = qs
    return results
