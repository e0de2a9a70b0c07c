"""Numeric structural decomposition of linear triples (A, B, C).

The same elimination loop as the symbolic algorithm, specialized to constant
matrices: ranks are exact SVD ranks, coefficient matrices come from least
squares, and the resulting transformations realize the block normal form
with integrator chains, constant couplings, and a residual triple carrying
no simultaneously controllable and observable dynamics.
"""

from __future__ import annotations

import itertools

import numpy as np

from .geom import rank
from .structure import _sel_product

__all__ = ["LinearTriple", "LinearOutcome", "LinearDecomposition",
           "linear_infinite_zeros", "vector_relative_degree", "decompose",
           "load_matrix"]

LIN_TOL = 1e-9


class LinearTriple:
    def __init__(self, A, B, C):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        self.C = np.atleast_2d(np.asarray(C, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n:
            raise ValueError("B must have n rows")
        if self.C.shape[1] != n:
            raise ValueError("C must have n columns")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]


def load_matrix(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                rows.append([float(v) for v in line.split()])
    return np.array(rows)


class _Step:
    def __init__(self, k, rho, R, S, T_prev, P):
        self.k = k
        self.rho = rho
        self.R = R
        self.S = S
        self.T_prev = T_prev   # Theta_{k-1} functional rows
        self.P = P             # (p - rho_k) x rho_k or None


class LinearOutcome:
    def __init__(self, triple, tol):
        self.triple = triple
        self.tol = tol
        self.steps = []
        self.rho = []
        self.q = []
        self.k_star = 0
        self.m_d = 0
        self.n_d = 0
        self.invertibility = None
        self.omega = np.zeros((0, triple.n))

    def chains(self):
        out = []
        prev = 0
        for rec in self.steps:
            for r in range(rec.rho - prev):
                out.append((rec.k, rec.k, r))
            prev = rec.rho
        return out


def linear_infinite_zeros(triple, tol=LIN_TOL):
    """Infinite zero list q and invertibility of a constant triple.

    Constant matrices make every rank hypothesis hold automatically, so no
    sampling is involved.
    """
    A, B, C = triple.A, triple.B, triple.C
    n, m, p = triple.n, triple.m, triple.p
    out = LinearOutcome(triple, tol)
    T = C.copy()                    # Theta_{k-1}
    omega = np.zeros((0, n))        # Omega rows
    rho_prev = 0
    k = 0
    while True:
        k += 1
        stack = np.vstack([omega @ B, T @ B]) if omega.size or T.size else np.zeros((0, m))
        rho_k = rank(stack, tol)
        need = rho_k - rho_prev
        sel = _select_rows(omega @ B, T @ B, need, tol)
        if sel is None:
            raise RuntimeError("row selection failed for a constant triple")
        R, S = sel
        omega = np.vstack([omega, R @ T])
        P = None
        if S.shape[0]:
            lgS = S @ T @ B
            lgO = omega @ B
            if rho_k:
                P = np.linalg.lstsq(lgO.T, lgS.T, rcond=None)[0].T
                T_next = S @ T @ A - P @ (omega @ A)
            else:
                T_next = S @ T @ A
        else:
            T_next = np.zeros((0, n))
        out.steps.append(_Step(k, rho_k, R, S, T, P))
        out.rho.append(rho_k)
        rho_prev = rho_k
        T = T_next
        n_d = sum(j * (out.rho[j - 1] - (out.rho[j - 2] if j > 1 else 0))
                  for j in range(1, k + 1))
        if k + n_d < n and rho_k < min(p, m):
            continue
        break
    out.k_star = k
    out.m_d = out.rho[-1]
    out.n_d = sum(j * (out.rho[j - 1] - (out.rho[j - 2] if j > 1 else 0))
                  for j in range(1, k + 1))
    q = []
    prev = 0
    for j, r in enumerate(out.rho, start=1):
        q.extend([j] * (r - prev))
        prev = r
    out.q = q
    out.omega = omega
    if out.m_d == m and m < p:
        out.invertibility = "LeftInvertible"
    elif out.m_d == p and p < m:
        out.invertibility = "RightInvertible"
    elif out.m_d == m == p:
        out.invertibility = "Invertible"
    else:
        out.invertibility = "Degenerate"
    return out


def _select_rows(base, cand, need, tol):
    nrows = cand.shape[0]
    cur = rank(base, tol)

    def ok(rows):
        return rank(np.vstack([base, cand[list(rows)]]), tol) == cur + len(rows)

    chosen = []
    for r in range(nrows):
        if len(chosen) == need:
            break
        if ok(chosen + [r]):
            chosen.append(r)
    if len(chosen) != need:
        for combo in itertools.combinations(range(nrows), need):
            if ok(list(combo)):
                chosen = list(combo)
                break
        else:
            return None
    rest = [r for r in range(nrows) if r not in chosen]
    R = np.eye(nrows)[chosen] if chosen else np.zeros((0, nrows))
    S = np.eye(nrows)[rest] if rest else np.zeros((0, nrows))
    return R, S


def vector_relative_degree(triple, tol=LIN_TOL):
    """CB-chain test: per-output least k with C_i A^{k-1} B nonzero, plus a
    nonsingular decoupling matrix.  None when either part fails."""
    if triple.m != triple.p:
        raise ValueError("vector relative degree requires m = p")
    A, B, C = triple.A, triple.B, triple.C
    n, m = triple.n, triple.m
    r = []
    D = []
    for i in range(m):
        row = None
        Ak = np.eye(n)
        for k in range(1, n + 1):
            cab = C[i] @ Ak @ B
            if np.linalg.norm(cab) > tol:
                row = (k, cab)
                break
            Ak = Ak @ A
        if row is None:
            return None
        r.append(row[0])
        D.append(row[1])
    D = np.array(D)
    if rank(D, tol) < m:
        return None
    return r


def _theta_level(out, j):
    """Theta_{j-1} as numeric rows: C for j = 1, else step j's recorded
    T_prev (normalform._theta_level gives symbolic expressions)."""
    return out.triple.C if j == 1 else out.steps[j - 1].T_prev


class LinearDecomposition:
    def __init__(self, outcome):
        self.outcome = outcome
        self.q = list(outcome.q)
        self.invertibility = outcome.invertibility
        self.W = None            # (eta; xi) = W x
        self.gamma_i = None      # (u_e; u_d) = gamma_i u
        self.gamma_o = None      # (y_e; y_d) = gamma_o y
        self.K = None            # feedback offset rows: v_d = K x + (Omega B) u
        self.At = None
        self.Bt = None
        self.Ct = None
        self.delta = {}          # (i, j, l) -> float
        self.cond = None
        self.warnings = []

    @property
    def T_s(self):
        return np.linalg.inv(self.W)

    @property
    def T_i(self):
        return np.linalg.inv(self.gamma_i)

    @property
    def T_o(self):
        return np.linalg.inv(self.gamma_o)

    def verify_block_pattern(self, tol=1e-9):
        """Largest deviation of the re-multiplied transformed triple from the
        chain/coupling layout (0 means the pattern holds exactly).

        Couplings delta_{i,j,l} may sit in the v_l columns of levels
        j >= q_l; every other entry of the chain rows is pinned.
        """
        def mx(a):
            a = np.asarray(a)
            return float(np.max(np.abs(a))) if a.size else 0.0

        out = self.outcome
        n = out.triple.n
        m = out.triple.m
        m_d = out.m_d
        ne = n - out.n_d
        q = self.q
        offs = []
        pos = ne
        for qi in q:
            offs.append(pos)
            pos += qi
        errs = [0.0]
        for ci, qi in enumerate(q):
            for j in range(qi):
                row = self.At[offs[ci] + j]
                expect = np.zeros(n)
                if j < qi - 1:
                    expect[offs[ci] + j + 1] = 1.0
                errs.append(mx(row - expect))
                brow = self.Bt[offs[ci] + j]
                if j == qi - 1:
                    bexp = np.zeros(m)
                    bexp[m - m_d + ci] = 1.0
                    errs.append(mx(brow - bexp))
                else:
                    errs.append(mx(brow[:m - m_d]))
                    for l in range(m_d):
                        # level j+1 row; coupling allowed only for l < ci
                        # with j+1 >= q_l (the sparsity law).
                        if not (l < ci and (j + 1) >= q[l]):
                            errs.append(abs(brow[m - m_d + l]))
        deeper = [offs[ci] + j for ci, qi in enumerate(q) for j in range(1, qi)]
        for i in range(ne):
            errs.append(mx(self.At[i, deeper]))
            errs.append(mx(self.Bt[i, m - m_d:]))
        p = out.triple.p
        for i in range(p - m_d):
            errs.append(mx(self.Ct[i, ne:]))
        for ci in range(m_d):
            row = self.Ct[p - m_d + ci]
            expect = np.zeros(n)
            expect[offs[ci]] = 1.0
            errs.append(mx(row - expect))
        return max(errs)


def decompose(triple, tol=LIN_TOL):
    """Build transformations realizing the linear block normal form and
    verify the layout by re-multiplication."""
    out = linear_infinite_zeros(triple, tol)
    A, B, C = triple.A, triple.B, triple.C
    n, m, p = triple.n, triple.m, triple.p
    dec = LinearDecomposition(out)

    chain_rows = []
    tops = []
    for (qi, step, r) in out.chains():
        for j in range(1, qi + 1):
            sel = _sel_product(out, step, j)
            rowv = sel[r] @ _theta_level(out, j)
            chain_rows.append(rowv)
            if j == 1:
                tops.append(sel[r])
    Wd = np.array(chain_rows) if chain_rows else np.zeros((0, n))

    # State complement: canonical coordinates extending the chain rows.
    We_rows = []
    cur = Wd
    for j in range(n):
        cand = np.eye(n)[j]
        trial = np.vstack([cur, cand[None, :]])
        if rank(trial, tol) == cur.shape[0] + 1:
            We_rows.append(cand)
            cur = trial
    We = np.array(We_rows) if We_rows else np.zeros((0, n))

    god = np.array(tops) if tops else np.zeros((0, p))
    s_rows = out.steps[out.k_star - 1].S
    for t in range(out.k_star - 1, 0, -1):
        s_rows = s_rows @ out.steps[t - 1].S
    goe_rows = []
    cur = god
    for cand in list(s_rows) + list(np.eye(p)):
        if len(goe_rows) == p - out.m_d:
            break
        trial = np.vstack([cur, np.asarray(cand)[None, :]])
        if rank(trial, tol) == cur.shape[0] + 1:
            goe_rows.append(np.asarray(cand))
            cur = trial
    gamma_o = np.vstack([np.array(goe_rows) if goe_rows else np.zeros((0, p)), god])

    gid = out.omega @ B
    gie_rows = []
    cur = gid
    for cand in np.eye(m):
        if len(gie_rows) == m - out.m_d:
            break
        trial = np.vstack([cur, cand[None, :]])
        if rank(trial, tol) == cur.shape[0] + 1:
            gie_rows.append(cand)
            cur = trial
    gamma_i = np.vstack([np.array(gie_rows) if gie_rows else np.zeros((0, m)), gid])

    W = np.vstack([We, Wd])
    ne = We.shape[0]

    def transformed(W):
        Winv = np.linalg.inv(W)
        Z = np.vstack([np.zeros((m - out.m_d, n)), out.omega @ A])
        gi_inv = np.linalg.inv(gamma_i)
        At = (W @ A - W @ B @ gi_inv @ Z) @ Winv
        Bt = W @ B @ gi_inv
        Ct = gamma_o @ C @ Winv
        return At, Bt, Ct

    # Clean the residual rows: eliminate deeper-level and feedback entries
    # by shifting the complement coordinates along the chains.
    offs = []
    pos = ne
    for qi in out.q:
        offs.append(pos)
        pos += qi
    for _ in range(sum(out.q) + 2):
        At, Bt, Ct = transformed(W)
        dirty = False
        for i in range(ne):
            for ci, qi in enumerate(out.q):
                cval = Bt[i, m - out.m_d + ci]
                if abs(cval) > tol:
                    W[i] -= cval * W[offs[ci] + qi - 1]
                    dirty = True
            for ci, qi in enumerate(out.q):
                for j in range(1, qi):
                    cval = At[i, offs[ci] + j]
                    if abs(cval) > tol:
                        W[i] -= cval * W[offs[ci] + j - 1]
                        dirty = True
        if not dirty:
            break
    # Mix retained outputs with the chain tops so y_e depends on the
    # residual state only.
    At, Bt, Ct = transformed(W)
    for i in range(p - out.m_d):
        for ci in range(out.m_d):
            cval = Ct[i, offs[ci]]
            if abs(cval) > tol:
                gamma_o[i] -= cval * gamma_o[p - out.m_d + ci]
    At, Bt, Ct = transformed(W)

    dec.W = W
    dec.gamma_i = gamma_i
    dec.gamma_o = gamma_o
    dec.K = out.omega @ A
    dec.At, dec.Bt, dec.Ct = At, Bt, Ct
    conds = [np.linalg.cond(W), np.linalg.cond(gamma_i), np.linalg.cond(gamma_o)]
    dec.cond = float(max(conds))
    if dec.cond > 1e12:
        dec.warnings.append(f"ill-conditioned transformation (cond {dec.cond:.2e})")
    for ci, qi in enumerate(out.q):
        for j in range(1, qi):
            for l in range(ci):
                v = Bt[offs[ci] + j - 1, m - out.m_d + l]
                if abs(v) > tol:
                    dec.delta[(ci + 1, j, l + 1)] = float(v)
    return dec
