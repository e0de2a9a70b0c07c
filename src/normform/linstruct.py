"""Numeric structural decomposition of linear triples (A, B, C).

The same elimination loop as the symbolic algorithm, specialized to constant
matrices: ranks are exact SVD ranks, coefficient matrices come from least
squares, and the resulting transformations realize the block normal form
with integrator chains, constant couplings, and a residual triple carrying
no simultaneously controllable and observable dynamics.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .geom import _check_tol, complete_rows, rank
from .structure import (StructureError, _chain_coords, _sel_product,
                        _settle, chain_structure, select_RS)
from .sysmodel import SystemFormatError, numbered_lines

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
    """A matrix file: one row of whitespace-separated numbers per line."""
    lines = list(numbered_lines(Path(path).read_text(encoding="utf-8")))
    if not lines:
        raise SystemFormatError(f"{path}: no matrix rows")
    rows = []
    for lineno, line in lines:
        try:
            rows.append([float(v) for v in line.split()])
        except ValueError:
            raise SystemFormatError(f"{path}: expected numbers, got {line!r}",
                                    lineno) from None
        for word, v in zip(line.split(), rows[-1]):
            if not np.isfinite(v):
                raise SystemFormatError(f"{path}: entry {word} is not finite",
                                        lineno)
        if len(rows[-1]) != len(rows[0]):
            raise SystemFormatError(f"{path}: row has {len(rows[-1])} entries, "
                                    f"the first has {len(rows[0])}", lineno)
    return np.array(rows)


class _Step:
    def __init__(self, k, rho, R, S, theta, P):
        self.k = k
        self.rho = rho
        self.R = R
        self.S = S
        self.theta = theta     # Theta_k functional rows
        self.P = P             # (p - rho_k) x rho_k or None


class LinearOutcome:
    def __init__(self, triple, tol):
        self.triple = triple
        self.tol = tol
        self.steps = []
        self.rho = []
        self.q = []
        self.chains = []          # (step k, row r of R_k) per chain
        self.k_star = 0
        self.m_d = 0
        self.n_d = 0
        self.invertibility = None
        self.omega = np.zeros((0, triple.n))


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
    rho = []
    k = 0
    while True:
        k += 1
        rho_k = rank(np.vstack([omega @ B, T @ B]), tol)
        # the symbolic row selection at a single sample
        sel = select_RS((omega @ B)[None], (T @ B)[None], rho_k - len(omega), tol)
        if sel is None:
            raise StructureError("row selection failed for a constant triple")
        R, S = sel
        omega = np.vstack([omega, T[np.nonzero(R)[1]]])
        s_theta = T[np.nonzero(S)[1]]
        P = None
        T_next = s_theta @ A
        if rho_k and len(s_theta):
            P = np.linalg.lstsq((omega @ B).T, (s_theta @ B).T, rcond=None)[0].T
            T_next = T_next - P @ (omega @ A)
        out.steps.append(_Step(k, rho_k, R, S, T_next, P))
        rho.append(rho_k)
        T = T_next
        if k + chain_structure(rho)[2] < n and rho_k < min(p, m):
            continue
        break
    _settle(out, rho, m, p)
    out.omega = omega
    return out


def vector_relative_degree(triple, tol=LIN_TOL):
    """CB-chain test: per-output least k with C_i A^{k-1} B nonzero, plus a
    nonsingular decoupling matrix.  None when either part fails."""
    if triple.m != triple.p:
        raise ValueError("vector relative degree requires m = p")
    _check_tol(tol)
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


class LinearDecomposition:
    def __init__(self, outcome):
        self.outcome = outcome
        self.q = list(outcome.q)
        self.invertibility = outcome.invertibility
        self.W = None            # (eta; xi) = W x
        self.gamma_i = None      # (u_e; u_d) = gamma_i u
        self.gamma_o = None      # (y_e; y_d) = gamma_o y
        self.At = None
        self.Bt = None
        self.Ct = None
        self.delta = {}          # (i, j, l) -> float
        self.cond = None
        self.warnings = []

    def verify_block_pattern(self):
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

    Wd = np.array([row for chain in _chain_coords(out, C)
                   for row in chain]).reshape(-1, n)
    # State complement: canonical coordinates extending the chain rows.
    We = np.eye(n)[complete_rows(Wd, np.eye(n), n - out.n_d, tol)]

    # Outputs: the chain tops, after the outputs that no R_k selected.
    tops = [_sel_product(out, k, 1)[r] for k, r in out.chains]
    gamma_o = np.eye(p)[[i for i in range(p) if i not in tops] + tops]

    gid = out.omega @ B
    gamma_i = np.vstack([np.eye(m)[complete_rows(gid, np.eye(m), m - out.m_d, tol)],
                         gid])

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
