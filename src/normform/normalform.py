"""Normal-form assembly, structural assumption checks, and zero dynamics.

Turns a StructureOutcome into explicit coordinates: integrator-chain
coordinates from the recorded R/S/Theta history, a complement completing the
chart, the input/output transformations, and the delta coupling table.  Its
sparsity law (delta_{i,j,l} = 0 for j < q_l) holds by construction: delta is
filled from the P blocks of step j, whose chains are no longer than j.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from .expr import (SAMPLE_CUTOFF, SAMPLE_POINTS, SAMPLE_REDRAWS, ZERO,
                   BudgetError, Const, EvalError, Var, _to_frac, const, diff,
                   free_vars, numeric_equivalent, render, sample_box, simplify,
                   subs)
from .geom import (SymMatrix, VectorField, _exact_fracs, _frac_bracket,
                   _frac_dot, _frac_sub, _FracField, bracket_sampler,
                   complete_rows, involutive, jacobian, lie_bracket,
                   lie_derivative, lie_derivative_cols, rank)
from .structure import StructureError, _chain_coords, _sel_product, select_RS

__all__ = ["NormalForm", "ZeroDynamicsReport", "build_normal_form",
           "check_assumption_B", "check_assumption_C", "check_assumption_D",
           "zero_dynamics", "solve_triangular"]


class NormalForm:
    def __init__(self, outcome):
        self.outcome = outcome
        self.system = outcome.system
        self.q = list(outcome.q)
        self.m_d = outcome.m_d
        self.n_d = outcome.n_d
        self.chains = []          # per chain: list of coordinate Exprs (in x)
        self.xi_names = []        # per chain: list of names "xi{i}_{j}"
        self.eta_exprs = []
        self.eta_names = []
        self.delta = {}           # (chain i, level j, chain l) -> Expr in x
        self.a = []               # per chain feedback drift rows
        self.b = None             # SymMatrix m_d x m
        self.gamma_id = None
        self.gamma_od = None
        self.gamma_ie = None
        self.gamma_oe = None
        self.gamma_i_inv = None   # SymMatrix m x m: [gamma_ie; gamma_id]^-1
        self.input_fields = None  # SymMatrix n x m: g gamma_i_inv, u_e then v_d
        self.f_e = []
        self.g_e = None           # SymMatrix (n-n_d) x (m-m_d)
        self.phi_cols = None      # SymMatrix (n-n_d) x m_d residue columns
        self.h_e = []
        self.warnings = []

    # -- coordinate maps ---------------------------------------------------

    def forward_names(self):
        return self.eta_names + [n for chain in self.xi_names for n in chain]

    def forward_exprs(self):
        return self.eta_exprs + [e for chain in self.chains for e in chain]

    def delta_entry(self, i, j, l):
        return self.delta.get((i, j, l), const(0))

    def inverse_map(self, xi_values=None):
        """Symbolic inverse x = x(eta, xi) by solve_triangular's block
        elimination; xi coordinates may be pinned to expressions (e.g. 0 for
        zero dynamics).  Returns None when some round finds no affine block."""
        eqs = []
        for name, e in zip(self.forward_names(), self.forward_exprs()):
            if xi_values is not None and name not in self.eta_names:
                rhs = xi_values.get(name, const(0))
            else:
                rhs = Var(name)
            eqs.append((e, rhs))
        return solve_triangular(eqs, self.system.states)


def build_normal_form(system, outcome, phi_e=None, gamma_ie=None):
    """Assemble chain coordinates, complement, transformations, and the delta
    table from a regular structure outcome; every rank is taken at the
    outcome's tolerance.

    phi_e: optional user complement expressions (their annihilation of the
    retained input directions is verified, not solved for).
    """
    outcome.raise_if_irregular()
    nf = NormalForm(outcome)
    states = system.states
    n, m, p = system.n, system.m, system.p
    tol = outcome.tol

    # Chain coordinates zeta_{i,j} selected through the R/S history.
    nf.chains = _chain_coords(outcome, outcome.system.h)
    nf.xi_names = [[f"xi{i}_{j}" for j in range(1, k + 1)]
                   for i, k in enumerate(nf.q, start=1)]

    if not check_assumption_B(outcome):
        raise StructureError("Assumption B fails: chain differentials are not "
                             "of full row rank on the samples")

    # delta couplings from the step ledger: level-j rows couple to feedbacks
    # of chains no longer than j; column r' of P_{j,l} feeds the r'-th chain
    # of length l.
    for cidx, (k, r) in enumerate(outcome.chains, start=1):
        for j in range(1, k):
            row = _sel_product(outcome, k, j + 1)[r]
            for l, blk in outcome.steps[j - 1].P_blocks.items():
                for rprime, e in enumerate(blk.row(row)):
                    if e != const(0):
                        nf.delta[(cidx, j, nf.q.index(l) + rprime + 1)] = e

    # Feedback rows per chain and the input-side transformation.
    nf.a = list(outcome.a)
    nf.b = outcome.b
    nf.gamma_id = outcome.b
    # Output split: the chain tops R_k S_{k-1} ... S_1 y, and the outputs
    # that no R_k selected (S_{k*} ... S_1 y), which complete them.
    tops = [_sel_product(outcome, k, 1)[r] for k, r in outcome.chains]
    rest = [i for i in range(p) if i not in tops]
    nf.gamma_od = np.eye(p)[tops]
    nf.gamma_oe = np.eye(p)[rest]

    # Input complement Gamma_ie: user-provided or constant canonical rows
    # making [Gamma_ie; Gamma_id] nonsingular at every sample.
    if gamma_ie is not None:
        if not isinstance(gamma_ie, SymMatrix):
            gamma_ie = np.asarray(gamma_ie, dtype=float)
        # a SymMatrix of no rows reports the shape (0, 0)
        if (gamma_ie.shape != (m - nf.m_d, m)
                and (gamma_ie.shape, nf.m_d) != ((0, 0), m)):
            raise ValueError(f"gamma_ie must be {(m - nf.m_d, m)}")
        nf.gamma_ie = gamma_ie if isinstance(gamma_ie, SymMatrix) \
            else SymMatrix.from_numpy(gamma_ie)
    elif m == nf.m_d:
        nf.gamma_ie = SymMatrix([])
    else:
        vals = (outcome.b.sample(states, np.transpose(outcome.samples))
                if nf.m_d else np.zeros((len(outcome.samples), 0, m)))
        rows = _input_complement(vals, tol)
        if rows is None:
            raise StructureError("no constant input complement found; "
                                 "supply gamma_ie")
        nf.gamma_ie = SymMatrix.from_numpy(np.eye(m)[rows])

    # u = Gamma_i^-1 [u_e; v_d - a]: the one exact inverse of the normal
    # form, and the input fields g Gamma_i^-1 that the eta dynamics,
    # assumptions C and D read.
    try:
        nf.gamma_i_inv = nf.gamma_ie.vstack(nf.gamma_id).inverse()
    except ValueError:
        raise ValueError("[gamma_ie; gamma_id] is symbolically "
                         "singular") from None
    nf.input_fields = system.g @ nf.gamma_i_inv

    # State complement.
    dphi_d = jacobian([e for c in nf.chains for e in c], states)
    dphi_d0 = dphi_d.eval_at({s: 0.0 for s in states})
    if phi_e is not None:
        nf.eta_exprs = [simplify(e) for e in phi_e]
        if len(nf.eta_exprs) != n - nf.n_d:
            raise ValueError(f"phi_e must have {n - nf.n_d} entries")
    else:
        chosen = complete_rows(dphi_d0, np.eye(n), n - nf.n_d, tol)
        if len(chosen) < n - nf.n_d:
            raise StructureError("no coordinate subset completes the chart; "
                                 "supply phi_e")
        nf.eta_exprs = [Var(states[i]) for i in chosen]
    nf.eta_names = [f"eta{i + 1}" for i in range(n - nf.n_d)]

    # Full chart must be nonsingular at the base point.
    dphi = jacobian(nf.eta_exprs + [e for c in nf.chains for e in c], states)
    if rank(dphi.eval_at({s: 0.0 for s in states}), tol) != n:
        raise StructureError("d(Phi) singular at the base point")

    _decompose_eta_dynamics(nf)

    # Constant residue columns disappear after the documented coordinate
    # shift eta <- eta - sum_l phi_l xi_{l, q_l}.
    if (nf.phi_cols is not None and nf.phi_cols.shape[1] and nf.eta_exprs
            and nf.phi_cols.is_constant()
            and any(e != const(0) for row in nf.phi_cols.rows for e in row)):
        ends = SymMatrix([[nf.chains[l][-1]] for l in range(nf.m_d)])
        nf.eta_exprs = [simplify(e - s) for e, s in
                        zip(nf.eta_exprs, (nf.phi_cols @ ends).col(0))]
        _decompose_eta_dynamics(nf)

    # If the user supplied a complement, verify it annihilates the retained
    # input directions on samples (the sufficient condition for phi_l = 0).
    if phi_e is not None and nf.phi_cols is not None and any(
            not numeric_equivalent(e, const(0), seed=11, tol=1e-7)
            for row in nf.phi_cols.rows for e in row):
        nf.warnings.append("supplied phi_e does not annihilate the chain input "
                           "directions; residue columns kept")

    nf.h_e = [system.h[i] for i in rest]
    return nf


def _input_complement(gid_vals, tol):
    """Row indices of the first rows I_rows of I, in combinations order,
    making [Gamma_id; I_rows] nonsingular at every sample (values of shape
    (P, m_d, m)), or None: select_RS's selection from I, whose greedy
    completion is the first such basis at the first sample."""
    P, m_d, m = gid_vals.shape
    sel = select_RS(gid_vals, np.broadcast_to(np.eye(m), (P, m, m)), m - m_d,
                    tol)
    return None if sel is None else np.nonzero(sel[0])[1].tolist()


def _decompose_eta_dynamics(nf):
    """eta_dot = f_e + g_e u_e + sum_l phi_l v_{d,l} in original coordinates."""
    system = nf.system
    states = system.states
    m, m_d = system.m, nf.m_d
    if not nf.eta_exprs:
        nf.f_e, nf.g_e, nf.phi_cols = [], SymMatrix([]), SymMatrix([])
        return
    G = lie_derivative_cols(system.g, states, nf.eta_exprs) @ nf.gamma_i_inv
    G_e = SymMatrix([row[:m - m_d] for row in G.rows])
    G_d = SymMatrix([row[m - m_d:] for row in G.rows])
    drift = lie_derivative(system.f, nf.eta_exprs)
    if m_d:
        fed = (G_d @ SymMatrix([[e] for e in nf.a])).col(0)
        drift = [simplify(d - e) for d, e in zip(drift, fed)]
    nf.f_e = drift
    nf.g_e = G_e
    nf.phi_cols = G_d


# ---------------------------------------------------------------------------
# Assumption checks
# ---------------------------------------------------------------------------

def check_assumption_B(outcome):
    """Full row rank of the stacked chain differentials at the outcome's
    samples and tolerance.  Passes without sampling when every recorded P
    block is constant."""
    outcome.raise_if_irregular()
    all_const = all(blk.is_constant()
                    for rec in outcome.steps for blk in rec.P_blocks.values())
    if all_const:
        return True
    states = outcome.system.states
    zeta = [e for chain in _chain_coords(outcome, outcome.system.h)
            for e in chain]
    vals = jacobian(zeta, states).sample(states, np.transpose(outcome.samples))
    return bool(np.all(rank(vals, outcome.tol) == len(zeta)))


def check_assumption_C(nf):
    """Involutivity of the retained input directions g_d = g Gamma_i^{-1} [0; I],
    the last m_d input fields of the normal form, at its outcome's samples
    and tolerance."""
    m, states = nf.system.m, nf.system.states
    fields = [VectorField(nf.input_fields.col(j), states)
              for j in range(m - nf.m_d, m)]
    return involutive(fields, nf.outcome.samples, tol=nf.outcome.tol)


def check_assumption_D(system, outcome, nf=None, seed=5, tol=1e-7):
    """Commutation of the chain-generating fields of a square invertible
    outcome: every pairwise Lie bracket of the Y(j, k) must vanish.

    Where f, g b^{-1}, a and delta are exact fractions over variables, the
    fields and their brackets are built on those fractions, and D is
    decided exactly: a fraction is zero iff its numerator is empty, so the
    check returns False at the first bracket with a non-empty numerator and
    True when every bracket is empty.  There is no tolerance there: a
    bracket however small against its terms fails.  A bracket component
    reads the partials of that component of its two fields alone, so the
    check can return False before it meets a later component whose
    partials or products exceed the term budget; the budget sends it to
    sampling only when it is met before a non-empty numerator.

    Otherwise (a function atom, a float coefficient, or a product over the
    term budget), the fields are built as trees and their brackets are
    sampled (see geom.bracket_sampler), so a bracket that is identically
    zero is not proved zero.  The sampling rule is numeric_equivalent's,
    set by the constants in expr and applied by expr.sample_box: the first
    SAMPLE_POINTS (32) valid points, in draw order, of the point-major
    stream drawn uniformly from the box `system.domain` with numpy
    generator `seed`; a point where any field value or bracket term is
    undefined, non-finite or above SAMPLE_CUTOFF (1e12) in absolute value
    is redrawn, and EvalError is raised when SAMPLE_REDRAWS * SAMPLE_POINTS
    (40 * 32) draws do not give enough valid points.  A component v of
    [a, b] = J_b a - J_a b fails when |v| > tol * (1 + s), where
    s = |J_b| |a| + |J_a| |b| (entrywise absolute values) is the size of the
    terms that cancel.  This relative margin covers the rounding left when
    exactly commuting fields are evaluated numerically; the price is that a
    bracket smaller than tol times its terms passes.  A failing valid point
    gives False even when too few points are valid.
    """
    outcome.raise_if_irregular()
    if outcome.invertibility != "Invertible":
        raise StructureError("Assumption D applies to square invertible systems")
    if nf is None:
        nf = build_normal_form(system, outcome)
    try:
        Y = _chain_fields(nf, exact=True)
        if Y is not None:
            fields = [Y[key] for key in sorted(Y)]
            return not any(c.num for a, b in combinations(fields, 2)
                           for c in _frac_bracket(a, b))
    except BudgetError:
        pass
    Y = _chain_fields(nf)
    _, (_, brackets, scale) = sample_box(
        bracket_sampler([Y[key] for key in sorted(Y)]), system.box(),
        SAMPLE_POINTS, np.random.default_rng(seed),
        SAMPLE_REDRAWS * SAMPLE_POINTS, SAMPLE_CUTOFF)
    if np.any(np.abs(brackets) > tol * (1.0 + scale)):
        return False
    if scale.shape[-1] < SAMPLE_POINTS:
        raise EvalError("could not find enough valid sample points")
    return True


# The arithmetic of _chain_fields: (read an entry, make a field, sum x y
# over pairs, a - b, bracket of two fields), on trees and on fractions.
_TREE_CHAIN = (lambda e: e, VectorField,
               lambda pairs: simplify(sum((x * y for x, y in pairs), ZERO)),
               lambda a, b: simplify(a - b), lie_bracket)
_FRAC_CHAIN = (_to_frac, _FracField, _frac_dot, _frac_sub,
               lambda f, g: _FracField(list(_frac_bracket(f, g)), f.states))


def _chain_fields(nf, exact=False):
    """The chain-generating fields {(j, k): ad^{k-1}_{f_t} Y(j, 1)} of a
    square invertible normal form, with f_t = f - g b^{-1} a; there
    Gamma_i = b, so g b^{-1} is the normal form's input fields.

    The paper's Y(j, k) carries the sign (-1)^{k-1}, which is left out here:
    it cannot change whether a bracket vanishes, and in the correction
    Y(j, 1) = g b^{-1} e_j - sum delta * Y(l, i2) it is folded into delta.

    The fields are VectorFields.  With `exact` they are geom._FracFields of
    the fractions those trees store, built from the stored fractions of f,
    g b^{-1}, a and delta and writing no tree; then the result is None when
    one of these is not an exact fraction over variables, and BudgetError
    propagates from a product over the term budget.
    """
    system = nf.system
    m, q, states = system.m, nf.q, system.states
    if exact and _exact_fracs([
            *system.f.components, *nf.a, *nf.delta.values(),
            *(e for row in nf.input_fields.rows for e in row)]) is None:
        return None
    read, field, dot, sub, bracket = _FRAC_CHAIN if exact else _TREE_CHAIN
    g_t = [[read(e) for e in row] for row in nf.input_fields.rows]
    a = [read(e) for e in nf.a]
    f_t = field([sub(read(c), dot(zip(row, a)))
                 for c, row in zip(system.f.components, g_t)], states)
    Y = {}

    def add_chain(j, base):
        Y[(j, 1)] = field(base, states)
        for k in range(2, q[j - 1] + 1):
            Y[(j, k)] = bracket(f_t, Y[(j, k - 1)])

    add_chain(m, [row[m - 1] for row in g_t])
    for j in range(m - 1, 0, -1):
        comps = [row[j - 1] for row in g_t]
        for l in range(j + 1, m + 1):
            for i2 in range(2, q[l - 1] + 1):
                d = nf.delta_entry(l, q[l - 1] - i2 + 1, j)
                if d != const(0):
                    d = read(-d if i2 % 2 == 0 else d)
                    comps = [sub(c, dot([(d, yc)]))
                             for c, yc in zip(comps, Y[(l, i2)].components)]
        add_chain(j, comps)
    return Y


# ---------------------------------------------------------------------------
# Zero dynamics
# ---------------------------------------------------------------------------

class ZeroDynamicsReport:
    def __init__(self):
        self.eta_names = []
        self.eta_rhs = []         # in eta and u_e names
        self.y_e = []
        self.u_e_names = []
        self.degenerate_point = False
        self.split = None         # dict with za/zb/zc data for linear (abc)
        self.zero_dynamics = None # list of (name, rhs Expr) for the za block
        self.notes = []

    def __repr__(self):
        if self.degenerate_point:
            return "ZeroDynamicsReport(point)"
        body = ", ".join(f"{n}' = {render(e)}" for n, e in
                         zip(self.eta_names, self.eta_rhs))
        return f"ZeroDynamicsReport({body})"


def solve_triangular(equations, unknowns):
    """Solve {lhs_i(x) = rhs_i} for the unknowns by block-triangular
    elimination.  Each round keeps the independent rows of the equations
    affine in the pending unknowns (coefficients free of them) and solves
    them for their pivot unknowns by SymMatrix.inverse, in terms of the
    pending unknowns left free, then substitutes.  One equation in one
    unknown is a block of one; a linear chart is one block.  Returns
    {name: Expr}, or None when a round finds no independent row."""
    resolved, pending = {}, list(unknowns)
    eqs = [(simplify(lhs), rhs) for lhs, rhs in equations]
    while pending:
        block = []
        for i, (lhs, _) in enumerate(eqs):
            reads = free_vars(lhs).intersection(pending)
            row = [diff(lhs, u) if u in reads else ZERO for u in pending]
            if not any(free_vars(c) & reads for c in row):
                block.append((i, row))
        block = [block[i] for i in
                 SymMatrix([r for _, r in block]).transpose().pivots()]
        if not block:
            return None
        cols = SymMatrix([r for _, r in block]).pivots()
        # lhs is affine, so rhs - lhs(pivot unknowns = 0) = A_pivots x_pivots
        zero = {pending[j]: ZERO for j in cols}
        b = SymMatrix([[eqs[i][1] - subs(eqs[i][0], zero)] for i, _ in block])
        inv = SymMatrix([[r[j] for j in cols] for _, r in block]).inverse()
        new = dict(zip(zero, (inv @ b).col(0)))
        resolved = {k: subs(v, new) for k, v in resolved.items()} | new
        used = {i for i, _ in block}
        eqs = [(subs(lhs, new), rhs) for i, (lhs, rhs) in enumerate(eqs)
               if i not in used]
        pending = [u for u in pending if u not in new]
    return resolved


def zero_dynamics(nf):
    """Residual dynamics on the zero-output set: substitute xi = 0 and
    v_d = 0.  For a residual system with external channels that is linear
    with rational coefficients, also return the exact
    uncontrollable/unobservable split and the zero dynamics proper."""
    rep = ZeroDynamicsReport()
    if not nf.eta_exprs:
        rep.degenerate_point = True
        rep.notes.append("zero dynamics degenerates to the origin")
        return rep
    inv = nf.inverse_map(xi_values={})
    if inv is None:
        rep.notes.append("no closed-form chart inverse; zero dynamics "
                         "available only numerically")
        return rep
    # On the zero set the chain coordinates are 0, so x = x(eta, 0).
    rep.eta_names = list(nf.eta_names)
    m, m_d = nf.system.m, nf.m_d
    rep.u_e_names = [f"ue{i + 1}" for i in range(m - m_d)]
    g_e = nf.g_e
    rhs = []
    for i in range(len(nf.eta_exprs)):
        acc = subs(nf.f_e[i], inv)
        for j in range(m - m_d):
            acc = acc + subs(g_e[i, j], inv) * Var(rep.u_e_names[j])
        rhs.append(simplify(acc))
    rep.eta_rhs = rhs
    rep.y_e = [subs(e, inv) for e in nf.h_e]

    if m == m_d and not rep.y_e:
        rep.zero_dynamics = list(zip(rep.eta_names, rep.eta_rhs))
        return rep

    # Kalman split of a linear residual: za spans the unobservable
    # directions that the controllable ones (zc) leave, zb completes.
    n0 = len(rep.eta_names)
    J = jacobian(rhs, rep.eta_names + rep.u_e_names)
    # with no y_e, one zero row: every direction is unobservable
    C = jacobian(rep.y_e or [ZERO], rep.eta_names)
    if not all(isinstance(e, Const) and isinstance(e.value, Fraction)
               for M in (J, C) for r in M for e in r):
        rep.notes.append("residual system not linear with rational "
                         "coefficients; split not computed (supply "
                         "coordinates to refine)")
        return rep
    A = SymMatrix([r[:n0] for r in J.rows])
    krylov, obs = [SymMatrix([r[n0:] for r in J.rows])], [C]
    for _ in range(n0 - 1):
        krylov.append(A @ krylov[-1])
        obs.append(obs[-1] @ A)
    K = SymMatrix([[e for blk in krylov for e in blk.row(i)]
                   for i in range(n0)])
    O = SymMatrix([r for blk in obs for r in blk.rows])
    if any(e != ZERO for r in O @ K for e in r):
        rep.notes.append("controllable directions are partially observable; "
                         "split skipped")
        return rep
    V_c = [K.col(j) for j in K.pivots()]
    V_a = _extend(V_c, O.nullspace())
    V_b = _extend(V_a + V_c, SymMatrix.identity(n0).rows)
    T = SymMatrix(V_a + V_b + V_c).transpose()
    Tinv = T.inverse()
    At = Tinv @ A @ T
    za_names = [f"za{i + 1}" for i in range(len(V_a))]
    rep.split = {
        "za": [(za, _combine(Tinv.row(i), rep.eta_names))
               for i, za in enumerate(za_names)],
        "zb_dim": len(V_b),
        "zc_dim": len(V_c),
    }
    rep.zero_dynamics = [(za, _combine(At.row(i), za_names))
                         for i, za in enumerate(za_names)]
    return rep


def _extend(basis, candidates):
    """The candidates that, taken in order, each leave the span of the
    independent vectors `basis` and of the candidates taken before."""
    vecs = basis + candidates
    return [vecs[j] for j in SymMatrix(vecs).transpose().pivots()
            if j >= len(basis)]


def _combine(coeffs, names):
    """sum_i coeffs[i] * names[i], over the shorter of the two."""
    return simplify(sum((c * Var(x) for c, x in zip(coeffs, names)),
                        start=ZERO))
