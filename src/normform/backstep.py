"""Backstepping synthesis over chain normal forms.

The engine walks an ordered list of chain variables.  Stepping a variable w
adds its mismatch z = w - (virtual law) to the running Lyapunov function and
derives the law for w's driver from four pieces: gain damping -c z, the
cross term (dV . dD/dw) introduced by activating w, the already-determined
feedback couplings entering w's own equation, and the transport term
d(law)/dt along the current design dynamics.  Variables not yet stepped are
carried at their virtual laws, so their mismatches surface later as cross
terms; this is what makes chain-by-chain, level-by-level, and mixed orders
all instances of one procedure.

The dissipative variant additionally collects each step's disturbance input,
exactly for channels entering linearly and through supplied bounds
otherwise, and completes the square against a per-step supply budget.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .expr import (Expr, Func, Pow, Var, const, diff, evalf, free_vars,
                   is_zero, render, simplify, subs)
from .geom import SymMatrix, VectorField, lie_derivative
from .sysmodel import (SystemFormatError, at_line, bindings, bracketed, keyed,
                       names, parse_entries, parse_entry, read_sections, required)

__all__ = ["ChainSystem", "Stabilizer", "ControlLaw", "OrderViolation",
           "Disturbance", "validate_order", "integrator_backstep",
           "synthesize", "low_gain", "LowGainDesign", "semi_global_synthesize",
           "dissipative_backstep", "da_synthesize", "parse_kappa",
           "load_chain_system", "loads_chain_system", "dump_control_law",
           "loads_control_law"]

W_NAME = "w"   # reserved disturbance variable


class OrderViolation(ValueError):
    def __init__(self, condition, message):
        super().__init__(f"condition {condition}: {message}")
        self.condition = condition


class Disturbance:
    """One row's disturbance channel p(x, w).

    `lin` is the coefficient of the exactly-linear part, `bound` an
    expression whose absolute value bounds the remaining part per unit |w|.
    """

    def __init__(self, expr=None, lin=None, bound=None):
        self.expr = simplify(expr) if expr is not None else None
        if lin is None and self.expr is not None and bound is None:
            lin = diff(self.expr, W_NAME)
            if W_NAME in free_vars(lin):
                raise ValueError("disturbance not linear in w; supply a bound")
        self.lin = simplify(lin) if lin is not None else const(0)
        self.bound = simplify(bound) if bound is not None else None

    def is_zero(self):
        return self.lin == const(0) and self.bound is None


class ChainSystem:
    """Normal-form shaped system the synthesizer consumes.

    eta_dot entries may reference chain variables and, for chains whose
    residual block is fed directly by a control, the symbols v1..vm.
    """

    def __init__(self, q, eta_names=(), eta_dot=(), delta=None,
                 eta_dist=None, xi_dist=None, name=""):
        self.q = list(q)
        self.m = len(self.q)
        if not self.q or min(self.q) < 1:
            raise ValueError(f"chain lengths must be positive, got {self.q}")
        self.eta_names = list(eta_names)
        self.eta_dot = [simplify(e) for e in eta_dot]
        if len(self.eta_dot) != len(self.eta_names):
            raise ValueError(f"eta_dot has {len(self.eta_dot)} entries for "
                             f"{len(self.eta_names)} eta states")
        self.delta = {k: simplify(v) for k, v in (delta or {}).items()}
        self.eta_dist = list(eta_dist) if eta_dist else [None] * len(self.eta_names)
        if len(self.eta_dist) != len(self.eta_names):
            raise ValueError("eta_dist must match eta_names")
        self.xi_dist = dict(xi_dist) if xi_dist else {}
        for key in [*self.delta, *self.xi_dist]:
            self.check_entry(key)
        self.name = name
        reserved = set(self.xi_names()) | {self.v_name(i + 1) for i in range(self.m)} \
            | {W_NAME}
        clash = set(self.eta_names) & reserved
        if clash:
            raise ValueError(f"eta names collide with reserved names {sorted(clash)}")

    def check_entry(self, key):
        """Raise ValueError unless `key` names a chain row xi_{i,j} as
        (i, j) or a coupling delta_{i,j,l} as (i, j, l)."""
        i, j, *l = key
        if self.xi_name(i, j) not in self.xi_names():
            raise ValueError(f"no chain state {self.xi_name(i, j)}")
        if l and not (1 <= l[0] < i and j < self.q[i - 1]):
            raise ValueError(f"bad delta index {key}")
        if l and j < self.q[l[0] - 1]:
            raise ValueError(f"delta{key} violates the sparsity law")

    def xi_name(self, i, j):
        return f"xi{i}_{j}"

    def v_name(self, i):
        return f"v{i}"

    def xi_names(self):
        return [self.xi_name(i + 1, j + 1)
                for i in range(self.m) for j in range(self.q[i])]

    def state_names(self):
        return self.eta_names + self.xi_names()

    def drift(self, name):
        """Deterministic right-hand side of one state row (v symbols kept)."""
        if name in self.eta_names:
            return self.eta_dot[self.eta_names.index(name)]
        i, j = self.locate(name)
        if j == self.q[i - 1]:
            return Var(self.v_name(i))
        acc = Var(self.xi_name(i, j + 1))
        for l in range(1, i):
            d = self.delta.get((i, j, l))
            if d is not None:
                acc = acc + d * Var(self.v_name(l))
        return simplify(acc)

    def dist(self, name):
        if name in self.eta_names:
            d = self.eta_dist[self.eta_names.index(name)]
        else:
            d = self.xi_dist.get(self.locate(name))
        return d if d is not None else Disturbance(const(0))

    def locate(self, name):
        for i in range(1, self.m + 1):
            for j in range(1, self.q[i - 1] + 1):
                if name == self.xi_name(i, j):
                    return (i, j)
        raise KeyError(name)


class Stabilizer:
    """Virtual outputs phi_{i,1}(eta) stabilizing the residual block, with a
    Lyapunov function V(eta)."""

    def __init__(self, phi, V):
        self.phi = [simplify(e) for e in phi]
        self.V = simplify(V)

    def validate(self, eta_names, rhs_at_phi=None):
        """Raise ValueError unless phi and V vanish at 0 and, when the
        residual right-hand side at phi is given, V is positive and
        non-increasing along it at 60 seeded points of [-0.9, 0.9]^n."""
        at0 = SymMatrix([[e] for e in self.phi + [self.V]]).sample(
            eta_names, np.zeros((len(eta_names), 1)))[0, :, 0]
        if np.any(at0[:-1] != 0.0):
            raise ValueError("stabilizer virtual output nonzero at 0")
        if at0[-1] != 0.0:
            raise ValueError("V(0) must be 0")
        if rhs_at_phi is None:
            return True
        vdot = lie_derivative(VectorField(rhs_at_phi, eta_names), self.V)
        pts = np.random.default_rng(23).uniform(
            -0.9, 0.9, size=(60, len(eta_names)))
        v, vd = SymMatrix([[self.V, vdot]]).sample(eta_names, pts.T)[:, 0].T
        positive = (np.sqrt(np.sum(pts * pts, axis=1)) <= 1e-9) | (v > 0)
        decreasing = vd <= 1e-9 * (1 + np.abs(v))
        ok = positive & decreasing
        if ok.all():
            return True
        i = int(np.argmin(ok))
        if not positive[i]:
            raise ValueError("V not positive at a sampled nonzero point")
        env = dict(zip(eta_names, pts[i].tolist()))
        raise ValueError(f"V not decreasing along the stabilized "
                         f"residual block (Vdot={vd[i]:.3e} at {env})")


class ControlLaw:
    def __init__(self, system, kappa, v, W, ledger, supply=None):
        self.system = system
        self.kappa = list(kappa)
        self.v = [simplify(e) for e in v]
        self.W = simplify(W)
        self.ledger = ledger
        self.supply = supply      # (gamma_total Expr, budget list) for da runs

    def closed_loop_rhs(self, with_disturbance=False):
        """State derivative expressions with every control substituted."""
        cs = self.system
        vmap = {cs.v_name(i + 1): self.v[i] for i in range(cs.m)}
        rows = []
        for name in cs.state_names():
            e = subs(cs.drift(name), vmap)
            if with_disturbance:
                d = cs.dist(name)
                if d.expr is not None:
                    e = simplify(e + d.expr)
                elif not d.is_zero():
                    e = simplify(e + d.lin * Var(W_NAME))
            rows.append(e)
        return rows

    def w_dot(self):
        """dW/dt along the undisturbed closed loop, parameters held fixed."""
        return lie_derivative(VectorField(self.closed_loop_rhs(),
                                          self.system.state_names()), self.W)


def parse_kappa(text):
    """Parse 'xi1_1,xi2_1,...' (whitespace tolerated) into a name list."""
    return [t.strip() for t in text.replace(";", ",").split(",") if t.strip()]


# ---------------------------------------------------------------------------
# Order validation
# ---------------------------------------------------------------------------

def validate_order(system, kappa, include_disturbance=False):
    """Check the admissibility conditions of a stepping order.

    (a) within each chain the levels appear in increasing order;
    (b) a nonzero coupling delta_{i,j,l} requires the whole chain l to appear
        before xi_{i,j};
    (c) delta_{i,j,l} (and, when requested, the disturbance coefficients of
        level j) may depend only on the residual state, first-level
        variables, and variables at-or-before xi_{i,j} in kappa.
    Returns a list of violations, empty when the order is admissible.
    """
    names = system.xi_names()
    if sorted(kappa) != sorted(names):
        missing = set(names) - set(kappa)
        extra = set(kappa) - set(names)
        raise OrderViolation("malformed", f"kappa must cover every chain "
                             f"variable exactly once (missing {sorted(missing)}, "
                             f"extra {sorted(extra)})")
    pos = {n: i for i, n in enumerate(kappa)}
    violations = []
    for i in range(1, system.m + 1):
        for j in range(1, system.q[i - 1]):
            a, b = system.xi_name(i, j), system.xi_name(i, j + 1)
            if pos[a] > pos[b]:
                violations.append(("2a", (i, j, None),
                                   f"{a} must appear before {b}"))
    allowed_always = set(system.eta_names) \
        | {system.xi_name(l, 1) for l in range(1, system.m + 1)}

    def check_dep(e, i, j, l, cond):
        here = pos[system.xi_name(i, j)]
        for nm in sorted(free_vars(e)):
            if nm in allowed_always or nm == W_NAME:
                continue
            if nm not in pos or pos[nm] > here:
                violations.append((cond, (i, j, l),
                                   f"coefficient depends on {nm}, which appears "
                                   f"after {system.xi_name(i, j)} in kappa"))

    for (i, j, l), d in system.delta.items():
        if is_zero(d):
            continue
        latest = max(pos[system.xi_name(l, jj)] for jj in range(1, system.q[l - 1] + 1))
        if latest > pos[system.xi_name(i, j)]:
            violations.append(("2b", (i, j, l),
                               f"chain {l} must be completed before "
                               f"{system.xi_name(i, j)}"))
        check_dep(d, i, j, l, "2c")
    if include_disturbance:
        for (i, j), dst in system.xi_dist.items():
            for e in ([dst.lin] + ([dst.bound] if dst.bound is not None else [])):
                check_dep(e, i, j, None, "2c")
    return violations


def _check_order(system, kappa, include_disturbance=False):
    """Raise the first violation validate_order finds, if any."""
    violations = validate_order(system, kappa, include_disturbance)
    if violations:
        cond, idx, msg = violations[0]
        raise OrderViolation(cond, f"delta{idx}: {msg}" if idx[2] else msg)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class _Engine:
    def __init__(self, system, stab, gains=None, budgets=None):
        # the residual rows at phi: V must decrease along them when they
        # read the eta states alone; a row that reads a control or a deeper
        # chain state leaves only the checks at 0
        if system.eta_names:
            env = {system.xi_name(i + 1, 1): stab.phi[i] for i in range(system.m)}
            rows = [subs(e, env) for e in system.eta_dot]
            closed = set().union(*map(free_vars, rows)) <= set(system.eta_names)
            stab.validate(system.eta_names, rows if closed else None)
        self.cs = system
        self.gains = gains or {}
        self.budgets = budgets        # per-step supply increments (Expr) or None
        self.active = list(system.eta_names)
        self.applied = {system.xi_name(i + 1, 1): stab.phi[i]
                        for i in range(system.m)}
        self.vmap = {}
        self.V = stab.V
        self.ledger = []
        self.step_no = 0

    def sigma(self, e):
        """Substitute controls and not-yet-active variables by their laws."""
        e = subs(e, self.vmap) if self.vmap else simplify(e)
        lazy = {n: law for n, law in self.applied.items()
                if n not in self.active and n in free_vars(e)}
        if lazy:
            e = subs(e, lazy)
        return e

    def design_rows(self):
        return {s: self.sigma(self.cs.drift(s)) for s in self.active}

    def disturbance_of(self, name):
        d = self.cs.dist(name)
        return Disturbance(lin=self.sigma(d.lin),
                           bound=self.sigma(d.bound) if d.bound is not None else None) \
            if not d.is_zero() else d

    def step(self, wname):
        cs = self.cs
        self.step_no += 1
        phi_w = self.applied[wname]
        i, j = cs.locate(wname)
        driver = cs.v_name(i) if j == cs.q[i - 1] else cs.xi_name(i, j + 1)
        self.active.append(wname)
        D = self.design_rows()
        vnames = {cs.v_name(t + 1) for t in range(cs.m)}
        for s, row in D.items():
            loose = set(free_vars(row)) & (vnames - set(self.vmap))
            if s == wname:
                loose.discard(driver)   # derived by this very step
            if loose:
                raise OrderViolation(
                    "2b", f"dynamics of {s} depend on undetermined controls "
                    f"{sorted(loose)} at the step on {wname}")
        del D[wname]

        # Already-determined feedbacks entering w's own equation.
        E = self.sigma(simplify(cs.drift(wname) - Var(driver)))
        c = self.gains.get(wname, 1)
        budget = None if self.budgets is None else self.budgets[self.step_no - 1]
        z_w, law, self.V = _backstep(wname, phi_w, self.V, D, E, c, budget,
                                     self.disturbance_of)
        if j == cs.q[i - 1]:
            self.vmap[driver] = law
        else:
            self.applied[driver] = law
        self.ledger.append({
            "step": self.step_no,
            "var": wname,
            "target": driver,
            "z": z_w,
            "gain": c,
            "law": law,
            "budget": budget,
        })


def _backstep(w, phi, V, rows, known, c, budget=None, dist=None):
    """One integrator-backstepping step on w, whose equation is
    w' = driver + `known` while the states of `rows` follow their rows:
    returns (z, law, V + z^2/2) with the mismatch z = w - phi and the
    driver's law -c z - (dV . d(rows)/dw) - known + (phi transported along
    the rows).  With a budget, the law also carries the damping
    -z (1 + Rbar^2) / (4 budget) against the disturbance input Rbar that
    `dist` (name -> Disturbance) collects for w and phi's states."""
    z = simplify(Var(w) - phi)
    cross = lie_derivative(_coupling(w, list(rows), list(rows.values())), V)
    near = [s for s in sorted(free_vars(phi)) if s in rows]
    phidot = lie_derivative(VectorField([rows[s] for s in near], near), phi)
    law = simplify(-const(c) * z - cross - known + phidot)
    if budget is not None:
        # the damping divides by the budget
        if not free_vars(budget) and not evalf(budget, {}) > 0:
            raise ValueError(f"the step on {w} has budget {render(budget)}; "
                             "per-step budgets (--budgets) must be positive")
        own = dist(w)
        dists = [dist(s) for s in near]
        t_lin = simplify(own.lin - lie_derivative(
            VectorField([ds.lin for ds in dists], near), phi))
        bound_terms = []
        if own.bound is not None and not is_zero(own.bound):
            bound_terms.append(Func("abs", own.bound))
        for s, ds in zip(near, dists):
            if ds.bound is not None and not is_zero(ds.bound):
                bound_terms.append(Func("abs", simplify(diff(phi, s) * ds.bound)))
        rbar = None
        if not is_zero(t_lin):
            rbar = Func("abs", t_lin)
        for b in bound_terms:
            rbar = b if rbar is None else simplify(rbar + b)
        if rbar is not None:
            damping = simplify(z * (const(1) + simplify(Pow(rbar, 2)))
                               / (const(4) * budget))
            law = simplify(law - damping)
    return z, law, simplify(V + z * z / 2)


def _coupling(w, names, rows):
    """The field d(rows)/dw over `names`; OrderViolation unless every row
    is affine in w."""
    field = VectorField([diff(r, w) for r in rows], names)
    for nm, c in zip(names, field.components):
        if w in free_vars(c):
            raise OrderViolation("affine", f"dynamics of {nm} not affine in {w}")
    return field


def _run(engine, kappa, steps, supply=None):
    """Step each variable of `steps` in turn and collect the control law;
    a gain on a variable that is not stepped is refused."""
    unused = sorted(set(engine.gains) - set(steps))
    if unused:
        raise ValueError(f"gains for variables that are not stepped: {unused}")
    for wname in steps:
        engine.step(wname)
    cs = engine.cs
    v = [engine.vmap[cs.v_name(i + 1)] for i in range(cs.m)]
    return ControlLaw(cs, kappa, v, engine.V, engine.ledger, supply=supply)


def synthesize(system, kappa, stab, gains=None):
    """Fold the backstepping step along kappa; default per-step gain c = 1."""
    if isinstance(kappa, str):
        kappa = parse_kappa(kappa)
    _check_order(system, kappa)
    return _run(_Engine(system, stab, gains=gains), kappa, kappa)


def integrator_backstep(eta_names, F, xi_name_, G, phi, V, c=1):
    """Single integrator backstep for d(eta)/dt = F(eta, xi), d(xi)/dt = u + G.

    Returns (u, W) with W = V + (xi - phi)^2 / 2.  F must be affine in the
    stepped variable.
    """
    _, u, W = _backstep(xi_name_, phi, V, dict(zip(eta_names, F)), G, c)
    return u, W


# ---------------------------------------------------------------------------
# Low-gain / semi-global design
# ---------------------------------------------------------------------------

class LowGainDesign:
    def __init__(self, lengths, eps, coeffs, laws, lyapunovs):
        self.lengths = list(lengths)
        self.eps = eps
        self.coeffs = coeffs          # per chain: [c_{i,0}, ..., c_{i,l-2}]
        self.laws = laws              # per chain: Expr or None (length-1 chain)
        self.lyapunovs = lyapunovs    # per chain: Expr (0 for length-1 chain)


def low_gain(lengths, eps, poles=None):
    """Slow virtual laws: for a chain of slow length l, the law
    -eps^{l-1} c_0 xi_1 - ... - eps c_{l-2} xi_{l-1} from the Hurwitz
    polynomial with the requested roots (default all -1).  `poles`, when
    given, holds one list of l - 1 roots per chain."""
    epse = eps if isinstance(eps, Expr) else const(float(eps))
    if isinstance(eps, (int, float)) and not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if poles is not None and len(poles) != len(lengths):
        raise ValueError(f"need one pole list per chain: got {len(poles)} "
                         f"for {len(lengths)} chains")
    coeffs = []
    laws = []
    lyap = []
    for idx, l in enumerate(lengths):
        chain = idx + 1
        pl = [-1.0] * (l - 1) if poles is None else poles[idx]
        if l < 1:
            raise ValueError("chain length must be >= 1")
        if len(pl) != l - 1:
            raise ValueError(f"chain {chain} of slow length {l} needs {l - 1} "
                             f"poles, got {len(pl)}")
        if l == 1:
            coeffs.append([])
            laws.append(None)
            lyap.append(const(0))
            continue
        if any(np.real(p) >= 0 for p in pl):
            raise ValueError("low-gain poles must be strictly stable")
        cs_poly = _monic_coeffs(pl)
        coeffs.append(cs_poly)
        law = const(0)
        for j in range(1, l):
            law = law - simplify(Pow(epse, l - j)) * const(cs_poly[j - 1]) \
                * Var(f"xi{chain}_{j}")
        laws.append(simplify(law))
        lyap.append(_slow_lyapunov(chain, l, epse, cs_poly))
    return LowGainDesign(lengths, eps, coeffs, laws, lyap)


def _monic_coeffs(poles):
    """[c_0, c_1, ..., c_{l-2}] of prod (s - p) = s^{l-1} + c_{l-2} s^{l-2}
    + ... + c_0."""
    poly = np.poly(np.array(poles, dtype=complex))
    cs = [float(np.real(v)) for v in poly[1:]]
    return cs[::-1]

def _slow_lyapunov(chain, l, epse, cs_poly):
    """Quadratic Lyapunov function for the closed slow block.

    The cascade form certifies the default all-(-1)-pole laws for up to two
    slow states per chain and keeps eps symbolic; longer slow chains need a
    numeric eps for a Lyapunov-equation solve.
    """
    names = [Var(f"xi{chain}_{j}") for j in range(1, l)]
    if l == 2:
        return simplify(names[0] * names[0] / 2)
    if l == 3 and cs_poly == [1.0, 2.0]:
        z1 = simplify(epse * names[0])
        z2 = simplify(epse * names[0] + names[1])
        return simplify((z1 * z1 + z2 * z2) / 2)
    if isinstance(epse, Expr) and free_vars(epse):
        raise ValueError("slow chains longer than 2 states with non-default "
                         "poles need a numeric eps")
    epsv = evalf(epse, {})
    nsl = l - 1
    A = np.zeros((nsl, nsl))
    for r in range(nsl - 1):
        A[r, r + 1] = 1.0
    for j in range(1, l):
        A[nsl - 1, j - 1] = -(epsv ** (l - j)) * cs_poly[j - 1]
    P = _lyap_solve(A.T, np.eye(nsl))
    acc = const(0)
    for r in range(nsl):
        for cidx in range(nsl):
            if abs(P[r, cidx]) > 1e-14:
                acc = acc + const(float(P[r, cidx])) * names[r] * names[cidx]
    return simplify(acc / 2)


def _lyap_solve(A, Q):
    """Solve A P + P A^T = -Q by the Kronecker linear system."""
    n = A.shape[0]
    M = np.kron(np.eye(n), A) + np.kron(A, np.eye(n))
    vec = np.linalg.solve(M, -Q.reshape(-1))
    P = vec.reshape(n, n)
    return (P + P.T) / 2


def semi_global_synthesize(system, lengths, kappa, stab, eps, gains=None):
    """Low-gain slow laws on the linear front of each chain, then
    backstepping over the remaining variables.  The slow laws place every
    pole at -1.

    lengths[i] marks the slot of chain i driving the residual block;
    admissible when lengths[0] <= q_1 + 1 and lengths[i] <= q_1 otherwise.
    kappa must start with the slow variables xi_{s,1..lengths[s]-1}.
    """
    if isinstance(kappa, str):
        kappa = parse_kappa(kappa)
    q = system.q
    if len(lengths) != system.m:
        raise ValueError("need one driving slot per chain")
    if lengths[0] > q[0] + 1 or any(l > q[0] for l in lengths[1:]) \
            or any(l < 1 for l in lengths):
        raise ValueError(f"slot constraint violated: need l1 <= q1+1 and "
                         f"li <= q1, got {lengths} with q = {q}")
    slow = [system.xi_name(s + 1, p + 1)
            for s in range(system.m) for p in range(lengths[s] - 1)]
    if set(kappa[:len(slow)]) != set(slow):
        raise ValueError("kappa must start with the slow chain variables")
    design = low_gain(lengths, eps)

    _check_order(system, kappa)
    # the slow block starts active, closed by the low-gain laws, and its
    # Lyapunov functions join V
    engine = _Engine(system, stab, gains=gains)
    engine.active += slow
    for s, l in enumerate(lengths):
        if l == 1:
            continue
        engine.V = simplify(engine.V + design.lyapunovs[s])
        if l == q[s] + 1:
            engine.vmap[system.v_name(s + 1)] = design.laws[s]
        else:
            engine.applied[system.xi_name(s + 1, l)] = design.laws[s]
    return _run(engine, kappa, kappa[len(slow):])


# ---------------------------------------------------------------------------
# Dissipative backstepping
# ---------------------------------------------------------------------------

def dissipative_backstep(eta_names, F, eta_dists, xi_name_, G, xi_dist,
                         phi, V, budget, c=1):
    """Single dissipative step: the nominal backstep plus damping
    -(z/(4*budget))*(1 + Rbar^2) against the step's collected disturbance
    input Rbar.  With no disturbance the damping vanishes and the step
    reduces to the plain integrator backstep."""
    if not len(F) == len(eta_dists) == len(eta_names):
        raise ValueError(f"F has {len(F)} and eta_dists {len(eta_dists)} "
                         f"entries for {len(eta_names)} eta states")
    if xi_name_ in eta_names:
        raise ValueError(f"eta names collide with the stepped name {xi_name_!r}")
    dists = {**dict(zip(eta_names, eta_dists)), xi_name_: xi_dist}
    _, u, W = _backstep(xi_name_, phi, V, dict(zip(eta_names, F)), G, c, budget,
                        lambda s: dists[s] or Disturbance(const(0)))
    return u, W


def da_synthesize(system, kappa, stab, gamma, eps, budgets=None, gains=None):
    """Disturbance-attenuating synthesis: fold the dissipative step along
    kappa with per-step supply budgets.

    Default budget schedule: step l receives
    (gamma + l*eps/n_d)^2 - (gamma + (l-1)*eps/n_d)^2 so the closed loop is
    dissipative with supply rate (gamma + eps)^2 ||w||^2 - ||y||^2; an
    explicit `budgets` list (expressions) overrides the schedule.
    """
    if isinstance(kappa, str):
        kappa = parse_kappa(kappa)
    _check_order(system, kappa, include_disturbance=True)
    for name, v in (("gamma", gamma), ("eps", eps)):
        if not isinstance(v, Expr) and not math.isfinite(float(v)):
            raise ValueError(f"{name} must be finite, got {v}")
    n_d = sum(system.q)
    ge = gamma if isinstance(gamma, Expr) else const(float(gamma))
    ee = eps if isinstance(eps, Expr) else const(float(eps))
    if budgets is None:
        # every step's budget is a multiple of eps, and a step divides by it
        if not free_vars(ee) and not evalf(ee, {}) > 0:
            raise ValueError("the default budget schedule needs eps > 0; "
                             "give explicit per-step budgets (--budgets)")
        budgets = []
        for l in range(1, n_d + 1):
            lo = simplify(ge + const(l - 1) * ee / const(n_d))
            hi = simplify(ge + const(l) * ee / const(n_d))
            budgets.append(simplify(hi * hi - lo * lo))
        total = simplify((ge + ee) * (ge + ee))
    else:
        budgets = [b if isinstance(b, Expr) else const(float(b)) for b in budgets]
        total = simplify(ge * ge + sum((b for b in budgets), start=const(0)))
        if len(budgets) != n_d:
            raise ValueError("need one budget per step")
    return _run(_Engine(system, stab, gains=gains, budgets=budgets), kappa,
                kappa, supply=(total, budgets))


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

def loads_chain_system(text, name=""):
    """Chain-system file: sections [chains], [eta], [eta_dot], [delta],
    [stabilizer], [disturbance]; see README for the grammar."""
    sections = read_sections(text, ("chains", "eta", "eta_dot", "delta",
                                    "stabilizer", "disturbance"))
    chains = required(sections, "chains")
    q = bindings(chains, ("q",)).get("q")
    if q is None:
        raise SystemFormatError("missing 'q = [...]' in [chains]", chains.line)
    with at_line(q[1]):
        shape = ChainSystem([int(v) for v in bracketed(*q)])
    eta, eta_dot = sections.get("eta"), sections.get("eta_dot")
    eta_names = names(eta.vector(), eta.start) if eta else []
    states = eta_names + shape.xi_names()
    controls = [shape.v_name(i + 1) for i in range(shape.m)]
    rhs = parse_entries(eta_dot.vector(), eta_dot.start, states + controls) \
        if eta_dot else []

    def index(words, size):
        if len(words) != size:
            raise ValueError(f"expected {size} indices, got {' '.join(words)!r}")
        return tuple(int(w) for w in words)

    delta = {}
    for words, src, lineno in keyed(sections.get("delta", ()), ":"):
        with at_line(lineno):
            shape.check_entry(key := index(words.split(), 3))
        (delta[key],) = parse_entries([src], lineno, states)
    eta_dist, xi_dist = [None] * len(eta_names), {}
    for words, src, lineno in keyed(sections.get("disturbance", ()), ":"):
        words = words.split()
        exprs = parse_entries(src.split("|"), lineno, states + [W_NAME])
        with at_line(lineno):
            if len(exprs) > 2:
                raise ValueError("expected 'p' or 'p | bound'")
            d = Disturbance(expr=exprs[0]) if len(exprs) == 1 else \
                Disturbance(expr=exprs[0], lin=const(0), bound=exprs[1])
            if words[0] == "eta":
                (k,) = index(words[1:], 1)
                if not 1 <= k <= len(eta_names):
                    raise ValueError(f"no residual state eta {k}")
                eta_dist[k - 1] = d
            else:
                shape.check_entry(key := index(words, 2))
                xi_dist[key] = d
    # what is left to fail: eta names that clash, or eta_dot's length
    with at_line((eta or eta_dot or chains).start):
        cs = ChainSystem(shape.q, eta_names, rhs, delta, eta_dist, xi_dist, name=name)
    if "stabilizer" not in sections:
        return cs, None
    stab = sections["stabilizer"]
    law = bindings(stab, ("phi", "V"))
    if len(law) < 2:
        raise SystemFormatError("[stabilizer] must bind phi and V", stab.line)
    phi = parse_entries(bracketed(*law["phi"]), law["phi"][1], eta_names)
    if len(phi) != cs.m:
        raise SystemFormatError(f"phi has {len(phi)} entries for {cs.m} chains",
                                law["phi"][1])
    (V,) = parse_entries([law["V"][0]], law["V"][1], eta_names)
    return cs, Stabilizer(phi, V)


def load_chain_system(path):
    return loads_chain_system(Path(path).read_text(encoding="utf-8"), name=str(path))


def dump_control_law(law):
    lines = ["[controller]"] + [f"v{i} = {render(e)}" for i, e in enumerate(law.v, 1)]
    return "\n".join(lines + ["", "[lyapunov]", f"W = {render(law.W)}"]) + "\n"


def loads_control_law(text, allowed=None):
    """(v, W) from a controller file: [controller] binds v1..vk, and the
    optional [lyapunov] binds W (None when absent).  With `allowed` given,
    an expression naming any other variable is an error."""
    sections = read_sections(text, ("controller", "lyapunov"))
    ctl = required(sections, "controller")
    if not ctl:
        raise SystemFormatError("[controller] binds no input", ctl.line)
    known = [f"v{i}" for i in range(1, len(ctl) + 1)]
    v = bindings(ctl, known)
    W = bindings(sections.get("lyapunov", ()), ("W",)).get("W")

    def entry(value, lineno):
        if allowed is None:
            return parse_entry(value, lineno)
        return parse_entries([value], lineno, allowed)[0]
    return [entry(*v[k]) for k in known], entry(*W) if W else None
