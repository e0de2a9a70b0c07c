"""Vector fields, symbolic matrices, and the Lie-calculus primitives.

Everything here is exact symbolic computation on top of expr.Expr, apart
from the sampled side: SymMatrix.sample, which evaluates a matrix at many
points in one call; rank, the one numeric rank rule; complete_rows, the one
greedy rank completion built on it (SymMatrix.pivots is its exact
counterpart); bracket_sampler, which
evaluates Lie brackets numerically at sample points without expanding them;
and the sampled involutivity test built on it.
"""

from __future__ import annotations

import numpy as np

from .expr import (_POLY_ONE, ONE, ZERO, BudgetError, EvalError, _diff_raw,
                   _exact, _frac_add, _frac_cancel, _frac_inv, _frac_mul,
                   _frac_written, _Frac, _mark_canonical, _memoized,
                   _poly_const, _poly_iadd, _poly_mul, _poly_pow, _to_frac,
                   compile_exprs, const, diff, free_vars, numeric_equivalent,
                   simplify)

__all__ = ["VectorField", "SymMatrix", "jacobian", "lie_derivative",
           "lie_bracket", "ad_power", "bracket_sampler", "involutive", "rank",
           "complete_rows"]


class SymMatrix:
    """Rectangular grid of simplified expressions."""

    def __init__(self, rows):
        rows = [list(simplify(e) for e in r) for r in rows]
        if rows:
            w = len(rows[0])
            for r in rows:
                if len(r) != w:
                    raise ValueError("ragged SymMatrix")
        self.rows = rows

    @property
    def shape(self):
        if not self.rows:
            return (0, 0)
        return (len(self.rows), len(self.rows[0]))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"SymMatrix({[[str(e) for e in r] for r in self.rows]})"

    def row(self, i):
        return list(self.rows[i])

    def col(self, j):
        return [r[j] for r in self.rows]

    def transpose(self):
        n, m = self.shape
        return SymMatrix([[self.rows[i][j] for i in range(n)] for j in range(m)])

    def matmul(self, other):
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = const(0)
                for l in range(k):
                    acc = acc + self.rows[i][l] * other.rows[l][j]
                row.append(acc)
            out.append(row)
        return SymMatrix(out)

    def __matmul__(self, other):
        return self.matmul(other)

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return SymMatrix([[a - b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def vstack(self, other):
        if not self.rows:
            return SymMatrix(other.rows)
        if not other.rows:
            return SymMatrix(self.rows)
        if self.shape[1] != other.shape[1]:
            raise ValueError("column mismatch in vstack")
        return SymMatrix(self.rows + other.rows)

    def eval_at(self, env):
        """Values at one point {name: float}: `sample` at that point."""
        return self.sample(list(env), np.fromiter(env.values(), float,
                                                  len(env))[:, None])[0]

    def sample(self, states, points, finite=True):
        """Values at the columns of the (n, P) array `points`, whose rows
        follow `states`, as an array of shape (P, rows, cols).

        The entries are compiled once and evaluated over all points in one
        call.  Raises EvalError naming the first point where an entry is
        undefined or not finite, unless `finite` is False.
        """
        pts = np.asarray(points, dtype=float)
        nr, nc = self.shape
        out = np.empty((nr * nc, pts.shape[1]))
        if out.size:
            fn = compile_exprs([e for r in self.rows for e in r], states)
            kernel_values(fn, pts, out)
            bad = ~np.isfinite(out).all(axis=0)
            if finite and bad.any():
                raise EvalError("matrix has non-finite entries at "
                                f"{pts[:, np.argmax(bad)]}")
        return out.T.reshape(pts.shape[1], nr, nc)

    def is_constant(self):
        return all(not free_vars(e) for r in self.rows for e in r)

    @staticmethod
    def from_numpy(a):
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError("expected 2-D array")

        def conv(v):
            if float(v).is_integer():
                return const(int(v))
            return const(float(v))

        return SymMatrix([[conv(v) for v in row] for row in a])

    def det(self):
        """Determinant: the last pivot of _reduce, negated after an odd
        number of row swaps, or 0 when a column has no pivot."""
        n, m = self.shape
        if n != m:
            raise ValueError("determinant of non-square matrix")
        d, flipped, piv, _ = self._reduce(0)
        return simplify(-d if flipped else d) if len(piv) == n else ZERO

    def inverse(self, max_size=None):
        """Exact inverse: [M | I] reduces to [d I | d M^-1], and the right
        block is divided by d.  There is no size cap; `max_size` is accepted
        for callers that still pass one, and ignored."""
        n, m = self.shape
        if n != m:
            raise ValueError("inverse of non-square matrix")
        d, _, piv, right = self._reduce(n)
        if len(piv) < n:
            raise ValueError("symbolically singular matrix")
        return SymMatrix([[e / d for e in r] for r in right])

    def pivots(self):
        """Indices of the columns that are not combinations of the columns
        before them: the exact counterpart of complete_rows."""
        return self._reduce(0)[2]

    def nullspace(self):
        """Basis of {v : M v = 0} as a list of vectors: the rows of the
        right block of [M^T | I] that get no pivot, each divided by the last
        pivot, so that it is 1 at its own position and 0 at the others'."""
        d, _, piv, right = self.transpose()._reduce(self.shape[1])
        return [[simplify(e / d) for e in r] for r in right[len(piv):]]

    def _reduce(self, width):
        """_eliminate on [M | I_width] on polynomial fractions, or on trees
        through simplify, which keeps parts over the term budget factored,
        when a product outgrows the budget."""
        cols = self.shape[1]
        grid = [r + [ONE if j == i else ZERO for j in range(width)]
                for i, r in enumerate(self.rows)]
        try:
            return _eliminate([[_to_frac(e) for e in r] for r in grid], cols,
                               _FRAC_OPS)
        except BudgetError:
            return _eliminate(grid, cols, _TREE_OPS)

    @staticmethod
    def identity(n):
        return SymMatrix([[const(1 if i == j else 0) for j in range(n)]
                          for i in range(n)])


def _eliminate(grid, cols, ops):
    """Fraction-free Gauss-Jordan elimination, in place, of the rows of
    `grid` on its first `cols` columns (Bareiss, Math. Comp. 22, 1968;
    Geddes, Czapor & Labahn, Algorithms for Computer Algebra, 1992, ch. 9).
    The step on column k swaps up the first row at or below the next pivot
    row with a non-zero column-k entry, or skips the column when there is
    none, and sets each entry right of column k in the other rows to
    (p a - b c) / prev, with p the pivot, b and c the column-k entry of a's
    row and the pivot-row entry above a, and prev the last pivot; the
    division is exact on polynomials.  `ops` is (is_zero, recip, cross,
    to_expr), where cross(p, a, b, c, recip(prev)) gives that entry (None
    stands for 1/prev at the first pivot).  Returns the last pivot d (a
    square left block of full rank ends as d I; 1 with no pivot), whether
    the swaps were odd in number, the pivot columns, and the block right of
    column `cols`, as Exprs.  Past the pivot rows, that block holds d times
    the combinations of the input rows whose left part is zero."""
    is_zero, recip, cross, to_expr = ops
    n, scale, flipped, piv = len(grid), None, False, []
    for k in range(cols):
        r = len(piv)
        i = next((i for i in range(r, n) if not is_zero(grid[i][k])), None)
        if i is None:
            continue
        if i != r:
            grid[r], grid[i], flipped = grid[i], grid[r], not flipped
        top = grid[r]
        for row in grid:
            if row is not top:
                b = row[k]
                for j in range(k + 1, len(row)):
                    row[j] = cross(top[k], row[j], b, top[j], scale)
        piv.append(k)
        if r + 1 == n:
            break
        scale = recip(top[k])
    # canonical, so that each division by d reads its stored fraction
    d = simplify(to_expr(grid[len(piv) - 1][piv[-1]])) if piv else ONE
    return d, flipped, piv, [[to_expr(e) for e in r[cols:]] for r in grid]


def _frac_cross(p, a, b, c, scale):
    t = _frac_mul(p, a) if a.num else a
    if b.num and c.num:
        bc = _frac_mul(b, c)
        t = _frac_add(t, _Frac({m: -v for m, v in bc.num.items()}, bc.den))
        if t.den == bc.den:
            # _frac_add leaves a sum over one denominator uncancelled, and
            # the zero test needs the sin^2 + cos^2 = 1 rewrite of the cancel
            t = _frac_cancel(*t)
    return t if scale is None or not t.num else _frac_mul(t, scale)


def _tree_cross(p, a, b, c, scale):
    t = p * a - b * c
    return simplify(t if scale is None else t * scale)


def _tree_is_zero(e):
    # simplify keeps a sum over the term budget factored, so such a zero is
    # found only by sampling (see simplify)
    return e == ZERO or numeric_equivalent(e, ZERO)


_FRAC_OPS = (lambda f: not f.num, _frac_inv, _frac_cross,
             lambda f: _frac_written(f)[0])
_TREE_OPS = (_tree_is_zero, lambda e: e ** -1, _tree_cross, simplify)


class VectorField:
    """Column vector field over an ordered list of state names.  A
    component may read other names (a law's eps, a control symbol): they
    are parameters, held fixed by lie_derivative and lie_bracket."""

    def __init__(self, components, state_names):
        self.states = list(state_names)
        self.components = [simplify(c) for c in components]
        if len(self.components) != len(self.states):
            raise ValueError("component count must equal state count")

    def __len__(self):
        return len(self.components)

    def __eq__(self, other):
        return (isinstance(other, VectorField) and self.states == other.states
                and self.components == other.components)

    def __repr__(self):
        return f"VectorField({[str(c) for c in self.components]}, states={self.states})"

    def as_column(self):
        return SymMatrix([[c] for c in self.components])

    def eval_at(self, env):
        return SymMatrix([self.components]).eval_at(env)[0]

    def is_zero(self):
        return all(c == const(0) for c in self.components)


def jacobian(exprs, names):
    """Matrix of partials: entry (i, j) = d exprs[i] / d names[j]."""
    return SymMatrix([[diff(e, n) for n in names] for e in exprs])


def lie_derivative(f, lam):
    """L_f lambda = sum_i (d lambda/d x_i) f_i, over the states x_i of f in
    their order; a name that is not a state of f is a parameter, held
    fixed.  A field with no states gives 0.

    When lam and the components of f are exact fractions over variables,
    the sum is taken on their stored fractions (_frac_lie_derivative) and
    written as one tree, the one simplify gives for the sum of the trees.

    `lam` may be a single Expr, or a list of Expr (returns a list).
    """
    if isinstance(lam, (list, tuple)):
        return [lie_derivative(f, e) for e in lam]
    lam = const(lam)
    try:
        fracs = _exact_fracs((lam, *f.components))
        # diff reads lam's tree, which is its fraction written out only on a
        # canonical node; a polynomial's expansion is its canonical form
        if fracs is not None and (lam._canon or fracs[0].den == _POLY_ONE):
            # stored on the node, as diff stores its partials: one lam meets
            # several fields (lie_derivative_cols takes each input column)
            partials = (_memoized(lam, _PARTIALS_KEY,
                                  lambda: _frac_partials(fracs[0]))
                        if lam._canon else _frac_partials(fracs[0]))
            out = _frac_lie_derivative(partials, fracs[1:], f.states)
            tree, order = _frac_written(out)
            return _mark_canonical(tree, out, order)
    except BudgetError:
        pass
    acc = const(0)
    for name, fi in zip(f.states, f.components):
        acc = acc + diff(lam, name) * fi
    return simplify(acc)


# The memo key of a node's partials; expr's keys are 0 and variable names.
_PARTIALS_KEY = 1


def _exact_fracs(exprs):
    """The fractions of exprs, or None at the first that is not an exact
    fraction over variables (the rest are not expanded).  On a canonical
    node the fraction is stored."""
    out = []
    for e in exprs:
        out.append(_to_frac(e))
        if not _exact(out[-1], over_vars=True):
            return None
    return out


def _poly_partials(p):
    """{name: d p / d name} for the variables of the polynomial dict p: each
    partial is an exponent shift."""
    out = {}
    for mono, c in p.items():
        for k in range(1, len(mono)):
            t, e = mono[k]   # e is the negated exponent
            shifted = ((t, e + 1),) if e < -1 else ()
            out.setdefault(t.atom.name, {})[
                (mono[0] + 1, *mono[1:k], *shifted, *mono[k + 1:])] = c * -e
    return out


def _frac_partials(f):
    """{name: d f / d name} for the variables of the exact fraction f over
    variables: each the fraction that diff stores for that name on f's
    canonical tree num * den^-1.  Its product rule gives the terms
    d num * den^-1 and num * (-den^-2 * d den), each cancelled as that tree
    is expanded, then their sum.  The quotient rule taken over den^2 at once
    can leave a common factor that _frac_cancel, which takes no GCD, keeps."""
    dn = _poly_partials(f.num)
    if f.den == _POLY_ONE:
        return {name: _Frac(p, _poly_const(1)) for name, p in dn.items()}
    dd = _poly_partials(f.den)
    sq = _poly_pow(f.den, 2) if dd else None
    out = {}
    for name in {**dn, **dd}:
        a, b = dn.get(name), dd.get(name)
        if a is not None:
            a = _frac_cancel(a, f.den)
        if b is not None:
            b = _frac_mul(_Frac(f.num, _poly_const(1)),
                          _frac_cancel({m: -c for m, c in b.items()}, sq))
        out[name] = (a if b is None else b if a is None
                     else _frac_cancel(*_frac_add(a, b)))
    return out


def _frac_lie_derivative(partials, comps, states):
    """L_f lam as an exact fraction, from the partials of lam
    (_frac_partials) and the fractions of f's components over `states`.
    Over polynomials each product is _poly_mul and the sum is added into
    one dict; otherwise the sum is _frac_dot's."""
    pairs = [(partials[name], c) for name, c in zip(states, comps)
             if name in partials]
    if (all(c.den == _POLY_ONE for c in comps)
            and all(p.den == _POLY_ONE for p, _ in pairs)):
        acc = {}
        for p, c in pairs:
            _poly_iadd(acc, _poly_mul(p.num, c.num))
        return _Frac(acc, _poly_const(1))
    return _frac_dot(pairs)


def _frac_dot(pairs):
    """sum x y over the pairs of fractions, as simplify gives it for the
    tree sum(x * y, 0) of canonical x and y: that tree nests one sum in the
    next, so each product is cancelled, the running sum is cancelled before
    the next product is added, and the total once more.  A running sum is
    already cancelled unless its last addition met an equal denominator."""
    acc, dirty = None, False
    for x, y in pairs:
        t = _frac_mul(x, y)
        if acc is None:
            acc = t
            continue
        if dirty:
            acc = _frac_cancel(*acc)
        dirty = acc.den == t.den
        acc = _frac_add(acc, t)
    return _Frac({}, _poly_const(1)) if acc is None else _frac_cancel(*acc)


def _frac_sub(a, b):
    """a - b on fractions, as simplify gives it for the tree a - b of
    canonical a and b."""
    return _frac_cancel(*_frac_add(a, _Frac({m: -c for m, c in b.num.items()},
                                            b.den)))


class _FracField:
    """A vector field whose components are exact fractions over variables
    (expr._Frac), with the partials of each component taken once, when a
    bracket first needs them."""

    def __init__(self, components, states):
        self.components, self.states = components, states
        self._partials = [None] * len(components)

    def partial(self, i):
        """{name: d c / d name} of component c = components[i]
        (_frac_partials), stored on first use."""
        p = self._partials[i]
        if p is None:
            p = self._partials[i] = _frac_partials(self.components[i])
        return p


def _frac_bracket(f, g):
    """The components of [f, g] on _FracFields, one at a time: the
    fractions lie_bracket stores on the components of its field.  Component
    i reads the partials of component i of f and g alone, so a caller that
    stops early differentiates no later component."""
    for i in range(len(f.components)):
        yield _frac_sub(
            _frac_lie_derivative(g.partial(i), f.components, f.states),
            _frac_lie_derivative(f.partial(i), g.components, g.states))


def lie_derivative_cols(g_matrix, states, lam):
    """L_g of the list lam against an n x m matrix of input columns, as a
    SymMatrix (p x m)."""
    n, m = g_matrix.shape
    cols = [VectorField(g_matrix.col(j), states) for j in range(m)]
    return SymMatrix([[lie_derivative(c, e) for c in cols] for e in lam])


def lie_bracket(f, g):
    """[f, g] = (dg/dx) f - (df/dx) g, entry by entry L_f g_i - L_g f_i."""
    if f.states != g.states:
        raise ValueError("vector fields over different state lists")
    return VectorField([a - b for a, b in zip(lie_derivative(f, g.components),
                                              lie_derivative(g, f.components))],
                       f.states)


def ad_power(f, g, k):
    """ad^k_f g: k = 0 gives g, else [f, ad^{k-1}_f g]."""
    if k < 0:
        raise ValueError("ad power must be nonnegative")
    out = g
    for _ in range(k):
        out = lie_bracket(f, out)
    return out


def bracket_sampler(fields):
    """Compile the fields once for numeric Lie brackets at sample points.

    Returns evaluate(points), where points is an (n, P) array whose rows
    follow the fields' state order.  It gives the field values, shape
    (k, n, P) for k fields, and for every pair a < b, in the order
    (0, 1), (0, 2), ..., (1, 2), ..., the bracket
    [fields[a], fields[b]] = J_b a - J_a b together with its scale
    |J_b| |a| + |J_a| |b| (absolute values taken entrywise, so the scale is
    the size of the terms that cancel), both of shape (k (k - 1) / 2, n, P).
    The Jacobian entries come from the unsimplified derivative trees, so no
    bracket is expanded symbolically.  Where an expression is undefined the
    values come out non-finite; the caller decides which points to keep.

    The fields and their Jacobian entries are compiled as one kernel, of
    9.8 kB of source on ex33's chain fields.  involutive samples its
    brackets here; check_assumption_D does only for chain fields that are
    not exact fractions over variables, and decides the others exactly.
    """
    if not fields:
        raise ValueError("need at least one vector field")
    states = fields[0].states
    for f in fields[1:]:
        if f.states != states:
            raise ValueError("vector fields over different state lists")
    n, k = len(states), len(fields)
    exprs = []
    for f in fields:
        exprs.extend(f.components)
        exprs.extend(_diff_raw(c, s) for c in f.components for s in states)
    fn, count = compile_exprs(exprs, states), len(exprs)
    a_idx, b_idx = np.triu_indices(k, 1)

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        out = kernel_values(fn, points, np.empty((count, points.shape[1])))
        with np.errstate(all="ignore"):
            out = out.reshape(k, n + n * n, -1)
            vals = out[:, :n]
            jac = out[:, n:].reshape(k, n, n, -1)
            jb, ja, va, vb = jac[b_idx], jac[a_idx], vals[a_idx], vals[b_idx]
            bracket = _apply(jb, va) - _apply(ja, vb)
            scale = (_apply(np.abs(jb), np.abs(va))
                     + _apply(np.abs(ja), np.abs(vb)))
            return vals, bracket, scale

    return evaluate


def _apply(jac, vals):
    """Matrix-vector products per pair and point: (k, n, n, P) x (k, n, P)."""
    return np.einsum("kijp,kjp->kip", jac, vals)


def involutive(fields, points, tol=1e-8):
    """True iff at every sample the span of the fields already contains all
    pairwise Lie brackets (rank comparison under tol).  A bracket component
    with |v| <= tol * s, where s is the size of the terms that cancel in it
    (see bracket_sampler), is taken as 0, so the rounding left by exactly
    cancelling terms adds no rank.  Samples where a field or bracket is
    undefined are skipped."""
    if not points:
        raise ValueError("empty sample list")
    if len(fields) < 2:
        return True  # no pair to bracket
    vals, brackets, scale = bracket_sampler(fields)(
        np.asarray(points, dtype=float).T)
    cancelled = np.isfinite(brackets) & (np.abs(brackets) <= tol * scale)
    brackets = np.where(cancelled, 0.0, brackets)
    # per point: the fields as columns, then the fields and brackets
    base = vals.transpose(2, 1, 0)
    ext = np.concatenate([base, brackets.transpose(2, 1, 0)], axis=2)
    finite = np.isfinite(ext).all(axis=(1, 2))
    return bool(np.all(rank(ext[finite], tol) <= rank(base[finite], tol)))


def kernel_values(kernel, points, out):
    """Fill `out` (rows, P) with the values of the compiled `kernel`
    (expr.compile_exprs) at the columns of the (n, P) array `points`, inf
    or nan where an entry is undefined, and return it."""
    with np.errstate(all="ignore"):
        # row assignment also broadcasts constant entries
        for row, v in zip(out, kernel(list(points))):
            row[...] = v
    return out


def rank(a, tol):
    """Numeric rank: each row is divided by max(1, |row|), then the
    singular values s_i > tol·max(1, s_1) are counted.  Rank does not
    change under non-zero row scaling, so the equilibration keeps one large
    row (near a pole) from hiding the others behind the relative threshold
    (van der Sluis, Numer. Math. 14, 1969).

    A 2-D matrix gives an int.  A stack of shape (..., r, c) gives an int
    array of per-matrix ranks, all from one np.linalg.svd call.  A matrix
    with no rows or no columns has rank 0.  A tol that is not positive and
    finite is refused.
    """
    _check_tol(tol)
    a = np.asarray(a, dtype=float)
    if a.size:
        with np.errstate(all="ignore"):
            a = a / np.maximum(1.0, np.linalg.norm(a, axis=-1, keepdims=True))
        s = np.linalg.svd(a, compute_uv=False)
        r = np.sum(s > tol * np.maximum(1.0, s[..., :1]), axis=-1)
    else:
        r = np.zeros(a.shape[:-2], dtype=int)
    return int(r) if a.ndim == 2 else r


def _check_tol(tol):
    # a nan or inf tol counts no singular value, and tol <= 0 counts rounding
    # noise as rank
    if not 0 < tol < np.inf:
        raise ValueError(f"rank tolerance must be positive and finite, got {tol}")


def complete_rows(base, candidates, need, tol):
    """Indices of the candidate rows that, taken in order, each raise the
    rank of `base` plus the rows already chosen; stops after `need` rows.
    A base with no rows is taken at the candidates' width.  Fewer than
    `need` indices come back when the candidates run out."""
    candidates = np.asarray(candidates, dtype=float)
    cur = np.asarray(base, dtype=float)
    if not len(cur):
        cur = np.zeros((0, candidates.shape[1]))
    cur_rank = rank(cur, tol)
    chosen = []
    for i, row in enumerate(candidates):
        if len(chosen) == need:
            break
        trial = np.vstack([cur, row])
        trial_rank = rank(trial, tol)
        if trial_rank > cur_rank:
            chosen.append(i)
            cur, cur_rank = trial, trial_rank
    return chosen
