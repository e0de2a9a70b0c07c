"""Vector fields, symbolic matrices, and the Lie-calculus primitives.

Everything here is exact symbolic computation on top of expr.Expr, apart
from the sampled side: SymMatrix.sample, which evaluates a matrix at many
points in one call; rank, the one numeric rank rule; complete_rows, the one
greedy rank completion built on it; bracket_sampler, which
evaluates Lie brackets numerically at sample points without expanding them;
and the sampled involutivity test built on it.
"""

from __future__ import annotations

import numpy as np

from .expr import (EvalError, _diff_raw, compile_exprs, diff, evalf,
                   free_vars, simplify, subs, const)

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

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return SymMatrix([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return SymMatrix([[a - b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, s):
        return SymMatrix([[s * e for e in r] for r in self.rows])

    def vstack(self, other):
        if not self.rows:
            return SymMatrix(other.rows)
        if not other.rows:
            return SymMatrix(self.rows)
        if self.shape[1] != other.shape[1]:
            raise ValueError("column mismatch in vstack")
        return SymMatrix(self.rows + other.rows)

    def subs(self, mapping):
        return SymMatrix([[subs(e, mapping) for e in r] for r in self.rows])

    def eval_at(self, env):
        n, m = self.shape
        out = np.empty((n, m))
        for i in range(n):
            for j in range(m):
                out[i, j] = evalf(self.rows[i][j], env)
        return out

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
            with np.errstate(all="ignore"):
                # row assignment also broadcasts constant entries
                for row, v in zip(out, fn(list(pts))):
                    row[...] = v
            bad = ~np.isfinite(out).all(axis=0)
            if finite and bad.any():
                raise EvalError("matrix has non-finite entries at "
                                f"{pts[:, np.argmax(bad)]}")
        return out.T.reshape(pts.shape[1], nr, nc)

    def is_constant(self):
        return all(not free_vars(e) for r in self.rows for e in r)

    def to_numpy_constant(self):
        return self.eval_at({})

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
        n, m = self.shape
        if n != m:
            raise ValueError("determinant of non-square matrix")
        return self._minor(tuple(range(n)), tuple(range(n)), {})

    def _minor(self, rows, cols, memo):
        """Determinant of the submatrix on `rows` x `cols` by Laplace
        expansion along its first row.  Minors are stored in `memo` by
        (rows, cols), so a minor shared by several expansions is expanded
        once."""
        if not rows:
            return const(1)
        if len(rows) == 1:
            return self.rows[rows[0]][cols[0]]
        d = memo.get((rows, cols))
        if d is None:
            acc = const(0)
            for j in range(len(cols)):
                term = (self.rows[rows[0]][cols[j]]
                        * self._minor(rows[1:], cols[:j] + cols[j + 1:], memo))
                acc = acc + (term if j % 2 == 0 else -term)
            d = memo[(rows, cols)] = simplify(acc)
        return d

    def inverse(self, max_size=4):
        """Symbolic inverse by adjugate; guarded against blowup.  The
        determinant and the cofactors share one table of minors."""
        n, m = self.shape
        if n != m:
            raise ValueError("inverse of non-square matrix")
        if n > max_size:
            raise ValueError(f"symbolic inverse beyond supported size {max_size}")
        memo = {}
        idx = tuple(range(n))
        d = self._minor(idx, idx, memo)
        if simplify(d) == const(0):
            raise ValueError("symbolically singular matrix")
        if n == 1:
            return SymMatrix([[const(1) / d]])
        cof = []
        for i in range(n):
            row = []
            for j in range(n):
                c = self._minor(idx[:i] + idx[i + 1:], idx[:j] + idx[j + 1:], memo)
                row.append(c if (i + j) % 2 == 0 else -c)
            cof.append(row)
        adj = SymMatrix(cof).transpose()
        return SymMatrix([[e / d for e in r] for r in adj.rows])

    @staticmethod
    def identity(n):
        return SymMatrix([[const(1 if i == j else 0) for j in range(n)]
                          for i in range(n)])


class VectorField:
    """Column vector field over an ordered list of state names."""

    def __init__(self, components, state_names):
        self.states = list(state_names)
        self.components = [simplify(c) for c in components]
        if len(self.components) != len(self.states):
            raise ValueError("component count must equal state count")
        stray = set().union(*(free_vars(c) for c in self.components)) \
            - set(self.states) if self.components else set()
        if stray:
            raise ValueError(f"components reference non-state variables {sorted(stray)}")

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
        return np.array([evalf(c, env) for c in self.components])

    def is_zero(self):
        return all(c == const(0) for c in self.components)


def jacobian(exprs, names):
    """Matrix of partials: entry (i, j) = d exprs[i] / d names[j]."""
    return SymMatrix([[diff(e, n) for n in names] for e in exprs])


def lie_derivative(f, lam):
    """L_f lambda = sum_i (d lambda/d x_i) f_i.

    `lam` may be a single Expr, a list of Expr (returns list), or a SymMatrix
    whose rows are differentiated row-wise (returns rows x m matrix when f is
    a list of vector fields packed as a SymMatrix of columns).
    """
    if isinstance(lam, SymMatrix):
        return SymMatrix([lie_derivative(f, list(r)) for r in lam.rows])
    if isinstance(lam, (list, tuple)):
        return [lie_derivative(f, e) for e in lam]
    acc = const(0)
    for name, fi in zip(f.states, f.components):
        acc = acc + diff(lam, name) * fi
    return simplify(acc)


def lie_derivative_cols(g_matrix, states, lam):
    """L_g of scalar/vector lam against an n x m matrix of input columns.

    Returns a row (list) for scalar lam, or a SymMatrix (p x m) for a list.
    """
    n, m = g_matrix.shape
    cols = [VectorField(g_matrix.col(j), states) for j in range(m)]
    if isinstance(lam, (list, tuple)):
        return SymMatrix([[lie_derivative(c, e) for c in cols] for e in lam])
    return [lie_derivative(c, lam) for c in cols]


def lie_bracket(f, g):
    """[f, g] = (dg/dx) f - (df/dx) g."""
    if f.states != g.states:
        raise ValueError("vector fields over different state lists")
    names = f.states
    jg = jacobian(g.components, names)
    jf = jacobian(f.components, names)
    fcol = f.as_column()
    gcol = g.as_column()
    out = (jg @ fcol) - (jf @ gcol)
    return VectorField([out[i, 0] for i in range(len(names))], names)


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
    # compiled one expression at a time: a single source holding every raw
    # derivative tree raised the peak memory of assumption D on ex33 from
    # 50 MB to 165 MB (the parser's tree of that source)
    fns = [compile_exprs([e], states) for e in exprs]
    a_idx, b_idx = np.triu_indices(k, 1)

    def evaluate(points):
        args = list(np.asarray(points, dtype=float))
        out = np.empty((len(fns), args[0].shape[0]))
        with np.errstate(all="ignore"):
            for i, fn in enumerate(fns):
                out[i] = fn(args)[0]
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


def rank(a, tol):
    """Numeric rank: the singular values s_i > tol·max(1, s_1) are counted.

    A 2-D matrix gives an int.  A stack of shape (..., r, c) gives an int
    array of per-matrix ranks, all from one np.linalg.svd call.  A matrix
    with no rows or no columns has rank 0.
    """
    a = np.asarray(a, dtype=float)
    if a.size:
        r = _kept(np.linalg.svd(a, compute_uv=False), tol)
    else:
        r = np.zeros(a.shape[:-2], dtype=int)
    return int(r) if a.ndim == 2 else r


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


def _kept(s, tol):
    """Count of the singular values (descending along the last axis) that
    the rank rule keeps."""
    return np.sum(s > tol * np.maximum(1.0, s[..., :1]), axis=-1)
