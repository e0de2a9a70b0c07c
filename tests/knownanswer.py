"""Known-answer systems: a seeded generator after ROADMAP probe P9's recipe.

The infinite zero structure is invariant under a change of coordinates and
a regular feedback, so a system built from Brunovsky chains and then moved
by a polynomial diffeomorphism has a known `q`: its chain lengths, sorted.
In the chain coordinates z its chain-generating fields are the coordinate
fields d/dz_i, so assumption D holds as well.

member(n, m, seed) builds one such system:

- m chains whose lengths sum to n, chain j on consecutive states with its
  bottom z_s first and its top last;
- z_i' = z_{i+1} inside a chain, and at the top of chain j a rational
  quadratic monomial c z_a z_b plus row j of beta(z) u;
- beta upper unipotent: 1 on the diagonal and c z_k above it;
- y_j = z_s, the bottom of chain j;
- then the states become x with z = Phi(x), Phi_i = x_i + c x_{i-1} x_k
  for a k in [i-3, i) (Phi_1 = x_1), so f = DPhi^{-1} f_z(Phi(x)),
  g = DPhi^{-1} g_z(Phi(x)) and h = h_z(Phi(x)).  DPhi is lower
  unitriangular, so its inverse is taken by forward substitution.

Every c is a nonzero rational p/r with |p|, r <= 3, and every draw comes
from random.Random(seed), so a member is the same on every platform.
"""

import random
from fractions import Fraction

from normform.expr import ZERO, Var, const, diff, simplify
from normform.sysmodel import AffineSystem


def _coeff(rng):
    return const(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))


def member(n, m, seed):
    """(system, q): a known-answer system with n states and m inputs and
    outputs (1 <= m <= n), on the box [-0.5, 0.5]^n, and its known q."""
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, n), m - 1))
    bottoms = [0, *cuts]
    tops = [c - 1 for c in cuts] + [n - 1]
    names = [f"x{i + 1}" for i in range(n)]
    x = [Var(s) for s in names]
    phi = [x[0]]
    for i in range(1, n):
        k = rng.randrange(max(0, i - 3), i)
        phi.append(simplify(x[i] + _coeff(rng) * x[i - 1] * x[k]))
    # f_z(Phi(x)) and the columns of g_z(Phi(x)), row by row
    f_z = [phi[i + 1] if i + 1 < n else ZERO for i in range(n)]
    g_z = [[ZERO] * m for _ in range(n)]
    for j, top in enumerate(tops):
        f_z[top] = _coeff(rng) * phi[rng.randrange(n)] * phi[rng.randrange(n)]
        g_z[top][j] = const(1)
        for l in range(j + 1, m):
            g_z[top][l] = _coeff(rng) * phi[rng.randrange(n)]
    jac = [[diff(phi[i], s) for s in names[:i]] for i in range(n)]

    def pull_back(w):
        """DPhi^{-1} w, by forward substitution."""
        v = []
        for i in range(n):
            v.append(simplify(w[i] - sum((d * vj for d, vj in zip(jac[i], v)
                                          if d != ZERO), ZERO)))
        return v

    f = pull_back(f_z)
    cols = [pull_back([row[l] for row in g_z]) for l in range(m)]
    g = [[col[i] for col in cols] for i in range(n)]
    h = [phi[b] for b in bottoms]
    system = AffineSystem(names, f, g, h, {s: (-0.5, 0.5) for s in names},
                          name=f"known-answer n={n} m={m} seed={seed}")
    return system, sorted(t - b + 1 for b, t in zip(bottoms, tops))
