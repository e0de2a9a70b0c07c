"""Linear triple analysis: infinite zeros, relative degrees, decomposition."""

import numpy as np
import pytest

from conftest import counter3_affine, counter3_triple
from normform.linstruct import (LinearTriple, decompose,
                                linear_infinite_zeros, vector_relative_degree)
from normform.structure import StructureError, infinite_zero_algorithm
from normform.sysmodel import SamplePlan


def exam1_triple(alpha=1.0):
    A = np.array([[0, 0, 0, 0], [alpha, 0, 1, 0], [0, 0, 0, 1],
                  [0, 0, 0, 0]], float)
    B = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], float)
    C = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], float)
    return LinearTriple(A, B, C)


def exam2_triple(alpha=1.0):
    A = np.array([[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                  [0, 0, 0, 0]], float)
    B = np.array([[1, 0], [alpha, 0], [0, 0], [0, 1]], float)
    C = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], float)
    return LinearTriple(A, B, C)


def sch_triple(with_to=False):
    A = np.array([[1, 1, -2, 0, 0], [0, 5, -4, 1, 2], [0, 1, 0, 0, 1],
                  [-2, 0, -1, 0, 0], [0, 0, 0, -1, 0]], float)
    B = np.array([[0, 0], [1, 1], [0, 0], [-1, 1], [0, 0]], float)
    C = np.array([[0, 1, -2, 0, 0], [0, 1, -2, 0, 1]], float)
    if with_to:
        C = np.array([[1, 0], [-1, 1]], float) @ C
    return LinearTriple(A, B, C)


def test_counter3_infinite_zeros():
    out = linear_infinite_zeros(counter3_triple())
    assert out.q == [1, 4]
    assert out.invertibility == "Invertible"


@pytest.mark.parametrize("alpha", [1.0, 2.0, -0.5])
def test_counter3_alpha_independent(alpha):
    assert linear_infinite_zeros(counter3_triple(alpha)).q == [1, 4]


def test_exam1_and_exam2():
    assert linear_infinite_zeros(exam1_triple()).q == [1, 3]
    out2 = linear_infinite_zeros(exam2_triple())
    assert out2.q == [1, 3]
    # cross-check the affine encoding through the symbolic algorithm
    sym = infinite_zero_algorithm(counter3_affine(), SamplePlan(count=25))
    assert sym.q == linear_infinite_zeros(counter3_triple()).q


def test_vector_relative_degree_cases():
    assert vector_relative_degree(sch_triple()) is None
    assert vector_relative_degree(sch_triple(with_to=True)) == [1, 2]
    Ad = np.array([[0, 1], [0, 0]], float)
    Bd = np.array([[0], [1]], float)
    Cd = np.array([[1, 0]], float)
    assert vector_relative_degree(LinearTriple(Ad, Bd, Cd)) == [2]
    # an output that no input reaches has no relative degree
    assert vector_relative_degree(LinearTriple(Ad, Bd, [[0, 0]])) is None
    with pytest.raises(ValueError):
        vector_relative_degree(LinearTriple(Ad, Bd, np.vstack([Cd, Cd])))


def test_vrd_equals_sorted_q():
    t = sch_triple(with_to=True)
    assert sorted(vector_relative_degree(t)) == linear_infinite_zeros(t).q


def test_decompose_counter3_block_pattern():
    dec = decompose(counter3_triple())
    assert dec.q == [1, 4]
    assert dec.verify_block_pattern() < 1e-9
    # the one allowed coupling matches the reference transformed pair
    assert set(dec.delta) == {(2, 2, 1)}
    assert dec.delta[(2, 2, 1)] == pytest.approx(1.0)


def test_decompose_identity_form():
    # already in block form: chain of 2 with residual state
    A = np.array([[-1, 0, 0], [0, 0, 1], [0, 0, 0]], float)
    B = np.array([[0], [0], [1]], float)
    C = np.array([[0, 1, 0]], float)
    dec = decompose(LinearTriple(A, B, C))
    assert dec.q == [2]
    assert dec.verify_block_pattern() < 1e-12
    P = np.abs(dec.W)
    assert np.allclose(P @ P.T, np.eye(3))   # permutation up to signs
    # a second output on the residual state is retained, not chained
    dec = decompose(LinearTriple(A, B, np.vstack([C, [1, 0, 0]])))
    assert dec.q == [2]
    assert dec.verify_block_pattern() < 1e-12


@pytest.mark.parametrize("A, B, C, message", [
    (np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)), "^A must be square$"),
    (np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), "^B must have n rows$"),
    (np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 3)), "^C must have n columns$"),
])
def test_triple_refuses_mismatched_shapes(A, B, C, message):
    with pytest.raises(ValueError, match=message):
        LinearTriple(A, B, C)


def test_a_rank_at_the_tolerance_edge_has_no_row_selection():
    # C B has rank 2 (singular values 1 and 1.13e-9 against tol 1e-9), but
    # rows 2 and 3, each of norm 8e-10 < tol, add nothing one at a time
    C = [[1, 0], [0, 8e-10], [0, 8e-10]]
    with pytest.raises(StructureError, match="^row selection failed for a "
                                             "constant triple$"):
        linear_infinite_zeros(LinearTriple(np.zeros((2, 2)), np.eye(2), C))


def test_decompose_random_triples_and_reconstruction():
    rng = np.random.default_rng(0)
    for _ in range(6):
        t = LinearTriple(rng.normal(size=(5, 5)), rng.normal(size=(5, 2)),
                         rng.normal(size=(2, 5)))
        dec = decompose(t)
        assert dec.verify_block_pattern() < 1e-9
        # transformation consistency: re-multiplication returns the triple
        W, Gi, Go = dec.W, dec.gamma_i, dec.gamma_o
        Winv = np.linalg.inv(W)
        Z = np.vstack([np.zeros((t.m - dec.outcome.m_d, t.n)),
                       dec.outcome.omega @ t.A])
        assert np.allclose(Winv @ (dec.At @ W + W @ t.B @ np.linalg.inv(Gi) @ Z),
                           t.A, atol=1e-8)
        assert np.allclose(Winv @ dec.Bt @ Gi, t.B, atol=1e-8)
        assert np.allclose(np.linalg.inv(Go) @ dec.Ct @ W, t.C, atol=1e-8)


def test_q_invariance_20_trials():
    rng = np.random.default_rng(11)
    t = counter3_triple()
    base = linear_infinite_zeros(t).q

    def rand_orth(sz):
        # well-conditioned transforms keep the exact-arithmetic invariance
        # visible through floating point
        q, _ = np.linalg.qr(rng.normal(size=(sz, sz)))
        return q

    for _ in range(20):
        Ts, Ti, To = rand_orth(5), rand_orth(2), rand_orth(2)
        F = rng.integers(-2, 3, size=(2, 5)).astype(float)
        K = rng.integers(-2, 3, size=(5, 2)).astype(float)
        t2 = LinearTriple(Ts.T @ (t.A + t.B @ F + K @ t.C) @ Ts,
                          Ts.T @ t.B @ Ti, To @ t.C @ Ts)
        assert linear_infinite_zeros(t2).q == base


def test_residual_block_not_both_controllable_observable():
    # the controllable-and-observable intersection of the residual triple
    # is trivial (reported dimension 0)
    for t in (counter3_triple(), exam1_triple(), exam2_triple()):
        dec = decompose(t)
        ne = t.n - dec.outcome.n_d
        A11 = dec.At[:ne, :ne]
        B1 = dec.Bt[:ne, :t.m - dec.outcome.m_d]
        C1 = dec.Ct[:t.p - dec.outcome.m_d, :ne]
        if ne == 0:
            continue
        ctrl = np.hstack([np.linalg.matrix_power(A11, k) @ B1
                          for k in range(max(ne, 1))]) if B1.size else \
            np.zeros((ne, 0))
        obs = np.vstack([C1 @ np.linalg.matrix_power(A11, k)
                         for k in range(max(ne, 1))]) if C1.size else \
            np.zeros((0, ne))
        if ctrl.size == 0 or obs.size == 0:
            continue
        u, s, _ = np.linalg.svd(ctrl)
        rc = int(np.sum(s > 1e-9))
        Vc = u[:, :rc]
        # observable directions within the controllable subspace
        inter = obs @ Vc
        assert np.linalg.norm(inter) < 1e-9


def _random_triple(seed):
    """Small integer triple: n in 2..5, m and p in 1..3, entries in -2..2,
    each entry of B and C kept with probability 0.35."""
    rng = np.random.default_rng(seed)
    n, m, p = int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    A = rng.integers(-2, 3, size=(n, n))
    B = rng.integers(-2, 3, size=(n, m)) * (rng.random((n, m)) < 0.35)
    C = rng.integers(-2, 3, size=(p, n)) * (rng.random((p, n)) < 0.35)
    return A, B, C


def _lift(A, B, C):
    """The triple as an AffineSystem with exact integer coefficients."""
    from normform.expr import Var, const, simplify
    from normform.sysmodel import AffineSystem
    states = [f"x{i + 1}" for i in range(A.shape[1])]

    def times_x(M):
        return [simplify(sum((const(int(v)) * Var(s) for v, s in zip(row, states)),
                             start=const(0))) for row in M]

    return AffineSystem(states, times_x(A),
                        [[const(int(v)) for v in row] for row in B], times_x(C))


def _compare_with_linear(A, B, C, seed=0):
    """Run both algorithms on the triple and check that they agree; returns
    the symbolic outcome and normal form."""
    from normform.expr import evalf
    from normform.geom import jacobian
    from normform.normalform import build_normal_form
    lin = linear_infinite_zeros(LinearTriple(A, B, C))
    sysm = _lift(A, B, C)
    out = infinite_zero_algorithm(sysm, SamplePlan(count=5, seed=seed))
    assert out.regular
    assert (out.q, out.invertibility) == (lin.q, lin.invertibility)
    nf = build_normal_form(sysm, out)
    if out.m_d:
        dec = decompose(LinearTriple(A, B, C))
        J = jacobian([e for c in nf.chains for e in c], sysm.states)
        assert np.array_equal(J.eval_at({}), dec.W[sysm.n - out.n_d:])
        delta = {key: evalf(e, {}) for key, e in nf.delta.items()}
        assert delta.keys() == dec.delta.keys()
        assert all(abs(delta[key] - dec.delta[key]) < 1e-9 for key in delta)
    else:
        assert nf.chains == [] and len(nf.eta_exprs) == sysm.n
    return out, nf


def test_symbolic_algorithm_matches_linear_reference():
    qs, classes, no_chains = set(), set(), 0
    for seed in range(60):
        out, _ = _compare_with_linear(*_random_triple(seed), seed=seed)
        qs.add(tuple(out.q))
        classes.add(out.invertibility)
        no_chains += not out.m_d
    # the draw covers the cases the comparison is meant for
    assert () in qs and (3,) in qs
    assert len(classes) == 4
    assert no_chains >= 10


def test_coupling_into_a_later_chain_matches_linear_reference():
    # y1 = x1, y2 = x2, y3 = x4 with x5' = x6 + u2: the level-2 row of the
    # length-3 chain couples to v_2, the input of the second chain
    A = np.zeros((6, 6), dtype=int)
    A[1, 2] = A[3, 4] = A[4, 5] = 1
    B = np.zeros((6, 3), dtype=int)
    B[0, 0] = B[2, 1] = B[4, 1] = B[5, 2] = 1
    C = np.zeros((3, 6), dtype=int)
    C[0, 0] = C[1, 1] = C[2, 3] = 1
    out, nf = _compare_with_linear(A, B, C)
    assert out.q == [1, 2, 3]
    assert set(nf.delta) == {(3, 2, 2)}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_vector_relative_degree_refuses_a_tol_not_positive_and_finite(tol):
    # every norm comparison with nan is false, so the test found no degree
    with pytest.raises(ValueError, match="rank tolerance must be positive "
                                         f"and finite, got {tol}"):
        vector_relative_degree(counter3_triple(), tol)
