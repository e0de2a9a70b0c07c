"""Structure algorithms on the worked examples and invariance properties.

The step records of five runs at seeds 0-2 are pinned by
tests/golden/structure/steps.json.  Regenerate it (only after checking that
a change of output is intended) with `PYTHONPATH=src python tests/test_structure.py`.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import counter3_affine
from normform import structure
from normform.expr import parse, render
from normform.geom import SymMatrix
from normform.structure import (StructureOutcome, _assert_zero_matrix,
                                classify_invertibility,
                                infinite_zero_algorithm, invariance_harness,
                                select_RS, zero_output_algorithm,
                                apply_output_transform)
from normform.sysmodel import SamplePlan, load_system


class TestFiveStateExample:
    def test_structure(self, out31):
        assert out31.regular
        assert out31.rho == [0, 1, 2]
        assert out31.q == [2, 3]
        assert out31.invertibility == "Invertible"
        assert (out31.m_d, out31.n_d, out31.k_star) == (2, 5, 3)

    def test_step_records(self, out31):
        s1, s2, s3 = out31.steps
        # step 1: no new independent rows
        assert s1.R.shape == (0, 2)
        assert np.array_equal(s1.S, np.eye(2))
        assert s1.theta == [parse("x3"), parse("x5")]
        # step 2: first row pivots
        assert s2.R.tolist() == [[1.0, 0.0]]
        assert s2.S.tolist() == [[0.0, 1.0]]
        assert s2.theta == [parse("x4 - x1*x4")]
        assert s2.P_blocks[2].rows == [[parse("x4")]]
        # step 3 completes the structure
        assert s3.rho == 2

    def test_feedback_rows(self, out31):
        assert out31.a == [parse("x1"), parse("x1*x2 - x3*x4 - x1^2*x2")]
        assert out31.b.rows == [[parse("1"), parse("x3")],
                                [parse("0"), parse("1 - x1")]]

    def test_seed_change_invariance(self, ex31):
        alt = infinite_zero_algorithm(ex31, SamplePlan(count=40, seed=1234))
        assert alt.regular and alt.q == [2, 3]
        assert alt.invertibility == "Invertible"

    def test_seed_change_all_regular_examples(self, ex32, ex33, ex34):
        for sysm, algo, expect in (
                (ex32, infinite_zero_algorithm, ([1, 1, 1], [1], "Degenerate")),
                (ex33, zero_output_algorithm, ([1, 2], [1, 2], "Invertible")),
                (ex34, infinite_zero_algorithm, ([1], [1], "LeftInvertible"))):
            for seed in (42, 777):
                out = algo(sysm, SamplePlan(count=35, seed=seed))
                assert out.regular
                assert (out.rho, out.q, out.invertibility) == expect


class TestDegenerateExample:
    def test_structure(self, out32):
        assert out32.regular
        assert out32.rho == [1, 1, 1]
        assert out32.q == [1]
        assert out32.invertibility == "Degenerate"

    def test_theta_history(self, out32):
        assert out32.steps[0].theta == [parse("x2*x4")]
        assert out32.steps[1].theta == [parse("x2*x4^2")]
        assert out32.steps[1].P_blocks[1].rows == [[parse("x2")]]
        assert out32.steps[2].P_blocks[1].rows == [[parse("2*x2*x4")]]

    def test_selection(self, out32):
        assert out32.steps[0].R.tolist() == [[0.0, 1.0]]
        assert out32.steps[0].S.tolist() == [[1.0, 0.0]]


def test_vehicle_example(ex34):
    out = infinite_zero_algorithm(ex34, SamplePlan(count=30))
    assert out.regular
    assert out.invertibility == "LeftInvertible"
    assert out.q == [1] * ex34.m


def test_classification_table():
    assert classify_invertibility(2, 2, 2) == "Invertible"
    assert classify_invertibility(1, 1, 2) == "LeftInvertible"
    assert classify_invertibility(2, 3, 2) == "RightInvertible"
    assert classify_invertibility(1, 2, 2) == "Degenerate"


class TestZeroOutput:
    def test_example_structure(self, out33):
        assert out33.regular
        assert out33.rho == [1, 2]
        assert out33.q == [1, 2]
        assert out33.invertibility == "Invertible"

    def test_residual_matrix(self, out33):
        W1 = out33.W[1]
        assert W1.rows == [[parse("0"), parse("x2 - x1^2")]]

    def test_theta(self, out33):
        assert out33.steps[0].theta == [parse("x4 - x1*x3")]
        assert out33.steps[0].P_blocks[1].rows == [[parse("x1")]]

    def test_sigma_feedthrough(self, out33):
        assert (2, 1) in out33.sigma
        row = out33.sigma[(2, 1)]
        assert row == [parse("0"), parse("x2 - x1^2")]

    def test_user_step_points_override(self, ex33):
        pts = {1: [np.array([0.0, 0.0, 0.3, 0.1])],
               2: [np.array([0.0, 0.0, 0.2, 0.0])]}
        out = zero_output_algorithm(ex33, SamplePlan(count=10),
                                    step_points=pts)
        assert out.regular and out.q == [1, 2]
        assert len(out.step_points[1]) == 2  # origin prepended

    def test_projected_points_on_zero_set(self, ex33, out33):
        pts = out33.step_points[2]
        assert len(pts) > 3
        for p in pts[1:]:
            env = dict(zip(ex33.states, p))
            assert abs(env["x1"]) < 1e-4 and abs(env["x2"]) < 1e-4

    def test_agrees_with_infinite_zero_when_regular(self, ex31, out31):
        zo = zero_output_algorithm(ex31, SamplePlan(count=40))
        assert zo.regular
        assert (zo.rho, zo.q, zo.invertibility) == \
            (out31.rho, out31.q, out31.invertibility)


class TestRemarkSystem:
    def test_infinite_zero_not_regular(self, systems_dir):
        sysm = load_system(systems_dir / "remark_nonregular.sys")
        out = infinite_zero_algorithm(sysm, SamplePlan(count=30))
        assert not out.regular
        assert out.failure_step == 1
        assert "rank not constant" in out.failure_reason

    def test_zero_output_regular_at_origin(self, systems_dir):
        sysm = load_system(systems_dir / "remark_nonregular.sys")
        out = zero_output_algorithm(sysm, SamplePlan(count=30))
        assert out.regular
        # the stop rule ends the loop once k + n_d reaches n, so the rank
        # sequence is the single entry 1 and the chain list is {1}
        assert out.rho[0] == 1 and out.q == [1]


def test_rs_choice_invariance_via_row_permutation(ex31):
    # a different admissible R/S selection is induced by permuting the
    # outputs; the structure lists must not change
    perm = apply_output_transform(ex31, np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = infinite_zero_algorithm(perm, SamplePlan(count=40))
    assert out.regular and out.q == [2, 3]
    assert out.invertibility == "Invertible"


def test_select_RS_falls_back_when_base_choice_fails_elsewhere():
    # row 0 is picked at the base sample but vanishes at the second one
    theta = [np.eye(2), np.array([[0.0, 0.0], [0.0, 1.0]])]
    omega = np.zeros((2, 0, 2))
    for vals in (theta, np.array(theta)):
        R, S = select_RS(omega, vals, 1, 1e-8)
        assert R.tolist() == [[0.0, 1.0]] and S.tolist() == [[1.0, 0.0]]
    assert select_RS(omega, theta, 2, 1e-8) is None


@pytest.mark.parametrize("entry, warned", [("0", None), ("x1^-1", "inf"),
                                           ("sqrt(x1)", "nan"), ("x1", "1.00e+00")])
def test_residual_warning_at_first_bad_sample(entry, warned):
    out = StructureOutcome(None, "infinite-zero", [], 1e-8)
    pts = [np.zeros(1), np.array([-1.0]), np.array([0.5])]
    _assert_zero_matrix(SymMatrix([[parse(entry)]]), ["x1"], pts, 1e-8, out, 2)
    if warned is None:
        assert out.warnings == []
    else:
        assert out.warnings == [f"step 2: elimination residual not numerically "
                                f"zero (max {warned}); rank hypothesis may be "
                                "marginal"]


def test_counter3_affine_matches_linear():
    sysm = counter3_affine()
    out = infinite_zero_algorithm(sysm, SamplePlan(count=30))
    assert out.regular
    assert out.q == [1, 4]
    assert out.invertibility == "Invertible"


@pytest.mark.slow
class TestInvarianceHarness:
    def check(self, system, n_trials=20):
        res = invariance_harness(system, n_trials=n_trials, seed=7,
                                 plan=SamplePlan(count=25))
        base = res["baseline"]
        for kind, qs in res["trials"].items():
            for q in qs:
                assert q == base, f"{kind} changed q: {q} vs {base}"

    def test_five_state(self, ex31):
        self.check(ex31, n_trials=6)

    def test_degenerate(self, ex32):
        self.check(ex32, n_trials=6)

    def test_counter3(self):
        self.check(counter3_affine(), n_trials=6)


def test_report_text_mentions_q(out31):
    text = out31.report_text()
    assert "q = {2, 3}" in text
    d = out31.report_dict()
    assert d["q"] == [2, 3] and d["regular"]


def _random_regular_system(rng, n, m):
    """Random observable linear system with a mild polynomial perturbation
    that keeps f(0)=0 and regularity (constant ranks) on the box."""
    from normform.expr import Var, const
    from normform.sysmodel import AffineSystem
    while True:
        A = rng.integers(-1, 2, size=(n, n))
        B = rng.integers(-1, 2, size=(n, m))
        C = rng.integers(-1, 2, size=(m, n))
        from normform.linstruct import LinearTriple, linear_infinite_zeros
        try:
            out = linear_infinite_zeros(LinearTriple(A.astype(float),
                                                     B.astype(float),
                                                     C.astype(float)))
        except RuntimeError:
            continue
        if out.invertibility != "Invertible" or out.n_d < 2:
            continue
        states = [f"x{i+1}" for i in range(n)]
        # quadratic drift perturbation on one coordinate keeps the input
        # coefficient matrices (hence all ranks) unchanged
        f = []
        for i in range(n):
            acc = const(0)
            for j2 in range(n):
                if A[i, j2]:
                    acc = acc + const(int(A[i, j2])) * Var(states[j2])
            f.append(acc)
        f[0] = f[0] + const(rng.integers(-1, 2) or 1) \
            * Var(states[0]) * Var(states[-1])
        g = [[const(int(B[i, j2])) for j2 in range(m)] for i in range(n)]
        h = []
        for i in range(m):
            acc = const(0)
            for j2 in range(n):
                if C[i, j2]:
                    acc = acc + const(int(C[i, j2])) * Var(states[j2])
            h.append(acc)
        return AffineSystem(states, f, g, h), out.q


@pytest.mark.slow
def test_fuzz_normal_form_identity():
    """Seeded fuzz: on random regular systems the assembled chain equations
    reproduce the true coordinate derivatives for random states/inputs."""
    from normform.expr import diff as ediff, evalf
    from normform.normalform import build_normal_form
    rng = np.random.default_rng(99)
    built = 0
    attempts = 0
    while built < 5 and attempts < 80:
        attempts += 1
        sysm, q_lin = _random_regular_system(rng, n=4, m=2)
        out = infinite_zero_algorithm(sysm, SamplePlan(count=25))
        if not out.regular:
            continue
        try:
            nf = build_normal_form(sysm, out)
        except Exception:
            continue
        assert nf.check_sparsity()
        states = sysm.states
        ok_runs = 0
        for _ in range(6):
            env = {s: rng.uniform(-0.4, 0.4) for s in states}
            u = rng.uniform(-1, 1, size=sysm.m)
            xdot = sysm.f.eval_at(env) + sysm.g.eval_at(env) @ u
            denv = dict(zip(states, xdot))
            vd = [evalf(nf.a[i], env)
                  + sum(evalf(nf.b[i, j2], env) * u[j2]
                        for j2 in range(sysm.m))
                  for i in range(nf.m_d)]
            for ci, chain in enumerate(nf.chains, start=1):
                for j2, coord in enumerate(chain, start=1):
                    dcoord = sum(evalf(ediff(coord, s), env) * denv[s]
                                 for s in states)
                    if j2 < len(chain):
                        rhs = evalf(chain[j2], env)
                        for l in range(1, ci):
                            rhs += evalf(nf.delta_entry(ci, j2, l), env) \
                                * vd[l - 1]
                    else:
                        rhs = vd[ci - 1]
                    assert abs(dcoord - rhs) <= 1e-8 * (1 + abs(rhs))
            ok_runs += 1
        assert ok_runs == 6
        built += 1
    assert built >= 3, f"too few regular fuzz systems built ({built})"


def test_one_input_derivative_per_step(monkeypatch, ex31, ex33):
    calls = []
    real = structure.lie_derivative_cols

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(structure, "lie_derivative_cols", counted)
    for algo, system in ((infinite_zero_algorithm, ex31),
                         (zero_output_algorithm, ex33)):
        calls.clear()
        out = algo(system, SamplePlan(count=20))
        assert out.regular and len(out.steps) > 1
        assert len(calls) == len(out.steps)


# ---------------------------------------------------------------------------
# Golden step records
# ---------------------------------------------------------------------------

GOLDEN_STEPS = Path(__file__).resolve().parent / "golden" / "structure" / "steps.json"
STEP_CASES = [(name, seed) for name in ("ex31", "ex32", "ex34", "counter3",
                                        "ex33-zero-output")
              for seed in range(3)]


def _rendered(rows):
    return [[render(e) for e in row] for row in rows]


def _step_fields(name, seed):
    """Every symbolic field of the step records and of the feedback rows
    of one run, rendered."""
    sysdir = Path(__file__).resolve().parent.parent / "systems"
    stem = name.removesuffix("-zero-output")
    system = (counter3_affine() if stem == "counter3"
              else load_system(sysdir / f"{stem}.sys"))
    algo = zero_output_algorithm if stem != name else infinite_zero_algorithm
    out = algo(system, SamplePlan(count=40, seed=seed))
    return {
        "steps": [{"rho": rec.rho, "R": rec.R.astype(int).tolist(),
                   "S": rec.S.astype(int).tolist(),
                   "theta": [render(e) for e in rec.theta],
                   "omega": [render(e) for e in rec.omega],
                   "a": [render(e) for e in rec.a_new],
                   "b": _rendered(rec.b_new.rows),
                   "P": {str(l): _rendered(blk.rows)
                         for l, blk in sorted(rec.P_blocks.items())}}
                  for rec in out.steps],
        "W": {str(k): _rendered(w.rows) for k, w in sorted(out.W.items())},
        "a": [render(e) for e in out.a],
        "b": _rendered(out.b.rows),
    }


@pytest.mark.parametrize("name,seed", STEP_CASES,
                         ids=[f"{n}-{s}" for n, s in STEP_CASES])
def test_step_records_golden(name, seed):
    want = json.loads(GOLDEN_STEPS.read_text())[f"{name}/{seed}"]
    assert _step_fields(name, seed) == want


if __name__ == "__main__":
    GOLDEN_STEPS.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_STEPS.write_text(json.dumps(
        {f"{n}/{s}": _step_fields(n, s) for n, s in STEP_CASES}, indent=1) + "\n")
    sys.exit(0)

