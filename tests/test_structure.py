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

from conftest import _reference_project_points, counter3_affine
from normform import structure
from normform.expr import compile_exprs, parse, render
from normform.geom import SymMatrix
from normform.structure import (StructureOutcome, _assert_zero_matrix,
                                classify_invertibility,
                                infinite_zero_algorithm, invariance_harness,
                                select_RS, zero_output_algorithm,
                                apply_output_transform)
from normform.sysmodel import SamplePlan, load_system, loads_system


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

    def test_projected_points_on_zero_set(self, ex33, out33):
        assert len(out33.step_points[2]) > 3
        lo, hi = np.transpose(ex33.box())
        for k, pts in out33.step_points.items():
            # step k projects onto the zeros of h and Theta_1 .. Theta_{k-1}
            stack = ex33.h + [t for rec in out33.steps[:k - 1] for t in rec.theta]
            fn = compile_exprs(stack, ex33.states)
            for p in pts:
                r = np.asarray(fn(list(p)), dtype=float)
                assert r @ r <= structure.PROJ_TOL
                assert np.all((lo <= p) & (p <= hi))

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


def test_output_shear_near_pole_stays_regular(ex31):
    # near a pole one row of a rank matrix blows up (singular values ~3e5
    # and ~2e-3 at one point); ranked without row equilibration that point
    # was called deficient and the system "not regular"
    sheared = apply_output_transform(ex31, np.array([[1.0, -1.0], [0.0, 1.0]]))
    out = infinite_zero_algorithm(sheared, SamplePlan(count=25, seed=11))
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
    _assert_zero_matrix(SymMatrix([[parse(entry)]]), ["x1"], pts, out, 2)
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


_CHAIN5 = """
[states]
[x1, x2, x3, x4, x5]
[f]
[x2, x3, x4, x5, -x1]
[g]
[1, x3, 0, 0, 0]
[0, 1, x4, 0, 0]
[0, 0, 1, x5, 0]
[0, 0, 0, 1, x1]
[0, 0, 0, 0, 1]
[h]
"""


@pytest.mark.parametrize("algo", [infinite_zero_algorithm,
                                  zero_output_algorithm])
def test_five_inputs_one_redundant_output(algo):
    # rho_1 = 5: the P solve inverts L_g Omega = g, a 5x5
    system = loads_system(_CHAIN5 + "[x1, x2, x3, x4, x5, x1 + x2]\n")
    out = algo(system, SamplePlan(count=10))
    assert out.regular
    assert out.q == [1, 1, 1, 1, 1]
    assert out.invertibility == "LeftInvertible"


def test_five_inputs_square_passes_assumption_D():
    # b = g is unit upper triangular, so g b^-1 = I: the chain fields are
    # constant and commute
    from normform.normalform import check_assumption_D
    system = loads_system(_CHAIN5 + "[x1, x2, x3, x4, x5]\n")
    out = zero_output_algorithm(system, SamplePlan(count=10))
    assert out.q == [1, 1, 1, 1, 1]
    assert out.invertibility == "Invertible"
    assert check_assumption_D(system, out)


def _same_points(got, want):
    """The same samples kept, each within 1e-12 of the per-point loop's,
    relative to max(1, |point|)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


def _project_both(system, samples):
    """The projection onto h = 0 and the per-point loop's, each with its own
    outcome; returns (points, warnings) of both.  The per-point loop warns
    where numpy meets an undefined value, so its warnings are silenced."""
    res = []
    for project in (structure._project_points, _reference_project_points):
        out = StructureOutcome(system, "zero-output", samples, 1e-8)
        with np.errstate(all="ignore"):
            res.append((project(system, system.h, samples, out, 1), out.warnings))
    return res


@pytest.mark.parametrize("name", ["ex31", "ex32", "ex33", "ex34",
                                  "remark_nonregular", "chain5-redundant",
                                  "chain5-square"])
def test_projection_matches_the_per_point_loop(name, systems_dir, monkeypatch):
    if name.startswith("chain5"):
        extra = ", x1 + x2" if name == "chain5-redundant" else ""
        system = loads_system(_CHAIN5 + f"[x1, x2, x3, x4, x5{extra}]\n")
    else:
        system = load_system(systems_dir / f"{name}.sys")
    real, calls = structure._project_points, []

    def checked(system, theta_stack, samples, out, k):
        got = real(system, theta_stack, samples, out, k)
        scratch = StructureOutcome(system, "zero-output", samples, 1e-8)
        _same_points(got, _reference_project_points(system, theta_stack,
                                                    samples, scratch, k))
        calls.append(k)
        return got

    monkeypatch.setattr(structure, "_project_points", checked)
    for seed in range(12):
        zero_output_algorithm(system, SamplePlan(count=200, seed=seed))
    assert len(calls) >= 12


# The zero set x2 = sqrt(x1 + 1) - 1 leaves the box (x1 <= 0.3) where
# x2 > 0.14, and a step from near x1 = -1 can land where sqrt(x1 + 1) is
# undefined.
_SQRT_OFFBOX = """
[states]
[x1, x2]
[f]
[0, 0]
[g]
[1, 0]
[0, 1]
[h]
[sqrt(x1 + 1) - 1 - x2]
[domain]
x1: [-1, 0.3]
x2: [-1, 1]
"""


def test_projection_drops_only_the_samples_that_leave_the_box():
    system = loads_system(_SQRT_OFFBOX)
    lo, hi = np.transpose(system.box())
    for seed in range(12):
        samples = [system.origin()] + SamplePlan(count=200, seed=seed).realize(system)
        (got, warned), (want, _) = _project_both(system, samples)
        _same_points(got, want)
        assert 1 < len(got) < len(samples) and warned == []
        assert all(np.all((lo <= p) & (p <= hi)) for p in got)


def test_projection_drops_samples_with_non_finite_values():
    # the residual is undefined at x1 = -2; at x1 = -1, x3 = 0 the Jacobian
    # entry x3/(2*sqrt(x1 + 1)) is 0/0, where the per-point loop's lstsq (and
    # an SVD of a stack holding that Jacobian) raises for the whole run; only
    # these two samples drop
    system = loads_system(
        "[states]\n[x1, x2, x3]\n[f]\n[0, 0, 0]\n[g]\n[1]\n[0]\n[0]\n"
        "[h]\n[sqrt(x1 + 1) - 1 - x2, x3*sqrt(x1 + 1)]\n"
        "[domain]\nx1: [-1, 0.3]\nx2: [-1, 1]\nx3: [-1, 1]\n")
    samples = [system.origin(), np.array([-1.0, 0.3, 0.0]),
               np.array([-2.0, 0.0, 0.0]), np.array([0.1, 0.1, 0.1])]
    out = StructureOutcome(system, "zero-output", samples, 1e-8)
    got = structure._project_points(system, system.h, samples, out, 1)
    _, (want, _) = _project_both(system, samples[:1] + samples[2:])
    _same_points(got, want)
    assert len(got) == 2 and out.warnings == []


@pytest.mark.parametrize("h, half_width", [
    # Gauss-Newton shrinks x1 by 8/9 a step, so samples beyond |x1| ~ 70
    # need more than the 50 steps allowed and drop
    ("x1^9", 100),
    # tanh(x1): from |x1| ~ 6 the full step is ~4e4 long, so the first
    # accepted alpha is below 1e-3, down to 2^-12
    ("(exp(2*x1) - 1)/(exp(2*x1) + 1)", 6)])
def test_projection_keeps_the_step_cap_and_the_alpha_floor(h, half_width):
    system = loads_system(f"[states]\n[x1, x2]\n[f]\n[0, 0]\n[g]\n[1, 0]\n[0, 1]\n"
                          f"[h]\n[{h}]\n[domain]\nx1: [-{half_width}, {half_width}]\n"
                          "x2: [-1, 1]\n")
    for seed in range(3):
        samples = [system.origin()] + SamplePlan(count=200, seed=seed).realize(system)
        (got, _), (want, _) = _project_both(system, samples)
        _same_points(got, want)
        assert len(got) > 150


def test_projection_failing_for_all_samples_warns():
    system = loads_system(_SQRT_OFFBOX)
    out = zero_output_algorithm(system, SamplePlan(points=[(0.3, 1.0), (0.25, 0.9),
                                                           (0.1, 0.8)]))
    assert [p.tolist() for p in out.step_points[1]] == [[0.0, 0.0]]
    assert out.warnings == ["step 1: projection onto the zero set failed for all "
                            "samples; rank hypotheses checked at x=0 only"]
    assert out.regular and out.q == [1]


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

