"""System files, validation, sampling, and the numeric rank oracle."""

import numpy as np
import pytest
from conftest import term_budget

from normform.expr import EvalError, compile_exprs, const, parse
from normform.geom import SymMatrix, VectorField
from normform.sysmodel import (AffineSystem, SamplePlan, SystemFormatError,
                               dump_system, load_system, loads_system,
                               numeric_rank, sample_domain)


def test_load_five_state_example(ex31):
    assert (ex31.n, ex31.m, ex31.p) == (5, 2, 2)
    assert ex31.domain["x1"] == (-0.9, 0.9)


def test_domain_keeps_rank_region(ex31):
    # the region requires x1 < 1; every sample satisfies it
    pts = sample_domain(SamplePlan(count=50, seed=1), ex31)
    assert all(p[0] < 1.0 for p in pts)


def test_load_exp_atoms(ex32):
    assert (ex32.n, ex32.m, ex32.p) == (4, 2, 2)
    assert "exp" in dump_system(ex32)


def test_invariant_h_at_zero():
    text = """
[states]
[x1, x2]
[f]
[x2, 0]
[g]
[0]
[1]
[h]
[x1 + 1]
"""
    with pytest.raises(SystemFormatError, match=r"h\(0\)"):
        loads_system(text)


def test_invariant_f_at_zero():
    text = """
[states]
[x1]
[f]
[x1 + 1]
[g]
[1]
[h]
[x1]
"""
    with pytest.raises(SystemFormatError, match=r"f\(0\)"):
        loads_system(text)


def test_origin_check_names_the_component_in_one_kernel(monkeypatch):
    from normform import geom
    compiled = []

    def counting(exprs, names):
        compiled.append(len(exprs))
        return compile_exprs(exprs, names)

    monkeypatch.setattr(geom, "compile_exprs", counting)
    g = [[parse("0")], [parse("1")]]
    AffineSystem(["x1", "x2"], [parse("x2"), parse("sin(x1)")], g,
                 [parse("x1"), parse("x2^2")])
    assert compiled == [4]   # f and h together
    for f, h, message in [
            (["x2", "x1 + 1"], ["x1"], "f(0)≠0: component 2 is 1 + x1 at x=0"),
            (["x2", "x1"], ["x2", "1/x1"], "h(0) is undefined: component 2 is "
             "1/x1 at x=0"),
            (["x2", "x1"], ["sqrt(x1 - 1)"], "h(0) is undefined: component 1 "
             "is sqrt(-1 + x1) at x=0")]:
        with pytest.raises(ValueError) as info:
            AffineSystem(["x1", "x2"], [parse(e) for e in f], g,
                         [parse(e) for e in h])
        assert str(info.value) == message


ORIGIN_ENTRIES = [
    # exact fractions over the states
    "x1 + 1", "1/2", "1/x1", "x1/(x1 + x2^2)", "(x1 + 2)/(x2 + 3)",
    "x1^2/(1 + x2)", "(1 + x1)/(x1*x2)", "(x1 - 1)^2 - 1 + 2*x1",
    # a float coefficient
    "0.5 + x1", "1.5/x1", "0.1*x1", "x1/(0.25 + x2)",
    # a function atom
    "exp(x1)", "exp(x1) - 1", "x1/exp(x2)", "1/(exp(x1) - 1)"]


def _origin_verdict(f, h):
    g = [[parse("0")], [parse("1")]]
    try:
        AffineSystem(["x1", "x2"], [parse(e) for e in f], g,
                     [parse(e) for e in h])
    except ValueError as exc:
        return type(exc), getattr(exc, "label", None), str(exc)
    return None


@pytest.mark.parametrize("entry", ORIGIN_ENTRIES)
def test_origin_check_from_fractions_matches_the_kernel(entry, compiles,
                                                        monkeypatch):
    # exact entries are read from their stored fractions with no compile;
    # the kernel route, forced, gives the same label and message
    from normform import sysmodel
    cases = [(["x2", entry], ["x1"]), (["x2", "x1"], ["x2", entry]),
             (["x2", "x1"], [entry, "1/x2"])]
    got = [_origin_verdict(f, h) for f, h in cases]
    exact = not any(c in entry for c in ".e")
    assert bool(compiles) is not exact
    monkeypatch.setattr(sysmodel, "_exact_fracs", lambda exprs: None)
    assert got == [_origin_verdict(f, h) for f, h in cases]
    assert compiles


@pytest.mark.parametrize("text", [
    "(x1 + x2 + 1)^3 - 2",                  # a budget-capped atom
    "(1 + x1 + x2 + x1*x2 + x2^2)/(1 + x1)"])   # a fraction over the budget
def test_origin_check_of_an_over_budget_entry_takes_the_kernel(text,
                                                              compiles):
    with term_budget(4):
        h = parse(text)
        with pytest.raises(ValueError, match=r"^h\(0\)≠0: component 2 is "):
            AffineSystem(["x1", "x2"], [parse("x2"), parse("x1")],
                         [[parse("0")], [parse("1")]], [parse("x1"), h])
    assert compiles == [["x1", "x2"]]


def test_parse_error_reports_line():
    text = "[states]\n[x1]\n[f]\n[x1*]\n[g]\n[1]\n[h]\n[x1]\n"
    with pytest.raises(SystemFormatError, match="line 4"):
        loads_system(text)


def test_unknown_state_rejected():
    text = "[states]\n[x1]\n[f]\n[x9]\n[g]\n[1]\n[h]\n[x1]\n"
    with pytest.raises(SystemFormatError, match="x9"):
        loads_system(text)


def test_field_reading_a_stray_name_rejected():
    # a VectorField holds a non-state name as a parameter; a system may not
    f = VectorField([parse("x2"), parse("eps*x2 - x1")], ["x1", "x2"])
    with pytest.raises(ValueError,
                       match=r"f references unknown variables \['eps'\]"):
        AffineSystem(["x1", "x2"], f, [[const(0)], [const(1)]], [parse("x1")])


_F2 = VectorField([parse("x2"), parse("-x1")], ["x1", "x2"])


@pytest.mark.parametrize("f, g, h, domain, message", [
    (VectorField([parse("x2")], ["x2"]), [["0"], ["1"]], ["x1"], None,
     "^f must have one component per state$"),
    (_F2, [["1"]], ["x1"], None, "^g must have one row per state$"),
    (_F2, [["0"], ["1"]], [], None, "^h must have at least one output$"),
    (_F2, [["0"], ["1"]], ["x1"], {"x2": (0.5, 1)},
     r"^domain for x2 must contain 0, got \[0.5, 1.0\]$"),
    # a field over other names would take its Lie derivatives over them
    (VectorField([parse("x2"), parse("-x1")], ["a", "b"]), [["0"], ["1"]],
     ["x1"], None, r"^f is a field over \['a', 'b'\], not over the states "
     r"\['x1', 'x2'\]$"),
])
def test_affine_system_refuses_malformed_parts(f, g, h, domain, message):
    with pytest.raises(ValueError, match=message):
        AffineSystem(["x1", "x2"], f, [[parse(e) for e in r] for r in g],
                     [parse(e) for e in h], domain)


def test_roundtrip(ex31):
    again = loads_system(dump_system(ex31))
    assert again.states == ex31.states
    assert again.f.components == ex31.f.components
    assert again.g.rows == ex31.g.rows
    assert again.h == ex31.h
    assert again.domain == ex31.domain


def test_default_domain_box():
    text = "[states]\n[x1]\n[f]\n[0]\n[g]\n[1]\n[h]\n[x1]\n"
    sysm = loads_system(text)
    assert sysm.domain["x1"] == (-1.0, 1.0)


def test_sampling_deterministic(ex31):
    a = sample_domain(SamplePlan(count=4, seed=42), ex31)
    b = sample_domain(SamplePlan(count=4, seed=42), ex31)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = sample_domain(SamplePlan(count=4, seed=43), ex31)
    assert not np.array_equal(a[0], c[0])


def test_zero_count_rejected():
    with pytest.raises(ValueError):
        SamplePlan(count=0)


def test_rank_zero_matrix(ex31):
    M = SymMatrix([[parse("0"), parse("0")], [parse("0"), parse("0")]])
    pts = sample_domain(SamplePlan(count=10, seed=2), ex31)
    rep = numeric_rank(M, pts, ex31.states)
    assert rep.constant and rep.value == 0


def test_rank_identity():
    M = SymMatrix.identity(2)
    rep = numeric_rank(M, [np.zeros(1)], ["x1"])
    assert rep.constant and rep.value == 2
    with pytest.raises(ValueError, match="^numeric_rank needs at least one point$"):
        numeric_rank(M, [], ["x1"])


def test_rank_not_constant_for_remark_system():
    # input-coefficient matrix of the system with outputs (x1, x1*x2)
    M = SymMatrix([[parse("1"), parse("0")], [parse("x2"), parse("x1")]])
    pts = [np.array([0.0, 0.5]), np.array([0.3, 0.1]), np.array([0.0, -0.2])]
    rep = numeric_rank(M, pts, ["x1", "x2"])
    assert not rep.constant
    assert rep.ranks == [1, 2, 1]
    assert repr(rep) == "RankReport(constant=False, ranks=[1, 2])"
    with pytest.raises(ValueError, match="^rank is not constant across samples$"):
        rep.value


def test_rank_invariant_under_invertible_multipliers(ex31):
    rng = np.random.default_rng(9)
    M = SymMatrix([[parse("1"), parse("x3")], [parse("x4"), parse("x3*x4")]])
    pts = sample_domain(SamplePlan(count=20, seed=3), ex31)
    base = numeric_rank(M, pts, ex31.states).ranks
    for _ in range(5):
        L = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        R = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        lm = SymMatrix.from_numpy(L) @ M @ SymMatrix.from_numpy(R)
        assert numeric_rank(lm, pts, ex31.states).ranks == base


@pytest.mark.parametrize("entry, bad", [
    ("1/x1", [0.0, 2.0]),            # undefined: division by zero
    ("sqrt(x1)", [-0.5, 2.0]),       # undefined: NaN
    ("exp(1000*x1)", [1.0, 2.0]),    # overflows to inf
])
def test_rank_raises_naming_the_non_finite_point(entry, bad):
    M = SymMatrix([[parse(entry), parse("x2")]])
    pts = [np.array([0.5, 1.0]), np.array(bad), np.array([0.25, -1.0])]
    with pytest.raises(EvalError) as info:
        numeric_rank(M, pts, ["x1", "x2"])
    assert str(info.value).endswith(f"at {np.array(bad)}")


def test_degenerate_box_rejected():
    text = "[states]\n[x1]\n[f]\n[0]\n[g]\n[1]\n[h]\n[x1]\n"
    sysm = loads_system(text)
    sysm.domain["x1"] = (0.0, 0.0)
    # domain validation happens at load; direct sampling still guards
    sysm2 = loads_system(text)
    object.__setattr__ if False else None
    sysm2.domain["x1"] = (-1.0, -1.0)
    with pytest.raises(ValueError, match="degenerate"):
        sample_domain(SamplePlan(count=3), sysm2)


def _reference_sample_domain(plan, system):
    """The per-point draw loop that sample_domain replaced, one coordinate
    per rng call.  Kept as the reference for identical points."""
    box = system.box()
    rng = np.random.default_rng(plan.seed)
    fn = compile_exprs(system.f.components + system.h
                       + [e for r in system.g.rows for e in r], system.states)
    out = []
    attempts = 0
    while len(out) < plan.count:
        attempts += 1
        if attempts > 50 * plan.count + 100:
            raise ValueError("could not draw enough finite sample points")
        pt = np.array([rng.uniform(lo, hi) for lo, hi in box])
        with np.errstate(all="ignore"):
            try:
                vals = np.asarray(fn(list(pt)), dtype=float)
            except (EvalError, ZeroDivisionError, OverflowError):
                continue
        if np.all(np.isfinite(vals)):
            out.append(pt)
    return out


def _rejecting_system():
    """Undefined (sqrt of a negative) on x1 < -1 and on x2 < -1, a pole at
    x2 = 1/2, on the box (-2, 2)^2."""
    return AffineSystem(
        ["x1", "x2"], [parse("x2"), parse("sqrt(1 + x1) - 1 - x1/2")],
        [[parse("0")], [parse("1/(x2 - 1/2) + sqrt(1 + x2)")]],
        [parse("x1")], domain={"x1": (-2.0, 2.0), "x2": (-2.0, 2.0)})


@pytest.mark.parametrize("name", ["ex31", "ex32", "ex33", "ex34",
                                  "remark_nonregular", "rejecting"])
def test_sample_domain_matches_per_point_reference(name, systems_dir):
    system = (_rejecting_system() if name == "rejecting"
              else load_system(systems_dir / f"{name}.sys"))
    for seed in range(12):
        plan = SamplePlan(count=200, seed=seed)
        pts = sample_domain(plan, system)
        assert np.array_equal(pts, _reference_sample_domain(plan, system))
        if name == "rejecting":
            assert np.min(pts) >= -1.0


def test_sample_domain_gives_up_after_its_budget():
    sysm = AffineSystem(["x1"], [parse("0")], [[parse("sqrt(-1 - x1^2)")]],
                        [parse("x1")])
    with pytest.raises(ValueError, match="could not draw enough finite"):
        sample_domain(SamplePlan(count=5), sysm)
