"""Simulation harness: integrator order, determinism, monitors, CSV."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normform.backstep import ChainSystem, Stabilizer, synthesize
from normform.expr import (Const, Func, Pow, Var, _kernel_source,
                           backends_agree, compile_exprs, compile_exprs_scalar,
                           parse, simplify)
from normform.simkit import (SCALAR_RUNS, Signal, SimConfig,
                             batch_simulate, l2_gain_check, lyapunov_monitor,
                             noise_signal, simulate, step_signal,
                             trace_to_csv, zero_signal)


def test_rk4_order_on_exponential():
    errs = []
    for dt in (0.02, 0.01):
        tr = simulate([parse("-x1")], ["x1"], [1.0],
                      SimConfig(dt=dt, horizon=1.0))
        errs.append(abs(tr.final_state()[0] - np.exp(-1.0)))
    factor = errs[0] / errs[1]
    assert 12.0 <= factor <= 20.0


def test_euler_available():
    tr = simulate([parse("-x1")], ["x1"], [1.0],
                  SimConfig(dt=1e-3, horizon=1.0, integrator="euler"))
    assert tr.final_state()[0] == pytest.approx(np.exp(-1.0), rel=1e-3)


def test_equilibrium_trace_identically_zero():
    tr = simulate([parse("-x1 + x2"), parse("-x2")], ["x1", "x2"],
                  [0.0, 0.0], SimConfig(dt=1e-2, horizon=1.0))
    assert np.all(tr.x == 0.0)


def test_determinism_bit_identical():
    sig = noise_signal(seed=5, horizon=1.0)
    a = simulate([parse("-x1 + w")], ["x1"], [0.3],
                 SimConfig(dt=1e-3, horizon=1.0), w_signal=sig)
    b = simulate([parse("-x1 + w")], ["x1"], [0.3],
                 SimConfig(dt=1e-3, horizon=1.0),
                 w_signal=noise_signal(seed=5, horizon=1.0))
    assert np.array_equal(a.x, b.x)


def test_divergence_flag_and_truncation():
    tr = simulate([parse("x1^2")], ["x1"], [2.0],
                  SimConfig(dt=1e-3, horizon=5.0))
    assert tr.diverged
    assert tr.t[-1] < 5.0


def test_nan_state_ends_the_run_in_both_paths():
    # x1 falls through 0, where sqrt turns the state into nan
    rhs = [parse("sqrt(x1) - 1")]
    cfg = SimConfig(dt=1e-2, horizon=3.0)
    one = simulate(rhs, ["x1"], [0.5], cfg)
    both = simulate(rhs, ["x1"], [[0.5], [0.5]], cfg)
    assert one.diverged and list(both.diverged_runs) == [True, True]
    assert one.t[-1] < 3.0 and np.isnan(one.x[-1, 0, 0])
    assert np.array_equal(one.t, both.t)
    assert np.array_equal(one.x[:, 0], both.x[:, 1], equal_nan=True)


def test_nonfinite_initial_rejected():
    with pytest.raises(ValueError):
        simulate([parse("1/x1")], ["x1"], [0.0], SimConfig(dt=1e-3, horizon=0.1))


def test_lyapunov_monitor_exponential():
    # V = x^2 along x' = -x decays as V(0) e^{-2t}
    tr = simulate([parse("-x1")], ["x1"], [1.5],
                  SimConfig(dt=1e-3, horizon=2.0), V_expr=parse("x1^2"))
    mon = lyapunov_monitor(tr)
    assert mon["max_increase"] <= 0.0
    expect = 1.5 ** 2 * np.exp(-2 * tr.t[-1])
    assert mon["V"][-1] == pytest.approx(expect, rel=1e-6)


def test_linear_level_design_matches_exponential_rate():
    cs = ChainSystem(q=[2, 2], eta_names=["eta1"],
                     eta_dot=[parse("eta1 + xi1_1 + xi2_1")])
    stab = Stabilizer([parse("-eta1"), parse("-eta1")], parse("eta1^2/2"))
    law = synthesize(cs, "xi1_1,xi2_1,xi1_2,xi2_2", stab)
    tr = simulate(law.closed_loop_rhs(), cs.state_names(),
                  [0.4, -0.2, 0.3, 0.1, -0.3],
                  SimConfig(dt=1e-3, horizon=4.0), V_expr=law.W)
    V = tr.V[:, 0]
    expect = V[0] * np.exp(-2 * tr.t)
    rel = np.max(np.abs(V - expect) / np.maximum(expect, 1e-300))
    assert rel < 1e-6


def test_energy_integrals_nondecreasing():
    tr = simulate([parse("-x1 + w")], ["x1"], [1.0],
                  SimConfig(dt=1e-3, horizon=2.0),
                  w_signal=step_signal(1.0), output_exprs=[parse("x1")])
    assert np.all(np.diff(tr.int_y2[:, 0]) >= -1e-15)
    assert np.all(np.diff(tr.int_w2[:, 0]) >= -1e-15)


def test_l2_gain_trivial_zero_disturbance():
    tr = simulate([parse("-x1")], ["x1"], [0.0],
                  SimConfig(dt=1e-3, horizon=1.0),
                  w_signal=zero_signal(), output_exprs=[parse("x1")])
    res = l2_gain_check(tr, gamma=0.5, V0=0.1)
    assert res["pass"] and res["lhs"] == 0.0


def test_csv_format():
    tr = simulate([parse("-x1")], ["x1"], [1.0],
                  SimConfig(dt=0.25, horizon=0.5), V_expr=parse("x1^2"),
                  output_exprs=[parse("x1")])
    csv = trace_to_csv(tr)
    lines = csv.strip().splitlines()
    assert lines[0] == "t,x1,y1,V,intY2,intW2"
    assert len(lines) == 4
    val = lines[1].split(",")[1]
    assert len(val.replace(".", "").replace("-", "")) <= 13


def test_batch_deterministic_and_envelopes():
    cs = ChainSystem(q=[2, 2], eta_names=["eta1"],
                     eta_dot=[parse("eta1 + xi1_1 + xi2_1")])
    stab = Stabilizer([parse("-eta1"), parse("-eta1")], parse("eta1^2/2"))
    law = synthesize(cs, "xi1_1,xi1_2,xi2_1,xi2_2", stab)
    rhs = law.closed_loop_rhs()
    box = [(-1, 1)] * 5
    a = batch_simulate(rhs, cs.state_names(), box, nruns=50, master_seed=3,
                       cfg=SimConfig(dt=5e-3, horizon=5.0))
    b = batch_simulate(rhs, cs.state_names(), box, nruns=50, master_seed=3,
                       cfg=SimConfig(dt=5e-3, horizon=5.0))
    assert np.array_equal(a["endpoint_norms"], b["endpoint_norms"])
    assert a["envelope_min"].shape == a["envelope_max"].shape
    assert np.all(a["envelope_min"] <= a["envelope_max"])
    assert a["median_endpoint"] < 0.1


def test_batch_and_scalar_paths_agree():
    rhs = [parse("-x1 + 1/2*x2"), parse("-x2")]
    x0 = [0.7, -0.4]
    single = simulate(rhs, ["x1", "x2"], x0, SimConfig(dt=1e-2, horizon=1.0))
    batch = simulate(rhs, ["x1", "x2"], [x0, [0.0, 0.0]],
                     SimConfig(dt=1e-2, horizon=1.0))
    assert np.array_equal(single.x[:, 0], batch.x[:, 0])


# ---------------------------------------------------------------------------
# Batch integrator: bit identity with the column-layout loop, per-run
# divergence
# ---------------------------------------------------------------------------

def _reference_batch(rhs_exprs, names, x0, cfg, w_signal, input_exprs=(),
                     output_exprs=(), V_expr=None):
    """The batch loop as it stood before the run-major rewrite: (nruns, n)
    columns, per-step broadcast_to/stack, per-step channels, whole-batch
    truncation.  Kept as the reference for bit identity."""
    from normform.expr import compile_exprs, simplify

    def comp(exprs):
        return compile_exprs([simplify(e) for e in exprs], list(names) + ["w"])

    n = len(names)
    x0 = np.asarray(x0, dtype=float)
    nruns = x0.shape[0]
    f = comp(rhs_exprs)
    fu = comp(input_exprs) if input_exprs else None
    fy = comp(output_exprs) if output_exprs else None
    fV = comp([V_expr]) if V_expr is not None else None

    def rhs(x, wv):
        args = [x[:, i] for i in range(n)] + [wv]
        with np.errstate(all="ignore"):
            out = f(args)
        return np.stack([np.broadcast_to(np.asarray(o, dtype=float), (nruns,))
                         for o in out], axis=1)

    nsteps = int(round(cfg.horizon / cfg.dt))
    ts = np.empty(nsteps + 1)
    xs = np.empty((nsteps + 1, nruns, n))
    ws = np.empty((nsteps + 1, nruns))
    ts[0] = 0.0
    xs[0] = x0
    ws[0] = w_signal(0.0)
    dt = cfg.dt
    last = nsteps
    for k in range(nsteps):
        t = k * dt
        x = xs[k]
        if cfg.integrator == "euler":
            xn = x + dt * rhs(x, w_signal(t))
        else:
            w1 = w_signal(t)
            w2 = w_signal(t + dt / 2)
            w4 = w_signal(t + dt)
            k1 = rhs(x, w1)
            k2 = rhs(x + dt / 2 * k1, w2)
            k3 = rhs(x + dt / 2 * k2, w2)
            k4 = rhs(x + dt * k3, w4)
            xn = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        ts[k + 1] = t + dt
        xs[k + 1] = xn
        ws[k + 1] = w_signal(t + dt)
        if not np.all(np.isfinite(xn)) or \
                np.max(np.linalg.norm(xn, axis=1)) > 1e8:
            last = k + 1
            break
    ts, xs, ws = ts[:last + 1], xs[:last + 1], ws[:last + 1]

    def channel(fn, width):
        if fn is None or width == 0:
            return np.zeros((len(ts), nruns, 0))
        out = np.empty((len(ts), nruns, width))
        for k in range(len(ts)):
            args = [xs[k][:, i] for i in range(n)] + [ws[k]]
            with np.errstate(all="ignore"):
                vals = fn(args)
            out[k] = np.stack([np.broadcast_to(np.asarray(v, dtype=float), (nruns,))
                               for v in vals], axis=1)
        return out

    ys = channel(fy, len(output_exprs))
    return {"t": ts, "x": xs, "w": ws, "u": channel(fu, len(input_exprs)),
            "y": ys, "V": channel(fV, 1)[:, :, 0] if fV is not None else None,
            "int_y2": (_trapezoid(ts, np.sum(ys * ys, axis=2))
                       if len(output_exprs) else None),
            "int_w2": _trapezoid(ts, ws * ws)}


def _trapezoid(ts, vals):
    out = np.zeros_like(vals)
    out[1:] = np.cumsum(0.5 * np.diff(ts)[:, None] * (vals[1:] + vals[:-1]),
                        axis=0)
    return out


def _assert_traces_equal(ref, tr):
    for name in ("t", "x", "w", "u", "y", "V", "int_y2", "int_w2"):
        want, got = ref[name], getattr(tr, name)
        if want is None:
            assert got is None, name
        else:
            # bit for bit: nan is equal to nan, -0.0 differs from 0.0
            assert want.shape == got.shape, name
            assert want.tobytes() == got.tobytes(), name


def _loop(systems_dir, fixture, order, gains=None):
    from normform.backstep import load_chain_system, parse_kappa
    cs, stab = load_chain_system(systems_dir / fixture)
    law = synthesize(cs, parse_kappa(order), stab, gains=gains)
    return law, cs.state_names()


def test_batch_bit_identical_to_column_loop_mixed(systems_dir):
    law, names = _loop(systems_dir, "nf_mixed.nf",
                       "xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4",
                       gains={"xi1_1": 0, "xi3_1": 0, "xi2_1": 0})
    rhs = law.closed_loop_rhs()
    rhs[0] = rhs[0] + parse("w/10")
    x0 = np.random.default_rng(7).uniform(-1, 1, size=(3, len(names)))
    cfg = SimConfig(dt=2e-3, horizon=0.6)
    kw = dict(input_exprs=law.v, output_exprs=[parse("xi1_1"), parse("eta1*w")],
              V_expr=law.W)
    ref = _reference_batch(rhs, names, x0, cfg,
                           noise_signal(11, horizon=1.0, nruns=3), **kw)
    tr = simulate(rhs, names, x0, cfg,
                  w_signal=noise_signal(11, horizon=1.0, nruns=3), **kw)
    assert len(tr.t) == 301 and not tr.diverged
    _assert_traces_equal(ref, tr)


@pytest.mark.parametrize("integrator", ["rk4", "euler"])
def test_batch_bit_identical_to_column_loop_chain(systems_dir, integrator):
    law, names = _loop(systems_dir, "nf_uchain.nf", "xi1_1,xi1_2,xi2_1,xi2_2")
    x0 = np.random.default_rng(3).uniform(-1, 1, size=(2, len(names)))
    cfg = SimConfig(dt=2e-3, horizon=1.0, integrator=integrator)
    ref = _reference_batch(law.closed_loop_rhs(), names, x0, cfg,
                           step_signal(0.5))
    tr = simulate(law.closed_loop_rhs(), names, x0, cfg,
                  w_signal=step_signal(0.5))
    _assert_traces_equal(ref, tr)


def test_batch_rows_independent_of_batch_size():
    rhs = [parse("-x1 + x2^2 - x1*x2"), parse("-x2^3 + 1/2*x1 + w")]
    x0 = np.random.default_rng(5).uniform(-1, 1, size=(200, 2))
    cfg = SimConfig(dt=1e-2, horizon=1.0)
    big = simulate(rhs, ["x1", "x2"], x0, cfg, w_signal=step_signal(0.5))
    small = simulate(rhs, ["x1", "x2"], x0[:2], cfg, w_signal=step_signal(0.5))
    assert np.array_equal(big.x[:, :2], small.x)


def test_single_run_view_counts_one_run():
    tr = simulate([parse("-x1"), parse("-x2"), parse("-x3")], ["x1", "x2", "x3"],
                  [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], SimConfig(dt=1e-2, horizon=0.1))
    assert tr.nruns == 2
    one = tr.single(1)
    assert one.nruns == 1
    assert np.array_equal(one.final_state(), tr.final_state(1))


def test_batch_divergence_is_per_run():
    tr = simulate([parse("x1^2")], ["x1"], [[1.0], [-0.5]],
                  SimConfig(dt=1e-3, horizon=3.0))
    assert tr.t[-1] == pytest.approx(3.0)
    assert tr.diverged
    assert list(tr.diverged_runs) == [True, False]
    assert tr.x[-1, 1, 0] == pytest.approx(-0.5 / (1 + 0.5 * 3.0), abs=1e-9)
    # the blown-up run is frozen at its last accepted state
    frozen = tr.x[-1, 0, 0]
    assert np.isfinite(frozen) and abs(frozen) <= 1e8
    assert np.all(tr.x[-100:, 0, 0] == frozen)


def test_batch_truncated_once_every_run_diverges():
    tr = simulate([parse("x1^2")], ["x1"], [[2.0], [1.0]],
                  SimConfig(dt=1e-3, horizon=5.0))
    assert tr.diverged and list(tr.diverged_runs) == [True, True]
    assert 1.0 < tr.t[-1] < 1.1
    # run 0 froze near t = 0.5 while run 1 went on
    assert abs(tr.x[-1, 0, 0]) <= 1e8 and abs(tr.x[-2, 1, 0]) > 1e3


def test_batch_simulate_reports_diverged_runs():
    res = batch_simulate([parse("x1^2")], ["x1"], [(-1.0, 1.0)], nruns=20,
                         master_seed=4, cfg=SimConfig(dt=1e-2, horizon=3.0))
    x0 = res["trace"].x[0, :, 0]
    assert res["diverged"] == bool(np.any(x0 > 1 / 3))
    assert np.array_equal(res["diverged_runs"], x0 > 1 / 3)


def test_batch_summaries_match_column_loop(systems_dir):
    # 8 states: norms of the strided final state would differ in the last bit
    law, names = _loop(systems_dir, "nf_mixed.nf",
                       "xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4",
                       gains={"xi1_1": 0, "xi3_1": 0, "xi2_1": 0})
    cfg = SimConfig(dt=2e-3, horizon=0.4)
    res = batch_simulate(law.closed_loop_rhs(), names, [(-1.0, 1.0)] * 8,
                         nruns=300, master_seed=2, cfg=cfg)
    x0 = np.random.default_rng(2).uniform(-1.0, 1.0, size=(300, 8))
    ref = _reference_batch(law.closed_loop_rhs(), names, x0, cfg,
                           zero_signal())
    assert np.array_equal(res["trace"].x, ref["x"])
    assert np.array_equal(res["endpoint_norms"],
                          np.linalg.norm(ref["x"][-1], axis=1))
    assert np.array_equal(res["envelope_min"], ref["x"].min(axis=1))
    assert np.array_equal(res["envelope_max"], ref["x"].max(axis=1))


# ---------------------------------------------------------------------------
# Exact kernels: a batch of fewer than SCALAR_RUNS runs integrates run by
# run on floats and gives the bits of the numpy loop
# ---------------------------------------------------------------------------

@st.composite
def exact_exprs(draw):
    """Raw trees over +, *, squares, sqrt and abs."""
    def rec(d):
        if d == 0:
            kind = draw(st.integers(0, 2))
            if kind == 0:
                return Const(Fraction(draw(st.integers(-3, 3))))
            if kind == 1:
                return Const(draw(st.sampled_from((0.5, -1.25, 0.1, 1e-5, 3e7))))
            return Var(draw(st.sampled_from(("x1", "x2", "x3"))))
        k = draw(st.integers(0, 3))
        if k == 0:
            return rec(d - 1) + rec(d - 1)
        if k == 1:
            return rec(d - 1) * rec(d - 1)
        if k == 2:
            return Pow(rec(d - 1), 2)
        return Func(draw(st.sampled_from(("sqrt", "abs"))), rec(d - 1))

    return [rec(draw(st.integers(0, 5))) for _ in range(draw(st.integers(1, 3)))]


def _bits(values, shape):
    """The bit patterns of the values; IEEE 754 leaves the sign and payload
    of a nan open, so every nan reads as one."""
    v = np.broadcast_to(np.asarray(values, dtype=float), shape)
    return np.where(np.isnan(v), np.nan, v).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(exact_exprs(), st.integers(0, 3))
def test_backends_agree_bit_for_bit(exprs, seed):
    names = ["x1", "x2", "x3"]
    assert backends_agree(exprs) and "**" not in _kernel_source(exprs, names)
    pts = np.random.default_rng(seed).uniform(-3, 3, size=(3, 24))
    # signed zeros, infinities, nan, overflow and underflow in products
    pts[:, :8] = [[0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e-200, 0.0],
                  [-0.0, 0.0, 0.0, 1.0, 2.0, -1e160, 1e-170, math.inf],
                  [1.0, -0.0, -math.inf, math.nan, 0.0, 3e155, -0.5, -1e-320]]
    with np.errstate(all="ignore"):
        want = [_bits(v, (24,)) for v in compile_exprs(exprs, names)(list(pts))]
    scalar = compile_exprs_scalar(exprs, names)
    got = np.array([scalar(p) for p in pts.T.tolist()], dtype=float).T
    for a, b in zip(want, got):
        assert np.array_equal(a, _bits(b, (24,)))


@pytest.mark.parametrize("text,token", [
    ("x1^3", "**3"), ("1/x1", "**(-1.0)"), ("exp(x1)", "_exp("),
    ("sin(x1)", "_sin("), ("cos(x1)", "_cos("), ("sign(x1)", "_sign(")])
def test_backends_agree_rejects_pow_and_transcendental_kernels(text, token):
    exprs = [parse(text) + parse("sqrt(abs(x2))^2")]
    assert token in _kernel_source(exprs, ["x1", "x2"])
    assert not backends_agree(exprs)


def test_backends_agree_on_the_closed_loops(systems_dir):
    for fixture, order, gains in [
            ("nf_uchain.nf", "xi1_1,xi1_2,xi2_1,xi2_2", None),
            ("nf_uchain.nf", "xi1_1,xi2_1,xi1_2,xi2_2", None),
            ("nf_mixed.nf", "xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4",
             {"xi1_1": 0, "xi3_1": 0, "xi2_1": 0})]:
        law, names = _loop(systems_dir, fixture, order, gains)
        assert backends_agree([simplify(e) for e in law.closed_loop_rhs()])
    assert backends_agree([parse("sqrt(x1) - 1e-05*abs(x1)^2")])


@pytest.mark.parametrize("nruns", [2, SCALAR_RUNS])
def test_batch_signal_needs_one_value_or_one_per_run(nruns):
    wrong = Signal(lambda t: np.zeros(3))
    with pytest.raises(ValueError):
        simulate([parse("-x1 + w")], ["x1"], [[0.1]] * nruns,
                 SimConfig(dt=1e-2, horizon=0.1), w_signal=wrong)


def _tiled_case(systems_dir, key):
    if not key.startswith("mixed"):
        x0 = {"x1^2-mixed": [[1.0], [-0.5]], "x1^2-all": [[2.0], [1.0]]}[key]
        return ([parse("x1^2")], ["x1"], np.array(x0), step_signal(2.0),
                dict(input_exprs=[parse("-x1")], output_exprs=[parse("x1^2 + w")],
                     V_expr=parse("x1^2/2")), SimConfig(dt=1e-3, horizon=3.0))
    law, names = _loop(systems_dir, "nf_mixed.nf",
                       "xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4",
                       gains={"xi1_1": 0, "xi3_1": 0, "xi2_1": 0})
    rhs = law.closed_loop_rhs()
    rhs[0] = rhs[0] + parse("w/10")
    x0 = np.random.default_rng(7).uniform(-1, 1, size=(3, len(names)))
    if key == "mixed-one":
        x0 = x0[:1]
    return (rhs, names, x0, noise_signal(11, horizon=1.0, nruns=len(x0)),
            dict(input_exprs=law.v, output_exprs=[parse("xi1_1"), parse("eta1*w")],
                 V_expr=law.W), SimConfig(dt=2e-3, horizon=0.6))


@pytest.mark.parametrize("key", ["x1^2-mixed", "x1^2-all", "mixed", "mixed-one"])
def test_small_batch_equals_its_rows_of_a_tiled_batch(systems_dir, key):
    rhs, names, x0, signal, kw, cfg = _tiled_case(systems_dir, key)
    k = len(x0)
    reps = SCALAR_RUNS // k + 1
    assert k < SCALAR_RUNS <= k * reps
    assert backends_agree([simplify(e) for e in rhs])
    small = simulate(rhs, names, x0, cfg, w_signal=signal, **kw)
    tiled = Signal(lambda t: np.tile(np.broadcast_to(signal.fn(t), k), reps))
    big = simulate(rhs, names, np.tile(x0, (reps, 1)), cfg, w_signal=tiled, **kw)
    assert small.t.tobytes() == big.t.tobytes()
    for name in ("x", "w", "u", "y", "V", "diverged_runs"):
        want = getattr(big, name)[:, :k] if name != "diverged_runs" \
            else big.diverged_runs[:k]
        assert np.ascontiguousarray(want).tobytes() == \
            np.ascontiguousarray(getattr(small, name)).tobytes(), name
    assert small.diverged == (not key.startswith("mixed"))


# ---------------------------------------------------------------------------
# Single-run path: bit identity with the per-row numpy channels and the
# per-value CSV writer
# ---------------------------------------------------------------------------

def _reference_scalar(rhs_exprs, names, x0, cfg, w_signal, input_exprs,
                      output_exprs, V_expr):
    """The single-run loop as it stood before its channels moved onto the
    step loop's lists: a per-step np.isfinite test, and channels evaluated
    step by step on one-run numpy arrays, as `_reference_batch` does.  Kept
    as the reference for bit identity."""
    from normform.expr import compile_exprs, compile_exprs_scalar, simplify

    def comp(exprs, compiler=compile_exprs_scalar):
        return compiler([simplify(e) for e in exprs], names + ["w"])

    f = comp(rhs_exprs)

    def wval(t):
        v = w_signal.fn(t)
        return float(v if np.isscalar(v) else np.asarray(v).ravel()[0])

    x = [float(v) for v in x0]
    nsteps = int(round(cfg.horizon / cfg.dt))
    dt = cfg.dt
    ts, xs, wsv = [0.0], [list(x)], [wval(0.0)]
    for k in range(nsteps):
        t = k * dt
        try:
            if cfg.integrator == "euler":
                k1 = f(list(x) + [wval(t)])
                xn = [xi + dt * ki for xi, ki in zip(x, k1)]
            else:
                w1, w2, w4 = wval(t), wval(t + dt / 2), wval(t + dt)
                k1 = f(list(x) + [w1])
                k2 = f([xi + dt / 2 * ki for xi, ki in zip(x, k1)] + [w2])
                k3 = f([xi + dt / 2 * ki for xi, ki in zip(x, k2)] + [w2])
                k4 = f([xi + dt * ki for xi, ki in zip(x, k3)] + [w4])
                xn = [xi + dt / 6 * (a + 2 * b + 2 * c + d)
                      for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        except (ZeroDivisionError, ValueError, OverflowError):
            break
        ts.append(t + dt)
        xs.append(xn)
        wsv.append(wval(t + dt))
        x = xn
        if not all(np.isfinite(xn)) or sum(v * v for v in xn) > 1e16:
            break
    ts = np.asarray(ts)
    xs = np.asarray(xs)[:, None, :]
    ws = np.asarray(wsv)[:, None]

    def channel(exprs):
        width = len(exprs)
        if width == 0:
            return np.zeros((len(ts), 1, 0))
        fn = comp(exprs, compile_exprs)
        out = np.empty((len(ts), 1, width))
        for k in range(len(ts)):
            with np.errstate(all="ignore"):
                vals = fn([*xs[k].T, ws[k]])
            out[k] = np.stack([np.broadcast_to(np.asarray(v, dtype=float), (1,))
                               for v in vals], axis=1)
        return out

    ys = channel(output_exprs)
    return {"t": ts, "x": xs, "w": ws, "u": channel(input_exprs), "y": ys,
            "V": channel([V_expr])[:, :, 0],
            "int_y2": _trapezoid(ts, np.sum(ys * ys, axis=2)),
            "int_w2": _trapezoid(ts, ws * ws)}


def _reference_csv(trace, run=0):
    """trace_to_csv as it stood before it wrote from Python floats: one
    f-string per numpy value."""
    cols = ["t"] + trace.names + trace.input_names + trace.output_names
    cols += ["V", "intY2", "intW2"]
    lines = [",".join(cols)]
    for k in range(len(trace.t)):
        row = [trace.t[k], *trace.x[k, run], *trace.u[k, run],
               *trace.y[k, run], trace.V[k, run], trace.int_y2[k, run],
               trace.int_w2[k, run]]
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def cli_loops(tmp_path_factory, systems_dir):
    """The closed loops `normform simulate` builds from the nf_mixed and
    nf_addexam controllers that `normform backstep` writes."""
    from normform.backstep import ControlLaw, load_chain_system, loads_control_law
    from normform.cli import main
    from normform.expr import Var
    tmp = tmp_path_factory.mktemp("ctl")
    args = {
        "mixed": ["--kappa", "xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4",
                  "--gains", "xi1_1=0,xi3_1=0,xi2_1=0"],
        "addexam": ["--kappa", "xi2_1,xi1_1,xi2_2", "--disturbance", "0.5",
                    "--eps", "0", "--budgets", "1/12,1/12,1/12",
                    "--gains", "xi2_1=1,xi1_1=1/3,xi2_2=1"],
    }
    loops = {}
    for key, rest in args.items():
        nf = systems_dir / f"nf_{key}.nf"
        assert main(["backstep", str(nf), *rest, "--out", str(tmp / key)]) == 0
        cs, _ = load_chain_system(nf)
        v, W = loads_control_law((tmp / key).read_text())
        law = ControlLaw(cs, [], v, W, [])
        loops[key] = dict(
            rhs_exprs=law.closed_loop_rhs(with_disturbance=True),
            names=cs.state_names(), input_exprs=v, V_expr=W,
            output_exprs=[Var(cs.xi_name(i + 1, 1)) for i in range(cs.m)])
    return loops


@pytest.mark.parametrize("key,x0,signal,cfg", [
    ("mixed", [0.5, 0.2, -0.3, 0.1, 0.2, -0.1, 0.3, 0.2], zero_signal(),
     SimConfig(dt=1e-3, horizon=1.5)),
    ("mixed", [0.5, 0.2, -0.3, 0.1, 0.2, -0.1, 0.3, 0.2], noise_signal(3),
     SimConfig(dt=1e-3, horizon=0.5)),
    ("addexam", [0.0] * 4, step_signal(2.0), SimConfig(dt=1e-3, horizon=3.0)),
    ("addexam", [0.0] * 4, step_signal(2.0),
     SimConfig(dt=1e-3, horizon=3.0, integrator="euler")),
    # diverges; on its last row numpy scalars give inf where floats raise
    ("addexam", [500.0, 400.0, -300.0, 600.0], step_signal(2.0),
     SimConfig(dt=0.05, horizon=1.0)),
], ids=["mixed", "mixed-noise", "addexam", "addexam-euler", "addexam-diverging"])
def test_single_run_bit_identical_to_numpy_channels(cli_loops, key, x0, signal,
                                                    cfg):
    loop = cli_loops[key]
    ref = _reference_scalar(x0=x0, cfg=cfg, w_signal=signal, **loop)
    tr = simulate(x0=x0, cfg=cfg, w_signal=signal, state_names=loop["names"],
                  **{k: v for k, v in loop.items() if k != "names"})
    _assert_traces_equal(ref, tr)
    # as lines: a failing text compare of whole files takes minutes to diff
    assert trace_to_csv(tr).splitlines() == _reference_csv(tr).splitlines()


def test_closed_loop_evaluates_each_function_value_once(cli_loops):
    from normform.expr import _kernel_source, simplify
    loop = cli_loops["addexam"]
    src = _kernel_source([simplify(e) for e in loop["rhs_exprs"]],
                         loop["names"] + ["w"])
    # cos(xi1_1), abs(cos(xi1_1)) and abs(3*z^3 + 4*z)
    assert src.count("_cos(") == 1 and src.count("_abs(") == 2


def test_diverging_run_integrates_energy_without_warnings(cli_loops):
    # the closed loop of `normform simulate` on nf_addexam from
    # --x0 5000,4000,-3000,6000 --dt 0.05: |y|^2 overflows to inf
    import warnings
    loop = cli_loops["addexam"]
    x0 = [5000.0, 4000.0, -3000.0, 6000.0]
    cfg = SimConfig(dt=0.05, horizon=5.0)
    for start in (x0, [x0, x0]):   # the single-run and the batch path
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = simulate(x0=start, cfg=cfg, w_signal=step_signal(2.0),
                          state_names=loop["names"],
                          **{k: v for k, v in loop.items() if k != "names"})
        assert tr.diverged
        assert np.isinf(tr.int_y2[-1]).all()
