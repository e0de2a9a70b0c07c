"""Simulation harness: integrator order, determinism, monitors, CSV."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from normform.backstep import ChainSystem, Stabilizer, synthesize
from normform.expr import (Const, Func, Pow, Var, _kernel_source, _step_source,
                           backends_agree, compile_block_scalar, compile_exprs,
                           compile_exprs_scalar, parse, simplify)
from normform.simkit import (_BLOCK, DIVERGENCE_NORM, SCALAR_RUNS, Signal,
                             SimConfig, Trace, _float_route, _integrate,
                             _numpy_route,
                             _running_trapezoid, batch_simulate, l2_gain_check,
                             lyapunov_monitor, noise_signal, simulate,
                             step_signal, trace_to_csv, zero_signal)


def test_rk4_order_on_exponential():
    errs = []
    for dt in (0.02, 0.01):
        tr = simulate([parse("-x1")], ["x1"], [1.0],
                      SimConfig(dt=dt, horizon=1.0))
        errs.append(abs(tr.x[-1, 0, 0] - np.exp(-1.0)))
    factor = errs[0] / errs[1]
    assert 12.0 <= factor <= 20.0


def test_euler_available():
    tr = simulate([parse("-x1")], ["x1"], [1.0],
                  SimConfig(dt=1e-3, horizon=1.0, integrator="euler"))
    assert tr.x[-1, 0, 0] == pytest.approx(np.exp(-1.0), rel=1e-3)
    with pytest.raises(ValueError, match="^integrator must be rk4 or euler$"):
        SimConfig(integrator="rk2")


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


@pytest.mark.parametrize("x0", [[[1e200], [0.5]], [[0.5], [1e200]],
                                [[0.5], [0.25], [-1e300]]])
def test_every_run_of_a_small_float_batch_is_checked_at_the_start(x0):
    # x1^2 overflows to inf at 1e200; the kernel passes backends_agree, so
    # these batches run on floats
    assert len(x0) < SCALAR_RUNS and backends_agree([parse("x1^2")])
    with pytest.raises(ValueError, match="not finite at the initial state"):
        simulate([parse("x1^2")], ["x1"], x0, SimConfig(dt=1e-3, horizon=0.1))


@pytest.mark.parametrize("key", ["dt", "horizon"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_config_refuses_dt_and_horizon_not_positive_and_finite(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be positive and finite, "
                                         f"got {value}$"):
        SimConfig(**{key: value})


def test_config_refuses_a_dt_that_leaves_no_step():
    # a dt of twice the horizon or more rounds to 0 steps: a trace of x0 alone
    with pytest.raises(ValueError, match="^dt 1.0 leaves no step in horizon 0.1$"):
        SimConfig(dt=1, horizon=0.1)
    # a trace that ends before or after the horizon: t = 0.15 or 0.2
    for dt, horizon in ((0.15, 0.1), (0.2, 0.3)):
        with pytest.raises(ValueError, match=f"^horizon {horizon} is not a whole "
                                             f"number of steps of dt {dt}$"):
            SimConfig(dt=dt, horizon=horizon)


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
    bare = simulate([parse("-x1")], ["x1"], [0.0], SimConfig(dt=1e-3, horizon=1.0))
    with pytest.raises(ValueError, match="^trace carries no output channel$"):
        l2_gain_check(bare, gamma=0.5)
    with pytest.raises(ValueError, match="^trace carries no V channel$"):
        lyapunov_monitor(bare)


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


def test_numpy_route_euler_matches_single_runs(systems_dir):
    # SCALAR_RUNS + 1 runs take the numpy route, each single run the float
    # route; the chain loop's kernels agree bit for bit on both
    law, names = _loop(systems_dir, "nf_uchain.nf", "xi1_1,xi1_2,xi2_1,xi2_2")
    rhs = law.closed_loop_rhs()
    x0 = np.random.default_rng(9).uniform(-1, 1, size=(SCALAR_RUNS + 1,
                                                       len(names)))
    cfg = SimConfig(dt=2e-3, horizon=0.5, integrator="euler")
    batch = simulate(rhs, names, x0, cfg)
    assert batch.x.shape == (251, SCALAR_RUNS + 1, len(names))
    for r in range(SCALAR_RUNS + 1):
        one = simulate(rhs, names, x0[r], cfg)
        assert one.x[:, 0].tobytes() == batch.x[:, r].tobytes(), r


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
    assert np.array_equal(one.x[-1, 0], tr.x[-1, 1])


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
    # the batch keeps no full trace: simulate's, on the same x0, is compared
    assert np.array_equal(simulate(law.closed_loop_rhs(), names, x0, cfg).x,
                          ref["x"])
    assert np.array_equal(res["trace"].x, ref["x"][[0, -1]])
    assert np.array_equal(res["t"], ref["t"])
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
    """Raw trees over +, *, squares, sqrt, abs and sign."""
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
        return Func(draw(st.sampled_from(("sqrt", "abs", "sign"))), rec(d - 1))

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
    ("sin(x1)", "_sin("), ("cos(x1)", "_cos(")])
def test_backends_agree_rejects_pow_and_transcendental_kernels(text, token):
    exprs = [parse(text) + parse("sqrt(abs(x2))^2")]
    assert token in _kernel_source(exprs, ["x1", "x2"])
    assert not backends_agree(exprs)


def test_backends_agree_admits_sign_kernels():
    exprs = [parse("sign(x1)") + parse("sqrt(abs(x2))^2")]
    assert "_sign(" in _kernel_source(exprs, ["x1", "x2"])
    assert backends_agree(exprs)


def test_backends_agree_on_the_closed_loops(systems_dir):
    for fixture, order, gains in [
            ("nf_uchain.nf", "xi1_1,xi1_2,xi2_1,xi2_2", None),
            ("nf_uchain.nf", "xi1_1,xi2_1,xi1_2,xi2_2", None),
            ("nf_mixed.nf", "xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4",
             {"xi1_1": 0, "xi3_1": 0, "xi2_1": 0})]:
        law, names = _loop(systems_dir, fixture, order, gains)
        assert backends_agree([simplify(e) for e in law.closed_loop_rhs()])
    assert backends_agree([parse("sqrt(x1) - 1e-05*abs(x1)^2")])


@pytest.mark.parametrize("nruns", [1, 2, 5, SCALAR_RUNS])
def test_batch_signal_needs_one_value_or_one_per_run(nruns):
    wrong = noise_signal(1, horizon=2.0, nruns=3)
    with pytest.raises(ValueError, match=f"^the signal gives 3 values at t = 0 "
                                         f"for {nruns} runs; it must give 1 or "
                                         f"{nruns}$"):
        simulate([parse("-x1 + w")], ["x1"], [[0.1]] * nruns,
                 SimConfig(dt=1e-2, horizon=0.1), w_signal=wrong)


# the switch falls in the first block of 256 steps, and in the third
@pytest.mark.parametrize("switch", [0.05, 0.6])
@pytest.mark.parametrize("first, later", [(1, 5), (5, 1), (5, 3)])
def test_a_signal_that_changes_width_is_refused(switch, first, later):
    signal = Signal(lambda t: np.zeros(first) if t < switch else np.zeros(later))
    with pytest.raises(ValueError, match=f"^the signal gives {later} values at "
                                         f"t = {switch:g} where w\\(0\\) gave "
                                         f"{first}$"):
        simulate([parse("-x1 + w")], ["x1"], [[0.1]] * 5,
                 SimConfig(dt=1e-3, horizon=1.0), w_signal=signal)


@pytest.mark.parametrize("box, match", [
    ([(-1.0, 1.0)], "^ic_box must hold one range per state: 1 for 2 states$"),
    ([(-1.0, 1.0)] * 3, "^ic_box must hold one range per state: 3 for 2 states$"),
    ([(-1.0, 1.0), (1.0, -1.0)], r"^ic_box range of x2 is reversed: \(1.0, -1.0\)$"),
    ([(-math.inf, 1.0), (0.0, 1.0)], "^ic_box range of x1 must be finite"),
    ([(0.0, 1.0), (0.0, math.nan)], "^ic_box range of x2 must be finite"),
    ([(-1e308, 1e308), (0.0, 1.0)], "^ic_box range of x1 must be finite and of "
                                    "finite width"),
])
def test_batch_simulate_refuses_a_bad_ic_box_before_it_draws(box, match):
    with pytest.raises(ValueError, match=match):
        batch_simulate([parse("-x1"), parse("-x2")], ["x1", "x2"], box, nruns=4,
                       master_seed=1, cfg=SimConfig(dt=1e-2, horizon=0.1))


@pytest.mark.parametrize("box", [[(-1, 1), (0, 2)], [(0.5, 0.5), (-3.0, 1e-3)]])
def test_batch_simulate_draws_valid_boxes_as_numpy_does(box):
    res = batch_simulate([parse("-x1"), parse("-x2")], ["x1", "x2"], box,
                         nruns=20, master_seed=6,
                         cfg=SimConfig(dt=1e-2, horizon=0.1))
    want = np.random.default_rng(6).uniform(np.array([b[0] for b in box]),
                                            np.array([b[1] for b in box]),
                                            size=(20, 2))
    assert res["trace"].x[0].tobytes() == want.tobytes()


def test_zero_runs_are_refused_by_both_entry_points():
    cfg = SimConfig(dt=1e-2, horizon=0.1)
    match = "^a simulation needs at least one run, got 0$"
    with pytest.raises(ValueError, match=match):
        simulate([parse("-x1")], ["x1"], np.empty((0, 1)), cfg)
    with pytest.raises(ValueError, match=match):
        batch_simulate([parse("-x1")], ["x1"], [(-1.0, 1.0)], nruns=0,
                       master_seed=1, cfg=cfg)


@pytest.mark.parametrize("nruns, match", [
    (-3, "^a simulation needs at least one run, got -3$"),
    (2.5, "^nruns must be an integer, got 2.5$"),
])
def test_batch_simulate_refuses_a_bad_run_count_before_the_draw(nruns, match):
    with pytest.raises(ValueError, match=match):
        batch_simulate([parse("-x1")], ["x1"], [(-1.0, 1.0)], nruns=nruns,
                       master_seed=1, cfg=SimConfig(dt=1e-2, horizon=0.1))


def test_batch_simulate_takes_a_numpy_integer_run_count():
    cfg = SimConfig(dt=1e-2, horizon=0.1)
    runs = [batch_simulate([parse("-x1")], ["x1"], [(-1.0, 1.0)], nruns=k,
                           master_seed=3, cfg=cfg)
            for k in (5, np.int64(5))]
    assert _batch_bytes(runs[0]) == _batch_bytes(runs[1])


# ---------------------------------------------------------------------------
# The disturbance channel is stored at the signal's width

def test_a_shared_signal_is_stored_once_and_read_at_full_width():
    x0 = np.random.default_rng(8).uniform(-1, 1, size=(3 * SCALAR_RUNS, 2))
    signal = step_signal(0.3, scale=0.7)
    tr = simulate([parse("-x1 + x2"), parse("-x2 + w")], ["x1", "x2"], x0,
                  SimConfig(dt=1e-3, horizon=0.6), w_signal=signal)
    column = np.array([signal(t) for t in tr.t])
    full = np.broadcast_to(column[:, None], (len(tr.t), tr.nruns)).copy()
    assert tr.w.shape == tr.int_w2.shape == full.shape
    assert np.array_equal(tr.w, full)
    assert np.array_equal(tr.int_w2, _running_trapezoid(tr.t, full * full))
    for a in (tr.w, tr.int_w2):
        assert a.strides[1] == 0 and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    one = tr.single(5)
    assert one.w.shape == one.int_w2.shape == (len(tr.t), 1)
    assert np.array_equal(one.w[:, 0], column)
    assert np.array_equal(one.int_w2, tr.int_w2[:, 5:6])


def test_a_per_run_signal_keeps_a_full_channel():
    nruns = 3 * SCALAR_RUNS
    x0 = np.random.default_rng(8).uniform(-1, 1, size=(nruns, 2))
    tr = simulate([parse("-x1 + x2"), parse("-x2 + w")], ["x1", "x2"], x0,
                  SimConfig(dt=1e-3, horizon=0.6),
                  w_signal=noise_signal(4, horizon=1.0, nruns=nruns))
    assert tr.w.shape == tr.int_w2.shape == (len(tr.t), nruns)
    assert 0 not in tr.w.strides and 0 not in tr.int_w2.strides
    assert np.array_equal(tr.w[0], noise_signal(4, horizon=1.0, nruns=nruns)(0.0))
    assert np.array_equal(tr.int_w2, _running_trapezoid(tr.t, tr.w * tr.w))


def _cubic_batch(dt, horizon):
    """The traced peak of a 400-run batch of a 2-state loop, and the batch."""
    def run():
        return batch_simulate([parse("-x1 + x2"), parse("-x2 - x1^3")],
                              ["x1", "x2"], [(-1.0, 1.0)] * 2, nruns=400,
                              master_seed=3, cfg=SimConfig(dt=dt, horizon=horizon))
    run()   # the kernels are compiled once per process
    tracemalloc.start()
    try:
        res = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, res


def test_a_zero_signal_batch_peaks_at_its_states():
    # the states pass through a rolling buffer of _BLOCK + 1 rows; the
    # stage arrays, the (T,) times and the w column are the rest.  The
    # (T, n, nruns) states would be 12.8 MB, 7.5 times the buffer
    peak, res = _cubic_batch(1e-3, 2.0)
    buffer = (_BLOCK + 1) * 2 * 400 * 8
    assert peak <= 1.1 * (buffer + res["envelope_min"].nbytes
                          + res["envelope_max"].nbytes)


def test_a_batch_peak_does_not_grow_with_the_horizon():
    # four times the steps; only the (T, n) envelopes, the (T,) times and
    # the w column grow, by about 7% of the peak at the protocol's dt
    short, _ = _cubic_batch(2e-3, 2.0)
    long, res = _cubic_batch(2e-3, 8.0)
    assert len(res["t"]) == 4001
    assert long <= 1.1 * short


def _batch_bytes(res):
    """The bytes of every array a batch returns, and its other values."""
    tr = res["trace"]
    return ([res[k].tobytes() for k in ("t", "endpoint_norms", "envelope_min",
                                        "envelope_max", "diverged_runs")]
            + [tr.t.tobytes(), tr.x.tobytes(), tr.diverged_runs.tobytes(),
               res["median_endpoint"], res["diverged"]])


def _full_trace_summary(tr):
    """The batch's values from a full trace, as batch_simulate computed them
    before it streamed its rows."""
    norms = np.linalg.norm(np.ascontiguousarray(tr.x[-1]), axis=1)
    return {"trace": Trace(tr.t[[0, -1]], tr.x[[0, -1]], None, None, tr.names,
                           [], [], tr.diverged_runs),
            "t": tr.t, "endpoint_norms": norms,
            "median_endpoint": float(np.median(norms)),
            "envelope_min": tr.x.min(axis=1), "envelope_max": tr.x.max(axis=1),
            "diverged": tr.diverged, "diverged_runs": tr.diverged_runs}


def _assert_streamed_summary(rhs, names, box, nruns, seed, cfg):
    res = batch_simulate(rhs, names, box, nruns=nruns, master_seed=seed,
                         cfg=cfg)
    x0 = np.random.default_rng(seed).uniform(
        np.array([b[0] for b in box], dtype=float),
        np.array([b[1] for b in box], dtype=float), size=(nruns, len(names)))
    tr = simulate(rhs, names, x0, cfg)
    assert _batch_bytes(res) == _batch_bytes(_full_trace_summary(tr))
    return tr


@pytest.mark.parametrize("nruns", [1, 2, 50, 1000])
@pytest.mark.parametrize("key", ["chain", "mixed"])
def test_streamed_batch_summaries_equal_the_full_trace(systems_dir, key, nruns):
    # 300 steps: a block of 256, then one of 44
    law, names = (_loop(systems_dir, "nf_uchain.nf", "xi1_1,xi1_2,xi2_1,xi2_2")
                  if key == "chain" else
                  _loop(systems_dir, "nf_mixed.nf",
                        "xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4",
                        gains={"xi1_1": 0, "xi3_1": 0, "xi2_1": 0}))
    tr = _assert_streamed_summary(law.closed_loop_rhs(), names,
                                  [(-1.0, 1.0)] * len(names), nruns, 7,
                                  SimConfig(dt=2e-3, horizon=0.6))
    assert len(tr.t) == 301 and not tr.diverged


@pytest.mark.parametrize("nruns", [5, 300])
@pytest.mark.parametrize("box, horizon, blocks", [
    # x1' = x1^2 leaves the bound near t = 1/x1(0): in blocks 1, 2 and 3
    ((-1.0, 1.0), 6.0, {0, 1, 2}),
    # from above ~5e3 at the first step, and the negative runs stay
    ((-1e4, 1e4), 0.6, {0}),
    # every run leaves mid-block, in the second block
    ((0.25, 0.3), 6.0, {1}),
], ids=["blocks", "first-step", "all-mid-block"])
def test_streamed_batch_freezes_as_the_full_trace(box, horizon, blocks, nruns):
    # 5 runs take the float route, 300 the numpy route
    tr = _assert_streamed_summary([parse("x1^2")], ["x1"], [box], nruns, 4,
                                  SimConfig(dt=1e-2, horizon=horizon))
    x = tr.x[:, :, 0]
    left = np.flatnonzero(tr.diverged_runs)
    # each run's last distinct row: its last accepted row, frozen after it,
    # or the trace's end; 0 for a run that left at the first step
    stops = [np.flatnonzero(x[1:, r] != x[:-1, r]).max(initial=-1) + 1
             for r in left]
    if nruns == 300:
        assert {s // _BLOCK for s in stops} == blocks
        if box[0] < 0:
            assert not tr.diverged_runs.all()
        if box[1] > 1:
            assert 0 in stops
    if box[0] > 0:
        assert tr.diverged_runs.all() and len(tr.t) % _BLOCK not in (0, 1)


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


def test_a_float_kernel_that_raises_ends_a_single_run_before_that_step():
    # w drops to 0 at t = 0.5, where 1/w raises ZeroDivisionError on floats:
    # the step from t = 0.49 reads w(t + dt) = 0 in its last stage
    cfg = SimConfig(dt=0.01, horizon=1.0)
    loop = dict(rhs_exprs=[parse("-x1 + 1/w")], input_exprs=[],
                output_exprs=[parse("x1")], V_expr=parse("x1^2"))
    ref = _reference_scalar(names=["x1"], x0=[0.5], cfg=cfg,
                            w_signal=step_signal(0.5), **loop)
    tr = simulate(state_names=["x1"], x0=[0.5], cfg=cfg,
                  w_signal=step_signal(0.5), **loop)
    _assert_traces_equal(ref, tr)
    assert tr.diverged and len(tr.t) == 50


@pytest.mark.parametrize("k", [255, 256, 257])
def test_a_float_kernel_that_raises_at_a_block_edge_ends_the_run_there(k):
    # the float route steps 256 steps per call: the step that raises is the
    # last of a block, the first of the next, or the second
    cfg = SimConfig(dt=0.01, horizon=3.0)
    signal = step_signal((k + 0.5) * 0.01)
    loop = dict(rhs_exprs=[parse("-x1 + 1/w")], input_exprs=[],
                output_exprs=[parse("x1")], V_expr=parse("x1^2"))
    ref = _reference_scalar(names=["x1"], x0=[0.5], cfg=cfg, w_signal=signal,
                            **loop)
    tr = simulate(state_names=["x1"], x0=[0.5], cfg=cfg, w_signal=signal,
                  **loop)
    _assert_traces_equal(ref, tr)
    assert tr.diverged and len(tr.t) == k + 1


@pytest.mark.parametrize("x0", [
    [[2.0, 0.1], [1.0, -0.2], [0.5, 0.3]],
    [[3.0, 0.0], [-0.5, 0.1], [1.5, 0.2], [0.9, -0.1], [4.0, 0.3]],
    [[2.0, 0.0], [1.0, 0.1], [0.5, 0.0], [3.0, -0.1], [1.5, 0.0], [0.9, 0.2],
     [0.8, 0.0]],
], ids=["3-all-leave", "5-one-stays", "7-all-leave"])
def test_float_route_freezes_runs_as_the_numpy_route(x0):
    # one freeze rule for both routes: a run that leaves repeats its last
    # accepted row, and the trace ends where the last live runs leave
    rhs = [simplify(parse("x1^2 + x2*w")), simplify(parse("-x2"))]
    assert backends_agree(rhs) and len(x0) < SCALAR_RUNS
    cfg = SimConfig(dt=1e-3, horizon=3.0)
    signal = noise_signal(2, horizon=3.0, nruns=len(x0))
    (xs, ws, live), want = (
        _integrate(route, rhs, ["x1", "x2", "w"], np.array(x0), cfg, signal)
        for route in (_float_route, _numpy_route))
    assert len(xs) == len(want[0]) and list(live) == list(want[2])
    assert xs.tobytes() == want[0].tobytes() and ws.tobytes() == want[1].tobytes()
    # the runs that left did so at different steps
    moved = [np.flatnonzero((xs[1:, :, r] != xs[:-1, :, r]).any(axis=1)).max()
             for r in np.flatnonzero(~live)]
    assert len(set(moved)) == len(moved) > 2
    assert (len(xs) == 3001) == live.any()


@pytest.mark.parametrize("nruns", [2, 9])
def test_a_run_that_leaves_on_the_last_step_is_frozen_there(nruns):
    # x1' = x1^2 from 1 leaves the bound at step 101 of dt 1e-2, the last
    # step here, while the runs from -1 < x1 < 0 stay bounded
    rhs = [simplify(parse("x1^2"))]
    cfg = SimConfig(dt=1e-2, horizon=1.01)
    x0 = np.array([[1.0]] + [[-i / nruns] for i in range(1, nruns)])
    (xs, ws, live), want = (
        _integrate(route, rhs, ["x1", "w"], x0, cfg, zero_signal())
        for route in (_float_route, _numpy_route))
    assert xs.tobytes() == want[0].tobytes() and list(live) == list(want[2])
    assert len(xs) == 102 and list(live) == [False] + [True] * (nruns - 1)
    assert xs[-1, 0, 0] == xs[-2, 0, 0] < DIVERGENCE_NORM
    tr = simulate(rhs, ["x1"], x0, cfg)
    assert tr.x.tobytes() == xs.transpose(0, 2, 1).tobytes()
    assert list(tr.diverged_runs) == [True] + [False] * (nruns - 1)


def test_closed_loop_evaluates_each_function_value_once(cli_loops):
    loop = cli_loops["addexam"]
    rhs = [simplify(e) for e in loop["rhs_exprs"]]
    src = _kernel_source(rhs, loop["names"] + ["w"])
    # cos(xi1_1), abs(cos(xi1_1)) and abs(3*z^3 + 4*z)
    assert src.count("_cos(") == 1 and src.count("_abs(") == 2
    # and so once in each of the step's four stages, or its one
    src = _step_source(rhs, loop["names"] + ["w"], "rk4", 1e16)
    assert src.count("_cos(") == 4 and src.count("_abs(") == 8
    src = _step_source(rhs, loop["names"] + ["w"], "euler", 1e16)
    assert src.count("_cos(") == 1 and src.count("_abs(") == 2


@pytest.mark.parametrize("nruns", [2, 50])
def test_addexam_batch_bit_identical_to_column_loop(cli_loops, nruns):
    # a kernel with `**`, `_sin` and `_cos`, so even 2 runs take the numpy loop
    loop = cli_loops["addexam"]
    assert not backends_agree([simplify(e) for e in loop["rhs_exprs"]])
    x0 = np.random.default_rng(nruns).uniform(-1, 1, size=(nruns, 4))
    cfg = SimConfig(dt=2e-3, horizon=0.6)
    kw = {k: v for k, v in loop.items() if k != "names"}
    rhs = kw.pop("rhs_exprs")
    ref = _reference_batch(rhs, loop["names"], x0, cfg,
                           noise_signal(5, horizon=1.0, nruns=nruns), **kw)
    tr = simulate(rhs, loop["names"], x0, cfg,
                  w_signal=noise_signal(5, horizon=1.0, nruns=nruns), **kw)
    assert len(tr.t) == 301 and not tr.diverged
    _assert_traces_equal(ref, tr)


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


# ---------------------------------------------------------------------------
# The generated float step: the bits and exceptions of the stage arithmetic
# over the scalar kernel
# ---------------------------------------------------------------------------

@st.composite
def step_exprs(draw):
    """Raw trees over the two states x1, x2 and w, with every operation a
    single run may meet: powers, reciprocals, exp, sin and cos, as well as
    the operations of exact_exprs."""
    def rec(d):
        if d == 0:
            kind = draw(st.integers(0, 2))
            if kind == 0:
                return Const(Fraction(draw(st.integers(-3, 3)),
                                      draw(st.sampled_from((1, 3)))))
            if kind == 1:
                return Const(draw(st.sampled_from((0.5, -1.25, 1e-5, 3e7))))
            return Var(draw(st.sampled_from(("x1", "x2", "w"))))
        k = draw(st.integers(0, 4))
        if k == 0:
            return rec(d - 1) + rec(d - 1)
        if k == 1:
            return rec(d - 1) * rec(d - 1)
        if k == 2:
            return Pow(rec(d - 1), draw(st.sampled_from((2, 3, 7, -1, -2))))
        if k == 3:
            return 1 / rec(d - 1)
        return Func(draw(st.sampled_from(("exp", "sin", "cos", "sqrt", "abs",
                                          "sign"))), rec(d - 1))

    return [rec(draw(st.integers(0, 4))) for _ in range(2)]


def _reference_step(f, x, w1, w2, w4, dt, integrator):
    """One step as _reference_scalar takes it: the stage list
    comprehensions over the scalar kernel f."""
    if integrator == "euler":
        k1 = f(list(x) + [w1])
        return [xi + dt * ki for xi, ki in zip(x, k1)]
    k1 = f(list(x) + [w1])
    k2 = f([xi + dt / 2 * ki for xi, ki in zip(x, k1)] + [w2])
    k3 = f([xi + dt / 2 * ki for xi, ki in zip(x, k2)] + [w2])
    k4 = f([xi + dt * ki for xi, ki in zip(x, k3)] + [w4])
    return [xi + dt / 6 * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def _outcome(fn, *args):
    """The bit patterns of fn's values as _bits reads them, or the class of
    what it raised."""
    try:
        values = fn(*args)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        return type(exc)
    return _bits(values, (len(values),)).tolist()


# integer constants that int arithmetic combines exactly, and one above
# 2**53; the product of three 2**27 + 1 rounds once as an int and twice on
# floats
_INT_TREES = [[Pow(Pow(Const(3), 7), 7) * Var("x1"),
               Const(3) * Const(5) * Var("x2")],
              [Func("abs", Const(-3)) * Var("x1"),
               Const(2 ** 53 + 1) * Var("x2")],
              [Const(2 ** 27 + 1) * Const(2 ** 27 + 1) * Const(2 ** 27 + 1)
               * Var("x1"), Const(3) * Var("x2")]]


@settings(max_examples=300, deadline=None)
@example(_INT_TREES[0], "rk4", [0.3, -1.7, 2.5, 0.3, 0.3], 0.05)
@example(_INT_TREES[0], "euler", [1e-200, 2.5, 0.0, 0.0, 0.0], 0.7)
@example(_INT_TREES[1], "rk4", [-1.7, 0.3, 2.5, 0.3, 0.3], 1e-3)
@example(_INT_TREES[1], "euler", [2.5, -1.7, 0.0, 0.0, 0.0], 0.05)
@example(_INT_TREES[2], "rk4", [0.3, -1.7, 2.5, 0.3, 0.3], 1e-3)
@given(step_exprs(), st.sampled_from(("rk4", "euler")),
       st.lists(st.sampled_from((0.0, -0.0, 0.3, -1.7, 2.5, 1e-200, 1e200, -1e160,
                                 math.inf, math.nan)), min_size=5, max_size=5),
       st.sampled_from((1e-3, 0.05, 0.7)))
def test_step_equals_the_stage_arithmetic_bit_for_bit(exprs, integrator, point,
                                                      dt):
    names = ["x1", "x2", "w"]
    x, (w1, w2, w4) = point[:2], point[2:]
    want = _outcome(_reference_step, compile_exprs_scalar(exprs, names), x,
                    w1, w2, w4, dt, integrator)
    got = _outcome(_one_step(exprs, names, integrator), x, w1, w2, w4, dt)
    assert got == want


def _one_step(exprs, names, integrator):
    """One step of the block stepper, raising what its kernel raised."""
    steps = compile_block_scalar(exprs, names, integrator, 1e16)

    def step(x, w1, w2, w4, dt):
        rows, stop = steps(x, [w1], [w2], [w4], dt)
        if isinstance(stop, Exception):
            raise stop
        return list(rows[1])

    return step


def test_step_writes_float_literals_where_the_bits_stay():
    # CPython specializes float*float, not int*float; a power's base, an
    # operand next to another int and a constant past 2**53 stay ints
    exprs = [Const(2) * Var("x1") + Pow(Pow(Const(3), 7), 7) * Var("x2"),
             Const(3) * Const(5) * Var("x2") + Func("sin", Const(2)),
             Func("abs", Const(-3)) * Var("x1") + Const(2 ** 53 + 1) * Var("x2")]
    src = _step_source(exprs, ["x1", "x2", "w"], "rk4", 1e16)
    assert "(2.0)*_x0" in src and "((3)**7)**7" in src
    assert "(3)*(5)" in src and "_sin((2.0))" in src
    assert "_abs((-3))" in src and "(9007199254740993)*" in src
    # the stages are combined with float literals
    assert "+2.0*_k1_0+2.0*_k2_0+" in src and "*_k1_0+2*" not in src


def test_step_source_reads_every_stage_from_locals():
    exprs = [parse("-x1 + cos(x2)*x1^3"), parse("x1*w + cos(x2) + 1/x2")]
    src = _step_source([simplify(e) for e in exprs], ["x1", "x2", "w"], "rk4",
                       1e16)
    # the kernel's list argument is gone; cos(x2) is bound once per stage
    assert "_a[" not in src and src.count("_cos(") == 4
    assert "**3" in src and "**(-1.0)" in src
