"""Closed-loop simulation: fixed-step RK4, disturbance signals, Lyapunov
monitoring, and L2-gain certification.

A single run is integrated on plain Python floats (`_simulate_scalar`).
A batch of two or more runs compiles its right-hand side once into a
vectorized numpy callable and advances an (n, nruns) state array in
lockstep, one row per state variable, storing the trace as (T, n, nruns).
Both expose the trace as (T, nruns, n).
"""

from __future__ import annotations

import io

import numpy as np

from .expr import compile_exprs, compile_exprs_scalar, simplify

__all__ = ["SimConfig", "Trace", "Signal", "step_signal", "zero_signal",
           "noise_signal", "constant_signal", "simulate", "lyapunov_monitor",
           "l2_gain_check", "batch_simulate", "trace_to_csv"]

DIVERGENCE_NORM = 1e8
_CSV_ROWS = 256


class SimConfig:
    def __init__(self, dt=1e-3, horizon=10.0, integrator="rk4"):
        if dt <= 0 or horizon <= 0:
            raise ValueError("dt and horizon must be positive")
        if integrator not in ("rk4", "euler"):
            raise ValueError("integrator must be rk4 or euler")
        self.dt = float(dt)
        self.horizon = float(horizon)
        self.integrator = integrator


class Signal:
    """Scalar disturbance signal w(t); may be batch-aware."""

    def __init__(self, fn, label="signal"):
        self.fn = fn
        self.label = label

    def __call__(self, t, nruns=1):
        """A float when fn(t) is a scalar (a batch broadcasts it), else
        one value per run."""
        v = self.fn(t)
        if isinstance(v, (float, int)):
            return float(v)
        return np.asarray(v, dtype=float)


def zero_signal():
    return Signal(lambda t: 0.0, "zero")


def constant_signal(value):
    return Signal(lambda t: float(value), f"const({value})")


def step_signal(off_at, scale=1.0):
    """scale * (1(t) - 1(t - off_at))."""
    return Signal(lambda t: float(scale) if 0.0 <= t < off_at else 0.0,
                  f"step(0..{off_at})x{scale}")


def noise_signal(seed, segment=0.01, lo=0.0, hi=1.0, horizon=100.0, nruns=1):
    """Piecewise-constant seeded noise: a fresh uniform draw every `segment`
    seconds, one row per run."""
    nseg = int(np.ceil(horizon / segment)) + 2
    table = np.random.default_rng(seed).uniform(lo, hi, size=(nruns, nseg))

    def fn(t):
        idx = min(int(t / segment), nseg - 1)
        return table[:, idx]

    return Signal(fn, f"noise(seed={seed})")


class Trace:
    def __init__(self, t, x, u, y, names, input_names, output_names,
                 diverged_runs, w=None, V=None, int_y2=None, int_w2=None):
        self.t = t
        self.x = x                      # (T, nruns, n), maybe a view
        self.u = u
        self.y = y
        self.w = w
        self.V = V
        self.int_y2 = int_y2
        self.int_w2 = int_w2
        self.names = list(names)
        self.input_names = list(input_names)
        self.output_names = list(output_names)
        # one flag per run; a diverged batch run is frozen at its last
        # accepted state
        self.diverged_runs = np.asarray(diverged_runs, dtype=bool)

    @property
    def diverged(self):
        """True when any run diverged."""
        return bool(self.diverged_runs.any())

    @property
    def nruns(self):
        return self.x.shape[1] if self.x.ndim == 3 else 1

    def single(self, k=0):
        """View of run k with 2-D arrays (time x channel)."""
        return Trace(self.t, self.x[:, k], self.u[:, k], self.y[:, k],
                     self.names, self.input_names, self.output_names,
                     self.diverged_runs[k:k + 1],
                     w=None if self.w is None else self.w[:, k],
                     V=None if self.V is None else self.V[:, k],
                     int_y2=None if self.int_y2 is None else self.int_y2[:, k],
                     int_w2=None if self.int_w2 is None else self.int_w2[:, k])

    def final_state(self, k=0):
        return self.x[-1, k] if self.x.ndim == 3 else self.x[-1]


def _compile(exprs, names):
    return compile_exprs([simplify(e) for e in exprs], list(names) + ["w"])


def simulate(rhs_exprs, state_names, x0, cfg=None, w_signal=None,
             input_exprs=(), output_exprs=(), V_expr=None, input_names=None,
             output_names=None):
    """Integrate dx/dt = rhs(x, w(t)) with fixed-step RK4 (or Euler).

    x0 may be one initial state or a batch (nruns, n).  A run diverges
    when its state turns non-finite or its norm exceeds 1e8.  A single run
    ends its trace there.  In a batch, a diverged run is frozen at its last
    accepted state and the others go on; the trace ends with the step at
    which the last live runs diverge.  `Trace.diverged_runs` flags each
    run, `Trace.diverged` any run.
    """
    cfg = cfg or SimConfig()
    w_signal = w_signal or zero_signal()
    names = list(state_names)
    n = len(names)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if x0.shape[1] != n:
        raise ValueError(f"x0 must have {n} columns")
    nruns = x0.shape[0]
    if nruns == 1:
        return _simulate_scalar(rhs_exprs, names, x0[0], cfg, w_signal,
                                input_exprs, output_exprs, V_expr,
                                input_names, output_names)

    f = _compile(rhs_exprs, names)
    fu = _compile(input_exprs, names) if input_exprs else None
    fy = _compile(output_exprs, names) if output_exprs else None
    fV = _compile([V_expr], names) if V_expr is not None else None

    def rhs(x, wv, out):
        # the rows of the (n, nruns) state are the compiled function's
        # arguments; row assignment also broadcasts constant outputs
        for row, v in zip(out, f([*x, wv])):
            row[...] = v
        return out

    nsteps = int(round(cfg.horizon / cfg.dt))
    dt = cfg.dt
    # run-major: each step stores one contiguous (n, nruns) block
    xs = np.empty((nsteps + 1, n, nruns))
    ws = np.empty((nsteps + 1, nruns))
    x = np.ascontiguousarray(x0.T)
    xs[0] = x
    ws[0] = w_signal(0.0, nruns)
    k1, k2, k3, k4 = np.empty((4, n, nruns))
    alive = np.ones(nruns, dtype=bool)
    frozen = False
    last = nsteps
    with np.errstate(all="ignore"):
        if not np.all(np.isfinite(rhs(x, ws[0], k1))):
            raise ValueError("right-hand side not finite at the initial state")
        for k in range(nsteps):
            t = k * dt
            if cfg.integrator == "euler":
                xn = x + dt * rhs(x, w_signal(t, nruns), k1)
                w4 = w_signal(t + dt, nruns)
            else:
                w1 = w_signal(t, nruns)
                w2 = w_signal(t + dt / 2, nruns)
                w4 = w_signal(t + dt, nruns)
                rhs(x, w1, k1)
                rhs(x + dt / 2 * k1, w2, k2)
                rhs(x + dt / 2 * k2, w2, k3)
                rhs(x + dt * k3, w4, k4)
                xn = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            # false for NaN and inf as well as above the bound
            ok = np.einsum("ij,ij->j", xn, xn) <= DIVERGENCE_NORM ** 2
            if frozen or not ok.all():
                ok &= alive
                if not ok.any():
                    # the last runs diverged: end with this step, as the
                    # single-run path does
                    xs[k + 1] = np.where(alive, xn, x)
                    ws[k + 1] = w4
                    alive = ok
                    last = k + 1
                    break
                xn = np.where(ok, xn, x)
                alive = ok
                frozen = True
            xs[k + 1] = xn
            ws[k + 1] = w4
            x = xn
    # t_{k+1} = k*dt + dt, bit for bit as the step computes it
    ts = np.concatenate(([0.0], np.arange(last) * dt + dt))
    xs = xs[:last + 1]
    ws = ws[:last + 1]

    def channel(fn, width):
        out = np.empty((len(ts), nruns, width))
        if fn is not None:
            with np.errstate(all="ignore"):
                vals = fn([xs[:, i] for i in range(n)] + [ws])
            for j, v in enumerate(vals):
                out[:, :, j] = v
        return out

    us = channel(fu, len(input_exprs))
    ys = channel(fy, len(output_exprs))
    Vs = channel(fV, 1)[:, :, 0] if fV is not None else None

    int_y2, int_w2 = _energy_integrals(ts, ys, ws, len(output_exprs))

    return Trace(ts, xs.transpose(0, 2, 1), us, ys,
                 names,
                 input_names or [f"u{i + 1}" for i in range(len(input_exprs))],
                 output_names or [f"y{i + 1}" for i in range(len(output_exprs))],
                 ~alive, w=ws, V=Vs, int_y2=int_y2, int_w2=int_w2)


def _simulate_scalar(rhs_exprs, names, x0, cfg, w_signal, input_exprs,
                     output_exprs, V_expr, input_names, output_names):
    """Single-run integration on plain floats (identical semantics to the
    batch path, an order of magnitude faster)."""
    def comp(exprs):
        return compile_exprs_scalar([simplify(e) for e in exprs], names + ["w"])

    f = comp(rhs_exprs)

    def wval(t):
        v = w_signal(t)
        return v if type(v) is float else float(v.ravel()[0])

    x = [float(v) for v in x0]
    try:
        r0 = f(x + [wval(0.0)])
    except (ZeroDivisionError, ValueError, OverflowError):
        raise ValueError("right-hand side not finite at the initial state")
    if not all(np.isfinite(r0)):
        raise ValueError("right-hand side not finite at the initial state")

    nsteps = int(round(cfg.horizon / cfg.dt))
    dt = cfg.dt
    bound = DIVERGENCE_NORM ** 2
    ts = [0.0]
    xs = [x]
    wsv = [wval(0.0)]
    diverged = False
    for k in range(nsteps):
        t = k * dt
        try:
            if cfg.integrator == "euler":
                k1 = f(x + [wval(t)])
                xn = [xi + dt * ki for xi, ki in zip(x, k1)]
                w4 = wval(t + dt)
            else:
                w1 = wval(t)
                w2 = wval(t + dt / 2)
                w4 = wval(t + dt)
                k1 = f(x + [w1])
                k2 = f([xi + dt / 2 * ki for xi, ki in zip(x, k1)] + [w2])
                k3 = f([xi + dt / 2 * ki for xi, ki in zip(x, k2)] + [w2])
                k4 = f([xi + dt * ki for xi, ki in zip(x, k3)] + [w4])
                xn = [xi + dt / 6 * (a + 2 * b + 2 * c + d)
                      for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        except (ZeroDivisionError, ValueError, OverflowError):
            diverged = True
            break
        ts.append(t + dt)
        xs.append(xn)
        wsv.append(w4)
        x = xn
        # false for NaN and inf as well as above the bound
        if not sum(v * v for v in xn) <= bound:
            diverged = True
            break

    def channel(exprs):
        out = np.empty((len(xs), 1, len(exprs)))
        if not exprs:
            return out
        fn = comp(exprs)
        for k, (xk, wk) in enumerate(zip(xs, wsv)):
            try:
                out[k, 0] = fn(xk + [wk])
            except (ZeroDivisionError, ValueError, OverflowError):
                # where a float operation raises, numpy's may give inf or
                # nan instead; a value undefined for both is nan
                try:
                    with np.errstate(all="ignore"):
                        out[k, 0] = fn([np.float64(v) for v in xk + [wk]])
                except (ZeroDivisionError, ValueError, OverflowError):
                    out[k, 0] = np.nan
        return out

    ts = np.asarray(ts)
    ws = np.asarray(wsv)[:, None]
    us = channel(input_exprs)
    ys = channel(output_exprs)
    Vs = channel([V_expr])[:, :, 0] if V_expr is not None else None
    int_y2, int_w2 = _energy_integrals(ts, ys, ws, len(output_exprs))
    return Trace(ts, np.asarray(xs)[:, None, :], us, ys, names,
                 input_names or [f"u{i + 1}" for i in range(len(input_exprs))],
                 output_names or [f"y{i + 1}" for i in range(len(output_exprs))],
                 [diverged], w=ws, V=Vs, int_y2=int_y2, int_w2=int_w2)


def _energy_integrals(ts, ys, ws, nout):
    """Running integrals of |y|^2 (None without outputs) and of w^2.  On a
    diverging run they overflow to inf quietly."""
    with np.errstate(all="ignore"):
        int_y2 = _running_trapezoid(ts, np.sum(ys * ys, axis=2)) if nout else None
        return int_y2, _running_trapezoid(ts, ws * ws)


def _running_trapezoid(ts, vals):
    # in place: on a batch each temporary is trajectory-sized
    out = np.zeros_like(vals)
    steps = vals[1:] + vals[:-1]
    steps *= 0.5 * np.diff(ts)[:, None]
    np.cumsum(steps, axis=0, out=out[1:])
    return out


def lyapunov_monitor(trace, run=0):
    """Max single-step increase of V along the trace and the V series."""
    if trace.V is None:
        raise ValueError("trace carries no V channel")
    V = trace.V[:, run] if trace.V.ndim == 2 else trace.V
    diffs = np.diff(V)
    return {"max_increase": float(np.max(diffs)) if diffs.size else 0.0,
            "V": V}


def l2_gain_check(trace, gamma, V0=0.0, run=0, rel_tol=1e-6):
    """Trapezoidal check of   int ||y||^2 <= gamma^2 int w^2 + V0."""
    if trace.int_y2 is None:
        raise ValueError("trace carries no output channel")
    iy = trace.int_y2[:, run] if trace.int_y2.ndim == 2 else trace.int_y2
    iw = trace.int_w2[:, run] if trace.int_w2.ndim == 2 else trace.int_w2
    lhs = float(iy[-1])
    rhs = float(gamma) ** 2 * float(iw[-1]) + float(V0)
    return {"lhs": lhs, "rhs": rhs, "pass": lhs <= rhs * (1.0 + rel_tol)}


def batch_simulate(rhs_exprs, state_names, ic_box, nruns, master_seed, cfg=None,
                   w_maker=None, **kw):
    """Monte-Carlo batch: initial conditions uniform in ic_box, one RK4 sweep
    for the whole batch.  Per-run disturbance seeds derive from the master
    seed, so the batch is reproducible bit-for-bit."""
    rng = np.random.default_rng(master_seed)
    n = len(state_names)
    lo = np.array([b[0] for b in ic_box])
    hi = np.array([b[1] for b in ic_box])
    x0 = rng.uniform(lo, hi, size=(nruns, n))
    w_signal = None
    if w_maker is not None:
        w_signal = w_maker(int(rng.integers(0, 2**32)), nruns)
    trace = simulate(rhs_exprs, state_names, x0, cfg=cfg, w_signal=w_signal, **kw)
    # a contiguous copy: norm's pairwise summation runs on contiguous rows
    norms = np.linalg.norm(np.ascontiguousarray(trace.x[-1]), axis=1)
    return {
        "trace": trace,
        "endpoint_norms": norms,
        "median_endpoint": float(np.median(norms)),
        "envelope_min": trace.x.min(axis=1),
        "envelope_max": trace.x.max(axis=1),
        "diverged": trace.diverged,
        "diverged_runs": trace.diverged_runs,
    }


def trace_to_csv(trace, run=0):
    """CSV text: t, states, inputs, outputs[, V, intY2, intW2] at 12
    significant digits."""
    cols = ["t"] + trace.names + trace.input_names + trace.output_names
    series = [trace.t[:, None], trace.x[:, run], trace.u[:, run],
              trace.y[:, run]]
    for name, v in (("V", trace.V), ("intY2", trace.int_y2),
                    ("intW2", trace.int_w2)):
        if v is not None:
            cols.append(name)
            series.append(v[:, run, None])
    line = ",".join(["%.12g"] * len(cols)) + "\n"
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    # Python floats for a block of rows at a time keep peak memory flat
    for k in range(0, len(trace.t), _CSV_ROWS):
        rows = np.concatenate([s[k:k + _CSV_ROWS] for s in series], axis=1)
        buf.writelines(line % tuple(r) for r in rows.tolist())
    return buf.getvalue()
