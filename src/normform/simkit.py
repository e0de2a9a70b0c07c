"""Closed-loop simulation: fixed-step RK4, disturbance signals, Lyapunov
monitoring, and L2-gain certification.

A single run is integrated on plain Python floats (`_run_scalar`).  So is
a batch of fewer than SCALAR_RUNS runs whose right-hand side gives the
same bits on both backends (`expr.backends_agree`), one run at a time;
there the per-step overhead of numpy would cost more than the arithmetic
it vectorizes.  Any other batch compiles its right-hand side once into a
vectorized numpy callable and advances an (n, nruns) state array in
lockstep, one row per state variable.  Both routes give the same
(T, n, nruns) states and (T, nruns) w values, and the channels u, y and V
of every trace, a single run's included, are evaluated on them with numpy.
Every trace exposes its states as (T, nruns, n); `Trace.single(k)` is a
one-run view of the same shape.
"""

from __future__ import annotations

import io

import numpy as np

from .expr import backends_agree, compile_exprs, compile_exprs_scalar, simplify

__all__ = ["SimConfig", "Trace", "Signal", "step_signal", "zero_signal",
           "noise_signal", "constant_signal", "simulate", "lyapunov_monitor",
           "l2_gain_check", "batch_simulate", "trace_to_csv"]

DIVERGENCE_NORM = 1e8
_CSV_ROWS = 256
# batches below this run one at a time on floats where the backends agree:
# at horizon 1, 8 chain-loop runs cost the same either way, ~13 nf_mixed runs
SCALAR_RUNS = 8


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

    def __call__(self, t):
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
        return self.x.shape[1]

    def single(self, k=0):
        """View of run k as a one-run trace, its arrays (T, 1, ...)."""
        def run(a):
            return None if a is None else a[:, k:k + 1]
        return Trace(self.t, run(self.x), run(self.u), run(self.y),
                     self.names, self.input_names, self.output_names,
                     self.diverged_runs[k:k + 1], w=run(self.w), V=run(self.V),
                     int_y2=run(self.int_y2), int_w2=run(self.int_w2))

    def final_state(self, k=0):
        return self.x[-1, k]


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
    rhs_exprs = [simplify(e) for e in rhs_exprs]
    if nruns == 1 or nruns < SCALAR_RUNS and backends_agree(rhs_exprs):
        run, f = _run_floats, compile_exprs_scalar(rhs_exprs, names + ["w"])
    else:
        run, f = _run_batch, _compile(rhs_exprs, names)
    xs, ws, alive = run(f, x0, cfg, w_signal)
    ts = _times(len(xs) - 1, cfg.dt)

    # u, y and V of every run in one kernel over the trace, then the running
    # integrals of |y|^2 and w^2; on a diverging run they overflow quietly
    exprs = [*input_exprs, *output_exprs] + ([V_expr] if V_expr is not None else [])
    nu, ny = len(input_exprs), len(output_exprs)
    channels = np.empty((len(ts), nruns, len(exprs)))
    with np.errstate(all="ignore"):
        vals = _compile(exprs, names)([*xs.transpose(1, 0, 2), ws])
        for j, v in enumerate(vals):
            channels[:, :, j] = v
        ys = channels[:, :, nu:nu + ny]
        int_y2 = _running_trapezoid(ts, np.sum(ys * ys, axis=2)) if ny else None
        int_w2 = _running_trapezoid(ts, ws * ws)

    return Trace(ts, xs.transpose(0, 2, 1), channels[:, :, :nu], ys, names,
                 input_names or [f"u{i + 1}" for i in range(nu)],
                 output_names or [f"y{i + 1}" for i in range(ny)], ~alive, w=ws,
                 V=channels[:, :, -1] if V_expr is not None else None,
                 int_y2=int_y2, int_w2=int_w2)


def _times(last, dt):
    # t_{k+1} = k*dt + dt, bit for bit as the step computes it
    return np.concatenate(([0.0], np.arange(last) * dt + dt))


def _run_batch(f, x0, cfg, w_signal):
    """The numpy loop over an (n, nruns) state, f its compiled right-hand
    side: the (T, n, nruns) states, the (T, nruns) w values and which runs
    stayed live."""
    nruns, n = x0.shape
    nsteps = int(round(cfg.horizon / cfg.dt))

    def rhs(x, wv, out):
        # the rows of the (n, nruns) state are the compiled function's
        # arguments; row assignment also broadcasts constant outputs
        for row, v in zip(out, f([*x, wv])):
            row[...] = v
        return out

    dt = cfg.dt
    # run-major: each step stores one contiguous (n, nruns) block
    xs = np.empty((nsteps + 1, n, nruns))
    ws = np.empty((nsteps + 1, nruns))
    x = np.ascontiguousarray(x0.T)
    xs[0] = x
    ws[0] = w_signal(0.0)
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
                xn = x + dt * rhs(x, w_signal(t), k1)
                w4 = w_signal(t + dt)
            else:
                w1 = w_signal(t)
                w2 = w_signal(t + dt / 2)
                w4 = w_signal(t + dt)
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
    return xs[:last + 1], ws[:last + 1], alive


def _run_floats(f, x0, cfg, w_signal):
    """`_run_scalar` run by run, f its compiled right-hand side: the same
    states, w values and live runs as `_run_batch`."""
    nruns, n = x0.shape
    if nruns > 1:   # a batch signal gives one value or one per run
        np.broadcast_to(w_signal(0.0), nruns)
    signals = [_run_signal(w_signal, j) for j in range(nruns)]
    runs = [_run_scalar(f, x0[j], cfg, signals[j]) for j in range(nruns)]
    alive = np.array([not diverged for _, _, diverged in runs])
    ts = _times(max(len(xj) for xj, _, _ in runs) - 1, cfg.dt)
    xs = np.empty((len(ts), n, nruns))
    ws = np.empty((len(ts), nruns))
    for j, (xj, wj, diverged) in enumerate(runs):
        # a diverged state is kept only by the last runs to diverge;
        # any other diverged run is frozen at its last accepted state
        if diverged and (alive.any() or len(xj) < len(ts)):
            xj = xj[:-1]
        xs[:, :, j] = xj + xj[-1:] * (len(ts) - len(xj))
        ws[:, j] = wj + [signals[j](t) for t in ts[len(wj):].tolist()]
    return xs, ws, alive


def _run_signal(w_signal, j):
    """w(t) of run j as a float."""
    def w(t):
        v = w_signal(t)
        return v if type(v) is float else float(v.flat[min(j, v.size - 1)])
    return w


def _run_scalar(f, x0, cfg, w):
    """One run on plain floats, f its compiled right-hand side and w(t) its
    disturbance: the states and w values up to the end or the step at which
    it diverges, that one included unless it raised, and whether it did."""
    x = [float(v) for v in x0]
    try:
        r0 = f(x + [w(0.0)])
    except (ZeroDivisionError, ValueError, OverflowError):
        raise ValueError("right-hand side not finite at the initial state")
    if not all(np.isfinite(r0)):
        raise ValueError("right-hand side not finite at the initial state")

    nsteps = int(round(cfg.horizon / cfg.dt))
    dt = cfg.dt
    bound = DIVERGENCE_NORM ** 2
    xs = [x]
    wsv = [w(0.0)]
    for k in range(nsteps):
        t = k * dt
        try:
            if cfg.integrator == "euler":
                k1 = f(x + [w(t)])
                xn = [xi + dt * ki for xi, ki in zip(x, k1)]
                w4 = w(t + dt)
            else:
                w1 = w(t)
                w2 = w(t + dt / 2)
                w4 = w(t + dt)
                k1 = f(x + [w1])
                k2 = f([xi + dt / 2 * ki for xi, ki in zip(x, k1)] + [w2])
                k3 = f([xi + dt / 2 * ki for xi, ki in zip(x, k2)] + [w2])
                k4 = f([xi + dt * ki for xi, ki in zip(x, k3)] + [w4])
                xn = [xi + dt / 6 * (a + 2 * b + 2 * c + d)
                      for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        except (ZeroDivisionError, ValueError, OverflowError):
            return xs, wsv, True
        xs.append(xn)
        wsv.append(w4)
        x = xn
        # false for NaN and inf as well as above the bound
        if not sum(v * v for v in xn) <= bound:
            return xs, wsv, True
    return xs, wsv, False


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
    V = trace.V[:, run]
    diffs = np.diff(V)
    return {"max_increase": float(np.max(diffs)) if diffs.size else 0.0,
            "V": V}


def l2_gain_check(trace, gamma, V0=0.0, run=0, rel_tol=1e-6):
    """Trapezoidal check of   int ||y||^2 <= gamma^2 int w^2 + V0."""
    if trace.int_y2 is None:
        raise ValueError("trace carries no output channel")
    lhs = float(trace.int_y2[-1, run])
    rhs = float(gamma) ** 2 * float(trace.int_w2[-1, run]) + float(V0)
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
