"""Closed-loop simulation: fixed-step RK4, disturbance signals, Lyapunov
monitoring, and L2-gain certification.

A disturbance is any callable t -> one number, and every run of a batch
shares it; a value that is not one number is refused, naming its t.

One loop, `_integrate`, steps every trace in blocks of 256 steps through a
rolling buffer of 257 rows, (257, n, nruns) floats, whose row 0 carries the
last row of the block before: it reads w for a block, and a route writes
the block's rows with one call of a generated block stepper.  A single run,
and a batch of fewer than SCALAR_RUNS runs whose right-hand side gives the
same bits on both backends (`expr.backends_agree`), take the float route, a
call per run (`compile_block_scalar`); any other batch the numpy route, each
stage in place on the whole (n, nruns) block (`compile_block_numpy`).  After
each block one rule freezes a run that left the bound at its last accepted
row, and ends the trace where the last live runs leave; then the block's
rows and their w values go to a fold, the caller's.

`simulate` folds them into the whole trace: (T, n, nruns) states and a
(T, 1) w column.  Channels u, y and V are evaluated with numpy, states are
exposed as (T, nruns, n), and `Trace.w` and `Trace.int_w2` are read-only
(T, nruns) broadcast views of one column each.  `batch_simulate` keeps only
what the Monte-Carlo protocol reads: each block is folded into the (T, n)
envelopes, and the endpoint is the last row; no w is kept.
"""

from __future__ import annotations

import io
import math
import numbers

import numpy as np

from .expr import (backends_agree, compile_block_numpy, compile_block_scalar,
                   compile_exprs, simplify)

__all__ = ["SimConfig", "Trace", "step_signal", "zero_signal",
           "noise_signal", "simulate", "lyapunov_monitor",
           "l2_gain_check", "batch_simulate", "trace_to_csv"]

DIVERGENCE_NORM = 1e8
# steps per signal read and float-route call
_BLOCK = 256
_CSV_ROWS = 32   # rows per `%` in trace_to_csv; 256 raised peak RSS
# batches below this run one at a time on floats where the backends agree;
# at horizon 1 and dt 2e-3 (best of 9) the routes cost the same at ~13-16
# runs of the nf_uchain chain loop and ~16-20 of nf_mixed, above this value
SCALAR_RUNS = 8


class SimConfig:
    def __init__(self, dt=1e-3, horizon=10.0, integrator="rk4"):
        for name, v in (("dt", dt), ("horizon", horizon)):
            # a trace of steps + 1 rows, or its envelopes, is allocated up
            # front
            if not 0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if integrator not in ("rk4", "euler"):
            raise ValueError("integrator must be rk4 or euler")
        self.dt = float(dt)
        self.horizon = float(horizon)
        self.integrator = integrator
        self.steps = int(round(self.horizon / self.dt))
        if self.steps == 0:
            raise ValueError(f"dt {self.dt} leaves no step in horizon {self.horizon}")
        if abs(self.steps * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise ValueError(f"horizon {self.horizon} is not a whole number of "
                             f"steps of dt {self.dt}")


def zero_signal():
    return lambda t: 0.0


def step_signal(off_at, scale=1.0):
    """scale * (1(t) - 1(t - off_at)); off_at may be infinite, not nan,
    and scale must be finite."""
    if math.isnan(off_at):
        raise ValueError("step off-time must not be nan")
    scale = float(scale)
    if not math.isfinite(scale):
        raise ValueError(f"step scale must be finite, got {scale}")
    return lambda t: scale if 0.0 <= t < off_at else 0.0


def noise_signal(seed, horizon=100.0):
    """Piecewise-constant seeded noise: a fresh uniform draw from [0, 1)
    every 0.01 s over a horizon that is positive and finite."""
    if not 0 < horizon < math.inf:
        raise ValueError(f"noise horizon must be positive and finite, got "
                         f"{horizon}")
    nseg = int(np.ceil(horizon / 0.01)) + 2
    table = np.random.default_rng(seed).uniform(0.0, 1.0, size=nseg)

    def fn(t):
        return table[min(int(t / 0.01), nseg - 1)]

    return fn


class Trace:
    """A simulated trace: times t (T,), states x (T, nruns, n), channels u
    and y (T, nruns, ·), and w, V, int_y2 and int_w2 (T, nruns); w and
    int_w2, which every run shares, are read-only broadcast views.  The
    trace of `batch_simulate` holds its first and last rows alone and no
    channels: u, y, w, V and the integrals are None."""

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


def simulate(rhs_exprs, state_names, x0, cfg=None, w_signal=None,
             input_exprs=(), output_exprs=(), V_expr=None):
    """Integrate dx/dt = rhs(x, w(t)) with fixed-step RK4 (or Euler), w the
    one number w_signal(t) that every run shares (0 by default).

    x0 may be one initial state or a batch (nruns, n).  A run diverges
    when its state turns non-finite or its norm exceeds 1e8.  A single run
    ends its trace there.  In a batch, a diverged run is frozen at its last
    accepted state and the others go on; the trace ends with the step at
    which the last live runs diverge.  `Trace.diverged_runs` flags each
    run, `Trace.diverged` any run.  The input channels are named u1, u2,
    and so on, the outputs y1, y2, and so on.
    """
    cfg = cfg or SimConfig()
    w_signal = w_signal or zero_signal()
    names = list(state_names)
    n = len(names)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if x0.shape[1] != n:
        raise ValueError(f"x0 must have {n} columns")
    nruns = x0.shape[0]
    if nruns < 1:
        raise ValueError("a simulation needs at least one run, got 0")
    rhs_exprs = [simplify(e) for e in rhs_exprs]
    # run-major: each row is one contiguous (n, nruns) block
    xs = np.empty((cfg.steps + 1, n, nruns))
    ws = np.empty((cfg.steps + 1, 1))

    def fold(k, rows, w):
        xs[k:k + len(rows)] = rows
        ws[k:k + len(rows), 0] = w

    _, rows, alive = _integrate(_route(rhs_exprs, nruns), rhs_exprs,
                                names + ["w"], x0, cfg, w_signal, fold)
    xs, ws, ts = xs[:rows], ws[:rows], _times(rows, cfg.dt)

    # u, y and V of every run in one kernel over the trace, then the running
    # integrals of |y|^2 and w^2; on a diverging run they overflow quietly.
    # The kernel broadcasts the (T, 1) w column, and int_w2 stays one wide
    exprs = [*input_exprs, *output_exprs] + ([V_expr] if V_expr is not None else [])
    nu, ny = len(input_exprs), len(output_exprs)
    channels = np.empty((len(ts), nruns, len(exprs)))
    with np.errstate(all="ignore"):
        vals = compile_exprs([simplify(e) for e in exprs],
                             names + ["w"])([*xs.transpose(1, 0, 2), ws])
        for j, v in enumerate(vals):
            channels[:, :, j] = v
        ys = channels[:, :, nu:nu + ny]
        int_y2 = _running_trapezoid(ts, np.sum(ys * ys, axis=2)) if ny else None
        int_w2 = _running_trapezoid(ts, ws * ws)

    return Trace(ts, xs.transpose(0, 2, 1), channels[:, :, :nu], ys, names,
                 [f"u{i + 1}" for i in range(nu)],
                 [f"y{i + 1}" for i in range(ny)], ~alive,
                 w=np.broadcast_to(ws, (len(ts), nruns)),
                 V=channels[:, :, -1] if V_expr is not None else None,
                 int_y2=int_y2, int_w2=np.broadcast_to(int_w2, (len(ts), nruns)))


def _route(rhs_exprs, nruns):
    """The route of nruns runs of the simplified rhs_exprs: a float kernel
    off backends_agree may raise, so only single runs take one there."""
    if nruns == 1 or nruns < SCALAR_RUNS and backends_agree(rhs_exprs):
        return _float_route
    return _numpy_route


def _times(rows, dt):
    """The times of a trace of rows rows, in one array: t_{k+1} = k*dt + dt,
    bit for bit as the step computes it, and t_0 = -dt + dt = +0.0."""
    ts = np.arange(-1.0, rows - 1)
    np.add(np.multiply(ts, dt, out=ts), dt, out=ts)
    return ts


def _integrate(route, rhs_exprs, names, x0, cfg, w_signal, fold):
    """Step x0 through a rolling buffer of _BLOCK + 1 rows, row 0 the last
    row of the block before: fold(k, rows, w) gets rows k, k + 1, ... of
    the trace, each once and in order, and w at their times.  Returns the
    last row (1, n, nruns), the row count T, and which runs stayed live.

    advance(rows, k, w1, w2, w4, live, end), from route(...), writes the
    live runs' rows after rows[0], trace row k, one per w at t, t + dt/2
    and t + dt; a run that leaves the bound, or raises, gets live False and
    end its last row.  After each block, a run that leaves repeats its last
    accepted row, and the trace ends where the last live runs leave."""
    nruns, n = x0.shape
    nsteps = cfg.steps
    dt = cfg.dt
    # run-major: each step stores one contiguous (n, nruns) block
    xs = np.empty((min(nsteps, _BLOCK) + 1, n, nruns))
    xs[0] = x0.T
    w0 = _signal_block(w_signal, [0.0])
    fold(0, xs[:1], w0)
    live = np.ones(nruns, dtype=bool)
    end = np.full(nruns, nsteps + 1)   # past the trace: the run stayed
    last = nsteps
    with np.errstate(all="ignore"):
        # one check for both routes, of every run at once
        k1 = compile_exprs(rhs_exprs, names)([*xs[0], np.array(w0)])
        if not all(np.isfinite(v).all() for v in k1):
            raise ValueError("right-hand side not finite at the initial state")
        advance = route(rhs_exprs, names, nruns, cfg)
        for k in range(0, nsteps, _BLOCK):
            ts = (np.arange(k, min(k + _BLOCK, nsteps)) * dt).tolist()
            w = [_signal_block(w_signal, [t + h for t in ts])
                 for h in (0.0, dt / 2, dt)]
            rows = xs[:len(ts) + 1]
            advance(rows, k, *w, live, end)
            if not live.any():
                last = end.max()
                rows = rows[:last - k + 1]
            _freeze(rows, k, end)
            fold(k + 1, rows[1:], w[2][:len(rows) - 1])
            xs[0] = rows[-1]
            if not live.any():
                break
    return xs[:1], last + 1, live


def _freeze(rows, k, end):
    """Repeat in rows, trace rows k, k + 1, ..., each left run's last
    accepted row, but not the runs that leave last once every run has left:
    the trace ends with their row end.  rows[0] is accepted or frozen."""
    before = np.flatnonzero(end <= k)
    if before.size:
        rows[1:, :, before] = rows[:1, :, before]
    for r in np.flatnonzero((end > k) & (end < end.max())):
        rows[end[r] - k:, :, r] = rows[end[r] - k - 1, :, r]


def _signal_block(w_signal, ts):
    """w at each of ts, as floats.  A value that is not one real number
    (numbers.Real, which numpy scalars are) is refused, naming its t."""
    vals = [w_signal(t) for t in ts]
    try:
        block = np.asarray(vals)
    except ValueError:   # values of several shapes
        block = None
    if block is not None and block.ndim == 1 and block.dtype.kind in "biuf":
        return block.astype(float, copy=False).tolist()
    bad = [(t, v) for t, v in zip(ts, vals)
           if np.ndim(v) or not isinstance(v, numbers.Real)]
    if not bad:   # reals numpy keeps as objects, such as a Fraction
        return [float(v) for v in vals]
    t, v = bad[0]
    if np.ndim(v):
        raise ValueError(f"the signal gives a value of shape {np.shape(v)} "
                         f"at t = {t:g}, not one number")
    raise ValueError(f"the signal gives {v!r} at t = {t:g}, not a real number")


def _float_route(rhs_exprs, names, nruns, cfg):
    """advance (see _integrate) on Python floats: one compile_block_scalar
    call per live run and block."""
    steps = compile_block_scalar(rhs_exprs, names, cfg.integrator,
                                 DIVERGENCE_NORM ** 2)

    def advance(rows, k, w1, w2, w4, live, end):
        for r in np.flatnonzero(live):
            out, stop = steps(rows[0, :, r].tolist(), w1, w2, w4, cfg.dt)
            rows[:len(out), :, r] = out   # rows[0], then the steps
            if stop is not None:
                live[r], end[r] = False, k + len(out) - 1

    return advance


def _numpy_route(rhs_exprs, names, nruns, cfg):
    """advance (see _integrate) on the whole (n, nruns) block: one
    compile_block_numpy call per block, into the stage rows allocated here."""
    steps = compile_block_numpy(rhs_exprs, names, cfg.integrator,
                                DIVERGENCE_NORM ** 2)
    stages = np.empty((5, len(rhs_exprs), nruns))

    def advance(rows, k, w1, w2, w4, live, end):
        steps(rows, w1, w2, w4, cfg.dt, k, live, end, stages)

    return advance


def _running_trapezoid(ts, vals):
    # in place in the result: on a batch a temporary is trajectory-sized
    out = np.zeros_like(vals)
    steps = out[1:]
    np.add(vals[1:], vals[:-1], out=steps)
    steps *= 0.5 * np.diff(ts)[:, None]
    np.cumsum(steps, axis=0, out=steps)
    return out


def lyapunov_monitor(trace):
    """Max single-step increase of V along the trace's first run and its V
    series."""
    if trace.V is None:
        raise ValueError("trace carries no V channel")
    V = trace.V[:, 0]
    diffs = np.diff(V)
    return {"max_increase": float(np.max(diffs)) if diffs.size else 0.0,
            "V": V}


def l2_gain_check(trace, gamma, V0=0.0):
    """Trapezoidal check of   int ||y||^2 <= gamma^2 int w^2 + V0   on the
    trace's first run, to a relative 1e-6."""
    gamma, V0 = _gain_terms(gamma, V0)
    if trace.int_y2 is None:
        raise ValueError("trace carries no output channel")
    lhs = float(trace.int_y2[-1, 0])
    rhs = gamma ** 2 * float(trace.int_w2[-1, 0]) + V0
    return {"lhs": lhs, "rhs": rhs, "pass": lhs <= rhs * (1.0 + 1e-6)}


def _gain_terms(gamma, V0):
    """gamma and V0 of an L2-gain check as floats: a gain is finite and
    >= 0, and the storage offset V0 finite, or the verdict means nothing."""
    gamma, V0 = float(gamma), float(V0)
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if not math.isfinite(V0):
        raise ValueError(f"V0 must be finite, got {V0}")
    return gamma, V0


def batch_simulate(rhs_exprs, state_names, ic_box, nruns, master_seed, cfg=None):
    """Monte-Carlo batch: initial conditions uniform in ic_box, drawn from
    the master seed, and one sweep of cfg's integrator (RK4 or Euler) for
    the whole batch with w = 0, so the batch is reproducible bit-for-bit.
    ic_box holds one finite (low, high) range per state, low <= high.

    The batch keeps what the protocol reads, never the (T, n, nruns)
    states: "trace" is a Trace of the first and last rows alone (t = (0,
    t_last), x of shape (2, nruns, n), no channels), "t" the (T,) times of
    the (T, n) envelopes "envelope_min" and "envelope_max", with
    "endpoint_norms", "median_endpoint", "diverged" and "diverged_runs"."""
    if not isinstance(nruns, numbers.Integral):
        raise ValueError(f"nruns must be an integer, got {nruns!r}")
    if nruns < 1:
        raise ValueError(f"a simulation needs at least one run, got {nruns}")
    n = len(state_names)
    if len(ic_box) != n:
        raise ValueError(f"ic_box must hold one range per state: {len(ic_box)} "
                         f"for {n} states")
    lo = np.array([b[0] for b in ic_box], dtype=float)
    hi = np.array([b[1] for b in ic_box], dtype=float)
    for name, a, b in zip(state_names, lo.tolist(), hi.tolist()):
        # numpy cannot draw from a range whose width overflows either
        if not math.isfinite(b - a):
            raise ValueError(f"ic_box range of {name} must be finite and of "
                             f"finite width, got ({a}, {b})")
        if a > b:
            raise ValueError(f"ic_box range of {name} is reversed: ({a}, {b})")
    rng = np.random.default_rng(master_seed)
    x0 = rng.uniform(lo, hi, size=(nruns, n))
    cfg = cfg or SimConfig()
    rhs_exprs = [simplify(e) for e in rhs_exprs]
    # the envelopes of rows k, k + 1, ...: min and max over the runs
    env = np.empty((2, cfg.steps + 1, n))

    def fold(k, rows, w):
        x = rows.transpose(0, 2, 1)
        env[0, k:k + len(rows)] = x.min(axis=1)
        env[1, k:k + len(rows)] = x.max(axis=1)

    xs, rows, alive = _integrate(_route(rhs_exprs, nruns), rhs_exprs,
                                 list(state_names) + ["w"], x0, cfg,
                                 zero_signal(), fold)
    ts = _times(rows, cfg.dt)
    # a contiguous copy: norm's pairwise summation runs on contiguous rows
    xend = np.ascontiguousarray(xs[0].T)
    norms = np.linalg.norm(xend, axis=1)
    trace = Trace(ts[[0, -1]], np.stack([x0, xend]), None, None, state_names,
                  [], [], ~alive)
    return {
        "trace": trace,
        "t": ts,
        "endpoint_norms": norms,
        "median_endpoint": float(np.median(norms)),
        "envelope_min": env[0, :len(ts)],
        "envelope_max": env[1, :len(ts)],
        "diverged": trace.diverged,
        "diverged_runs": trace.diverged_runs,
    }


def trace_to_csv(trace):
    """CSV text of the trace's first run: t, states, inputs, outputs[, V,
    intY2, intW2] at 12 significant digits."""
    if trace.u is None:
        raise ValueError("trace carries no channels")
    cols = ["t"] + trace.names + trace.input_names + trace.output_names
    series = [trace.t[:, None], trace.x[:, 0], trace.u[:, 0], trace.y[:, 0]]
    for name, v in (("V", trace.V), ("intY2", trace.int_y2),
                    ("intW2", trace.int_w2)):
        if v is not None:
            cols.append(name)
            series.append(v[:, 0, None])
    line = ",".join(["%.12g"] * len(cols)) + "\n"
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    # Python floats for a block of rows at a time keep peak memory flat
    for k in range(0, len(trace.t), _CSV_ROWS):
        rows = np.concatenate([s[k:k + _CSV_ROWS] for s in series], axis=1)
        buf.write((line * len(rows)) % tuple(rows.ravel().tolist()))
    return buf.getvalue()
