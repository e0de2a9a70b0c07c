"""The benchmark's workloads.

Each workload builds its inputs from the shipped ``systems/`` files (or
public transforms of them) and the workload seed, then hands the program
one pass of operations at a time.  An operation is timed on its own; its
output is checked right after, outside the timing, and checks that need the
sympy reference run once after the timed phase.  See NOTES.md for why each
workload exists.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import shutil
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

import normform.backstep as backstep
import normform.cli as cli
import normform.normalform as normalform
import normform.simkit as simkit
import normform.structure as structure
import normform.sysmodel as sysmodel
from normform.expr import Var, const, parse
from normform.geom import SymMatrix
from normform.linstruct import load_matrix

import oracle


class Op:
    """One timed call into the program plus the untimed check of its output.

    Ops with the same key (by default: the same slot in every pass) run the
    same command or call on inputs of the same cost."""

    __slots__ = ("cls", "fn", "check", "key")

    def __init__(self, cls, fn, check, key=None):
        self.cls = cls
        self.fn = fn
        self.check = check
        self.key = key


REF_S = 0.8e-3              # reference_kernel() on a shared 2-vCPU Xeon VM
                            # in its fast mode: the unit of speed


def reference_kernel():
    """A fixed slice of the kind of work the program does: small exact
    rationals and dict traffic."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 200):
        acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, 7)
        seen[(i % 17, i % 3)] = acc
    return acc


def reference_time(k=5):
    """Fastest of k reference_kernel() calls, with the collector off so that
    the program's heap does not slow the reference down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(k):
            t0 = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class SpeedProbe:
    """Times the reference kernel every PERIOD seconds from a SIGALRM
    handler while a timed phase runs, so that ops lasting many seconds get
    speed samples from inside them."""

    PERIOD = 0.5

    def __init__(self):
        self.samples = []       # (start, seconds spent in the handler, ref)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        ref = reference_time(3)
        self.samples.append((t0, time.perf_counter() - t0, ref))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def within(self, t0, t1):
        """Reference times sampled in [t0, t1] and the handler time spent
        there."""
        inside = [(d, r) for s, d, r in self.samples if t0 <= s <= t1]
        return [r for _, r in inside], sum(d for d, _ in inside)


class Timings:
    """Op latencies of a run, by pass, class and key.

    A machine shared with other tenants switches between speeds that differ
    by up to 1.8x, for seconds to minutes at a time, and bursts slow single
    ops further.  Two corrections keep runs comparable:

    - each op's time is scaled by REF_S over the mean reference-kernel time
      sampled right before it, inside it (SpeedProbe) and right after it,
      so latencies are seconds at the reference speed;
    - where a workload's passes repeat ops of equal cost (``repeats``), an
      op's latency is the median over the ops of its key in the run, and
      the wall time and percentiles come from one pass with every op at
      that median.  Otherwise every op counts and the pass walls are
      summarized by their median."""

    def __init__(self, repeats):
        self.repeats = repeats
        self.raw = []           # (pass, class, key, start, end, reference before)
        self.rows = []          # (pass, class, key, seconds at REF_S)
        self.speeds = []

    def add(self, i, cls, key, t0, t1, ref_before):
        self.raw.append((i, cls, key, t0, t1, ref_before))

    def finish(self, ref_after, probe):
        """Scale every op by the reference times around and inside it, after
        taking out the time the probe's handler spent inside it."""
        after = [r[5] for r in self.raw[1:]] + [ref_after]
        self.rows = []
        for (i, cls, key, t0, t1, before), nxt in zip(self.raw, after):
            refs, spent = probe.within(t0, t1)
            speed = REF_S / statistics.mean([before, nxt] + refs)
            self.speeds.append(speed)
            self.rows.append((i, cls, key, (t1 - t0 - spent) * speed))

    def speed(self):
        """Median machine speed over the run's ops, 1.0 = reference."""
        return statistics.median(self.speeds)

    @property
    def passes(self):
        return self.rows[-1][0] + 1 if self.rows else 0

    def total(self):
        return sum(r[3] for r in self.rows)

    def _medians(self):
        by_key = {}
        for _, cls, key, dt in self.rows:
            by_key.setdefault((cls, key), []).append(dt)
        return {k: statistics.median(v) for k, v in by_key.items()}

    def latencies(self, cls):
        """Latencies of the class's ops: every measured one, or with
        repeats, one pass with each op at the median of its key."""
        if self.repeats:
            typical = self._medians()
            return [typical[(c, k)] for i, c, k, _ in self.rows
                    if i == 0 and c == cls]
        return [r[3] for r in self.rows if r[1] == cls]

    def wall(self):
        if self.repeats:
            typical = self._medians()
            return sum(typical[(c, k)] for i, c, k, _ in self.rows if i == 0)
        walls = [0.0] * self.passes
        for i, _, _, dt in self.rows:
            walls[i] += dt
        return statistics.median(walls)


class Workload:
    """Interface: set up, warm up, hand out passes, verify afterwards."""

    name = ""
    primary = ""            # op class behind op_p50_s / op_p90_s
    repeats = True          # passes repeat ops of equal cost
    PASS_S = 1.0            # nominal pass time on a 2-vCPU Xeon VM, seconds

    def __init__(self, root, seed, tiny=False):
        self.root = root
        self.systems = root / "systems"
        self.seed = seed
        self.tiny = tiny

    def rng(self, i):
        return np.random.default_rng([self.seed, i])

    def setup(self):
        pass

    def warmup(self):
        pass

    def make_pass(self, i):
        raise NotImplementedError

    def verify(self):
        """Checks run after the timed phase; returns the failed-op count."""
        return 0

    def extras(self, timings):
        return {}

    def close(self):
        pass


def _seed(rng):
    return int(rng.integers(1, 2**31 - 1))


# ---------------------------------------------------------------------------
# fixtures: every CLI subcommand on every shipped fixture, in process
# ---------------------------------------------------------------------------

class Fixtures(Workload):
    name = "fixtures"
    primary = "cli"
    PASS_S = 5.0
    ANALYZE_SEEDS = 9       # x 6 analyze configurations
    REPEAT = 4              # linzeros and backstep configurations
    SIMULATE_REPEAT = 2

    def setup(self):
        self.tmp = self.root / ".perfbench_tmp" / f"fixtures-{self.seed}"
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        self.horizon = {"mixed": 0.5 if self.tiny else 5.0,
                        "addexam": 0.5 if self.tiny else 8.0}
        self.endpoints = {"mixed": [], "addexam": []}
        self.nops = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    @staticmethod
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        return code, out.getvalue(), err.getvalue()

    def op(self, argv, check, key):
        return Op("cli", lambda: self.call(argv), check, key=key)

    def warmup(self):
        self.call(["analyze", self.systems / "ex34.sys"])
        self.call(["linzeros"] + self._triple("counter3"))

    def _triple(self, name):
        lin = self.systems / "linear"
        return ["--a", lin / f"{name}_A.txt", "--b", lin / f"{name}_B.txt",
                "--c", lin / f"{name}_C.txt"]

    # -- analyze --

    def analyze_op(self, key, seed):
        self.nops += 1
        outdir = self.tmp / f"analyze-{self.nops}"
        sysname, _, flag = key.partition(" ")
        argv = ["analyze", self.systems / f"{sysname}.sys", "--seed", seed,
                "--out", outdir] + ([flag] if flag else [])
        want = oracle.ANALYZE[key]

        def check(res):
            code, out, _ = res
            if code != want["code"]:
                return False
            if "text" in want:
                return want["text"] in out and (outdir / "report.txt").exists()
            report = json.loads((outdir / "report.json").read_text())
            return all(report[k] == want[k] for k in ("rho", "q", "invertibility"))
        return self.op(argv, check, f"analyze {key}")

    # -- linzeros --

    def linzeros_op(self, key):
        name, _, flag = key.partition(" ")
        argv = ["linzeros"] + self._triple(name)
        if flag:
            argv += [flag, self.systems / "linear" / f"{name}_To.txt"]

        def check(res):
            code, out, _ = res
            return code == 0 and all(line in out.splitlines()
                                     for line in oracle.LINZEROS[key])
        return self.op(argv, check, f"linzeros {key}")

    # -- backstep --

    BACKSTEP_ARGS = {
        "mixed": ["nf_mixed", "--kappa", "xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4",
                  "--gains", "xi1_1=0,xi3_1=0,xi2_1=0"],
        "mixed-inadmissible": ["nf_mixed", "--kappa",
                               "xi1_1,xi2_1,xi2_2,xi3_1,xi3_2,xi3_3,xi3_4"],
        "uchain-chain": ["nf_uchain", "--kappa", "xi1_1,xi1_2,xi2_1,xi2_2"],
        "uchain-level": ["nf_uchain", "--kappa", "xi1_1,xi2_1,xi1_2,xi2_2"],
        "semiglobal": ["nf_semiglobal", "--kappa", "xi1_1,xi1_2,xi2_1,xi2_2,xi2_3",
                       "--semi-global", "0.5", "--lengths", "3,2"],
        "addexam": ["nf_addexam", "--kappa", "xi2_1,xi1_1,xi2_2",
                    "--disturbance", "0.5", "--eps", "0",
                    "--budgets", "1/12,1/12,1/12",
                    "--gains", "xi2_1=1,xi1_1=1/3,xi2_2=1"],
    }

    def backstep_op(self, key):
        nf, *rest = self.BACKSTEP_ARGS[key]
        want = oracle.BACKSTEP[key]
        ctl = self.tmp / f"{key}.ctl"
        argv = ["backstep", self.systems / f"{nf}.nf"] + rest
        if want["code"] == 0:
            argv += ["--out", ctl]

        def check(res):
            code, _, err = res
            if code != want["code"]:
                return False
            if code != 0:
                return any(s in err for s in want["stderr"])
            text = ctl.read_text()
            if not all(s in text for s in want.get("text", ())):
                return False
            if "ledger" in want:
                ledger = json.loads(ctl.with_name(ctl.name + ".ledger.json").read_text())
                if len(ledger) != want["ledger"]:
                    return False
            v, _ = backstep.loads_control_law(text)
            return all(oracle.law_matches(v[i - 1], ref, {"gamma": "1/2"})
                       for i, ref in want.get("laws", {}).items())
        return self.op(argv, check, f"backstep {key}")

    # -- simulate --

    X0 = {"mixed": "0.5,0.2,-0.3,0.1,0.2,-0.1,0.3,0.2", "addexam": "0,0,0,0"}

    def simulate_op(self, key):
        csv = self.tmp / f"{key}.csv"
        argv = ["simulate", self.systems / f"nf_{key}.nf",
                "--controller", self.tmp / f"{key}.ctl", "--x0", self.X0[key],
                "--horizon", self.horizon[key], "--csv", csv]
        if key == "addexam":
            argv += ["--signal", "step:2", "--gamma", "0.5"]

        def check(res):
            code, out, _ = res
            if code != 0 or not all(s in out for s in oracle.SIMULATE[key]["text"]):
                return False
            n = len(self.X0[key].split(","))
            last = csv.read_text().rstrip("\n").rsplit("\n", 1)[-1].split(",")
            self.endpoints[key].append([float(v) for v in last[1:n + 1]])
            return True
        return self.op(argv, check, f"simulate {key}")

    def make_pass(self, i):
        rng = self.rng(i)
        nseeds, rep, srep = (1, 1, 1) if self.tiny else \
            (self.ANALYZE_SEEDS, self.REPEAT, self.SIMULATE_REPEAT)
        ops = [self.analyze_op(key, _seed(rng))
               for _ in range(nseeds) for key in oracle.ANALYZE]
        ops += [self.linzeros_op(key) for _ in range(rep) for key in oracle.LINZEROS]
        ops += [self.backstep_op(key) for _ in range(rep) for key in oracle.BACKSTEP]
        ops += [self.simulate_op(key) for _ in range(srep) for key in oracle.SIMULATE]
        return ops

    def verify(self):
        failed = 0
        for key, got in self.endpoints.items():
            if not got:
                continue
            cs, _ = backstep.load_chain_system(self.systems / f"nf_{key}.nf")
            v, W = backstep.loads_control_law((self.tmp / f"{key}.ctl").read_text())
            law = backstep.ControlLaw(cs, [], v, W if W is not None else parse("0"), [])
            fn = oracle.lambdify_rhs(law.closed_loop_rhs(with_disturbance=True),
                                     cs.state_names(), "math")
            x0 = [[float(t) for t in self.X0[key].split(",")]]
            w = (lambda t: 1.0 if 0.0 <= t < 2.0 else 0.0) if key == "addexam" \
                else (lambda t: 0.0)
            ref = oracle.rk4_endpoints(fn, x0, 1e-3, self.horizon[key], w)
            failed += sum(not oracle.endpoints_agree(g, ref) for g in got)
        return failed


# ---------------------------------------------------------------------------
# invariance: structure algorithm on seeded transforms of three systems
# ---------------------------------------------------------------------------

def counter3_system(linear_dir):
    """The counter3 linear triple lifted to an affine system."""
    A, B, C = (load_matrix(linear_dir / f"counter3_{k}.txt") for k in "ABC")
    states = [f"x{i + 1}" for i in range(A.shape[0])]

    def row(coeffs):
        acc = const(0)
        for c, s in zip(coeffs, states):
            acc = acc + const(Fraction(c).limit_denominator(10**9)) * Var(s)
        return acc
    g = [[const(Fraction(v).limit_denominator(10**9)) for v in r] for r in B]
    return sysmodel.AffineSystem(states, [row(r) for r in A], g,
                                 [row(r) for r in C], name="counter3")


class Invariance(Workload):
    name = "invariance"
    primary = "verdict"
    PASS_S = 2.5
    repeats = False         # every pass draws transforms of different cost
    TRIALS = 1              # per pass, per system and transform kind
    KINDS = ("diffeo", "input", "output", "feedback", "injection")

    def setup(self):
        load = sysmodel.load_system
        systems = {"ex31": load(self.systems / "ex31.sys"),
                   "ex32": load(self.systems / "ex32.sys"),
                   "counter3": counter3_system(self.systems / "linear")}
        if self.tiny:
            systems = {"counter3": systems["counter3"]}
        self.cases = {}
        self.setup_failed = 0
        for name, system in systems.items():
            # the base plan of acceptance criterion 3; the workload seed draws
            # the transforms, as invariance_harness's seed does
            pts = sysmodel.SamplePlan(count=25).realize(system)
            base = structure.infinite_zero_algorithm(
                system, sysmodel.SamplePlan(points=pts))
            self.setup_failed += base.q != oracle.INVARIANCE_Q[name]
            self.cases[name] = (system, pts)

    def warmup(self):
        system, pts = self.cases["counter3"]
        structure.infinite_zero_algorithm(system, sysmodel.SamplePlan(points=pts))

    @staticmethod
    def transform(kind, system, pts, rng):
        """One seeded admissible transform, as structure.invariance_harness
        draws them; returns the new system and its sample points."""
        def rand_invertible(sz):
            while True:
                M = rng.integers(-2, 3, size=(sz, sz))
                if abs(round(float(np.linalg.det(M.astype(float))))) >= 1:
                    return M

        def consts(M):
            return SymMatrix([[const(int(v)) for v in row] for row in M])

        if kind == "diffeo":
            T = rand_invertible(system.n)
            Tn = T.astype(float)
            return (structure.apply_state_diffeo(system, T),
                    [Tn @ np.asarray(p) for p in pts])
        if kind == "input":
            Minv = consts(rand_invertible(system.m)).inverse(max_size=max(4, system.m))
            return structure.apply_input_transform(system, Minv), pts
        if kind == "output":
            return structure.apply_output_transform(
                system, consts(rand_invertible(system.p))), pts
        if kind == "feedback":
            K = [const(int(v)) * Var(system.states[i % system.n])
                 for i, v in enumerate(rng.integers(-2, 3, size=system.m))]
            return structure.apply_state_feedback(system, K), pts
        F = rng.integers(-2, 3, size=(system.n, system.p))
        return structure.apply_output_injection(system, consts(F)), pts

    def make_pass(self, i):
        rng = self.rng(i)
        ops = []
        for _ in range(1 if self.tiny else self.TRIALS):
            for name, (system, pts) in self.cases.items():
                for kind in self.KINDS:
                    ops += self.pair(name, kind, system, pts, rng)
        return ops

    def pair(self, name, kind, system, pts, rng):
        held = {}

        def build():
            return self.transform(kind, system, pts, rng)

        def keep(res):
            held["sys"], held["pts"] = res
            return True

        def verdict():
            return structure.infinite_zero_algorithm(
                held["sys"], sysmodel.SamplePlan(points=held["pts"]))

        def check(res):
            return res.regular and res.q == oracle.INVARIANCE_Q[name]
        return [Op("transform", build, keep), Op("verdict", verdict, check)]

    def verify(self):
        return self.setup_failed

    def extras(self, timings):
        return {"transform_p50_s": (percentile(timings.latencies("transform"), 50), "s")}


# ---------------------------------------------------------------------------
# assumption-d: check_assumption_D on ex33 (False) and ex31 (True)
# ---------------------------------------------------------------------------

class AssumptionD(Workload):
    name = "assumption-d"
    primary = "check"
    PASS_S = 22.0
    EX31_CALLS = 4          # per pass, beside one ex33 call

    def setup(self):
        plan = sysmodel.SamplePlan
        self.cases = {}
        ex33 = sysmodel.load_system(self.systems / "ex33.sys")
        out33 = structure.zero_output_algorithm(ex33, plan(count=60, seed=self.seed))
        self.cases["ex33"] = (ex33, out33, normalform.build_normal_form(ex33, out33))
        ex31 = sysmodel.load_system(self.systems / "ex31.sys")
        out31 = structure.infinite_zero_algorithm(ex31, plan(count=40, seed=self.seed))
        self.cases["ex31"] = (ex31, out31, normalform.build_normal_form(ex31, out31))

    def warmup(self):
        normalform.check_assumption_D(*self.cases["ex31"])

    def op(self, name, seed):
        system, outcome, nf = self.cases[name]
        want = oracle.ASSUMPTION_D[name]
        return Op("check",
                  lambda: normalform.check_assumption_D(system, outcome, nf, seed=seed),
                  lambda res: res is want, key=name)

    def make_pass(self, i):
        rng = self.rng(i)
        ops = [] if self.tiny else [self.op("ex33", _seed(rng))]
        return ops + [self.op("ex31", _seed(rng)) for _ in range(self.EX31_CALLS)]


# ---------------------------------------------------------------------------
# montecarlo: batch_simulate on synthesized closed loops, in both regimes
# ---------------------------------------------------------------------------

class MonteCarlo(Workload):
    name = "montecarlo"
    primary = "batch"
    PASS_S = 9.0
    SIZES = {"batch": 1000, "small": 2}   # runs per batch, by op class
    DT = 2e-3
    HORIZON = 5.0

    def setup(self):
        cs, stab = backstep.load_chain_system(self.systems / "nf_uchain.nf")
        csm, stabm = backstep.load_chain_system(self.systems / "nf_mixed.nf")
        kappa = backstep.parse_kappa
        laws = {
            "chain": backstep.synthesize(cs, kappa("xi1_1,xi1_2,xi2_1,xi2_2"), stab),
            "level": backstep.synthesize(cs, kappa("xi1_1,xi2_1,xi1_2,xi2_2"), stab),
            "mixed": backstep.synthesize(
                csm, kappa("xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4"), stabm,
                gains={"xi1_1": 0, "xi3_1": 0, "xi2_1": 0}),
        }
        self.loops = {k: (law.closed_loop_rhs(), law.system.state_names())
                      for k, law in laws.items()}
        self.horizon = 0.2 if self.tiny else self.HORIZON
        self.sizes = {"batch": 20, "small": 2} if self.tiny else self.SIZES
        self.steps = int(round(self.horizon / self.DT))
        self.results = {k: [] for k in self.loops}

    def warmup(self):
        for rhs, names in self.loops.values():
            for nruns in self.sizes.values():
                simkit.batch_simulate(rhs, names, [(-1.0, 1.0)] * len(names),
                                      nruns=nruns, master_seed=0,
                                      cfg=simkit.SimConfig(dt=self.DT,
                                                           horizon=10 * self.DT))

    def op(self, cls, key, master):
        rhs, names = self.loops[key]
        nruns = self.sizes[cls]
        box = [(-1.0, 1.0)] * len(names)
        cfg = simkit.SimConfig(dt=self.DT, horizon=self.horizon)

        def run():
            b = simkit.batch_simulate(rhs, names, box, nruns=nruns,
                                      master_seed=master, cfg=cfg)
            return b["trace"].x[0].copy(), b["trace"].x[-1].copy(), b["diverged"]

        def check(res):
            x0, xend, diverged = res
            want = np.random.default_rng(master).uniform(
                -1.0, 1.0, size=(nruns, len(names)))
            self.results[key].append((x0, xend))
            return not diverged and np.array_equal(x0, want) and \
                xend.shape == x0.shape
        return Op(cls, run, check, key=key)

    def make_pass(self, i):
        rng = self.rng(i)
        return [self.op(cls, key, _seed(rng)) for cls in self.sizes
                for key in self.loops]

    def verify(self):
        failed = 0
        for key, batches in self.results.items():
            if not batches:
                continue
            rhs, names = self.loops[key]
            fn = oracle.lambdify_rhs(rhs, names)
            ref = oracle.rk4_endpoints(fn, np.vstack([b[0] for b in batches]),
                                       self.DT, self.horizon)
            rows = np.cumsum([0] + [len(b[0]) for b in batches])
            failed += sum(not oracle.endpoints_agree(b[1], ref[lo:hi])
                          for b, lo, hi in zip(batches, rows[:-1], rows[1:]))
        return failed

    def extras(self, timings):
        large = timings.latencies("batch")
        small = timings.latencies("small")
        return {
            "mc_run_steps_per_s":
                (self.sizes["batch"] * self.steps * len(large) / sum(large), "1/s"),
            "small_batch_step_us":
                (1e6 * sum(small) / (self.steps * len(small)), "us"),
        }


WORKLOADS = {w.name: w for w in (Fixtures, Invariance, AssumptionD, MonteCarlo)}


def percentile(values, p):
    """Nearest-rank percentile: always one of the measured values."""
    vals = sorted(values)
    if not vals:
        return float("nan")
    k = max(1, -(-len(vals) * p // 100))
    return vals[int(k) - 1]
