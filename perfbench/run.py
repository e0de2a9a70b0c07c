"""normform benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 17 --trace 0
    python3 perfbench/run.py --workload all          # every workload, a table
    python3 perfbench/run.py --compare base.jsonl new.jsonl

The last stdout line of a workload run is one JSON object with the keys
correct / attempted / failed / metrics.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
A line starting with ``record `` carries every metric (including the
extras that apply to one workload only) and the machine description;
``--save FILE`` appends it to FILE for ``--compare``.  See NOTES.md.
"""

from __future__ import annotations

import os

# one thread per process everywhere, set before numpy is first imported
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001        # keep out of tuning; confirm claims with it
DEFAULT_SECONDS = 17
SETUP_PROBES = 4            # fresh processes timing set-up, plus this one
MIN_COVERAGE = 0.95         # share of traced op time that spans must cover
WORKLOAD_NAMES = ["fixtures", "invariance", "assumption-d", "montecarlo"]
# metrics reported beside the end-to-end ones, on the workloads they apply to
EXTRA_METRICS = {
    "fail_ratio": ("ratio", "lower", 0.0),
    "ops": ("count", "higher", None),
    "transform_p50_s": ("s", "lower", 0.25),
    "mc_run_steps_per_s": ("1/s", "higher", 0.25),
    "small_batch_step_us": ("us", "lower", 0.25),
    "machine_speed": ("ratio", "higher", None),
}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Put the checkout's src/ first on the path and import normform from it."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import normform
    if Path(normform.__file__).resolve().parent != ROOT / "src" / "normform":
        raise ImportError(f"normform imported from {normform.__file__}, "
                          f"not from {ROOT / 'src'}")


def timed_setup(name, seed, tiny=False):
    """Import the program, load the fixtures and run the workload's set-up;
    returns the workload and the set-up time at the reference speed."""
    t0 = time.perf_counter()
    import_program()
    import workloads
    wl = workloads.WORKLOADS[name](ROOT, seed, tiny)
    wl.setup()
    seconds = time.perf_counter() - t0
    return wl, seconds * workloads.REF_S / workloads.reference_time(20)


def probe_setup(name, seed, count):
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--workload", name, "--seed", str(seed),
                              "--setup-probe"],
                             cwd=ROOT, env={**os.environ, **BLAS_ENV},
                             capture_output=True, text=True, timeout=170,
                             check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_passes(wl, passes, timings, tracer=None):
    """Hand the program `passes` whole passes; returns the attempted and
    failed op counts."""
    from workloads import SpeedProbe, reference_time
    attempted = failed = 0
    with SpeedProbe() as probe:
        for i in range(passes):
            for slot, op in enumerate(wl.make_pass(i)):
                ref = reference_time()
                t0 = time.perf_counter()
                try:
                    res = tracer.span(f"op:{op.cls}", op.fn) if tracer else op.fn()
                except Exception as exc:  # an op that raises counts as failed
                    print(f"op {op.cls} raised {exc!r}", file=sys.stderr)
                    res = exc
                timings.add(i, op.cls, slot if op.key is None else op.key,
                            t0, time.perf_counter(), ref)
                attempted += 1
                ok = not isinstance(res, Exception) and op.check(res)
                failed += not ok
        timings.finish(reference_time(), probe)
    return attempted, failed


def layer_metrics(tracer, traced, plain):
    from spans import SIMPLIFY, per_layer_names
    stats, _, _ = tracer.aggregate()
    out = {}
    for name, unit, _ in per_layer_names():
        base, _, field = name.rpartition(".")
        calls, total, self_s = stats.get(base, (0, 0.0, 0.0))
        value = {"calls": calls, "total_s": total, "self_s": self_s}.get(field)
        out[name] = (value, unit)
    ncalls = stats.get(SIMPLIFY, (0,))[0]
    out[f"{SIMPLIFY}.noop_ratio"] = (tracer.simplify_noop / ncalls if ncalls else 0.0,
                                     "ratio")
    out[f"{SIMPLIFY}.out_nodes_max"] = (tracer.simplify_nodes_max, "nodes")
    out["tracing.overhead_ratio"] = (traced.total() / plain.total(), "ratio")
    coverage, below = tracer.op_coverage()
    out["tracing.op_coverage"] = (coverage, "ratio")
    if below:
        print(f"{below} traced ops have under 95% of their time in spans "
              "(preemption or garbage collection between spans)", file=sys.stderr)
    return out


def measure(name, seed, seconds, trace=False, tiny=False, probes=SETUP_PROBES):
    """Run one workload; returns the full record."""
    wl, setup_own = timed_setup(name, seed, tiny)
    from workloads import Timings, percentile
    try:
        setups = [setup_own] + probe_setup(name, seed, probes)
        wl.warmup()
        # the pass count follows from --seconds and the workload's nominal
        # pass time, so that parent and change take their medians over the
        # same number of repeats
        passes = max(1, int((seconds / 2 if trace else seconds) / wl.PASS_S + 0.5))
        timings = Timings(wl.repeats)
        attempted, failed = run_passes(wl, passes, timings)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {}
        if trace:
            from spans import Tracer
            tracer = Tracer().install()
            traced = Timings(wl.repeats)
            try:
                tatt, tfail = run_passes(wl, passes, traced, tracer)
            finally:
                tracer.uninstall()
            attempted += tatt
            failed += tfail
            metrics.update(layer_metrics(tracer, traced, timings))
            # spans must account for the traced ops' time
            failed += metrics["tracing.op_coverage"][0] < MIN_COVERAGE
            tracer.write(ROOT / ".perfbench_out" / f"spans-{name}-{seed}.npz")
        failed += wl.verify()
        ops = timings.latencies(wl.primary)
        metrics.update({
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (timings.wall(), "s"),
            "op_p50_s": (percentile(ops, 50), "s"),
            "op_p90_s": (percentile(ops, 90), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "fail_ratio": (failed / attempted, "ratio"),
            "ops": (len(ops), "count"),
            "machine_speed": (timings.speed(), "ratio"),
        })
        metrics.update(wl.extras(timings))
    finally:
        wl.close()
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "passes": timings.passes, "attempted": attempted,
            "failed": failed, "metrics": metrics, "env": machine()}


def machine():
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def result_line(record, spec):
    """The result line: end-to-end or per-layer metrics only."""
    if record["trace"]:
        names = [m["name"] for m in spec["per_layer"]]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {n: {"value": record["metrics"][n][0], "unit": record["metrics"][n][1]}
               for n in names}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_record(record):
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {record['passes']} passes, "
          f"{record['attempted']} ops, {record['failed']} failed")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    env = record["env"]
    print(f"  machine: {env['nproc']} cpus, {env['cpu']}, python {env['python']}, "
          f"numpy {env['numpy']}, commit {env['commit']}")


def run_all(args):
    """Every workload in a fresh process of its own, then one table."""
    records = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.save:
            argv += ["--save", args.save]
        out = subprocess.run(argv, cwd=ROOT, env={**os.environ, **BLAS_ENV},
                             capture_output=True, text=True, check=True)
        line = next(ln for ln in out.stdout.splitlines() if ln.startswith("record "))
        records.append(json.loads(line[len("record "):]))
    names = []
    for r in records:
        names += [n for n in r["metrics"] if n not in names]
    print(f"{'metric':<40}" + "".join(f"{r['workload']:>18}" for r in records))
    for n in names:
        cells = []
        for r in records:
            v = r["metrics"].get(n)
            cells.append(f"{v[0]:>12.5g} {v[1]:<5}" if v else f"{'n/a':>18}")
        print(f"{n:<40}" + "".join(cells))
    return 0 if all(r["failed"] == 0 for r in records) else 1


def compare(base_path, new_path, spec):
    """Median and quartiles per workload and metric for two result sets;
    flags a new median worse than the base one by more than its bound."""
    bounds = {m["name"]: (m["unit"], m["better"], m.get("bound"))
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds.update(EXTRA_METRICS)

    def load(path):
        sets = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                r = json.loads(line)
                for n, (v, _) in r["metrics"].items():
                    sets.setdefault((r["workload"], r["trace"]), {}) \
                        .setdefault(n, []).append(v)
        return sets

    def stats(vals):
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        return q[1], q[0], q[2]

    base, new = load(base_path), load(new_path)
    worse = 0
    for key in sorted(base.keys() & new.keys()):
        print(f"== {key[0]}" + (" (traced)" if key[1] else ""))
        for n in base[key]:
            if n not in new[key]:
                continue
            unit, better, bound = bounds.get(n, ("", "lower", None))
            (bm, b1, b3), (nm, n1, n3) = stats(base[key][n]), stats(new[key][n])
            change = (nm - bm) / bm if bm else 0.0
            regress = change if better == "lower" else -change
            flag = ""
            if bound is not None and (regress > bound or
                                      (bound == 0.0 and nm != bm and regress > 0)):
                flag = "  WORSE"
                worse += 1
            print(f"  {n:<40} {bm:>11.5g} [{b1:.4g}, {b3:.4g}]  ->  "
                  f"{nm:>11.5g} [{n1:.4g}, {n3:.4g}] {unit:<6} {change:+7.1%}{flag}")
    return 1 if worse else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; "
                         f"held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="length of the timed phase at the nominal speed; "
                         "it sets the number of passes")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save", help="append the full record to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        _, setup = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup}))
        return 0
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 1
    print_record(record)
    print("record " + json.dumps(record))
    if args.save:
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
