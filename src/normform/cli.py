"""Command-line front end: analyze / linzeros / backstep / simulate."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .backstep import (W_NAME, ControlLaw, OrderViolation, da_synthesize,
                       dump_control_law, load_chain_system, loads_control_law,
                       parse_kappa, semi_global_synthesize, synthesize)
from .expr import Var, parse, render
from .linstruct import (LinearTriple, decompose, load_matrix,
                        vector_relative_degree)
from .simkit import (SimConfig, _gain_terms, l2_gain_check, noise_signal,
                     simulate, step_signal, trace_to_csv, zero_signal)
from .structure import (StructureError, infinite_zero_algorithm,
                        zero_output_algorithm)
from .sysmodel import SamplePlan, SystemFormatError, load_system

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_STRUCTURAL = 2


def _add_common(p):
    p.add_argument("--tol", type=float, default=1e-8,
                   help="numeric rank tolerance (default 1e-8)")
    p.add_argument("--samples", type=int, default=200,
                   help="sample count for rank certification (default 200)")
    p.add_argument("--seed", type=int, default=42, help="sampling seed")


@functools.cache
def build_parser():
    """The `normform` argument parser, built once per process and shared by
    every `main` call (parsing does not change it), so it is not to be
    modified."""
    ap = argparse.ArgumentParser(
        prog="normform",
        description="Structure analysis and backstepping synthesis for "
                    "control-affine systems")
    ap.add_argument("--version", action="version", version=f"normform {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the structure algorithm on a system file")
    pa.add_argument("system")
    pa.add_argument("--zero-output", action="store_true",
                    help="use the zero output structure algorithm")
    pa.add_argument("--out", help="directory for report.txt / report.json")
    _add_common(pa)

    pl = sub.add_parser("linzeros", help="infinite zeros of a linear triple")
    pl.add_argument("--a", required=True)
    pl.add_argument("--b", required=True)
    pl.add_argument("--c", required=True)
    pl.add_argument("--output-transform", help="matrix file applied to C")
    pl.add_argument("--tol", type=float, default=1e-9)

    pb = sub.add_parser("backstep", help="synthesize a controller for a chain system")
    pb.add_argument("system", help="chain-system (.nf) file")
    pb.add_argument("--kappa", required=True, help="comma list of chain variables")
    pb.add_argument("--gains", default="", help="per-step gains name=c,...")
    pb.add_argument("--semi-global", type=float, dest="semi_global", metavar="EPS",
                    help="semi-global design with low-gain parameter EPS")
    pb.add_argument("--lengths", help="driving-slot list for --semi-global")
    pb.add_argument("--disturbance", type=float, metavar="GAMMA",
                    help="dissipative design with base attenuation level GAMMA")
    pb.add_argument("--eps", type=float, default=0.1,
                    help="supply-rate slack for --disturbance (default 0.1)")
    pb.add_argument("--budgets", help="explicit per-step supply budgets")
    pb.add_argument("--out", help="controller output file (default stdout)")

    ps = sub.add_parser("simulate", help="simulate a closed loop and emit CSV")
    ps.add_argument("system", help="chain-system (.nf) file")
    ps.add_argument("--controller", required=True, help="controller (.ctl) file")
    ps.add_argument("--x0", required=True, help="comma list of initial state values")
    ps.add_argument("--signal", default="zero",
                    help="disturbance: zero | step:T_OFF[:SCALE] | noise:SEED")
    ps.add_argument("--dt", type=float, default=1e-3)
    ps.add_argument("--horizon", type=float, default=10.0)
    ps.add_argument("--integrator", choices=["rk4", "euler"], default="rk4")
    ps.add_argument("--gamma", type=float, help="also run the L2-gain check")
    ps.add_argument("--v0", type=float, default=0.0, help="storage offset W(x0)")
    ps.add_argument("--csv", help="CSV output path (default stdout)")
    return ap


def cmd_analyze(args):
    system = load_system(args.system)
    plan = SamplePlan(count=args.samples, seed=args.seed)
    algo = zero_output_algorithm if args.zero_output else infinite_zero_algorithm
    outcome = algo(system, plan, tol=args.tol)
    text = outcome.report_text()
    sys.stdout.write(text)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.txt").write_text(text, encoding="utf-8")
        (outdir / "report.json").write_text(
            json.dumps(outcome.report_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return EXIT_OK if outcome.regular else EXIT_STRUCTURAL


def cmd_linzeros(args):
    A = load_matrix(args.a)
    B = load_matrix(args.b)
    C = load_matrix(args.c)
    if args.output_transform:
        T = load_matrix(args.output_transform)
        if T.shape[1] != C.shape[0]:
            raise ValueError(f"output transform is {T.shape[0]}x{T.shape[1]}, "
                             f"C is {C.shape[0]}x{C.shape[1]}: the transform "
                             f"needs one column per row of C")
        C = T @ C
    triple = LinearTriple(A, B, C)
    dec = decompose(triple, tol=args.tol)
    print("q = {" + ", ".join(str(v) for v in dec.outcome.q) + "}")
    print(f"invertibility: {dec.outcome.invertibility}")
    if triple.m == triple.p:
        vrd = vector_relative_degree(triple, tol=args.tol)
        if vrd is None:
            print("vector relative degree: none")
        else:
            print("vector relative degree: {" + ", ".join(str(v) for v in vrd) + "}")
    print(f"block pattern residual: {dec.verify_block_pattern():.3e}")
    for wmsg in dec.warnings:
        print(f"warning: {wmsg}")
    return EXIT_OK


def _parse_gains(text):
    pairs = (part.partition("=") for part in text.split(",") if part.strip())
    return {name.strip(): Fraction(val.strip()) for name, _, val in pairs}


def cmd_backstep(args):
    cs, stab = load_chain_system(args.system)
    if stab is None:
        raise SystemFormatError("chain-system file carries no [stabilizer] section")
    kappa = parse_kappa(args.kappa)
    gains = _parse_gains(args.gains)
    if args.semi_global is not None:
        lengths = [int(v) for v in parse_kappa(args.lengths or "")]
        law = semi_global_synthesize(cs, lengths, kappa, stab,
                                     args.semi_global, gains=gains)
    elif args.disturbance is not None:
        budgets = None
        if args.budgets:
            budgets = [parse(tok) for tok in args.budgets.split(",")]
        law = da_synthesize(cs, kappa, stab, args.disturbance, args.eps,
                            budgets=budgets, gains=gains)
    else:
        law = synthesize(cs, kappa, stab, gains=gains)
    text = dump_control_law(law)
    ledger = [{
        "step": e["step"], "var": e["var"], "target": e["target"],
        "gain": str(e["gain"]), "z": render(e["z"]), "law": render(e["law"]),
        "budget": render(e["budget"]) if e["budget"] is not None else None,
    } for e in law.ledger]
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        Path(args.out + ".ledger.json").write_text(
            json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
        sys.stdout.write(json.dumps(ledger, indent=2) + "\n")
    return EXIT_OK


def _number(flag, what, text, convert=float):
    """A field of a command-line value, a float or an int >= 0; a refusal
    names the flag and the field."""
    try:
        value = convert(text)
        if convert is float or value >= 0:
            return value
    except ValueError:
        pass
    kind = "a number" if convert is float else "an integer >= 0"
    raise ValueError(f"{flag} {what} must be {kind}, got {text!r}")


def _make_signal(spec, horizon):
    kind, *fields = spec.split(":")
    most = {"zero": 0, "step": 2, "noise": 1}.get(kind)
    if most is None:
        raise ValueError(f"unknown signal spec {spec!r}")
    if len(fields) > most:
        raise ValueError(f"signal spec {spec!r} has too many fields: {kind} "
                         f"takes at most {most}")
    if kind == "zero":
        return zero_signal()
    if kind == "step":
        off = _number("--signal", "step off-time", fields[0]) if fields else 1.0
        scale = (_number("--signal", "step scale", fields[1])
                 if len(fields) > 1 else 1.0)
        return step_signal(off, scale)
    seed = _number("--signal", "noise seed", fields[0], int) if fields else 0
    return noise_signal(seed, horizon=horizon)


def cmd_simulate(args):
    cs, _ = load_chain_system(args.system)
    v, W = loads_control_law(Path(args.controller).read_text(encoding="utf-8"),
                             cs.state_names() + [W_NAME])
    if len(v) != cs.m:
        raise ValueError(f"controller has {len(v)} inputs, system wants {cs.m}")
    law = ControlLaw(cs, [], v, W if W is not None else parse("0"), [])
    rhs = law.closed_loop_rhs(with_disturbance=True)
    names = cs.state_names()
    x0 = [_number("--x0", f"value {i}", t)
          for i, t in enumerate(args.x0.split(","), 1)]
    cfg = SimConfig(dt=args.dt, horizon=args.horizon, integrator=args.integrator)
    signal = _make_signal(args.signal, cfg.horizon)
    # refused before the run, not after; --v0 also without --gamma
    _gain_terms(0.0 if args.gamma is None else args.gamma, args.v0)
    outputs = [Var(cs.xi_name(i + 1, 1)) for i in range(cs.m)]
    trace = simulate(rhs, names, x0, cfg=cfg, w_signal=signal,
                     input_exprs=law.v, output_exprs=outputs, V_expr=W)
    csv = trace_to_csv(trace)
    if args.csv:
        Path(args.csv).write_text(csv, encoding="utf-8")
        print(f"wrote {args.csv} ({len(trace.t)} rows, diverged={trace.diverged})")
    else:
        sys.stdout.write(csv)
    if args.gamma is not None:
        res = l2_gain_check(trace, args.gamma, V0=args.v0)
        print(f"l2 gain check: lhs={res['lhs']:.6g} rhs={res['rhs']:.6g} "
              f"pass={res['pass']}")
    return EXIT_OK


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    commands = {"analyze": cmd_analyze, "linzeros": cmd_linzeros,
                "backstep": cmd_backstep, "simulate": cmd_simulate}
    try:
        return commands[args.command](args)
    except OrderViolation as exc:
        print(f"order violation: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except (OSError, StructureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
