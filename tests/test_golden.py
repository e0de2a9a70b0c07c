"""Golden outputs: `analyze`, `linzeros` and `backstep` followed by
`simulate` must reproduce the files under tests/golden byte for byte.

Regenerate them (only after checking that a change of output is intended)
with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from normform.cli import main

REPO = Path(__file__).resolve().parent.parent
SYS = REPO / "systems"
LIN = SYS / "linear"
GOLDEN = Path(__file__).resolve().parent / "golden"

ANALYZE = [(path.stem, zero) for path in sorted(SYS.glob("*.sys"))
           for zero in (False, True)]
LINEAR = ["counter3", "exam1", "exam2", "exam_sch", "exam_sch_To"]
# (chain system, backstep arguments, simulate arguments) per case
SIMULATE = {
    "nf_mixed": ("nf_mixed",
                 ["--kappa", "xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4",
                  "--gains", "xi1_1=0,xi3_1=0,xi2_1=0"],
                 ["--x0", "0.5,0.2,-0.3,0.1,0.2,-0.1,0.3,0.2"]),
    "nf_addexam": ("nf_addexam",
                   ["--kappa", "xi2_1,xi1_1,xi2_2", "--disturbance", "0.5",
                    "--eps", "0", "--budgets", "1/12,1/12,1/12",
                    "--gains", "xi2_1=1,xi1_1=1/3,xi2_2=1"],
                   ["--x0", "0,0,0,0", "--signal", "step:0.5", "--gamma", "0.5"]),
    "nf_uchain_chain": ("nf_uchain", ["--kappa", "xi1_1,xi1_2,xi2_1,xi2_2"],
                        ["--x0", "0.4,0.1,-0.2,0.3,0.2"]),
    "nf_uchain_level": ("nf_uchain", ["--kappa", "xi1_1,xi2_1,xi1_2,xi2_2"],
                        ["--x0", "0.4,0.1,-0.2,0.3,0.2"]),
    # float low-gain laws: the case most sensitive to the order of a sum
    "nf_semiglobal": ("nf_semiglobal",
                      ["--kappa", "xi1_1,xi1_2,xi2_1,xi2_2,xi2_3",
                       "--semi-global", "0.5", "--lengths", "3,2"],
                      ["--x0", "0.3,0.2,-0.1,0.1,0.2,-0.2"]),
}


def _analyze_name(stem, zero):
    return stem + ("_zero-output" if zero else "")


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    return code, buf.getvalue()


def _analyze(stem, zero, outdir):
    """{file name: text} of one `analyze` run with the default plan."""
    argv = ["analyze", SYS / f"{stem}.sys", "--out", outdir]
    if zero:
        argv.append("--zero-output")
    code, out = _run(argv)
    name = _analyze_name(stem, zero)
    return {f"{name}.stdout": f"exit {code}\n{out}",
            f"{name}.report.txt": (Path(outdir) / "report.txt").read_text(),
            f"{name}.report.json": (Path(outdir) / "report.json").read_text()}


def _linzeros(name):
    base = name.removesuffix("_To")
    argv = ["linzeros"] + [arg for key in "abc"
                           for arg in (f"--{key}", LIN / f"{base}_{key.upper()}.txt")]
    if name.endswith("_To"):
        argv += ["--output-transform", LIN / f"{name}.txt"]
    code, out = _run(argv)
    return {f"{name}.stdout": f"exit {code}\n{out}"}


def _simulate(case, outdir):
    """{file name: text} of `backstep` to stdout, then `simulate` of its
    controller to stdout."""
    stem, backstep_args, simulate_args = SIMULATE[case]
    nf = SYS / f"{stem}.nf"
    code, out = _run(["backstep", nf, *backstep_args])
    files = {f"{case}.backstep.stdout": f"exit {code}\n{out}"}
    # stdout is the controller file followed by its JSON ledger
    ctl = Path(outdir) / f"{case}.ctl"
    ctl.write_text(out[:out.rindex("\n[") + 1])
    code, out = _run(["simulate", nf, "--controller", ctl, *simulate_args,
                      "--dt", "0.01", "--horizon", "1"])
    files[f"{case}.simulate.stdout"] = f"exit {code}\n{out}"
    return files


@pytest.mark.parametrize("stem,zero", ANALYZE,
                         ids=[_analyze_name(*case) for case in ANALYZE])
def test_analyze_golden(stem, zero, tmp_path):
    for fname, text in _analyze(stem, zero, tmp_path).items():
        assert text == (GOLDEN / "analyze" / fname).read_text(), fname


@pytest.mark.parametrize("name", LINEAR)
def test_linzeros_golden(name):
    for fname, text in _linzeros(name).items():
        assert text == (GOLDEN / "linzeros" / fname).read_text(), fname


@pytest.mark.parametrize("case", SIMULATE)
def test_simulate_golden(case, tmp_path):
    for fname, text in _simulate(case, tmp_path).items():
        assert text == (GOLDEN / "simulate" / fname).read_text(), fname


def regenerate():
    for sub in ("analyze", "linzeros", "simulate"):
        (GOLDEN / sub).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for stem, zero in ANALYZE:
            files.update({f"analyze/{k}": v
                          for k, v in _analyze(stem, zero, tmp).items()})
        for case in SIMULATE:
            files.update({f"simulate/{k}": v
                          for k, v in _simulate(case, tmp).items()})
    for name in LINEAR:
        files.update({f"linzeros/{k}": v for k, v in _linzeros(name).items()})
    for rel, text in files.items():
        (GOLDEN / rel).write_text(text)


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
