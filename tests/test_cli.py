"""CLI contract: exit codes, reports, controller and trace files."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from normform.cli import main

REPO = Path(__file__).resolve().parent.parent
SYS = REPO / "systems"
LIN = SYS / "linear"


def run_main(argv, capsys):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_five_state(tmp_path, capsys):
    code, out, _ = run_main(["analyze", SYS / "ex31.sys", "--samples", "40",
                             "--out", tmp_path], capsys)
    assert code == 0
    assert "q = {2, 3}" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["q"] == [2, 3]
    assert report["invertibility"] == "Invertible"
    assert (tmp_path / "report.txt").exists()


def test_analyze_zero_output(capsys):
    code, out, _ = run_main(["analyze", "--zero-output", SYS / "ex33.sys",
                             "--samples", "60"], capsys)
    assert code == 0
    assert "q = {1, 2}" in out


def test_zero_output_projection_makes_no_lstsq_call(monkeypatch, capsys):
    # the projection takes every sample's step from one batched SVD per round
    import numpy as np
    calls = []
    real = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    code, out, _ = run_main(["analyze", "--zero-output", SYS / "ex33.sys"], capsys)
    assert code == 0 and "q = {1, 2}" in out
    assert calls == []


def test_analyze_nonregular_exit_2(tmp_path, capsys):
    code, out, _ = run_main(["analyze", SYS / "remark_nonregular.sys",
                             "--samples", "30", "--out", tmp_path], capsys)
    assert code == 2
    assert "rank not constant" in out
    assert (tmp_path / "report.txt").exists()  # report written on failure too


def test_analyze_undefined_entry_exit_2(tmp_path, capsys):
    # g1 = x1/(x1 + x2) is 0/0 at the origin, which is always sampled
    path = tmp_path / "undefined.sys"
    path.write_text("[states]\n[x1, x2]\n[f]\n[0, 0]\n[g]\n[x1/(x1+x2)]\n[1]\n"
                    "[h]\n[x1]\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_main(["analyze", path, "--out", tmp_path / "rep"], capsys)
    assert code == 2
    assert any(line.startswith("not regular at step 1: evaluation failed: ")
               and line.endswith(" at [0. 0.]") for line in out.splitlines())
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["failure"]["step"] == 1


def test_analyze_without_a_constant_row_selection_exit_2(tmp_path, capsys):
    # L_g h = [2*x3, 0] for x3 >= 0 and [0, 2 - 4*x3] for x3 <= 0 (up to
    # x3 = 1/2): rank 1 everywhere, but no single output row keeps it
    path = tmp_path / "rows.sys"
    path.write_text("[states]\n[x1, x2, x3]\n[f]\n[0, 0, 0]\n[g]\n"
                    "[x3 + abs(x3)]\n[1 - 2*x3 + abs(1 - 2*x3)]\n[0]\n"
                    "[h]\n[x1, x2]\n[domain]\nx3: [-1, 2]\n")
    code, out, _ = run_main(["analyze", path], capsys)
    assert code == 2
    assert ("not regular at step 1: no constant 0/1 row selection R_k gives a "
            "full-row-rank stack at all samples (Assumption A_k fails)\n") in out


@pytest.mark.parametrize("f, h, line, message", [
    ("x2 + 1, x1", "x1", 4, "f(0)≠0: component 1 is 1 + x2 at x=0"),
    ("1/x1, x1", "x1", 4, None),                # undefined at the origin
    ("x2, x1", "sqrt(x1 - 1)", 9, None),
])
def test_analyze_system_not_zero_at_the_origin_exit_1(tmp_path, capsys, f, h,
                                                       line, message):
    path = tmp_path / "origin.sys"
    path.write_text(f"[states]\n[x1, x2]\n[f]\n[{f}]\n[g]\n[0]\n[1]\n"
                    f"[h]\n[{h}]\n")
    code, out, err = run_main(["analyze", path], capsys)
    assert code == 1 and out == ""
    # one line, no traceback
    assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1
    if message is not None:
        assert err == f"error: line {line}: {message}\n"


def test_analyze_missing_file(capsys):
    code, _, err = run_main(["analyze", SYS / "does_not_exist.sys"], capsys)
    assert code == 1
    assert "error" in err


def test_linzeros_counter3(capsys):
    code, out, _ = run_main(
        ["linzeros", "--a", LIN / "counter3_A.txt", "--b",
         LIN / "counter3_B.txt", "--c", LIN / "counter3_C.txt"], capsys)
    assert code == 0
    assert "q = {1, 4}" in out


def test_linzeros_relative_degree_transform(capsys):
    base = ["linzeros", "--a", LIN / "exam_sch_A.txt", "--b",
            LIN / "exam_sch_B.txt", "--c", LIN / "exam_sch_C.txt"]
    code, out, _ = run_main(base, capsys)
    assert code == 0 and "vector relative degree: none" in out
    code, out, _ = run_main(base + ["--output-transform",
                                    LIN / "exam_sch_To.txt"], capsys)
    assert code == 0 and "vector relative degree: {1, 2}" in out


def _linzeros(tmp_path, capsys, A, B, C):
    argv = ["linzeros"]
    for flag, rows in (("--a", A), ("--b", B), ("--c", C)):
        (tmp_path / flag[2:]).write_text(rows)
        argv += [flag, tmp_path / flag[2:]]
    return run_main(argv, capsys)


def test_linzeros_warns_of_an_ill_conditioned_transformation(tmp_path, capsys):
    code, out, _ = _linzeros(tmp_path, capsys, "0 1e13\n0 0\n", "0\n1e-13\n",
                             "1 0\n")
    assert code == 0 and "q = {2}" in out
    assert "warning: ill-conditioned transformation (cond 1.00e+13)\n" in out


def test_linzeros_refuses_a_rank_at_the_tolerance_edge_without_a_traceback(
        tmp_path, capsys):
    # C B = C has rank 2 at linzeros' tol 1e-9, but no two of its rows keep it
    assert _linzeros(tmp_path, capsys, "0 0\n0 0\n", "1 0\n0 1\n",
                     "1 0\n0 8e-10\n0 8e-10\n") == (
        1, "", "error: row selection failed for a constant triple\n")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_a_tol_not_positive_and_finite_is_refused(capsys, tol):
    # nan and inf read every rank as 0, -1 every rank as full, and linzeros
    # at nan ended in a numpy error
    for argv in (["analyze", SYS / "ex31.sys"],
                 ["linzeros", "--a", LIN / "exam1_A.txt", "--b",
                  LIN / "exam1_B.txt", "--c", LIN / "exam1_C.txt"]):
        assert run_main(argv + ["--tol", tol], capsys) == (
            1, "", "error: rank tolerance must be positive and finite, "
                   f"got {float(tol)}\n")


@pytest.mark.parametrize("flag", ["--a", "--b", "--c", "--output-transform"])
@pytest.mark.parametrize("word", ["nan", "inf", "infinity"])
def test_linzeros_refuses_a_matrix_entry_that_is_not_finite(tmp_path, capsys,
                                                           flag, word):
    files = {"--a": "A", "--b": "B", "--c": "C", "--output-transform": "To"}
    argv = ["linzeros"]
    for f, key in files.items():
        path = LIN / f"exam_sch_{key}.txt"
        if f == flag:
            lines = path.read_text().splitlines()
            lines[-1] = " ".join([word] + lines[-1].split()[1:])
            path = tmp_path / path.name
            path.write_text("\n".join(lines) + "\n")
            want = (f"error: line {len(lines)}: {path}: entry {word} is not "
                    "finite\n")
        argv += [f, path]
    assert run_main(argv, capsys) == (1, "", want)


def test_backstep_refuses_a_gain_that_no_step_uses(capsys):
    code, out, err = run_main(
        ["backstep", SYS / "nf_uchain.nf", "--kappa", "xi1_1,xi1_2,xi2_1,xi2_2",
         "--gains", "xi1_l=0,xi9_9=3"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: gains for variables that are not stepped: "
                   "['xi1_l', 'xi9_9']\n")


def test_linzeros_runs_the_linear_algorithm_once(monkeypatch, capsys):
    import normform.cli as cli
    import normform.linstruct as linstruct
    calls = []
    real = linstruct.linear_infinite_zeros

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(linstruct, "linear_infinite_zeros", counted)
    monkeypatch.setattr(cli, "linear_infinite_zeros", counted, raising=False)
    code, out, _ = run_main(
        ["linzeros", "--a", LIN / "counter3_A.txt", "--b",
         LIN / "counter3_B.txt", "--c", LIN / "counter3_C.txt"], capsys)
    assert code == 0 and "q = {1, 4}" in out
    assert len(calls) == 1


def test_backstep_controller_roundtrip(tmp_path, capsys):
    ctl = tmp_path / "mixed.ctl"
    code, out, _ = run_main(
        ["backstep", SYS / "nf_mixed.nf",
         "--kappa", "xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4",
         "--gains", "xi1_1=0,xi3_1=0,xi2_1=0", "--out", ctl], capsys)
    assert code == 0
    text = ctl.read_text()
    assert "v1 = -eta1" in text
    ledger = json.loads((tmp_path / "mixed.ctl.ledger.json").read_text())
    assert len(ledger) == 7


def test_backstep_invalid_kappa_exit_2(capsys):
    code, _, err = run_main(
        ["backstep", SYS / "nf_mixed.nf",
         "--kappa", "xi1_1,xi2_1,xi2_2,xi3_1,xi3_2,xi3_3,xi3_4"], capsys)
    assert code == 2
    assert "2c" in err or "2b" in err


@pytest.mark.parametrize("kappa, want", [
    ("xi1_1,xi3_2,xi3_1,xi2_1,xi2_2,xi3_3,xi3_4",
     "condition 2a: xi3_1 must appear before xi3_2"),
    ("xi2_1,xi1_1,xi3_1,xi3_2,xi2_2,xi3_3,xi3_4",
     "condition 2b: delta(2, 1, 1): chain 1 must be completed before xi2_1"),
])
def test_backstep_order_conditions_2a_and_2b(capsys, kappa, want):
    code, out, err = run_main(["backstep", SYS / "nf_mixed.nf",
                               "--kappa", kappa], capsys)
    assert (code, out, err) == (2, "", f"order violation: {want}\n")


def test_linzeros_refuses_an_output_transform_of_the_wrong_width(tmp_path,
                                                                 capsys):
    T = tmp_path / "T.txt"
    T.write_text("1 0 0\n0 1 0\n")
    code, out, err = run_main(
        ["linzeros", "--a", LIN / "counter3_A.txt", "--b",
         LIN / "counter3_B.txt", "--c", LIN / "counter3_C.txt",
         "--output-transform", T], capsys)
    assert (code, out, err) == (1, "", "error: output transform is 2x3, C is "
                                "2x5: the transform needs one column per row "
                                "of C\n")


def _uchain_controller(tmp_path, capsys):
    ctl = tmp_path / "lvl.ctl"
    code, _, _ = run_main(["backstep", SYS / "nf_uchain.nf",
                           "--kappa", "xi1_1,xi2_1,xi1_2,xi2_2", "--out", ctl],
                          capsys)
    assert code == 0
    return ctl


@pytest.mark.parametrize("x0, signal, want", [
    ("0,0,0,0,0", "bogus", "unknown signal spec 'bogus'"),
    ("0,0,0", "zero", "x0 must have 5 columns"),
])
def test_simulate_input_errors_exit_1(tmp_path, capsys, x0, signal, want):
    ctl = _uchain_controller(tmp_path, capsys)
    csvp = tmp_path / "trace.csv"
    argv = ["simulate", SYS / "nf_uchain.nf", "--controller", ctl, "--x0", x0,
            "--signal", signal, "--horizon", "0.1", "--csv", csvp]
    assert run_main(argv, capsys) == (1, "", f"error: {want}\n")
    assert not csvp.exists()


@pytest.mark.parametrize("args, want", [
    (["--gamma", "nan"], "gamma must be finite and >= 0, got nan"),
    (["--gamma", "inf"], "gamma must be finite and >= 0, got inf"),
    (["--gamma", "-1"], "gamma must be finite and >= 0, got -1.0"),
    (["--gamma", "0.5", "--v0", "nan"], "V0 must be finite, got nan"),
    (["--signal", "step:nan"], "step off-time must not be nan"),
    (["--signal", "step:1:inf"], "step scale must be finite, got inf"),
    (["--signal", "step:1:nan"], "step scale must be finite, got nan"),
    (["--signal", "noise:3:4"],
     "signal spec 'noise:3:4' has too many fields: noise takes at most 1"),
    (["--signal", "step:1:2:3"],
     "signal spec 'step:1:2:3' has too many fields: step takes at most 2"),
    (["--signal", "zero:1"],
     "signal spec 'zero:1' has too many fields: zero takes at most 0"),
    (["--v0", "nan"], "V0 must be finite, got nan"),
    (["--v0", "inf"], "V0 must be finite, got inf"),
    (["--dt", "1"], "dt 1.0 leaves no step in horizon 0.1"),
    (["--dt", "0.03"], "horizon 0.1 is not a whole number of steps of dt 0.03"),
])
def test_simulate_refuses_a_meaningless_number_before_the_run(tmp_path, capsys,
                                                              args, want):
    # each of these once exited 0: a nan verdict, a gain of -1 read as 1, a
    # nan step that simulated w = 0, extra spec fields dropped, a --v0 read
    # only with --gamma, or a dt that left a trace of x0 alone
    ctl = tmp_path / "da.ctl"
    assert run_main(["backstep", SYS / "nf_addexam.nf", "--kappa",
                     "xi2_1,xi1_1,xi2_2", "--out", ctl], capsys)[0] == 0
    csvp = tmp_path / "trace.csv"
    argv = ["simulate", SYS / "nf_addexam.nf", "--controller", ctl,
            "--x0", "0.1,0,0,0", "--horizon", "0.1", "--csv", csvp, *args]
    assert run_main(argv, capsys) == (1, "", f"error: {want}\n")
    assert not csvp.exists()


def test_simulate_takes_an_infinite_step_and_a_zero_gain(tmp_path, capsys):
    ctl = tmp_path / "da.ctl"
    assert run_main(["backstep", SYS / "nf_addexam.nf", "--kappa",
                     "xi2_1,xi1_1,xi2_2", "--out", ctl], capsys)[0] == 0
    code, out, err = run_main(
        ["simulate", SYS / "nf_addexam.nf", "--controller", ctl,
         "--x0", "0.1,0,0,0", "--horizon", "0.1", "--signal", "step:inf:0.5",
         "--gamma", "0", "--v0", "-1", "--csv", tmp_path / "t.csv"], capsys)
    assert code == 0 and err == "" and "rhs=-1 pass=False" in out


def test_simulate_refuses_a_controller_of_the_wrong_width(tmp_path, capsys):
    ctl = tmp_path / "one.ctl"
    ctl.write_text("[controller]\nv1 = 0\n")
    assert run_main(["simulate", SYS / "nf_uchain.nf", "--controller", ctl,
                     "--x0", "0,0,0,0,0"], capsys) == (
        1, "", "error: controller has 1 inputs, system wants 2\n")


@pytest.mark.parametrize("fixture, args, want", [
    ("nf_semiglobal.nf", ["--kappa", "xi1_1,xi1_2,xi2_1,xi2_2,xi2_3",
                          "--semi-global", "0.5", "--lengths", "3"],
     "need one driving slot per chain"),
    ("nf_addexam.nf", ["--kappa", "xi2_1,xi1_1,xi2_2", "--disturbance", "0.5",
                       "--budgets", "1/12,1/12"],
     "need one budget per step"),
])
def test_backstep_list_options_of_the_wrong_length(tmp_path, capsys, fixture,
                                                   args, want):
    ctl = tmp_path / "out.ctl"
    assert run_main(["backstep", SYS / fixture, *args, "--out", ctl],
                    capsys) == (1, "", f"error: {want}\n")
    assert not ctl.exists()


@pytest.mark.parametrize("fixture, args, want", [
    ("nf_semiglobal.nf", ["--kappa", "xi1_1,xi1_2,xi2_1,xi2_2,xi2_3",
                          "--semi-global", value, "--lengths", "3,2"],
     f"eps must be positive and finite, got {value}")
    for value in ("nan", "inf")] + [
    ("nf_addexam.nf", ["--kappa", "xi2_1,xi1_1,xi2_2", *args], want)
    for args, want in (
        (["--disturbance", "inf"], "gamma must be finite, got inf"),
        (["--disturbance", "nan", "--budgets", "1/12,1/12,1/12"],
         "gamma must be finite, got nan"),
        (["--disturbance", "0.5", "--eps", "inf"], "eps must be finite, got inf"),
        (["--disturbance", "0.5", "--eps", "nan",
          "--budgets", "1/12,1/12,1/12"], "eps must be finite, got nan"))])
def test_backstep_refuses_a_design_parameter_not_finite(tmp_path, capsys,
                                                        fixture, args, want):
    # unchecked, a nan low gain is written as v1 = nan*xi1_1 + nan*xi1_2;
    # explicit budgets skip the default schedule's own eps > 0 check
    ctl = tmp_path / "out.ctl"
    assert run_main(["backstep", SYS / fixture, *args, "--out", ctl],
                    capsys) == (1, "", f"error: {want}\n")
    assert not ctl.exists()


def test_backstep_needs_a_stabilizer_section(tmp_path, capsys):
    text = (SYS / "nf_uchain.nf").read_text()
    nf = tmp_path / "nostab.nf"
    nf.write_text(text[:text.index("[stabilizer]")])
    assert run_main(["backstep", nf, "--kappa", "xi1_1,xi2_1,xi1_2,xi2_2"],
                    capsys) == (1, "", "error: chain-system file carries no "
                                "[stabilizer] section\n")


def test_simulate_csv(tmp_path, capsys):
    ctl = tmp_path / "lvl.ctl"
    run_main(["backstep", SYS / "nf_uchain.nf",
              "--kappa", "xi1_1,xi2_1,xi1_2,xi2_2", "--out", ctl], capsys)
    csvp = tmp_path / "trace.csv"
    code, out, _ = run_main(
        ["simulate", SYS / "nf_uchain.nf", "--controller", ctl,
         "--x0", "0.4,0.1,-0.2,0.3,0.2", "--horizon", "1.0",
         "--csv", csvp], capsys)
    assert code == 0
    lines = csvp.read_text().splitlines()
    assert lines[0].startswith("t,eta1,xi1_1")
    assert len(lines) == 1002


@pytest.mark.parametrize("flag,value", [("--horizon", "inf"), ("--horizon", "nan"),
                                        ("--dt", "nan"), ("--dt", "inf")])
def test_simulate_refuses_dt_and_horizon_not_finite(tmp_path, capsys, flag, value):
    # --horizon inf overflowed in the step count and --dt inf wrote one row
    ctl = tmp_path / "lvl.ctl"
    run_main(["backstep", SYS / "nf_uchain.nf",
              "--kappa", "xi1_1,xi2_1,xi1_2,xi2_2", "--out", ctl], capsys)
    csvp = tmp_path / "trace.csv"
    code, _, err = run_main(
        ["simulate", SYS / "nf_uchain.nf", "--controller", ctl,
         "--x0", "0.4,0.1,-0.2,0.3,0.2", flag, value, "--csv", csvp], capsys)
    assert (code, err) == (1, f"error: {flag[2:]} must be positive and finite, "
                              f"got {value}\n")
    assert not csvp.exists()


def test_noise_signal_spans_the_simulate_horizon():
    import numpy as np
    from normform.cli import _make_signal
    from normform.simkit import noise_signal
    sig = _make_signal("noise:7", 150.0)
    assert not np.array_equal(sig(120.0), sig(140.0))
    # the table fills row-major: draws before 100 s keep their values
    old = noise_signal(7)
    for t in np.arange(0.0, 100.0, 0.005).tolist():
        assert np.array_equal(sig(t), old(t)), t


def test_version_and_help():
    out = subprocess.run([sys.executable, "-m", "normform.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and "normform" in out.stdout
    out = subprocess.run([sys.executable, "-m", "normform.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and "analyze" in out.stdout


def test_backstep_semi_global_cli(tmp_path, capsys):
    ctl = tmp_path / "semi.ctl"
    code, _, _ = run_main(
        ["backstep", SYS / "nf_semiglobal.nf",
         "--kappa", "xi1_1,xi1_2,xi2_1,xi2_2,xi2_3",
         "--semi-global", "0.5", "--lengths", "3,2", "--out", ctl], capsys)
    assert code == 0
    text = ctl.read_text()
    assert "v1 = " in text and "1.0*xi1_2" in text


def test_backstep_disturbance_cli_and_l2(tmp_path, capsys):
    ctl = tmp_path / "da.ctl"
    code, _, _ = run_main(
        ["backstep", SYS / "nf_addexam.nf", "--kappa", "xi2_1,xi1_1,xi2_2",
         "--disturbance", "0.5", "--eps", "0",
         "--budgets", "1/12,1/12,1/12",
         "--gains", "xi2_1=1,xi1_1=1/3,xi2_2=1", "--out", ctl], capsys)
    assert code == 0
    code, out, _ = run_main(
        ["simulate", SYS / "nf_addexam.nf", "--controller", ctl,
         "--x0", "0,0,0,0", "--signal", "step:2", "--horizon", "8",
         "--dt", "0.0002", "--gamma", "0.5",
         "--csv", tmp_path / "da.csv"], capsys)
    assert code == 0
    assert "pass=True" in out


def test_backstep_default_budgets_refuse_eps_zero(tmp_path, capsys):
    # each default budget is a multiple of eps; at eps = 0 a step would
    # divide by zero, so explicit --budgets are asked for
    ctl = tmp_path / "da.ctl"
    code, _, err = run_main(
        ["backstep", SYS / "nf_addexam.nf", "--kappa", "xi2_1,xi1_1,xi2_2",
         "--disturbance", "0.5", "--eps", "0", "--out", ctl], capsys)
    assert code == 1 and err.startswith("error: ") and "--budgets" in err
    assert "Traceback" not in err and not ctl.exists()


@pytest.mark.parametrize("budgets", ["0,0,0", "1/12,0,1/12"])
def test_backstep_refuses_budgets_not_positive(tmp_path, capsys, budgets):
    # a disturbed step divides by its budget
    ctl = tmp_path / "da.ctl"
    code, _, err = run_main(
        ["backstep", SYS / "nf_addexam.nf", "--kappa", "xi2_1,xi1_1,xi2_2",
         "--disturbance", "0.5", "--budgets", budgets, "--out", ctl], capsys)
    assert code == 1 and err.startswith("error: ") and "--budgets" in err
    assert "step on xi" in err
    assert "Traceback" not in err and not ctl.exists()


def test_file_errors_exit_1(tmp_path, capsys):
    # a directory where a file is expected
    code, _, err = run_main(["analyze", SYS], capsys)
    assert code == 1 and err.startswith("error: ") and "Is a directory" in err
    code, _, err = run_main(["simulate", SYS / "nf_uchain.nf", "--controller", SYS,
                             "--x0", "0,0,0,0,0"], capsys)
    assert code == 1 and "Is a directory" in err
    # a ragged and a non-numeric matrix file
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("# A\n1 0 0\n0 1\n")
    text = tmp_path / "text.txt"
    text.write_text("1 0\n0 x\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("# A\n")
    for bad, msg in ((ragged, "line 3: "), (text, "line 2: "),
                     (empty, f"{empty}: no matrix rows")):
        code, _, err = run_main(["linzeros", "--a", bad, "--b", LIN / "counter3_B.txt",
                                 "--c", LIN / "counter3_C.txt"], capsys)
        assert code == 1 and err.startswith("error: " + msg) and str(bad) in err


def test_malformed_input_files_exit_1_with_the_line(tmp_path, capsys):
    nf = tmp_path / "bad.nf"
    nf.write_text((SYS / "nf_addexam.nf").read_text().replace("2 1: z*w", "3 1: z*w"))
    for extra in ([], ["--disturbance", "0.5"]):
        code, _, err = run_main(["backstep", nf, "--kappa", "xi2_1,xi1_1,xi2_2",
                                 *extra], capsys)
        assert (code, err) == (1, "error: line 11: no chain state xi3_1\n")
    ctl = tmp_path / "gap.ctl"
    ctl.write_text("[controller]\nv1 = 0\nv3 = 0\n")
    code, _, err = run_main(["simulate", SYS / "nf_uchain.nf", "--controller", ctl,
                             "--x0", "0,0,0,0,0"], capsys)
    assert (code, err) == (1, "error: line 3: unknown key 'v3', expected one of v1, v2\n")


def test_simulate_rejects_controller_variables_outside_the_system(tmp_path, capsys):
    ctl = tmp_path / "stray.ctl"
    argv = ["simulate", SYS / "nf_uchain.nf", "--controller", ctl, "--x0", "0,0,0,0,0"]
    ctl.write_text("[controller]\nv1 = xi9_1\nv2 = 0\n")
    code, _, err = run_main(argv, capsys)
    assert (code, err) == (1, "error: line 2: unknown variables ['xi9_1']\n")
    # the chain states and w may appear, in v and in W
    ctl.write_text("[controller]\nv1 = -xi1_1\nv2 = -xi2_2 - w\n\n"
                   "[lyapunov]\nW = eta1^2 + z\n")
    code, _, err = run_main(argv, capsys)
    assert (code, err) == (1, "error: line 6: unknown variables ['z']\n")


def test_calls_in_one_process_give_their_first_run_output(tmp_path, capsys):
    # the parser and the compiled kernels are built once per process; each
    # call still gives what it gives when run first (the goldens)
    from test_golden import GOLDEN, SIMULATE

    def golden(sub, name):
        return (GOLDEN / sub / name).read_text()

    for argv, name in [(["--zero-output"], "ex33_zero-output"), ([], "ex33")]:
        code, out, _ = run_main(["analyze", SYS / "ex33.sys", *argv], capsys)
        assert f"exit {code}\n{out}" == golden("analyze", f"{name}.stdout")
    stem, backstep_args, simulate_args = SIMULATE["nf_addexam"]
    nf = SYS / f"{stem}.nf"
    code, out, _ = run_main(["backstep", nf, *backstep_args], capsys)
    assert f"exit {code}\n{out}" == golden("simulate", "nf_addexam.backstep.stdout")
    ctl = tmp_path / "addexam.ctl"
    ctl.write_text(out[:out.rindex("\n[") + 1])
    argv = ["simulate", nf, "--controller", ctl, *simulate_args,
            "--dt", "0.01", "--horizon", "1"]
    with_gamma = golden("simulate", "nf_addexam.simulate.stdout")
    assert "--gamma" in argv and with_gamma.endswith("pass=True\n")
    code, out, _ = run_main(argv, capsys)
    assert f"exit {code}\n{out}" == with_gamma
    at = argv.index("--gamma")
    code, out, _ = run_main(argv[:at] + argv[at + 2:], capsys)
    assert f"exit {code}\n{out}" == with_gamma[:with_gamma.rindex("l2 gain")]
    # an argparse error after a successful call, as in a fresh process
    fresh = subprocess.run(
        [sys.executable, "-m", "normform.cli", "backstep", str(nf)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    with pytest.raises(SystemExit) as exc:
        main(["backstep", str(nf)])
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == (fresh.returncode, fresh.stdout,
                                          fresh.stderr)
    assert fresh.returncode == 2
    assert err.startswith("usage: normform backstep ")
    assert "the following arguments are required: --kappa" in err
