"""The text-file readers: valid files load as before, malformed ones fail
with a SystemFormatError that names the line."""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normform.backstep import (ChainSystem, Disturbance, Stabilizer,
                               dump_control_law, loads_chain_system,
                               loads_control_law, synthesize)
from normform.cli import main
from normform.expr import const, parse
from normform.linstruct import load_matrix
from normform.sysmodel import AffineSystem, SystemFormatError, loads_system

REPO = Path(__file__).resolve().parent.parent
SYS = REPO / "systems"


# ---------------------------------------------------------------------------
# The readers as they stood before the shared section reader, kept as the
# reference for equal results on valid files.
# ---------------------------------------------------------------------------

def _reference_split_top_level(text):
    """Split on commas not nested in parentheses/brackets."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _reference_loads_system(text, name=""):
    sections = {}
    current = None
    known = ("states", "f", "g", "h", "domain")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if (line.startswith("[") and line.endswith("]")
                and line[1:-1].strip().lower() in known):
            current = line[1:-1].strip().lower()
            if current in sections:
                raise SystemFormatError(f"duplicate section [{current}]", lineno)
            sections[current] = []
            continue
        if current is None:
            raise SystemFormatError("content before any [section]", lineno)
        sections[current].append((lineno, line))

    for required in ("states", "f", "g", "h"):
        if required not in sections:
            raise SystemFormatError(f"missing section [{required}]")

    def joined(name_):
        return " ".join(line for _, line in sections[name_])

    def vector(section):
        body = joined(section).strip()
        if not (body.startswith("[") and body.endswith("]")):
            line = sections[section][0][0] if sections[section] else None
            raise SystemFormatError(f"section [{section}] must be a bracketed vector", line)
        return _reference_split_top_level(body[1:-1])

    states = vector("states")
    if not states:
        raise SystemFormatError("empty [states] section")

    def parse_entry(src, lineno):
        try:
            return parse(src)
        except Exception as exc:
            raise SystemFormatError(f"bad expression {src!r}: {exc}", lineno) from exc

    f_line = sections["f"][0][0]
    f = [parse_entry(s, f_line) for s in vector("f")]
    if len(f) != len(states):
        raise SystemFormatError(f"[f] has {len(f)} entries for {len(states)} states", f_line)

    g_rows = []
    for lineno, line in sections["g"]:
        body = line.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise SystemFormatError("each [g] line must be a bracketed row", lineno)
        g_rows.append([parse_entry(s, lineno) for s in _reference_split_top_level(body[1:-1])])
    if len(g_rows) != len(states):
        raise SystemFormatError(f"[g] has {len(g_rows)} rows for {len(states)} states")

    h_line = sections["h"][0][0]
    h = [parse_entry(s, h_line) for s in vector("h")]

    domain = {}
    for lineno, line in sections.get("domain", []):
        if ":" not in line:
            raise SystemFormatError("domain line must be 'name: [lo, hi]'", lineno)
        key, _, rng = line.partition(":")
        key = key.strip()
        if key not in states:
            raise SystemFormatError(f"domain for unknown state {key!r}", lineno)
        rng = rng.strip()
        if not (rng.startswith("[") and rng.endswith("]")):
            raise SystemFormatError("domain range must be bracketed", lineno)
        parts = _reference_split_top_level(rng[1:-1])
        if len(parts) != 2:
            raise SystemFormatError("domain range needs two endpoints", lineno)
        try:
            domain[key] = (float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise SystemFormatError(f"bad domain endpoint: {exc}", lineno) from exc

    try:
        return AffineSystem(states, f, g_rows, h, domain or None, name=name)
    except ValueError as exc:
        raise SystemFormatError(str(exc)) from exc


def _reference_loads_chain_system(text, name=""):
    sections = {}
    current = None
    known = ("chains", "eta", "eta_dot", "delta", "stabilizer", "disturbance")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]") and \
                line[1:-1].strip().lower() in known:
            current = line[1:-1].strip().lower()
            sections[current] = []
            continue
        if current is None:
            raise ValueError(f"line {lineno}: content before any section")
        sections[current].append(line)

    def bracket_list(lines):
        body = " ".join(lines).strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError("expected a bracketed list")
        return _reference_split_top_level(body[1:-1])

    q = None
    for line in sections.get("chains", []):
        key, _, val = line.partition("=")
        if key.strip() == "q":
            q = [int(v) for v in bracket_list([val.strip()])]
    if q is None:
        raise ValueError("missing 'q = [...]' in [chains]")
    eta_names = bracket_list(sections["eta"]) if sections.get("eta") else []
    eta_dot = [parse(s) for s in bracket_list(sections["eta_dot"])] \
        if sections.get("eta_dot") else []
    delta = {}
    for line in sections.get("delta", []):
        head, _, expr = line.partition(":")
        i, j, l = (int(v) for v in head.split())
        delta[(i, j, l)] = parse(expr)
    eta_dist = [None] * len(eta_names)
    xi_dist = {}
    for line in sections.get("disturbance", []):
        head, _, body = line.partition(":")
        exprs = body.split("|")
        raw = parse(exprs[0])
        bound = parse(exprs[1]) if len(exprs) > 1 else None
        kind = head.split()
        if bound is not None:
            d = Disturbance(expr=raw, lin=const(0), bound=bound)
        else:
            d = Disturbance(expr=raw)
        if kind[0] == "eta":
            eta_dist[int(kind[1]) - 1] = d
        else:
            xi_dist[(int(kind[0]), int(kind[1]))] = d
    cs = ChainSystem(q, eta_names, eta_dot, delta, eta_dist, xi_dist, name=name)
    stab = None
    phi = V = None
    for line in sections.get("stabilizer", []):
        key, _, val = line.partition("=")
        key = key.strip()
        if key == "phi":
            phi = [parse(s) for s in bracket_list([val.strip()])]
        elif key == "V":
            V = parse(val)
    if phi is not None and V is not None:
        stab = Stabilizer(phi, V)
    return cs, stab


def _reference_loads_control_law(text):
    v = {}
    W = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("["):
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        if key == "W":
            W = parse(val)
        elif key.startswith("v"):
            v[int(key[1:])] = parse(val)
    return [v[i] for i in sorted(v)], W


def _reference_load_matrix(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                rows.append([float(v) for v in line.split()])
    return np.array(rows)


# ---------------------------------------------------------------------------
# Equal results on valid files
# ---------------------------------------------------------------------------

def _system_fields(s):
    return (s.states, s.f.components, s.g.rows, s.h, s.domain, s.name)


def _dist_fields(d):
    return None if d is None else (d.expr, d.lin, d.bound)


def _chain_fields(cs, stab):
    return (cs.q, cs.eta_names, cs.eta_dot, cs.delta,
            [_dist_fields(d) for d in cs.eta_dist],
            {k: _dist_fields(d) for k, d in cs.xi_dist.items()}, cs.name,
            None if stab is None else (stab.phi, stab.V))


@pytest.mark.parametrize("path", sorted(SYS.glob("*.sys")), ids=lambda p: p.name)
def test_system_files_load_as_reference(path):
    text = path.read_text()
    assert _system_fields(loads_system(text, name="x")) == \
        _system_fields(_reference_loads_system(text, name="x"))


@pytest.mark.parametrize("path", sorted(SYS.glob("*.nf")), ids=lambda p: p.name)
def test_chain_files_load_as_reference(path):
    text = path.read_text()
    assert _chain_fields(*loads_chain_system(text, name="x")) == \
        _chain_fields(*_reference_loads_chain_system(text, name="x"))


@pytest.mark.parametrize("path", sorted((SYS / "linear").glob("*.txt")),
                         ids=lambda p: p.name)
def test_matrix_files_load_as_reference(path):
    assert np.array_equal(load_matrix(path), _reference_load_matrix(path))


# The designs tests/test_cli.py runs through `normform backstep`.
DESIGNS = {
    "mixed": ["nf_mixed.nf", "--kappa", "xi1_1,xi3_1,xi3_2,xi2_1,xi2_2,xi3_3,xi3_4",
              "--gains", "xi1_1=0,xi3_1=0,xi2_1=0"],
    "lvl": ["nf_uchain.nf", "--kappa", "xi1_1,xi2_1,xi1_2,xi2_2"],
    "semi": ["nf_semiglobal.nf", "--kappa", "xi1_1,xi1_2,xi2_1,xi2_2,xi2_3",
             "--semi-global", "0.5", "--lengths", "3,2"],
    "da": ["nf_addexam.nf", "--kappa", "xi2_1,xi1_1,xi2_2", "--disturbance", "0.5",
           "--eps", "0", "--budgets", "1/12,1/12,1/12",
           "--gains", "xi2_1=1,xi1_1=1/3,xi2_2=1"],
}


@pytest.fixture(scope="module")
def controllers(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ctl")
    out = {}
    for key, (nf, *rest) in DESIGNS.items():
        path = tmp / f"{key}.ctl"
        assert main(["backstep", str(SYS / nf), *rest, "--out", str(path)]) == 0
        out[key] = path.read_text()
    return out


@pytest.mark.parametrize("key", sorted(DESIGNS))
def test_controller_files_load_as_reference(controllers, key):
    v, W = loads_control_law(controllers[key])
    ref_v, ref_W = _reference_loads_control_law(controllers[key])
    assert v and W is not None
    assert (v, W) == (ref_v, ref_W)


# ---------------------------------------------------------------------------
# Malformed files fail with the line
# ---------------------------------------------------------------------------

ADDEXAM = (SYS / "nf_addexam.nf").read_text()


@pytest.mark.parametrize("old,new,match", [
    ("1 1: xi2_1*w", "eta 5: xi2_1*w", "line 10: no residual state eta 5"),
    ("2 1: z*w", "3 1: z*w", "line 11: no chain state xi3_1"),
    ("q = [1, 2]", "q = [1, x]", "line 4: invalid literal for int"),
    ("q = [1, 2]", "q = [1, 0]", "line 4: chain lengths must be positive"),
    ("[z + xi1_1 + xi2_1]", "[z + xi1_1 + xi9_1]", r"line 8: unknown variables \['xi9_1'\]"),
    ("[z + xi1_1 + xi2_1]", "[z + xi1_1, xi2_1]", "line 6: eta_dot has 2 entries"),
    ("[z]", "[z, z]", "line 6: expected distinct names"),
    ("2 1: z*w", "2 1: z*w^2", "line 11: disturbance not linear in w"),
    ("2 2: cos(xi1_1)*sin(w) | cos(xi1_1)", "2 2: w | w | w", "line 12: expected 'p'"),
    ("phi = [-2*z, 0]", "phi = [-2*z]", "line 14: phi has 1 entries for 2 chains"),
    ("V = z^2/2", "W = z^2/2", "line 15: unknown key 'W'"),
    ("V = z^2/2", "", "line 13: \\[stabilizer\\] must bind phi and V"),
    ("[chains]", "[chain]", "line 3: content before any"),
    ("q = [1, 2]", "q = 1, 2", "line 4: expected a bracketed list, got '1, 2'"),
])
def test_chain_file_errors_name_the_line(old, new, match):
    assert old in ADDEXAM
    with pytest.raises(SystemFormatError, match=match):
        loads_chain_system(ADDEXAM.replace(old, new, 1))


@pytest.mark.parametrize("new, match", [
    ("3 1 2: xi2_2", r"line 12: delta\(3, 1, 2\) violates the sparsity law"),
    ("3 3: xi2_2", "line 12: expected 3 indices, got '3 3'"),
])
def test_malformed_delta_keys_name_the_line(new, match):
    text = (SYS / "nf_mixed.nf").read_text()
    with pytest.raises(SystemFormatError, match=match):
        loads_chain_system(text.replace("3 3 1: xi2_2", new))


def test_an_eta_disturbance_key_feeds_that_residual_row():
    cs, _ = loads_chain_system(ADDEXAM.replace("1 1: xi2_1*w", "eta 1: xi2_1*w"))
    assert cs.dist("z").lin == parse("xi2_1")
    assert cs.dist("xi1_1").is_zero()


def test_repeated_delta_entry_and_section_are_rejected():
    text = (SYS / "nf_mixed.nf").read_text()
    with pytest.raises(SystemFormatError, match="line 12: repeated key '2 1 1'"):
        loads_chain_system(text.replace("2 1 1: xi3_2", "2 1 1: xi3_2\n2 1 1: 0"))
    with pytest.raises(SystemFormatError, match=r"line 13: duplicate section \[eta\]"):
        loads_chain_system(text.replace("[stabilizer]", "[eta]\n[eta1]\n[stabilizer]"))


def test_reserved_eta_name_is_rejected():
    with pytest.raises(SystemFormatError, match=r"line 4: eta names collide .*'w'"):
        loads_chain_system("[chains]\nq = [1]\n[eta]\n[w]\n[eta_dot]\n[-w]\n")


def test_chain_system_rejects_entries_that_name_no_state():
    with pytest.raises(ValueError, match="no chain state xi3_1"):
        ChainSystem([1, 2], ["z"], [parse("z")], xi_dist={(3, 1): Disturbance(const(0))})
    with pytest.raises(ValueError, match="eta_dist"):
        ChainSystem([1, 2], ["z"], [parse("z")], eta_dist=[None, None])
    with pytest.raises(ValueError, match="bad delta index"):
        ChainSystem([1, 2], delta={(2, 2, 1): parse("1")})
    with pytest.raises(KeyError, match="eta9"):
        ChainSystem([1, 2]).drift("eta9")


UCHAIN_CTL = """[controller]
v1 = -eta1 - xi1_1
v2 = -eta1 - xi2_2

[lyapunov]
W = eta1^2/2
"""


@pytest.mark.parametrize("old,new,match", [
    ("v2 = ", "v3 = ", "line 3: unknown key 'v3', expected one of v1, v2"),
    ("v2 = ", "v1 = ", "line 3: repeated key 'v1'"),
    ("[lyapunov]\n", "foo = 3\n[lyapunov]\n", "line 5: unknown key 'foo'"),
    ("W = eta1^2/2", "W = eta1^2/2\nW = 0", "line 7: repeated key 'W'"),
    ("[controller]\n", "", "line 1: content before any"),
    ("v1 = -eta1 - xi1_1\nv2 = -eta1 - xi2_2\n", "", r"line 1: \[controller\] binds no input"),
    ("v1 = -eta1", "v1 -eta1", "line 2: expected 'key = value'"),
    ("v1 = -eta1 - xi1_1", "v1 = -eta1 - xi1_1 *", "line 2: bad expression"),
])
def test_controller_file_errors_name_the_line(old, new, match):
    assert loads_control_law(UCHAIN_CTL)[0][1] == parse("-eta1 - xi2_2")
    with pytest.raises(SystemFormatError, match=match):
        loads_control_law(UCHAIN_CTL.replace(old, new, 1))


EX31 = (SYS / "ex31.sys").read_text()


@pytest.mark.parametrize("old,new,match", [
    ("[x4, x3*x4]", "[x4]", r"line 14: \[g\] has 1 entries, expected 2"),
    ("[x1, x2]\n", "[x1, x2]\n[h]\n[x1]\n", r"line 18: duplicate section \[h\]"),
    ("x2: [-1, 1]", "x2: [-1, 1]\nx2: [-1, 1]", "line 22: repeated key 'x2'"),
    ("x2: [-1, 1]", "x2: [1, 2]", "line 21: domain for x2 must contain 0"),
    ("x2: [-1, 1]", "x9: [-1, 1]", "line 21: domain for unknown state 'x9'"),
    ("x2: [-1, 1]", "x2: [-1, x]", "line 21: could not convert"),
    ("[x3, x5, x1, x1*x2, x4]", "[x3, x5, x1, x1*x2, 1]", r"line 7: f\(0\)"),
    ("[x1, x2, x3, x4, x5]", "[x1, x2, x3, x4, 5]", "line 4: expected distinct names"),
    ("[x4, x3*x4]", "[1e999, x3*x4]", "line 14: bad expression '1e999': number 1e999 is not finite"),
    ("[x1, x2, x3, x4, x5]", "[]", r"line 3: empty \[states\] section"),
    ("[x1, x2]\n", "[]\n", r"line 16: empty \[h\] section"),
])
def test_system_file_errors_name_the_line(old, new, match):
    assert old in EX31
    with pytest.raises(SystemFormatError, match=match):
        loads_system(EX31.replace(old, new, 1))


def test_non_finite_literal_exits_1_with_the_line(tmp_path, capsys):
    bad = tmp_path / "inf.sys"
    bad.write_text("[states]\n[x1, x2]\n[f]\n[x2, -x1]\n[g]\n[1e999]\n[1]\n[h]\n[x1]\n")
    assert main(["analyze", str(bad)]) == 1
    assert capsys.readouterr().err == \
        "error: line 6: bad expression '1e999': number 1e999 is not finite (at offset 0)\n"


# ---------------------------------------------------------------------------
# Mutated files: every reader returns or raises SystemFormatError
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fuzz_inputs():
    """(text, reader) for every shipped .sys and .nf file and one written
    controller."""
    inputs = [(p.read_text(), loads_system) for p in sorted(SYS.glob("*.sys"))]
    inputs += [(p.read_text(), loads_chain_system) for p in sorted(SYS.glob("*.nf"))]
    cs, stab = loads_chain_system((SYS / "nf_uchain.nf").read_text())
    law = synthesize(cs, "xi1_1,xi2_1,xi1_2,xi2_2", stab)
    return inputs + [(dump_control_law(law), loads_control_law)]


@st.composite
def mutated(draw):
    text, reader = draw(st.sampled_from(_fuzz_inputs()))
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["delete", "duplicate", "replace"]))
    if kind == "delete":
        return "".join(lines[:i] + lines[i + 1:]), reader
    if kind == "duplicate":
        return "".join(lines[:i + 1] + lines[i:]), reader
    j = draw(st.integers(0, len(text) - 1))
    ch = draw(st.sampled_from(list("[]:=|,#0123456789x")))
    return text[:j] + ch + text[j + 1:], reader


@settings(max_examples=400, deadline=None)
@given(mutated())
def test_mutated_files_load_or_fail_with_a_format_error(case):
    text, reader = case
    try:
        reader(text)
    except SystemFormatError:
        pass
