"""Affine system definition, text file format, sampling, and rank oracles."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .expr import (Var, compile_exprs, free_vars, parse, render, sample_box,
                   simplify)
from .geom import SymMatrix, VectorField, rank

__all__ = ["AffineSystem", "SamplePlan", "RankReport", "SystemFormatError",
           "load_system", "loads_system", "dump_system", "numeric_rank",
           "sample_domain", "DEFAULT_TOL"]

DEFAULT_TOL = 1e-8


class SystemFormatError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class AffineSystem:
    """dx/dt = f(x) + g(x) u, y = h(x) on an axis-aligned box domain."""

    def __init__(self, states, f, g, h, domain=None, name=""):
        self.states = list(states)
        self.name = name
        n = len(self.states)
        self.f = f if isinstance(f, VectorField) else VectorField(f, self.states)
        self.g = g if isinstance(g, SymMatrix) else SymMatrix(g)
        self.h = [simplify(e) for e in h]
        if len(self.f) != n:
            raise ValueError("f must have one component per state")
        if self.g.shape[0] != n:
            raise ValueError("g must have one row per state")
        if not self.h:
            raise ValueError("h must have at least one output")
        if domain is None:
            domain = {s: (-1.0, 1.0) for s in self.states}
        self.domain = {s: (float(lo), float(hi)) for s, (lo, hi) in domain.items()}
        for s in self.states:
            self.domain.setdefault(s, (-1.0, 1.0))
        self._validate()

    @property
    def n(self):
        return len(self.states)

    @property
    def m(self):
        return self.g.shape[1]

    @property
    def p(self):
        return len(self.h)

    def _validate(self):
        for label, exprs in (("f", self.f.components), ("h", self.h),
                             ("g", [e for r in self.g.rows for e in r])):
            stray = set().union(*map(free_vars, exprs)) - set(self.states)
            if stray:
                raise ValueError(f"{label} references unknown variables {sorted(stray)}")
        _check_origin(self.f.components, self.h, self.states)
        for s, (lo, hi) in self.domain.items():
            if not lo < 0.0 < hi:
                raise ValueError(f"domain for {s} must contain 0, got [{lo}, {hi}]")

    def box(self):
        return [self.domain[s] for s in self.states]

    def origin(self):
        return np.zeros(self.n)


class OriginError(ValueError):
    """f or h is undefined or not 0 at x = 0; `label` says which."""

    def __init__(self, label, message):
        super().__init__(message)
        self.label = label


def _check_origin(f, h, states):
    """Raise OriginError naming the first component of f or h that is
    undefined or not 0 at x = 0; all are evaluated in one kernel."""
    values = SymMatrix([f + h]).sample(states, np.zeros((len(states), 1)),
                                       finite=False)[0, 0]
    for k, (e, v) in enumerate(zip(f + h, values)):
        if v != 0.0:   # nan included
            label, i = ("f", k) if k < len(f) else ("h", k - len(f))
            fault = "≠0" if np.isfinite(v) else " is undefined"
            raise OriginError(label, f"{label}(0){fault}: component {i + 1} "
                              f"is {render(e)} at x=0")


class SamplePlan:
    """Deterministic sampling request: either explicit points or (count, seed)."""

    def __init__(self, count=200, seed=42, points=None):
        if points is None and count <= 0:
            raise ValueError("sample count must be positive")
        self.count = int(count)
        self.seed = int(seed)
        self.points = None if points is None else [np.asarray(p, dtype=float)
                                                   for p in points]

    def realize(self, system):
        return sample_domain(self, system)


def sample_domain(plan, system):
    """Uniform points in the box (expr.sample_box), skipping any where f, g,
    or h fail to evaluate finitely.  Deterministic for a given seed."""
    if plan.points is not None:
        return list(plan.points)
    box = system.box()
    for lo, hi in box:
        if not hi > lo:
            raise ValueError("degenerate domain box")
    exprs = (system.f.components + system.h
             + [e for r in system.g.rows for e in r])
    pts, _ = sample_box(compile_exprs(exprs, system.states), box, plan.count,
                        np.random.default_rng(plan.seed), 50 * plan.count + 100)
    if len(pts) < plan.count:
        raise ValueError("could not draw enough finite sample points")
    return list(pts)


class RankReport:
    def __init__(self, ranks):
        self.ranks = list(ranks)

    @property
    def constant(self):
        return len(set(self.ranks)) <= 1

    @property
    def value(self):
        if not self.constant:
            raise ValueError("rank is not constant across samples")
        return self.ranks[0]

    def __repr__(self):
        return f"RankReport(constant={self.constant}, ranks={sorted(set(self.ranks))})"


def numeric_rank(matrix, points, state_names):
    """Per-point numeric rank of a SymMatrix, by the rule of geom.rank at
    DEFAULT_TOL.  Raises EvalError naming the first point where an entry is
    undefined or not finite."""
    if not points:
        raise ValueError("numeric_rank needs at least one point")
    vals = matrix.sample(state_names, np.transpose(points))
    return RankReport(rank(vals, DEFAULT_TOL).tolist())


# ---------------------------------------------------------------------------
# Text files.  Every input format is read through these helpers, and every
# content error is a SystemFormatError that names its line.
# ---------------------------------------------------------------------------

def numbered_lines(text):
    """(line number, content) of each non-blank line, comments stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


class Section(list):
    """The (line number, content) pairs of a section headed on `line`."""

    def __init__(self, line):
        super().__init__()
        self.line = line

    @property
    def start(self):   # the first content line, else the header's
        return self[0][0] if self else self.line

    def vector(self):
        """The section's lines read as one bracketed list."""
        return bracketed(" ".join(text for _, text in self), self.start)


def read_sections(text, known):
    """{name: Section}.  A line '[name]' with a known name opens a section;
    content before the first one and a repeated section are errors."""
    sections = {}
    current = None
    for lineno, line in numbered_lines(text):
        name = line[1:-1].strip().lower()
        if line.startswith("[") and line.endswith("]") and name in known:
            if name in sections:
                raise SystemFormatError(f"duplicate section [{name}]", lineno)
            current = sections[name] = Section(lineno)
        elif current is None:
            raise SystemFormatError("content before any [section]", lineno)
        else:
            current.append((lineno, line))
    return sections


def required(sections, name):
    if name not in sections:
        raise SystemFormatError(f"missing section [{name}]")
    return sections[name]


def _split_top_level(text):
    """Split on commas not nested in parentheses/brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch in "([") - (ch in ")]")
        if ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    tail = text[start:].strip()
    return parts + [tail] if tail else parts


def bracketed(body, lineno):
    """The items of a bracketed list '[a, b, ...]'."""
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise SystemFormatError(f"expected a bracketed list, got {body!r}", lineno)
    return _split_top_level(body[1:-1])


def parse_entry(src, lineno):
    try:
        return parse(src)
    except Exception as exc:
        raise SystemFormatError(f"bad expression {src!r}: {exc}", lineno) from exc


def parse_entries(items, lineno, allowed):
    """parse_entry of each item; a variable outside `allowed` is an error."""
    exprs = [parse_entry(src, lineno) for src in items]
    stray = set().union(*map(free_vars, exprs)) - set(allowed)
    if stray:
        raise SystemFormatError(f"unknown variables {sorted(stray)}", lineno)
    return exprs


def names(items, lineno):
    """The items, which must be distinct variable names."""
    exprs = [parse_entry(item, lineno) for item in items]
    if len(set(items)) < len(items) or not all(
            isinstance(e, Var) and e.name == item for e, item in zip(exprs, items)):
        raise SystemFormatError(f"expected distinct names, got {items}", lineno)
    return items


def keyed(lines, sep):
    """(key, value, line number) of 'key <sep> value' lines, each key once."""
    seen = set()
    for lineno, line in lines:
        key, found, value = line.partition(sep)
        key = " ".join(key.split())
        if not (found and key):
            raise SystemFormatError(f"expected 'key {sep} value'", lineno)
        if key in seen:
            raise SystemFormatError(f"repeated key {key!r}", lineno)
        seen.add(key)
        yield key, value.strip(), lineno


def bindings(lines, known):
    """{key: (value, line number)} of 'key = value' lines, keys from `known`."""
    out = {}
    for key, value, lineno in keyed(lines, "="):
        if key not in known:
            raise SystemFormatError(f"unknown key {key!r}, expected one of "
                                    f"{', '.join(known)}", lineno)
        out[key] = (value, lineno)
    return out


@contextmanager
def at_line(lineno):
    """Re-raise a ValueError from the body as a SystemFormatError naming
    the line."""
    try:
        yield
    except SystemFormatError:
        raise
    except ValueError as exc:
        raise SystemFormatError(str(exc), lineno) from exc


def loads_system(text, name=""):
    """System file: sections [states], [f], [g] (one bracketed row per
    state), [h] and the optional [domain] ('name: [lo, hi]' lines)."""
    sections = read_sections(text, ("states", "f", "g", "h", "domain"))
    sec = {key: required(sections, key) for key in ("states", "f", "g", "h")}
    states = names(sec["states"].vector(), sec["states"].start)
    if not states:
        raise SystemFormatError("empty [states] section", sec["states"].line)

    def row(label, items, lineno, width=None):
        out = parse_entries(items, lineno, states)
        if width is not None and len(out) != width:
            raise SystemFormatError(f"[{label}] has {len(out)} entries, "
                                    f"expected {width}", lineno)
        return out

    f = row("f", sec["f"].vector(), sec["f"].start, len(states))
    g = []
    for lineno, line in sec["g"]:
        g.append(row("g", bracketed(line, lineno), lineno, len(g[0]) if g else None))
    if len(g) != len(states):
        raise SystemFormatError(f"[g] has {len(g)} rows for {len(states)} states",
                                sec["g"].line)
    h = row("h", sec["h"].vector(), sec["h"].start)
    if not h:
        raise SystemFormatError("empty [h] section", sec["h"].line)
    domain = {}
    for key, rng, lineno in keyed(sections.get("domain", ()), ":"):
        parts = bracketed(rng, lineno)
        with at_line(lineno):
            if key not in states:
                raise ValueError(f"domain for unknown state {key!r}")
            if len(parts) != 2:
                raise ValueError("domain range needs two endpoints")
            lo, hi = domain[key] = (float(parts[0]), float(parts[1]))
            if not lo < 0.0 < hi:
                raise ValueError(f"domain for {key} must contain 0, got [{lo}, {hi}]")
    try:
        return AffineSystem(states, f, g, h, domain or None, name=name)
    except OriginError as exc:
        raise SystemFormatError(str(exc), sec[exc.label].start) from None


def load_system(path):
    return loads_system(Path(path).read_text(encoding="utf-8"), name=str(path))


def dump_system(system):
    lines = ["[states]", "[" + ", ".join(system.states) + "]", "", "[f]",
             "[" + ", ".join(render(c) for c in system.f.components) + "]",
             "", "[g]"]
    for row in system.g.rows:
        lines.append("[" + ", ".join(render(e) for e in row) + "]")
    lines += ["", "[h]", "[" + ", ".join(render(e) for e in system.h) + "]",
              "", "[domain]"]
    for s in system.states:
        lo, hi = system.domain[s]
        lines.append(f"{s}: [{lo!r}, {hi!r}]")
    return "\n".join(lines) + "\n"
