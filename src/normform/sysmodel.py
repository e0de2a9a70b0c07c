"""Affine system definition, text file format, sampling, and rank oracles."""

from __future__ import annotations

import numpy as np

from .expr import (compile_exprs, evalf, free_vars, parse, render, sample_box,
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
        origin = {s: 0.0 for s in self.states}
        for i, c in enumerate(self.f.components):
            if evalf(c, origin) != 0.0:
                raise ValueError(f"f({0})≠0: component {i + 1} is {render(c)} at x=0")
        for i, c in enumerate(self.h):
            if evalf(c, origin) != 0.0:
                raise ValueError(f"h(0)≠0: component {i + 1} is {render(c)} at x=0")
        allowed = set(self.states)
        for label, exprs in (("f", self.f.components), ("h", self.h),
                             ("g", [e for r in self.g.rows for e in r])):
            for e in exprs:
                stray = free_vars(e) - allowed
                if stray:
                    raise ValueError(f"{label} references unknown variables {sorted(stray)}")
        for s, (lo, hi) in self.domain.items():
            if not lo < 0.0 < hi:
                raise ValueError(f"domain for {s} must contain 0, got [{lo}, {hi}]")

    def box(self):
        return [self.domain[s] for s in self.states]

    def origin(self):
        return np.zeros(self.n)


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
        if self.points is not None:
            return list(self.points)
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
    def __init__(self, ranks, points, tol):
        self.ranks = list(ranks)
        self.points = list(points)
        self.tol = tol

    @property
    def constant(self):
        return len(set(self.ranks)) <= 1

    @property
    def value(self):
        if not self.constant:
            raise ValueError("rank is not constant across samples")
        return self.ranks[0]

    def dissenting_points(self):
        if self.constant:
            return []
        majority = max(set(self.ranks), key=self.ranks.count)
        return [(p, r) for p, r in zip(self.points, self.ranks) if r != majority]

    def __repr__(self):
        return f"RankReport(constant={self.constant}, ranks={sorted(set(self.ranks))})"


def numeric_rank(matrix, points, state_names, tol=DEFAULT_TOL):
    """Per-point numeric rank of a SymMatrix, by the rule of geom.rank.
    Raises EvalError naming the first point where an entry is undefined or
    not finite."""
    if not points:
        raise ValueError("numeric_rank needs at least one point")
    vals = matrix.sample(state_names, np.transpose(points))
    return RankReport(rank(vals, tol).tolist(), points, tol)


# ---------------------------------------------------------------------------
# File format: sections [states], [f], [g], [h], [domain]; vectors are
# bracketed comma-separated expression strings, g is row-major.
# ---------------------------------------------------------------------------

def _split_top_level(text):
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


def loads_system(text, name=""):
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
        return _split_top_level(body[1:-1])

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
        g_rows.append([parse_entry(s, lineno) for s in _split_top_level(body[1:-1])])
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
        parts = _split_top_level(rng[1:-1])
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


def load_system(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_system(fh.read(), name=str(path))


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
