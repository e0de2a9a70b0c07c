"""Span tracer for the traced benchmark run.

The tracer replaces every binding of each traced function in the loaded
``normform`` modules (and ``numpy.linalg.svd``/``lstsq``) with a wrapper
that records one span per call: name, start, end and parent.  Spans live in
flat arrays while the run lasts and are written out when it ends.  Nothing
inside ``normform`` is edited; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import sys
import time
from array import array

# (layer, module, attribute) for module-level functions; "Class.method"
# attributes are wrapped on the class.  The span name is "<layer>.<attr>",
# with "__init__" shortened to "init".
TRACED = [
    ("expr", "normform.expr", "simplify"),
    ("expr", "normform.expr", "diff"),
    ("expr", "normform.expr", "subs"),
    ("expr", "normform.expr", "free_vars"),
    ("expr", "normform.expr", "evalf"),
    ("expr", "normform.expr", "numeric_equivalent"),
    ("expr", "normform.expr", "compile_exprs"),
    ("expr", "normform.expr", "compile_exprs_scalar"),
    ("geom", "normform.geom", "lie_derivative"),
    ("geom", "normform.geom", "lie_bracket"),
    ("geom", "normform.geom", "jacobian"),
    ("geom", "normform.geom", "SymMatrix.inverse"),
    ("geom", "normform.geom", "SymMatrix.det"),
    ("geom", "normform.geom", "SymMatrix.__init__"),
    ("geom", "normform.geom", "VectorField.__init__"),
    ("sysmodel", "normform.sysmodel", "load_system"),
    ("sysmodel", "normform.sysmodel", "sample_domain"),
    ("sysmodel", "normform.sysmodel", "numeric_rank"),
    ("structure", "normform.structure", "infinite_zero_algorithm"),
    ("structure", "normform.structure", "zero_output_algorithm"),
    ("structure", "normform.structure", "select_RS"),
    ("structure", "normform.structure", "apply_state_diffeo"),
    ("structure", "normform.structure", "apply_input_transform"),
    ("structure", "normform.structure", "apply_output_transform"),
    ("structure", "normform.structure", "apply_state_feedback"),
    ("structure", "normform.structure", "apply_output_injection"),
    ("normalform", "normform.normalform", "build_normal_form"),
    ("normalform", "normform.normalform", "zero_dynamics"),
    ("normalform", "normform.normalform", "check_assumption_D"),
    ("linstruct", "normform.linstruct", "linear_infinite_zeros"),
    ("linstruct", "normform.linstruct", "decompose"),
    ("backstep", "normform.backstep", "synthesize"),
    ("backstep", "normform.backstep", "semi_global_synthesize"),
    ("backstep", "normform.backstep", "da_synthesize"),
    ("simkit", "normform.simkit", "simulate"),
    ("simkit", "normform.simkit", "batch_simulate"),
    ("simkit", "normform.simkit", "trace_to_csv"),
    ("cli", "normform.cli", "main"),
    ("sampling", "numpy.linalg", "svd"),
    ("sampling", "numpy.linalg", "lstsq"),
]

COMPILERS = ("compile_exprs", "compile_exprs_scalar")
COMPILED_EVAL = "expr.compiled_eval"
SIMPLIFY = "expr.simplify"
# Only calls and self time are reported for these spans.
CALLS_SELF_ONLY = ("sampling.svd", "sampling.lstsq", COMPILED_EVAL)


def span_name(layer, attr):
    return f"{layer}.{attr.replace('__init__', 'init')}"


def per_layer_names():
    """Every per-layer metric the traced run reports, with its unit and
    the direction in which it is better."""
    out = []
    for layer, _, attr in TRACED:
        name = span_name(layer, attr)
        fields = ("calls", "self_s") if name in CALLS_SELF_ONLY else \
            ("calls", "total_s", "self_s")
        out += [(f"{name}.{f}", "count" if f == "calls" else "s", "lower")
                for f in fields]
    out += [(f"{SIMPLIFY}.noop_ratio", "ratio", "lower"),
            (f"{SIMPLIFY}.out_nodes_max", "nodes", "lower"),
            (f"{COMPILED_EVAL}.calls", "count", "lower"),
            (f"{COMPILED_EVAL}.self_s", "s", "lower"),
            ("tracing.overhead_ratio", "ratio", "lower"),
            ("tracing.op_coverage", "ratio", "higher")]
    return out


def _count_nodes(e):
    n = 0
    stack = [e]
    while stack:
        node = stack.pop()
        n += 1
        for attr in ("terms", "factors"):
            kids = getattr(node, attr, None)
            if kids is not None:
                stack.extend(kids)
        for attr in ("base", "arg"):
            kid = getattr(node, attr, None)
            if kid is not None:
                stack.append(kid)
    return n


class Tracer:
    """Records spans for wrapped calls; single-threaded by design."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.nested = array("b")   # 1 when inside a span of the same name
        self._stack = [-1]
        self._active = []
        self._restore = []
        self.simplify_noop = 0
        self.simplify_nodes_max = 0

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.nested.append(1 if self._active[nid] else 0)
        self._active[nid] += 1
        self._stack.append(idx)
        return idx

    def _close(self, idx, nid, t0, t1):
        self._stack.pop()
        self._active[nid] -= 1
        self.start[idx] = t0
        self.end[idx] = t1

    def wrap(self, name, fn):
        nid = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, nid, t0, clock())

        traced.__wrapped__ = fn
        return traced

    def _wrap_simplify(self, fn):
        nid = self._id(SIMPLIFY)
        clock = time.perf_counter

        def traced(e, *args, **kwargs):
            outer = self._active[nid] == 0
            idx = self._open(nid)
            t0 = clock()
            try:
                out = fn(e, *args, **kwargs)
            finally:
                self._close(idx, nid, t0, clock())
            # bookkeeping runs after the span closes, so it is charged to
            # the caller's self time and to tracing overhead
            if out is e or out == e:
                self.simplify_noop += 1
            if outer:
                self.simplify_nodes_max = max(self.simplify_nodes_max,
                                              _count_nodes(out))
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_compiler(self, name, fn):
        compile_span = self.wrap(name, fn)

        def traced(*args, **kwargs):
            return self.wrap(COMPILED_EVAL, compile_span(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn):
        """Run fn() inside a span opened by the benchmark itself."""
        return self.wrap(name, fn)()

    # -- installation -----------------------------------------------------

    def install(self):
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "normform" or k.startswith("normform."))]
        for layer, modname, attr in TRACED:
            owner = sys.modules[modname]
            name = span_name(layer, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            if attr == "simplify":
                wrapper = self._wrap_simplify(orig)
            elif attr in COMPILERS:
                wrapper = self._wrap_compiler(name, orig)
            else:
                wrapper = self.wrap(name, orig)
            for target in [owner] + mods:
                for key, val in list(vars(target).items()):
                    if val is orig:
                        self._set(target, key, wrapper)
        return self

    def _set(self, target, key, value):
        self._restore.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def uninstall(self):
        for target, key, value in reversed(self._restore):
            setattr(target, key, value)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def aggregate(self):
        """{name: (calls, total_s, self_s)} plus per-span child coverage.

        total_s counts only spans not nested inside a span of the same name,
        so recursion is not double counted; self_s is a span's duration
        minus the time its child spans cover."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name_id[i]]]
            s[0] += 1
            if not self.nested[i]:
                s[1] += dur[i]
            s[2] += dur[i] - child[i]
        return stats, dur, child

    def op_coverage(self, prefix="op:"):
        """Share of the benchmark's op spans covered by their child spans,
        over all ops, and the number of ops individually under 95%."""
        _, dur, child = self.aggregate()
        total = covered = 0.0
        below = 0
        for i in range(len(self.start)):
            if self.names[self.name_id[i]].startswith(prefix):
                total += dur[i]
                covered += child[i]
                below += child[i] < 0.95 * dur[i]
        return (covered / total if total else 1.0), below

    def write(self, path):
        import numpy as np
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            start=np.frombuffer(self.start, dtype=float),
                            end=np.frombuffer(self.end, dtype=float),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32))
