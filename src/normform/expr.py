"""Symbolic scalar expressions: AST, parser, canonical simplifier, calculus.

The expression language covers exactly what the structure algorithms and the
controller generators need: rational arithmetic over named variables plus the
elementary atoms sin, cos, exp, sqrt, abs (and sign, which only arises when
abs is differentiated).  Simplification normalizes every expression into a
fraction of two expanded multivariate polynomials over "atomic" bases
(variables, function applications, and sub-expressions that blew the
expansion budget), then cancels.  The canonical form is deterministic, so
render() is deterministic and structural equality is meaningful.

Not a general CAS: no integration, no trig rewriting beyond sin^2+cos^2 = 1,
no arbitrary-precision floats.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
import threading
import weakref
from collections import namedtuple
from fractions import Fraction

__all__ = [
    "Expr", "Const", "Var", "Add", "Mul", "Pow", "Func",
    "ParseError", "BudgetError", "EvalError",
    "parse", "render", "simplify", "diff", "subs", "evalf", "free_vars",
    "compile_exprs", "backends_agree", "sample_box", "numeric_equivalent",
    "equivalent", "is_zero", "const", "TERM_BUDGET", "KNOWN_FUNCS",
    "SAMPLE_POINTS", "SAMPLE_REDRAWS", "SAMPLE_CUTOFF",
]

KNOWN_FUNCS = ("sin", "cos", "exp", "sqrt", "abs", "sign")

# Expansion cap: products over sums are expanded only while the term count
# stays under this budget; past it the subexpression is kept factored and
# treated as an opaque atom by the canonicalizer.
TERM_BUDGET = 10_000

# The sampling rule of numeric_equivalent and normalform's assumption-D
# check, both drawn by sample_box: the first SAMPLE_POINTS valid points in
# draw order, where a point with a value undefined, non-finite or above
# SAMPLE_CUTOFF in absolute value is redrawn; EvalError once
# SAMPLE_REDRAWS * points draws have not given enough valid points.
SAMPLE_POINTS = 32
SAMPLE_REDRAWS = 40
SAMPLE_CUTOFF = 1e12


class ParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class BudgetError(RuntimeError):
    """Raised internally when a polynomial operation would exceed the budget."""


class EvalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

_set = object.__setattr__


def _blank(node):
    _set(node, "_key", None)
    _set(node, "_hash", None)
    _set(node, "_canon", False)
    _set(node, "_memo", None)


class Expr:
    # _canon: set by simplify on its output; _memo: values derived from
    # this node, computed once (see _memoized)
    __slots__ = ("_key", "_hash", "_canon", "_memo")

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    @property
    def key(self):
        k = self._key
        if k is None:
            k = self._compute_key()
            _set(self, "_key", k)
        return k

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.key)
            _set(self, "_hash", h)
        return h

    def __eq__(self, other):
        return isinstance(other, Expr) and self.key == other.key

    def __repr__(self):
        try:
            return f"Expr({render(self)!r})"
        except ValueError:   # a constant inf or nan: the node's parts
            parts = ", ".join(repr(getattr(self, s)) for s in self.__slots__)
            return f"{type(self).__name__}({parts})"

    def __str__(self):
        try:
            return render(self)
        except ValueError:
            return repr(self)

    # Operator sugar builds raw nodes; canonicalization happens in simplify().
    def __add__(self, other):
        return Add((self, _as_expr(other)))

    def __radd__(self, other):
        return Add((_as_expr(other), self))

    def __sub__(self, other):
        return Add((self, Mul((Const(-1), _as_expr(other)))))

    def __rsub__(self, other):
        return Add((_as_expr(other), Mul((Const(-1), self))))

    def __mul__(self, other):
        return Mul((self, _as_expr(other)))

    def __rmul__(self, other):
        return Mul((_as_expr(other), self))

    def __truediv__(self, other):
        return Mul((self, Pow(_as_expr(other), -1)))

    def __rtruediv__(self, other):
        return Mul((_as_expr(other), Pow(self, -1)))

    def __pow__(self, n):
        return Pow(self, int(n))

    def __neg__(self):
        return Mul((Const(-1), self))


def _as_expr(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, numbers.Real):
        return Const(v)
    raise TypeError(f"cannot coerce {v!r} to Expr")


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        # numpy ints overflow silently in a Fraction; numpy floats misrender
        if isinstance(value, numbers.Rational):
            if not (type(value) is Fraction and type(value.numerator) is int
                    and type(value.denominator) is int):
                value = Fraction(int(value.numerator), int(value.denominator))
        elif isinstance(value, numbers.Real):
            value = float(value)
        else:
            raise TypeError(f"bad constant {value!r}")
        _set(self, "value", value)
        _blank(self)

    def _compute_key(self):
        if isinstance(self.value, Fraction):
            return f"0Q{self.value.numerator}/{self.value.denominator}"
        return f"0F{self.value!r}"


_NAME_SPLIT = re.compile(r"^(.*?)(\d*)$")


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        _set(self, "name", name)
        _blank(self)

    def _compute_key(self):
        # Numeric suffixes order numerically: x2 sorts before x10.
        stem, digits = _NAME_SPLIT.match(self.name).groups()
        return f"1V{stem}\x00{int(digits) if digits else -1:012d}"


class Func(Expr):
    __slots__ = ("fname", "arg")

    def __init__(self, fname, arg):
        if fname not in KNOWN_FUNCS:
            raise ValueError(f"unknown function {fname!r}")
        _set(self, "fname", fname)
        _set(self, "arg", arg)
        _blank(self)

    def _compute_key(self):
        return f"2U{self.fname}({self.arg.key})"


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base, exp):
        if not isinstance(exp, int):
            raise TypeError("Pow exponent must be an int")
        _set(self, "base", base)
        _set(self, "exp", exp)
        _blank(self)

    def _compute_key(self):
        return f"3P({self.base.key})^{self.exp:+012d}"


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        _set(self, "factors", tuple(factors))
        _blank(self)

    def _compute_key(self):
        return "4M(" + ";".join(f.key for f in self.factors) + ")"


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        _set(self, "terms", tuple(terms))
        _blank(self)

    def _compute_key(self):
        return "5A(" + ";".join(t.key for t in self.terms) + ")"


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def const(v):
    return _as_expr(v)


# ---------------------------------------------------------------------------
# Tokenizer / parser (precedence climbing)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", off)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_PREC = 25  # binds tighter than * but looser than ^, so -x^2 == -(x^2)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)

    def parse_expr(self, min_prec=0):
        lhs = self.parse_atom()
        chain = ()
        while True:
            kind, val, off = self.peek()
            if kind != "op" or val not in _BIN_PREC or _BIN_PREC[val] < min_prec:
                return lhs
            self.next()
            if val == "^":
                exp = self.parse_int_exponent()
                lhs = Pow(lhs, exp)
                continue
            rhs = self.parse_expr(_BIN_PREC[val] + 1)
            if val == "+":
                lhs = Add((lhs, rhs))
            elif val == "-":
                lhs = Add((lhs, Mul((Const(-1), rhs))))
            else:   # a chain of * and / is one product, as render writes it
                chain = (chain or (lhs,)) + (rhs if val == "*" else Pow(rhs, -1),)
                lhs = Mul(chain)

    def parse_int_exponent(self):
        kind, val, off = self.next()
        neg = False
        if kind == "op" and val == "-":
            neg = True
            kind, val, off = self.next()
        if kind != "num" or not re.fullmatch(r"\d+", val):
            raise ParseError("exponent must be an integer literal", off)
        n = int(val)
        return -n if neg else n

    def parse_atom(self):
        kind, val, off = self.next()
        if kind == "num":
            if re.fullmatch(r"\d+", val):
                return Const(Fraction(int(val)))
            if not math.isfinite(float(val)):
                raise ParseError(f"number {val} is not finite", off)
            return Const(float(val))
        if kind == "name":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in KNOWN_FUNCS:
                    raise ParseError(f"unknown function {val!r}", off)
                self.next()
                arg = self.parse_expr()
                self.expect_op(")")
                return Func(val, arg)
            return Var(val)
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            return Mul((Const(-1), self.parse_expr(_UNARY_PREC)))
        if kind == "op" and val == "+":
            return self.parse_expr(_UNARY_PREC)
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def parse(text):
    """Parse an expression string into a canonical (simplified) Expr."""
    p = _Parser(text)
    e = p.parse_expr()
    kind, val, off = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", off)
    return simplify(e)


# ---------------------------------------------------------------------------
# Polynomial-fraction canonical form
#
# A polynomial is a dict {mono: coeff}.  A monomial is its own sort key: the
# tuple (-degree, (tok, -e), ...), one pair per atom (a Var, a Func or an
# opaque budget-capped subexpression) with exponent e > 0, by ascending
# token.  A token is the atom's key as an interned str carrying the atom
# (tok.atom), so the tuple order is the term order (higher degree first, then
# by atom key, a higher power first), and monomials hash and compare as str
# and int.  Coefficients are exact (int when whole, else Fraction) or float;
# the plain operators keep exact operands exact and make float contagious.
# ---------------------------------------------------------------------------

_EMPTY_MONO = (0,)
# The polynomial 1, for comparisons only: a _Frac never holds it, since a
# caller could mutate a dict it is handed.
_POLY_ONE = {_EMPTY_MONO: 1}


class _Tok(str):
    __slots__ = ("atom", "__weakref__")


# key -> token, held weakly: a token lives while a monomial holds it and holds
# its atom, so no atom outlives its polynomials here.
_TOKENS = weakref.WeakValueDictionary()

# The live |.| and sin tokens, by key prefix: the rewrites that look for one
# (the |u|^2 rule of _mono_mul, _pythagorean_pass) are skipped while none
# lives.  A token is counted before a monomial can hold it; tokens are made
# and die in any thread, and the lock is reentrant so a finalizer may run
# while it is held.
_LIVE = {"2Uabs(": 0, "2Usin(": 0}
_LIVE_LOCK = threading.RLock()


def _live_add(kind, k):
    with _LIVE_LOCK:
        _LIVE[kind] += k


def _token(atom):
    """The token of atom's key, one for all nodes with that key."""
    key = atom.key
    tok = _TOKENS.get(key)
    if tok is None:
        tok = _Tok(key)
        tok.atom = atom
        kind = key[:6]
        if kind in _LIVE:
            _live_add(kind, 1)
            weakref.finalize(tok, _live_add, kind, -1)
        _TOKENS[key] = tok
    return tok


def _whole(c):
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _div(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return float(a) / float(b)
    return _whole(Fraction(a, b))


def _poly_const(c):
    return {_EMPTY_MONO: _whole(c)} if c != 0 else {}


def _poly_atom(atom, exp=1):
    return {(-exp, (_token(atom), -exp)): 1}


def _poly_add(p, q):
    if len(q) > len(p):
        p, q = q, p
    return _poly_iadd(dict(p), q)


def _poly_iadd(out, q):
    """out + q, added into out in place."""
    for mono, c in q.items():
        nc = out.get(mono, 0) + c
        if nc == 0:
            out.pop(mono, None)
        else:
            out[mono] = nc
    return out


def _mono_mul(m1, m2):
    if len(m1) == 1:
        return m2
    if len(m2) == 1:
        return m1
    d = dict(m1[1:])
    for t, e in m2[1:]:
        d[t] = d.get(t, 0) + e
    # |u|^2 = u^2 for an atomic u, and again on u if it is an |.| so raised;
    # with no |.| token alive no monomial holds one
    todo = list(d) if _LIVE["2Uabs("] else ()
    while todo:
        t = todo.pop()
        e = d.get(t, 0)
        if (e <= -2 and t.startswith("2Uabs(")
                and isinstance(t.atom.arg, (Var, Func))):
            u = _token(t.atom.arg)
            d[u] = d.get(u, 0) + e - e % -2
            todo.append(u)
            del d[t]
            if e % -2:
                d[t] = -1
    return (m1[0] + m2[0], *sorted(d.items()))


def _poly_mul(p, q):
    if not p or not q:
        return {}
    if len(p) * len(q) > 4 * TERM_BUDGET:
        raise BudgetError
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            nc = out.get(m, 0) + c1 * c2
            if nc == 0:
                out.pop(m, None)
            else:
                out[m] = nc
    if len(out) > TERM_BUDGET:
        raise BudgetError
    return out


def _poly_pow(p, n):
    """p^n for n >= 1; p^1 is p itself, whatever its size."""
    out = None
    while n:
        if n & 1:
            out = p if out is None else _poly_mul(out, p)
        n >>= 1
        if n:
            p = _poly_mul(p, p)
    return out


def _poly_lead(p):
    return min(p)


def _mono_divides(md, mn):
    """mn / md when md divides mn, else None."""
    if md[0] < mn[0]:   # md has the higher degree
        return None
    dn = dict(mn[1:])
    for t, e in md[1:]:
        r = dn.get(t, 0) - e
        if r > 0:
            return None
        if r:
            dn[t] = r
        else:
            del dn[t]
    return (mn[0] - md[0], *dn.items())


def _poly_divide_exact(n, d):
    """Return n/d when d divides n exactly, else None; n and d are not
    zero.  The trailing (least) monomial of a product is the product of the
    trailing monomials (a monomial order), so None comes at once where d's
    does not divide n's: a proof with no live |.| token (the |u|^2 rule
    collapses products) and no float (a product may underflow to 0)."""
    if (_mono_divides(max(d), max(n)) is None and not _LIVE["2Uabs("]
            and not any(type(c) is float for p in (n, d) for c in p.values())):
        return None
    q = {}
    rem = dict(n)
    ld = _poly_lead(d)
    cd = d[ld]
    guard = 8 * (len(n) + len(d)) + 64
    while rem:
        guard -= 1
        if guard < 0:
            return None
        lm = _poly_lead(rem)
        qm = _mono_divides(ld, lm)
        if qm is None:
            return None
        qc = _div(rem[lm], cd)
        q[qm] = q.get(qm, 0) + qc
        for m2, c2 in d.items():
            m = _mono_mul(qm, m2)
            nc = rem.get(m, 0) - qc * c2
            if nc == 0:
                rem.pop(m, None)
            else:
                rem[m] = nc
    return {m: c for m, c in q.items() if c != 0}


def _pythagorean_pass(p):
    """Rewrite c1*M*sin(u)^2 + c2*M*cos(u)^2 -> c1*M + (c2-c1)*M*cos(u)^2.
    With no sin token alive p holds none, and is returned unscanned."""
    changed = _LIVE["2Usin("] > 0
    guard = 64
    while changed and guard:
        guard -= 1
        changed = False
        for mono, c1 in list(p.items()):
            hit = None
            for t, e in mono[1:]:
                if e <= -2 and t.startswith("2Usin("):
                    hit = t
                    break
            # no cos(u) token, no monomial with cos(u)
            cos = None if hit is None else _TOKENS.get("2Ucos" + hit[5:])
            if cos is None:
                continue
            base = _mono_divides((-2, (hit, -2)), mono)
            partner = _mono_mul(base, (-2, (cos, -2)))
            if partner not in p:
                continue
            c2 = p[partner]
            p.pop(mono)
            p.pop(partner)
            _poly_iadd(p, {base: c1, partner: c2 - c1})
            changed = True
            break
    return p


def _is_one(p):
    """Whether the polynomial p is the exact int 1."""
    c = p.get(_EMPTY_MONO) if len(p) == 1 else None
    return type(c) is int and c == 1


def _frac_cancel(num, den):
    if _is_one(den):
        # no common content, no division, leading coefficient already 1
        return _Frac(_pythagorean_pass(dict(num)), {_EMPTY_MONO: 1})
    num = _pythagorean_pass(dict(num))
    den = _pythagorean_pass(dict(den))
    if not num:
        return _Frac({}, _poly_const(1))
    # Common monomial content (token -> negated exponent), the numerator's
    # taken only where the denominator has some.
    def content(p):
        out = dict(next(iter(p))[1:])
        for m in p:
            if not out:
                break
            dm = dict(m[1:])
            out = {t: max(e, dm[t]) for t, e in out.items() if t in dm}
        return out
    cd = content(den)
    common = cd and {t: max(e, cd[t]) for t, e in content(num).items() if t in cd}
    if common:
        cm = (sum(common.values()), *common.items())
        num = {_mono_divides(cm, m): c for m, c in num.items()}
        den = {_mono_divides(cm, m): c for m, c in den.items()}
    # Exact division both ways.
    if den != _POLY_ONE:
        q = _poly_divide_exact(num, den)
        if q is not None:
            return _Frac(q, _poly_const(1))
        q = _poly_divide_exact(den, num)
        if q is not None and q:
            return _Frac(_poly_const(1), q)
    # Normalize: leading denominator coefficient 1.
    ld = den[_poly_lead(den)]
    if ld != 1:
        den = {m: _div(c, ld) for m, c in den.items()}
        num = {m: _div(c, ld) for m, c in num.items()}
    return _Frac(num, den)


_Frac = namedtuple("_Frac", "num den")


def _frac_add(f1, f2):
    if f1.den == f2.den:
        return _Frac(_poly_add(f1.num, f2.num), f1.den)
    if not (_is_one(f1.den) or _is_one(f2.den)):
        # over the multiple if the denominator of lower degree divides the
        # other (a leading monomial starts with its negated degree)
        big, small = (f1, f2) if min(f1.den)[0] <= min(f2.den)[0] else (f2, f1)
        k = _poly_divide_exact(big.den, small.den)
        if k is not None:
            return _frac_cancel(_poly_add(big.num, _poly_mul(small.num, k)),
                                big.den)
    num = _poly_add(_poly_mul(f1.num, f2.den), _poly_mul(f2.num, f1.den))
    den = _poly_mul(f1.den, f2.den)
    return _frac_cancel(num, den)


def _frac_mul(f1, f2):
    num = _poly_mul(f1.num, f2.num)
    if _is_one(f1.den) and _is_one(f2.den):   # no product of 1 by 1
        return _frac_cancel(num, f1.den)
    return _frac_cancel(num, _poly_mul(f1.den, f2.den))


def _frac_inv(f):
    if not f.num:
        raise ZeroDivisionError("division by symbolically zero expression")
    return _frac_cancel(f.den, f.num)


# The memo key of a node's stored fraction; diff's keys are variable names,
# which are strings, so they never meet it.
_FRAC_KEY = 0


def _memoized(e, key, compute):
    """compute(), stored on node e under key: computed once while e lives.
    An exception propagates and nothing is stored."""
    memo = e._memo
    if memo is None:
        memo = {}
        _set(e, "_memo", memo)
    v = memo.get(key)
    if v is None:
        v = memo[key] = compute()
    return v


def _to_frac(e):
    """The polynomial fraction of e.  On a canonical node it is stored on
    the node, so it is shared: nothing may mutate a returned _Frac."""
    if isinstance(e, Const):
        return _Frac(_poly_const(e.value), _poly_const(1))
    if isinstance(e, Var):
        return _Frac(_poly_atom(e), _poly_const(1))
    if e._canon:
        return _memoized(e, _FRAC_KEY, lambda: _expand(e))
    return _expand(e)


def _expand(e):
    if isinstance(e, Func):
        arg = simplify(e.arg)
        if isinstance(arg, Const):
            folded = _fold_func(e.fname, arg.value)
            if folded is not None:
                return _Frac(_poly_const(folded), _poly_const(1))
        return _Frac(_poly_atom(Func(e.fname, arg)), _poly_const(1))
    if isinstance(e, Add):
        # acc.num is made here, so a term no larger is added in place, with
        # the dict and order that _poly_add would copy out
        acc = _Frac({}, _poly_const(1))
        for t in e.terms:
            f = _to_frac(t)
            if f.den == acc.den and len(f.num) <= len(acc.num):
                _poly_iadd(acc.num, f.num)
            else:
                acc = _frac_add(acc, f)
        return acc
    if isinstance(e, Mul):
        acc = _Frac(_poly_const(1), _poly_const(1))
        for t in e.factors:
            acc = _frac_mul(acc, _to_frac(t))
        return acc
    if isinstance(e, Pow):
        if e.exp == 0:
            return _Frac(_poly_const(1), _poly_const(1))
        if isinstance(e.base, Func) and e.base.fname == "abs" and e.exp % 2 == 0:
            return _to_frac(Pow(e.base.arg, e.exp))
        f = _to_frac(e.base)
        n = abs(e.exp)
        try:
            num, den = _poly_pow(f.num, n), _poly_pow(f.den, n)
        except BudgetError:
            # Retry on the canonical base, else keep that base factored.
            base = simplify(e.base)
            f = _to_frac(base)
            try:
                num, den = _poly_pow(f.num, n), _poly_pow(f.den, n)
            except BudgetError:
                num, den = _poly_atom(base, n), _poly_const(1)
        g = _frac_cancel(num, den)
        return _frac_inv(g) if e.exp < 0 else g
    raise TypeError(f"unknown node {type(e).__name__}")


def _fold_func(fname, value):
    """Fold function-of-constant where the result is exact."""
    if fname == "abs":
        return abs(value)
    if fname == "sign":
        return (value > 0) - (value < 0)
    if value == 0:
        return 1 if fname in ("cos", "exp") else 0
    if isinstance(value, float):
        try:
            out = _SCALAR_FUNCS["_" + fname](value)
        except ValueError:
            return None
        return out if math.isfinite(out) else None
    return None


def _mono_to_expr(mono, coeff):
    factors = [Const(coeff)] if coeff != 1 or len(mono) == 1 else []
    factors += [t.atom if e == -1 else Pow(t.atom, -e) for t, e in mono[1:]]
    return factors[0] if len(factors) == 1 else Mul(tuple(factors))


def _poly_written(p):
    """The sum of p's terms sorted by key, and p's monomials in that order."""
    if not p:
        return ZERO, ()
    terms, monos = zip(*sorted(((_mono_to_expr(m, c), m) for m, c in p.items()),
                               key=lambda tm: tm[0].key))
    return (terms[0] if len(terms) == 1 else Add(terms)), monos


def _frac_written(f):
    """The tree of f, and the monomials of its numerator in written order."""
    num, order = _poly_written(f.num)
    if f.den == _POLY_ONE:
        return num, order
    den = _poly_written(f.den)[0]
    return (Pow(den, -1) if num == ONE else Mul((num, Pow(den, -1)))), order


def _reads_back_differently(f):
    # |u|^2k with u non-atomic folds to u^2k only when read back as a power;
    # an opaque atom left at exponent 1 by cancellation expands.
    return any((x % 2 == 0 and t.startswith("2Uabs("))
               or (x == -1 and not isinstance(t.atom, (Var, Func)))
               for p in (f.num, f.den) for m in p for t, x in m[1:])


def simplify(e):
    """Canonicalize an expression.

    Idempotent: a copy of s = simplify(e) simplifies to s, and s is marked
    so that simplify(s) returns s at once.  Expansion stops at TERM_BUDGET;
    capped subexpressions stay factored.  The fraction s was written from
    is stored on s as its polynomial form where it is the one expanding s
    would give (see _mark_canonical), so s is not expanded again.
    """
    e = _as_expr(e)
    if e._canon:
        return e
    try:
        while True:
            f = _to_frac(e)
            f = _frac_cancel(f.num, f.den)
            out, order = _frac_written(f)
            if not _reads_back_differently(f):
                return _mark_canonical(out, f, order)
            e = out
    except BudgetError:
        # Keep the tree with simplified children; callers fall back to the
        # randomized numeric equivalence test for equality on such values.
        if isinstance(e, Add):
            out = Add(tuple(simplify(t) for t in e.terms))
        elif isinstance(e, Mul):
            # one leading constant, the only one render writes
            factors = [simplify(t) for t in e.factors]
            c = math.prod(f.value for f in factors if isinstance(f, Const))
            rest = [f for f in factors if not isinstance(f, Const)]
            out = (rest[0] if c == 1 and len(rest) == 1
                   else Mul(([Const(c)] if c != 1 else []) + rest))
        else:  # only sums, products and powers overflow
            base = simplify(e.base)
            out = (Pow(base.base, base.exp * e.exp) if isinstance(base, Pow)
                   else Pow(base, e.exp))
        if out != e:
            # The simplified children may fit the budget where e did not.
            return simplify(out)
    _set(out, "_canon", True)
    return out


def _exact(f, over_vars=False):
    """Whether every coefficient of the fraction f is exact and, with
    over_vars, every atom a variable."""
    return not any(type(c) is float
                   or (over_vars and any(type(t.atom) is not Var for t, _ in m[1:]))
                   for p in f for m, c in p.items())


def _mark_canonical(out, f, order):
    """Mark `out`, the tree _frac_written gives for the cancelled fraction f
    with its numerator's monomials in `order`, as canonical, and store on
    it the fraction that expanding `out` gives, where that is f:
    when every coefficient is exact (_mono_to_expr does not write a float
    coefficient 1.0, so such a tree reads back with an exact 1), and over a
    denominator only when both parts fit the budget (the expansion
    multiplies them out, and a larger part raises BudgetError).  The stored
    dicts have the expansion's order, the numerator's by written term and
    the denominator's by leading monomial (the exact division that inverts
    it), and its coefficient types, so that float products and the
    Pythagorean pass meet their terms in the same order."""
    _set(out, "_canon", True)
    if (not isinstance(out, (Const, Var))
            and (f.den == _POLY_ONE
                 or (len(f.num) <= TERM_BUDGET and len(f.den) <= TERM_BUDGET))
            and _exact(f)):
        _memoized(out, _FRAC_KEY, lambda: _Frac(
            {m: _whole(f.num[m]) for m in order},
            {m: _whole(f.den[m]) for m in sorted(f.den)}))
    return out


def is_zero(e):
    return simplify(e) == ZERO


# ---------------------------------------------------------------------------
# Calculus / substitution / evaluation
# ---------------------------------------------------------------------------

def _diff_raw(e, name):
    """The unsimplified derivative tree.  A subtree whose derivative is
    structurally zero gives the shared ZERO node, and no sum or product
    term is built around it; the other terms keep their order."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        terms = tuple(d for d in (_diff_raw(t, name) for t in e.terms)
                      if d is not ZERO)
        return Add(terms) if terms else ZERO
    if isinstance(e, Mul):
        terms = []
        fs = e.factors
        for i, f in enumerate(fs):
            d = _diff_raw(f, name)
            if d is not ZERO:
                terms.append(Mul(fs[:i] + (d,) + fs[i + 1:]))
        return Add(tuple(terms)) if terms else ZERO
    if isinstance(e, Pow):
        inner = _diff_raw(e.base, name)
        if inner is ZERO or e.exp == 0:
            return ZERO
        return Mul((Const(e.exp), Pow(e.base, e.exp - 1), inner))
    if isinstance(e, Func):
        inner = _diff_raw(e.arg, name)
        if inner is ZERO or e.fname == "sign":  # sign: 0 almost everywhere
            return ZERO
        u = e.arg
        if e.fname == "sin":
            outer = Func("cos", u)
        elif e.fname == "cos":
            outer = Mul((Const(-1), Func("sin", u)))
        elif e.fname == "exp":
            outer = Func("exp", u)
        elif e.fname == "sqrt":
            outer = Mul((Const(Fraction(1, 2)), Pow(Func("sqrt", u), -1)))
        else:
            # d|u|/du = sign(u); defined as 0 at u = 0 (documented caveat).
            outer = Func("sign", u)
        return Mul((outer, inner))
    raise TypeError(f"unknown node {type(e).__name__}")


def diff(e, name):
    """Exact partial derivative with respect to the named variable; stored
    on e, so each derivative of a node is computed once."""
    e = _as_expr(e)
    return _memoized(e, name, lambda: simplify(_diff_raw(e, name)))


def _subs_raw(e, mapping):
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Const):
        return e
    if isinstance(e, Add):
        return Add(tuple(_subs_raw(t, mapping) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(_subs_raw(t, mapping) for t in e.factors))
    if isinstance(e, Pow):
        return Pow(_subs_raw(e.base, mapping), e.exp)
    if isinstance(e, Func):
        return Func(e.fname, _subs_raw(e.arg, mapping))
    raise TypeError(f"unknown node {type(e).__name__}")


def subs(e, mapping):
    """Substitute variables by expressions (keys are names) and simplify."""
    mapping = {k: _as_expr(v) for k, v in mapping.items()}
    return simplify(_subs_raw(_as_expr(e), mapping))


def free_vars(e):
    """Variable names appearing in the canonical form (so x1-x1 reports none)."""
    return _var_names(simplify(e))


def _var_names(e):
    """Variable names appearing in the tree as given."""
    out = set()

    def walk(n):
        if isinstance(n, Var):
            out.add(n.name)
        elif isinstance(n, Add):
            for t in n.terms:
                walk(t)
        elif isinstance(n, Mul):
            for t in n.factors:
                walk(t)
        elif isinstance(n, Pow):
            walk(n.base)
        elif isinstance(n, Func):
            walk(n.arg)

    walk(e)
    return out


# ---------------------------------------------------------------------------
# Compilation: one value-numbering code generator, two backends
# ---------------------------------------------------------------------------

# the longest sum or product that the lambda renderer writes as one chain
_CHUNK = 256


def _number_values(exprs, names):
    """Value numbering for the kernel renderers: (keys, uses, roots).

    Nodes are numbered bottom-up by value, on (op, data, child numbers),
    with a memo by node identity so shared subtrees are walked once.
    keys[v] is the source text of a leaf (`(3)`, `(0.5)`, `_a[i]` for
    names[i]) or a tuple: ("+" or "*", children), ("^", exponent, base) or
    (function name, argument).  uses[v] counts the parent values and roots
    that read v (a square reads its base twice), roots[i] is the value of
    exprs[i].
    """
    exprs = [_as_expr(e) for e in exprs]   # alive while ids are memo keys
    index = {}
    for i, name in enumerate(names):
        index.setdefault(name, i)   # a repeated name reads its first slot
    memo = {}       # id(node) -> value number
    numbers = {}    # leaf text or (op, data, child numbers) -> value number
    keys = []       # value number -> key
    uses = []       # value number -> parent values and roots using it

    def number(e):
        v = memo.get(id(e))
        if v is not None:
            return v
        if isinstance(e, Add):
            kids = tuple(map(number, e.terms))
            key = ("+", kids)
        elif isinstance(e, Mul):
            kids = tuple(map(number, e.factors))
            key = ("*", kids)
        elif isinstance(e, Pow):
            # a square reads its base twice, so a compound base is bound
            kids = (number(e.base),) * (2 if e.exp == 2 else 1)
            key = ("^", e.exp, kids[0])
        elif isinstance(e, Func):
            kids = (number(e.arg),)
            key = (e.fname, kids[0])
        elif isinstance(e, Const):
            kids = ()
            if isinstance(e.value, Fraction) and e.value.denominator == 1:
                key = f"({e.value.numerator})"
            elif math.isfinite(e.value):
                key = f"({float(e.value)!r})"
            else:
                raise EvalError(f"constant {e.value} is not finite")
        elif isinstance(e, Var):
            kids = ()
            try:
                key = f"_a[{index[e.name]}]"
            except KeyError:
                raise EvalError(f"unbound variable {e.name!r}") from None
        else:
            raise TypeError(f"unknown node {type(e).__name__}")
        v = numbers.get(key)
        if v is None:
            v = numbers[key] = len(keys)
            keys.append(key)
            uses.append(0)
            for c in kids:
                uses[c] += 1
        memo[id(e)] = v
        return v

    roots = [number(e) for e in exprs]
    for v in roots:
        uses[v] += 1
    # the closure refers to itself; break the cycle so that the tables are
    # freed here and not by the next garbage collection
    del number
    return keys, uses, roots


def _inline_writer(keys, uses, bound):
    """emit(v): the text of value v as one Python expression.

    A compound value used more than once is bound to a local `_tN` by `:=`
    where it is first written, and read back after; `bound` holds the
    values bound so far.  A square is written as a product,
    `(_tN:=base)*_tN` (a leaf base inline): correctly rounded, and numpy's
    `x**2` on an array, which a float `pow` is not.  A sum or product of
    more than _CHUNK operands is written as a tuple of partial results,
    each bound to a local `_sN` and read by the next.
    """
    def emit(v):
        key = keys[v]
        if type(key) is str:
            return key
        if v in bound:
            return f"_t{v}"
        op = key[0]
        if (op == "+" or op == "*") and len(key[1]) > _CHUNK:
            # Python's compiler recurses once per operator in a chain, so a
            # long one is folded in chunks through a local, in the same order
            parts = list(map(emit, key[1]))
            text = "(" + ",".join(
                f"(_s{v}:=" + ("" if i == 0 else f"_s{v}{op}")
                + op.join(parts[i:i + _CHUNK]) + ")"
                for i in range(0, len(parts), _CHUNK)) + ")[-1]"
        elif op == "+" or op == "*":
            text = "(" + op.join(map(emit, key[1])) + ")"
        elif op == "^" and key[1] == 2:
            text = f"({emit(key[2])}*{emit(key[2])})"
        elif op == "^":
            text = (f"({emit(key[2])}**({float(key[1])}))" if key[1] < 0
                    else f"({emit(key[2])}**{key[1]})")
        else:
            text = f"_{op}({emit(key[1])})"
        if uses[v] > 1:
            bound.add(v)
            return f"(_t{v}:={text})"
        return text

    return emit


def _kernel_source(exprs, names):
    """Source of `lambda _a: [...]`, one value per expression, over `_a[i]`
    for names[i], calling `_sin`, `_cos`, ... for the functions.

    Values are numbered by `_number_values` and written by `_inline_writer`;
    every node not bound to a local is written inline.  Each operation keeps
    its operands and their order, and runs where it ran in the inlined tree,
    so values and exceptions are those of the trees as given.
    """
    keys, uses, roots = _number_values(exprs, names)
    emit = _inline_writer(keys, uses, set())
    src = "lambda _a: [" + ",".join(map(emit, roots)) + "]"
    del emit   # a self-referencing closure, as in _number_values
    return src


def _float_literal(key):
    """An int constant's key as a float literal, where exact (below 2**53),
    else the key; None for any other key."""
    text = key[1:-1]
    if key[0] != "(" or not text.lstrip("-").isdigit():
        return None
    return f"({float(int(text))!r})" if abs(int(text)) < 2 ** 53 else key


def _statement_source(keys, uses, roots, outs, literal, arrays):
    """The statements that write the value of roots[i] into the array row
    outs[i], over the value numbering (keys, uses) of `_number_values` whose
    leaves in `arrays` are array rows and the others numbers, and the
    scratch rows they write into.

    A sum or product is a chain of `_add`/`_mul` calls into its target (a
    root's row, the scratch row `_bD` of its depth, or the row `_tN` of a
    value used more than once) with the operands and order of the lambda of
    `_kernel_source`, its first operand written into the target, a later
    compound one into the row of the next depth.  A function writes into
    its target, a square is a `_mul`, and another power of a value that
    reads an array a `_power` into its target by literal(its exponent as a
    float): numpy's array `pow`, as in the lambda.  A power of a value that
    reads numbers alone, with the values its base reads, is the lambda's
    `**` (`_inline_writer`): a float's `pow` rounds otherwise than numpy's
    array `pow`, and may raise.  A leaf of text t (an int below 2**53 as
    numpy's float of it) is written literal(t).
    """
    # powers other than squares of values that read no array, and the
    # values their bases read
    numeric = []
    for key in keys:   # children are numbered before their parents
        numeric.append(key not in arrays if type(key) is str else all(
            numeric[c] for c in (key[1] if key[0] in ("+", "*") else key[-1:])))
    inline = set()
    stack = [v for v, k in enumerate(keys) if type(k) is tuple and
             k[0] == "^" and k[1] != 2 and numeric[v]]
    while stack:
        v = stack.pop()
        key = keys[v]
        if type(key) is not str and v not in inline:
            inline.add(v)
            stack.extend(key[1] if key[0] in ("+", "*") else key[-1:])
    bound = set()
    emit = _inline_writer(keys, uses, bound)
    lines = []
    rows = []       # scratch row names

    def ready(v):
        # the text of v when it needs no statement of its own
        key = keys[v]
        if type(key) is not str:
            return f"_t{v}" if v in bound else None
        return literal(_float_literal(key) or key)

    def shared(v, depth):
        rows.append(f"_t{v}")
        write(v, f"_t{v}", depth)
        bound.add(v)
        return f"_t{v}"

    def operand(v, depth):
        # v as a later operand: its text, or the row it is written into
        text = ready(v)
        if text is not None:
            return text
        if v in inline:
            return emit(v)
        if uses[v] > 1:
            return shared(v, depth)
        row = f"_b{depth}"
        if row not in rows:
            rows.append(row)
        write(v, row, depth + 1)
        return row

    def first(v, target, depth):
        # v as the first operand: its text, or the target it is written into
        text = ready(v)
        if text is not None:
            return text
        if uses[v] > 1 and v not in inline:
            return shared(v, depth)
        write(v, target, depth)
        return target

    def write(v, target, depth):
        key = keys[v]
        op = key[0]
        if v in inline:
            lines.append(f"_copyto({target},{emit(v)})")
        elif op == "+" or op == "*":
            call = "_add" if op == "+" else "_mul"
            acc = first(key[1][0], target, depth)
            for c in key[1][1:]:
                lines.append(f"{call}({acc},{operand(c, depth)},{target})")
                acc = target
            if acc != target:
                lines.append(f"_copyto({target},{acc})")
        elif op == "^" and key[1] == 2:
            lines.append(f"_mul({operand(key[2], depth)},"
                         f"{operand(key[2], depth)},{target})")
        elif op == "^":
            lines.append(f"_power({first(key[2], target, depth)},"
                         f"{literal(f'({float(key[1])!r})')},{target})")
        else:
            lines.append(f"_{op}({first(key[1], target, depth)},{target})")

    for v, out in zip(roots, outs):
        text = first(v, out, 0)
        if text != out:
            lines.append(f"_copyto({out},{text})")
    del ready, shared, operand, first, write, emit   # cycles, as above
    return lines, rows


# Kernel sources repeat within a process (repeated CLI calls, repeated
# checks of one system), so each distinct source is compiled once; the
# cache holds code objects only, never trees.
_CODE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(src, mode):
    """The code object of a generated kernel source, in mode "eval" or
    "exec"."""
    return compile(src, "<kernel>", mode)


def compile_exprs(exprs, names):
    """Compile a list of expressions into f(args) -> list of arrays.

    `args` is a sequence of scalars or equally-shaped numpy arrays, one per
    name; evaluation broadcasts elementwise.  Identical source is compiled
    once per process (`_code`, a bounded cache of code objects); each call
    evaluates the code in a fresh environment and returns its own function.
    """
    import numpy as _np

    code = _code(_kernel_source(exprs, names), "eval")
    return eval(code, {f"_{f}": getattr(_np, f) for f in KNOWN_FUNCS})  # noqa: S307


def _exp_or_inf(v):
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _sqrt_or_nan(v):
    if v >= 0:
        return math.sqrt(v)
    import numpy as _np

    # numpy's nan bits: its default nan below zero, a nan argument's own
    with _np.errstate(invalid="ignore"):
        return float(_np.sqrt(v))


def _sign(v):
    # a nan argument is returned as it is, as numpy's sign does
    return float((v > 0) - (v < 0)) if v == v else v


# math functions on plain floats; an exp that overflows gives inf and the
# sqrt of a negative value nan, as in numpy
_SCALAR_FUNCS = {"_sin": math.sin, "_cos": math.cos, "_exp": _exp_or_inf,
                 "_sqrt": _sqrt_or_nan, "_abs": abs, "_sign": _sign}


def compile_exprs_scalar(exprs, names):
    """compile_exprs for one point of Python floats (much faster than numpy
    for single runs), from the same cache of code objects."""
    code = _code(_kernel_source(exprs, names), "eval")
    return eval(code, dict(_SCALAR_FUNCS))  # noqa: S307 - from our own AST


def _step_source(exprs, names, integrator, bound):
    """Source of `def _steps(_x,_W1,_W2,_W4,_dt)`: RK4 (or Euler) steps of
    dx/dt = exprs from _x, the values of names[:-1], one per value of
    names[-1] at t, t + dt/2 and t + dt in _W1, _W2, _W4.  It returns [_x]
    and the state after each step, and None; or it stops after a state
    whose squared norm exceeds bound (True) or before a step whose kernel
    raised (the exception).  Each stage is the kernel of `_kernel_source`
    over locals, combined in the order of x + dt/2*k1, x + dt*k3 and
    x + dt/6*(k1 + 2*k2 + 2*k3 + k4), or x + dt*k1: the bits and exceptions
    of that arithmetic.  CPython specializes float*float, not int*float, so
    an int constant is a float literal where it meets a float at once: as
    the one int operand of a sum or product of floats, or the argument of a
    function but abs.  Elsewhere exact int arithmetic rounds otherwise.
    """
    keys, uses, roots = _number_values(exprs, names)
    floats, ints = [], set(roots)   # float values; int constants kept
    for key in keys:
        if type(key) is str:
            floats.append(_float_literal(key) is None)
            continue
        kids = key[1] if key[0] in "+*" else key[-1:]
        flags = [floats[c] for c in kids]
        # a power (not negative) or abs of an int is an int
        whole = key[0] == "abs" or key[0] == "^" and key[1] >= 0
        floats.append(True in flags if key[0] in "+*" else
                      flags[0] or not whole)
        if whole or key[0] in "+*" and (flags.count(False) > 1 or
                                        len(kids) == 1):
            ints.update(kids)
    keys = [k if v in ints else _float_literal(k) or k
            for v, k in enumerate(keys)]
    n = len(roots)
    x, y = [f"_x{i}" for i in range(n)], [f"_y{i}" for i in range(n)]
    euler = integrator == "euler"
    lines = ["(" + "".join(f"{v}," for v in x) + ")=_x", "_h=_dt/2",
             "_s=_dt/6", "_r=[_x]", "try:",
             " for _w1,_w2,_w4 in zip(_W1,_W2,_W4):"]
    stages = [(x + ["_w1"], None), (y + ["_w2"], "_h"), (y + ["_w2"], "_h"),
              (y + ["_w4"], "_dt")]
    for k, (args, h) in enumerate(stages[:1 if euler else 4]):
        if h:   # the state x + h*k of the stage before
            lines += [f"  _y{i}=_x{i}+{h}*_k{k - 1}_{i}" for i in range(n)]
        # the kernel, names[i] read from the local args[i]
        local = [args[int(key[3:-1])] if key[:2] == "_a" else key
                 for key in keys]
        emit = _inline_writer(local, uses, set())
        lines += [f"  _k{k}_{i}={emit(v)}" for i, v in enumerate(roots)]
        del emit   # a self-referencing closure, as in _number_values
    for i, v in enumerate(roots):
        two = "2.0" if floats[v] else "2"
        lines.append(f"  _x{i}=_x{i}+_dt*_k0_{i}" if euler else
                     f"  _x{i}=_x{i}+_s*(_k0_{i}+{two}*_k1_{i}+{two}*_k2_{i}"
                     f"+_k3_{i})")
    lines += ["  _r.append((" + "".join(f"{v}," for v in x) + "))",
              "  if not " + "+".join(f"{v}*{v}" for v in x)
              + f"<={float(bound)!r}:", "   return _r,True",
              "except (ZeroDivisionError,OverflowError,ValueError) as _e:",
              " return _r,_e", "return _r,None"]
    return "def _steps(_x,_W1,_W2,_W4,_dt):\n " + "\n ".join(lines)


def compile_block_scalar(exprs, names, integrator, bound):
    """steps(x, W1, W2, W4, dt) -> (states, stop): the RK4 (or Euler) steps
    of dx/dt = exprs on Python floats that _step_source writes, compiled
    once per source (`_code`) and run in a fresh environment per call."""
    env = dict(_SCALAR_FUNCS)
    code = _code(_step_source(exprs, names, integrator, bound), "exec")
    exec(code, env)  # noqa: S102 - from our own AST
    return env["_steps"]


def _block_source(exprs, names, integrator, bound):
    """Source of `def _steps(_R,_W1,_W2,_W4,_dt,_k,_live,_end,_S)` and its
    count of scratch rows: _step_source's steps for every run of the block
    _R of (n, nruns) rows, trace rows _k, _k + 1, ...  A stage is
    `_statement_source` from the rows of _R[j] (then _S[4]) into _S[s], the
    stages combined in place into _R[j + 1].  A live run whose squared norm
    is not <= bound gets _live False and _end its row, and the call returns
    once no run is live.  Each float literal but one inside a `**` of
    numbers is a 0-d float64 array, which numpy reads faster, with the same
    bits."""
    keys, uses, roots = _number_values(exprs, names)
    consts = {}

    def literal(text):   # a float literal; a name or an int past 2**53 stays
        if text[0] != "(" or text[1:-1].lstrip("-").isdigit():
            return text
        return consts.setdefault(text, f"_c{len(consts)}")

    def tup(names):   # a tuple of names, as a target
        return "(" + "".join(f"{v}," for v in names) + ")"

    n = len(roots)
    x, y = [f"_x{i}" for i in range(n)], [f"_y{i}" for i in range(n)]
    outs = [[f"_k{s}_{i}" for i in range(n)] for s in range(4)]
    stages = [(x + ["_w1"], None), (y + ["_w2"], "_h"), (y + ["_w2"], "_h"),
              (y + ["_w4"], "_dt")]
    body = ["_X,_Z=_R[_j],_R[_j+1]", tup(x) + "=_X"]
    for s, (args, h) in enumerate(stages[:1 if integrator == "euler" else 4]):
        if h:   # the state x + h*k of the stage before
            body += [f"_mul({h},_K{s - 1},_Y)", "_add(_X,_Y,_Y)"]
        local = [args[int(key[3:-1])] if key[:2] == "_a" else key
                 for key in keys]
        lines, rows = _statement_source(local, uses, roots, outs[s], literal,
                                        args[:-1])
        body += lines
    body += (["_mul(_dt,_K0,_K0)"] if s == 0 else
             [f"_mul({literal('(2.0)')},_K12,_K12)", "_add(_K0,_K1,_K0)",
              "_add(_K0,_K2,_K0)", "_add(_K0,_K3,_K0)", "_mul(_s,_K0,_K0)"])
    lim = repr(float(bound))   # a nan norm fails too: the max is then nan
    body += ["_add(_X,_K0,_Z)", '_einsum("ij,ij->j",_Z,_Z,out=_n2)',
             f"if not _max(_n2)<={lim}:", f" _le(_n2,{lim},_ok)",
             " _end[_live&~_ok]=_k+_j+1", " _live&=_ok",
             " if not _live.any():", "  return"]
    head = ["_h,_s,_dt=_array(_dt/2),_array(_dt/6),_array(_dt)",
            "_K0,_K1,_K2,_K3,_Y=_S", "_K12=_S[1:3]",   # 2*k2, 2*k3 in a call
            ",".join(map(tup, outs + [y])) + "=_S",
            tup(rows + ["_n2", "_ok"]) + "=_scratch(_Y[0].shape)",
            "for _j,(_w1,_w2,_w4) in enumerate(zip(_W1,_W2,_W4)):"]
    return ("".join(f"{name}=_array{text}\n" for text, name in consts.items())
            + "def _steps(_R,_W1,_W2,_W4,_dt,_k,_live,_end,_S):\n "
            + "\n ".join(head) + "\n  " + "\n  ".join(body)), len(rows)


def compile_block_numpy(exprs, names, integrator, bound):
    """steps(R, W1, W2, W4, dt, k, live, end, S) of _block_source, S the
    (5, n, nruns) stage rows; compiled once (`_code`), and each call's
    function keeps its own scratch rows and (nruns,) norm and test."""
    import numpy as _np

    src, count = _block_source(exprs, names, integrator, bound)

    @functools.lru_cache(maxsize=1)   # rows of the last shape asked for
    def scratch(shape):
        return [*_np.empty((count + 1,) + shape), _np.empty(shape, dtype=bool)]

    env = {f"_{f}": getattr(_np, f) for f in KNOWN_FUNCS}
    env.update(_add=_np.add, _mul=_np.multiply, _power=_np.power,
               _copyto=_np.copyto, _array=_np.array, _einsum=_np.einsum,
               _le=_np.less_equal, _max=_np.maximum.reduce, _scratch=scratch)
    exec(_code(src, "exec"), env)  # noqa: S102 - from our own AST
    return env["_steps"]


def evalf(e, env):
    """Value at one point given as {name: float}: one call of the scalar
    kernel (compile_exprs_scalar), with the contract of SymMatrix.sample.
    Raises EvalError when a variable is unbound, when the kernel raises (a
    division by zero, an overflow, a math domain error) or when the value
    is not finite; inner values follow IEEE 754 as in the kernel, so the
    nan of sqrt(-1) surfaces as a non-finite value."""
    fn = compile_exprs_scalar([e], list(env))
    try:
        (v,) = fn([float(x) for x in env.values()])
        v = float(v)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise EvalError(str(exc)) from None
    if not math.isfinite(v):
        raise EvalError(f"value {v} is not finite")
    return v


def backends_agree(exprs):
    """True when the trees use constants, variables, +, *, squares, sqrt,
    abs and sign alone, so compile_exprs_scalar gives the bits of
    compile_exprs: these round correctly (a square is a product) and never
    raise on floats; pow, exp, sin and cos do not round correctly."""
    exprs = [_as_expr(e) for e in exprs]   # alive while ids are in `seen`
    stack, seen = list(exprs), set()
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if isinstance(e, (Add, Mul)):
            stack.extend(e.terms if isinstance(e, Add) else e.factors)
        elif isinstance(e, Pow) and e.exp == 2:
            stack.append(e.base)
        elif isinstance(e, Func) and e.fname in ("sqrt", "abs", "sign"):
            stack.append(e.arg)
        elif not isinstance(e, (Const, Var)):
            return False
    return True


# ---------------------------------------------------------------------------
# Randomized equivalence
# ---------------------------------------------------------------------------

def sample_box(evaluate, box, count, rng, max_draws, cutoff=math.inf):
    """The first `count` valid points of a seeded uniform draw from `box`
    (one (lo, hi) pair per coordinate), in draw order, as a (k, n) array,
    with their values.

    Points are drawn point-major, in chunks of as many points as are still
    missing; evaluate(chunk.T) gets an (n, k) array and returns arrays whose
    last axis runs over the points, or scalars.  A point is valid when all
    its values are finite and at most `cutoff` in absolute value.  Fewer
    points come back only when `max_draws` points have been drawn.  A
    ZeroDivisionError or OverflowError comes from constants alone, where no
    redraw helps, and is raised as EvalError.
    """
    import numpy as _np

    lo, hi = _np.array(box, dtype=float).reshape(-1, 2).T
    chunks = []
    got = drawn = 0
    while not chunks or (got < count and drawn < max_draws):
        k = min(count - got, max_draws - drawn)
        drawn += k
        pts = rng.uniform(lo, hi, size=(k, lo.size))
        with _np.errstate(all="ignore"):
            try:
                vals = [_np.asarray(v, dtype=float) for v in evaluate(pts.T)]
            except (ZeroDivisionError, OverflowError) as exc:
                raise EvalError(f"undefined at every point: {exc}") from None
        vals = [v if v.ndim else _np.full(k, v) for v in vals]
        valid = _np.ones(k, dtype=bool)
        for v in vals:
            ok = _np.isfinite(v) & (_np.abs(v) <= cutoff)
            valid &= ok.all(axis=tuple(range(v.ndim - 1)))
        chunks.append((pts[valid], [v[..., valid] for v in vals]))
        got += int(valid.sum())
    pts, vals = zip(*chunks)
    return _np.concatenate(pts), [_np.concatenate(v, axis=-1) for v in zip(*vals)]


def numeric_equivalent(e1, e2, seed=0, points=SAMPLE_POINTS, tol=1e-9,
                       box=None):
    """Values agree within tol at `points` seeded random points of `box`
    ({name: (lo, hi)}, default (-0.9, 0.9)), drawn by sample_box.

    The expressions are compiled, and their variables named, as given
    (simplify never adds a variable).  Points where either is undefined
    or huge are re-drawn, so expressions with denominators are compared on
    their common domain (see SAMPLE_POINTS for the rule).
    """
    import numpy as _np

    e1 = _as_expr(e1)
    e2 = _as_expr(e2)
    names = sorted(_var_names(e1) | _var_names(e2))
    box = box or {}
    _, (v1, v2) = sample_box(compile_exprs([e1, e2], names),
                             [box.get(n, (-0.9, 0.9)) for n in names], points,
                             _np.random.default_rng(seed),
                             SAMPLE_REDRAWS * points, SAMPLE_CUTOFF)
    bound = tol * (1.0 + _np.maximum(_np.abs(v1), _np.abs(v2)))
    if _np.any(_np.abs(v1 - v2) > bound):
        return False
    if v1.size < points:
        raise EvalError("could not find enough valid sample points")
    return True


def equivalent(e1, e2):
    """Equality test used by cross-module assertions: numeric agreement at
    numeric_equivalent's default points AND (canonical forms match OR the
    difference simplifies to 0)."""
    s1 = simplify(e1)
    s2 = simplify(e2)
    structural = s1 == s2 or is_zero(s1 - s2)
    return structural and numeric_equivalent(s1, s2)


# ---------------------------------------------------------------------------
# Rendering (deterministic, parses back to the same canonical AST)
# ---------------------------------------------------------------------------

def _render_const(v):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(abs(v.numerator)), v < 0
        return f"{abs(v.numerator)}/{v.denominator}", v < 0
    if not math.isfinite(v):   # parse would read inf or nan as a variable
        raise ValueError(f"constant {v} is not finite and has no text form")
    return repr(abs(v)), v < 0


def _render_factor(e):
    """Render a multiplicand, parenthesizing sums."""
    return f"({_render(e)})" if isinstance(e, Add) else _render(e)


def _render_mul(e):
    num = []
    den = []
    coeff = None
    for f in e.factors:
        if isinstance(f, Const):
            coeff = f
        elif isinstance(f, Pow) and f.exp < 0:
            den.append(f.base if f.exp == -1 else Pow(f.base, -f.exp))
        else:
            num.append(f)
    parts = []
    neg = False
    if coeff is not None:
        s, neg = _render_const(coeff.value)
        if s != "1" or not num:
            parts.append(s)
    parts.extend(_render_factor(f) for f in num)
    out = "*".join(parts) if parts else "1"
    for d in den:
        dd = _render(d)
        out += f"/{dd}" if isinstance(d, (Var, Func)) else f"/({dd})"
    return ("-" if neg else "") + out


def _render(e):
    if isinstance(e, Const):
        s, neg = _render_const(e.value)
        return ("-" if neg else "") + s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Func):
        return f"{e.fname}({_render(e.arg)})"
    if isinstance(e, Pow):
        base = _render(e.base)
        if not isinstance(e.base, (Var, Func)):
            base = f"({base})"
        if e.exp < 0:
            return f"1/{base}" if e.exp == -1 else f"1/{base}^{-e.exp}"
        return f"{base}^{e.exp}"
    if isinstance(e, Mul):
        return _render_mul(e)
    if isinstance(e, Add):
        out = _render(e.terms[0])
        for t in e.terms[1:]:
            s = _render(t)
            out += " - " + s[1:] if s.startswith("-") else " + " + s
        return out
    raise TypeError(f"unknown node {type(e).__name__}")


def render(e):
    """Deterministic text form of a canonical expression; parse(render(e))
    returns a structurally equal AST."""
    return _render(simplify(e))
