"""Immutable symbolic scalar expressions.

Every tensor component in the package is an Expr: a hash-consed node in a
global DAG.  Construction canonicalizes (constants fold exactly as rationals,
sums and products flatten and collect under a fixed total ordering), so
structurally equal expressions are the *same object* and `==`/`is`/dict keys
all agree.

An integral rational constant holds a Python int and any other one a
reduced Fraction, so constants hash, compare and accumulate as ints
wherever they can.  A rational node is found by its integers: by its int,
or by the (numerator, denominator) of its Fraction, never by hashing the
Fraction.  A sum or product is looked up by its kind and children before
its sort key (nested tuples of its children's keys) is built: the key is
built only for a node that is new.

The parser canonicalizes a sum once, with one `add` over all its terms,
so no partial sum is built or interned.  Where `add` would read a float
(a float constant or leading coefficient, in a term or in a term's
parenthesized sum) it keeps the left fold, one `add` per operator, since
floats round at each step: the fold reads 0.5*x + 0.5*x + x/3 as 4*x/3,
one `add` as 1.3333333333333333*x.

Node kinds: rational constant, float constant, symbol, n-ary sum, n-ary
product, power, one-argument function (exp, log, sin, cos).  Negation is a
product with coefficient -1, a quotient is a product with a negative-exponent
factor, and sqrt(u) canonicalizes to u^(1/2); the printer restores the usual
infix forms and `parse(to_text(e)) is e` on canonical expressions.
"""

from __future__ import annotations

from fractions import Fraction
import math

__all__ = [
    "Expr",
    "ExprSyntaxError",
    "rational",
    "floating",
    "symbol",
    "add",
    "sub",
    "mul",
    "neg",
    "div",
    "power",
    "func",
    "sqrt",
    "ZERO",
    "ONE",
    "parse",
    "to_text",
    "diff",
    "simplify",
    "is_zero",
]

RAT = 0
FLT = 1
SYM = 2
FUNC = 3
POW = 4
MUL = 5
ADD = 6

FUNCTION_NAMES = ("exp", "log", "sin", "cos")

_table: dict = {}
# each rational node of _table, keyed by its int or by the (numerator,
# denominator) of its Fraction: a tuple of ints hashes in a tenth of the
# time of a Fraction
_rationals: dict = {}


class Expr:
    """A node of the expression DAG. Do not instantiate directly; use the
    constructor functions (`rational`, `symbol`, `add`, ...), which intern
    and canonicalize."""

    __slots__ = ("kind", "data", "args", "key")

    kind: int
    # int (integral rational) | Fraction (any other rational) | float |
    # str (symbol or function name) | None (sum, product, power)
    data: object
    args: tuple

    def __repr__(self):
        return to_text(self)

    # Arithmetic sugar; accepts ints/floats/Fractions on either side.
    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, other):
        return power(self, _coerce(other))

    def __neg__(self):
        return neg(self)


def _coerce(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return rational(v)
    if isinstance(v, float):
        return floating(v)
    raise TypeError(f"cannot coerce {v!r} to Expr")


def _intern(kind, data, args, key):
    k = (kind, data, args)
    node = _table.get(k)
    if node is None:
        node = _new(k, key)
    return node


def _intern_nary(kind, args):
    """The ADD or MUL node over the sorted `args`; its key is built only
    when the node is new."""
    k = (kind, None, args)
    node = _table.get(k)
    if node is None:
        node = _new(k, (kind, tuple(a.key for a in args)))
    return node


def _new(k, key):
    node = object.__new__(Expr)
    node.kind, node.data, node.args = k
    node.key = key
    _table[k] = node
    return node


def rational(p, q=1):
    """Exact rational constant: an int when integral, otherwise a reduced
    Fraction with positive denominator."""
    if q != 1 or not isinstance(p, (int, Fraction)):
        p = Fraction(p, q)
    if type(p) is int:
        k = p
    elif p.denominator == 1:
        p = k = int(p)  # an integral Fraction, or a bool
    else:
        k = (p.numerator, p.denominator)
    node = _rationals.get(k)
    if node is None:
        node = _rationals[k] = _intern(RAT, p, (), (RAT, p))
    return node


def floating(v):
    v = float(v)
    return _intern(FLT, v, (), (FLT, v))


def symbol(name):
    if not name or not (name[0].isalpha() or name[0] == "_"):
        raise ValueError(f"bad symbol name {name!r}")
    return _intern(SYM, name, (), (SYM, name))


ZERO = rational(0)
ONE = rational(1)
MINUS_ONE = rational(-1)
HALF = rational(1, 2)


def _is_const(e):
    return e.kind <= FLT


def _make_const(v):
    # v is what constant arithmetic yields: an int or a Fraction when both
    # operands are rational, else a float, rounded as the operation on
    # float(a) and float(b)
    if type(v) is float:
        return floating(v)
    return rational(v)


# ---------------------------------------------------------------------------
# canonicalizing constructors


def add(*terms):
    """Canonical n-ary sum: flattens, folds constants exactly, collects like
    terms, drops zeros, sorts children."""
    const_rat = 0
    const_flt = 0.0
    has_flt = False
    coeffs = {}  # term Expr (no leading constant) -> int|Fraction|float
    stack = list(terms)
    stack.reverse()
    while stack:
        t = stack.pop()
        if not isinstance(t, Expr):
            t = _coerce(t)
        k = t.kind
        if k == ADD:
            stack.extend(reversed(t.args))
            continue
        if k == RAT:
            const_rat += t.data
            continue
        if k == FLT:
            const_flt += t.data
            has_flt = True
            continue
        if k == MUL and _is_const(t.args[0]):
            c = t.args[0].data
            rest = t.args[1:]
            base = rest[0] if len(rest) == 1 else _intern_nary(MUL, rest)
        else:
            c = 1
            base = t
        old = coeffs.get(base)
        coeffs[base] = c if old is None else old + c

    out = []
    for base, c in coeffs.items():
        if c == 0:
            continue
        if c == 1:
            out.append(base)
            continue
        out.append(_mul_const_term(_make_const(c), base))
    if has_flt:
        cv = float(const_rat) + const_flt
        if cv != 0.0:
            out.append(floating(cv))
    elif const_rat != 0:
        out.append(rational(const_rat))

    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=_key)
    return _intern_nary(ADD, tuple(out))


def _key(e):
    return e.key


def _mul_const_term(c, base):
    # base carries no leading constant; prepend one.  A constant times a sum
    # distributes so that c*(a+b) and c*a+c*b share one canonical form.
    if base.kind == ADD:
        return add(*[_mul_const_term(c, t) if t.kind != MUL or not _is_const(t.args[0])
                     else mul(c, t) for t in base.args])
    if base.kind == MUL:
        if _is_const(base.args[0]):
            return mul(c, base)
        args = (c,) + base.args
    elif _is_const(base):
        return _make_const(c.data * base.data)
    else:
        args = (c, base)
    return _intern_nary(MUL, args)


def mul(*factors):
    """Canonical n-ary product: flattens, folds constants, merges powers of a
    shared base, sorts children.  A zero factor collapses the product."""
    coeff_rat = 1
    coeff_flt = 1.0
    has_flt = False
    powers = {}  # base Expr -> list of exponent Exprs
    order = []
    stack = list(factors)
    stack.reverse()
    while stack:
        f = stack.pop()
        if not isinstance(f, Expr):
            f = _coerce(f)
        k = f.kind
        if k == MUL:
            stack.extend(reversed(f.args))
            continue
        if k == RAT:
            if f.data == 0:
                return ZERO
            coeff_rat *= f.data
            continue
        if k == FLT:
            if f.data == 0.0:
                return ZERO
            coeff_flt *= f.data
            has_flt = True
            continue
        if k == POW:
            base, e = f.args
        else:
            base, e = f, ONE
        if base in powers:
            powers[base].append(e)
        else:
            powers[base] = [e]
            order.append(base)

    out = []
    for base in order:
        es = powers[base]
        if len(es) > 1:
            p = power(base, add(*es))
        elif es[0] is not ONE:
            p = power(base, es[0])
        else:
            p = base
        if p.kind == RAT:
            coeff_rat *= p.data
        elif p.kind == FLT:
            coeff_flt *= p.data
            has_flt = True
        elif p is not ONE:
            if p.kind == MUL:
                # power() may distribute (e.g. (2*x)^2); refold its parts
                for q in p.args:
                    if q.kind == RAT:
                        coeff_rat *= q.data
                    elif q.kind == FLT:
                        coeff_flt *= q.data
                        has_flt = True
                    else:
                        out.append(q)
            else:
                out.append(p)
    if has_flt:
        c = float(coeff_rat) * coeff_flt
        if c == 0.0:
            return ZERO
        cnode = floating(c) if c != 1.0 else None
    else:
        if coeff_rat == 0:
            return ZERO
        cnode = rational(coeff_rat) if coeff_rat != 1 else None

    if not out:
        return cnode if cnode is not None else ONE
    if cnode is not None and len(out) == 1 and out[0].kind == ADD:
        return _mul_const_term(cnode, out[0])
    out.sort(key=_key)
    if cnode is not None:
        out.insert(0, cnode)
    if len(out) == 1:
        return out[0]
    return _intern_nary(MUL, tuple(out))


def power(base, expo):
    """Canonical power with exact folding for rational bases and integer
    exponents."""
    if not isinstance(base, Expr):
        base = _coerce(base)
    if not isinstance(expo, Expr):
        expo = _coerce(expo)
    if expo is ONE:
        return base
    ek, ed = expo.kind, expo.data
    if ek == RAT and ed == 0:
        return ONE
    if base is ONE:
        return ONE
    bk = base.kind
    if bk == RAT:
        if base.data == 0:
            if ek == RAT and ed > 0:
                return ZERO
        elif ek == RAT and ed.denominator == 1:
            # an int base to a negative power folds through Fraction
            b = base.data if ed > 0 else Fraction(base.data)
            return rational(b ** ed)
        elif ek <= FLT and (base.data > 0 or ek == FLT and ed.is_integer()):
            # fold rational^rational only when exact (perfect power) to keep
            # constants exact, rational^float only when real (a negative
            # base to a fractional power stays a POW, whose evaluation
            # raises a domain error); otherwise leave symbolic
            if ek == FLT:
                try:
                    return floating(float(base.data) ** ed)
                except (OverflowError, ValueError, ZeroDivisionError):
                    pass
            else:
                r = _exact_rat_pow(base.data, ed)
                if r is not None:
                    return rational(r)
    elif bk == FLT and base.data >= 0 and ek <= FLT:
        # 0.0 to a negative power stays a POW, whose evaluation raises
        # a domain error, as 0 to a negative power does
        try:
            return floating(base.data ** float(ed))
        except (OverflowError, ValueError, ZeroDivisionError):
            pass
    is_int = ek == RAT and ed.denominator == 1
    if is_int:
        if bk == POW:
            # (b^e0)^n = b^(e0*n) is unconditionally valid for integer n
            return power(base.args[0], mul(base.args[1], expo))
        if bk == MUL:
            return mul(*[power(f, expo) for f in base.args])
    return _intern(POW, None, (base, expo), (POW, base.key, expo.key))


def _exact_rat_pow(q, e):
    """q**e as an exact Fraction, or None when not a perfect power."""
    def root(n, d):
        if n < 0:
            return None
        r = round(n ** (1.0 / d))
        for c in (r - 1, r, r + 1):
            if c >= 0 and c ** d == n:
                return c
        return None

    num, den = q.numerator, q.denominator
    if e < 0:
        num, den = den, num
        e = -e
    rn = root(num ** e.numerator, e.denominator)
    rd = root(den ** e.numerator, e.denominator)
    if rn is None or rd is None or rd == 0:
        return None
    return Fraction(rn, rd)


def func(name, arg):
    """Elementary function application (exp, log, sin, cos)."""
    if name == "sqrt":
        return power(arg, HALF)
    if name not in FUNCTION_NAMES:
        raise ValueError(f"unknown function {name!r}")
    if not isinstance(arg, Expr):
        arg = _coerce(arg)
    if arg.kind == RAT:
        v = arg.data
        if v == 0 and name != "log":
            return {"exp": ONE, "sin": ZERO, "cos": ONE}[name]
        if v == 1 and name == "log":
            return ZERO
    if arg.kind == FLT:
        try:
            return floating(getattr(math, name)(arg.data))
        except (ValueError, OverflowError):
            pass
    if name == "exp" and arg.kind == FUNC and arg.data == "log":
        return arg.args[0]
    if name == "log" and arg.kind == FUNC and arg.data == "exp":
        return arg.args[0]
    return _intern(FUNC, name, (arg,), (FUNC, name, arg.key))


def neg(e):
    return mul(MINUS_ONE, e)


def sub(a, b):
    return add(a, mul(MINUS_ONE, b))


def div(a, b):
    return mul(a, power(b, MINUS_ONE))


def sqrt(e):
    return power(e, HALF)


# ---------------------------------------------------------------------------
# differentiation

_diff_cache: dict = {}


def diff(e, s):
    """Exact partial derivative of e with respect to symbol s (an Expr symbol
    or its name)."""
    if isinstance(s, Expr):
        s = s.data
    return _diff(e, s)


def _diff(e, s):
    k = e.kind
    if k <= FLT:
        return ZERO
    if k == SYM:
        return ONE if e.data == s else ZERO
    ck = (id(e), s)
    hit = _diff_cache.get(ck)
    if hit is not None:
        return hit
    if k == ADD:
        r = add(*[_diff(a, s) for a in e.args])
    elif k == MUL:
        parts = []
        args = e.args
        for i, a in enumerate(args):
            da = _diff(a, s)
            if da is ZERO:
                continue
            parts.append(mul(da, *args[:i], *args[i + 1:]))
        r = add(*parts) if parts else ZERO
    elif k == POW:
        b, ex = e.args
        db = _diff(b, s)
        dex = _diff(ex, s)
        if dex is ZERO:
            r = ZERO if db is ZERO else mul(ex, power(b, add(ex, MINUS_ONE)), db)
        else:
            # d(b^e) = b^e * (e' log b + e b'/b)
            r = mul(e, add(mul(dex, func("log", b)), mul(ex, db, power(b, MINUS_ONE))))
    else:  # FUNC
        a = e.args[0]
        da = _diff(a, s)
        if da is ZERO:
            r = ZERO
        else:
            name = e.data
            if name == "exp":
                r = mul(e, da)
            elif name == "log":
                r = mul(da, power(a, MINUS_ONE))
            elif name == "sin":
                r = mul(func("cos", a), da)
            else:  # cos
                r = mul(MINUS_ONE, func("sin", a), da)
    _diff_cache[ck] = r
    # keep the argument alive so the id-keyed cache entry stays valid
    _diff_cache[(id(e), None)] = e
    return r


# ---------------------------------------------------------------------------
# simplify / expand

MAX_SIMPLIFY_PASSES = 8


def simplify(e):
    """Bounded fixed-point canonicalization.

    Constructors already canonicalize, so a pass is a bottom-up rebuild; it
    is idempotent and value-preserving.  At most 8 passes."""
    for _ in range(MAX_SIMPLIFY_PASSES):
        r = _rebuild(e)
        if r is e:
            return r
        e = r
    return e


def _rebuild(e, memo=None):
    if memo is None:
        memo = {}
    k = e.kind
    if k <= SYM:
        return e
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    args = [_rebuild(a, memo) for a in e.args]
    if k == ADD:
        r = add(*args)
    elif k == MUL:
        r = mul(*args)
    elif k == POW:
        r = power(*args)
    else:
        r = func(e.data, args[0])
    memo[id(e)] = r
    memo[id(r)] = r
    return r


_EXPAND_TERM_LIMIT = 200_000


class _ExpandOverflow(Exception):
    pass


def is_zero(e):
    """True when e multiplied out as a single quotient (`_num_den`, no
    polynomial GCD cancellation) has a zero numerator."""
    if e is ZERO:
        return True
    try:
        num, _ = _num_den(e)
    except _ExpandOverflow:
        return False
    return num is ZERO


def _terms(e):
    return e.args if e.kind == ADD else (e,)


def _expand_product(a, b):
    ta, tb = _terms(a), _terms(b)
    if len(ta) * len(tb) > _EXPAND_TERM_LIMIT:
        raise _ExpandOverflow
    return add(*[mul(x, y) for x in ta for y in tb])


def _expand_int_power(a, k):
    r = ONE
    for _ in range(k):
        r = _expand_product(r, a)
    return r


def _num_den_add(e):
    num, den = ZERO, ONE
    for t in e.args:
        tn, td = _num_den(t)
        if td is den:
            num = add(num, tn)
        elif td is ONE:
            num = add(num, _expand_product(tn, den))
        elif den is ONE:
            num = add(_expand_product(num, td), tn)
            den = td
        else:
            num = add(_expand_product(num, td), _expand_product(tn, den))
            den = _expand_product(den, td)
    return num, den


def _num_den(e):
    """(numerator, denominator) of e with the numerator multiplied out."""
    k = e.kind
    if k <= SYM:
        return e, ONE
    if k == ADD:
        return _num_den_add(e)
    if k == MUL:
        num, den = ONE, ONE
        for f in e.args:
            fn, fd = _num_den(f)
            num = _expand_product(num, fn)
            den = _expand_product(den, fd)
        return num, den
    if k == POW:
        b, ex = e.args
        if ex.kind == RAT and ex.data.denominator == 1 and abs(ex.data.numerator) <= 16:
            kk = ex.data.numerator
            bn, bd = _num_den(b)
            if kk > 0:
                return _expand_int_power(bn, kk), _expand_int_power(bd, kk)
            return _expand_int_power(bd, -kk), _expand_int_power(bn, -kk)
        if ex.kind == RAT and ex.data < 0:
            return ONE, power(b, neg(ex))
        return e, ONE
    return e, ONE


# ---------------------------------------------------------------------------
# parsing

class ExprSyntaxError(ValueError):
    """Parse failure; `offset` is the byte offset into the source text."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _reads_float(t):
    """Whether add() reads a float in t: t, or a term of the sum t, is a
    float constant or has a float leading coefficient."""
    for u in t.args if t.kind == ADD else (t,):
        if u.kind == FLT or u.kind == MUL and u.args[0].kind == FLT:
            return True
    return False


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ExprSyntaxError(message, self.pos)

    def skip_ws(self):
        t, n = self.text, len(self.text)
        while self.pos < n and t[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self):
        # One add() over all terms, a subtracted term as -1*term, unless add
        # would read a float: float constants and coefficients round at each
        # step of the left fold, so such a sum keeps the fold's nodes.
        terms = [self.term()]
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                terms.append(self.term())
            elif c == "-":
                self.pos += 1
                terms.append(mul(MINUS_ONE, self.term()))
            else:
                break
        if len(terms) == 1:
            return terms[0]
        if not any(map(_reads_float, terms)):
            return add(*terms)
        t = terms[0]
        for u in terms[1:]:
            t = add(t, u)
        return t

    def term(self):
        # One mul() over all factors: folding left would distribute a partial
        # product c*(a + b), so -(1 + x)*(1 + y) would not read back as the
        # product to_text printed.
        factors = []
        self.factor(factors)
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                self.factor(factors)
            elif c == "/":
                self.pos += 1
                factors.append(power(self.unary(), MINUS_ONE))
            else:
                return mul(*factors)

    def factor(self, factors):
        """Append one factor, a leading unary minus as the factor -1."""
        while self.peek() == "-":
            self.pos += 1
            factors.append(MINUS_ONE)
        factors.append(self.power())

    def unary(self):
        if self.peek() == "-":
            self.pos += 1
            return neg(self.unary())
        return self.power()

    def power(self):
        b = self.atom()
        if self.peek() == "^":
            self.pos += 1
            # right-associative; unary minus allowed in the exponent
            return power(b, self.unary())
        return b

    def atom(self):
        c = self.peek()
        if c == "(":
            self.pos += 1
            e = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return e
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha() or c == "_":
            return self.ident()
        self.error("expected a number, symbol or '('")

    def number(self):
        t, n = self.text, len(self.text)
        start = self.pos
        while self.pos < n and t[self.pos].isdigit():
            self.pos += 1
        is_float = False
        if self.pos < n and t[self.pos] == ".":
            is_float = True
            self.pos += 1
            while self.pos < n and t[self.pos].isdigit():
                self.pos += 1
        if self.pos < n and t[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and t[self.pos].isdigit():
                is_float = True
                while self.pos < n and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent; leave for identifier rules
        s = t[start:self.pos]
        if s == ".":
            self.error("lone '.' is not a number")
        return floating(float(s)) if is_float else rational(int(s))

    def ident(self):
        t, n = self.text, len(self.text)
        start = self.pos
        while self.pos < n and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
        name = t[start:self.pos]
        if self.peek() == "(":
            if name not in FUNCTION_NAMES and name != "sqrt":
                self.pos = start
                self.error(f"unknown function {name!r}")
            self.pos += 1
            arg = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return func(name, arg)
        return symbol(name)


def parse(text):
    """Parse an expression string to a canonical Expr.

    Grammar: numbers (integer, decimal, integer/integer), identifiers,
    + - * / ^ (right-associative ^ binding tightest, unary minus looser
    than ^), parentheses, and f(e) for f in {exp, log, sqrt, sin, cos}.

    A sum is canonicalized once, by one `add` over its terms (a subtracted
    term as -1 times it); a sum in which `add` would read a float keeps
    the left fold, and so gives the node that adding one term at a time
    gives.  Each product of factors is one `mul`."""
    p = _Parser(text)
    e = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return e


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def to_text(e):
    """Canonical infix rendering; parse(to_text(e)) is e for canonical e."""
    s, _ = _render(e)
    return s


def _render(e):
    k = e.kind
    if k == RAT:
        v = e.data
        if v.denominator == 1:
            return str(v.numerator), (_PREC_ATOM if v >= 0 else _PREC_ADD)
        return f"{v.numerator}/{v.denominator}", _PREC_MUL if v >= 0 else _PREC_ADD
    if k == FLT:
        return repr(e.data), (_PREC_ATOM if e.data >= 0 else _PREC_ADD)
    if k == SYM:
        return e.data, _PREC_ATOM
    if k == FUNC:
        inner, _ = _render(e.args[0])
        return f"{e.data}({inner})", _PREC_ATOM
    if k == POW:
        b, ex = e.args
        bs = _paren(b, _PREC_POW + 1)  # bases bind atom-tight (right-assoc ^)
        es, ep = _render(ex)
        if ep < _PREC_ATOM:
            es = f"({es})"
        return f"{bs}^{es}", _PREC_POW
    if k == MUL:
        return _render_product(e)
    # ADD
    parts = []
    for i, t in enumerate(e.args):
        s, negd = _signed(t)
        if i == 0:
            parts.append(("-" + s) if negd else s)
        else:
            parts.append((" - " if negd else " + ") + s)
    return "".join(parts), _PREC_ADD


def _signed(t):
    """Render |t|, returning (text, was_negative)."""
    if t.kind == RAT and t.data < 0:
        s, _ = _render(rational(-t.data))
        return s, True
    if t.kind == FLT and t.data < 0:
        return repr(-t.data), True
    if t.kind == MUL and _is_const(t.args[0]):
        c = t.args[0].data
        if c < 0:
            s, _ = _render(mul(_make_const(-c), *t.args[1:]))
            return s, True
    s, _ = _render(t)
    return s, False


def _paren(e, min_prec):
    s, p = _render(e)
    return f"({s})" if p < min_prec else s


def _render_product(e):
    num, den = [], []
    sign = ""
    for f in e.args:
        if f.kind == POW:
            b, ex = f.args
            if ex.kind == RAT and ex.data < 0:
                inv = power(b, rational(-ex.data))
                if not _is_const(inv):  # 0^(-2) stays a power: 0^2 folds to 0
                    den.append(_paren(inv, _PREC_POW))
                    continue
        elif f.kind == RAT:
            v = f.data
            if v < 0:
                sign = "-"
                v = -v
            if v.numerator != 1:
                num.append(str(v.numerator))
            if v.denominator != 1:
                den.append(str(v.denominator))
            continue
        elif f.kind == FLT and f.data < 0:
            sign = "-"
            num.append(repr(-f.data))
            continue
        num.append(_paren(f, _PREC_MUL + (0 if f.kind != MUL else 1)))
    s = "*".join(num) if num else "1"
    for d in den:
        s += "/" + d
    return sign + s, (_PREC_MUL if not sign else _PREC_ADD)
