"""Numeric evaluation of expressions: direct recursion and compiled tapes.

`compile_batch` flattens one or many expressions into a single static
single-assignment instruction tape.  Expressions are hash-consed, so common
subexpressions across the whole batch occupy one slot each and are computed
once.  Tapes evaluate on scalar bindings or on numpy arrays of sample points
(one array entry per point); `run_batch` runs a tape at a list of binding
dicts."""

from __future__ import annotations

import math

import numpy as np

from .expressions import ADD, FLT, MUL, POW, RAT, SYM

__all__ = [
    "Bindings",
    "DomainError",
    "UnboundSymbolError",
    "EvalProgram",
    "compile_batch",
    "run_batch",
    "evaluate",
]

Bindings = dict


class UnboundSymbolError(KeyError):
    def __init__(self, name):
        super().__init__(name)
        self.name = name

    def __str__(self):
        return f"symbol {self.name!r} is not bound"


class DomainError(ArithmeticError):
    """Raised when evaluation hits log of a nonpositive value, a fractional
    power of a negative value, or division by zero; carries the offending
    sample point."""

    def __init__(self, message, point=None):
        self.point = dict(point) if point else None
        if self.point is not None:
            message = f"{message} at point {self.point}"
        super().__init__(message)


# opcodes
_LOAD_CONST = 0
_LOAD_SYM = 1
_ADD = 2
_MUL = 3
_POW_INT = 4
_POW = 5
_EXP = 6
_LOG = 7
_SIN = 8
_COS = 9


class EvalProgram:
    """Flat instruction tape over value slots.

    instrs: list of (opcode, dest, a, b); `outputs` maps batch order to the
    slot holding each compiled expression."""

    def __init__(self, instrs, n_slots, outputs, sym_slots):
        self.instrs = instrs
        self.n_slots = n_slots
        self.outputs = outputs
        self.sym_slots = sym_slots  # name -> slot

    def __len__(self):
        return len(self.instrs)

    def run(self, bindings):
        """Evaluate at one point (scalar bindings) or at a batch of points
        (bindings to equal-length 1-d arrays).  Returns a float (single
        expression, scalar bindings) or an ndarray of shape
        (n_outputs, ...) otherwise."""
        slots = [None] * self.n_slots
        vector = any(isinstance(v, np.ndarray) for v in bindings.values())
        for name, slot in self.sym_slots.items():
            if name not in bindings:
                raise UnboundSymbolError(name)
            v = bindings[name]
            slots[slot] = np.asarray(v, dtype=float) if vector else float(v)
        point_of = None
        if vector:
            names = list(self.sym_slots)

            def point_of(i):
                return {nm: float(np.asarray(bindings[nm]).flat[i]) for nm in names}
        else:
            point_of = lambda _i: {nm: float(bindings[nm]) for nm in self.sym_slots}

        for op, dest, a, b in self.instrs:
            if op == _ADD:
                slots[dest] = slots[a] + slots[b]
            elif op == _MUL:
                slots[dest] = slots[a] * slots[b]
            elif op == _POW_INT:
                base = slots[a]
                if b < 0:
                    bad = _where_zero(base)
                    if bad is not None:
                        raise DomainError("division by zero", point_of(bad))
                slots[dest] = base ** b
            elif op == _LOAD_CONST:
                slots[dest] = a
            elif op == _POW:
                base, ex = slots[a], slots[b]
                bad = _where_neg(base)
                if bad is not None:
                    raise DomainError(
                        "fractional power of a negative value", point_of(bad))
                bad = _where_zero(base) if _any_neg_exponent(ex) else None
                if bad is not None:
                    raise DomainError("division by zero", point_of(bad))
                slots[dest] = base ** ex
            elif op == _EXP:
                slots[dest] = np.exp(slots[a]) if vector else math.exp(slots[a])
            elif op == _LOG:
                arg = slots[a]
                bad = _where_nonpos(arg)
                if bad is not None:
                    raise DomainError("log of a nonpositive value", point_of(bad))
                slots[dest] = np.log(arg) if vector else math.log(arg)
            elif op == _SIN:
                slots[dest] = np.sin(slots[a]) if vector else math.sin(slots[a])
            else:
                slots[dest] = np.cos(slots[a]) if vector else math.cos(slots[a])

        if not vector:
            out = [slots[s] for s in self.outputs]
            return out[0] if len(out) == 1 else np.array(out, dtype=float)
        n_pts = next(len(v) for v in bindings.values() if isinstance(v, np.ndarray))
        # outputs often share slots (zeros, repeated components): fill each
        # distinct slot once
        distinct, rows = np.unique(self.outputs, return_inverse=True)
        res = np.empty((len(distinct), n_pts))
        for i, s in enumerate(distinct):
            res[i] = slots[s]  # broadcasts constant outputs across points
        return res[rows.reshape(-1)]


def _where_zero(x):
    if isinstance(x, np.ndarray):
        idx = np.nonzero(x == 0.0)[0]
        return int(idx[0]) if idx.size else None
    return 0 if x == 0.0 else None


def _where_neg(x):
    if isinstance(x, np.ndarray):
        idx = np.nonzero(x < 0.0)[0]
        return int(idx[0]) if idx.size else None
    return 0 if x < 0.0 else None


def _where_nonpos(x):
    if isinstance(x, np.ndarray):
        idx = np.nonzero(x <= 0.0)[0]
        return int(idx[0]) if idx.size else None
    return 0 if x <= 0.0 else None


def _any_neg_exponent(ex):
    if isinstance(ex, np.ndarray):
        return bool(np.any(ex < 0))
    return ex < 0


def compile_batch(exprs):
    """Compile a sequence of expressions into one tape with shared slots for
    shared subexpressions."""
    instrs = []
    slot_of = {}
    const_slots = {}
    sym_slots = {}
    n = 0

    def new_slot():
        nonlocal n
        n += 1
        return n - 1

    def const_slot(v):
        v = float(v)
        s = const_slots.get(v)
        if s is None:
            s = new_slot()
            const_slots[v] = s
            instrs.append((_LOAD_CONST, s, v, 0))
        return s

    def emit(e):
        s = slot_of.get(id(e))
        if s is not None:
            return s
        k = e.kind
        if k == RAT:
            s = const_slot(float(e.data))
        elif k == FLT:
            s = const_slot(e.data)
        elif k == SYM:
            s = sym_slots.get(e.data)
            if s is None:
                s = new_slot()
                sym_slots[e.data] = s
        elif k == ADD or k == MUL:
            op = _ADD if k == ADD else _MUL
            acc = emit(e.args[0])
            for a in e.args[1:]:
                sa = emit(a)
                d = new_slot()
                instrs.append((op, d, acc, sa))
                acc = d
            s = acc
        elif k == POW:
            base, ex = e.args
            sb = emit(base)
            s = new_slot()
            if ex.kind == RAT and ex.data.denominator == 1 and abs(ex.data.numerator) < 2 ** 30:
                instrs.append((_POW_INT, s, sb, int(ex.data.numerator)))
            else:
                se = emit(ex)
                instrs.append((_POW, s, sb, se))
        else:  # FUNC
            sa = emit(e.args[0])
            s = new_slot()
            op = {"exp": _EXP, "log": _LOG, "sin": _SIN, "cos": _COS}[e.data]
            instrs.append((op, s, sa, 0))
        slot_of[id(e)] = s
        return s

    outputs = [emit(e) for e in exprs]
    # `emit` refers to itself through its closure cell; clearing the cell
    # breaks that cycle, so the tape's bookkeeping is freed on return rather
    # than at the next full garbage collection.
    del emit
    return EvalProgram(instrs, n, outputs, sym_slots)


def run_batch(prog, points):
    """Run `prog` at each binding dict in `points`: an array of shape
    (len(points), n_outputs).  A tape without symbols is broadcast across
    the points; a symbol missing from a point raises UnboundSymbolError."""
    batch = {}
    for name in prog.sym_slots:
        try:
            batch[name] = np.array([float(pt[name]) for pt in points])
        except KeyError:
            raise UnboundSymbolError(name) from None
    if not batch:
        row = np.asarray(prog.run({}), dtype=float).reshape(1, -1)
        return np.repeat(row, len(points), axis=0)
    return np.asarray(prog.run(batch), dtype=float).T


def evaluate(target, bindings):
    """Evaluate an Expr or an EvalProgram at `bindings`.

    All free symbols must be bound; raises UnboundSymbolError otherwise and
    DomainError (naming the point) on log/negative-power/zero-division."""
    if isinstance(target, EvalProgram):
        return target.run(bindings)
    return _eval_direct(target, bindings)


def _eval_direct(e, bindings):
    k = e.kind
    if k == RAT:
        return float(e.data)
    if k == FLT:
        return e.data
    if k == SYM:
        if e.data not in bindings:
            raise UnboundSymbolError(e.data)
        return float(bindings[e.data])
    if k == ADD:
        acc = _eval_direct(e.args[0], bindings)
        for a in e.args[1:]:
            acc = acc + _eval_direct(a, bindings)
        return acc
    if k == MUL:
        acc = _eval_direct(e.args[0], bindings)
        for a in e.args[1:]:
            acc = acc * _eval_direct(a, bindings)
        return acc
    if k == POW:
        base = _eval_direct(e.args[0], bindings)
        ex = e.args[1]
        if ex.kind == RAT and ex.data.denominator == 1:
            p = int(ex.data.numerator)
            if p < 0 and base == 0.0:
                raise DomainError("division by zero", bindings)
            return base ** p
        ev = _eval_direct(ex, bindings)
        if base < 0.0:
            raise DomainError("fractional power of a negative value", bindings)
        if base == 0.0 and ev < 0:
            raise DomainError("division by zero", bindings)
        return base ** ev
    # FUNC
    a = _eval_direct(e.args[0], bindings)
    name = e.data
    if name == "exp":
        return math.exp(a)
    if name == "log":
        if a <= 0.0:
            raise DomainError("log of a nonpositive value", bindings)
        return math.log(a)
    if name == "sin":
        return math.sin(a)
    return math.cos(a)
