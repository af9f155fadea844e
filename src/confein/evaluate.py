"""Numeric evaluation of expressions: compiled tapes, and a direct oracle.

`compile_batch` flattens one or many expressions into a single static
single-assignment instruction tape.  Expressions are hash-consed, so common
subexpressions across the whole batch occupy one slot each and are computed
once.  A tape runs on a batch of points only, one numpy array entry per
point: `run_batch` runs it at a list of binding dicts (a single point is a
batch of one).  `evaluate` recurses directly on an expression at one point;
it is the oracle the tapes are tested against."""

from __future__ import annotations

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
    power of a negative value, division by zero or (in a tape) a value too
    large for a float; carries the offending sample point."""

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
        """Evaluate at a batch of points: `bindings` maps each symbol to a
        1-d array, one entry per point.  Returns an ndarray of shape
        (n_outputs, P), P = 1 for a tape without symbols."""
        slots = [None] * self.n_slots
        for name, slot in self.sym_slots.items():
            if name not in bindings:
                raise UnboundSymbolError(name)
            slots[slot] = np.asarray(bindings[name], dtype=float)

        def point_of(i):
            return {nm: float(slots[s][i]) for nm, s in self.sym_slots.items()}

        for op, dest, a, b in self.instrs:
            if op == _ADD:
                slots[dest] = slots[a] + slots[b]
            elif op == _MUL:
                slots[dest] = slots[a] * slots[b]
            elif op == _POW_INT:
                base = slots[a]
                if b < 0:
                    bad = _first(base == 0.0)
                    if bad is not None:
                        raise DomainError("division by zero", point_of(bad))
                slots[dest] = base ** b
            elif op == _LOAD_CONST:
                slots[dest] = a
            elif op == _POW:
                base, ex = slots[a], slots[b]
                bad = _first(base < 0.0)
                if bad is not None:
                    raise DomainError(
                        "fractional power of a negative value", point_of(bad))
                bad = _first((base == 0.0) & (ex < 0))
                if bad is not None:
                    raise DomainError("division by zero", point_of(bad))
                slots[dest] = base ** ex
            else:  # exp, log, sin, cos
                arg = slots[a]
                if op == _LOG:
                    bad = _first(arg <= 0.0)
                    if bad is not None:
                        raise DomainError("log of a nonpositive value",
                                          point_of(bad))
                slots[dest] = _UFUNCS[op](arg)

        n_pts = max((np.size(slots[s]) for s in self.sym_slots.values()),
                    default=1)
        # outputs often share slots (zeros, repeated components): fill each
        # distinct slot once
        distinct, rows = np.unique(self.outputs, return_inverse=True)
        res = np.empty((len(distinct), n_pts))
        for i, s in enumerate(distinct):
            res[i] = slots[s]  # broadcasts constant outputs across points
        return res[rows.reshape(-1)]


_FUNC_OPS = {"exp": _EXP, "log": _LOG, "sin": _SIN, "cos": _COS}
_UFUNCS = {_EXP: np.exp, _LOG: np.log, _SIN: np.sin, _COS: np.cos}


def _first(mask):
    """Index of the first true entry of `mask` (an array, or a 0-d value
    for a constant slot), or None."""
    idx = np.flatnonzero(mask)
    return int(idx[0]) if idx.size else None


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
            instrs.append((_FUNC_OPS[e.data], s, sa, 0))
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
    the points; a symbol missing from a point raises UnboundSymbolError,
    and a value that overflows raises DomainError at the first such
    point."""
    batch = {}
    for name in prog.sym_slots:
        try:
            batch[name] = np.array([float(pt[name]) for pt in points])
        except KeyError:
            raise UnboundSymbolError(name) from None
    try:
        with np.errstate(over="raise"):
            vals = prog.run(batch).T
    except FloatingPointError:
        # run alone, the first point that overflows raises, naming itself
        for pt in points if len(points) > 1 else ():
            run_batch(prog, [pt])
        raise DomainError("overflow: a value too large for a float",
                          {k: float(v[0]) for k, v in batch.items()}) from None
    return vals if batch else np.repeat(vals, len(points), axis=0)


def evaluate(e, bindings):
    """The value of the Expr e at `bindings`, by direct recursion on the
    expression: the oracle the compiled tapes are tested against.

    All free symbols must be bound; raises UnboundSymbolError otherwise and
    DomainError (naming the point) on log/negative-power/zero-division."""
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
        acc = evaluate(e.args[0], bindings)
        for a in e.args[1:]:
            acc = acc + evaluate(a, bindings)
        return acc
    if k == MUL:
        acc = evaluate(e.args[0], bindings)
        for a in e.args[1:]:
            acc = acc * evaluate(a, bindings)
        return acc
    if k == POW:
        base = evaluate(e.args[0], bindings)
        ex = e.args[1]
        if ex.kind == RAT and ex.data.denominator == 1:
            p = int(ex.data.numerator)
            if p < 0 and base == 0.0:
                raise DomainError("division by zero", bindings)
            return base ** p
        ev = evaluate(ex, bindings)
        if base < 0.0:
            raise DomainError("fractional power of a negative value", bindings)
        if base == 0.0 and ev < 0:
            raise DomainError("division by zero", bindings)
        return base ** ev
    # FUNC
    a = evaluate(e.args[0], bindings)
    if e.data == "log" and a <= 0.0:
        raise DomainError("log of a nonpositive value", bindings)
    return float(_UFUNCS[_FUNC_OPS[e.data]](a))
