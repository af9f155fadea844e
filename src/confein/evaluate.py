"""Numeric evaluation of expressions: compiled tapes, and a direct oracle.

`compile_batch` flattens one or many expressions into a single static
single-assignment instruction tape.  Expressions are hash-consed, so common
subexpressions across the whole batch occupy one slot each and are computed
once.  The tape is emitted in the order of its outputs, so the tape of its
first k outputs is a prefix of it (`EvalProgram.prefix`).  A tape runs on
a batch of points only, into one (slots x points) matrix: `run_batch` runs
it at a list of binding dicts (a single point is a batch of one) and reads
its outputs, or any table of its slots, off that matrix.

The run goes by levels, not instruction by instruction.  A constant has
level 0 and a symbol level 1; an instruction has 1 plus the larger level
of its operands, or 0 if it reads constants only.  The instructions of one
level with the same opcode, and for a power the same constant exponent,
form a group (`EvalProgram.groups`, built as the tape is compiled), and one
numpy call computes a whole group over the rows of its operands, all of a
lower level.  Every element gets the IEEE operation it gets alone, on the
same operands, so each value has the bits of an instruction-by-instruction
run.  A power by a constant exponent runs with the exponent as a scalar,
as an instruction alone does: numpy's fast paths for the exponents 2, 1/2
and -1 round differently from its power by an array.  An instruction of
level 0 is evaluated alone on Python scalars, before the groups.

Errors keep the order of the tape.  A domain error (log of a nonpositive
value, a fractional power of a negative value, division by zero) names the
first instruction in tape order that fails, at its first failing point,
whichever level it has: once a failure is found, later groups compute only
the instructions before it, so no instruction reads a value that a run in
tape order would not have computed, and a failure found later at an
earlier instruction replaces it.  A group whose numpy call raises (an
overflow, under `run_batch`'s error state) is run again one instruction at
a time to find which one.  On an overflow `run_batch` names the first
point whose own run fails.  `evaluate` recurses directly on an expression
at one point; it is the oracle the tapes' values are tested against, and
an instruction-by-instruction run in the tests (`run_in_tape_order`) is
the oracle of the grouped run's bits and errors."""

from __future__ import annotations

import numpy as np

from .expressions import ADD, FLT, MUL, POW, RAT, SYM

__all__ = [
    "DomainError",
    "UnboundSymbolError",
    "EvalProgram",
    "compile_batch",
    "run_batch",
    "evaluate",
]

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
_ADD = 2
_MUL = 3
_POW_INT = 4
_POW = 5
_EXP = 6
_LOG = 7
_SIN = 8
_COS = 9


class EvalProgram:
    """Flat instruction tape over value slots, and the schedule it runs by.

    instrs: an (instructions, 4) index array of (opcode, dest, a, b) rows in
    tape order; each instruction writes a new slot, so dest ascends with
    the tape.  A LOAD_CONST's value is consts[dest] (`consts` maps each
    constant's slot to its value), a POW_INT's b its integer exponent.
    `outputs` (an index array) maps batch order to the slot holding each
    compiled expression.  `scalars` lists the tape indices of the
    instructions of level 0, `writer` gives each slot 1 + the tape index of
    the instruction that writes it (0 for a symbol), and `groups` the numpy
    calls of a run in order, each (opcode, exponent, dest, a, b): the
    destination and operand slots of its instructions, in tape order.  The
    exponent is a POW_INT's integer or the slot of a POW's constant
    exponent (b is then None), else None.  The first k outputs have a tape
    of their own, a prefix of this one (`prefix`)."""

    def __init__(self, instrs, n_slots, outputs, sym_slots, consts, scalars,
                 writer, groups):
        self.instrs = instrs
        self.n_slots = n_slots
        self.outputs = outputs
        self.sym_slots = sym_slots  # name -> slot
        self.consts = consts
        self.scalars = scalars
        self.writer = writer
        self.groups = groups
        self._const_rows = np.fromiter(consts, np.intp, len(consts))
        self._const_vals = np.fromiter(consts.values(), float,
                                       len(consts))[:, None]

    def __len__(self):
        return len(self.instrs)

    def prefix(self, k):
        """The tape of the first k outputs alone.  `compile_batch` emits
        the tape output by output, and the last instruction an output
        emits writes its slot, so the instructions the first k outputs
        read end with the last one that writes one of their slots.  The
        prefix runs over the same slots, by the whole tape's groups cut to
        its instructions, so each of its outputs has the bits it has in a
        run of the whole tape."""
        stop = int(self.writer[self.outputs[:k]].max(initial=0))
        end = int(self.instrs[stop - 1, 1]) + 1 if stop else 0
        groups = []
        for op, ex, d, a, b in self.groups:
            m = int(d.searchsorted(end))
            if m:
                groups.append((op, ex, d[:m], a[:m],
                               None if b is None else b[:m]))
        return EvalProgram(self.instrs[:stop], self.n_slots, self.outputs[:k],
                           self.sym_slots, self.consts,
                           [t for t in self.scalars if t < stop], self.writer,
                           groups)

    def run(self, bindings):
        """Evaluate at a batch of points: `bindings` maps each symbol to a
        1-d array, one entry per point.  Returns the slot matrix, an
        ndarray of shape (n_slots, P), P = 1 for a tape without symbols:
        row s holds slot s at every point (a row that no instruction of
        this tape writes holds garbage)."""
        syms = self.sym_slots
        for name in syms:
            if name not in bindings:
                raise UnboundSymbolError(name)
        vals = np.empty((self.n_slots,
                         max((np.size(bindings[nm]) for nm in syms),
                             default=1)))
        for name, slot in syms.items():
            vals[slot] = bindings[name]
        vals[self._const_rows] = self._const_vals
        consts = self.consts
        # the first failure in tape order found yet: (its slot, its error)
        first = None
        if self.scalars:
            consts = dict(consts)
            for t in self.scalars:
                op, dest, a, b = self.instrs[t].tolist()
                x, y = consts[a], consts[b] if op in _BINARY else b
                hit = _domain(op, x, y)
                if hit is not None:
                    first = (dest, hit[1:])
                    break
                try:
                    consts[dest] = vals[dest] = _apply(op, x, y)
                except _RAISED as exc:
                    first = (dest, exc)
                    break
        for op, ex, dest, a, b in self.groups:
            if first is not None:
                # only what precedes the failure runs before it in tape order
                m = int(dest.searchsorted(first[0]))
                if not m:
                    continue
                dest, a, b = dest[:m], a[:m], None if b is None else b[:m]
            x = vals[a]
            y = vals[b] if b is not None else consts[ex] if op == _POW else ex
            if op in _CHECKED:
                hit = _domain(op, x, y)
                if hit is not None:
                    r = hit[0]
                    first = (dest[r], hit[1:])
                    if not r:
                        continue
                    dest, x = dest[:r], x[:r]
                    if b is not None:
                        y = y[:r]
            try:
                vals[dest] = _apply(op, x, y)
            except _RAISED:
                # one at a time, in tape order, up to the one that raises
                for r in range(len(dest)):
                    try:
                        vals[dest[r]] = _apply(
                            op, x[r], y[r] if b is not None else y)
                    except _RAISED as exc:
                        first = (dest[r], exc)
                        break
        if first is None:
            return vals
        err = first[1]
        if isinstance(err, tuple):
            message, i = err
            err = DomainError(message, {nm: float(vals[s, i])
                                        for nm, s in syms.items()})
        raise err


_FUNC_OPS = {"exp": _EXP, "log": _LOG, "sin": _SIN, "cos": _COS}
_UFUNCS = {_EXP: np.exp, _LOG: np.log, _SIN: np.sin, _COS: np.cos}
# opcodes whose b is a slot (POW's is a slot even where it is a constant),
# and opcodes with a domain check
_BINARY = (_ADD, _MUL, _POW)
_CHECKED = (_POW_INT, _POW, _LOG)
# what an operation raises on a value it cannot give: numpy's floating-point
# errors under np.errstate(...="raise"), its warnings where a warnings filter
# makes them errors, Python's float errors on scalars
_RAISED = (ArithmeticError, RuntimeWarning)


def _apply(op, x, y):
    """One instruction (an array of rows for a group, or scalars) on its
    operands x and y: y is b's values, or a POW_INT's integer exponent."""
    if op == _ADD:
        return x + y
    if op == _MUL:
        return x * y
    if op == _POW_INT or op == _POW:
        return x ** y
    return _UFUNCS[op](x)


def _domain(op, x, y):
    """The first row of a group (or a scalar instruction, one row of one
    point) that fails its domain check, with its message and first failing
    point: (row, message, point), or None."""
    if op == _LOG:
        checks = (("log of a nonpositive value", x <= 0.0),)
    elif op == _POW:
        checks = (("fractional power of a negative value", x < 0.0),
                  ("division by zero", (x == 0.0) & (y < 0)))
    elif op == _POW_INT and y < 0:
        checks = (("division by zero", x == 0.0),)
    else:
        return None
    masks = [np.atleast_2d(mask) for _, mask in checks]
    failing = [mask.any(axis=1) for mask in masks]
    r = _first(np.logical_or.reduce(failing))
    if r is None:
        return None
    k = next(k for k, f in enumerate(failing) if f[r])
    return r, checks[k][0], _first(masks[k][r])


def _first(mask):
    """Index of the first true entry of the 1-d `mask`, or None."""
    idx = np.flatnonzero(mask)
    return int(idx[0]) if idx.size else None


def compile_batch(exprs):
    """Compile a sequence of expressions into one tape with shared slots for
    shared subexpressions, and its schedule of groups."""
    tape = []  # the instructions' (opcode, dest, a, b), flat
    put = tape.extend
    slot_of = {}
    consts = {}
    const_slots = {}
    sym_slots = {}
    # per slot: its level (a new slot is the next index of this list)
    level = []

    def const_slot(v):
        v = float(v)
        s = const_slots.get(v)
        if s is None:
            s = const_slots[v] = len(level)
            consts[s] = v
            level.append(0)
            put((_LOAD_CONST, s, s, 0))
        return s

    def emit(e):
        k = e.kind
        if k == RAT:
            s = const_slot(float(e.data))
        elif k == FLT:
            s = const_slot(e.data)
        elif k == SYM:
            s = sym_slots.get(e.data)
            if s is None:
                s = sym_slots[e.data] = len(level)
                level.append(1)
        elif k == ADD or k == MUL:
            op = _ADD if k == ADD else _MUL
            args = e.args
            s = slot_of.get(args[0])
            if s is None:
                s = emit(args[0])
            for a in args[1:]:
                sa = slot_of.get(a)
                if sa is None:
                    sa = emit(a)
                la, lb = level[s], level[sa]
                m = la if la > lb else lb
                d = len(level)
                level.append(m + 1 if m else 0)
                put((op, d, s, sa))
                s = d
        elif k == POW:
            base, ex = e.args
            sb = slot_of.get(base)
            if sb is None:
                sb = emit(base)
            m = level[sb]
            if ex.kind == RAT and ex.data.denominator == 1 and abs(ex.data.numerator) < 2 ** 30:
                s = len(level)
                put((_POW_INT, s, sb, int(ex.data.numerator)))
            else:
                se = slot_of.get(ex)
                if se is None:
                    se = emit(ex)
                if level[se] > m:
                    m = level[se]
                s = len(level)
                put((_POW, s, sb, se))
            level.append(m + 1 if m else 0)
        else:  # FUNC
            sa = slot_of.get(e.args[0])
            if sa is None:
                sa = emit(e.args[0])
            m = level[sa]
            s = len(level)
            level.append(m + 1 if m else 0)
            put((_FUNC_OPS[e.data], s, sa, 0))
        slot_of[e] = s
        return s

    # outputs repeat (zeros, shared partials): each distinct one is emitted
    # once, in the order of its first appearance
    for e in dict.fromkeys(exprs):
        if e not in slot_of:
            emit(e)
    outputs = np.fromiter(map(slot_of.__getitem__, exprs), np.intp,
                          len(exprs))
    # `emit` refers to itself through its closure cell; clearing the cell
    # breaks that cycle, so the tape's bookkeeping is freed on return rather
    # than at the next full garbage collection.
    del emit
    instrs = np.fromiter(tape, np.intp, len(tape)).reshape(-1, 4)
    return EvalProgram(instrs, len(level), outputs, sym_slots, consts,
                       *_schedule(instrs, np.fromiter(level, np.intp,
                                                      len(level))))


def _schedule(instrs, level):
    """The level-0 instructions' tape indices, each slot's writer, and the
    groups of the other instructions (see `EvalProgram`): by ascending
    level, then opcode and exponent, each in tape order.  `level` holds
    each slot's level."""
    op, dest, a, b = instrs.T
    writer = np.zeros(len(level), dtype=np.intp)
    writer[dest] = np.arange(1, len(instrs) + 1)
    lv = level[dest]
    scalars = np.flatnonzero((lv == 0) & (op != _LOAD_CONST)).tolist()
    # one sort key: level, opcode (a POW by a constant exponent keyed apart,
    # by its exponent's slot), exponent; instructions of level 0 first
    const_ex = (op == _POW) & (level[b * (op == _POW)] == 0)
    ex = np.where(const_ex | (op == _POW_INT), b, 0)
    key = (lv << 40) | ((op + 16 * const_ex) << 32) | (ex + 2 ** 31)
    key[lv == 0] = -1
    order = np.argsort(key, kind="stable")[
        len(instrs) - np.count_nonzero(lv):]
    if not order.size:
        return scalars, writer, []
    key, dest, a, b = key[order], dest[order], a[order], b[order]
    starts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()]
    groups = []
    for lo, hi, k in zip(starts, starts[1:] + [len(key)],
                         key[starts].tolist()):
        op, ex = (k >> 32) & 0xff, (k & 0xffffffff) - 2 ** 31
        keyed = op > 15 or op == _POW_INT
        op &= 15
        groups.append((op, ex if keyed else None, dest[lo:hi], a[lo:hi],
                       b[lo:hi] if op in _BINARY and not keyed else None))
    return scalars, writer, groups


def run_batch(prog, points, rows=None):
    """Run `prog` at each binding dict in `points`: an array of shape
    (len(points), n_outputs), or given `rows`, an integer array of slots,
    the array rows.shape + (len(points),) of their values.  A
    tape without symbols is broadcast across the points; a symbol missing
    from a point raises UnboundSymbolError, and a value that overflows
    raises DomainError at the first point whose own run overflows."""
    batch = {}
    for name in prog.sym_slots:
        try:
            batch[name] = np.array([float(pt[name]) for pt in points])
        except KeyError:
            raise UnboundSymbolError(name) from None
    try:
        with np.errstate(over="raise"):
            vals = prog.run(batch)
    except FloatingPointError:
        # run alone, the first point that overflows raises, naming itself
        for pt in points if len(points) > 1 else ():
            run_batch(prog, [pt])
        raise DomainError("overflow: a value too large for a float",
                          {k: float(v[0]) for k, v in batch.items()}) from None
    if rows is None:
        out = vals[prog.outputs].T
        return out if batch else np.repeat(out, len(points), axis=0)
    out = vals[rows]
    return out if batch else np.repeat(out, len(points), axis=-1)


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
