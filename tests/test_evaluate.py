"""The grouped tape run against an instruction-by-instruction run.

`EvalProgram.run` runs a tape by level groups, one numpy call per group.
`run_in_tape_order` below runs the same tape one instruction at a time, in
tape order: it is the oracle of the grouped run's bits, and of which
error it raises."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confein.evaluate import DomainError, compile_batch, run_batch
from confein.expressions import parse

# the module (the package's `evaluate` is the function of that name)
EV = importlib.import_module("confein.evaluate")


def run_in_tape_order(prog, bindings):
    """The values of every slot of `prog` at the batch `bindings` (symbol
    -> 1-d array), one instruction at a time in tape order: a constant's
    slot and a slot computed from constants alone hold a scalar, the rest
    an array.  Raises at the first instruction that fails, at its first
    failing point, as the grouped run must."""
    slots = [None] * prog.n_slots
    for name, slot in prog.sym_slots.items():
        slots[slot] = np.asarray(bindings[name], dtype=float)

    def point_of(i):
        return {nm: float(slots[s][i]) for nm, s in prog.sym_slots.items()}

    def first(mask):
        idx = np.flatnonzero(mask)
        return int(idx[0]) if idx.size else None

    for op, dest, a, b in prog.instrs.tolist():
        if op == EV._ADD:
            slots[dest] = slots[a] + slots[b]
        elif op == EV._MUL:
            slots[dest] = slots[a] * slots[b]
        elif op == EV._POW_INT:
            base = slots[a]
            if b < 0:
                bad = first(base == 0.0)
                if bad is not None:
                    raise DomainError("division by zero", point_of(bad))
            slots[dest] = base ** b
        elif op == EV._LOAD_CONST:
            slots[dest] = prog.consts[dest]
        elif op == EV._POW:
            base, ex = slots[a], slots[b]
            bad = first(base < 0.0)
            if bad is not None:
                raise DomainError(
                    "fractional power of a negative value", point_of(bad))
            bad = first((base == 0.0) & (ex < 0))
            if bad is not None:
                raise DomainError("division by zero", point_of(bad))
            slots[dest] = base ** ex
        else:  # exp, log, sin, cos
            arg = slots[a]
            if op == EV._LOG:
                bad = first(arg <= 0.0)
                if bad is not None:
                    raise DomainError("log of a nonpositive value",
                                      point_of(bad))
            slots[dest] = EV._UFUNCS[op](arg)
    return slots


def outcome(fn):
    """('ok', value) or (exception type, message) of fn()."""
    try:
        return "ok", fn()
    except (DomainError, FloatingPointError, OverflowError) as exc:
        return type(exc), str(exc)


def assert_same_bits(prog, got, want):
    """Every slot the tape writes, and every symbol, has the oracle's bits
    in the grouped run's slot matrix (signs of zeros included)."""
    n_pts = got.shape[1]
    written = [ins[1] for ins in prog.instrs] + list(prog.sym_slots.values())
    for s in written:
        w = np.broadcast_to(np.asarray(want[s], dtype=float), (n_pts,))
        assert got[s].tobytes() == w.tobytes(), (s, got[s], w)


# --- random expressions ---------------------------------------------------

_LEAVES = st.sampled_from(["x", "y", "z", "2", "3", "1/2", "-1", "0.25",
                           "1.5", "7/3"])


def _grow(inner):
    return st.one_of(
        st.tuples(inner, inner).map(lambda t: f"({t[0]} + {t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"({t[0]}*{t[1]})"),
        st.tuples(inner, st.integers(-3, 4)).map(
            lambda t: f"({t[0]})^({t[1]})"),
        st.tuples(inner, st.sampled_from(["1/2", "-1/2", "3/2", "1/3",
                                          "0.5", "2.0", "-1.0", "0.75"])).map(
            lambda t: f"({t[0]})^({t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"({t[0]})^({t[1]})"),
        st.tuples(st.sampled_from(["exp", "log", "sin", "cos", "sqrt"]),
                  inner).map(lambda t: f"{t[0]}({t[1]})"),
    )


_EXPRS = st.recursive(_LEAVES, _grow, max_leaves=12)
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0]),
                    st.floats(-4.0, 4.0, allow_nan=False, width=64))


@st.composite
def tapes(draw):
    texts = draw(st.lists(_EXPRS, min_size=1, max_size=4))
    n_pts = draw(st.sampled_from([1, 2, 33]))
    cols = {nm: draw(st.lists(_VALUES, min_size=n_pts, max_size=n_pts))
            for nm in "xyz"}
    return texts, {nm: np.array(v) for nm, v in cols.items()}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tapes())
def test_grouped_run_has_the_bits_and_errors_of_the_tape_order(drawn):
    texts, batch = drawn
    try:
        exprs = [parse(t) for t in texts]
    except (ArithmeticError, ValueError, TypeError):
        return  # a constant the parser folds and fails on: 0^-1, (-1)^0.75
    prog = compile_batch(exprs)
    bindings = {nm: batch[nm] for nm in prog.sym_slots}
    with np.errstate(all="raise"):
        want = outcome(lambda: run_in_tape_order(prog, bindings))
        got = outcome(lambda: prog.run(bindings))
    assert got[0] == want[0], (texts, got, want)
    if want[0] == "ok":
        assert_same_bits(prog, got[1], want[1])
    else:
        assert got[1] == want[1], texts
    # each prefix runs by the whole tape's groups, cut to its instructions
    for k in range(1, len(exprs)):
        pre = prog.prefix(k)
        with np.errstate(all="raise"):
            want = outcome(lambda: run_in_tape_order(pre, bindings))
            got = outcome(lambda: pre.run(bindings))
        assert got[0] == want[0] and (
            want[0] == "ok" or got[1] == want[1]), (texts, k)
        if want[0] == "ok":
            assert_same_bits(pre, got[1], want[1])


def test_a_power_by_a_constant_runs_with_a_scalar_exponent():
    # x^2.0, x^0.5 and x^-1.0 take numpy's fast paths as an instruction
    # alone does; a group running them with an array exponent would not
    xs = {"x": np.linspace(0.1, 7.3, 33)}
    prog = compile_batch([parse("x^0.5 + x^2.0 + x^(-1.0) + x^(1/3)"),
                          parse("(x + 1)^0.5 * (x + 2)^0.5")])
    assert_same_bits(prog, prog.run(xs), run_in_tape_order(prog, xs))


def test_level_zero_instructions_run_on_scalars():
    # log(2) and 2^(1/2) read constants only: each is evaluated alone on
    # scalars and broadcast; every other instruction is in one group
    prog = compile_batch([parse("x*log(2) + 2^(1/2)")])
    grouped = [t for g in prog.groups
               for t in (prog.writer[g[2]] - 1).tolist()]
    assert len(prog.scalars) == 2
    assert sorted(prog.scalars + grouped) == [
        t for t, ins in enumerate(prog.instrs) if ins[0] != EV._LOAD_CONST]
    xs = {"x": np.array([0.5, -1.25])}
    assert_same_bits(prog, prog.run(xs), run_in_tape_order(prog, xs))


# --- errors keep the tape's order -----------------------------------------

def test_earlier_instruction_at_a_higher_level_is_named_first():
    # log(sin(sin(x))) fails at level 4, first in tape order, at point 0;
    # (y - 2)^(1/2) fails at level 3, later in tape order, at point 1, and
    # its group runs first
    prog = compile_batch([parse("log(sin(sin(x)))"), parse("(y - 2)^(1/2)")])
    log_at, pow_at = (next(t for t, ins in enumerate(prog.instrs)
                           if ins[0] == op) for op in (EV._LOG, EV._POW))
    group_of = {t: i for i, g in enumerate(prog.groups)
                for t in (prog.writer[g[2]] - 1).tolist()}
    assert log_at < pow_at and group_of[pow_at] < group_of[log_at]
    bindings = {"x": np.array([0.0, 1.0]), "y": np.array([3.0, 1.0])}
    with pytest.raises(DomainError) as exc:
        prog.run(bindings)
    assert str(exc.value) == ("log of a nonpositive value at point "
                              "{'x': 0.0, 'y': 3.0}")
    with pytest.raises(DomainError) as want:
        run_in_tape_order(prog, bindings)
    assert str(want.value) == str(exc.value)
    # where the log is defined, the power is named, at its point
    with pytest.raises(DomainError) as exc:
        prog.run({"x": np.array([1.0, 1.0]), "y": np.array([3.0, 1.0])})
    assert str(exc.value) == ("fractional power of a negative value at "
                              "point {'x': 1.0, 'y': 1.0}")


def test_overflow_at_a_later_point_yields_to_a_log_at_an_earlier_one():
    # in tape order exp(1000 x) overflows (at point 2) before log(y) fails
    # (at point 1): the whole batch overflows, and run alone point 1 is
    # the first point that fails, with the log
    prog = compile_batch([parse("exp(1000*x)"), parse("log(y)")])
    pts = [{"x": 0.0, "y": 1.0}, {"x": 0.0, "y": -1.0},
           {"x": 1.0, "y": 1.0}]
    batch = {nm: np.array([p[nm] for p in pts]) for nm in "xy"}
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        prog.run(batch)
    with pytest.raises(DomainError) as exc:
        run_batch(prog, pts)
    assert str(exc.value) == ("log of a nonpositive value at point "
                              "{'x': 0.0, 'y': -1.0}")


def test_overflow_is_named_at_the_first_point_that_overflows_alone():
    prog = compile_batch([parse("exp(1000*x) + exp(800*y)")])
    pts = [{"x": 0.5, "y": 0.0}, {"x": 0.0, "y": 1.0}, {"x": 1.0, "y": 0.0}]
    with pytest.raises(DomainError) as exc:
        run_batch(prog, pts)
    assert str(exc.value).startswith("overflow: a value too large for a "
                                     "float at point")
    assert exc.value.point == {"x": 0.0, "y": 1.0}
