import gc
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from confein.evaluate import (
    DomainError,
    UnboundSymbolError,
    compile_batch,
    evaluate,
    run_batch,
)
from confein import expressions
from confein.expressions import (
    ADD,
    ExprSyntaxError,
    MINUS_ONE,
    ONE,
    POW,
    RAT,
    add,
    diff,
    div,
    floating,
    func,
    is_zero,
    mul,
    neg,
    parse,
    power,
    rational,
    simplify,
    sqrt,
    sub,
    symbol,
    to_text,
)

r, m, x, y = symbol("r"), symbol("m"), symbol("x"), symbol("y")


class TestParse:
    def test_rational_literal_inside_quotient_tree(self):
        e = parse("r^2/(1+(x^2+y^2)/4)^2")
        # the 1/4 stays an exact rational
        assert evaluate(e, {"r": 2.0, "x": 0.0, "y": 0.0}) == 4.0
        assert evaluate(e, {"r": 1.0, "x": 2.0, "y": 0.0}) == 0.25

    def test_sum_of_neg_half_and_quotient(self):
        e = parse("-1/2 + m/r")
        assert e is add(rational(-1, 2), div(m, r))

    def test_einstein_profile_dimension4(self):
        # 2h(r) with h = -kappa/2 + m/r^{n-3} + L r^2/(2(n-1)), n=4, kappa=1
        e = parse("2*(-1/2 + m/r + L*r^2/6)")
        h = add(rational(-1, 2), div(m, r),
                mul(symbol("L"), power(r, rational(2)), rational(1, 6)))
        assert e is mul(rational(2), h)

    def test_precedence_unary_minus_looser_than_power(self):
        assert parse("-x^2") is neg(power(x, rational(2)))

    def test_power_right_associative(self):
        assert parse("x^2^3") is power(x, rational(8))
        assert parse("x^y^2") is power(x, power(y, rational(2)))

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("1 + * 2")
        assert exc.value.offset == 4

    def test_unknown_function_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("tan(x)")

    def test_scientific_notation(self):
        assert evaluate(parse("1e-3 + 2.5e2"), {}) == pytest.approx(250.001)

    def test_integer_slash_integer_is_exact(self):
        e = parse("2/4")
        assert e is rational(1, 2)

    @pytest.mark.parametrize("build", [
        lambda: neg(mul(add(1, x), add(1, y))),
        lambda: mul(rational(2), add(1, r), power(x, rational(-1))),
        lambda: mul(rational(-2, 3), add(1, r), power(add(1, x), rational(-2))),
        lambda: mul(rational(2), power(rational(0), rational(-2))),
    ], ids=["neg-product-of-sums", "const-sum-quotient",
            "rational-sum-quotient", "zero-to-negative-power"])
    def test_product_text_reads_back_as_product(self, build):
        # a partial product c*(a + b) distributes, and 0^2 folds to 0
        e = build()
        assert parse(to_text(e)) is e


class TestDiff:
    def test_power_rule(self):
        assert diff(parse("r^2"), "r") is parse("2*r")

    def test_profile_derivatives(self):
        h = parse("-1/2 + m/r")
        assert diff(h, "r") is parse("-m/r^2")
        assert diff(diff(h, "r"), "r") is parse("2*m/r^3")

    def test_constant_derivative_zero(self):
        assert diff(parse("5/7"), "r") is rational(0)
        assert diff(m, "r") is rational(0)

    def test_chain_rules(self):
        assert diff(func("exp", mul(rational(2), x)), "x") is \
            mul(rational(2), func("exp", mul(rational(2), x)))
        assert diff(func("log", x), "x") is power(x, rational(-1))
        assert diff(func("sin", x), "x") is func("cos", x)
        assert diff(func("cos", x), "x") is neg(func("sin", x))
        assert diff(sqrt(x), "x") is mul(rational(1, 2),
                                         power(x, rational(-1, 2)))


class TestConstants:
    def test_integral_constants_are_ints(self):
        two = rational(Fraction(6, 3))
        assert two is rational(2) and two is parse("4/2")
        assert type(two.data) is int and two.data == 2
        one = rational(True)
        assert one is rational(1) and one is ONE
        assert type(one.data) is int and one.data == 1
        assert type(parse("-7").data) is int

    def test_non_integral_constants_stay_fractions(self):
        for e in (rational(1, 2), rational(Fraction(-6, 4)), parse("2/6")):
            assert type(e.data) is Fraction and e.data.denominator > 1
        assert rational(-6, 4) is rational(Fraction(-3, 2))

    def test_integral_fraction_arithmetic_interns_to_the_int_node(self):
        half = rational(1, 2)
        for e, value in ((add(half, half), 1),
                         (add(half, rational(3, 2)), 2),
                         (mul(rational(2, 3), rational(3, 2)), 1),
                         (mul(rational(4, 3), rational(3, 2)), 2),
                         (power(half, rational(-2)), 4),
                         (power(rational(4), rational(1, 2)), 2)):
            assert e is rational(value) and type(e.data) is int
        assert mul(rational(1, 3), add(x, x, x)) is x
        assert power(rational(9, 4), rational(3, 2)) is rational(27, 8)
        # like terms whose coefficients add to an integer
        assert add(mul(half, x), mul(half, x)) is x
        assert add(mul(half, x), mul(rational(3, 2), x)) is mul(rational(2), x)

    def test_int_to_a_negative_power_folds_through_fraction(self):
        assert power(rational(2), rational(-1)) is rational(1, 2)
        assert power(rational(-2), rational(-3)) is rational(-1, 8)
        assert type(power(rational(2), rational(-1)).data) is Fraction

    def test_a_zero_float_to_a_negative_power_stays_a_power(self):
        # 0.0^-1 has no float value, so it is not folded: it stays a
        # power, whose evaluation raises a domain error, as 0^-1 does; so
        # does a rational base whose float underflows to 0.0, to a float
        # power (to an int power it folds exactly)
        tiny = rational(Fraction(1, 10 ** 400))
        for base, expo in [(floating(0.0), -1), (floating(0.0), -2),
                           (floating(0.0), floating(-1.0)),
                           (floating(0.0), floating(-0.5)),
                           (tiny, floating(-1.0)), (tiny, floating(-0.5))]:
            e = power(base, expo)
            assert e.kind == POW and e.args[0] is base, (base, expo)
        assert power(tiny, -1) is rational(10 ** 400)
        assert power(rational(0), -1).kind == POW
        with pytest.raises(DomainError, match="division by zero"):
            evaluate(power(floating(0.0), -1), {})

    def test_mixed_constants_round_as_floats(self):
        # a float coefficient met by an int or a Fraction one is rounded
        # as float(a) + float(b) and float(a) * float(b)
        assert add(mul(rational(1, 3), x), mul(floating(0.5), x)) is \
            mul(floating(float(Fraction(1, 3)) + 0.5), x)
        assert mul(rational(1, 3), floating(0.5)) is \
            floating(float(Fraction(1, 3)) * 0.5)
        assert add(rational(2), floating(0.25)) is floating(2.25)


class TestSimplify:
    def test_like_terms(self):
        assert simplify(parse("x + x")) is parse("2*x")

    def test_power_cancellation(self):
        assert parse("r^2") * parse("r^(-2)") is rational(1)

    def test_curvature_profile_folds(self):
        # (kappa + 2h)/r^2 - 2h'/r + h'' with kappa=1, h=-1/2+m/r -> 6m/r^3
        h = parse("-1/2 + m/r")
        hp, hpp = diff(h, "r"), diff(diff(h, "r"), "r")
        e = (rational(1) + 2 * h) / r ** 2 - 2 * hp / r + hpp
        assert simplify(e) is parse("6*m/r^3")

    def test_idempotent(self):
        e = parse("(x + y)^2 / (1 + x)")
        assert simplify(simplify(e)) is simplify(e)

    def test_zero_detection_needs_expand(self):
        e = parse("(x+y)^2 - x^2 - 2*x*y - y^2")
        assert is_zero(e)
        e2 = parse("1/(1+x) - 1/(1+x)^2 - x/(1+x)^2")
        assert is_zero(e2)
        assert not is_zero(parse("x + y"))


class TestEval:
    def test_basic(self):
        assert evaluate(parse("2*r"), {"r": 3}) == 6.0

    def test_hyperkahler_norm_value(self):
        assert evaluate(parse("24/rho^3"), {"rho": 2}) == 3.0

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbolError):
            evaluate(parse("m/r"), {"r": 1.0})

    def test_domain_error_names_the_point(self):
        with pytest.raises(DomainError) as exc:
            evaluate(parse("m/r"), {"m": 1.0, "r": 0.0})
        assert exc.value.point == {"m": 1.0, "r": 0.0}
        with pytest.raises(DomainError):
            evaluate(parse("log(x)"), {"x": -1.0})
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(x)"), {"x": -4.0})

    def test_compiled_agrees_with_direct(self):
        e = parse("exp(x/4) + sin(y)*cos(x) - y^3/(1+x^2) + sqrt(4*y)")
        prog = compile_batch([e])
        b = {"x": 0.37, "y": 1.21}
        assert run_batch(prog, [b])[0] == pytest.approx(evaluate(e, b),
                                                        rel=1e-12)

    def test_compiled_domain_error_names_vector_point(self):
        prog = compile_batch([parse("m/r")])
        with pytest.raises(DomainError) as exc:
            prog.run({"m": np.array([1.0, 1.0]), "r": np.array([2.0, 0.0])})
        assert exc.value.point == {"m": 1.0, "r": 0.0}

    def test_variable_power_checks_zero_division_per_point(self):
        # 0^1 is defined; only the point with base 0 and a negative
        # exponent divides by zero
        e = parse("x^y")
        pts = [{"x": 0.0, "y": 1.0}, {"x": 1.0, "y": -1.0}]
        got = run_batch(compile_batch([e]), pts)[:, 0]
        assert got.tolist() == [evaluate(e, b) for b in pts] == [0.0, 1.0]
        bad = pts + [{"x": 0.0, "y": -1.0}]
        with pytest.raises(DomainError) as exc:
            run_batch(compile_batch([e]), bad)
        assert exc.value.point == {"x": 0.0, "y": -1.0}
        with pytest.raises(DomainError):
            evaluate(e, bad[2])

    def test_cse_shares_across_batch(self):
        shared = parse("(x + y)^2")
        prog = compile_batch([shared * x, shared * y, shared])
        solo = compile_batch([shared])
        # the shared subtree is compiled once: adding two more outputs costs
        # only the two extra multiplies
        assert len(prog) <= len(solo) + 2

    def test_compile_leaves_no_reference_cycle(self):
        exprs = [parse("exp(x/4) + sin(y)*cos(x)"), parse("(x + y)^2 * x")]
        gc.collect()
        gc.disable()
        try:
            prog = compile_batch(exprs)
            del prog
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_run_batch_rows_are_points(self):
        prog = compile_batch([parse("x*y"), parse("x + 1")])
        got = run_batch(prog, [{"x": 1.0, "y": 2.0}, {"x": 3.0, "y": 4.0}])
        assert got.shape == (2, 2)
        assert got.tolist() == [[2.0, 2.0], [12.0, 4.0]]

    def test_run_batch_broadcasts_constant_tape(self):
        prog = compile_batch([parse("2"), parse("1/4")])
        got = run_batch(prog, [{}, {"x": 1.0}, {}])
        assert got.tolist() == [[2.0, 0.25]] * 3

    def test_run_batch_unbound_symbol(self):
        prog = compile_batch([parse("m/r")])
        with pytest.raises(UnboundSymbolError) as exc:
            run_batch(prog, [{"m": 1.0, "r": 2.0}, {"r": 1.0}])
        assert isinstance(exc.value, KeyError)
        assert exc.value.name == "m"


SYMS = ("x", "y", "r")


def exprs(max_depth=4):
    base = st.one_of(
        st.integers(-4, 4).map(rational),
        st.sampled_from([rational(1, 2), rational(-2, 3), rational(5, 4)]),
        st.sampled_from(SYMS).map(symbol),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: add(*t)),
            st.tuples(children, children).map(lambda t: mul(*t)),
            st.tuples(children, st.integers(-2, 3)).map(
                lambda t: power(t[0], rational(t[1]))),
        )

    return st.recursive(base, extend, max_leaves=12)


def _eval_safe(e, b):
    try:
        return evaluate(e, b)
    except (DomainError, OverflowError):
        return None


@st.composite
def expr_and_bindings(draw):
    e = draw(exprs())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return e, {s: float(v) for s, v in
               zip(SYMS, rng.uniform(0.5, 1.5, len(SYMS)))}


class TestProperties:
    @given(expr_and_bindings())
    @settings(max_examples=150, deadline=None)
    def test_print_parse_round_trip(self, eb):
        e, _ = eb
        assert parse(to_text(e)) is e

    @given(expr_and_bindings())
    @settings(max_examples=150, deadline=None)
    def test_simplify_preserves_value(self, eb):
        e, b = eb
        rng = np.random.default_rng(7)
        s = simplify(e)
        for _ in range(32):
            bb = {k: float(v) for k, v in
                  zip(SYMS, rng.uniform(0.5, 1.5, len(SYMS)))}
            v0, v1 = _eval_safe(e, bb), _eval_safe(s, bb)
            if v0 is None or v1 is None:
                continue
            assert v1 == pytest.approx(v0, rel=1e-10, abs=1e-12)

    @given(expr_and_bindings())
    @settings(max_examples=120, deadline=None)
    # one of the 16 samples lands 7.4e-4 from the pole, where a single
    # central difference is 1.8e-4 relative off
    @example((parse("-3/2 + (-1 + r)/(-2/3 + x)"),
              dict.fromkeys(SYMS, 1.0)))
    def test_diff_matches_finite_differences(self, eb):
        e, _ = eb
        de = diff(e, "x")
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(16):
            b = {s: float(v) for s, v in
                 zip(SYMS, rng.uniform(0.6, 1.4, len(SYMS)))}
            vals = [_eval_safe(e, dict(b, x=b["x"] + t))
                    for t in (1e-5, -1e-5, 5e-6, -5e-6)]
            exact = _eval_safe(de, b)
            if exact is None or any(v is None for v in vals):
                continue
            # central differences at h and h/2, Richardson-extrapolated
            fd_h = (vals[0] - vals[1]) / 2e-5
            fd_h2 = (vals[2] - vals[3]) / 1e-5
            fd = (4.0 * fd_h2 - fd_h) / 3.0
            if abs(fd) > 1e6 or abs(fd_h - fd_h2) > 1e-3 * max(1.0,
                                                                 abs(fd_h2)):
                continue  # badly conditioned sample
            assert exact == pytest.approx(fd, rel=1e-6, abs=1e-6)
            checked += 1

    @given(expr_and_bindings())
    @settings(max_examples=100, deadline=None)
    def test_compiled_matches_direct(self, eb):
        e, b = eb
        v0 = _eval_safe(e, b)
        if v0 is None:
            return
        prog = compile_batch([e])
        assert run_batch(prog, [b])[0] == pytest.approx(v0, rel=1e-12,
                                                        abs=1e-300)

    def test_canonical_ordering_commutes(self):
        assert parse("a+b") is parse("b+a")
        assert parse("a*b") is parse("b*a")


# A sum as the parser reads it, drawn as a tree so that its text and the
# node of a one-term-at-a-time add/sub fold are built side by side:
#   sum    = [(op "+"|"-", term), ...]   (the first op is not printed)
#   term   = [(op "*"|"/", factor), ...] (the first op is "*")
#   factor = (leading minuses, atom, exponent text or None)
#   atom   = ("n", int) | ("d", decimal text) | ("s", name) | ("(", sum)
_DECIMALS = ("0.5", "0.25", "0.75", "1.5", "0.1", "2.0", "0.0", "1.0")
_EXPONENTS = {"2": rational(2), "3": rational(3), "-1": MINUS_ONE,
              "y": symbol("y"), "0.5": floating(0.5)}


def sum_trees(depth=2):
    """Sums of up to 6 terms of up to 3 factors; a parenthesized sum, of
    up to 3 terms of up to 2 factors, is one atom in four."""
    atoms = [st.tuples(st.just("n"), st.integers(0, 12)),
             st.tuples(st.just("d"), st.sampled_from(_DECIMALS)),
             st.tuples(st.just("s"), st.sampled_from("xyz"))]
    if depth:
        atoms.append(st.tuples(st.just("("), sum_trees(depth - 1)))
    factor = st.tuples(st.sampled_from((0, 0, 0, 1, 2)), st.one_of(atoms),
                       st.sampled_from((None,) * 4 + tuple(_EXPONENTS)))
    size = 3 if depth else 2
    term = st.lists(st.tuples(st.sampled_from("**/"), factor), min_size=1,
                    max_size=size)
    return st.lists(st.tuples(st.sampled_from("+-"), term), min_size=1,
                    max_size=2 * size)


def _atom_text(atom):
    kind, v = atom
    return f"({_sum_text(v)})" if kind == "(" else str(v)


def _sum_text(tree):
    out = []
    for i, (op, term) in enumerate(tree):
        t = "".join((op2 if j else "") + "-" * k + _atom_text(atom)
                    + (f"^{ex}" if ex else "")
                    for j, (op2, (k, atom, ex)) in enumerate(term))
        out.append(f" {op} {t}" if i else t)
    return "".join(out)


def _atom_node(atom):
    kind, v = atom
    if kind == "n":
        return rational(v)
    if kind == "d":
        return floating(float(v))
    if kind == "s":
        return symbol(v)
    return _left_fold(v)


def _left_fold(tree):
    """The sum as add/sub one term at a time, each term one mul over its
    factors: a leading minus of a '*' factor is the factor -1, and a '/'
    factor is its negated power to -1, as the parser reads them."""
    acc = None
    for op, term in tree:
        factors = []
        for j, (op2, (k, atom, ex)) in enumerate(term):
            f = _atom_node(atom)
            if ex is not None:
                f = power(f, _EXPONENTS[ex])
            if op2 == "/" and j:
                for _ in range(k):
                    f = neg(f)
                factors.append(power(f, MINUS_ONE))
            else:
                factors += [MINUS_ONE] * k + [f]
        t = mul(*factors)
        acc = t if acc is None else add(acc, t) if op == "+" else sub(acc, t)
    return acc


class TestSumsCanonicalizeOnce:
    # no max_examples here: a Hypothesis profile picks the draw (conftest)
    @given(sum_trees())
    @settings(deadline=None, derandomize=True)
    def test_parse_is_the_left_fold(self, tree):
        text = _sum_text(tree)
        try:
            want = _left_fold(tree)
        except ZeroDivisionError:  # 0.0 to a negative power, both ways
            with pytest.raises(ZeroDivisionError):
                parse(text)
            return
        assert parse(text) is want, text

    @pytest.mark.parametrize("text, terms", [
        # a float coefficient rounds at each step of the fold
        ("0.5*x + 0.5*x + x/3", ["0.5*x", "0.5*x", "x/3"]),
        ("(0.5*x + 0.5*x) + x/3", ["(0.5*x + 0.5*x)", "x/3"]),
        ("x/3 + (0.5*x + y) - 0.5*x + 0.5*x", ["x/3", "(0.5*x + y)",
                                                "-0.5*x", "0.5*x"]),
        # floats only inside parenthesized sums
        ("(0.5*x + y) + (0.5*x + z) + x/3", ["(0.5*x + y)", "(0.5*x + z)",
                                             "x/3"]),
        # coefficients that fold to exactly 1.0 and 0.0 leave no float
        ("0.5*2*x + x/3 + x/6", ["x", "x/3", "x/6"]),
        ("0.0*x + y/3 + y - 2*0.5*y", ["0", "y/3", "y", "-y"]),
        ("2.0*0.5 + 1/3 + x", ["1", "1/3", "x"]),
    ])
    def test_float_sums_keep_the_fold(self, text, terms):
        acc = parse(terms[0])
        for t in terms[1:]:
            acc = add(acc, parse(t))
        assert parse(text) is acc

    def test_one_add_over_float_terms_would_round_otherwise(self):
        terms = [parse(t) for t in ("0.5*x", "0.5*x", "x/3")]
        assert add(*terms) is mul(floating(0.5 + 0.5 + 1 / 3), x)
        assert parse("0.5*x + 0.5*x + x/3") is mul(rational(4, 3), x)

    @pytest.mark.parametrize("text, offset", [
        ("1 + * 2", 4), ("1 + 2 - * 3", 8), ("x + (y - )", 9),
        ("a + b +", 7), ("x - y )", 6), ("0.5*x + 0.5*x + )", 16),
        ("a - b - c - ", 12), ("1 + 2 + tan(x)", 8), ("x + . + y", 5),
        ("(x + y", 6)])
    def test_syntax_errors_in_sums_keep_their_offsets(self, text, offset):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("k", range(2, 9))
    def test_float_free_sum_interns_no_partial_sum(self, k):
        names = [f"partial_{k}_{i}" for i in range(k)]
        terms = [n if i % 3 == 0 else f"{i}*{n}^2" if i % 3 == 1
                 else f"{n}/{i + 1}" for i, n in enumerate(names)]
        text = terms[0] + "".join(
            (" - " if i % 2 else " + ") + t for i, t in enumerate(terms[1:]))
        before = {id(node) for node in expressions._table.values()}
        e = parse(text)
        new_sums = [node for node in expressions._table.values()
                    if node.kind == ADD and id(node) not in before]
        assert new_sums == [e]

    @pytest.mark.parametrize("p, data", [
        (7, 7), (-123456789012345678901, -123456789012345678901),
        (Fraction(-3, 4), Fraction(-3, 4)), (Fraction(12, 4), 3),
        # an integral Fraction whose int no earlier node holds
        (Fraction(2 * 98765432109876543211, 2), 98765432109876543211),
        (Fraction(987654321, 1234567), Fraction(987654321, 1234567)),
        (True, 1), (False, 0)])
    def test_rational_is_the_interned_node(self, p, data):
        node = rational(p)
        assert node is expressions._table[(RAT, data, ())]
        assert type(node.data) is type(data) and node.data == data
        assert rational(p) is node
        if isinstance(p, Fraction):
            assert rational(p.numerator, p.denominator) is node
