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
from confein.expressions import (
    ExprSyntaxError,
    add,
    diff,
    div,
    func,
    is_zero,
    mul,
    neg,
    parse,
    power,
    rational,
    simplify,
    sqrt,
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
