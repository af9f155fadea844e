"""The exit-code contract of the CLI under drawn metric files: a command
ends in a verdict (exit 0, 1 or 2 for `classify`, 0 or 1 for the others)
with an empty stderr, or in exit 3 with one `error:` line; never in exit
4, an internal error.

The files come from a small grammar: n from 3 to 6, a diagonal of
s + term (s = 1, or -1 or 0 in the first slot) and up to two off-diagonal
terms, all times one unit from 1e-200 to 1e6, where a term is a
polynomial, `exp`, `log`, `sqrt` or a quotient in two coordinates; the
points pinned, drawn from boxes or drawn from the default box; and an
optional `conformal` factor."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from confein.cli import main

COORDS = ("x", "y", "z", "w", "u", "v")
VALUES = (-1.5, -0.5, 0.0, 0.5, 1.0, 2.0)
# units of 1e30 and more overflow inside classify (exit 4): pinned as
# strict xfails in test_mspec_cli, with the units of ROADMAP item 2
UNITS = ("1", "1e-6", "1e6", "1e-200")


@st.composite
def terms(draw, coords):
    a, b = draw(st.sampled_from(coords)), draw(st.sampled_from(coords))
    k = draw(st.integers(1, 3))
    return draw(st.sampled_from([
        f"{k}*{a}*{b}", f"{a}^2 - {k}*{b}", f"exp({a}/{k})",
        f"log({k} + {a})", f"sqrt({k} + {a}*{b})",
        f"{a}/({k} + {b}^2)"]))


@st.composite
def mspec_texts(draw):
    n = draw(st.integers(3, 6))
    coords = COORDS[:n]
    lines = [f"dim = {n}", "coords = " + ", ".join(coords)]
    unit = draw(st.sampled_from(UNITS))
    for i in range(n):
        sign = draw(st.sampled_from(["1", "-1", "0"])) if i == 0 else "1"
        extra = draw(st.one_of(st.none(), terms(coords)))
        lines.append(f"g[{i}][{i}] = {unit}*({sign}"
                     + (f" + ({extra})/4)" if extra else ")"))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=2,
                              unique=True)):
        lines.append(f"g[{i}][{j}] = {unit}*({draw(terms(coords))})/8")
    where = draw(st.sampled_from(["pinned", "boxes", "default"]))
    if where == "pinned":
        for _ in range(draw(st.integers(1, 3))):
            pt = draw(st.lists(st.sampled_from(VALUES), min_size=n,
                               max_size=n))
            lines.append("point = " + ", ".join(map(str, pt)))
    elif where == "boxes":
        for c in draw(st.lists(st.sampled_from(coords), max_size=2,
                               unique=True)):
            lo = draw(st.sampled_from(VALUES[:-1]))
            width = draw(st.sampled_from((0.5, 1, 2)))
            lines.append(f"box {c} = {lo}, {lo + width}")
    if draw(st.booleans()):
        lines.append(f"conformal = {draw(terms(coords))}")
    return "\n".join(lines) + "\n"


def _run(tmp_path_factory, text, *argv):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "m.mspec").write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([argv[0], str(d / "m.mspec"), "--points", "3",
                     "--json", str(d / "out.json"), *argv[1:]])
    if code == 3:
        assert err.getvalue().startswith("error: "), (text, err.getvalue())
        assert err.getvalue().count("\n") == 1, (text, err.getvalue())
        return code, None
    assert err.getvalue() == "", (text, code, err.getvalue())
    return code, json.loads((d / "out.json").read_text())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(text=mspec_texts())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_classify_ends_in_a_verdict_or_an_input_error(tmp_path_factory,
                                                      text):
    code, report = _run(tmp_path_factory, text, "classify")
    assert code in (0, 1, 2, 3), (text, code)
    if report is not None:
        want = {"conformally-einstein": 0, "not": 1}.get(report["verdict"], 2)
        assert report["verdict"] in ("conformally-einstein", "not",
                                     "inconclusive", "conflict"), text
        assert code == want, (text, report["verdict"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(text=mspec_texts(),
       argv=st.sampled_from([("invariants",), ("identities",),
                             ("tractor", "--sigma", "1")]))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_other_commands_end_in_a_report_or_an_input_error(tmp_path_factory,
                                                          text, argv):
    code, _ = _run(tmp_path_factory, text, *argv)
    assert code in (0, 1, 3), (text, argv, code)
