"""The one scale every decision is measured against (`config.scale_of`),
and the conformal weight each call names for each of its parts."""

import numpy as np
import pytest

import confein
from confein import catalog, config, obstructions as OB, tractor
from confein.curvature import CurvaturePack, trace_free_residual
from confein.expressions import mul, parse, rational
from confein.genericity import PolicyError
from confein.geometry import MetricField
from conftest import entry


class TestScaleOf:
    def test_max_of_one_and_every_part_per_point(self):
        a = np.array([[0.5, -3.0], [0.25, 0.0], [2.0, -0.5]])
        b = np.array([[[-0.1]], [[1.5]], [[-4.0]]])
        got = config.scale_of((a, 2), (b, -4))
        assert got.tolist() == [3.0, 1.5, 4.0]

    def test_weights_are_not_read(self):
        a = np.array([[7.0], [0.1]])
        assert (config.scale_of((a, 0)).tolist()
                == config.scale_of((a, -48)).tolist() == [7.0, 1.0])

    def test_no_points(self):
        assert config.scale_of((np.zeros((0, 4)), 2)).shape == (0,)

    def test_max_norm_of_a_stack(self):
        a = np.arange(-12.0, 12.0).reshape(2, 3, 4)
        assert config.max_norm(a).tolist() == [12.0, 11.0]
        assert config.max_norm(np.array([-2.0, 3.0])).tolist() == [2.0, 3.0]


def _times_four(g):
    """The metric 4 g in the chart of g."""
    comps = np.empty(g.comps.shape, dtype=object)
    for i in range(g.dim):
        for j in range(g.dim):
            comps[i, j] = mul(rational(4), g.comps[i, j])
    return MetricField(g.chart, comps, params=g.params,
                       sample_box=g.sample_box)


def _weights(n):
    """The weight of each part passed to `scale_of` by each display, in
    call order."""
    cleared = {"cspace": 0, "bach": -2, "F1": -n * (n - 1),
               "F2": -2 * n * (n - 1) - 2}
    out = {"degenerate": [2], "scale": [2, 0, 0], "trace-free": [0],
           "tractor": [0, -2, 0], "E": [0] * 4, "G": [-8 * n] * 4,
           "Gbar": [2 * n * (1 - n)] * 4, "dim4": [-8] * 4,
           "cotton": [-4 * n] * 2 + ([-4] * 2 if n == 4 else [])}
    out.update({k: [w] * 2 for k, w in cleared.items()})
    return out


@pytest.fixture
def recorded(monkeypatch):
    """Every call of `scale_of` from the package, with copies of its
    parts."""
    calls = []
    real = config.scale_of

    def record(*parts):
        calls.append([(np.array(a, copy=True), w) for a, w in parts])
        return real(*parts)

    patched = set()
    for name in dir(confein):
        mod = getattr(confein, name)
        if getattr(mod, "scale_of", None) is real:
            monkeypatch.setattr(mod, "scale_of", record)
            patched.add(name)
    assert {"curvature", "geometry", "obstructions", "tractor"} <= patched
    return calls


def _displays(g, pts, calls):
    """{display: the parts it passed to `scale_of`, or None where its
    policy fails} on the samples of g at pts."""
    out = {}

    def run(name, fn):
        del calls[:]
        try:
            got = fn()
        except PolicyError:
            out[name] = None
            return None
        out[name] = [p for call in calls for p in call]
        return got

    s = run("degenerate", lambda: CurvaturePack(g).samples(pts))
    run("scale", s.scale)
    run("trace-free", lambda: trace_free_residual(s["P"], s["g"], s["ginv"]))
    sigma = parse(f"1 + {g.chart.coords[0]}^2/10")
    run("tractor", lambda: tractor.parallel_tractor_check(s, sigma))
    if s.n == 3:
        return out
    for policy in ("from-L", "from-C") + (("dim4-C3",) if s.n == 4 else ()):
        try:
            k = OB.k_field(s, policy)
        except PolicyError:
            continue
        for name, build in (("cspace", OB.cspace_residual),
                            ("bach", OB.bach_residual), ("E", OB.e_tensor)):
            run(name, lambda: build(s, k))
            out[f"{name} {policy}"] = out.pop(name)
    run("F1", lambda: OB.f1(s))
    run("F2", lambda: OB.f2(s))
    run("G", lambda: OB.g_tensor(s))
    run("Gbar", lambda: OB.gbar_tensor(s))
    run("cotton", lambda: OB.cotton_rl2_invariant(s))
    if s.n == 4:
        run("dim4", lambda: OB.dim4_invariant(s))
    return out


@pytest.mark.parametrize("name", catalog.entry_names())
def test_each_part_scales_with_its_weight(name, recorded):
    """Each part a display passes to `scale_of`, on samples of g and of 4 g
    at the same points, scales by 4^(w/2) with the weight w its call
    names, and the weights are the ones the displays are known to have."""
    g = entry(name).metric
    pts = entry(name).points(n=3, seed=0)
    ours = _displays(g, pts, recorded)
    theirs = _displays(_times_four(g), pts, recorded)
    assert ours.keys() == theirs.keys()
    want = _weights(len(g.chart.coords))
    checked = 0
    for display, parts in ours.items():
        assert (parts is None) == (theirs[display] is None), display
        if parts is None:
            continue
        for side in (parts, theirs[display]):
            assert [w for _, w in side] == want[display.split()[0]], display
        for (x, w), (y, _) in zip(parts, theirs[display]):
            if not np.any(x):
                assert not np.any(y), display
                continue
            f = 4.0 ** (w / 2)
            assert (np.max(np.abs(y - f * x))
                    <= 1e-10 * f * np.max(np.abs(x))), (display, w)
            checked += 1
    assert checked >= 3
