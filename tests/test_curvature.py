import numpy as np
import pytest

from confein import catalog
from confein import geometry as G
from confein.config import Tolerances
from confein.curvature import (
    CurvaturePack,
    cotton_transform_check,
    identity_residuals,
    identity_suite,
    trace_free_residual,
)
from confein.expressions import ONE, ZERO, diff, is_zero, parse
from conftest import entry, maxabs, pack, points, samples

TOL = Tolerances()


def symbolic_ladder(p):
    """Every ladder entry as symbolic components of the pack's fields."""
    pd = G.partial_derivative
    return {
        "g": p.g.field.comps, "dg": pd(p.g.field),
        "ginv": p.g.inverse_comps(), "gamma": p.gamma.comps,
        "ricci": p.ricci.comps,
        "scalar": np.asarray(p.scalar, dtype=object), "P": p.schouten.comps,
        "J": np.asarray(p.schouten_trace, dtype=object),
        "dP": pd(p.schouten),
        "dJ": np.asarray([diff(p.schouten_trace, c) for c in p.chart.coords],
                         dtype=object),
        "C": p.weyl.comps, "dC": pd(p.weyl), "A": p.cotton.comps,
        "dA": pd(p.cotton), "B": p.bach.comps,
    }


def assert_ladder_matches_symbolic(p, pts):
    s = p.samples(pts)
    fields = symbolic_ladder(p)
    assert set(s.values) == set(fields)
    for name, comps in fields.items():
        want = G.evaluate_components(comps, s.bindings)
        scale = max(1.0, maxabs(want))
        assert s[name].shape == want.shape, name
        assert maxabs(s[name] - want) <= 1e-10 * scale, name


class TestMetricJetLadder:
    """The metric-jet ladder against the symbolic ladder as oracle."""

    @pytest.mark.parametrize("name", catalog.entry_names())
    def test_catalog_entry_matches_symbolic(self, name):
        assert_ladder_matches_symbolic(pack(name), points(name, 10))

    def test_rescaled_entry_matches_symbolic(self):
        g = G.conformal_rescale(entry("rt4-quartic").metric, parse("3*u/10"))
        assert_ladder_matches_symbolic(CurvaturePack(g),
                                       points("rt4-quartic", 10))

    def test_chunks_do_not_change_values(self):
        from confein import curvature
        p = pack("rt5-quartic")
        pts = points("rt5-quartic", 2 * curvature._CHUNK + 3)
        whole = p.samples(pts)
        part = p.samples(pts[curvature._CHUNK + 1:])
        for name, v in part.values.items():
            assert maxabs(v - whole[name][curvature._CHUNK + 1:]) <= \
                1e-13 * max(1.0, maxabs(v))

    def test_no_points_give_empty_entries(self):
        s = pack("rt5-quartic").samples([])
        assert s["C"].shape == (0,) + (5,) * 4
        assert s["dC"].shape == (0,) + (5,) * 5

    def test_singular_point_raises_naming_the_point(self):
        ch = G.Chart(("x", "y", "z"))
        comps = np.array([[parse("x"), ZERO, ZERO], [ZERO, ONE, ZERO],
                          [ZERO, ZERO, ONE]], dtype=object)
        p = CurvaturePack(G.MetricField(ch, comps))
        pts = [{"x": 1.0, "y": 0.5, "z": 0.5},
               {"x": 0.0, "y": 0.25, "z": 0.5}]
        with pytest.raises(G.SingularMetricError, match="'y': 0.25"):
            p.samples(pts)


class TestLadderOnClosedForms:
    def test_flat_metric_everything_zero(self):
        p = pack("flat4")
        for field in (p.riemann, p.ricci, p.weyl, p.cotton, p.bach):
            assert all(c is ZERO or is_zero(c)
                       for c in field.comps.reshape(-1))
        assert p.scalar is ZERO

    @pytest.mark.parametrize("name,n", [("rt4-quartic", 4),
                                        ("rt5-quartic", 5),
                                        ("rt6-quartic", 6)])
    def test_rt_scalar_curvature_closed_form(self, name, n):
        e = entry(name)
        p = pack(name)
        pts = points(name, 10)
        s = p.samples(pts)
        want = G.evaluate_components(
            e.extras["scalar_curvature_closed_form"], s.bindings)
        assert np.allclose(s["scalar"], want, rtol=1e-9)

    def test_schwarzschild_is_ricci_flat(self):
        s = samples("schwarzschild4", 10)
        assert maxabs(s["ricci"]) < 1e-9
        assert maxabs(s["scalar"]) < 1e-9

    def test_rt_ricci_components_closed_form(self):
        # R_ij = [(n-3)(kappa+2h)/r^2 + 2h'/r] g_ij and
        # R_+- = (n-2) h'/r + h'' in the null coframe
        e = entry("rt5-quartic")
        n = 5
        p = pack("rt5-quartic")
        ric = G.coframe_components(p.ricci, e.extras["coframe"])
        pts = points("rt5-quartic", 5)
        b = [e.metric.point_bindings(q) for q in pts]
        h = e.extras["h"]
        hp, hpp = diff(h, "r"), diff(hp if False else diff(h, "r"), "r")
        hp = diff(h, "r")
        hpp = diff(hp, "r")
        r = parse("r")
        want_ij = G.evaluate_components(
            (n - 3) * (1 + 2 * h) / r ** 2 + 2 * hp / r, b)
        want_pm = G.evaluate_components((n - 2) * hp / r + hpp, b)
        got_ij = G.evaluate_components(ric[2, 2], b)
        got_pm = G.evaluate_components(ric[0, 1], b)
        assert np.allclose(got_ij, want_ij, rtol=1e-9)
        assert np.allclose(got_pm, want_pm, rtol=1e-9)

    def test_rt_weyl_coframe_components(self):
        e = entry("rt5-quartic")
        n = 5
        p = pack("rt5-quartic")
        w = G.coframe_components(p.weyl, e.extras["coframe"])
        pts = points("rt5-quartic", 5)
        b = [e.metric.point_bindings(q) for q in pts]
        psi = G.evaluate_components(e.extras["psi"], b)
        c_pmpm = G.evaluate_components(w[0, 1, 0, 1], b)
        assert np.allclose(c_pmpm, (3 - n) * (n - 2) * psi, rtol=1e-8)
        c_mipk = G.evaluate_components(w[1, 2, 0, 2], b)
        assert np.allclose(c_mipk, (3 - n) * psi, rtol=1e-8)
        c_ijkl = G.evaluate_components(w[2, 3, 2, 3], b)
        assert np.allclose(c_ijkl, 2 * psi, rtol=1e-8)

    def test_dimension3_weyl_vanishes_identically(self):
        p = pack("constant-curvature3")
        assert all(c is ZERO or is_zero(c)
                   for c in p.weyl.comps.reshape(-1))

    def test_dimension3_conformally_flat_iff_cotton_zero(self):
        p = pack("constant-curvature3")
        assert all(c is ZERO or is_zero(c)
                   for c in p.cotton.comps.reshape(-1))


class TestIdentitySuite:
    @pytest.mark.parametrize("name", ["flat4", "constant-curvature3",
                                      "constant-curvature4",
                                      "schwarzschild4", "rt5-quartic",
                                      "pp-wave4", "hyperkahler4"])
    def test_all_identities_pass(self, name):
        rep = identity_suite(pack(name).samples(points(name, 10)))
        assert all(ok for (_, _, ok) in rep.values()), {
            k: v for k, v in rep.items() if not v[2]}

    def test_flat_residuals_exactly_zero(self):
        rep = identity_suite(pack("flat4").samples(points("flat4", 5)))
        for name, (mx, _, _) in rep.items():
            assert mx == 0.0, name

    def test_fault_injection_off_by_transpose_gamma(self):
        # corrupting the connection must blow up the divergence identity
        s = samples("rt5-quartic", 5)
        good = identity_residuals(s)
        corrupted = dict(s.values)
        corrupted["gamma"] = np.ascontiguousarray(
            np.swapaxes(s["gamma"], 1, 2))

        class FakeSamples:
            n = s.n
            points = s.points
            values = corrupted

            def __getitem__(self, k):
                return corrupted[k]

            def cov(self, name, variance):
                from confein.curvature import numeric_cov
                return numeric_cov(corrupted[name], corrupted["d" + name],
                                   variance, corrupted["gamma"])

        bad = identity_residuals(FakeSamples())
        assert np.max(bad["schouten-divergence"]) > 1e-3
        assert np.max(good["schouten-divergence"]) < 1e-10


class TestEinsteinDetector:
    @pytest.mark.parametrize("name", ["flat4", "constant-curvature3",
                                      "constant-curvature4",
                                      "schwarzschild4", "schwarzschild5",
                                      "schwarzschild-de-sitter4",
                                      "schwarzschild-de-sitter5",
                                      "hyperkahler4"])
    def test_einstein_metrics_have_trace_free_schouten(self, name):
        s = pack(name).samples(points(name, 8))
        res, scale = trace_free_residual(s["P"], s["g"], s["ginv"])
        assert res < 1e-8 * scale

    def test_rt_quartic_is_not_einstein(self):
        s = pack("rt5-quartic").samples(points("rt5-quartic", 8))
        res, scale = trace_free_residual(s["P"], s["g"], s["ginv"])
        assert res > 1e-3 * scale

    def test_pp_wave_harmonic_profile_is_ricci_flat(self):
        s = samples("pp-wave4-ricci-flat", 6)
        assert maxabs(s["ricci"]) < 1e-10

    def test_pp_wave_cubic_profile_ricci_component(self):
        # R_++ = -2 g^{ij} h_,ij with h = x1^2 - x2^2 + u x1^3 gives -12 u x1
        # in the null coframe; in coordinates (u first) the uu-component is
        # the same because theta^+ = du
        e = entry("pp-wave4")
        s = samples("pp-wave4", 6)
        u = np.array([p["u"] for p in s.points])
        x1 = np.array([p["x1"] for p in s.points])
        assert np.allclose(s["ricci"][:, 0, 0], -6 * u * x1, rtol=1e-9)


def transform_check(name, upsilon, count):
    """cotton_transform_check between the samples of a catalog metric g and
    of e^{2 upsilon} g at `count` of its points."""
    pts = points(name, count)
    ghat = G.conformal_rescale(entry(name).metric, upsilon)
    return cotton_transform_check(pack(name).samples(pts),
                                  CurvaturePack(ghat).samples(pts), upsilon)


class TestCottonTransform:
    def test_zero_factor_zero_residual(self):
        rep = transform_check("rt4-quartic", ZERO, 3)
        assert rep["cotton-transform"] < 1e-12
        assert rep["schouten-transform"] < 1e-12
        assert rep["weyl-invariance"] < 1e-12

    @pytest.mark.parametrize("ups", ["log(r)", "3*u/10"])
    def test_rt_transform_rules(self, ups):
        rep = transform_check("rt4-quartic", parse(ups), 5)
        scale = rep["scale"]
        assert rep["cotton-transform"] < 1e-8 * scale
        assert rep["schouten-transform"] < 1e-8 * scale
        assert rep["weyl-invariance"] < 1e-8 * scale

    def test_conformally_flat_stays_cotton_flat(self):
        rep = transform_check("constant-curvature4", parse("x1/3"), 4)
        assert rep["cotton-transform"] < 1e-10


class TestCommutator:
    @pytest.mark.parametrize("name", ["schwarzschild4", "rt5-quartic",
                                      "hyperkahler4"])
    def test_ricci_identity_on_random_vectors(self, name):
        g = entry(name).metric
        p = pack(name)
        n = g.dim
        rng = np.random.default_rng(5)
        pts = points(name, 4)
        b = [g.point_bindings(q) for q in pts]
        rm = G.evaluate_components(p.riemann_mixed.comps, b)
        for trial in range(5):
            coeffs = rng.integers(1, 5, size=(n, 2))
            v = G.tensor_from(
                g.chart, (G.UP,),
                lambda i: parse(f"{coeffs[i][0]}*{g.chart.coords[0]}"
                                f" + {coeffs[i][1]}*"
                                f"{g.chart.coords[1]}^2"))
            dv = G.covariant_derivative(v, g)
            ddv = G.covariant_derivative(dv, g)
            vals = G.evaluate_components(ddv.comps, b)
            comm = vals - np.transpose(vals, (0, 2, 1, 3))
            vv = G.evaluate_components(v.comps, b)
            want = np.einsum("pabcd,pd->pabc", rm, vv)
            scale = max(1.0, maxabs(want))
            assert maxabs(comm - want) / scale < 1e-8
