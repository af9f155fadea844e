import numpy as np
import pytest

from confein import catalog
from confein import obstructions as OB
from confein import tractor as TR
from confein.config import Tolerances
from confein.curvature import trace_free_residual, unpack_pairs
from confein.expressions import ONE, diff, is_zero, parse
from confein.genericity import classify_genericity
from confein.geometry import evaluate_components
from conftest import entry, k_field_from_tensor, maxabs, pack, points, samples

TOL = Tolerances()


class TestConstruction:
    def test_every_entry_builds_and_samples(self):
        for name in catalog.entry_names():
            e = catalog.get_entry(name)
            pts = e.points(3, seed=1)
            assert len(pts) == 3
            pack(name).samples(pts)  # raises where g is degenerate
            assert all(prov for (_, prov) in e.expected.values())

    def test_rt_requires_dimension_and_kappa(self):
        with pytest.raises(ValueError):
            catalog.robinson_trautman(3, 1, parse("r^4"))
        with pytest.raises(ValueError):
            catalog.robinson_trautman(4, 2, parse("r^4"))

    def test_schwarzschild_profile_matches_quartic_display(self):
        # n=4, kappa=1, m=1, lam=0: h = -1/2 + 1/r and the curvature
        # profile is 1/r^3
        e = entry("schwarzschild4")
        # the parameter L stays symbolic and is bound to 0 at evaluation
        assert is_zero(e.extras["h"] - parse("-1/2 + m/r + L*r^2/6"))
        assert e.metric.params == {"m": 1.0, "L": 0.0}
        psi = e.extras["psi"]
        pts = points("schwarzschild4", 4)
        b = [e.metric.point_bindings(p) for p in pts]
        got = evaluate_components(psi, b)
        want = evaluate_components(parse("m/r^3"), b)
        assert np.allclose(got, want, rtol=1e-12)

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError) as exc:
            catalog.get_entry("nonsense")
        assert "flat4" in str(exc.value)


class TestExpectedTruths:
    @pytest.mark.parametrize("name", catalog.entry_names())
    def test_einstein_flag(self, name):
        e = entry(name)
        if "einstein" not in e.expected:
            return
        s = pack(name).samples(points(name, 6))
        res, scale = trace_free_residual(s["P"], s["g"], s["ginv"])
        if e.expect("einstein"):
            assert res < 1e-8 * scale, name
        else:
            assert res > 1e-3 * scale, name

    @pytest.mark.parametrize("name", catalog.entry_names())
    def test_genericity_flags(self, name):
        e = entry(name)
        keys = {"weakly_generic", "lambda2_generic", "generic"}
        if not keys & set(e.expected):
            return
        rep = classify_genericity(samples(name, 6))
        for key in keys & set(e.expected):
            got = getattr(rep, key)
            assert got == e.expect(key), (name, key)

    @pytest.mark.parametrize("name", ["schwarzschild4", "schwarzschild5",
                                      "schwarzschild-de-sitter4",
                                      "schwarzschild-de-sitter5",
                                      "rt4-quartic", "rt5-quartic",
                                      "hyperkahler4"])
    def test_conformally_einstein_flag(self, name):
        e = entry(name)
        rep = OB.conformal_einstein_tensor_verdict(
            pack(name).samples(points(name, 6)))
        want = "conformally-einstein" if e.expect("conformally_einstein") \
            else "not"
        assert rep.outcome == want, name

    @pytest.mark.parametrize("name", ["schwarzschild4", "rt5-quartic",
                                      "schwarzschild-de-sitter5"])
    def test_cspace_flag(self, name):
        e = entry(name)
        rep = OB.cotton_scale_verdict(pack(name).samples(points(name, 6)))
        if e.expect("cspace"):
            assert rep.verdicts[0].outcome == "cotton-scale-exists", name

    def test_hyperkahler_weyl_norm(self):
        e = entry("hyperkahler4")
        s = samples("hyperkahler4", 5)
        call = unpack_pairs(s.raised("C", (1, 1, 1, 1)))
        c2 = np.einsum("pabcd,pabcd->p", call, unpack_pairs(s["C"]))
        want = evaluate_components(e.extras["weyl_norm_squared"], s.bindings)
        assert np.allclose(c2, want, rtol=1e-8)
        # at rho = 2 the value is exactly 3
        pt = {"x1": 1.0, "y1": 0.5, "x2": 0.0, "y2": 0.0}
        s1 = pack("hyperkahler4").samples([pt])
        call1 = unpack_pairs(s1.raised("C", (1, 1, 1, 1)))
        v = float(np.einsum("pabcd,pabcd->p", call1, unpack_pairs(s1["C"]))[0])
        assert v == pytest.approx(3.0, rel=1e-10)

    def test_pp_wave_einstein_iff_harmonic(self):
        assert entry("pp-wave4-ricci-flat").expect("einstein") is True
        assert entry("pp-wave4").expect("einstein") is False
        # non-harmonic cubic keeps a uu Ricci component
        s = samples("pp-wave4", 4)
        assert maxabs(s["ricci"]) > 1e-3

    def test_rt_cspace_potential_gradient_solves_c_space(self):
        for name in ("rt4-quartic", "rt5-quartic"):
            e = entry(name)
            s = samples(name, 6)
            pot = e.extras["cspace_potential"]
            comps = np.asarray([diff(pot, c) for c in e.metric.chart.coords],
                               dtype=object)
            from confein.geometry import DOWN, TensorField
            kf = k_field_from_tensor(
                TensorField(e.metric.chart, (DOWN,), comps), s)
            r = OB.cspace_residual(s, kf)
            assert r.max < 1e-8 * r.max_scale, name

    def test_rank_and_tensor_pipelines_agree_on_catalog(self):
        for name in ("flat4", "constant-curvature4", "schwarzschild4",
                     "schwarzschild-de-sitter5", "rt4-quartic",
                     "rt5-quartic", "pp-wave4", "hyperkahler4"):
            pts = points(name, 5)
            t = OB.conformal_einstein_tensor_verdict(pack(name).samples(pts))
            r = TR.rank_obstruction(pack(name).samples(pts),
                                    genericity=t.genericity)
            decided = {"conformally-einstein", "not"}
            if t.outcome in decided and r.verdict in decided:
                assert t.outcome == r.verdict, name
