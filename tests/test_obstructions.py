import re
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confein import catalog, curvature, linalg, obstructions as OB, taylor
from confein.config import Tolerances
from confein.curvature import CurvaturePack
from confein.expressions import ZERO, diff, neg, parse
from confein.genericity import PolicyError, l_operators, weyl_operators
from confein.geometry import (
    DOWN,
    Chart,
    MetricField,
    TensorField,
    conformal_rescale,
    evaluate_components,
    sample_points,
)
from confein.tractor import rank_obstruction
from conftest import (
    entry,
    k_field_from_tensor,
    maxabs,
    pack,
    perturbed_flat_metric,
    points,
    samples,
)

TOL = Tolerances()


def _order_one_potential(pk, pts, policy, tol):
    """`reconstruct_potential`'s quadrature, with K the values of
    `k_field` on the nodes sampled with their first partials (order 1)."""
    x, w = np.polynomial.legendre.leggauss(8)
    fractions, w = 0.5 * (1.0 + x), 0.5 * w
    coords = pk.chart.coords
    a = np.array([pts[0][c] for c in coords])
    h = np.array([[t[c] for c in coords] for t in pts[1:]]) - a
    values = [0.0]
    for sl in curvature.point_chunks(8 * len(h), pk.n):
        segs = h[sl.start // 8:sl.stop // 8]
        nodes = [{**pts[0], **dict(zip(coords, map(float, a + t * hk)))}
                 for hk in segs for t in fractions]
        k = OB.k_field(pk.samples(nodes), policy, tol).lowered
        values.extend(float(w @ (k[lo:lo + 8] @ hk))
                      for lo, hk in zip(range(0, len(k), 8), segs))
    return np.asarray(values)


def rozw_k_field(name, s):
    """The closed-form C-space gradient of the family, wrapped as a KField."""
    e = entry(name)
    pot = e.extras["cspace_potential"]
    g = e.metric
    comps = np.asarray([diff(pot, c) for c in g.chart.coords], dtype=object)
    k = TensorField(g.chart, (DOWN,), comps)
    return k_field_from_tensor(k, s, provenance="closed-form")


class TestKField:
    def test_formk_matches_closed_form_gradient(self):
        s = samples("rt5-quartic", 8)
        kf = OB.k_field(s, "from-L")
        kr = rozw_k_field("rt5-quartic", s)
        assert maxabs(kf.lowered - kr.lowered) < 1e-7 * max(
            1, maxabs(kr.lowered))

    def test_uniqueness_across_policies(self):
        s = samples("rt5-quartic", 6)
        kl = OB.k_field(s, "from-L")
        kc = OB.k_field(s, "from-C")
        scale = max(1e-300, maxabs(kl.lowered))
        assert maxabs(kl.lowered - kc.lowered) < 1e-7 * scale

    def test_dim4_policy_agrees_too(self):
        s = samples("rt4-quartic", 6)
        kl = OB.k_field(s, "from-L")
        k3 = OB.k_field(s, "dim4-C3")
        scale = max(1e-300, maxabs(kl.lowered))
        assert maxabs(kl.lowered - k3.lowered) < 1e-7 * scale

    def test_closedness_of_gradient_k(self):
        s = samples("rt5-quartic", 6)
        kf = OB.k_field(s, "from-L")
        assert np.max(kf.closedness()) < 1e-10 * max(1, maxabs(kf.lowered))

    def test_einstein_scale_k_vanishes(self):
        # Schwarzschild: r^{-3} Psi^{-1} = 1/m constant, so K = 0
        s = samples("schwarzschild4", 6)
        kf = OB.k_field(s, "from-L")
        assert maxabs(kf.lowered) < 1e-9


class TestCSpaceAndBach:
    def test_rt_cspace_with_closed_form_k(self):
        s = samples("rt5-quartic", 10)
        r = OB.cspace_residual(s, rozw_k_field("rt5-quartic", s))
        assert r.max < 1e-8 * r.max_scale

    def test_zero_k_on_non_cotton_flat_metric_leaves_cotton(self):
        s = samples("rt5-quartic", 4)
        k0 = OB.KField(np.zeros_like(s["A"][:, :, 0, 0]),
                       np.zeros((len(s.points), s.n, s.n)), "zero")
        r = OB.cspace_residual(s, k0)
        assert maxabs(r.values - s["A"]) == 0.0
        assert r.max > 1e-3 * r.max_scale

    def test_bach_residual_vanishes_on_einstein_family(self):
        for name in ("schwarzschild4", "schwarzschild-de-sitter5"):
            s = samples(name, 6)
            kf = OB.k_field(s, "from-L")
            r = OB.bach_residual(s, kf)
            assert r.max < 1e-8 * r.max_scale, name

    def test_rt_quartic_fails_bach(self):
        s = samples("rt5-quartic", 8)
        r = OB.bach_residual(s, OB.k_field(s, "from-L"))
        assert r.max > 1e-3 * r.max_scale

    def test_dimension4_bach_residual_is_bach(self):
        s = samples("rt4-quartic", 4)
        r = OB.bach_residual(s, OB.k_field(s, "from-L"))
        assert maxabs(r.values - s["B"]) == 0.0

    def test_residual_is_symmetric(self):
        s = samples("rt5-quartic", 4)
        r = OB.bach_residual(s, OB.k_field(s, "from-L"))
        assert maxabs(r.values - np.transpose(r.values, (0, 2, 1))) \
            < 1e-9 * r.max_scale


class TestFSystem:
    def test_vanishes_on_einstein_family(self):
        for name in ("schwarzschild4", "schwarzschild-de-sitter5"):
            s = samples(name, 6)
            assert OB.f1(s).passes(TOL), name
            assert OB.f2(s).passes(TOL), name

    def test_rt_quartic_f1_zero_f2_large(self):
        s = samples("rt5-quartic", 8)
        r1, r2 = OB.f1(s), OB.f2(s)
        assert r1.passes(TOL)
        assert r2.max > 1e-3 * r2.max_scale

    def test_conformally_flat_trivially_zero_but_inconclusive(self):
        s = samples("constant-curvature4", 4)
        r1, r2 = OB.f1(s), OB.f2(s)
        assert r1.max < 1e-20 and r2.max < 1e-20
        rep = OB.conformal_einstein_tensor_verdict(
            pack("constant-curvature4").samples(
                points("constant-curvature4", 4)))
        assert rep.outcome == "inconclusive"

    def test_f2_equals_cleared_bach_residual(self):
        s = samples("rt5-quartic", 5)
        n = s.n
        kc = OB.k_field(s, "from-C")
        br = OB.bach_residual(s, kc)
        dets = weyl_operators(s)[1]
        ref = (n - 1) ** 2 * (dets ** 2)[:, None, None] * br.values
        r2 = OB.f2(s)
        assert maxabs(r2.values - ref) < 1e-9 * max(1, maxabs(ref))

    def test_f1_equals_cleared_cspace_residual(self):
        s = samples("rt4-quartic", 5)
        n = s.n
        kc = OB.k_field(s, "from-C")
        cr = OB.cspace_residual(s, kc)
        dets = weyl_operators(s)[1]
        ref = (1 - n) * dets[:, None, None, None] * cr.values
        r1 = OB.f1(s)
        # both sides vanish here (conformal C-space); compare the roundoff
        # against the invariant's own term scale
        assert maxabs(r1.values - ref) < 1e-9 * r1.max_scale

    def test_dimension3_rejected(self):
        with pytest.raises(ValueError):
            OB.f1(samples("constant-curvature3", 2))


class TestETensor:
    def test_vanishes_on_einstein_catalog(self):
        for name in ("schwarzschild4", "schwarzschild5",
                     "schwarzschild-de-sitter5", "hyperkahler4"):
            s = samples(name, 6)
            e = OB.e_tensor(s, OB.k_field(s, "from-L"))
            assert e.max < 1e-8 * e.max_scale, name

    def test_rt_quartic_nonzero_matches_oracle(self):
        # oracle: trace-free[P - nabla K + K x K] with the closed-form K
        s = samples("rt5-quartic", 8)
        e = OB.e_tensor(s, OB.k_field(s, "from-L"))
        assert e.max > 1e-3 * e.max_scale
        kr = rozw_k_field("rt5-quartic", s)
        covk = kr.d_lowered - np.einsum("pcab,pc->pab", s["gamma"],
                                        kr.lowered)
        core = s["P"] - covk + np.einsum("pa,pb->pab", kr.lowered,
                                         kr.lowered)
        tr = np.einsum("pab,pab->p", s["ginv"], core)
        oracle = core - s["g"] * (tr / s.n)[:, None, None]
        assert maxabs(e.values - oracle) < 1e-7 * max(1, maxabs(oracle))

    def test_trace_free(self):
        s = samples("rt5-quartic", 4)
        e = OB.e_tensor(s, OB.k_field(s, "from-L"))
        tr = np.einsum("pab,pab->p", s["ginv"], e.values)
        assert maxabs(tr) < 1e-10 * max(1, e.max_scale)

    def test_skew_part_of_core_is_k_closedness(self):
        s = samples("rt5-quartic", 4)
        kf = OB.k_field(s, "from-L")
        covk = kf.d_lowered - np.einsum("pcab,pc->pab", s["gamma"],
                                        kf.lowered)
        core = s["P"] - covk + np.einsum("pa,pb->pab", kf.lowered,
                                         kf.lowered)
        skew = 0.5 * (core - np.transpose(core, (0, 2, 1)))
        closed = kf.closedness()
        assert maxabs(np.max(np.abs(skew), axis=(1, 2)) - closed) < 1e-9

    def test_conformal_invariance_exact(self):
        e0 = entry("rt5-quartic")
        pts = points("rt5-quartic", 4)
        s = pack("rt5-quartic").samples(pts)
        for ups in (parse("log(r)"), parse("3*x1/10")):
            sh = CurvaturePack(conformal_rescale(e0.metric, ups)).samples(pts)
            e = OB.e_tensor(s, OB.k_field(s, "from-L"))
            eh = OB.e_tensor(sh, OB.k_field(sh, "from-L"))
            assert maxabs(e.values - eh.values) < 1e-7 * max(1, e.max_scale)


class TestGTensors:
    def test_g_display_equals_detl_squared_e(self):
        _, cross = OB.g_tensor(samples("rt5-quartic", 5))
        assert cross < 1e-7

    def test_gbar_display_equals_cleared_e(self):
        _, cross = OB.gbar_tensor(samples("rt5-quartic", 5))
        assert cross < 1e-7

    def test_vanish_on_einstein(self):
        s = samples("schwarzschild-de-sitter5", 5)
        rg, _ = OB.g_tensor(s)
        rgb, _ = OB.gbar_tensor(s)
        assert rg.passes(TOL) and rgb.passes(TOL)

    def test_rt_quartic_g_large(self):
        s = samples("rt5-quartic", 6)
        rg, _ = OB.g_tensor(s)
        assert rg.max > 1e-3 * rg.max_scale

    def test_dim4_invariant(self):
        s = samples("schwarzschild4", 5)
        r = OB.dim4_invariant(s)
        assert r.passes(TOL)
        s2 = samples("rt4-quartic", 5)
        r2 = OB.dim4_invariant(s2)
        assert r2.max > 1e-3 * r2.max_scale
        with pytest.raises(ValueError):
            OB.dim4_invariant(samples("rt5-quartic", 2))

    def test_trace_free(self):
        s = samples("rt5-quartic", 4)
        for r in (OB.g_tensor(s)[0], OB.gbar_tensor(s)[0]):
            tr = np.einsum("pab,pab->p", s["ginv"], r.values)
            assert maxabs(tr) < 1e-10 * max(1, r.max_scale)


def _weyl_square(s):
    """|C|^2 = L^a_a per point."""
    return np.trace(l_operators(s)[0], axis1=1, axis2=2)


# display name: (display, policy of K, the D it clears, the power of D,
# the residual of K it clears)
_CLEARED = {
    "F1": (OB.f1, "from-C", lambda s: (1 - s.n) * weyl_operators(s)[1], 1,
           OB.cspace_residual),
    "F2": (OB.f2, "from-C", lambda s: (1 - s.n) * weyl_operators(s)[1], 2,
           OB.bach_residual),
    "rl2-cotton": (lambda s: OB.cotton_rl2_invariant(s)["rl2-cotton"],
                   "from-L", lambda s: l_operators(s)[1], 1,
                   OB.cspace_residual),
    "G": (lambda s: OB.g_tensor(s, cross_check=False)[0], "from-L",
          lambda s: l_operators(s)[1], 2, OB.e_tensor),
    # in n = 4 the from-L K is -4 C_bcde A^cde / |C|^2
    "dim4-cotton": (lambda s: OB.cotton_rl2_invariant(s)["dim4-cotton"],
                    "from-L", _weyl_square, 1, OB.cspace_residual),
    "dim4": (OB.dim4_invariant, "from-L", _weyl_square, 2, OB.e_tensor),
}


class TestClearedDisplays:
    """Every display is D, or D^2, times the C-space, Bach or E residual of
    the K = Q / D it clears."""

    @pytest.mark.parametrize("display, name", [
        ("F1", "rt4-quartic"), ("F1", "rt5-quartic"),
        ("F2", "rt4-quartic"), ("F2", "rt5-quartic"),
        ("rl2-cotton", "rt5-quartic"), ("rl2-cotton", "rt6-quartic"),
        ("G", "rt5-quartic"), ("G", "rt6-quartic"),
        ("dim4-cotton", "rt4-quartic"), ("dim4", "rt4-quartic")])
    def test_display_is_a_cleared_residual(self, display, name):
        build, policy, det, power, residual = _CLEARED[display]
        s = samples(name, 5)
        r = build(s)
        ref = residual(s, OB.k_field(s, policy)).values
        ref = (det(s) ** power).reshape((-1,) + (1,) * (ref.ndim - 1)) * ref
        assert maxabs(r.values - ref) < 1e-9 * max(1, r.max_scale)

    def test_exact_zeros_at_a_singular_weyl_operator(self):
        s = samples("flat4", 4)
        with pytest.raises(np.linalg.LinAlgError):
            taylor.inverse(OB._weyl_jet(s, 1), s.n, 1)
        for r in (OB.f1(s), OB.f2(s), OB.dim4_invariant(s),
                  *OB.cotton_rl2_invariant(s).values()):
            assert not np.any(r.values), r.name


class TestCovariance:
    def _exponent(self, name, build, ups_text, pts_n=4):
        e0 = entry(name)
        pts = points(name, pts_n)
        s = pack(name).samples(pts)
        ups = parse(ups_text)
        sh = CurvaturePack(conformal_rescale(e0.metric, ups)).samples(pts)
        uvals = evaluate_components(ups, s.bindings)
        w, spread = OB.covariance_exponent(build(s), build(sh), uvals)
        return w, spread

    def test_g_exponent_matches_stated_weight(self):
        for name, n in (("rt4-quartic", 4), ("rt5-quartic", 5)):
            w, spread = self._exponent(
                name, lambda s: OB.g_tensor(s, cross_check=False)[0].values,
                "log(r)")
            assert spread < 1e-6
            assert w == pytest.approx(-8 * n, abs=1e-6)

    def test_gbar_exponent_matches_stated_weight(self):
        for name, n in (("rt4-quartic", 4), ("rt5-quartic", 5)):
            w, spread = self._exponent(
                name,
                lambda s: OB.gbar_tensor(s, cross_check=False)[0].values,
                "log(r)")
            assert spread < 1e-6
            assert w == pytest.approx(2 * n * (1 - n), abs=1e-6)

    def test_f1_exponent_on_non_cspace_metric(self):
        # F1 vanishes on conformal C-spaces, so measure it on a fully
        # generic perturbed metric where it is honestly nonzero
        g = perturbed_flat_metric(seed=3)
        pk = CurvaturePack(g)
        pts = sample_points(g.chart, n=3, seed=5)
        ups = parse("3*x1/10")
        s = pk.samples(pts)
        sh = CurvaturePack(conformal_rescale(g, ups)).samples(pts)
        assert OB.f1(s).max > 1e-3  # honestly nonzero
        uvals = evaluate_components(ups, s.bindings)
        w, spread = OB.covariance_exponent(OB.f1(s).values,
                                           OB.f1(sh).values, uvals)
        assert spread < 1e-6
        assert w == pytest.approx(-4 * 3, abs=1e-6)  # -n(n-1), n = 4

    def test_sign_flip_has_no_exponent(self):
        v = np.random.default_rng(0).uniform(0.5, 2.0, size=(3, 4))
        u = np.array([0.1, 0.2, 0.3])
        w, spread = OB.covariance_exponent(v, v * np.exp(2 * u)[:, None], u)
        assert w == pytest.approx(2.0) and spread < 1e-12
        w, spread = OB.covariance_exponent(v, -v * np.exp(2 * u)[:, None], u)
        assert np.isnan(w) and spread == np.inf

    def test_dim4_exponent(self):
        w, spread = self._exponent(
            "rt4-quartic", lambda s: OB.dim4_invariant(s).values,
            "3*u/10")
        assert spread < 1e-6
        assert w == pytest.approx(-8, abs=1e-6)


class TestVerdicts:
    def test_schwarzschild_de_sitter_family_is_einstein(self):
        for name in ("schwarzschild4", "schwarzschild5",
                     "schwarzschild-de-sitter4", "schwarzschild-de-sitter5"):
            rep = OB.conformal_einstein_tensor_verdict(
                pack(name).samples(points(name, 6)))
            assert rep.outcome == "conformally-einstein", name
            assert rep.k_closedness < 1e-8

    def test_rt_quartic_not_conformally_einstein(self):
        rep = OB.conformal_einstein_tensor_verdict(
            pack("rt5-quartic").samples(points("rt5-quartic", 8)))
        assert rep.outcome == "not"
        assert rep.residuals["cspace"].passes(TOL)
        assert rep.residuals["bach"].max > 1e-3
        assert rep.verdicts[0].theorem == OB.THEOREM_IDS["E"]

    def test_sphere_inconclusive_with_cotton_note(self):
        rep = OB.conformal_einstein_tensor_verdict(
            pack("constant-curvature4").samples(
                points("constant-curvature4", 4)))
        assert rep.outcome == "inconclusive"
        assert rep.genericity is not None
        assert not rep.genericity.weakly_generic
        assert any("|A|" in note for note in rep.notes)

    def test_dimension3_flat_verdict(self):
        rep = OB.conformal_einstein_tensor_verdict(
            pack("constant-curvature3").samples(
                points("constant-curvature3", 4)))
        assert rep.outcome == "conformally-einstein"
        assert rep.verdicts[0].theorem == OB.THEOREM_IDS["cotton3"]

    def test_pp_wave_inconclusive(self):
        rep = OB.conformal_einstein_tensor_verdict(
            pack("pp-wave4").samples(points("pp-wave4", 5)))
        assert rep.outcome == "inconclusive"

    def test_potential_reconstruction_recovers_conformal_factor(self):
        # rescale an Einstein metric; the reconstructed potential must be
        # minus the factor, up to the base-point constant
        e0 = entry("schwarzschild-de-sitter5")
        ups = parse("log(r)")
        ghat = conformal_rescale(e0.metric, ups)
        pts = points("schwarzschild-de-sitter5", 5)
        pk = CurvaturePack(ghat)
        rep = OB.conformal_einstein_tensor_verdict(pk.samples(pts))
        assert rep.outcome == "conformally-einstein"
        uvals = evaluate_components(ups, pk.samples(pts).bindings)
        want = -(uvals - uvals[0])
        assert maxabs(rep.potential - want) < 1e-6

    def test_potential_is_exact_for_a_polynomial_factor(self):
        # K = -d(upsilon) is a polynomial of degree <= 5 along each straight
        # segment, which the 8-node Gauss-Legendre rule integrates exactly
        e0 = entry("schwarzschild4")
        ups = parse("(r/3)^6 + x1^3/5 - u*r/7")
        pk = CurvaturePack(conformal_rescale(e0.metric, ups))
        pts = points("schwarzschild4", 5)
        rep = OB.conformal_einstein_tensor_verdict(pk.samples(pts))
        assert rep.outcome == "conformally-einstein"
        uvals = evaluate_components(ups, pk.samples(pts).bindings)
        assert maxabs(rep.potential + (uvals - uvals[0])) < 1e-12

    def test_potential_samples_eight_nodes_per_target(self, monkeypatch):
        pk, sizes = pack("schwarzschild4"), []
        samples_of = pk.samples

        def counting(pts, *args, **kwargs):
            sizes.append(len(pts))
            return samples_of(pts, *args, **kwargs)

        monkeypatch.setattr(pk, "samples", counting)
        pot = OB.reconstruct_potential(pk, points("schwarzschild4", 4))
        # the nodes of all three targets in one chunk, one ladder call
        assert sizes == [24]
        assert pot.shape == (4,) and pot[0] == 0.0
        sizes.clear()
        pot = OB.reconstruct_potential(pk, points("schwarzschild4", 1))
        assert sizes == [] and pot.tolist() == [0.0]

    @pytest.mark.parametrize("name", [
        "schwarzschild4", "schwarzschild5", "schwarzschild-de-sitter5",
        "schwarzschild-de-sitter5 rescaled", "hyperkahler4"])
    def test_potential_is_the_order_one_route(self, name):
        # the values-only nodes give bitwise the potential of K from
        # `k_field` on samples of order 1, through the same quadrature, and
        # the same note where a policy's gate fails at a node
        base = name.split()[0]
        pk, pts = pack(base), points(base, 10)
        if name.endswith(" rescaled"):
            pk = CurvaturePack(conformal_rescale(entry(base).metric,
                                                 parse("log(r)")))

        def outcome(route, policy):
            try:
                return route(pk, pts, policy, TOL).tobytes()
            except PolicyError as exc:
                return str(exc)

        passed = []
        for policy in OB.POLICIES:
            got = outcome(OB.reconstruct_potential, policy)
            assert got == outcome(_order_one_potential, policy), policy
            if isinstance(got, bytes):
                passed.append(policy)
        assert "from-L" in passed

    @pytest.mark.parametrize("name", ["schwarzschild4", "schwarzschild5"])
    def test_chunks_do_not_change_the_potential(self, monkeypatch, name):
        pk, pts = pack(name), points(name, 10)
        one = OB.reconstruct_potential(pk, pts)
        assert len(curvature.point_chunks(8 * 9, pk.n)) == 1
        # the smallest budget: 32 nodes, 4 targets, per chunk (3 chunks)
        monkeypatch.setattr(curvature, "CHUNK_BYTES", 1)
        assert len(curvature.point_chunks(8 * 9, pk.n)) == 3
        many = OB.reconstruct_potential(pk, pts)
        assert many.tobytes() == one.tobytes()

    def test_policy_failure_in_a_later_chunk_names_the_first_node(
            self, monkeypatch):
        pk, pts = pack("schwarzschild4"), points("schwarzschild4", 10)
        coords = pk.chart.coords
        x = np.polynomial.legendre.leggauss(8)[0]
        a = np.array([pts[0][c] for c in coords])

        def node(target, i):
            """The i-th quadrature node of the segment to pts[target]."""
            h = np.array([pts[target][c] for c in coords]) - a
            return dict(zip(coords, map(float, a + 0.5 * (1.0 + x[i]) * h)))

        # targets 4-7 (pts[5:9]) are the second chunk of 32 nodes; of the
        # two failing nodes there, the one of the earlier segment is met
        # first, whatever the chunks
        bad = [node(7, 1), node(6, 5)]
        real = OB.weyl_vanishes

        def vanishes(s, tol):
            return real(s, tol) | np.array([p in bad for p in s.points])

        monkeypatch.setattr(OB, "weyl_vanishes", vanishes)
        messages = []
        for budget in (curvature.CHUNK_BYTES, 1):
            monkeypatch.setattr(curvature, "CHUNK_BYTES", budget)
            with pytest.raises(PolicyError) as exc:
                OB.reconstruct_potential(pk, pts)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert f"at point {node(6, 5)} " in messages[0]

    @pytest.mark.parametrize("exc, propagates", [
        (TypeError("internal fault"), True),
        (PolicyError("singular integration path"), False)])
    def test_potential_failure_is_a_note_only_when_arithmetic(
            self, monkeypatch, exc, propagates):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(OB, "reconstruct_potential", fail)
        verdict = lambda: OB.conformal_einstein_tensor_verdict(
            pack("schwarzschild4").samples(points("schwarzschild4", 3)))
        if propagates:
            with pytest.raises(TypeError):
                verdict()
            return
        rep = verdict()
        assert rep.outcome == "conformally-einstein"
        assert rep.potential is None
        assert any("potential reconstruction failed" in note
                   for note in rep.notes)


class TestCottonScale:
    def test_rt_is_conformal_c_space(self):
        rep = OB.cotton_scale_verdict(
            pack("rt5-quartic").samples(points("rt5-quartic", 6)))
        assert rep.verdicts[0].outcome == "cotton-scale-exists"

    def test_einstein_metrics_are_c_spaces(self):
        rep = OB.cotton_scale_verdict(
            pack("schwarzschild4").samples(points("schwarzschild4", 5)))
        assert rep.verdicts[0].outcome == "cotton-scale-exists"

    def test_perturbed_metric_is_not_a_c_space(self):
        g = perturbed_flat_metric(seed=3)
        pk = CurvaturePack(g)
        pts = sample_points(g.chart, n=4, seed=6)
        rep = OB.cotton_scale_verdict(pk.samples(pts))
        assert rep.verdicts[0].outcome == "not"
        # cross-validate with a second, independent left inverse
        s = pk.samples(pts)
        k2 = OB.k_field(s, "from-C")
        r2 = OB.cspace_residual(s, k2)
        assert r2.max > 1e-3 * r2.max_scale

    def test_report_outcome_is_cotton_scale_exists(self):
        rep = OB.cotton_scale_verdict(
            pack("rt5-quartic").samples(points("rt5-quartic", 4)))
        assert rep.outcome == "cotton-scale-exists"

    def test_chunked_run_equals_one_chunk(self):
        pk, pts = pack("rt5-quartic"), points("rt5-quartic", 6)
        parts = [pts[:2], pts[2:]]
        ms = OB.measure_tensor_verdict(lambda i: pk.samples(parts[i]), 2,
                                       "from-L")
        rep = OB.decide_cotton_verdict(ms, pk, "from-L")
        one = OB.cotton_scale_verdict(pk.samples(pts))
        assert rep.points == one.points == pts
        assert rep.outcome == one.outcome == "cotton-scale-exists"
        assert rep.verdicts == one.verdicts
        assert rep.verdicts[0].theorem == OB.THEOREM_IDS["cspace"]
        assert (rep.k_provenance, rep.k_closedness, rep.notes) == \
            (one.k_provenance, one.k_closedness, one.notes)
        assert np.array_equal(rep.residuals["cspace"].per_point,
                              one.residuals["cspace"].per_point)

    def test_failed_policy_is_inconclusive_with_its_gate_note(self):
        pts = points("hyperkahler4", 6)
        rep = OB.cotton_scale_verdict(pack("hyperkahler4").samples(pts),
                                      "from-C")
        v = rep.verdicts[0]
        assert (v.theorem, v.outcome, v.precondition) == (
            "conformal-c-space", "inconclusive", "left inverse unavailable")
        assert v.detail == \
            f"policy from-C: ||C|| = 3.756e-50 vanishes at point {pts[0]}"
        assert rep.notes == [v.detail] and rep.k_provenance is None

    def test_vanishing_weyl_tensor_decides_on_the_cotton_tensor(self):
        # where C = 0 the C-space equation A + K.C = 0 reads A = 0
        pts = points("flat4", 6)
        rep = OB.cotton_scale_verdict(pack("flat4").samples(pts))
        v = rep.verdicts[0]
        assert (v.theorem, v.outcome) == ("conformal-c-space",
                                          "cotton-scale-exists")
        assert v.detail == "max |A| = 0.000e+00"
        assert rep.notes == [
            "policy from-L: the Weyl tensor vanishes numerically at point "
            f"{pts[0]} (max |C| = 0.000e+00)"]

    def test_perturbed_metric_detail(self):
        g = perturbed_flat_metric(seed=3)
        rep = OB.cotton_scale_verdict(CurvaturePack(g).samples(
            sample_points(g.chart, n=4, seed=6)))
        v = rep.verdicts[0]
        assert (v.theorem, v.outcome) == ("conformal-c-space", "not")
        assert v.detail == "cspace max = 3.818e+02, closedness = 8.719e+02"

    def test_dimension3_decides_on_the_cotton_tensor(self):
        rep = OB.cotton_scale_verdict(
            pack("constant-curvature3").samples(
                points("constant-curvature3", 6)))
        assert rep.outcome == "cotton-scale-exists"
        assert rep.verdicts[0].detail.startswith("max |A| = ")

    def test_rl2_invariant_vanishes_on_c_space(self):
        s = samples("rt5-quartic", 5)
        res = OB.cotton_rl2_invariant(s)
        r = res["rl2-cotton"]
        assert r.max < 1e-7 * r.max_scale

    def test_dim4_cotton_variant(self):
        s = samples("rt4-quartic", 5)
        res = OB.cotton_rl2_invariant(s)
        assert "dim4-cotton" in res
        r = res["dim4-cotton"]
        assert r.max < 1e-7 * r.max_scale


_N4PLUS = tuple(name for name in catalog.entry_names()
                if entry(name).metric.dim >= 4)


@st.composite
def rescaled_entries(draw):
    """(entry name, polynomial upsilon of degree <= 2 in its coordinates
    with coefficients in [-0.3, 0.3], two distinct point seeds in 0-5, a
    permutation of the coordinates)."""
    name = draw(st.sampled_from(_N4PLUS))
    coords = entry(name).metric.chart.coords
    monomials = [()] + list(combinations_with_replacement(coords, 1)) \
        + list(combinations_with_replacement(coords, 2))
    terms = [f"{draw(st.integers(-300, 300))}/1000" + "".join(
        f"*{c}" for c in m) for m in monomials]
    seeds = draw(st.lists(st.integers(0, 5), min_size=2, max_size=2,
                          unique=True))
    perm = draw(st.permutations(range(len(coords))))
    return name, " + ".join(terms), seeds, perm


def _permuted(g, perm):
    """The metric g with its coordinates reordered: coordinate a of the new
    chart is coordinate perm[a] of g's."""
    ch = Chart(tuple(g.chart.coords[a] for a in perm), g.chart.singular_loci)
    return MetricField(ch, g.comps[np.ix_(perm, perm)], params=g.params,
                       sample_box=g.sample_box, name=g.name)


def _flags(rep):
    gen = rep.genericity
    return ((gen.weakly_generic, gen.lambda2_generic, gen.generic),
            [(pg.weakly_generic, pg.lambda2_generic, pg.generic)
             for pg in gen.per_point])


class TestVerdictInvariance:
    """The tensor verdict, its genericity flags and the weight-0 E tensor
    do not change under a conformal rescaling g -> e^(2 upsilon) g, nor
    with the tractor ranks under a permutation of the coordinates, and the
    verdict and flags not under the choice of sample seed."""

    @given(rescaled_entries())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_rescaling_and_seed(self, case):
        name, ups, (seed, other), _ = case
        g = entry(name).metric
        pts = points(name, 4, seed)
        s = pack(name).samples(pts)
        sh = CurvaturePack(conformal_rescale(g, parse(ups))).samples(pts)
        rep = OB.conformal_einstein_tensor_verdict(s)
        reph = OB.conformal_einstein_tensor_verdict(sh)
        assert reph.outcome == rep.outcome
        assert OB.cotton_scale_verdict(sh).outcome == \
            OB.cotton_scale_verdict(s).outcome
        assert _flags(reph) == _flags(rep)
        assert ("E" in reph.residuals) == ("E" in rep.residuals)
        if "E" in rep.residuals:
            e, eh = rep.residuals["E"], reph.residuals["E"]
            assert maxabs(eh.values - e.values) < 1e-7 * max(1.0,
                                                              e.max_scale)
        repo = OB.conformal_einstein_tensor_verdict(
            pack(name).samples(points(name, 4, other)))
        assert repo.outcome == rep.outcome
        assert _flags(repo)[0] == _flags(rep)[0]

    @given(rescaled_entries())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_coordinate_permutation(self, case):
        name, _, (seed, _), perm = case
        pts = points(name, 4, seed)
        s = pack(name).samples(pts)
        sp = CurvaturePack(_permuted(entry(name).metric, perm)).samples(pts)
        rep = OB.conformal_einstein_tensor_verdict(s)
        repp = OB.conformal_einstein_tensor_verdict(sp)
        assert repp.outcome == rep.outcome
        assert _flags(repp) == _flags(rep)
        assert rank_obstruction(sp, genericity=repp.genericity).ranks \
            == rank_obstruction(s, genericity=rep.genericity).ranks
        assert ("E" in repp.residuals) == ("E" in rep.residuals)
        if "E" in rep.residuals:
            e, ep = rep.residuals["E"], repp.residuals["E"]
            want = e.values[:, perm][:, :, perm]
            assert maxabs(ep.values - want) < 1e-7 * max(1.0, e.max_scale)


class TestKOracle:
    """K contracted before it is differentiated, against the full left
    inverse jet Dt^acde contracted with A afterwards."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name, policy", [
        ("rt4-quartic", "from-L"), ("rt5-quartic", "from-L"),
        ("rt6-quartic", "from-L"), ("rt5-quartic", "from-C"),
        ("rt4-quartic", "dim4-C3")])
    def test_k_field_matches_full_dual_jet(self, name, policy, seed):
        s = samples(name, 8, seed)
        kup = taylor.product("fabc,abc->f", OB.dual_candidate_jet(s, policy),
                             s.jet("A"), s.n, 1)
        oracle = taylor.product("ab,b->a", s.jet("g"), kup, s.n, 1)
        val, d = oracle[:, 0], oracle[:, 1:]
        k = OB.k_field(s, policy)
        assert k.provenance == policy
        assert maxabs(k.lowered - val) < 1e-10 * max(1, maxabs(val))
        assert maxabs(k.d_lowered - d) < 1e-10 * max(1, maxabs(d))
        closed = OB.KField(val, d, policy).closedness()
        assert maxabs(k.closedness() - closed) < 1e-10 * max(1, maxabs(d))


def _whole_w_jet(s):
    """w_b = C_bcde A^cde built on the whole batch in one piece: the
    oracle of the sliced `_w_jet`."""
    n = s.n
    a, gi = s.jet("A"), s.jet("ginv")
    for spec in ("xde,xc->cde", "cxe,xd->cde", "cdx,xe->cde"):
        a = taylor.product(spec, a, gi, n, 1)
    i, j = curvature.pair_basis(n)
    return curvature.PAIR_SUM * taylor.product(
        "bck,ck->b", curvature._pair_rows(s.jet("C")), a[..., i, j], n, 1)


def _whole_l_jet(s):
    """L^a_b = C^acde C_bcde built on the whole batch in one piece: the
    oracle of the sliced `_l_jet`."""
    n = s.n
    up = taylor.product("ij,jk->ik", s.pair_metric(), OB._mixed_jet(s), n, 1)
    out = curvature.PAIR_SUM * taylor.product(
        "ack,bck->ab", curvature._pair_rows(up),
        curvature._pair_rows(s.jet("C")), n, 1)
    out[:, 0] = l_operators(s)[0]
    return out


def _layout(a):
    """The strides of the axes of a longer than 1."""
    return [st for st, size in zip(a.strides, a.shape) if size > 1]


class TestSlicedKJets:
    """`_w_jet` and `_l_jet` are written one point slice at a time; they
    keep every bit, and the memory layout, of the jets built in one
    piece."""

    @pytest.mark.parametrize("budget", [linalg.CHUNK_BYTES, 1])
    @pytest.mark.parametrize("count", [1, 41])
    @pytest.mark.parametrize("name", ["rt6-quartic", "rt5-quartic",
                                      "schwarzschild4", "hyperkahler4"])
    def test_jets_match_the_one_piece_products(self, monkeypatch, name,
                                               count, budget):
        # fresh samples: the jets are cached on them.  The default budget
        # takes 17 rt6-quartic points to a slice, so 41 points take 3
        # slices, the last one short; a budget of 1 gives one point each
        s = pack(name).samples(points(name, count))
        monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)
        for got, want in ((OB._w_jet(s), _whole_w_jet(s)),
                          (OB._l_jet(s, 1), _whole_l_jet(s))):
            assert np.array_equal(got, want)
            # the same memory order (a 1-long axis has no stride to keep)
            assert _layout(got) == _layout(want)

    @pytest.mark.parametrize("budget", [linalg.CHUNK_BYTES, 1])
    def test_k_field_keeps_every_bit(self, monkeypatch, budget):
        whole = OB.k_field(samples("rt6-quartic", 41), "from-L")
        monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)
        s = pack("rt6-quartic").samples(points("rt6-quartic", 41))
        sliced = OB.k_field(s, "from-L")
        assert np.array_equal(sliced.lowered, whole.lowered)
        assert np.array_equal(sliced.d_lowered, whole.d_lowered)


class TestPolicyErrors:
    def test_pp_wave_policies_fail_with_point(self):
        s = samples("pp-wave4", 3)
        for build in (lambda: OB.k_field(s, "from-L"),
                      lambda: OB.dual_candidate_jet(s, "from-L")):
            with pytest.raises(PolicyError) as exc:
                build()
            assert "point" in str(exc.value)

    def test_dim4_policy_needs_dimension4(self):
        s = samples("rt5-quartic", 2)
        with pytest.raises(PolicyError):
            OB.k_field(s, "dim4-C3")
        with pytest.raises(PolicyError):
            OB.dual_candidate_jet(s, "dim4-C3")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            OB.k_field(samples("rt5-quartic", 2), "from-X")

    @pytest.mark.parametrize("call, accepted", [
        (OB.k_field, OB.POLICIES),
        (lambda s, p: OB.conformal_einstein_tensor_verdict(s, p),
         OB.POLICIES + ("auto",)),
        (OB.dual_candidate_jet, OB.POLICIES)],
        ids=["k_field", "tensor-verdict", "dual_candidate_jet"])
    def test_unknown_policy_lists_what_the_caller_accepts(self, call,
                                                          accepted):
        s = samples("rt5-quartic", 2)
        bad = "from-X" if "user" in accepted else "user"
        with pytest.raises(ValueError, match=re.escape(
                f"unknown policy {bad!r}; expected one of {accepted}")):
            call(s, bad)

    @pytest.mark.parametrize("name, wording", [
        ("pp-wave4", ("||L|| = ", "||C|| = ", "C^3 = ")),
        ("constant-curvature4", ("the Weyl tensor vanishes numerically",) * 3),
        ("flat4", ("the Weyl tensor vanishes numerically",) * 3)])
    def test_auto_notes_every_policy_in_order(self, name, wording):
        pts = points(name, 5)
        rep = OB.conformal_einstein_tensor_verdict(pack(name).samples(pts))
        assert rep.k_provenance is None
        assert rep.outcome == "inconclusive"
        for note, policy, words in zip(rep.notes, OB.POLICIES, wording):
            assert note.startswith(f"policy {policy}: {words}"), note
            assert f"at point {pts[0]}" in note, note
        assert [n.split(":")[0] for n in rep.notes[:3]] == \
            [f"policy {p}" for p in OB.POLICIES]


@pytest.mark.parametrize("tensor, rank", [
    (t, r) for t in ("conformally-einstein", "not", "inconclusive", "conflict")
    for r in ("conformally-einstein", "not", "inconclusive")])
def test_joined_outcome_of_the_tensor_and_rank_routes(tensor, rank):
    # "conflict" wins, "conformally-einstein" with "not" is a conflict, and
    # otherwise a decided outcome beats "inconclusive"
    decided = {"conformally-einstein", "not"}
    if tensor == "conflict" or {tensor, rank} == decided:
        want = "conflict"
    elif tensor in decided:
        want = tensor
    elif rank in decided:
        want = rank
    else:
        want = "inconclusive"
    assert OB.joined_outcome((tensor, rank)) == want
