from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confein import catalog, obstructions as OB, taylor
from confein.config import Tolerances
from confein.curvature import CurvaturePack
from confein.expressions import ZERO, diff, neg, parse
from confein.genericity import PolicyError
from confein.geometry import (
    DOWN,
    TensorField,
    conformal_rescale,
    evaluate_components,
    sample_points,
)
from conftest import entry, maxabs, pack, perturbed_flat_metric, points, samples

TOL = Tolerances()


def rozw_k_field(name, s):
    """The closed-form C-space gradient of the family, wrapped as a KField."""
    e = entry(name)
    pot = e.extras["cspace_potential"]
    g = e.metric
    comps = np.asarray([diff(pot, c) for c in g.chart.coords], dtype=object)
    k = TensorField(g.chart, (DOWN,), comps)
    return OB.k_field_from_tensor(k, s, provenance="closed-form")


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
            pack("constant-curvature4"), points("constant-curvature4", 4))
        assert rep.outcome == "inconclusive"

    def test_f2_equals_cleared_bach_residual(self):
        s = samples("rt5-quartic", 5)
        n = s.n
        kc = OB.k_field(s, "from-C")
        br = OB.bach_residual(s, kc)
        dets, _ = OB._weyl_adjugate_raised(s)
        ref = (n - 1) ** 2 * (dets ** 2)[:, None, None] * br.values
        r2 = OB.f2(s)
        assert maxabs(r2.values - ref) < 1e-9 * max(1, maxabs(ref))

    def test_f1_equals_cleared_cspace_residual(self):
        s = samples("rt4-quartic", 5)
        n = s.n
        kc = OB.k_field(s, "from-C")
        cr = OB.cspace_residual(s, kc)
        dets, _ = OB._weyl_adjugate_raised(s)
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
            rep = OB.conformal_einstein_tensor_verdict(pack(name),
                                                       points(name, 6))
            assert rep.outcome == "conformally-einstein", name
            assert rep.k_closedness < 1e-8

    def test_rt_quartic_not_conformally_einstein(self):
        rep = OB.conformal_einstein_tensor_verdict(pack("rt5-quartic"),
                                                   points("rt5-quartic", 8))
        assert rep.outcome == "not"
        assert rep.residuals["cspace"].passes(TOL)
        assert rep.residuals["bach"].max > 1e-3
        assert rep.verdicts[0].theorem == OB.THEOREM_IDS["E"]

    def test_sphere_inconclusive_with_cotton_note(self):
        rep = OB.conformal_einstein_tensor_verdict(
            pack("constant-curvature4"), points("constant-curvature4", 4))
        assert rep.outcome == "inconclusive"
        assert rep.genericity is not None
        assert not rep.genericity.weakly_generic
        assert any("|A|" in note for note in rep.notes)

    def test_dimension3_flat_verdict(self):
        rep = OB.conformal_einstein_tensor_verdict(
            pack("constant-curvature3"), points("constant-curvature3", 4))
        assert rep.outcome == "conformally-einstein"
        assert rep.verdicts[0].theorem == OB.THEOREM_IDS["cotton3"]

    def test_pp_wave_inconclusive(self):
        rep = OB.conformal_einstein_tensor_verdict(pack("pp-wave4"),
                                                   points("pp-wave4", 5))
        assert rep.outcome == "inconclusive"

    def test_potential_reconstruction_recovers_conformal_factor(self):
        # rescale an Einstein metric; the reconstructed potential must be
        # minus the factor, up to the base-point constant
        e0 = entry("schwarzschild-de-sitter5")
        ups = parse("log(r)")
        ghat = conformal_rescale(e0.metric, ups)
        pts = points("schwarzschild-de-sitter5", 5)
        pk = CurvaturePack(ghat)
        rep = OB.conformal_einstein_tensor_verdict(pk, pts)
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
        rep = OB.conformal_einstein_tensor_verdict(pk, pts)
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
        assert sizes == [8, 8, 8]
        assert pot.shape == (4,) and pot[0] == 0.0

    @pytest.mark.parametrize("exc, propagates", [
        (TypeError("internal fault"), True),
        (PolicyError("singular integration path"), False)])
    def test_potential_failure_is_a_note_only_when_arithmetic(
            self, monkeypatch, exc, propagates):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(OB, "reconstruct_potential", fail)
        verdict = lambda: OB.conformal_einstein_tensor_verdict(
            pack("schwarzschild4"), points("schwarzschild4", 3))
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
        rep = OB.cotton_scale_verdict(pack("rt5-quartic"),
                                      points("rt5-quartic", 6))
        assert rep.verdicts[0].outcome == "cotton-scale-exists"

    def test_einstein_metrics_are_c_spaces(self):
        rep = OB.cotton_scale_verdict(pack("schwarzschild4"),
                                      points("schwarzschild4", 5))
        assert rep.verdicts[0].outcome == "cotton-scale-exists"

    def test_perturbed_metric_is_not_a_c_space(self):
        g = perturbed_flat_metric(seed=3)
        pk = CurvaturePack(g)
        pts = sample_points(g.chart, n=4, seed=6)
        rep = OB.cotton_scale_verdict(pk, pts)
        assert rep.verdicts[0].outcome == "not"
        # cross-validate with a second, independent left inverse
        s = pk.samples(pts)
        k2 = OB.k_field(s, "from-C")
        r2 = OB.cspace_residual(s, k2)
        assert r2.max > 1e-3 * r2.max_scale

    def test_report_outcome_is_cotton_scale_exists(self):
        rep = OB.cotton_scale_verdict(pack("rt5-quartic"),
                                      points("rt5-quartic", 4))
        assert rep.outcome == "cotton-scale-exists"

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
    with coefficients in [-0.3, 0.3], two distinct point seeds in 0-5)."""
    name = draw(st.sampled_from(_N4PLUS))
    coords = entry(name).metric.chart.coords
    monomials = [()] + list(combinations_with_replacement(coords, 1)) \
        + list(combinations_with_replacement(coords, 2))
    terms = [f"{draw(st.integers(-300, 300))}/1000" + "".join(
        f"*{c}" for c in m) for m in monomials]
    seeds = draw(st.lists(st.integers(0, 5), min_size=2, max_size=2,
                          unique=True))
    return name, " + ".join(terms), seeds


def _flags(rep):
    gen = rep.genericity
    return ((gen.weakly_generic, gen.lambda2_generic, gen.generic),
            [(pg.weakly_generic, pg.lambda2_generic, pg.generic)
             for pg in gen.per_point])


class TestVerdictInvariance:
    """The tensor verdict, its genericity flags and the weight-0 E tensor
    do not change under a conformal rescaling g -> e^(2 upsilon) g, and the
    verdict and flags not under the choice of sample seed."""

    @given(rescaled_entries())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_rescaling_and_seed(self, case):
        name, ups, (seed, other) = case
        g = entry(name).metric
        pts = points(name, 4, seed)
        rep = OB.conformal_einstein_tensor_verdict(pack(name), pts)
        reph = OB.conformal_einstein_tensor_verdict(
            CurvaturePack(conformal_rescale(g, parse(ups))), pts)
        assert reph.outcome == rep.outcome
        assert _flags(reph) == _flags(rep)
        assert ("E" in reph.residuals) == ("E" in rep.residuals)
        if "E" in rep.residuals:
            e, eh = rep.residuals["E"], reph.residuals["E"]
            assert maxabs(eh.values - e.values) < 1e-7 * max(1.0,
                                                              e.max_scale)
        repo = OB.conformal_einstein_tensor_verdict(pack(name),
                                                    points(name, 4, other))
        assert repo.outcome == rep.outcome
        assert _flags(repo)[0] == _flags(rep)[0]


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

    @pytest.mark.parametrize("name, wording", [
        ("pp-wave4", ("||L|| = ", "||C|| = ", "C^3 = ")),
        ("constant-curvature4", ("the Weyl tensor vanishes numerically",) * 3),
        ("flat4", ("the Weyl tensor vanishes numerically",) * 3)])
    def test_auto_notes_every_policy_in_order(self, name, wording):
        pts = points(name, 5)
        rep = OB.conformal_einstein_tensor_verdict(pack(name), pts)
        assert rep.k_provenance is None
        assert rep.outcome == "inconclusive"
        for note, policy, words in zip(rep.notes, OB.POLICIES, wording):
            assert note.startswith(f"policy {policy}: {words}"), note
            assert f"at point {pts[0]}" in note, note
        assert [n.split(":")[0] for n in rep.notes[:3]] == \
            [f"policy {p}" for p in OB.POLICIES]
