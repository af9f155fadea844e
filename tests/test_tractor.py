import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confein import cli, linalg
from confein import obstructions as OB
from confein import tractor as TR
from confein.catalog import entry_names
from confein.config import Tolerances
from confein.curvature import CurvaturePack, trace_free_residual, unpack_pairs
from confein.expressions import ONE, ZERO, add, diff, func, mul, neg, parse
from confein.geometry import (
    DOWN,
    MetricField,
    TensorField,
    conformal_rescale,
    evaluate_components,
    partial_derivative,
)
from confein.mspecfile import dumps_mspec, entry_to_mspec
from conftest import entry, maxabs, pack, points, samples

TOL = Tolerances()


def binds(name, pts):
    g = entry(name).metric
    return [g.point_bindings(p) for p in pts]


def rank_stack(s, full):
    """The rows the rank test ranks: [Omega; d Omega - Omega Theta] as
    `rank_rows` builds them, or with full=True [Omega; nabla Omega]."""
    n, npts = s.n, len(s.points)
    om = TR._omega_pairs(s)
    if full:
        d = TR.cov_omega_values(s)
    else:
        d = TR._d_omega_pairs(s)
        d -= np.einsum("pzKJ,pkIK->pzkIJ", TR.theta_values(s), om,
                       optimize=True)
    return np.concatenate([om[:, None], d], axis=1).reshape(npts, -1, n + 2)


def kernel_alignment(kernels, ivals):
    """min over the points with a kernel of |projection of I / |I||."""
    cs = [np.linalg.norm(k @ (k.T @ (v / np.linalg.norm(v))))
          for k, v in zip(kernels, ivals) if k.shape[1]]
    return float(min(cs))


class TestConnection:
    def test_projector_derivative_rules(self):
        # nabla X^A = Z^A_a, nabla (down) X_A = Z_Aa, nabla Y_A = P Z
        g = entry("schwarzschild4").metric
        n = 4
        pts = points("schwarzschild4", 3)
        b = binds("schwarzschild4", pts)
        xup = TR.TractorTensor(g, (TR.TUP,),
                               np.asarray([ZERO] * (n + 1) + [ONE],
                                          dtype=object))
        grad = evaluate_components(TR.tractor_connection(xup).comps, b)
        want = np.zeros_like(grad)
        for a in range(n):
            want[:, a, 1 + a] = 1.0
        assert maxabs(grad - want) < 1e-12

        xdown = TR.TractorTensor(g, (TR.TDOWN,),
                                 np.asarray([ONE] + [ZERO] * (n + 1),
                                            dtype=object))
        gradd = evaluate_components(TR.tractor_connection(xdown).comps, b)
        gv = evaluate_components(g.comps, b)
        want = np.zeros_like(gradd)
        want[:, :, 1:n + 1] = gv  # Z_Aa stored: middle block g_a.
        assert maxabs(gradd - want) < 1e-12

        ydown = TR.TractorTensor(g, (TR.TDOWN,),
                                 np.asarray([ZERO] * (n + 1) + [ONE],
                                            dtype=object))
        grady = evaluate_components(TR.tractor_connection(ydown).comps, b)
        s = pack("schwarzschild4").samples(pts)
        want = np.zeros_like(grady)
        want[:, :, 1:n + 1] = s["P"]
        assert maxabs(grady - want) < 1e-10

    def test_metric_compatibility(self):
        for name in ("schwarzschild4", "rt5-quartic"):
            g = entry(name).metric
            h = TR.TractorTensor(g, (TR.TDOWN, TR.TDOWN),
                                 TR.tractor_metric_matrix(g))
            grad = TR.tractor_connection(h)
            vals = evaluate_components(grad.comps, binds(name, points(name, 3)))
            assert maxabs(vals) < 1e-10, name

    def test_connection_display_on_tractor_field(self):
        # components of nabla(alpha, mu, tau) follow the stored-tuple rules
        g = entry("rt4-quartic").metric
        mu = TensorField(g.chart, (DOWN,),
                         np.asarray([parse("u"), parse("r"), ZERO, ONE],
                                    dtype=object), weight=1)
        t = TR.TractorField(g, parse("r*u"), mu, parse("u^2"))
        grad = TR.tractor_connection(t)
        pts = points("rt4-quartic", 3)
        b = binds("rt4-quartic", pts)
        vals = evaluate_components(grad.comps, b)
        s = pack("rt4-quartic").samples(pts)
        tt = evaluate_components(t.to_tensor().comps, b)
        th = TR.theta_values(s)
        want = evaluate_components(partial_derivative(t.to_tensor()), b) + \
            np.einsum("pzIJ,pJ->pzI", th, tt)
        assert maxabs(vals - want) < 1e-9

    def test_inner_product_leibniz(self):
        # d <T1, T2> = <nabla T1, T2> + <T1, nabla T2> numerically
        g = entry("schwarzschild4").metric
        rng = np.random.default_rng(2)
        pts = points("schwarzschild4", 3)
        b = binds("schwarzschild4", pts)

        def random_field():
            comps = np.asarray(
                [parse(f"{rng.integers(1, 4)}*r + {rng.integers(1, 4)}*u")
                 for _ in range(6)], dtype=object)
            return TR.TractorTensor(g, (TR.TUP,), comps)

        t1, t2 = random_field(), random_field()
        low = TR.lower_tractor_slot(t2, 0)
        inner = add(*[mul(x, y) for x, y in zip(t1.comps, low.comps)])
        dinner = np.asarray([diff(inner, c) for c in g.chart.coords],
                            dtype=object)
        lhs = evaluate_components(dinner, b)
        g1 = TR.tractor_connection(t1)
        g2 = TR.tractor_connection(t2)
        v1 = evaluate_components(t1.comps, b)
        v2 = evaluate_components(t2.comps, b)
        d1 = evaluate_components(g1.comps, b)
        d2 = evaluate_components(g2.comps, b)
        hm = np.zeros((len(pts), 6, 6))
        s = pack("schwarzschild4").samples(pts)
        hm[:, 0, 5] = 1.0
        hm[:, 5, 0] = 1.0
        hm[:, 1:5, 1:5] = s["g"]
        rhs = np.einsum("pzI,pIJ,pJ->pz", d1, hm, v2) + \
            np.einsum("pI,pIJ,pzJ->pz", v1, hm, d2)
        assert maxabs(lhs - rhs) < 1e-9


class TestChangeScale:
    def test_involution_and_composition(self):
        g = entry("rt4-quartic").metric
        mu = TensorField(g.chart, (DOWN,),
                         np.asarray([parse("u"), parse("r^2"), ZERO, ONE],
                                    dtype=object), weight=1)
        t = TR.TractorField(g, parse("r+u"), mu, parse("2*u"))
        pts = points("rt4-quartic", 3)
        b = binds("rt4-quartic", pts)
        u1, u2 = parse("log(r)"), parse("3*x1/10")
        back = TR.change_scale(TR.change_scale(t, u1), neg(u1))
        for x, y in ((t.alpha, back.alpha), (t.tau, back.tau)):
            assert maxabs(evaluate_components(x, b)
                          - evaluate_components(y, b)) < 1e-10
        assert maxabs(evaluate_components(t.mu.comps, b)
                      - evaluate_components(back.mu.comps, b)) < 1e-10
        two = TR.change_scale(TR.change_scale(t, u1), u2)
        one = TR.change_scale(t, u1 + u2)
        for x, y in ((two.alpha, one.alpha), (two.tau, one.tau)):
            assert maxabs(evaluate_components(x, b)
                          - evaluate_components(y, b)) < 1e-10

    def test_alpha_component_scale_independent_as_density(self):
        # the top slot only picks up the weight-1 density factor
        g = entry("rt4-quartic").metric
        mu = TensorField(g.chart, (DOWN,),
                         np.asarray([ZERO, ONE, ZERO, ZERO], dtype=object),
                         weight=1)
        t = TR.TractorField(g, parse("u"), mu, parse("r"))
        ups = parse("log(r)")
        th = TR.change_scale(t, ups)
        pts = points("rt4-quartic", 3)
        b = binds("rt4-quartic", pts)
        want = evaluate_components(t.alpha, b) * \
            np.exp(evaluate_components(ups, b))
        assert maxabs(evaluate_components(th.alpha, b) - want) < 1e-12

    def test_h_inner_product_invariant(self):
        g = entry("rt4-quartic").metric
        mu = TensorField(g.chart, (DOWN,),
                         np.asarray([parse("u"), parse("r^2"), ZERO, ONE],
                                    dtype=object), weight=1)
        t = TR.TractorField(g, parse("r+u"), mu, parse("2*u"))
        pts = points("rt4-quartic", 4)
        b = binds("rt4-quartic", pts)
        tt = t.to_tensor()
        hv = np.einsum("pI,pI->p",
                       evaluate_components(tt.comps, b),
                       evaluate_components(
                           TR.lower_tractor_slot(tt, 0).comps, b))
        th = TR.change_scale(t, parse("log(r)"))
        tth = th.to_tensor()
        hvh = np.einsum("pI,pI->p",
                        evaluate_components(tth.comps, b),
                        evaluate_components(
                            TR.lower_tractor_slot(tth, 0).comps, b))
        assert maxabs(hv - hvh) < 1e-10 * max(1, maxabs(hv))

    def test_omega_pattern_invariance(self):
        e = entry("rt4-quartic")
        ups = parse("log(r)")
        pts = points("rt4-quartic", 3)
        b = binds("rt4-quartic", pts)
        om = TR.omega(pack("rt4-quartic"))
        chg = TR.change_scale(om, ups)
        hat = TR.omega(CurvaturePack(conformal_rescale(e.metric, ups)))
        v1 = evaluate_components(chg.comps, b)
        v2 = evaluate_components(hat.comps, b)
        assert maxabs(v1 - v2) < 1e-7 * max(1, maxabs(v2))

    def test_connection_commutes_with_change_scale(self):
        # weight-0 up tractor: nabla-hat(chg T) == chg(nabla T)
        e = entry("rt4-quartic")
        g = e.metric
        ups = parse("log(r)")
        ghat = conformal_rescale(g, ups)
        comps = np.asarray([parse("u"), parse("r"), ONE, ZERO, parse("u^2"),
                            parse("r*u")], dtype=object)
        t = TR.TractorTensor(g, (TR.TUP,), comps)
        lhs = TR.tractor_connection(TR.change_scale(t, ups))
        rhs = TR.change_scale(TR.tractor_connection(t), ups)
        pts = points("rt4-quartic", 3)
        b = binds("rt4-quartic", pts)
        v1 = evaluate_components(lhs.comps, b)
        v2 = evaluate_components(rhs.comps, b)
        scale = max(1, maxabs(v2))
        assert maxabs(v1 - v2) < 1e-8 * scale

    def test_div_omega_transformation_law(self):
        # hat(div Omega) = div Omega + (n-4) (d ups)^a Omega, after
        # converting the hatted components back (weight -2)
        e = entry("rt4-quartic")
        n = 4
        ups = parse("log(r)")
        pts = points("rt4-quartic", 4)
        s = pack("rt4-quartic").samples(pts)
        ghat = conformal_rescale(e.metric, ups)
        sh = CurvaturePack(ghat).samples(pts)
        dv = TR.div_omega_values(s)
        dvh = TR.div_omega_values(sh)
        m_down = evaluate_components(
            TR.change_scale_matrices(ghat, neg(ups))[1], sh.bindings)
        # the applied factor is -ups; the object has weight -2
        conv = np.einsum("pIK,pJL,pbKL->pbIJ", m_down, m_down, dvh)
        conv *= np.exp(2 * evaluate_components(ups, s.bindings))[
            :, None, None, None]
        om = TR.omega_values(s)
        du = evaluate_components(
            np.asarray([parse("0"), parse("1/r"), parse("0"), parse("0")],
                       dtype=object), s.bindings)
        upup = np.einsum("pab,pb->pa", s["ginv"], du)
        want = dv + (n - 4) * np.einsum("pa,pabIJ->pbIJ", upup, om)
        assert maxabs(conv - want) < 1e-7 * max(1, maxabs(want))


class TestCurvature:
    def test_omega_values_built_once_and_read_only(self):
        s = pack("rt4-quartic").samples(points("rt4-quartic", 2))
        om = TR.omega_values(s)
        assert TR.omega_values(s) is om
        assert not om.flags.writeable

    def test_flat_omega_and_w_vanish(self):
        s = samples("flat4", 3)
        assert maxabs(TR.omega_values(s)) == 0.0
        assert maxabs(TR.w_tensor_values(s)) < 1e-12

    @pytest.mark.parametrize("name", ["schwarzschild4", "rt5-quartic"])
    def test_commutator_equals_omega(self, name):
        g = entry(name).metric
        n = g.dim
        rng = np.random.default_rng(4)
        pts = points(name, 3)
        b = binds(name, pts)
        s = pack(name).samples(pts)
        om = TR.omega_values(s)
        hinv = np.zeros((len(pts), n + 2, n + 2))
        hinv[:, 0, n + 1] = 1.0
        hinv[:, n + 1, 0] = 1.0
        hinv[:, 1:n + 1, 1:n + 1] = s["ginv"]
        omup = np.einsum("pIK,pabKJ->pabIJ", hinv, om)
        for _ in range(5):
            comps = np.asarray(
                [parse(f"{rng.integers(1, 4)}*{g.chart.coords[0]}"
                       f" + {rng.integers(1, 4)}*{g.chart.coords[1]}^2")
                 for _ in range(n + 2)], dtype=object)
            v = TR.TractorTensor(g, (TR.TUP,), comps)
            ddv = TR.tractor_connection(TR.tractor_connection(v))
            vals = evaluate_components(ddv.comps, b)
            comm = vals - np.transpose(vals, (0, 2, 1, 3))
            want = np.einsum("pabIJ,pJ->pabI", omup,
                             evaluate_components(v.comps, b))
            scale = max(1.0, maxabs(want))
            assert maxabs(comm - want) < 1e-7 * scale

    @pytest.mark.parametrize("name", ["rt4-quartic", "rt5-quartic",
                                      "hyperkahler4"])
    def test_div_omega_two_routes_agree(self, name):
        s = samples(name, 4)
        dv = TR.div_omega_values(s)
        dvc = TR.div_omega_closed(s)
        scale = max(1e-300, maxabs(dvc), maxabs(TR.omega_values(s)))
        assert maxabs(dv - dvc) < 1e-7 * scale

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", ["rt4-quartic", "rt6-quartic",
                                      "schwarzschild5"])
    def test_cov_omega_rows_match_full_build(self, name, seed):
        # the full nabla_z Omega_ab over every (a, b), built as before the
        # ranked-pair rows: the rows a < b must be equal bit for bit, and
        # the divergence, which sums the expanded rows, equal to roundoff
        s = samples(name, 8, seed)
        n, om = s.n, TR.omega_values(s)
        full = np.zeros((len(s.points), n, n, n, n + 2, n + 2))
        full[..., 1:n + 1, 1:n + 1] = unpack_pairs(s["dC"])
        full[..., 0, 1:n + 1] = -np.transpose(s["dA"], (0, 1, 3, 4, 2))
        full[..., 1:n + 1, 0] = np.transpose(s["dA"], (0, 1, 3, 4, 2))
        gamma, th = s["gamma"], TR.theta_values(s)
        full -= np.einsum("peza,pebIJ->pzabIJ", gamma, om, optimize=True)
        full -= np.einsum("pezb,paeIJ->pzabIJ", gamma, om, optimize=True)
        full -= np.einsum("pzKI,pabKJ->pzabIJ", th, om, optimize=True)
        full -= np.einsum("pzKJ,pabIK->pzabIJ", th, om, optimize=True)
        a, b = np.triu_indices(n, 1)
        assert np.array_equal(TR.cov_omega_values(s), full[:, :, a, b])
        want = np.einsum("pza,pzabIJ->pbIJ", s["ginv"], full)
        assert maxabs(TR.div_omega_values(s) - want) \
            < 1e-12 * max(1.0, maxabs(want))

    def test_w_tensor_dimension4_reduces_to_divergence_block(self):
        s = samples("rt4-quartic", 3)
        w = TR.w_tensor_values(s)
        n = 4
        assert maxabs(w[:, 1:n + 1, 1:n + 1]) == 0.0  # (n-4) kills ZZ-part
        dv = TR.div_omega_values(s)
        assert maxabs(w[:, 0, 1:n + 1] + dv) == 0.0

    def test_dimension4_bach_iff_div_omega(self):
        # max|div Omega| and max|Bach| vanish together with bounded ratio
        for name in ("schwarzschild4", "rt4-quartic"):
            s = samples(name, 4)
            dv = TR.div_omega_values(s)
            b = s["B"]
            if maxabs(b) < 1e-12:
                assert maxabs(dv) < 1e-9, name
            else:
                assert maxabs(dv) / maxabs(b) < 10.0
                assert maxabs(dv) / maxabs(b) > 0.1


class TestDOperatorAndParallel:
    def test_constant_scale_einstein_candidate_components(self):
        cand = TR.einstein_candidate(pack("schwarzschild4"), ONE)
        n = 4
        pts = points("schwarzschild4", 3)
        b = binds("schwarzschild4", pts)
        v = evaluate_components(cand.comps, b)
        s = pack("schwarzschild4").samples(pts)
        assert np.allclose(v[:, 0], 1.0)
        assert maxabs(v[:, 1:n + 1]) < 1e-12
        assert np.allclose(v[:, n + 1], -s["J"] / n, atol=1e-10)

    def test_weight0_constant_d_is_zero(self):
        d = TR.tractor_d(ONE, 0, pack("schwarzschild4"))
        pts = points("schwarzschild4", 2)
        v = evaluate_components(d.comps, binds("schwarzschild4", pts))
        assert maxabs(v) < 1e-12

    @pytest.mark.parametrize("name", ["flat4", "constant-curvature4",
                                      "schwarzschild4", "schwarzschild5",
                                      "schwarzschild-de-sitter5",
                                      "hyperkahler4", "constant-curvature3"])
    def test_einstein_scales_have_parallel_tractor(self, name):
        rep = TR.parallel_tractor_check(pack(name).samples(points(name, 6)),
                                        ONE)
        assert rep["is_einstein_scale"], name
        assert rep["parallel_residual"] < 1e-9 * rep["scale"]
        assert maxabs(rep["h_ii"] - rep["h_ii_expected"]) < 1e-8

    def test_non_einstein_scale_detected(self):
        rep = TR.parallel_tractor_check(
            pack("rt4-quartic").samples(points("rt4-quartic", 5)), ONE)
        assert not rep["is_einstein_scale"]
        assert rep["parallel_residual"] > 1e-3
        assert rep["rescaled_trace_free_schouten"] > 1e-3

    def test_sphere_scale_inside_flat_class(self):
        sigma = parse("1 + (x1^2 + x2^2 + x3^2 + x4^2)/4")
        rep = TR.parallel_tractor_check(
            pack("flat4").samples(points("flat4", 5)), sigma)
        assert rep["is_einstein_scale"]
        assert rep["parallel_residual"] < 1e-8
        assert rep["rescaled_trace_free_schouten"] < 1e-8

    def test_vanishing_sigma_rejected(self):
        with pytest.raises(ArithmeticError):
            TR.parallel_tractor_check(
                pack("flat4").samples(points("flat4", 2)), parse("x1 - x1"))


# non-constant scales with nonzero third partials, positive on the samples
_SIGMAS = {
    "schwarzschild4": "r + x1^2/10 - u*x2/5",
    "rt5-quartic": "r^2/4 + x1*x3^2/3 + u/5",
    "constant-curvature3": "1 + x1*x2/5 + x3^3/10",
    "flat4": "2 + x1^2*x2/5 - x3*x4/7",
}

# the polynomial factor of the potential tests in test_obstructions
_UPSILON = "(r/3)^6 + x1^3/5 - u*r/7"


class TestNumericEinsteinScale:
    @pytest.mark.parametrize("name", sorted(_SIGMAS))
    def test_matches_symbolic_oracle(self, name):
        g = entry(name).metric
        n = g.dim
        sigma = parse(_SIGMAS[name])
        pts = points(name, 4)
        b = binds(name, pts)
        s = pack(name).samples(pts)
        ivals, grad, _ = TR.einstein_tractor_values(s, sigma)
        rep = TR.parallel_tractor_check(pack(name).samples(pts), sigma)

        cand = TR.einstein_candidate(pack(name), sigma)
        want_i = evaluate_components(cand.comps, b)
        want_grad = evaluate_components(TR.tractor_connection(cand).comps, b)
        want_h = np.einsum("pI,pI->p", want_i, evaluate_components(
            TR.lower_tractor_slot(cand, 0).comps, b))
        ghat = conformal_rescale(g, neg(func("log", sigma)))
        sh = CurvaturePack(ghat).samples(pts)
        want_tf, want_scale = trace_free_residual(sh["P"], sh["g"], sh["ginv"])

        def close(x, y):
            return maxabs(x - y) <= 1e-10 * max(1.0, maxabs(y))

        assert close(ivals, want_i)
        assert close(grad, want_grad)
        assert close(rep["h_ii"], want_h)
        assert close(np.asarray(rep["rescaled_trace_free_schouten"]), want_tf)
        assert close(np.asarray(rep["rescaled_scale"]), want_scale)
        assert rep["parallel_residual"] == maxabs(grad)
        # a non-constant factor of an Einstein metric is no Einstein scale
        assert not rep["is_einstein_scale"]
        assert ivals.shape == (4, n + 2) and grad.shape == (4, n, n + 2)

    def test_rescaled_schwarzschild_scale(self):
        # sigma = e^upsilon takes e^{2 upsilon} g back to the Einstein g
        ups = parse(_UPSILON)
        ghat = conformal_rescale(entry("schwarzschild4").metric, ups)
        hpack = CurvaturePack(ghat)
        pts = points("schwarzschild4", 5)
        sigma = func("exp", ups)
        rep = TR.parallel_tractor_check(hpack.samples(pts), sigma)
        assert rep["is_einstein_scale"]
        assert rep["rescaled_trace_free_schouten"] < 1e-9 * rep["rescaled_scale"]
        rank = TR.rank_obstruction(hpack.samples(pts), sigma=sigma)
        assert rank.verdict == "conformally-einstein"
        assert rank.kernel_alignment > 1 - 1e-6

    def test_no_symbolic_curvature_reached(self, monkeypatch, tmp_path):
        # the tractor command and the aligned rank test run on the numeric
        # metric jet alone
        def boom(*args):
            raise AssertionError("symbolic curvature reached")

        monkeypatch.setattr(MetricField, "inverse_comps", boom)
        monkeypatch.setattr(MetricField, "christoffel", boom)
        for name in ("gamma", "riemann_mixed", "riemann", "ricci", "scalar",
                     "schouten_trace", "schouten", "weyl", "cov_schouten",
                     "cotton", "cov_cotton", "bach"):
            monkeypatch.setattr(CurvaturePack, name, property(boom))
        path = tmp_path / "schwarzschild4.mspec"
        path.write_text(dumps_mspec(entry_to_mspec(entry("schwarzschild4"))))
        assert cli.main(["tractor", str(path), "--sigma", "1 + x1/10",
                         "--json", str(tmp_path / "out.json")]) == 1
        fresh = CurvaturePack(entry("schwarzschild4").metric)
        rep = TR.rank_obstruction(fresh.samples(points("schwarzschild4", 5)),
                                  sigma=ONE)
        assert rep.kernel_alignment > 1 - 1e-6


class TestAnnihilation:
    def test_einstein_candidate_annihilates_everything(self):
        for name in ("schwarzschild4", "schwarzschild-de-sitter5"):
            s = samples(name, 4)
            cand = TR.einstein_candidate(pack(name), ONE)
            rep = TR.annihilation_check(s, cand)
            for key in ("omega", "cov_omega", "div_omega", "w"):
                assert rep[key] < 1e-8 * max(1, rep["scale"]), (name, key)

    def test_rt_cspace_tractor_annihilates_omega_but_not_divergence(self):
        s = samples("rt5-quartic", 5)
        n = 5
        kf = OB.k_field(s, "from-L")
        ivals = np.zeros((len(s.points), n + 2))
        ivals[:, 0] = 1.0
        ivals[:, 1:n + 1] = -kf.raised(s)  # mu^a = -sigma K^a, sigma = 1
        rep = TR.annihilation_check(s, ivals)
        assert rep["omega"] < 1e-8 * rep["scale"]
        assert rep["div_omega"] > 1e-3 * rep["scale"]
        # the Z-coefficient of Omega.I is sigma (A + K.C)
        kup = kf.raised(s)
        csp = s["A"] + np.einsum("pd,pdabc->pabc", kup, unpack_pairs(s["C"]))
        want = np.transpose(csp, (0, 2, 3, 1))
        assert maxabs(rep["z_coefficient"] - want) < 1e-9 * rep["scale"]

    def test_pure_x_direction_is_blocked_by_x_dot_i(self):
        s = samples("rt5-quartic", 3)
        n = 5
        ivals = np.zeros((len(s.points), n + 2))
        ivals[:, n + 1] = 1.0  # I = X
        rep = TR.annihilation_check(s, ivals)
        assert rep["omega"] < 1e-12
        assert maxabs(rep["x_dot_i"]) < 1e-12  # verdict blocked


class TestRankObstruction:
    @pytest.mark.parametrize("name,n", [("schwarzschild4", 4),
                                        ("schwarzschild-de-sitter4", 4),
                                        ("schwarzschild-de-sitter5", 5)])
    def test_einstein_fixtures_rank_deficient_with_aligned_kernel(self, name,
                                                                  n):
        rep = TR.rank_obstruction(pack(name).samples(points(name, 5)),
                                  sigma=ONE)
        assert rep.verdict == "conformally-einstein"
        assert rep.max_rank <= n + 1
        assert rep.kernel_alignment is not None
        assert rep.kernel_alignment > 1 - 1e-6

    def test_rt_quartic_full_rank(self):
        rep = TR.rank_obstruction(
            pack("rt5-quartic").samples(points("rt5-quartic", 5)))
        assert rep.verdict == "not"
        assert rep.max_rank == 7  # n + 2

    def test_flat_inconclusive(self):
        rep = TR.rank_obstruction(pack("flat4").samples(points("flat4", 3)))
        assert rep.verdict == "inconclusive"
        assert rep.max_rank == 0
        assert not rep.weakly_generic

    def test_hyperkahler_einstein_by_rank(self):
        rep = TR.rank_obstruction(
            pack("hyperkahler4").samples(points("hyperkahler4", 4)), sigma=ONE)
        assert rep.verdict == "conformally-einstein"
        assert rep.kernel_alignment > 1 - 1e-6

    def test_agreement_with_tensor_pipeline(self):
        for name in ("schwarzschild4", "rt5-quartic",
                     "schwarzschild-de-sitter5"):
            rep_t = OB.conformal_einstein_tensor_verdict(
                pack(name).samples(points(name, 5)))
            rep_r = TR.rank_obstruction(pack(name).samples(points(name, 5)))
            assert rep_t.outcome == rep_r.verdict, name


class TestKernelsOnlyWhenAsked:
    def test_classify_computes_no_kernel(self, monkeypatch, tmp_path):
        # classify passes no sigma, so the rank test ranks its rows only
        from confein import linalg

        def boom(*args):
            raise AssertionError("a tractor kernel was computed")

        path = tmp_path / "schwarzschild4.mspec"
        path.write_text(dumps_mspec(entry_to_mspec(entry("schwarzschild4"))))
        monkeypatch.setattr(linalg, "_kernel", boom)
        assert cli.main(["classify", str(path), "--json",
                         str(tmp_path / "out.json")]) == 0

    @pytest.mark.parametrize("name", ["schwarzschild4", "hyperkahler4",
                                      "schwarzschild-de-sitter5"])
    def test_kernel_alignment_with_sigma_is_unchanged(self, name):
        # the alignment of the kernels rank_nullspace gives for the stacked
        # rows, computed here as rank_obstruction did before it asked for
        # kernels only with a sigma
        s = pack(name).samples(points(name, 5))
        rep = TR.rank_obstruction(s, sigma=ONE)
        ranks, kernels = linalg.rank_nullspace(rank_stack(s, full=False),
                                               TOL.rank_tol, s.scale())
        assert rep.ranks == ranks.tolist()
        ivals = TR.einstein_tractor_values(s, ONE)[0]
        assert rep.kernel_alignment == kernel_alignment(kernels, ivals)
        assert TR.rank_obstruction(s).kernel_alignment is None


class TestStreamedStack:
    """`rank_rows` builds its stack one elimination chunk at a time; it
    ranks as the stack built in one piece (`rank_stack`) does."""

    @pytest.mark.parametrize("budget", [linalg.CHUNK_BYTES, 1])
    @pytest.mark.parametrize("name", ["rt6-quartic", "rt5-quartic",
                                      "schwarzschild4", "hyperkahler4"])
    def test_ranks_and_kernels_match_the_one_piece_stack(
            self, monkeypatch, name, budget):
        s = pack(name).samples(points(name, 20))
        ranks, kernels = linalg.rank_nullspace(rank_stack(s, full=False),
                                               TOL.rank_tol, s.scale())
        assert (linalg.rank(rank_stack(s, full=False), TOL.rank_tol,
                            s.scale()) == ranks).all()
        # the default budget holds 9 rt6-quartic stacks (840 x 8), so 20
        # points take 3 chunks there; a budget of 1 gives one per chunk
        monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)
        assert TR.rank_rows(s, TOL) == (ranks.tolist(), None)
        got, basis = TR.rank_rows(s, TOL, kernels=True)
        assert got == ranks.tolist() and len(basis) == len(kernels)
        assert all(np.array_equal(a, b) for a, b in zip(basis, kernels))


_N4_ENTRIES = [name for name in entry_names()
               if entry(name).metric.dim >= 4]


class TestReducedStack:
    """The rank test ranks [Omega; d Omega - Omega Theta] (`rank_rows`).
    The rest of nabla Omega is a combination of Omega rows, so the full
    stack [Omega; nabla Omega] (`cov_omega_values`) has the same rank and
    kernel."""

    @given(st.sampled_from(_N4_ENTRIES), st.integers(0, 2 ** 16),
           st.integers(1, 12))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_reduced_and_full_stacks_have_equal_ranks(self, name, seed,
                                                      count):
        s = pack(name).samples(points(name, count, seed))
        full = linalg.rank(rank_stack(s, full=True), TOL.rank_tol, s.scale())
        assert TR.rank_rows(s, TOL)[0] == full.tolist()

    @pytest.mark.parametrize("name", ["schwarzschild4", "hyperkahler4",
                                      "schwarzschild-de-sitter5"])
    def test_kernel_alignment_matches_the_full_stack(self, name):
        s = pack(name).samples(points(name, 5))
        rep = TR.rank_obstruction(s, sigma=ONE)
        ranks, kernels = linalg.rank_nullspace(rank_stack(s, full=True),
                                               TOL.rank_tol, s.scale())
        assert rep.ranks == ranks.tolist()
        ivals = TR.einstein_tractor_values(s, ONE)[0]
        assert abs(rep.kernel_alignment
                   - kernel_alignment(kernels, ivals)) < 1e-12
