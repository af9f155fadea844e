import itertools
import math
import re

import numpy as np
import pytest

from confein import geometry as G
from confein.curvature import CurvaturePack
from confein.expressions import ONE, ZERO, diff, func, is_zero, neg, parse
from confein.geometry import DOWN, UP
from conftest import entry, maxabs, pack, points


def _binds(name, pts):
    g = entry(name).metric
    return [g.point_bindings(p) for p in pts]


class TestMetricInverse:
    def test_euclidean_identity(self):
        g = entry("flat4").metric
        gi = g.inverse_comps()
        for i in range(4):
            for j in range(4):
                assert gi[i, j] is (ONE if i == j else ZERO)

    def test_rt_null_block_inverse_by_hand(self):
        e = entry("schwarzschild4")
        gi = e.metric.inverse_comps()
        h = e.extras["h"]
        assert gi[0, 1] is ONE
        assert gi[0, 0] is ZERO
        # g^rr = -2h
        assert is_zero(gi[1, 1] + 2 * h)

    def test_product_is_identity_symbolically(self):
        g = entry("rt5-quartic").metric
        prod = G.sym_einsum("ac,cb->ab", g.inverse_comps(), g.comps)
        for i in range(5):
            for j in range(5):
                assert is_zero(prod[i, j] - (ONE if i == j else ZERO))

    def test_numeric_identity_at_points(self):
        for name in ("hyperkahler4", "rt5-quartic"):
            g = entry(name).metric
            pts = points(name, 5)
            b = _binds(name, pts)
            gv = G.evaluate_components(g.comps, b)
            giv = G.evaluate_components(g.inverse_comps(), b)
            delta = np.einsum("pac,pcb->pab", giv, gv)
            assert maxabs(delta - np.eye(g.dim)[None]) < 1e-10

    def test_asymmetric_metric_rejected(self):
        ch = G.Chart(("x", "y", "z"))
        comps = np.diag([ONE, ONE, ONE]).astype(object)
        comps[comps == 0] = ZERO
        comps[0, 1], comps[1, 0] = parse("x"), parse("y")
        with pytest.raises(ValueError, match="not symmetric"):
            G.MetricField(ch, comps)

    def test_degenerate_metric_rejected(self):
        ch = G.Chart(("x", "y", "z"))
        comps = np.diag([ONE, ZERO, ONE]).astype(object)
        comps[comps == 0] = ZERO
        g = G.MetricField(ch, comps)
        with pytest.raises(G.SingularMetricError):
            g.inverse_comps()


class TestChart:
    def test_repeated_coordinates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            G.Chart(("x", "y", "x"))

    def test_dimension_below_three_rejected(self):
        with pytest.raises(ValueError, match="n >= 3"):
            G.Chart(("x", "y"))


class TestTensorField:
    def test_wrong_component_shape_rejected(self):
        ch = G.Chart(("x", "y", "z"))
        with pytest.raises(ValueError, match="component shape"):
            G.TensorField(ch, (DOWN, DOWN), np.full((3, 4), ZERO, dtype=object))

    def test_weight_tags(self):
        # metric and its slots-down relatives carry 2, the connection 0, and
        # the covariant derivative keeps the weight of what it differentiates
        g = entry("schwarzschild4").metric
        assert g.field.weight == 2
        assert g.christoffel().weight == 0
        assert G.covariant_derivative(g.field, g).weight == 2
        t = G.TensorField(g.chart, (UP,), np.array(
            [parse(f"r^{i}") for i in range(4)], dtype=object), weight=-1)
        assert G.covariant_derivative(t, g).weight == -1


class TestSymEinsum:
    def test_matches_numeric_einsum(self):
        name = "schwarzschild4"
        g = entry(name).metric
        gam = g.christoffel().comps
        low = G.sym_einsum("ad,dbc->abc", g.comps, gam)
        b = _binds(name, points(name, 4))
        want = np.einsum("pad,pdbc->pabc",
                         G.evaluate_components(g.comps, b),
                         G.evaluate_components(gam, b))
        assert maxabs(G.evaluate_components(low, b) - want) < 1e-12

    def test_scalar_output_is_an_expression(self):
        g = entry("rt5-quartic").metric
        tr = G.sym_einsum("ab,ab->", g.inverse_comps(), g.comps)
        assert is_zero(tr - parse("5"))

    def test_zero_factor_gives_zero(self):
        g = entry("schwarzschild4").metric
        z = np.full((4, 4), ZERO, dtype=object)
        out = G.sym_einsum("ab,bc->ac", g.comps, z)
        assert all(out[idx] is ZERO for idx in np.ndindex(4, 4))

    def test_rank_mismatch_rejected(self):
        a = np.full((3, 3), ONE, dtype=object)
        with pytest.raises(ValueError, match="operand ranks"):
            G.sym_einsum("abc,c->ab", a, a[0])

    def test_dimension_clash_rejected(self):
        a = np.full((3, 4), ONE, dtype=object)
        with pytest.raises(ValueError, match="dimension clash"):
            G.sym_einsum("ab,bc->ac", a, a)


class TestPermutationSign:
    def test_matches_inversion_parity(self):
        for n in range(1, 6):
            for perm in itertools.permutations(range(n)):
                inversions = sum(perm[i] > perm[j]
                                 for i in range(n) for j in range(i + 1, n))
                assert G.permutation_sign(perm) == (-1) ** inversions


class TestPartialDerivative:
    def test_new_axis_is_leftmost(self):
        g = entry("flat4").metric
        t = G.TensorField(g.chart, (DOWN,), np.array(
            [parse(f"x1^{i + 1}*x2") for i in range(4)], dtype=object))
        d = G.partial_derivative(t)
        assert d.shape == (4, 4)
        for a, i in np.ndindex(4, 4):
            assert d[a, i] is diff(t.comps[i], g.chart.coords[a])


class TestDegenerate:
    def test_flags_non_finite_and_relatively_small_eigenvalues(self):
        m = np.array([np.eye(3),
                      np.diag([1.0, np.nan, 1.0]),
                      np.diag([1.0, 0.0, 1.0]),
                      np.diag([1e6, 1.0, 1.0]),
                      np.diag([1e12, 1e-3, 1.0]),
                      np.diag([-1.0, 1.0, 1.0])])
        assert G._degenerate(m).tolist() == [False, True, True, False, True,
                                             False]


class TestEvaluate:
    def test_single_expression_gives_one_value_per_point(self):
        pts = [{"x": 2.0, "y": 3.0}, {"x": -1.0, "y": 0.5}]
        v = G.evaluate_components(parse("x*y"), pts)
        assert v.shape == (2,)
        assert np.allclose(v, [6.0, -0.5], rtol=1e-15)


class TestChristoffelAndDerivative:
    def test_flat_gamma_zero(self):
        gam = entry("flat4").metric.christoffel()
        assert all(gam.comps[idx] is ZERO for idx in np.ndindex(4, 4, 4))

    def test_symmetry_in_lower_slots(self):
        gam = pack("hyperkahler4").gamma
        for idx in np.ndindex(4, 4, 4):
            a, b, c = idx
            assert gam.comps[a, b, c] is gam.comps[a, c, b]

    def test_metricity_symbolic(self):
        for name in ("schwarzschild4", "rt5-quartic"):
            g = entry(name).metric
            cg = G.covariant_derivative(g.field, g)
            assert all(is_zero(cg.comps[idx])
                       for idx in np.ndindex(*cg.comps.shape))

    def test_scalar_derivative_is_partial(self):
        g = entry("schwarzschild4").metric
        f = parse("u*r^2")
        t = G.TensorField(g.chart, (), np.asarray(f, dtype=object))
        d = G.covariant_derivative(t, g)
        for a, c in enumerate(g.chart.coords):
            assert d.comps[a] is diff(f, c)

    def test_constant_scalar_derivative_zero(self):
        g = entry("schwarzschild4").metric
        t = G.TensorField(g.chart, (), np.asarray(ONE, dtype=object))
        d = G.covariant_derivative(t, g)
        assert all(d.comps[a] is ZERO for a in range(4))

    def test_rt_connection_oneforms_in_coframe(self):
        # the null-coframe connection coefficients of the RT family
        e = entry("rt4-quartic")
        g = e.metric
        n = 4
        gam = g.christoffel().comps
        theta = e.extras["coframe"]
        frame = G._symbolic_inverse(theta)          # e[mu, A]
        dtheta = np.empty((n, n, n), dtype=object)  # d_mu theta^A_nu
        for A in range(n):
            for mu in range(n):
                for nu in range(n):
                    dtheta[mu, A, nu] = diff(theta[A, nu], g.chart.coords[mu])
        # Gamma^A_BC = theta^A_mu e^nu_B e^rho_C Gamma^mu_nu rho
        #            + theta^A_mu e^rho_C d_rho e^mu_B
        de = np.empty((n, n, n), dtype=object)
        for mu in range(n):
            for B in range(n):
                for rho in range(n):
                    de[rho, mu, B] = diff(frame[mu, B], g.chart.coords[rho])
        gf = G.sym_einsum("Am,nB,rC,mnr->ABC", theta, frame, frame, gam)
        gf2 = G.sym_einsum("Am,rC,rmB->ABC", theta, frame, de)
        # lower the first label with the constant coframe metric
        eta = np.full((n, n), ZERO, dtype=object)
        eta[0, 1] = eta[1, 0] = ONE
        eta[2, 2] = eta[3, 3] = ONE
        low = G.sym_einsum("AD,DBC->ABC", eta, _addarr(gf, gf2))
        pts = points("rt4-quartic", 4)
        b = _binds("rt4-quartic", pts)
        vals = G.evaluate_components(low, b)
        rv = np.array([[bb["r"]] for bb in b])[:, 0]
        hv = G.evaluate_components(e.extras["h"], b)
        hp = G.evaluate_components(diff(e.extras["h"], "r"), b)
        # Gamma_{-j} = -theta_j / r: component Gamma_{(-)(j)(j)} = -1/r
        assert np.allclose(vals[:, 1, 2, 2], -1 / rv, rtol=1e-9)
        # Gamma_{+j} = (h/r) theta^j
        assert np.allclose(vals[:, 0, 2, 2], hv / rv, rtol=1e-9)
        # Gamma_{+-} = h' theta^+
        assert np.allclose(vals[:, 0, 1, 0], hp, rtol=1e-9)
        # kappa-dependent transverse part: Gamma_{ij} =
        # kappa (x_i theta_j - x_j theta_i) / (2r)
        x1 = np.array([bb["x1"] for bb in b])
        x2 = np.array([bb["x2"] for bb in b])
        assert np.allclose(vals[:, 2, 3, 3], x1 / (2 * rv), rtol=1e-9)
        assert np.allclose(vals[:, 2, 3, 2], -x2 / (2 * rv), rtol=1e-9)


def _addarr(a, b):
    from confein.expressions import add
    out = np.empty_like(a)
    for idx in np.ndindex(*a.shape):
        out[idx] = add(a[idx], b[idx])
    return out


class TestConformalRescale:
    def test_identity_factor(self):
        g = entry("schwarzschild4").metric
        gh = G.conformal_rescale(g, ZERO)
        assert all(is_zero(gh.comps[idx] - g.comps[idx])
                   for idx in np.ndindex(4, 4))

    def test_constant_factor_scales(self):
        g = entry("flat4").metric
        gh = G.conformal_rescale(g, parse("1/2"))
        pts = points("flat4", 2)
        v = G.evaluate_components(gh.comps, pts)
        assert np.allclose(v, math.e * np.eye(4)[None], rtol=1e-12)

    def test_signature_preserved(self):
        name = "rt5-quartic"
        g = entry(name).metric
        gh = G.conformal_rescale(g, parse("log(r)"))
        b = _binds(name, points(name, 4))
        ev = np.linalg.eigvalsh(G.evaluate_components(g.comps, b))
        evh = np.linalg.eigvalsh(G.evaluate_components(gh.comps, b))
        assert np.array_equal(np.sign(ev), np.sign(evh))
        assert not np.any(ev == 0)

    def test_stereographic_factor_gives_constant_curvature_metric(self):
        flat = entry("flat4").metric
        ups = neg(func("log", parse("1 + (x1^2+x2^2+x3^2+x4^2)/4")))
        gh = G.conformal_rescale(flat, ups)
        cc = entry("constant-curvature4").metric
        pts = points("constant-curvature4", 4)
        va = G.evaluate_components(gh.comps, pts)
        vb = G.evaluate_components(cc.comps, pts)
        assert maxabs(va - vb) < 1e-12


class TestCoframe:
    def test_identity_coframe(self):
        g = entry("schwarzschild4").metric
        theta = np.diag([ONE] * 4).astype(object)
        theta[theta == 0] = ZERO
        c = G.coframe_components(g.field, theta)
        assert all(is_zero(c[idx] - g.comps[idx]) for idx in np.ndindex(4, 4))

    def test_rt_metric_constant_null_block(self):
        e = entry("rt5-quartic")
        c = G.coframe_components(e.metric.field, e.extras["coframe"])
        n = 5
        want = np.full((n, n), ZERO, dtype=object)
        want[0, 1] = want[1, 0] = ONE
        for i in range(2, n):
            want[i, i] = ONE
        assert all(is_zero(c[idx] - want[idx]) for idx in np.ndindex(n, n))

    def test_singular_coframe_rejected(self):
        g = entry("flat4").metric
        theta = np.full((4, 4), ZERO, dtype=object)
        with pytest.raises(G.SingularMetricError):
            G.coframe_components(g.field, theta)


class TestSampling:
    def test_rejects_singular_loci(self):
        e = entry("rt5-quartic")
        pts = e.points(20, seed=3)
        assert len(pts) == 20
        for p in pts:
            assert abs(p["r"]) > 1e-9
            assert 1.5 <= p["r"] <= 3.0

    def test_deterministic_for_seed(self):
        e = entry("schwarzschild4")
        assert e.points(5, seed=9) == e.points(5, seed=9)
        assert e.points(5, seed=9) != e.points(5, seed=10)

    def test_default_box(self):
        ch = G.Chart(("x", "y", "z"))
        pts = G.sample_points(ch, n=8, seed=0)
        for p in pts:
            for v in p.values():
                assert 0.5 <= v <= 1.5

    @staticmethod
    def _diag(g00):
        comps = np.full((3, 3), ZERO, dtype=object)
        comps[0, 0], comps[1, 1], comps[2, 2] = parse(g00), ONE, ONE
        return comps

    def test_redraws_points_where_the_metric_is_undefined(self):
        # the good points, in the order drawn, from the same stream
        ch = G.Chart(("x", "y", "z"))
        box = {"x": (-1.0, 3.0)}
        pts = G.sample_points(ch, n=8, seed=0, box=box,
                              metric=self._diag("2 + log(x)"))
        drawn = G.sample_points(ch, n=40, seed=0, box=box)
        assert any(p["x"] <= 0 for p in drawn[:8])
        assert pts == [p for p in drawn if p["x"] > 0][:8]

    def test_redraws_degenerate_points(self):
        ch = G.Chart(("x", "y", "z"))
        box = {"x": (-1.0, 1.0)}
        # diag(x, 1, 1) is nondegenerate at every draw here: nothing redrawn
        assert (G.sample_points(ch, n=8, seed=1, box=box,
                                metric=self._diag("x"))
                == G.sample_points(ch, n=8, seed=1, box=box))
        # degenerate everywhere: the attempt bound still ends the search
        comps = self._diag("1")
        comps[0, 1] = comps[1, 0] = parse("x")
        comps[1, 1] = parse("x^2")
        with pytest.raises(G.SingularMetricError, match=re.escape(
                "cannot sample 2 points: 0 of 2000 drawn from the box "
                "x in [0.5, 1.5], y in [0.5, 1.5], z in [0.5, 1.5] miss "
                "the singular loci and have a defined, finite, "
                "nondegenerate metric")):
            G.sample_points(ch, n=2, seed=0, metric=comps)


class TestSignature:
    def _metric(self):
        # diag(x, 1, 1): Riemannian for x > 0, Lorentzian for x < 0
        ch = G.Chart(("x", "y", "z"))
        comps = np.full((3, 3), ZERO, dtype=object)
        comps[0, 0], comps[1, 1], comps[2, 2] = parse("x"), ONE, ONE
        return G.MetricField(ch, comps)

    def test_assert_nondegenerate_names_the_first_degenerate_point(self):
        g = self._metric()
        pts = [{"x": v, "y": 0.0, "z": 0.0} for v in (1.0, -2.0, 0.0, 0.0)]
        CurvaturePack(g).samples(pts[:2])
        with pytest.raises(G.SingularMetricError, match="'x': 0.0"):
            CurvaturePack(g).samples(pts)
