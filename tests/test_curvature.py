import numpy as np
import pytest

from confein import catalog, taylor
from confein import geometry as G
from confein.config import Tolerances
from confein.curvature import (
    CurvaturePack,
    cotton_transform_check,
    identity_residuals,
    identity_suite,
    trace_free_residual,
    unpack_pairs,
    _contract_slot,
)
from confein.expressions import ONE, ZERO, diff, is_zero, parse
from conftest import (
    entry,
    maxabs,
    pack,
    perturbed_flat_metric,
    points,
    samples,
)

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
        got = unpack_pairs(s[name]) if name in ("C", "dC") else s[name]
        assert got.shape == want.shape, name
        assert maxabs(got - want) <= 1e-10 * scale, name


class TestMetricJetLadder:
    """The metric-jet ladder against the symbolic ladder as oracle."""

    @pytest.mark.parametrize("name", catalog.entry_names())
    def test_catalog_entry_matches_symbolic(self, name):
        assert_ladder_matches_symbolic(pack(name), points(name, 10))

    def test_rescaled_entry_matches_symbolic(self):
        g = G.conformal_rescale(entry("rt4-quartic").metric, parse("3*u/10"))
        assert_ladder_matches_symbolic(CurvaturePack(g),
                                       points("rt4-quartic", 10))

    # the tape runs on 32 points at a time and, from n = 5 on, the ladder on
    # 8 of them: a start of 33 or 3 moves every point across both
    # boundaries
    @pytest.mark.parametrize("name, start", [
        ("rt5-quartic", 33), ("rt5-quartic", 3), ("rt6-quartic", 33),
        ("rt6-quartic", 3)])
    def test_chunks_do_not_change_values(self, name, start):
        from confein import curvature
        p = pack(name)
        pts = points(name, 2 * curvature._CHUNK + 3)
        whole = p.samples(pts)
        part = p.samples(pts[start:])
        for key, v in part.values.items():
            assert maxabs(v - whole[key][start:]) <= \
                1e-13 * max(1.0, maxabs(v))

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("name, sizes", [
        ("rt4-quartic", [32, 32, 6]),
        ("rt5-quartic", [8] * 8 + [6]),
        ("rt6-quartic", [8] * 8 + [6])])
    def test_ladder_runs_on_eight_points_from_dimension_five(
            self, monkeypatch, name, sizes, order):
        from confein import curvature
        seen, ladder = [], curvature._ladder

        def counting(jet, n):
            seen.append(len(jet))
            return ladder(jet, n)

        monkeypatch.setattr(curvature, "_ladder", counting)
        pack(name).samples(points(name, 70), order)
        assert seen == sizes

    def test_no_points_give_empty_entries(self):
        s = pack("rt5-quartic").samples([])
        assert s["C"].shape == (0, 10, 10)
        assert s["dC"].shape == (0, 5, 10, 10)
        assert unpack_pairs(s["C"]).shape == (0,) + (5,) * 4

    def test_singular_point_raises_naming_the_point(self):
        ch = G.Chart(("x", "y", "z"))
        comps = np.array([[parse("x"), ZERO, ZERO], [ZERO, ONE, ZERO],
                          [ZERO, ZERO, ONE]], dtype=object)
        p = CurvaturePack(G.MetricField(ch, comps))
        pts = [{"x": 1.0, "y": 0.5, "z": 0.5},
               {"x": 0.0, "y": 0.25, "z": 0.5}]
        with pytest.raises(G.SingularMetricError, match="'y': 0.25"):
            p.samples(pts)


def whole_run_ladder(p, pts, order):
    """The samples' (jets, values) as the whole tape run's metric jet
    sliced per ladder step: the oracle of the per-step jets."""
    from confein import curvature as CV
    n = p.n
    bindings = [p.g.point_bindings(pt) for pt in pts]
    step = 8 if n >= 5 else CV._CHUNK
    jets, values = {}, {}
    for lo in range(0, len(pts), CV._CHUNK):
        jet = CV._metric_jet(p, bindings[lo:lo + CV._CHUNK], order + 3)
        for sub in range(0, len(jet), step):
            for store, part in zip((jets, values),
                                   CV._ladder(jet[sub:sub + step], n)):
                for name, v in part.items():
                    store.setdefault(name, []).append(v)
    return ({k: np.concatenate(v) for k, v in jets.items()},
            {k: np.concatenate(v) for k, v in values.items()})


def degenerate_pack(n):
    """diag(x, 1, ..., 1) in dimension n, degenerate where x = 0."""
    ch = G.Chart(tuple(f"x{i}" for i in range(n)))
    comps = np.full((n, n), ZERO, dtype=object)
    comps[0, 0] = parse("x0")
    for i in range(1, n):
        comps[i, i] = ONE
    return CurvaturePack(G.MetricField(ch, comps))


def degenerate_points(n, count, bad):
    """`count` distinct points, x0 = 0 (degenerate) at the indices `bad`."""
    return [{f"x{i}": (0.0 if p in bad and i == 0 else 1.0 + p / 100 + i)
             for i in range(n)} for p in range(count)]


class TestStreamedSamples:
    """`CurvatureSamples` runs the ladder on one step of a tape run's jet
    at a time and releases each step's outputs, and each run's jet, before
    the next; every value and jet is bitwise the one of the whole tape
    run's jet sliced per step."""

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("count", [1, 9, 33, 41, 65])
    @pytest.mark.parametrize("name", ["rt6-quartic", "rt5-quartic",
                                      "schwarzschild4", "hyperkahler4"])
    def test_per_step_jets_keep_every_bit(self, name, count, order):
        p = pack(name)
        pts = points(name, count)
        s = p.samples(pts, order)
        jets, values = whole_run_ladder(p, pts, order)
        assert set(s._jets) == set(jets)
        for key, want in jets.items():
            assert np.array_equal(s.jet(key), want), key
            assert np.array_equal(s[key], want[:, 0]), key
            if order and key != "ginv":
                assert np.array_equal(s["d" + key], want[:, 1:]), key
        for key, want in values.items():
            assert np.array_equal(s[key], want), key

    # the tape runs on 32 points and, at n = 5, the ladder on 8 of them:
    # index 9 is in the second ladder step of the first run, index 33 at
    # n = 4 in the second run
    @pytest.mark.parametrize("n, bad, named", [
        (5, {9}, 9), (5, {3, 9}, 3), (5, {9, 12}, 9),
        (4, {33}, 33), (4, {5, 33}, 5), (4, {33, 40}, 33)])
    def test_the_first_degenerate_point_is_named(self, n, bad, named):
        pts = degenerate_points(n, 41, bad)
        with pytest.raises(G.SingularMetricError) as exc:
            degenerate_pack(n).samples(pts)
        assert str(exc.value) == f"metric is degenerate at {pts[named]}"


class TestLadderSlices:
    """The ladder's per-point outputs do not depend on the other points of
    its step, nor on how many there are (a step of one point runs as two
    copies of it): the per-step slicing of `CurvatureSamples` relies on
    it."""

    NAMES = ["schwarzschild4", "schwarzschild5", "hyperkahler4",
             "rt6-quartic", "rt5-quartic", "rt4-quartic"]

    @staticmethod
    def _differs(name, sizes):
        from confein import curvature as CV
        p = pack(name)
        s = samples(name)
        jet = CV._metric_jet(p, s.bindings, 4)
        whole, lo, bad = CV._ladder(jet, p.n), 0, set()
        for size in sizes:
            for w, part in zip(whole, CV._ladder(jet[lo:lo + size], p.n)):
                bad |= {k for k, v in part.items()
                        if not np.array_equal(v, w[k][lo:lo + size])}
            lo += size
        return sorted(bad)

    @pytest.mark.parametrize("sizes", [[2] * 5, [3, 2, 2, 3], [7, 3]])
    @pytest.mark.parametrize("name", NAMES)
    def test_slices_of_two_or_more_points_keep_every_bit(self, name, sizes):
        assert self._differs(name, sizes) == []

    def test_one_point_steps_keep_every_bit(self):
        assert self._differs("schwarzschild4", [1] * 10) == []

    # 41 points: at n = 4 a tape run of 32 and one of 9, at n = 5 steps of
    # 8; the first k of them end in a 1-point step at k = 33 (n = 4) and
    # at every k = 1 mod 8 (n = 5)
    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("name", ["schwarzschild4", "rt5-quartic"])
    def test_samples_of_k_points_are_the_first_k_of_more(self, name, order):
        pts = points(name, 41)
        whole = pack(name).samples(pts, order=order)
        for k in range(1, 41):
            part = pack(name).samples(pts[:k], order=order)
            for key, v in part.values.items():
                assert v.tobytes() == whole[key][:k].tobytes(), (k, key)
            assert part.jet("ginv").tobytes() == \
                whole.jet("ginv")[:k].tobytes(), k


VALUES = ("g", "ginv", "gamma", "ricci", "scalar", "P", "J", "C", "A")


class TestValuesOnly:
    """Samples of order 0: the ladder on the order-3 prefix of the metric
    jet, values only."""

    # 10 points: from n = 5 on, a ladder chunk of 8 and one of 2
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", catalog.entry_names())
    def test_values_are_those_of_the_full_ladder(self, name, seed):
        got = pack(name).samples(points(name, 10, seed), order=0)
        full = samples(name, 10, seed)
        assert got.order == 0 and set(got.values) == set(VALUES)
        for key in VALUES:
            assert got[key].shape == full[key].shape, key
            assert got[key].tobytes() == full[key].tobytes(), key
        for key in ("g", "ginv", "P", "J", "C", "A"):
            assert got.jet(key).shape == (10, 1) + full[key].shape[1:], key

    @pytest.mark.parametrize("name", catalog.entry_names())
    def test_tape_prefix_has_the_bits_of_the_whole_tape(self, name):
        # the metric-jet tape is monomial-major, so the order-3 partials
        # are its first S size(n, 3) outputs (S components g_ij, i <= j),
        # and its order-3 prefix computes them with the whole tape's bits
        from confein.evaluate import run_batch
        p = pack(name)
        bindings = [p.g.point_bindings(pt) for pt in points(name, 10)]
        full, prefix = p.metric_jet_tape(), p.metric_jet_tape(3)
        count = p.n * (p.n + 1) // 2 * taylor.size(p.n, 3)
        assert len(prefix.outputs) == count and len(prefix) <= len(full)
        got = run_batch(prefix, bindings)
        want = run_batch(full, bindings)[:, :count]
        assert got.shape == want.shape == (10, count)
        assert got.tobytes() == want.tobytes()

    def test_partials_and_bach_raise(self):
        from confein import obstructions as OB, taylor
        name = "schwarzschild5"
        s = pack(name).samples(points(name, 10), order=0)
        for key in ("dg", "dP", "dJ", "dC", "dA", "B"):
            with pytest.raises(KeyError):
                s[key]
        # an order-1 jet cannot be read from the jets of order 0
        with pytest.raises(ValueError, match="order 1"):
            taylor.product("ab,bc->ac", s.jet("g"), s.jet("ginv"), s.n, 1)
        # so neither can K's partials, under a policy whose gate passes
        for policy in ("from-L", "from-C"):
            assert OB.k_field(samples(name), policy).d_lowered.shape == \
                (10, 5, 5)
            with pytest.raises(ValueError, match="order 1"):
                OB.k_field(s, policy)

    def test_no_other_order(self):
        with pytest.raises(ValueError, match="expected 0 or 1"):
            pack("schwarzschild4").samples(points("schwarzschild4", 2), 2)


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
        rep = identity_suite(pack(name), points(name, 10))
        assert all(ok for (_, _, ok) in rep.values()), {
            k: v for k, v in rep.items() if not v[2]}

    def test_flat_residuals_exactly_zero(self):
        rep = identity_suite(pack("flat4"), points("flat4", 5))
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
            v = G.TensorField(g.chart, (G.UP,), np.array(
                [parse(f"{coeffs[i][0]}*{g.chart.coords[0]}"
                       f" + {coeffs[i][1]}*{g.chart.coords[1]}^2")
                 for i in range(n)], dtype=object))
            dv = G.covariant_derivative(v, g)
            ddv = G.covariant_derivative(dv, g)
            vals = G.evaluate_components(ddv.comps, b)
            comm = vals - np.transpose(vals, (0, 2, 1, 3))
            vv = G.evaluate_components(v.comps, b)
            want = np.einsum("pabcd,pd->pabc", rm, vv)
            scale = max(1.0, maxabs(want))
            assert maxabs(comm - want) / scale < 1e-8


def _slot_oracle(c4, gi, pattern):
    """The n^4 Weyl tensor with the 1-marked slots raised one at a time
    (`_contract_slot`): how every slot pattern was built before the pair
    basis."""
    for slot, flag in enumerate(pattern):
        if flag:
            c4 = _contract_slot(c4, gi, slot)
    return c4


def _close(got, want):
    assert got.shape == want.shape
    assert maxabs(got - want) <= 1e-13 * maxabs(want)


class TestPairBasis:
    """The Weyl tensor kept as pair matrices against the n^4 oracle."""

    @staticmethod
    def _n4(x, n):
        """The n^4 unpack of the ladder before the pair basis."""
        a, b = np.triu_indices(n, 1)
        idx = np.zeros((n, n), dtype=np.int64)
        idx[a, b] = idx[b, a] = np.arange(len(a))
        sign = np.zeros((n, n))
        sign[a, b], sign[b, a] = 1.0, -1.0
        flat = (idx[:, :, None, None] * len(a) + idx).reshape(-1)
        out = np.take(x.reshape(x.shape[:-2] + (-1,)), flat, axis=-1)
        out *= np.multiply.outer(sign, sign).reshape(-1)
        return out.reshape(x.shape[:-2] + (n,) * 4)

    @pytest.mark.parametrize("name", ["rt4-quartic", "rt5-quartic",
                                      "rt6-quartic", "schwarzschild5"])
    def test_unpack_reproduces_the_n4_tensor_bitwise(self, name):
        s = samples(name, 6)
        for key in ("C", "dC"):
            assert np.array_equal(unpack_pairs(s[key]).view(np.int64),
                                  self._n4(s[key], s.n).view(np.int64))

    @pytest.mark.parametrize("name", ["rt4-quartic", "rt5-quartic",
                                      "rt6-quartic"])
    def test_raised_patterns_match_the_slot_oracle(self, name):
        # the five slot patterns the consumers raised one slot at a time:
        # the three pair patterns directly, and C_a^cde and C_a^c_d^e
        # through L^a_b = C^acde C_bcde and its partials
        from confein import genericity as GN
        from confein import obstructions as OB
        s = samples(name, 6)
        n, npts, gi = s.n, len(s.points), s["ginv"]
        C = unpack_pairs(s["C"])
        a, b = np.triu_indices(n, 1)
        for pattern in ((0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)):
            _close(s.raised("C", pattern), _slot_oracle(C, gi, pattern)[
                :, a[:, None], b[:, None], a, b])
        cup3 = _slot_oracle(C, gi, (0, 1, 1, 1)).reshape(npts, n, -1)
        low = C.reshape(npts, n, -1) @ np.swapaxes(cup3, 1, 2)
        _close(GN.l_operators(s).matrices, gi @ low)
        # d L_ab: dC against C_b^cde, and the dg^-1 terms of slot c with
        # C_ac^de C_bfde and of slots d, e with C_a^c_d^e C_bcfe
        dgi = s.jet("ginv")[:, 1:]
        t = (unpack_pairs(s["dC"]).reshape(npts, n * n, -1)
             @ np.swapaxes(cup3, 1, 2)).reshape(npts, n, n, n)

        def slot_terms(x, y):
            xy = x.reshape(npts, n * n, -1) @ np.swapaxes(
                y.reshape(npts, n * n, -1), 1, 2)
            return xy.reshape((npts,) + (n,) * 4).transpose(
                0, 2, 4, 1, 3).reshape(npts, n * n, n * n)

        x = (slot_terms(_slot_oracle(C, gi, (0, 0, 1, 1)), C)
             + 2.0 * slot_terms(
                 _slot_oracle(C, gi, (0, 1, 0, 1)).transpose(0, 1, 3, 2, 4),
                 C.transpose(0, 1, 3, 2, 4)))
        dlow = t + np.swapaxes(t, 2, 3) + (
            dgi.reshape(npts, n, n * n) @ x).reshape(npts, n, n, n)
        _close(OB._l_jet(s, 1)[:, 1:],
               dgi @ low[:, None] + gi[:, None] @ dlow)

    def test_whole_pairs_only(self):
        with pytest.raises(ValueError, match="whole slot pairs"):
            samples("rt4-quartic", 2).raised("C", (0, 1, 1, 1))

    def test_classify_builds_no_n4_weyl_array(self, monkeypatch, tmp_path):
        # classify reads the Weyl tensor as pair matrices only: every
        # builder of its n^4 components is out of reach
        from confein import cli
        from confein import curvature as CV
        from confein import genericity as GN
        from confein import obstructions as OB
        from confein.mspecfile import dumps_mspec, entry_to_mspec

        def boom(*args, **kwargs):
            raise AssertionError("an n^4 Weyl array was built")

        def contract_slot(arr, gi, slot):
            # the Weyl operator raises the slots of the rows a < b of C
            if arr.ndim > 4:
                boom()
            return _contract_slot(arr, gi, slot)

        for mod, name in ((CV, "unpack_pairs"), (GN, "unpack_pairs"),
                          (OB, "unpack_pairs"), (GN, "_pair_tensor"),
                          (OB, "_pair_tensor")):
            monkeypatch.setattr(mod, name, boom)
        monkeypatch.setattr(GN, "_contract_slot", contract_slot)
        monkeypatch.setattr(CV, "_contract_slot", contract_slot)
        path = tmp_path / "rt6-quartic.mspec"
        path.write_text(dumps_mspec(entry_to_mspec(entry("rt6-quartic"), 20)))
        assert cli.main(["classify", str(path), "--json",
                         str(tmp_path / "out.json")]) == 1


@pytest.mark.parametrize("name", catalog.entry_names() + ["dense4"])
def test_partials_are_the_nodes_of_a_plain_diff_loop(name):
    # every d^alpha g_ij of the metric-jet tape is the very node (`is`)
    # that differentiating g_ij along alpha's exponents, one variable after
    # another, gives: skipping the partials of a ZERO parent changes none
    from confein import curvature as CV

    g = perturbed_flat_metric() if name == "dense4" else entry(name).metric
    coords = g.chart.coords
    i, j = np.triu_indices(len(coords))
    exprs = list(g.comps[i, j])
    got = CV._partials(exprs, coords, 4)
    want = []
    for e in exprs:
        for alpha in taylor.monomials(len(coords), 4):
            d = e
            for v, times in enumerate(alpha):
                for _ in range(times):
                    d = diff(d, coords[v])
            want.append(d)
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))
