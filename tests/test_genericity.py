import numpy as np
import pytest

from confein import genericity as GN
from confein import linalg
from confein import obstructions as OB
from confein.config import Tolerances
from confein.curvature import _pair_cols, pack_pairs, unpack_pairs
from confein.expressions import parse
from conftest import entry, kernel_contains, maxabs, pack, points, samples

TOL = Tolerances()


# The per-point builds the stacked systems replaced, kept as oracles: the
# entry-by-entry loop of the symmetric system, and the dual system on all
# n^(n-2) rows of the volume-form dual Cstar.

def _point_symmetric_system_loop(t, g):
    n = g.shape[0]
    cols = [(b, d) for b in range(n) for d in range(b, n)]
    rows = [[t[(b,) + rest + (d,)]
             + (t[(d,) + rest + (b,)] if b != d else 0.0)
             for b, d in cols] for rest in np.ndindex(*t.shape[1:-1])]
    rows.append([(2.0 if b != d else 1.0) * g[b, d] for b, d in cols])
    return np.array(rows)


def _point_symmetric_system(t, g):
    n = g.shape[0]
    b, d = np.triu_indices(n)
    off = b != d
    tt = np.moveaxis(t, -1, 1).reshape(n, n, -1)   # tt[b, d, r]
    cols = tt[b, d]
    cols[off] += tt[d[off], b[off]]
    return np.vstack([cols.T, np.where(off, 2.0, 1.0) * g[b, d]])


def _cstar(C, eps, gi, n):
    """Cstar_{b1..b_{n-2} c d} = eps_{b1..b_{n-2}}^{a1 a2} C_{a1 a2 c d}."""
    cup = np.einsum("abcd,ae,bf->efcd", C, gi, gi)
    eps_flat = eps.reshape((n,) * (n - 2) + (n * n,))
    cup_flat = cup.reshape((n * n, n, n))
    return np.tensordot(eps_flat, cup_flat, axes=([-1], [0]))


def _full_dual_systems(C, gi, g, root):
    n = g.shape[-1]
    levi = GN._levi_civita(n)
    return np.stack([_point_symmetric_system(
        _cstar(C[p], levi * root[p], gi[p], n), g[p]) for p in range(len(C))])


def _oracle_dual_dims(C, gi, g, root, scale):
    full = _full_dual_systems(C, gi, g, root)
    return [full.shape[2] - int(linalg.rank(m, TOL.rank_tol, f)[0])
            for m, f in zip(full, scale)]


def _cup_pairs(C, gi):
    """The pair matrices of C^ab_cd from the n^4 components of C."""
    a, b = GN.pair_basis(C.shape[-1])
    cup = np.einsum("pabcd,pae,pbf->pefcd", C, gi, gi)
    return cup[:, a[:, None], b[:, None], a, b]


def _dual_dims(C, gi, g, root, scale):
    n = g.shape[-1]
    ranks = linalg.rank(GN._dual_system(_cup_pairs(C, gi), g, root),
                        TOL.rank_tol, scale)
    return (n * (n + 1) // 2 - ranks).tolist()


def _kept_rows(n):
    """Indices of the rows (b2 < ... < b_{n-2}, c) and the trace row in the
    full dual system."""
    keep = [i for i, r in enumerate(np.ndindex(*(n,) * (n - 2)))
            if all(x < y for x, y in zip(r[:-2], r[1:-1]))]
    return keep + [n ** (n - 2)]


def _assert_dropped_rows_repeat(full, keep):
    """Every row of the full systems outside `keep` is exactly zero or
    exactly plus or minus a kept row."""
    for system in full:
        kept = system[keep]
        for i in sorted(set(range(len(system))) - set(keep)):
            row = system[i]
            assert not row.any() or any(
                np.array_equal(row, k) or np.array_equal(row, -k)
                for k in kept)


def _batch(s):
    g = s["g"]
    return (unpack_pairs(s["C"]), s["ginv"], g,
            np.sqrt(np.abs(np.linalg.det(g))))


def _kn(h, k):
    """Kulkarni-Nomizu product of two stacks of symmetric matrices."""
    e = np.einsum
    return (e("pac,pbd->pabcd", h, k) + e("pbd,pac->pabcd", h, k)
            - e("pad,pbc->pabcd", h, k) - e("pbc,pad->pabcd", h, k))


def _weyl_stack(n, seed):
    """Random Weyl tensors for random Riemannian metrics, at four points:
    from a sum of Kulkarni-Nomizu squares (generic), from one and from two
    decomposable terms (w x w for a simple 2-form w, low rank), and one
    scaled to 1e-20 (below the floor).  Returns (C, gi, g, root, scale)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, n, n))
    g = np.einsum("pab,pcb->pac", a, a) + n * np.eye(n)
    gi = np.linalg.inv(g)
    sym = rng.normal(size=(4, 4, n, n))
    sym = sym + np.swapaxes(sym, -1, -2)
    R = sum(_kn(sym[:, i], sym[:, i]) for i in range(4))
    u, v = rng.normal(size=(2, 2, n))
    w = np.einsum("ia,ib->iab", u, v) - np.einsum("ia,ib->iab", v, u)
    simple = np.einsum("iab,icd->iabcd", w, w)
    R[1], R[2] = simple[0], simple[0] + simple[1]
    ric = np.einsum("pac,pabcd->pbd", gi, R)
    scal = np.einsum("pbd,pbd->p", gi, ric)
    P = (ric - scal[:, None, None] * g / (2 * (n - 1))) / (n - 2)
    C = R - _kn(P, g)
    C[3] *= 1e-20 / np.max(np.abs(C[3]))
    assert maxabs(np.einsum("pac,pabcd->pbd", gi, C)) < 1e-9 * maxabs(C)
    scale = np.maximum(1.0, np.max(np.abs(C.reshape(4, -1)), axis=1))
    return C, gi, g, np.sqrt(np.linalg.det(g)), scale


class TestWeylOperator:
    def test_conformally_flat_operator_vanishes(self):
        s = samples("constant-curvature4", 4)
        wm, wdet, _ = GN.weyl_operators(s)
        lm, ldet, _ = GN.l_operators(s)
        assert maxabs(wm[0]) < 1e-12 and wdet[0] == 0.0
        assert maxabs(lm[0]) < 1e-12 and ldet[0] == 0.0

    def test_adjugate_identity_on_two_form_space(self):
        s = samples("rt5-quartic", 4)
        m, det, adj = GN.weyl_operators(s)
        for p in range(3):
            resid = adj[p] @ m[p] - det[p] * np.eye(len(m[p]))
            assert maxabs(resid) <= 1e-8 * max(1.0, abs(det[p]))

    def test_weyl_det_conformal_rescale_exponent(self):
        from confein.curvature import CurvaturePack
        from confein.geometry import conformal_rescale, evaluate_components
        e = entry("rt5-quartic")
        pts = points("rt5-quartic", 3)
        s = pack("rt5-quartic").samples(pts)
        ups = parse("log(r)")
        sh = CurvaturePack(conformal_rescale(e.metric, ups)).samples(pts)
        uvals = evaluate_components(ups, s.bindings)[:, ]
        n = 5
        for p in range(3):
            d0 = GN.weyl_operators(s)[1][p]
            d1 = GN.weyl_operators(sh)[1][p]
            w = np.log(d1 / d0) / uvals[p]
            assert abs(w - (-n * (n - 1))) < 1e-6

    def test_l_operator_symmetric_when_lowered(self):
        s = samples("rt5-quartic", 3)
        for p in range(3):
            low = np.einsum("ab,bc->ac", s["g"][p], GN.l_operators(s)[0][p])
            assert maxabs(low - low.T) < 1e-9 * max(1, maxabs(low))

    def test_hyperkahler_l_is_quarter_weyl_norm_identity(self):
        s = samples("hyperkahler4", 4)
        call = unpack_pairs(s.raised("C", (1, 1, 1, 1)))
        c2 = np.einsum("pabcd,pabcd->p", call, unpack_pairs(s["C"]))
        for p in range(4):
            lm = GN.l_operators(s)[0][p]
            assert maxabs(lm - (c2[p] / 4) * np.eye(4)) < 1e-10 * c2[p]
            assert GN.weyl_operators(s)[1][p] == pytest.approx(0.0, abs=1e-8)

    def test_dimension4_weyl_contraction_identity(self):
        s = samples("rt4-quartic", 4)
        call = unpack_pairs(s.raised("C", (1, 1, 1, 1)))
        c = unpack_pairs(s["C"])
        c2 = np.einsum("pabcd,pabcd->p", call, c)
        lhs = 4 * np.einsum("pabcd,pabce->pde", call, c)
        resid = lhs - c2[:, None, None] * np.eye(4)[None]
        assert maxabs(resid) < 1e-9 * np.max(np.abs(c2))


def _dual(s, policy):
    """The left inverse Dt^acde of the Weyl tensor at the points of s, the
    values of the oracle `dual_candidate_jet`."""
    return OB.dual_candidate_jet(s, policy)[:, 0]


def _defining_residual(dt, s):
    """Max deviation of Dt^acde C_bcde from -identity, per point."""
    C = unpack_pairs(s["C"])
    contr = np.einsum("pacde,pbcde->pab", dt, C)
    eye = np.eye(C.shape[1])[None]
    return np.max(np.abs(contr + eye).reshape(C.shape[0], -1), axis=1)


class TestDualCandidates:
    @pytest.mark.parametrize("policy", ["from-L", "from-C"])
    def test_defining_property(self, policy):
        s = samples("rt5-quartic", 4)
        assert np.max(_defining_residual(_dual(s, policy), s)) < 1e-7

    def test_dim4_policy_defining_property(self):
        s = samples("rt4-quartic", 4)
        assert np.max(_defining_residual(_dual(s, "dim4-C3"), s)) < 1e-7

    def test_schwarzschild_from_l_succeeds(self):
        s = samples("schwarzschild4", 4)
        dt, dets = OB._left_inverse(s, "from-L", TOL)
        assert np.max(_defining_residual(dt[:, 0], s)) < 1e-7
        assert np.all(np.abs(dets[:, 0]) > 0)

    def test_pp_wave_all_policies_fail(self):
        s = samples("pp-wave4", 4)
        for policy in ("from-L", "from-C", "dim4-C3"):
            with pytest.raises(GN.PolicyError):
                _dual(s, policy)

    def test_policies_agree_on_k(self):
        s = samples("rt5-quartic", 4)
        ka = np.einsum("pfabc,pabc->pf", _dual(s, "from-L"), s["A"])
        kc = np.einsum("pfabc,pabc->pf", _dual(s, "from-C"), s["A"])
        assert maxabs(ka - kc) < 1e-7 * max(1, maxabs(ka))

    def test_canonical_placement_is_conformally_invariant(self):
        from confein.curvature import CurvaturePack
        from confein.geometry import conformal_rescale
        e = entry("rt5-quartic")
        pts = points("rt5-quartic", 3)
        s = pack("rt5-quartic").samples(pts)
        sh = CurvaturePack(conformal_rescale(e.metric,
                                             parse("log(r)"))).samples(pts)
        can = np.einsum("pxd,pacxe->pacde", s["g"], _dual(s, "from-L"))
        canh = np.einsum("pxd,pacxe->pacde", sh["g"], _dual(sh, "from-L"))
        assert maxabs(can - canh) < 1e-7 * maxabs(can)


class TestClassification:
    def test_rt_quartic_lambda2_generic_with_recorded_dual_kernel(self):
        # the skew and plain symmetric systems are trivial; the
        # volume-form-dualized system genuinely admits solutions for this
        # family (recorded, not assumed -- see the catalog entry note)
        rep = GN.classify_genericity(samples("rt5-quartic", 6))
        assert rep.lambda2_generic and rep.weakly_generic
        assert rep.all_agree
        for pg in rep.per_point:
            assert pg.skew_kernel_dim == 0
            assert pg.sym_kernel_dim == 0
            assert pg.dual_kernel_dim > 0
        assert not rep.generic

    def test_random_cubic_perturbation_is_fully_generic(self):
        # almost all metrics are generic: all three kernel systems trivial
        from conftest import perturbed_flat_metric
        from confein.curvature import CurvaturePack
        from confein.geometry import sample_points
        g = perturbed_flat_metric(seed=3)
        s = CurvaturePack(g).samples(
            sample_points(g.chart, n=3, seed=4))
        rep = GN.classify_genericity(s)
        assert rep.generic
        for pg in rep.per_point:
            assert (pg.skew_kernel_dim, pg.sym_kernel_dim,
                    pg.dual_kernel_dim) == (0, 0, 0)

    def test_pp_wave_kernel_contains_r_direction(self):
        rep = GN.classify_genericity(samples("pp-wave4", 6))
        assert not rep.weakly_generic
        er = np.zeros(4)
        er[1] = 1.0  # coordinates are (u, r, x1, x2)
        assert kernel_contains(rep, er, tol=1e-10)

    def test_pp_wave_invertible_hessian_kernel_is_exactly_r(self):
        # h = x1^2 - x2^2 has invertible trace-free transverse Hessian
        rep = GN.classify_genericity(samples("pp-wave4-ricci-flat", 6))
        for pg in rep.per_point:
            assert pg.weak_kernel.shape[1] == 1

    def test_hyperkahler_weakly_but_not_lambda2(self):
        rep = GN.classify_genericity(samples("hyperkahler4", 6))
        assert rep.weakly_generic
        assert not rep.lambda2_generic
        for pg in rep.per_point:
            assert pg.skew_kernel_dim >= 3

    def test_conformally_flat_everything_degenerate(self):
        rep = GN.classify_genericity(samples("constant-curvature4", 4))
        assert not rep.weakly_generic
        for pg in rep.per_point:
            assert abs(pg.weyl_det) < 1e-30
            assert pg.weak_kernel.shape[1] == 4  # everything is annihilated

    @pytest.mark.parametrize("name", ["flat4", "constant-curvature4",
                                      "pp-wave4", "hyperkahler4",
                                      "rt4-quartic", "rt5-quartic",
                                      "schwarzschild4"])
    def test_implication_chain(self, name):
        rep = GN.classify_genericity(samples(name, 5))
        for pg in rep.per_point:
            if pg.generic:
                assert pg.lambda2_generic
            if pg.lambda2_generic:
                assert pg.weakly_generic

    def test_rt4_cubic_scalars_nonzero(self):
        rep = GN.classify_genericity(samples("rt4-quartic", 5))
        for pg in rep.per_point:
            assert max(abs(pg.c3), abs(pg.c3_star)) > 1e-6

    @pytest.mark.parametrize("name", ["rt4-quartic", "hyperkahler4",
                                      "schwarzschild4"])
    def test_dim4_scalars_match_the_point_loop(self, name):
        # the per-point build the batch replaced; the arithmetic is
        # unchanged, so the scalars must be equal
        s = samples(name, 5)
        m = GN.weyl_operators(s)[0]
        cup = s.raised("C", (1, 1, 0, 0))
        g2 = s.pair_metric()[:, 0]
        root = np.sqrt(np.abs(np.linalg.det(s["g"])))
        eps = pack_pairs(GN._levi_civita(4))
        c3, c3s = GN.dim4_scalars(s)
        for p in range(len(s.points)):
            cstar = (2.0 * root[p]) * (eps @ cup[p])
            cs = 2.0 * (cstar @ g2[p])
            assert c3[p] == np.einsum("ij,jk,ki->", m[p], m[p], m[p])
            assert c3s[p] == np.einsum("ij,jk,ki->", cs, cs, cs)
        assert GN.weyl_c3(s) is c3

    @pytest.mark.parametrize("name", ["rt4-quartic", "hyperkahler4",
                                      "schwarzschild4"])
    def test_dim4_scalars_match_the_n4_contractions(self, name):
        # the full contractions of the n^4 tensors with their slots raised
        # one at a time: the same sums in another order, equal to roundoff
        s = samples(name, 5)
        cmix = unpack_pairs(s.raised("C", (0, 0, 1, 1)))
        cup2 = unpack_pairs(s.raised("C", (1, 1, 0, 0)))
        root = np.sqrt(np.abs(np.linalg.det(s["g"])))
        c3, c3s = GN.dim4_scalars(s)
        for p in range(len(s.points)):
            eps = GN._levi_civita(4) * root[p]
            cstar = np.einsum("abef,efcd->abcd", eps, cup2[p])
            cs = np.einsum("abcd,ce,df->abef", cstar, s["ginv"][p],
                           s["ginv"][p])
            want = np.einsum("abcd,cdef,efab->", cmix[p], cmix[p], cmix[p])
            assert abs(c3[p] - want) <= 1e-13 * max(1.0, abs(want))
            want = np.einsum("abcd,cdef,efab->", cs, cs, cs)
            assert abs(c3s[p] - want) <= 1e-13 * max(1.0, abs(want))

    def test_spec_level_point_wrappers(self):
        s = pack("rt4-quartic").samples(points("rt4-quartic", 1))
        wm = GN.weyl_operators(s)[0][0]
        lm = GN.l_operators(s)[0][0]
        assert wm.shape[0] == 6
        assert lm.shape == (4, 4)


class TestPairLayer:
    """The gathers against the entry-by-entry loops they replaced; the
    arithmetic is unchanged, so the results must be equal."""

    @staticmethod
    def _two_pair_tensor(n, seed):
        t = np.random.default_rng(seed).normal(size=(n,) * 4)
        t = t - np.transpose(t, (1, 0, 2, 3))
        return t - np.transpose(t, (0, 1, 3, 2))

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_pair_matrix_and_tensor_match_loops(self, n):
        t = self._two_pair_tensor(n, n)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        want = np.array([[2.0 * t[a, b, c, d] for c, d in pairs]
                         for a, b in pairs])
        m = GN._pair_matrix(t)
        assert np.array_equal(m, want)
        assert np.array_equal(GN._pair_tensor(m), t)
        batch = np.stack([t, 2 * t])
        assert np.array_equal(GN._pair_matrix(batch)[1], 2 * want)
        assert np.array_equal(GN._pair_tensor(GN._pair_matrix(batch)), batch)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_pair_rows_extend_the_row_pairs(self, n):
        t = self._two_pair_tensor(n, n)
        a, b = GN.pair_basis(n)
        # t antisymmetric in its first pair, with the second pair ranked
        want = 2.0 * t[..., a, b]
        batch = np.stack([GN._pair_matrix(t), 3 * GN._pair_matrix(t)])
        rows = GN._pair_rows(batch)
        assert rows.shape == (2, n, n, len(a))
        assert np.array_equal(rows[0], want)
        assert np.array_equal(rows[1], 3 * want)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_symmetric_systems_match_loops(self, n):
        rng = np.random.default_rng(n)
        ts = rng.normal(size=(3,) + (n,) * n)
        gs = rng.normal(size=(3, n, n))
        systems = GN._symmetric_system(ts, gs)
        assert systems.shape == (3, n ** (n - 2) + 1, n * (n + 1) // 2)
        for t, g, system in zip(ts, gs, systems):
            assert np.array_equal(system, _point_symmetric_system_loop(t, g))

    def test_weyl_operator_built_once_per_batch(self, monkeypatch):
        from confein import linalg
        from confein.curvature import CurvaturePack
        calls = []
        adjugate = linalg.adjugate
        monkeypatch.setattr(linalg, "adjugate",
                            lambda a, d=None: calls.append(1)
                            or adjugate(a, d))
        s = CurvaturePack(entry("rt5-quartic").metric).samples(
            points("rt5-quartic", 3))
        GN.classify_genericity(s)
        OB.f1(s)
        OB.f2(s)
        GN._pair_tensor(GN.weyl_operators(s)[2][1])
        assert len(calls) == 1  # one stacked call for the whole batch


class TestDualSystem:
    """The dual system on its independent rows against the full per-point
    build it replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["rt5-quartic", "schwarzschild5",
                                      "schwarzschild-de-sitter5",
                                      "rt6-quartic"])
    def test_catalog_dual_dims_match_full_system(self, name, seed):
        s = samples(name, 10, seed)
        rep = GN.classify_genericity(s)
        want = _oracle_dual_dims(*_batch(s), s.scale())
        assert [pg.dual_kernel_dim for pg in rep.per_point] == want

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_weyl_dual_dims_match_full_system(self, n):
        stack = _weyl_stack(n, n)
        want = _oracle_dual_dims(*stack)
        assert _dual_dims(*stack) == want
        # trivial, the catalog's kernel, a smaller one, and all but the
        # trace row through the floor
        assert want == {5: [0, 8, 2, 14], 6: [0, 12, 4, 20]}[n]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_dropped_rows_are_zero_or_signed_copies(self, n):
        # any C will do: the rows repeat because eps is antisymmetric
        rng = np.random.default_rng(n)
        C = rng.normal(size=(3,) + (n,) * 4)
        a = rng.normal(size=(3, n, n))
        g = np.einsum("pab,pcb->pac", a, a) + n * np.eye(n)
        gi = np.linalg.inv(g)
        root = np.sqrt(np.linalg.det(g))
        full = _full_dual_systems(C, gi, g, root)
        keep = _kept_rows(n)
        assert len(keep) == len(GN._dual_epsilon(n)) + 1
        if n <= 4:
            assert keep == list(range(n ** (n - 2) + 1))
        _assert_dropped_rows_repeat(full, keep)
        # the reduced build reads C as pair matrices, so it is compared on
        # the part of C antisymmetric in both pairs
        C = C - np.transpose(C, (0, 2, 1, 3, 4))
        C = C - np.transpose(C, (0, 1, 2, 4, 3))
        full = _full_dual_systems(C, gi, g, root)
        reduced = GN._dual_system(_cup_pairs(C, gi), g, root)
        for sys_full, sys_red in zip(full, reduced):
            kept = sys_full[keep]
            assert maxabs(sys_red - kept) <= 1e-13 * maxabs(kept)
        _assert_dropped_rows_repeat(full, keep)

    def test_catalog_dropped_rows_are_zero_or_signed_copies(self):
        C, gi, g, root = _batch(samples("rt6-quartic", 10))
        full = _full_dual_systems(C, gi, g, root)
        _assert_dropped_rows_repeat(full, _kept_rows(6))


class TestStreamedSystems:
    """`classify_genericity` builds and ranks the symmetric and dual
    systems one elimination chunk at a time; the chunks it ranks are
    bitwise the rows of the systems built in one piece, with their floors,
    and the kernel dimensions are theirs."""

    @staticmethod
    def _ranked(monkeypatch, s):
        """classify_genericity(s), and the (systems, floors) of each
        linalg.rank call after the weak and skew systems'."""
        seen, rank = [], linalg.rank

        def recording(a, tol, floor):
            seen.append((a, floor))
            return rank(a, tol, floor)

        monkeypatch.setattr(linalg, "rank", recording)
        return GN.classify_genericity(s), seen[2:]

    @pytest.mark.parametrize("budget", [linalg.CHUNK_BYTES, 1])
    @pytest.mark.parametrize("name", ["rt6-quartic", "rt5-quartic",
                                      "schwarzschild4", "hyperkahler4"])
    def test_kernel_dims_match_the_one_piece_systems(self, monkeypatch,
                                                     name, budget):
        s = samples(name, 41)
        n, g = s.n, s["g"]
        root = np.sqrt(np.abs(np.linalg.det(g)))
        sym = GN._weyl_symmetric_system(s["C"], g)
        dual = GN._dual_system(s.raised("C", (1, 1, 0, 0)), g, root)
        cols = n * (n + 1) // 2
        want = [(cols - linalg.rank(m, TOL.rank_tol, s.scale())).tolist()
                for m in (sym, dual)]
        # the default budget takes 25 rt6-quartic dual systems (121 x 21)
        # to a chunk, so 41 points take 2 chunks; a budget of 1 gives one
        # point each
        monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)
        rep, seen = self._ranked(monkeypatch, s)
        assert [pg.sym_kernel_dim for pg in rep.per_point] == want[0]
        assert [pg.dual_kernel_dim for pg in rep.per_point] == want[1]
        chunks = [len(linalg.chunks(41, *m.shape[1:])) for m in (sym, dual)]
        assert len(seen) == sum(chunks)
        for m, part in zip((sym, dual), (seen[:chunks[0]],
                                         seen[chunks[0]:])):
            assert np.array_equal(np.concatenate([a for a, _ in part]), m)
            assert np.array_equal(np.concatenate([f for _, f in part]),
                                  s.scale())

    def test_chunks_are_sized_by_the_systems(self, monkeypatch):
        # 41 rt6-quartic points: the 37-row symmetric systems fit one
        # chunk, the 121-row dual systems take two (25 + 16)
        seen = self._ranked(monkeypatch, samples("rt6-quartic", 41))[1]
        assert [a.shape for a, _ in seen] == [
            (41, 37, 21), (25, 121, 21), (16, 121, 21)]


class TestPairBasisSystems:
    """The systems read off the pair matrices against their n^4 builds."""

    @pytest.mark.parametrize("name", ["rt4-quartic", "rt5-quartic",
                                      "rt6-quartic", "pp-wave4"])
    def test_symmetric_systems_are_the_n4_builds(self, name):
        # the same entries, gathered with their signs: equal bit for bit
        s = samples(name, 6)
        n, npts, g = s.n, len(s.points), s["g"]
        C = s["C"]
        want = GN._symmetric_system(np.swapaxes(unpack_pairs(C), 1, 2), g)
        assert np.array_equal(GN._weyl_symmetric_system(C, g), want)
        # rows (b, s) of a tensor antisymmetric in its last pair only, as
        # the dual system reads them
        x = np.random.default_rng(n).normal(
            size=(npts, 3 * n, len(GN.pair_basis(n)[0])))
        row = np.arange(3 * n).reshape(n, 3)
        want = GN._symmetric_system(_pair_cols(x).reshape(npts, n, 3, n, n), g)
        assert np.array_equal(
            GN._pair_symmetric_system(x, row, np.ones(row.shape), g), want)

    @pytest.mark.parametrize("name", ["rt5-quartic", "pp-wave4",
                                      "hyperkahler4"])
    def test_weak_kernels_span_the_n4_system_kernels(self, name):
        # the rows a < b of C_abcd V^d hold every row of the n^4 system up to
        # sign (the others are zero), so the kernels are the same
        s = samples(name, 6)
        n = s.n
        rep = GN.classify_genericity(s)
        full = unpack_pairs(s["C"]).reshape(len(s.points), n ** 3, n)
        for pg, k in zip(rep.per_point,
                         linalg.nullspace(full, TOL.rank_tol, s.scale())):
            assert pg.weak_kernel.shape == k.shape
            if k.shape[1]:
                assert maxabs(pg.weak_kernel @ pg.weak_kernel.T
                              - k @ k.T) < 1e-10
