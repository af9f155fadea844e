"""Sharp obstruction invariants and the conformally-Einstein decision
pipeline at the tensor level.

Everything here is pointwise numerics on sampled curvature.  First
derivatives are exact, with no finite differencing and no symbolic
adjugates: every quantity with partials is an order-1 `taylor` jet, an
array (P, 1 + n) + component shape with the values at [:, 0] and d_z at
[:, 1 + z].  The ladder keeps those of g, g^-1, P, J, C and A
(`CurvatureSamples.jet`); the jets built from them here go through
`taylor.product` and `taylor.inverse`, plus the determinant and adjugate
(`_adjugate_jets`) and the scalar reciprocal (`_reciprocal`), and are
cached on the samples.

The candidate gradient is K_a = Dt_a^bcd A_bcd, Dt a left inverse of the
Weyl tensor.  Dt itself is never formed on the verdict path: each
left-inverse policy contracts A with C once, into a pair (D, Q) of jets
with K = Q / D (`_pair`).  With w_b = C_bcde A^cde, L^a_b = C^acde C_bcde
and Lt its adjugate, ||C|| the determinant of the 2-form operator
C_ab^cd and Ct its adjugate, v_b = Ct_bcde A^cde:

    policy     D              Q_a
    from-L     ||L||          -g_ab Lt^b_c w^c
    from-C     (1-n) ||C||    2 v_a
    dim4-C3    C^3            4 C_xa^fg C_fg^yz A^x_yz      (n = 4)
    trace      |C|^2          -4 w_a                        (n = 4)
    identity   1              K                             (a given K)

C^3 = C_ab^cd C_cd^ef C_ef^ab, and in n = 4, L^a_b = |C|^2 delta^a_b / 4.
The values of D and Q come from `l_operators` and `weyl_operators`, which
are defined at singular operators too; the partials of the from-L and
from-C pairs need the operator inverted, so they are built only once the
policy's preconditions hold (`_gate`).  `_pair` carries Q^a, as [C] and
[B] below read it: `k_field` is the gate and K_a = g_ab Q^b / D, and the
cleared E lowers Q first.  A pair is built to the order its consumer
reads: order 1 for K and the cleared E, which differentiate it, order 0
for the cleared C-space and Bach displays and for the potential, whose
quadrature reads K's values alone and samples its nodes values only
(`reconstruct_potential`), so that no order-1 operand is built there.

Every invariant clears D out of one of three conditions:

* cleared C-space   D A_abc + Q^d C_dabc                       [C]
  cspace (identity), F1 (from-C), rl2-cotton (from-L),
  dim4-cotton (trace)
* cleared Bach      D^2 B_ab + (n-4) Q^d Q^c C_dabc            [B]
  bach (identity), F2 (from-C)
* cleared E         trace-free[D^2 P - D nabla Q + dD (x) Q + Q (x) Q]
  E (identity), G (from-L), Gbar (from-C), dim4 (trace)

each D, D^2 or D^2 times the residual of K = Q / D.  F1 and F2 are the
n-dimensional Kozameh-Newman-Tod system; G and Gbar are cross-checked
against D^2 E.  The full left inverse Dt (`dual_candidate_jet`) stays as
the test oracle of K, off the verdict path.

Each `Verdict` names the criterion that decided it (`THEOREM_IDS`):

* cotton3  'cotton-flat-3d': in dimension 3, conformally Einstein iff the
  Cotton tensor vanishes;
* E        'trace-free-e-obstruction': E with the from-L K, for weakly
  generic metrics with ||L|| invertible;
* lam2     'lambda2-obstruction': E with the from-C (Lambda2-generic) or
  dim4-C3 K;
* F        'bach-cotton-system': F1 and F2 on generic metrics;
* cspace   'conformal-c-space': conformal to a C-space (a metric with
  vanishing Cotton tensor) iff the C-space residual of K vanishes and K is
  closed, for every policy, and where the Weyl tensor vanishes iff A does
  (`decide_cotton_verdict`);
* rank     'tractor-rank': the rank of the tractor curvature test
  (`tractor.rank_obstruction`);
* scale    'einstein-scale': a given scale sigma makes the metric
  Einstein (`tractor.parallel_tractor_check`).

Every decision reads per-point figures only, so each is made in two
halves: `measure_tensor_verdict` reduces each chunk of points to
`TensorMeasurement`s, and `decide_tensor_verdict` (conformally Einstein?)
or `decide_cotton_verdict` (conformal to a C-space?) decides on them,
joined in point order by one shared head.  `conformal_einstein_tensor_verdict`
and `cotton_scale_verdict` run both halves on one chunk; the CLI's
`classify` runs the first pair over chunks of its points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, taylor
from .config import DEFAULT_TOLERANCES
from .curvature import (
    PAIR_SUM,
    CurvaturePack,
    CurvatureSamples,
    pair_basis,
    pair_trace,
    point_chunks,
    unpack_pairs,
    _pair_cols,
    _pair_rows,
)
from .evaluate import DomainError
from .genericity import (
    GenericityReport,
    PolicyError,
    classify_genericity,
    l_operators,
    weyl_c3,
    weyl_operators,
    weyl_rows,
    weyl_vanishes,
    _pair_matrix,
    _pair_tensor,
)
from .geometry import SingularMetricError

__all__ = [
    "KField",
    "Residual",
    "ObstructionReport",
    "Verdict",
    "THEOREM_IDS",
    "joined_outcome",
    "dual_candidate_jet",
    "k_field",
    "cspace_residual",
    "bach_residual",
    "f1",
    "f2",
    "e_tensor",
    "g_tensor",
    "gbar_tensor",
    "dim4_invariant",
    "cotton_rl2_invariant",
    "TensorMeasurement",
    "conformal_einstein_tensor_verdict",
    "measure_tensor_verdict",
    "decide_tensor_verdict",
    "decide_cotton_verdict",
    "cotton_scale_verdict",
    "reconstruct_potential",
    "covariance_exponent",
]

# the deciding criteria (see the module docstring)
THEOREM_IDS = {
    "cotton3": "cotton-flat-3d",
    "E": "trace-free-e-obstruction",
    "lam2": "lambda2-obstruction",
    "F": "bach-cotton-system",
    "cspace": "conformal-c-space",
    "rank": "tractor-rank",
    "scale": "einstein-scale",
}

POLICIES = ("from-L", "from-C", "dim4-C3")


# ---------------------------------------------------------------------------
# jets: `taylor` arrays (P, M) + component shape, the values at [:, 0] and,
# at order 1 (M = 1 + n), the partials d_z at [:, 1 + z]; an order-0 jet is
# the value row alone (M = 1).  Slots are raised by contracting them with
# the first index of the g^-1 jet.


def _adjugate_jets(m, dets, adj, n):
    """(det, adjugate) jets of the matrix jet m, of m's order.  The values
    are `dets` and `adj` (from `linalg`, defined at singular matrices too);
    d det = tr(adj dM), and d adj = d(det m^-1) needs m invertible."""
    if m.shape[1] == 1:
        return dets[:, None], adj[:, None]
    det = np.concatenate(
        [dets[:, None], np.einsum("pab,pzba->pz", adj, m[:, 1:])], axis=1)
    out = taylor.product(",ab->ab", det, taylor.inverse(m, n, 1), n, 1)
    out[:, 0] = adj
    return det, out


def _reciprocal(s, c=1.0):
    """Jet of c / s for a scalar jet s."""
    inv = 1.0 / s[:, 0]
    return np.concatenate([(c * inv)[:, None],
                           (-c) * s[:, 1:] * (inv ** 2)[:, None]], axis=1)


def _sliced_jet(s, shape, part, monomial_major):
    """The order-1 jet (P, 1 + n) + shape of the samples s, written one
    slice of points at a time: part(sl) for each `linalg.chunks` slice of
    the Weyl jet's rows extended to every first pair ((1 + n) n^2 rows of
    N per point, `_pair_rows`), so that only one slice's extensions and
    product copies are alive.  The jet is laid out monomial-major or
    point-major, as `taylor.product` lays out the jet built in one piece,
    so that its consumers read the same layout."""
    n, npts = s.n, len(s.points)
    out = (np.moveaxis(np.empty((1 + n, npts) + shape), 0, 1)
           if monomial_major else np.empty((npts, 1 + n) + shape))
    for sl in linalg.chunks(npts, (1 + n) * n * n, s.jet("C").shape[-1]):
        out[sl] = part(sl)
    return out


def _w_jet(s):
    """w_b = C_bcde A^cde: a sum over c and the pairs d < e of the rows of
    C, extended to every first pair (`_pair_rows`), and A^c(de), built one
    slice of points at a time (`_sliced_jet`)."""
    n = s.n
    i, j = pair_basis(n)

    def part(sl):
        a, gi = s.jet("A")[sl], s.jet("ginv")[sl]
        for spec in ("xde,xc->cde", "cxe,xd->cde", "cdx,xe->cde"):
            a = taylor.product(spec, a, gi, n, 1)
        return PAIR_SUM * taylor.product(
            "bck,ck->b", _pair_rows(s.jet("C")[sl]), a[..., i, j], n, 1)
    return s.derived(("w-jet",), lambda: _sliced_jet(s, (n,), part, True))


def _mixed_jet(s):
    """The order-1 jet of the pair matrices of C_ab^cd: C times the inverse
    metric on 2-forms (`CurvatureSamples.pair_metric`)."""
    return s.derived(("weyl-mixed-jet",), lambda: taylor.product(
        "ij,jk->ik", s.jet("C"), s.pair_metric(), s.n, 1))


def _l_jet(s, order):
    """L^a_b = C^acde C_bcde as a jet of `order`: the value of
    `l_operators`, and the partials of the same sum over c and the pairs
    d < e from the jets of C^ab^cd = G C_ab^cd and C_abcd, their rows
    extended to every first pair, built one slice of points at a time
    (`_sliced_jet`)."""
    if not order:
        return l_operators(s)[0][:, None]
    n = s.n

    def part(sl):
        up = taylor.product("ij,jk->ik", s.pair_metric()[sl],
                            _mixed_jet(s)[sl], n, 1)
        return PAIR_SUM * taylor.product("ack,bck->ab", _pair_rows(up),
                                         _pair_rows(s.jet("C")[sl]), n, 1)

    def build():
        out = _sliced_jet(s, (n, n), part, False)
        out[:, 0] = l_operators(s)[0]
        return out
    return s.derived(("l-operator-jet",), build)


def _weyl_jet(s, order):
    """Ranked-pair matrix of C_ab^cd as a jet of `order`: the value of
    `weyl_operators`, the partials from the jet of C_ab^cd."""
    if not order:
        return weyl_operators(s)[0][:, None]
    def build():
        out = PAIR_SUM * _mixed_jet(s)
        out[:, 0] = weyl_operators(s)[0]
        return out
    return s.derived(("weyl-operator-jet",), build)


def _pair(s, policy, order):
    """The jets (D, Q^a) of `order` with K^a = Q^a / D for one policy, Q
    with its index raised: the one place each policy contracts A with C
    (table in the module docstring).  Order 0 is the values alone and
    holds at singular operators; order 1 of 'from-L' and 'from-C' inverts
    the operator, so it needs `_gate` first."""
    def build():
        n, k, gi = s.n, order, s.jet("ginv")
        a, b = pair_basis(n)
        if policy in ("from-L", "trace"):
            # w^b takes its value as C^bcde A_cde from the raised C of
            # `l_operators`: raising A instead rounds differently where
            # g^-1 is large.  Its partials come from the w_b jet, which
            # order 0 does not build.  w comes before L: the transients of
            # raising A then do not stack on the raised copies of C that L
            # keeps.
            w0 = PAIR_SUM * np.einsum("pbck,pck->pb",
                                      weyl_rows(s, (1, 1, 1, 1)),
                                      s["A"][..., a, b])
            if k:
                wup = taylor.product("b,ba->a", _w_jet(s), gi, n, k)
                wup[:, 0] = w0
            else:
                wup = w0[:, None]
            lop = _l_jet(s, k)
            if policy == "trace":
                return np.trace(lop, axis1=2, axis2=3), -4.0 * wup
            det, adj = _adjugate_jets(lop, *l_operators(s)[1:], n)
            return det, -taylor.product("ab,b->a", adj, wup, n, k)
        m = _weyl_jet(s, k)
        if policy == "from-C":
            det, adj = _adjugate_jets(m, *weyl_operators(s)[1:], n)
            a1 = taylor.product("xbc,xa->abc", s.jet("A"), gi, n, k)[..., a, b]
            v = taylor.product("bck,ck->b", _pair_rows(adj), a1, n, k)
            return (1 - n) * det, 2.0 * taylor.product("b,ba->a", v, gi, n, k)
        # dim4-C3: C^3 = tr M^3 on the ranked pairs, so dC^3 = 3 tr(M^2 dM)
        c3 = np.concatenate([weyl_c3(s)[:, None], 3.0 * np.einsum(
            "pij,pjk,pzki->pz", m[:, 0], m[:, 0], m[:, 1:])], axis=1)
        # u_xfg = A_xyz C^yz_fg, then Q_a = 4 u^x_fg C^fg_xa
        u = taylor.product("xk,jk->xj", s.jet("A")[..., a, b], m, n, k)
        u = taylor.product("xj,xa->aj", u, gi, n, k)
        q = taylor.product("xaj,xj->a", _pair_rows(m), u, n, k)
        return c3, 4.0 * taylor.product("b,ba->a", q, gi, n, k)
    return s.derived(("pair", policy, order), build)


def _lowered(s, q):
    """The jet g_ab q^b, of q's order."""
    return taylor.product("ab,b->a", s.jet("g"), q, s.n,
                          taylor.order(s.n, q.shape[1]))


def _k_jet(s, policy, tol, order):
    """The jet of `order` of K_a = g_ab Q^b / D, its policy gated at tol."""
    _gate(s, policy, tol)
    d, q = _pair(s, policy, order)
    return _lowered(s, taylor.product(",a->a", _reciprocal(d), q, s.n, order))


def _check_policy(policy, accepted=POLICIES):
    if policy not in accepted:
        raise ValueError(f"unknown policy {policy!r}; expected one of "
                         f"{accepted}")


def _weyl_note(policy, point, cmax):
    """The failure of `policy` where the Weyl tensor vanishes, at the first
    such point."""
    return (f"policy {policy}: the Weyl tensor vanishes numerically at "
            f"point {point} (max |C| = {cmax:.3e})")


def _gate(samples, policy, tol):
    """A policy's preconditions: a numerically nonzero Weyl tensor (every
    policy divides by a Weyl-built determinant), then an invertible L^a_b
    ('from-L', ||L||) or 2-form operator ('from-C', ||C||), or dimension 4
    and a nonzero cubic scalar ('dim4-C3', C^3).  Raises PolicyError
    naming the first point where one fails."""
    _check_policy(policy)
    pts = samples.points
    bad = np.flatnonzero(weyl_vanishes(samples, tol))
    if bad.size:
        p = int(bad[0])
        raise PolicyError(_weyl_note(policy, pts[p],
                                     np.max(np.abs(samples["C"][p]))))
    if policy == "dim4-C3":
        if samples.n != 4:
            raise PolicyError("policy dim4-C3 needs dimension 4")
        vals, name = weyl_c3(samples), "C^3"
        cmax = np.max(np.abs(samples.raised("C", (0, 0, 1, 1))),
                      axis=(1, 2))
        bad = np.abs(vals) <= tol.rank_tol * np.maximum(cmax, 1e-300) ** 3
    else:
        # numerically invertible (full rank at the pivot tolerance, relative
        # to the largest entry) with a nonzero determinant: `genericity`
        # zeroes the determinant where the Weyl tensor vanishes at the
        # default tolerance, which a finer rank_tol lets pass
        mats, vals = (l_operators(samples) if policy == "from-L"
                      else weyl_operators(samples))[:2]
        name = "||L||" if policy == "from-L" else "||C||"
        bad = (linalg.rank(mats, tol.rank_tol) < mats.shape[1]) | (vals == 0)
    bad = np.flatnonzero(bad)
    if bad.size:
        p = int(bad[0])
        raise PolicyError(f"policy {policy}: {name} = {vals[p]:.3e} vanishes "
                          f"at point {pts[p]}")


def _left_inverse(s, policy, tol):
    """(Dt jet, the determinant jet it divides by) for one policy: 'from-L'
    divides by ||L||, 'from-C' by ||C||, 'dim4-C3' (n = 4) by the cubic
    scalar contraction.  Raises PolicyError naming the first point where
    the precondition fails.  This builds the whole rank-4 Dt and its
    partials from C, unpacked to n^4 components, with all slots raised: the
    oracle of `k_field`."""
    n, gi = s.n, s.jet("ginv")
    _gate(s, policy, tol)
    up01 = ("xbcd,xa->abcd", "axcd,xb->abcd")     # raise slots 0, 1
    up23 = ("abxd,xc->abcd", "abcx,xd->abcd")     # raise slots 2, 3
    cmix = c01 = c4 = unpack_pairs(s.jet("C"))
    for spec in up23:
        cmix = taylor.product(spec, cmix, gi, n, 1)   # C_ab^cd
    for spec in up01:
        c01 = taylor.product(spec, c01, gi, n, 1)     # C^ab_cd
    cup = c01
    for spec in up23:
        cup = taylor.product(spec, cup, gi, n, 1)     # C^abcd
    if policy == "from-L":
        m = taylor.product("acde,bcde->ab", cup, c4, n, 1)
        det, adj = _adjugate_jets(m, *l_operators(s)[1:], n)
        d = taylor.product("ab,bcde->acde", adj, cup, n, 1)
        return taylor.product(",acde->acde", _reciprocal(det, -1.0), d,
                              n, 1), det
    if policy == "from-C":
        m = np.concatenate([weyl_operators(s)[0][:, None],
                            _pair_matrix(cmix[:, 1:])], axis=1)
        det, adj = _adjugate_jets(m, *weyl_operators(s)[1:], n)
        ct = _pair_tensor(adj)   # Ct_xy^de
        for spec in up01:
            ct = taylor.product(spec, ct, gi, n, 1)
        return (2.0 / (1.0 - n)) * taylor.product(
            ",acde->acde", _reciprocal(det), ct, n, 1), det
    c3 = taylor.product("abef,efab->", taylor.product(
        "abcd,cdef->abef", cmix, cmix, n, 1), cmix, n, 1)
    # 4 C^de_fg C^fgca / C3; the factor 4 normalizes the defining
    # contraction to exactly -identity
    cc = taylor.product("defg,fgca->deca", c01, cup, n, 1)
    perm = np.transpose(cc, (0, 1, 5, 4, 2, 3))
    return taylor.product(",acde->acde", _reciprocal(c3, 4.0), perm,
                          n, 1), c3


def dual_candidate_jet(samples, policy, tolerances=DEFAULT_TOLERANCES):
    """Fully raised Dt^acde with exact first derivatives, a `taylor` jet
    (see _left_inverse for the policies), built once per sample batch.
    The test oracle of K, off the verdict path: `k_field` contracts A
    first."""
    return samples.derived(
        ("dual", policy, tolerances.rank_tol),
        lambda: _left_inverse(samples, policy, tolerances))[0]


# ---------------------------------------------------------------------------
# K and the invariants


@dataclass
class KField:
    """The unique candidate gradient direction K of the C-space equation."""

    lowered: np.ndarray        # (P, n) K_a
    d_lowered: np.ndarray      # (P, n, n) exact partials d_z K_a
    provenance: str

    def closedness(self):
        """Per-point max |d_[a K_b]| (vanishes iff K is locally a gradient)."""
        skew = 0.5 * (self.d_lowered - np.transpose(self.d_lowered, (0, 2, 1)))
        return np.max(np.abs(skew), axis=(1, 2))

    def raised(self, samples):
        return np.einsum("pab,pb->pa", samples["ginv"], self.lowered)


def k_field(samples: CurvatureSamples, policy="from-L",
            tolerances=DEFAULT_TOLERANCES) -> KField:
    """K_a = Dt_a^{bcd} A_bcd = g_ab Q^b / D for the chosen left-inverse
    policy (`_pair`), A contracted before anything is differentiated.
    Raises PolicyError naming the first point where the policy's
    precondition fails."""
    k = samples.derived(("k", policy, tolerances.rank_tol),
                        lambda: _k_jet(samples, policy, tolerances, 1))
    return KField(k[:, 0], k[:, 1:], policy)


@dataclass
class Residual:
    """A named per-point residual with the magnitude it is measured
    against."""

    name: str
    values: np.ndarray   # (P, ...) componentwise residual
    scale: np.ndarray    # (P,)

    @property
    def per_point(self):
        flat = self.values.reshape(self.values.shape[0], -1)
        return np.max(np.abs(flat), axis=1)

    @property
    def max(self):
        return float(np.max(self.per_point))

    @property
    def max_scale(self):
        return float(np.max(self.scale))

    def passes(self, tol):
        return bool(np.all(tol.passes(self.per_point, self.scale)))

    def decisively_fails(self, tol):
        return bool(np.any(tol.decisively_fails(self.per_point, self.scale)))

    def reduced(self):
        """The same residual with its values cut to the per-point maxima:
        every decision and figure above reads only those and the scale."""
        return Residual(self.name, self.per_point, self.scale)

    @staticmethod
    def joined(parts):
        """One residual over the points of `parts`, in order (one part is
        returned as it is)."""
        if len(parts) == 1:
            return parts[0]
        return Residual(parts[0].name,
                        np.concatenate([r.per_point for r in parts]),
                        np.concatenate([r.scale for r in parts]))


def _scale_of(*arrays):
    npts = arrays[0].shape[0]
    s = np.ones(npts)
    for a in arrays:
        s = np.maximum(s, np.max(np.abs(a.reshape(npts, -1)), axis=1))
    return s


def _need_dim4plus(samples):
    if samples.n == 3:
        raise ValueError("this invariant needs dimension n >= 4")


def _trace_free(t, samples):
    g, gi = samples["g"], samples["ginv"]
    n = samples.n
    tr = np.einsum("pab,pab->p", gi, t)
    return t - g * (tr / n)[:, None, None]


def _one(k):
    """The order-1 jet of the constant D = 1 at the points of K."""
    d = np.zeros((len(k.lowered), 1 + k.lowered.shape[1]))
    d[:, 0] = 1.0
    return d


def _cleared_cspace(samples, name, det, qup):
    """D A_abc + Q^d C_dabc from the values of the jets D and Q^a: D times
    the C-space residual of K = Q / D."""
    t1 = det[:, 0, None, None, None] * samples["A"]
    t2 = _pair_cols(np.einsum("pd,pdak->pak", qup[:, 0],
                              weyl_rows(samples)))
    return Residual(name, t1 + t2, _scale_of(t1, t2))


def _cleared_bach(samples, name, det, qup):
    """D^2 B_ab + (n-4) Q^d Q^c C_dabc from the values of the jets D and
    Q^a: D^2 times the Bach residual of K = Q / D."""
    t1 = (det[:, 0] ** 2)[:, None, None] * samples["B"]
    # Q^d Q^c C_dabc = -Q^d Q^c C_dacb
    t2 = (4 - samples.n) * pair_trace(
        samples["C"], np.einsum("pd,pc->pdc", qup[:, 0], qup[:, 0]))
    return Residual(name, t1 + t2, _scale_of(t1, t2))


def _cleared_e(samples, name, det, q):
    """Trace-free[D^2 P - D nabla Q + dD (x) Q + Q (x) Q] from the order-1
    jets of D and Q_a: D^2 E for K = Q / D, without dividing by D."""
    covq = q[:, 1:] - np.einsum("pcab,pc->pab", samples["gamma"], q[:, 0])
    t1 = (det[:, 0] ** 2)[:, None, None] * samples["P"]
    t2 = -det[:, 0, None, None] * covq
    t3 = np.einsum("pa,pb->pab", det[:, 1:], q[:, 0])
    t4 = np.einsum("pa,pb->pab", q[:, 0], q[:, 0])
    return Residual(name, _trace_free(t1 + t2 + t3 + t4, samples),
                    _scale_of(t1, t2, t3, t4))


def cspace_residual(samples: CurvatureSamples, k: KField) -> Residual:
    """A_abc + K^d C_dabc (condition [C])."""
    return _cleared_cspace(samples, "cspace", _one(k),
                           k.raised(samples)[:, None])


def bach_residual(samples: CurvatureSamples, k: KField) -> Residual:
    """B_ab + (n-4) K^d K^c C_dabc (condition [B]); equals the Bach tensor
    alone in n = 4."""
    return _cleared_bach(samples, "bach", _one(k), k.raised(samples)[:, None])


def e_tensor(samples: CurvatureSamples, k: KField) -> Residual:
    """Trace-free[ P_ab - nabla_a K_b + K_a K_b ] with K_b = Dt_bcde A^cde.

    Conformally invariant (weight 0) when Dt is canonical."""
    return _cleared_e(samples, "E", _one(k), np.concatenate(
        [k.lowered[:, None], k.d_lowered], axis=1))


def f1(samples: CurvatureSamples) -> Residual:
    """(1-n)||C|| A_abc + 2 C_dabc Ct^defg A_efg  (n >= 4): [C] cleared by
    the from-C pair."""
    _need_dim4plus(samples)
    return _cleared_cspace(samples, "F1", *_pair(samples, "from-C", 0))


def f2(samples: CurvatureSamples) -> Residual:
    """(n-1)^2 ||C||^2 B_ab + 4(n-4) Ct^defg C_dabc Ct^chkl A_efg A_hkl
    (n >= 4): [B] cleared by the from-C pair."""
    _need_dim4plus(samples)
    return _cleared_bach(samples, "F2", *_pair(samples, "from-C", 0))


def _policy_e(samples, name, policy, tol, cross_check):
    """E cleared by a policy's pair, the policy gated at `tol`, and (when
    cross_check) its relative deviation from D^2 E."""
    _need_dim4plus(samples)
    _gate(samples, policy, tol)
    det, q = _pair(samples, policy, 1)
    res = _cleared_e(samples, name, det, _lowered(samples, q))
    if not cross_check:
        return res, None
    e = e_tensor(samples, k_field(samples, policy, tol))
    ref = (det[:, 0] ** 2)[:, None, None] * e.values
    denom = max(np.max(np.abs(ref)), 1e-300)
    return res, float(np.max(np.abs(res.values - ref)) / denom)


def g_tensor(samples: CurvatureSamples, tol=DEFAULT_TOLERANCES,
             cross_check=True):
    """The ||L||-cleared natural display of E (weight -8n), its from-L
    policy gated at `tol`; returns (Residual, cross-check relative error vs
    ||L||^2 E)."""
    return _policy_e(samples, "G", "from-L", tol, cross_check)


def gbar_tensor(samples: CurvatureSamples, tol=DEFAULT_TOLERANCES,
                cross_check=True):
    """The ||C||-cleared display (weight 2n(1-n)), its from-C policy gated
    at `tol`; cross-checked against (1-n)^2 ||C||^2 E with the Lambda2 left
    inverse."""
    return _policy_e(samples, "Gbar", "from-C", tol, cross_check)


def dim4_invariant(samples: CurvatureSamples) -> Residual:
    """Trace-free[(|C|^2)^2 P + 4|C|^2 nabla(C.A) - 4(C.A) nabla|C|^2
    + 16 (C.A)(x)(C.A)], the weight -8 obstruction in dimension 4: E
    cleared by the trace pair."""
    if samples.n != 4:
        raise ValueError("dim4_invariant needs dimension 4")
    det, q = _pair(samples, "trace", 1)
    return _cleared_e(samples, "dim4", det, _lowered(samples, q))


def cotton_rl2_invariant(samples: CurvatureSamples):
    """The Riemannian-signature replacement for F1:
    ||L|| A_abc - C^efgh A_fgh Lt^d_e C_dabc, [C] cleared by the from-L
    pair, plus (in n = 4) the simpler |C|^2 A_abc - 4 C^defg A_efg C_dabc,
    cleared by the trace pair."""
    out = {"rl2-cotton": _cleared_cspace(samples, "rl2-cotton",
                                         *_pair(samples, "from-L", 0))}
    if samples.n == 4:
        out["dim4-cotton"] = _cleared_cspace(samples, "dim4-cotton",
                                             *_pair(samples, "trace", 0))
    return out


# ---------------------------------------------------------------------------
# potential reconstruction


# Gauss-Legendre nodes per potential segment (exact for degree <= 15)
_GL_NODES = 8


def reconstruct_potential(pack: CurvaturePack, points, policy="from-L",
                          tolerances=DEFAULT_TOLERANCES):
    """Integrate K along the straight segment from the first point to each
    other point (8-node Gauss-Legendre): each target's value is w @ (K h)
    on its own 8 nodes, h the segment.

    The nodes of all targets, in segment order, are sampled in chunks of
    whole targets cut by classify's rule (`curvature.point_chunks`), one
    `pack.samples` per chunk, so memory stays flat in the number of points
    and a failing policy or metric names the first failing node, the same
    node a walk target by target meets first.  The integral reads the
    values of K only, so the nodes are sampled values only (order 0) and
    K_a = g_ab Q^b / D is formed from the values of the policy's pair
    (`_pair`), gated as `k_field` gates it: bitwise the values of
    `k_field` on samples of order 1, without the ladder's partials.

    One segment is enough: the potential is only asked for where the
    verdict is conformally Einstein, and there K is the gradient of the log
    of the Einstein scale, so K is closed and the integral does not depend
    on the path.  The closedness of K, not this integral, gates the
    verdict."""
    # the rule mapped onto [0, 1]: node fractions along the segment, weights
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    fractions, w = 0.5 * (1.0 + x), 0.5 * w
    coords = pack.chart.coords
    base = points[0]
    a = np.array([base[c] for c in coords], dtype=float)
    h = np.array([[t[c] for c in coords] for t in points[1:]],
                 dtype=float).reshape(-1, len(coords)) - a
    values = [0.0]
    # a chunk is a multiple of 32 nodes long, so it holds whole targets
    for sl in point_chunks(_GL_NODES * len(h), pack.n):
        segs = h[sl.start // _GL_NODES:sl.stop // _GL_NODES]
        nodes = [{**base, **dict(zip(coords, map(float, a + t * hk)))}
                 for hk in segs for t in fractions]
        k = _k_jet(pack.samples(nodes, order=0), policy, tolerances, 0)[:, 0]
        values.extend(float(w @ (k[lo:lo + _GL_NODES] @ hk))
                      for lo, hk in zip(range(0, len(k), _GL_NODES), segs))
    return np.asarray(values)


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class Verdict:
    theorem: str        # identifier from THEOREM_IDS
    outcome: str        # 'conformally-einstein' | 'not' | 'inconclusive'
                        # | 'cotton-scale-exists' | 'conflict'
    precondition: str
    detail: str = ""


def joined_outcome(outcomes):
    """The one outcome of several routes' outcomes: "conflict" if any says
    so, or if one says "conformally-einstein" and another "not"; otherwise
    the first of "conformally-einstein", "not" and "cotton-scale-exists"
    that any says, so a decided outcome beats "inconclusive"."""
    outs = set(outcomes)
    if "conflict" in outs or {"not", "conformally-einstein"} <= outs:
        return "conflict"
    for out in ("conformally-einstein", "not", "cotton-scale-exists"):
        if out in outs:
            return out
    return "inconclusive"


@dataclass
class ObstructionReport:
    n: int
    points: list
    genericity: GenericityReport | None
    residuals: dict = field(default_factory=dict)   # name -> Residual
    verdicts: list = field(default_factory=list)
    k_provenance: str | None = None
    k_closedness: float | None = None
    potential: np.ndarray | None = None
    notes: list = field(default_factory=list)

    @property
    def outcome(self):
        return joined_outcome(v.outcome for v in self.verdicts)

    def residual_table(self):
        return {name: {"max": r.max, "scale": r.max_scale}
                for name, r in self.residuals.items()}


@dataclass
class TensorMeasurement:
    """What the tensor verdict reads of one chunk of points: per-point
    figures only (`measure_tensor_verdict`)."""

    points: list
    scale: np.ndarray          # the residual scale, per point
    weyl_zero: np.ndarray      # the Weyl tensor vanishes numerically
    c_max: np.ndarray          # max |C| per point
    a_max: np.ndarray          # max |A| per point
    genericity: GenericityReport | None = None    # n >= 4
    failures: dict = field(default_factory=dict)  # policy -> its gate's note
    residuals: dict = field(default_factory=dict)  # name -> Residual
    closedness: np.ndarray | None = None           # max |d[a K b]| per point

    def reduce(self):
        self.residuals = {name: r.reduced()
                          for name, r in self.residuals.items()}


def _candidates(policy, n):
    """The left-inverse policies to try, in order."""
    _check_policy(policy, POLICIES + ("auto",))
    if n == 3:
        return ()
    if policy != "auto":
        return (policy,)
    return ("from-L", "from-C") + (("dim4-C3",) if n == 4 else ())


def _measure_points(s, tol):
    """The policy-free half of a chunk's measurement."""
    npts = len(s.points)
    m = TensorMeasurement(
        points=list(s.points), scale=s.scale(),
        weyl_zero=weyl_vanishes(s, tol),
        c_max=np.max(np.abs(s["C"].reshape(npts, -1)), axis=1),
        a_max=np.max(np.abs(s["A"].reshape(npts, -1)), axis=1))
    if s.n == 3:
        m.residuals["cotton"] = Residual("cotton", s["A"], s.scale())
    else:
        m.genericity = classify_genericity(s, tolerances=tol)
    return m


def _measure_k(s, m, cands, cur, tol, first):
    """The half of a chunk's measurement that reads K, built with the
    policy cands[cur]: the cspace, bach and E residuals, the closedness of
    K, F1 and F2 where every point of the chunk is generic, and dim4 in
    dimension 4.  A policy whose gate fails is noted in m.failures; the
    first chunk goes on to the next one, any other chunk stops.  Returns
    the index of the policy K was built with (len(cands) if none)."""
    while cur < len(cands):
        try:
            k = k_field(s, cands[cur], tol)
        except PolicyError as exc:
            m.failures.setdefault(cands[cur], str(exc))
            cur += 1
            if first:
                continue
            break
        m.residuals["cspace"] = cspace_residual(s, k)
        m.residuals["bach"] = bach_residual(s, k)
        m.residuals["E"] = e_tensor(s, k)
        m.closedness = k.closedness()
        if m.genericity.generic:
            m.residuals["F1"] = f1(s)
            m.residuals["F2"] = f2(s)
        if s.n == 4:
            m.residuals["dim4"] = dim4_invariant(s)
        break
    return cur


def measure_tensor_verdict(sample, count, policy="auto",
                           tolerances=DEFAULT_TOLERANCES, each=None):
    """The measuring half of the tensor verdict, over `count` chunks of
    points: `sample(i)` gives the CurvatureSamples of chunk i, and
    `each(samples, measurement)` (optional) runs on each chunk the first
    time it is sampled, once its genericity is measured.  Returns one
    TensorMeasurement per chunk, its residuals cut to per-point maxima
    when there is more than one chunk, so that no chunk's tensors outlive
    it.

    K is built with the first candidate policy that every chunk seen so
    far has passed.  A chunk with a numerically vanishing Weyl tensor
    fails every policy, so K is built no further.  When a later chunk
    fails the policy in use, the earlier chunks are sampled again and
    measured with the next one: so each policy that fails is gated on
    every point up to its first failure, which its note names."""
    out, cands, cur, i = [], (), 0, 0
    while i < count:
        s = sample(i)
        if i == len(out):
            out.append(_measure_points(s, tolerances))
            if each is not None:
                each(s, out[i])
            cands = _candidates(policy, s.n)
            if out[i].weyl_zero.any():
                cur = len(cands)
        start, cur = cur, _measure_k(s, out[i], cands, cur, tolerances,
                                     i == 0)
        del s  # the chunk is freed before the next one is sampled
        if i and start < cur < len(cands):
            i = 0
            continue
        if count > 1:
            out[i].reduce()
        i += 1
    return out


def _joined(ms, name):
    """A per-point figure of the measurements, joined in point order."""
    return np.concatenate([getattr(m, name) for m in ms])


def _joined_report(ms, n, policy, tol):
    """The deciders' head: the report over the joined measurements and the
    first candidate policy every chunk passed, each failed one before it
    noted at the batch's first point where C vanishes, else where its
    operator fails.  Returns (report, that policy or None, K closes)."""
    report = ObstructionReport(n=n, points=[p for m in ms for p in m.points],
                               genericity=None)
    chosen = None
    if n > 3:
        report.genericity = GenericityReport.of(
            [pg for m in ms for pg in m.genericity.per_point])
        bad = np.flatnonzero(_joined(ms, "weyl_zero"))
        for cand in _candidates(policy, n):
            if bad.size:
                note = _weyl_note(cand, report.points[bad[0]],
                                  _joined(ms, "c_max")[bad[0]])
            else:
                note = next((m.failures[cand] for m in ms
                             if cand in m.failures), None)
            if note is None:
                chosen = cand
                break
            report.notes.append(note)
        if chosen is None:
            return report, None, False
        report.k_provenance = chosen
        report.k_closedness = float(np.max(_joined(ms, "closedness")))
    for name in ms[0].residuals:
        if all(name in m.residuals for m in ms):
            report.residuals[name] = Residual.joined(
                [m.residuals[name] for m in ms])
    closes = chosen is not None and bool(tol.passes(
        report.k_closedness, np.max(_joined(ms, "scale"))))
    return report, chosen, closes


def _three_way(tol, residuals, holds=True, yes="conformally-einstein"):
    """`yes` where every residual passes and `holds`, 'not' where one fails
    decisively, else 'inconclusive'."""
    if holds and all(r.passes(tol) for r in residuals):
        return yes
    if any(r.decisively_fails(tol) for r in residuals):
        return "not"
    return "inconclusive"


def decide_tensor_verdict(measurements, pack, policy="auto",
                          tolerances=DEFAULT_TOLERANCES) -> ObstructionReport:
    """The deciding half of the tensor verdict, over the measurements of
    every chunk of a batch, in point order (`measure_tensor_verdict`).

    Dimension 3 is decided by the Cotton tensor alone.  Otherwise the
    strongest applicable obstruction is used: the trace-free E tensor with
    the from-L inverse where ||L|| is invertible, the Lambda2 route where
    ||C|| is, with the determinant-cleared F system as a cross-check on
    generic metrics.  A negative verdict needs a decisively large residual;
    small-but-not-tiny residuals are reported as inconclusive.  A policy
    that fails is noted, or raised as PolicyError when it was asked for.
    Where the verdict is conformally Einstein, the potential is integrated
    with `pack`."""
    tol, ms, n = tolerances, measurements, pack.n
    report, chosen, closes = _joined_report(ms, n, policy, tol)

    if n == 3:
        res = report.residuals["cotton"]
        report.verdicts.append(Verdict(
            THEOREM_IDS["cotton3"], _three_way(tol, [res]),
            "dimension 3: conformally Einstein iff conformally flat",
            f"max |A| = {res.max:.3e}"))
        return report

    if chosen is None:
        if policy != "auto":
            raise PolicyError(report.notes[0])
        note = ("no left-inverse policy applies"
                if report.genericity.weakly_generic else "not weakly generic")
        if np.all(_joined(ms, "weyl_zero")):
            report.notes.append(
                "Weyl tensor vanishes at the sample points (max |C| = "
                f"{np.max(_joined(ms, 'c_max')):.3e}); max |A| = "
                f"{np.max(_joined(ms, 'a_max')):.3e}")
        report.verdicts.append(Verdict(
            THEOREM_IDS["E"], "inconclusive", note,
            "; ".join(report.notes[-2:])))
        return report

    e = report.residuals["E"]
    theorem = THEOREM_IDS["E"] if chosen == "from-L" else THEOREM_IDS["lam2"]
    precond = {"from-L": "weakly generic with ||L|| invertible",
               "from-C": "Lambda2-generic",
               "dim4-C3": "dimension 4 with nonzero cubic Weyl scalar"}[chosen]
    out = _three_way(tol, [e])
    report.verdicts.append(Verdict(theorem, out, precond,
                                   f"max |E| = {e.max:.3e} at scale "
                                   f"{e.max_scale:.3e}"))

    if report.genericity.generic:
        r1, r2 = report.residuals["F1"], report.residuals["F2"]
        fout = _three_way(tol, [r1, r2])
        report.verdicts.append(Verdict(
            THEOREM_IDS["F"], fout, "generic",
            f"max |F1| = {r1.max:.3e}, max |F2| = {r2.max:.3e}"))
        if {out, fout} == {"conformally-einstein", "not"}:
            report.verdicts.append(Verdict(
                "internal-consistency", "conflict", "generic",
                "the E and F routes disagree beyond tolerance"))

    if report.outcome == "conformally-einstein":
        if not closes:
            report.notes.append(
                f"K fails to close: max |d[a K b]| = {report.k_closedness:.3e}")
        try:
            report.potential = reconstruct_potential(pack, report.points,
                                                     chosen, tol)
        except (PolicyError, DomainError, SingularMetricError,
                np.linalg.LinAlgError) as exc:
            # a singular integration path; any other error is a fault
            report.notes.append(f"potential reconstruction failed: {exc}")
    return report


def decide_cotton_verdict(measurements, pack, policy="auto",
                          tolerances=DEFAULT_TOLERANCES) -> ObstructionReport:
    """The deciding half of the Cotton-scale question, on the measurements
    `decide_tensor_verdict` reads: the metric is conformal to a C-space (one
    with vanishing Cotton tensor) where the C-space residual A + K.C
    passes and K is closed, not where it fails decisively.  Where the Weyl
    tensor vanishes numerically at every point (dimension 3, conformally
    flat metrics) the equation reads A = 0 and is decided on the Cotton
    tensor alone; any other failed policy leaves it inconclusive."""
    ms, tol = measurements, tolerances
    report, chosen, closes = _joined_report(ms, pack.n, policy, tol)
    if chosen is None and np.all(_joined(ms, "weyl_zero")):
        res = Residual("cotton", _joined(ms, "a_max"), _joined(ms, "scale"))
        verdict = Verdict(
            THEOREM_IDS["cspace"],
            _three_way(tol, [res], yes="cotton-scale-exists"),
            "the Weyl tensor vanishes: the C-space equation reads A = 0",
            f"max |A| = {res.max:.3e}")
    elif chosen is None:
        verdict = Verdict(THEOREM_IDS["cspace"], "inconclusive",
                          "left inverse unavailable", "; ".join(report.notes))
    else:
        res = report.residuals["cspace"]
        verdict = Verdict(
            THEOREM_IDS["cspace"],
            _three_way(tol, [res], closes, "cotton-scale-exists"),
            "weakly generic with a valid left inverse",
            f"cspace max = {res.max:.3e}, "
            f"closedness = {report.k_closedness:.3e}")
    report.verdicts.append(verdict)
    return report


def conformal_einstein_tensor_verdict(
        samples: CurvatureSamples, policy="auto",
        tolerances=DEFAULT_TOLERANCES) -> ObstructionReport:
    """Tensor-level decision pipeline on one batch of points: the two
    halves `measure_tensor_verdict` and `decide_tensor_verdict` on a
    single chunk, so the report keeps every residual tensor.  `classify`
    runs the same halves over chunks of points and keeps per-point
    figures only."""
    ms = measure_tensor_verdict(lambda i: samples, 1, policy, tolerances)
    return decide_tensor_verdict(ms, samples.pack, policy, tolerances)


def cotton_scale_verdict(samples: CurvatureSamples, policy="from-L",
                         tolerances=DEFAULT_TOLERANCES) -> ObstructionReport:
    """Whether the metric is conformal to a C-space, on one batch of
    points: `measure_tensor_verdict` on a single chunk, then
    `decide_cotton_verdict`, so the report keeps every residual tensor."""
    ms = measure_tensor_verdict(lambda i: samples, 1, policy, tolerances)
    return decide_cotton_verdict(ms, samples.pack, policy, tolerances)


# ---------------------------------------------------------------------------
# conformal covariance measurement


def covariance_exponent(values, hat_values, upsilon_at):
    """Fitted exponent w with hat_values = e^{w upsilon} values, and its
    spread across components and points.  A component is compared where
    it exceeds 1e-9 times its point's largest one and its hat value is
    nonzero.  Returns (w, spread), and (nan, inf) when a compared component
    changes sign: no positive factor relates the two fields."""
    v = values.reshape(values.shape[0], -1)
    vh = hat_values.reshape(hat_values.shape[0], -1)
    u = np.asarray(upsilon_at, dtype=float)
    ws = []
    for p in range(v.shape[0]):
        if abs(u[p]) < 1e-12:
            continue
        scale = np.max(np.abs(v[p]))
        mask = (np.abs(v[p]) > 1e-9 * scale) & \
               (np.abs(vh[p]) > 0)
        if not np.any(mask):
            continue
        ratio = vh[p][mask] / v[p][mask]
        if np.any(ratio <= 0):
            return float("nan"), float("inf")
        ws.append(np.log(ratio) / u[p])
    if not ws:
        return float("nan"), float("nan")
    allw = np.concatenate(ws)
    return float(np.mean(allw)), float(np.max(allw) - np.min(allw))
