"""Sharp obstruction invariants and the conformally-Einstein decision
pipeline at the tensor level.

Everything here is pointwise numerics on sampled curvature.  First
derivatives are exact, with no finite differencing and no symbolic
adjugates: every quantity with partials is an order-1 `taylor` jet, an
array (P, 1 + n) + component shape with the values at [:, 0] and d_z at
[:, 1 + z].  The ladder keeps those of g, g^-1, P, J, C and A
(`CurvatureSamples.jet`); the jets built from them here go through
`taylor.product` and `taylor.inverse`, plus the determinant (`_det_jet`)
and the scalar reciprocal (`_reciprocal`), and are cached on the samples.

The verdict needs only the one-form K_a = Dt_a^bcd A_bcd and its first
partials, never the left inverse Dt of the Weyl tensor itself, so K is
contracted before it is differentiated (`k_field`).  For 'from-L',
Dt^a_bcd A^bcd = -Lt^a_b w^b / ||L|| with w_b = C_bcde A^cde: the jets are
A with its slots raised, w, and the n x n matrix L^a_b = C^acde C_bcde,
whose partials come from dC contracted with copies of C raised in place.
'from-C' contracts the adjugate of the 2-form operator with A^a_bc, and
'dim4-C3' contracts A into C^de_fg before the second C; both work on the
ranked-pair matrix of C_ab^cd.  The full Dt jet (`dual_candidate_jet`)
stays as the test oracle of K, off the verdict path.

Invariants:

* cspace residual   A_abc + K^d C_dabc                      (condition [C])
* bach residual     B_ab + (n-4) K^d K^c C_dabc             (condition [B])
* F1, F2            the determinant-cleared forms of [C], [B]
* E                 trace-free[P - nabla K + K (x) K], K = Dt.A
* G, Gbar           ||L||^2 E and (1-n)^2 ||C||^2 E, also via their
                    expanded natural displays (cross-checked)
* dim-4 invariant   the |C|^2-cleared form of E in dimension 4
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import taylor
from .config import DEFAULT_TOLERANCES
from .curvature import CurvaturePack, CurvatureSamples, as_samples
from .genericity import (
    GenericityReport,
    PolicyError,
    classify_genericity,
    l_operators,
    pair_basis,
    weyl_operators,
    weyl_vanishes,
    _pair_matrix,
    _pair_rows,
    _pair_tensor,
)
from .geometry import DOWN, TensorField, evaluate_components, partial_derivative

__all__ = [
    "DualCandidate",
    "KField",
    "Residual",
    "ObstructionReport",
    "Verdict",
    "THEOREM_IDS",
    "dual_candidate",
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
    "conformal_einstein_tensor_verdict",
    "cotton_scale_verdict",
    "reconstruct_potential",
    "covariance_exponent",
]

# identifiers for the deciding criteria, documented in the README
THEOREM_IDS = {
    "cotton3": "cotton-flat-3d",
    "E": "trace-free-e-obstruction",
    "lam2": "lambda2-obstruction",
    "F": "bach-cotton-system",
    "rank": "tractor-rank",
    "scale": "einstein-scale",
}


# ---------------------------------------------------------------------------
# order-1 jets of K: `taylor` arrays (P, 1 + n) + component shape, the
# values at [:, 0] and the partials d_z at [:, 1 + z]; slots are raised by
# contracting them with the first index of the g^-1 jet


def _det_jet(m, dets, adj):
    """Jet of det m from the determinants and adjugates of the values of
    the matrix jet m (defined for singular values too):
    d det = tr(adj dM)."""
    return np.concatenate(
        [dets[:, None], np.einsum("pab,pzba->pz", adj, m[:, 1:])], axis=1)


def _reciprocal(s, c=1.0):
    """Jet of c / s for a scalar jet s."""
    inv = 1.0 / s[:, 0]
    return np.concatenate([(c * inv)[:, None],
                           (-c) * s[:, 1:] * (inv ** 2)[:, None]], axis=1)


def _w_jet(s):
    """w_b = C_bcde A^cde."""
    def build():
        a, gi = s.jet("A"), s.jet("ginv")
        for spec in ("xde,xc->cde", "cxe,xd->cde", "cdx,xe->cde"):
            a = taylor.product(spec, a, gi, s.n, 1)
        return taylor.product("bcde,cde->b", s.jet("C"), a, s.n, 1)
    return s.derived(("w-jet",), build)


def _l_jet(s):
    """L^a_b = C^acde C_bcde as a jet: the value of `l_operators`, and the
    partials of L_ab = C_acde C_bc'd'e' g^cc' g^dd' g^ee' from dC and copies
    of C raised in place, then the first index raised."""
    def build():
        n, npts = s.n, len(s.points)
        C, gi, dgi = s["C"], s["ginv"], s.jet("ginv")[:, 1:]
        cup3 = s.raised("C", (0, 1, 1, 1)).reshape(npts, n, -1)
        low = C.reshape(npts, n, -1) @ np.swapaxes(cup3, 1, 2)
        # T_zab = d_z C_acde C_b^cde, once per slot of L
        t = (s["dC"].reshape(npts, n * n, -1)
             @ np.swapaxes(cup3, 1, 2)).reshape(npts, n, n, n)
        # the dg^-1 terms X_(cf)(ab) dg^cf: slot c with C_ac^de C_bfde,
        # slots d and e with C_a^c_d^e C_bcfe (equal by the pair
        # antisymmetry)
        def slot_terms(x, y):
            """sum_de x_acde y_bfde as a matrix over (cf) x (ab)."""
            xy = x.reshape(npts, n * n, -1) @ np.swapaxes(
                y.reshape(npts, n * n, -1), 1, 2)
            return xy.reshape((npts,) + (n,) * 4).transpose(
                0, 2, 4, 1, 3).reshape(npts, n * n, n * n)
        x = (slot_terms(s.raised("C", (0, 0, 1, 1)), C)
             + 2.0 * slot_terms(
                 s.raised("C", (0, 1, 0, 1)).transpose(0, 1, 3, 2, 4),
                 C.transpose(0, 1, 3, 2, 4)))
        dlow = t + np.swapaxes(t, 2, 3) + (
            dgi.reshape(npts, n, n * n) @ x).reshape(npts, n, n, n)
        d = dgi @ low[:, None] + gi[:, None] @ dlow
        return np.concatenate([l_operators(s)[0][:, None], d], axis=1)
    return s.derived(("l-operator-jet",), build)


def _weyl_jet(s):
    """Ranked-pair matrix of C_ab^cd as a jet: the value of
    `weyl_operators`, the partials raised from dC on the ranked first pairs
    only."""
    def build():
        a, b = pair_basis(s.n)
        cr, gi = s.jet("C")[:, :, a, b], s.jet("ginv")
        for spec in ("kxd,xc->kcd", "kcx,xd->kcd"):
            cr = taylor.product(spec, cr, gi, s.n, 1)
        return np.concatenate([weyl_operators(s)[0][:, None],
                               2.0 * cr[:, 1:, :, a, b]], axis=1)
    return s.derived(("weyl-operator-jet",), build)


def _contracted(s, policy, tol):
    """(determinant jet, vector jet) of 'from-L' or 'from-C', once the
    policy's preconditions hold (`_gate`): 'from-L' gives ||L|| and
    u^a = Lt^a_b w^b, so K^a = -u^a / ||L||; 'from-C' gives ||C|| and
    v_b = Ct_bcde A^cde, so K_b = 2 v_b / ((1 - n) ||C||)."""
    def build():
        _gate(s, policy, tol)
        n, gi = s.n, s.jet("ginv")
        if policy == "from-L":
            # w before L: the transients of raising A then do not stack on
            # the raised copies of C that L keeps
            wup = taylor.product("b,ba->a", _w_jet(s), gi, n, 1)
            # w^b takes its value as C^bcde A_cde from the raised C of
            # `l_operators`: raising A instead rounds differently where
            # g^-1 is large.  Its partials come from the w_b jet.
            wup[:, 0] = np.einsum("pbcde,pcde->pb",
                                  s.raised("C", (1, 1, 1, 1)), s["A"])
            lop = _l_jet(s)
            det = _det_jet(lop, *l_operators(s)[1:])
            adj = taylor.product(",ab->ab", det, taylor.inverse(lop, n, 1),
                                 n, 1)
            return det, taylor.product("ab,b->a", adj, wup, n, 1)
        a, b = pair_basis(n)
        wop = _weyl_jet(s)
        det = _det_jet(wop, *weyl_operators(s)[1:])
        adj = taylor.product(",ab->ab", det, taylor.inverse(wop, n, 1), n, 1)
        a1 = taylor.product("xbc,xa->abc", s.jet("A"), gi, n, 1)[..., a, b]
        return det, taylor.product("bck,ck->b", _pair_rows(adj), a1, n, 1)
    return s.derived(("contracted", policy, tol.rank_tol), build)


def _gate(samples, policy, tol):
    """The determinant the policy divides by, per point, once its
    preconditions hold: a numerically nonzero Weyl tensor, then an
    invertible L^a_b ('from-L', ||L||) or 2-form operator ('from-C',
    ||C||), or dimension 4 and a nonzero cubic scalar ('dim4-C3', C^3).
    Raises PolicyError naming the first point where one fails."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of "
                         f"{POLICIES + ('user',)}")
    _require_nonzero_weyl(samples, tol, policy)
    if policy != "dim4-C3":
        ops, name = ((l_operators(samples), "||L||") if policy == "from-L"
                     else (weyl_operators(samples), "||C||"))
        _check_policy_matrix(ops[0], ops[1], tol, policy, name,
                             samples.points)
        return ops[1]
    if samples.n != 4:
        raise PolicyError("policy dim4-C3 needs dimension 4")
    cmix = samples.raised("C", (0, 0, 1, 1))
    c3 = np.einsum("pabcd,pcdef,pefab->p", cmix, cmix, cmix)
    _check_policy_scalar(c3, np.max(np.abs(cmix), axis=(1, 2, 3, 4)), 3, tol,
                         policy, "C^3", samples.points)
    return c3


def _k_jet(s, policy, tol):
    """The jet of K_a for one policy, contracted before it is
    differentiated (see the module docstring)."""
    n = s.n
    if policy == "dim4-C3":
        c3 = _gate(s, policy, tol)
        m = _weyl_jet(s)
        # C^3 = tr M^3 on the ranked pairs, so dC^3 = 3 tr(M^2 dM)
        c3 = np.concatenate([c3[:, None], 3.0 * np.einsum(
            "pij,pjk,pzki->pz", m[:, 0], m[:, 0], m[:, 1:])], axis=1)
        a, b = pair_basis(n)
        # u_xfg = A_xyz C^yz_fg, then K_a = (4 / C^3) u^x_fg C^fg_xa
        u = taylor.product("xk,jk->xj", s.jet("A")[..., a, b], m, n, 1)
        u = taylor.product("xj,xa->aj", u, s.jet("ginv"), n, 1)
        k = taylor.product("xaj,xj->a", _pair_rows(m), u, n, 1)
        return taylor.product(",a->a", _reciprocal(c3, 4.0), k, n, 1)
    det, vec = _contracted(s, policy, tol)
    if policy == "from-L":
        kup = taylor.product(",a->a", _reciprocal(det, -1.0), vec, n, 1)
        return taylor.product("ab,b->a", s.jet("g"), kup, n, 1)
    return taylor.product(",a->a", _reciprocal(det, 2.0 / (1 - n)), vec, n, 1)


@dataclass
class DualCandidate:
    """Per-point left inverses Dt of the Weyl tensor in the canonical
    placement (up, up, down, up): Dt^ac_d^e C_bc^d_e = -delta^a_b."""

    comps: np.ndarray  # (P, n, n, n, n), fully raised Dt^acde
    provenance: str
    dets: np.ndarray   # the determinant each policy divided by, per point

    def defining_residual(self, samples):
        """Max deviation of Dt^acde C_bcde from -identity, per point."""
        C = samples["C"]
        contr = np.einsum("pacde,pbcde->pab", self.comps, C)
        eye = np.eye(C.shape[1])[None]
        return np.max(np.abs(contr + eye).reshape(C.shape[0], -1), axis=1)


POLICIES = ("from-L", "from-C", "dim4-C3")


def _left_inverse(s, policy, tol):
    """(Dt jet, the determinant jet it divides by) for one policy: 'from-L'
    divides by ||L||, 'from-C' by ||C||, 'dim4-C3' (n = 4) by the cubic
    scalar contraction.  Raises PolicyError naming the first point where
    the precondition fails.  This builds the whole rank-4 Dt and its
    partials from C with all slots raised: the oracle of `k_field`."""
    n, gi = s.n, s.jet("ginv")
    _gate(s, policy, tol)
    up01 = ("xbcd,xa->abcd", "axcd,xb->abcd")     # raise slots 0, 1
    up23 = ("abxd,xc->abcd", "abcx,xd->abcd")     # raise slots 2, 3
    cmix = c01 = s.jet("C")
    for spec in up23:
        cmix = taylor.product(spec, cmix, gi, n, 1)   # C_ab^cd
    for spec in up01:
        c01 = taylor.product(spec, c01, gi, n, 1)     # C^ab_cd
    cup = c01
    for spec in up23:
        cup = taylor.product(spec, cup, gi, n, 1)     # C^abcd
    if policy == "from-L":
        m = taylor.product("acde,bcde->ab", cup, s.jet("C"), n, 1)
        det = _det_jet(m, *l_operators(s)[1:])
        adj = taylor.product(",ab->ab", det, taylor.inverse(m, n, 1), n, 1)
        d = taylor.product("ab,bcde->acde", adj, cup, n, 1)
        return taylor.product(",acde->acde", _reciprocal(det, -1.0), d,
                              n, 1), det
    if policy == "from-C":
        m = np.concatenate([weyl_operators(s)[0][:, None],
                            _pair_matrix(cmix[:, 1:])], axis=1)
        det = _det_jet(m, *weyl_operators(s)[1:])
        ct = _pair_tensor(taylor.product(
            ",ab->ab", det, taylor.inverse(m, n, 1), n, 1))   # Ct_xy^de
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


def dual_candidate_jet(samples, policy, tolerances=None):
    """Fully raised Dt^acde with exact first derivatives, a `taylor` jet
    (see _left_inverse for the policies), built once per sample batch.
    Not on the verdict path: `k_field` contracts A first."""
    tol = tolerances or DEFAULT_TOLERANCES
    return samples.derived(("dual", policy, tol.rank_tol),
                           lambda: _left_inverse(samples, policy, tol))[0]


def dual_candidate(pack_or_samples, policy="from-L", points=None,
                   tolerances=None, user_comps=None) -> DualCandidate:
    """Left inverse of the Weyl tensor per sample point: the value of
    dual_candidate_jet and the determinant it divided by.  Policy 'user'
    takes components as given."""
    s = as_samples(pack_or_samples, points)
    if policy == "user":
        if user_comps is None:
            raise ValueError("user policy needs user_comps")
        return DualCandidate(np.asarray(user_comps, dtype=float),
                             "user-supplied", np.ones(len(s.points)))
    dt, det = _left_inverse(s, policy, tolerances or DEFAULT_TOLERANCES)
    return DualCandidate(dt[:, 0], policy, det[:, 0])


def _require_nonzero_weyl(samples, tol, policy):
    """Every policy divides by a Weyl-built determinant; if the Weyl tensor
    itself is numerically zero the division is meaningless."""
    bad = np.nonzero(weyl_vanishes(samples, tol))[0]
    if bad.size:
        p = int(bad[0])
        cmax = np.max(np.abs(samples["C"][p]))
        raise PolicyError(
            f"policy {policy}: the Weyl tensor vanishes numerically at "
            f"point {samples.points[p]} (max |C| = {cmax:.3e})")


def _check_policy_matrix(mats, dets, tol, policy, name, points):
    """The policy's matrix must be numerically invertible (full rank at the
    pivot tolerance, relative to its largest entry) with a nonzero
    determinant: `genericity` zeroes the determinant where the Weyl tensor
    vanishes at the default tolerance, which a finer rank_tol lets pass."""
    from . import linalg
    bad = np.flatnonzero((linalg.rank(mats, tol.rank_tol) < mats.shape[1])
                         | (dets == 0))
    if bad.size:
        p = int(bad[0])
        raise PolicyError(f"policy {policy}: {name} = {dets[p]:.3e} vanishes "
                          f"at point {points[p]}")


def _check_policy_scalar(vals, entry_scale, power, tol, policy,
                         name, points):
    rel = np.abs(vals) <= tol.rank_tol * np.maximum(entry_scale,
                                                    1e-300) ** power
    bad = np.nonzero(rel)[0]
    if bad.size:
        p = int(bad[0])
        raise PolicyError(f"policy {policy}: {name} = {vals[p]:.3e} vanishes "
                          f"at point {points[p]}")


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
            tolerances=None) -> KField:
    """K_a = Dt_a^{bcd} A_bcd for the chosen left-inverse policy, A
    contracted before anything is differentiated.  Raises PolicyError
    naming the first point where the policy's precondition fails."""
    tol = tolerances or DEFAULT_TOLERANCES
    k = samples.derived(("k", policy, tol.rank_tol),
                        lambda: _k_jet(samples, policy, tol))
    return KField(k[:, 0], k[:, 1:], policy)


def k_field_from_tensor(k_tensor: TensorField, samples: CurvatureSamples,
                        provenance="user-supplied") -> KField:
    """Wrap a symbolic one-form K (e.g. a closed-form gradient) as a KField
    at the sample points."""
    if k_tensor.variance != (DOWN,):
        raise ValueError("K must be a one-form (single down slot)")
    vals = evaluate_components(k_tensor.comps, samples.bindings)
    dvals = evaluate_components(partial_derivative(k_tensor),
                                samples.bindings)
    return KField(vals, dvals, provenance)


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
        return bool(np.all(self.per_point <
                           tol.tol_rel * self.scale + tol.tol_abs))

    def decisively_fails(self, tol):
        return bool(np.any(self.per_point > tol.decisive * self.scale))


def _scale_of(*arrays, floor=1.0):
    npts = arrays[0].shape[0]
    s = np.full(npts, floor)
    for a in arrays:
        s = np.maximum(s, np.max(np.abs(a.reshape(npts, -1)), axis=1))
    return s


def cspace_residual(samples: CurvatureSamples, k: KField) -> Residual:
    """A_abc + K^d C_dabc."""
    kup = k.raised(samples)
    term = np.einsum("pd,pdabc->pabc", kup, samples["C"])
    return Residual("cspace", samples["A"] + term,
                    _scale_of(samples["A"], term))


def bach_residual(samples: CurvatureSamples, k: KField) -> Residual:
    """B_ab + (n-4) K^d K^c C_dabc; equals the Bach tensor alone in n=4."""
    n = samples.n
    kup = k.raised(samples)
    term = (n - 4) * np.einsum("pd,pc,pdabc->pab", kup, kup, samples["C"])
    return Residual("bach", samples["B"] + term,
                    _scale_of(samples["B"], term))


def f1(samples: CurvatureSamples) -> Residual:
    """(1-n)||C|| A_abc + 2 C_dabc Ct^defg A_efg  (n >= 4)."""
    _need_dim4plus(samples)
    n = samples.n
    detC, ctup = _weyl_adjugate_raised(samples)
    v = np.einsum("pdefg,pefg->pd", ctup, samples["A"])
    t1 = (1 - n) * detC[:, None, None, None] * samples["A"]
    t2 = 2 * np.einsum("pd,pdabc->pabc", v, samples["C"])
    return Residual("F1", t1 + t2, _scale_of(t1, t2))


def f2(samples: CurvatureSamples) -> Residual:
    """(n-1)^2 ||C||^2 B_ab + 4(n-4) Ct^defg C_dabc Ct^chkl A_efg A_hkl."""
    _need_dim4plus(samples)
    n = samples.n
    detC, ctup = _weyl_adjugate_raised(samples)
    v = np.einsum("pdefg,pefg->pd", ctup, samples["A"])
    t1 = (n - 1) ** 2 * (detC ** 2)[:, None, None] * samples["B"]
    t2 = 4 * (n - 4) * np.einsum("pd,pdabc,pc->pab", v, samples["C"], v)
    return Residual("F2", t1 + t2, _scale_of(t1, t2))


def _weyl_adjugate_raised(samples):
    """(||C||, Ct^acde) without derivatives; works for singular operators."""
    def build():
        _, dets, adj = weyl_operators(samples)
        gi = samples["ginv"]
        return dets, np.einsum("pxa,pyc,pxyde->pacde", gi, gi,
                               _pair_tensor(adj))
    return samples.derived(("weyl-adjugate-raised",), build)


def _need_dim4plus(samples):
    if samples.n == 3:
        raise ValueError("this invariant needs dimension n >= 4")


def _trace_free(t, samples):
    g, gi = samples["g"], samples["ginv"]
    n = samples.n
    tr = np.einsum("pab,pab->p", gi, t)
    return t - g * (tr / n)[:, None, None]


def e_tensor(samples: CurvatureSamples, k: KField) -> Residual:
    """Trace-free[ P_ab - nabla_a K_b + K_a K_b ] with K_b = Dt_bcde A^cde.

    Conformally invariant (weight 0) when Dt is canonical."""
    covk = k.d_lowered - np.einsum("pcab,pc->pab", samples["gamma"],
                                   k.lowered)
    kk = np.einsum("pa,pb->pab", k.lowered, k.lowered)
    tf = _trace_free(samples["P"] - covk + kk, samples)
    return Residual("E", tf, _scale_of(samples["P"], covk, kk))


def _cleared_e(samples, name, det, q):
    """Trace-free[D^2 P - D nabla Q + dD (x) Q + Q (x) Q] from the jets of
    D and Q: D^2 E for K = Q / D, without dividing by D."""
    covq = q[:, 1:] - np.einsum("pcab,pc->pab", samples["gamma"], q[:, 0])
    t1 = (det[:, 0] ** 2)[:, None, None] * samples["P"]
    t2 = -det[:, 0, None, None] * covq
    t3 = np.einsum("pa,pb->pab", det[:, 1:], q[:, 0])
    t4 = np.einsum("pa,pb->pab", q[:, 0], q[:, 0])
    return Residual(name, _trace_free(t1 + t2 + t3 + t4, samples),
                    _scale_of(t1, t2, t3, t4))


def _cross_check(samples, res, det, policy, tol):
    """Relative deviation of a cleared display from D^2 E."""
    e = e_tensor(samples, k_field(samples, policy, tol))
    ref = (det[:, 0] ** 2)[:, None, None] * e.values
    denom = max(np.max(np.abs(ref)), 1e-300)
    return float(np.max(np.abs(res.values - ref)) / denom)


def g_tensor(samples: CurvatureSamples, tol=None, cross_check=True):
    """The ||L||-cleared natural display of E (weight -8n), its from-L
    policy gated at `tol`; returns (Residual, cross-check relative error vs
    ||L||^2 E)."""
    _need_dim4plus(samples)
    tol = tol or DEFAULT_TOLERANCES
    det, u = _contracted(samples, "from-L", tol)
    # D_b^cde A_cde = -g_ba Lt^a_x w^x, with D^acde = -Lt^a_b C^bcde
    res = _cleared_e(samples, "G", det, -taylor.product(
        "ab,b->a", samples.jet("g"), u, samples.n, 1))
    return res, (_cross_check(samples, res, det, "from-L", tol)
                 if cross_check else None)


def gbar_tensor(samples: CurvatureSamples, tol=None, cross_check=True):
    """The ||C||-cleared display (weight 2n(1-n)), its from-C policy gated
    at `tol`; cross-checked against (1-n)^2 ||C||^2 E with the Lambda2 left
    inverse."""
    _need_dim4plus(samples)
    tol = tol or DEFAULT_TOLERANCES
    det, v = _contracted(samples, "from-C", tol)   # ||C||, Ct_bcde A^cde
    det = (1 - samples.n) * det
    res = _cleared_e(samples, "Gbar", det, 2.0 * v)
    return res, (_cross_check(samples, res, det, "from-C", tol)
                 if cross_check else None)


def dim4_invariant(samples: CurvatureSamples) -> Residual:
    """Trace-free[(|C|^2)^2 P + 4|C|^2 nabla(C.A) - 4(C.A) nabla|C|^2
    + 16 (C.A)(x)(C.A)], the weight -8 obstruction in dimension 4."""
    if samples.n != 4:
        raise ValueError("dim4_invariant needs dimension 4")
    # |C|^2 = L^a_a and C_bcde A^cde = w_b, the pieces of the from-L K
    c2 = np.trace(_l_jet(samples), axis1=2, axis2=3)
    return _cleared_e(samples, "dim4", c2, -4.0 * _w_jet(samples))


def cotton_rl2_invariant(samples: CurvatureSamples):
    """The Riemannian-signature replacement for F1:
    ||L|| A_abc - C^efgh A_fgh Lt^d_e C_dabc, plus (in n = 4) the simpler
    |C|^2 A_abc - 4 C^defg A_efg C_dabc."""
    _, detL, adjL = l_operators(samples)
    call = samples.raised("C", (1, 1, 1, 1))
    t = np.einsum("pefgh,pfgh->pe", call, samples["A"])
    w = np.einsum("pde,pe->pd", adjL, t)
    r1 = detL[:, None, None, None] * samples["A"] \
        - np.einsum("pd,pdabc->pabc", w, samples["C"])
    out = {"rl2-cotton": Residual(
        "rl2-cotton", r1,
        _scale_of(detL[:, None, None, None] * samples["A"],
                  np.einsum("pd,pdabc->pabc", w, samples["C"])))}
    if samples.n == 4:
        c2 = np.einsum("pabcd,pabcd->p", call, samples["C"])
        v = np.einsum("pdefg,pefg->pd", call, samples["A"])
        r2 = c2[:, None, None, None] * samples["A"] \
            - 4 * np.einsum("pd,pdabc->pabc", v, samples["C"])
        out["dim4-cotton"] = Residual(
            "dim4-cotton", r2,
            _scale_of(c2[:, None, None, None] * samples["A"],
                      4 * np.einsum("pd,pdabc->pabc", v, samples["C"])))
    return out


# ---------------------------------------------------------------------------
# potential reconstruction


# Gauss-Legendre nodes per potential segment (exact for degree <= 15)
_GL_NODES = 8


def reconstruct_potential(pack: CurvaturePack, points, policy="from-L",
                          tolerances=None):
    """Integrate K along the straight segment from the first point to each
    other point (8-node Gauss-Legendre, one batch of nodes per target).

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
    values = [0.0]
    for target in points[1:]:
        h = np.array([target[c] for c in coords], dtype=float) - a
        nodes = [{**base, **dict(zip(coords, map(float, a + t * h)))}
                 for t in fractions]
        k = k_field(pack.samples(nodes), policy, tolerances)
        values.append(float(w @ (k.lowered @ h)))
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
        outs = {v.outcome for v in self.verdicts}
        if "conflict" in outs:
            return "conflict"
        if "not" in outs and "conformally-einstein" in outs:
            return "conflict"
        if "conformally-einstein" in outs:
            return "conformally-einstein"
        if "not" in outs:
            return "not"
        if "cotton-scale-exists" in outs:
            return "cotton-scale-exists"
        return "inconclusive"

    def residual_table(self):
        return {name: {"max": r.max, "scale": r.max_scale}
                for name, r in self.residuals.items()}


def conformal_einstein_tensor_verdict(source, points, policy="auto",
                                      tolerances=None) -> ObstructionReport:
    """Tensor-level decision pipeline.

    Dimension 3 is decided by the Cotton tensor alone.  Otherwise the
    strongest applicable obstruction is used: the trace-free E tensor with
    the from-L inverse where ||L|| is invertible, the Lambda2 route where
    ||C|| is, with the determinant-cleared F system as a cross-check on
    generic metrics.  A negative verdict needs a decisively large residual;
    small-but-not-tiny residuals are reported as inconclusive.  `source` is
    a metric, a CurvaturePack or CurvatureSamples (see `as_samples`)."""
    tol = (tolerances or DEFAULT_TOLERANCES).validate()
    samples = as_samples(source, points)
    n = samples.n
    report = ObstructionReport(n=n, points=list(samples.points),
                               genericity=None)

    if n == 3:
        a = samples["A"]
        res = Residual("cotton", a, samples.scale())
        report.residuals["cotton"] = res
        if res.passes(tol):
            out = "conformally-einstein"
        elif res.decisively_fails(tol):
            out = "not"
        else:
            out = "inconclusive"
        report.verdicts.append(Verdict(
            THEOREM_IDS["cotton3"], out,
            "dimension 3: conformally Einstein iff conformally flat",
            f"max |A| = {res.max:.3e}"))
        return report

    gen = classify_genericity(samples, tolerances=tol)
    report.genericity = gen

    chosen = None
    if policy == "auto":
        for cand in ("from-L", "from-C") + (("dim4-C3",) if n == 4 else ()):
            try:
                k = k_field(samples, cand, tol)
                chosen = cand
                break
            except PolicyError as exc:
                report.notes.append(str(exc))
    else:
        k = k_field(samples, policy, tol)
        chosen = policy

    if chosen is None:
        weyl_norm = float(np.max(np.abs(samples["C"])))
        note = "no left-inverse policy applies"
        if not gen.weakly_generic:
            note = "not weakly generic"
        if weyl_norm < tol.tol_rel * np.max(samples.scale()):
            cotton_norm = float(np.max(np.abs(samples["A"])))
            report.notes.append(
                f"Weyl tensor vanishes at the sample points (max |C| = "
                f"{weyl_norm:.3e}); max |A| = {cotton_norm:.3e}")
        report.verdicts.append(Verdict(
            THEOREM_IDS["E"], "inconclusive", note,
            "; ".join(report.notes[-2:])))
        return report

    report.k_provenance = chosen
    report.residuals["cspace"] = cspace_residual(samples, k)
    report.residuals["bach"] = bach_residual(samples, k)
    e = e_tensor(samples, k)
    report.residuals["E"] = e
    closed = k.closedness()
    report.k_closedness = float(np.max(closed))

    theorem = THEOREM_IDS["E"] if chosen == "from-L" else THEOREM_IDS["lam2"]
    precond = {"from-L": "weakly generic with ||L|| invertible",
               "from-C": "Lambda2-generic",
               "dim4-C3": "dimension 4 with nonzero cubic Weyl scalar"}[chosen]
    if e.passes(tol):
        out = "conformally-einstein"
    elif e.decisively_fails(tol):
        out = "not"
    else:
        out = "inconclusive"
    report.verdicts.append(Verdict(theorem, out, precond,
                                   f"max |E| = {e.max:.3e} at scale "
                                   f"{e.max_scale:.3e}"))

    if gen.generic:
        r1, r2 = f1(samples), f2(samples)
        report.residuals["F1"] = r1
        report.residuals["F2"] = r2
        if r1.passes(tol) and r2.passes(tol):
            fout = "conformally-einstein"
        elif r1.decisively_fails(tol) or r2.decisively_fails(tol):
            fout = "not"
        else:
            fout = "inconclusive"
        report.verdicts.append(Verdict(
            THEOREM_IDS["F"], fout, "generic",
            f"max |F1| = {r1.max:.3e}, max |F2| = {r2.max:.3e}"))
        if {out, fout} == {"conformally-einstein", "not"}:
            report.verdicts.append(Verdict(
                "internal-consistency", "conflict", "generic",
                "the E and F routes disagree beyond tolerance"))

    if n == 4:
        report.residuals["dim4"] = dim4_invariant(samples)

    if report.outcome == "conformally-einstein":
        scale0 = np.max(samples.scale())
        if report.k_closedness > tol.tol_rel * scale0 + tol.tol_abs:
            report.notes.append(
                f"K fails to close: max |d[a K b]| = {report.k_closedness:.3e}")
        try:
            report.potential = reconstruct_potential(
                samples.pack, samples.points, chosen, tol)
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            # a singular integration path (PolicyError, DomainError and
            # SingularMetricError are ArithmeticErrors)
            report.notes.append(f"potential reconstruction failed: {exc}")
    return report


def cotton_scale_verdict(source, points, policy="from-L",
                         tolerances=None) -> ObstructionReport:
    """Decides whether the metric is conformal to one with vanishing Cotton
    tensor: the C-space residual must vanish and K must be closed.
    `source` is a metric, a CurvaturePack or CurvatureSamples."""
    tol = (tolerances or DEFAULT_TOLERANCES).validate()
    samples = as_samples(source, points)
    report = ObstructionReport(n=samples.n, points=list(samples.points),
                               genericity=classify_genericity(samples,
                                                              tolerances=tol))
    try:
        k = k_field(samples, policy, tol)
    except PolicyError as exc:
        report.verdicts.append(Verdict(
            THEOREM_IDS["lam2"], "inconclusive", "left inverse unavailable",
            str(exc)))
        return report
    report.k_provenance = policy
    res = cspace_residual(samples, k)
    report.residuals["cspace"] = res
    closed = float(np.max(k.closedness()))
    report.k_closedness = closed
    report.residuals.update(cotton_rl2_invariant(samples))
    scale0 = np.max(samples.scale())
    is_closed = closed <= tol.tol_rel * scale0 + tol.tol_abs
    if res.passes(tol) and is_closed:
        out = "cotton-scale-exists"
    elif res.decisively_fails(tol):
        out = "not"
    else:
        out = "inconclusive"
    report.verdicts.append(Verdict(
        THEOREM_IDS["lam2"] if policy == "from-C" else THEOREM_IDS["E"],
        out, "weakly generic with a valid left inverse",
        f"cspace max = {res.max:.3e}, closedness = {closed:.3e}"))
    return report


# ---------------------------------------------------------------------------
# conformal covariance measurement


def covariance_exponent(values, hat_values, upsilon_at, tol_floor=1e-9):
    """Fitted exponent w with hat_values = e^{w upsilon} values, and its
    spread across components and points.  Returns (w, spread), and
    (nan, inf) when a compared component changes sign: no positive factor
    relates the two fields."""
    v = values.reshape(values.shape[0], -1)
    vh = hat_values.reshape(hat_values.shape[0], -1)
    u = np.asarray(upsilon_at, dtype=float)
    ws = []
    for p in range(v.shape[0]):
        if abs(u[p]) < 1e-12:
            continue
        scale = np.max(np.abs(v[p]))
        mask = (np.abs(v[p]) > tol_floor * scale) & \
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
