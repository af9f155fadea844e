"""Sharp obstruction invariants and the conformally-Einstein decision
pipeline at the tensor level.

Everything here is pointwise numerics on sampled curvature.  First
derivatives are exact: they are carried through a small forward-mode jet
algebra (value plus coordinate partials), with no finite differencing and
no symbolic adjugates.

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
    "Jet",
    "jet_einsum",
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
# forward-mode jets over sample batches


class Jet:
    """Batched value with exact first coordinate partials.

    val: (P, ...);  d: (P, n, ...) with the derivative axis right after P."""

    __slots__ = ("val", "d")

    def __init__(self, val, d):
        self.val = np.asarray(val, dtype=float)
        self.d = np.asarray(d, dtype=float)

    def __add__(self, other):
        return Jet(self.val + other.val, self.d + other.d)

    def __sub__(self, other):
        return Jet(self.val - other.val, self.d - other.d)

    def __neg__(self):
        return Jet(-self.val, -self.d)

    def scaled(self, c):
        return Jet(c * self.val, c * self.d)

    def map(self, f):
        """Apply a linear map of the value axes to value and partials."""
        return Jet(f(self.val), f(self.d))


def jet_einsum(spec, *ops):
    """einsum over jets/arrays; every subscript starts with the batch axis
    'p' and must not use the letter 'z' (reserved for the derivative)."""
    lhs, out = spec.split("->")
    terms = lhs.split(",")
    if "z" in spec:
        raise ValueError("subscript letter 'z' is reserved")
    vals = [o.val if isinstance(o, Jet) else np.asarray(o, dtype=float)
            for o in ops]
    val = np.einsum(spec, *vals)
    d = None
    for i, o in enumerate(ops):
        if not isinstance(o, Jet):
            continue
        subs = list(terms)
        subs[i] = "pz" + terms[i][1:]
        dspec = ",".join(subs) + "->pz" + out[1:]
        args = list(vals)
        args[i] = o.d
        part = np.einsum(dspec, *args)
        if d is None:
            d = part
        else:
            d += part
    if d is None:
        raise ValueError("at least one operand must be a Jet")
    return Jet(val, d)


def jet_reciprocal(s: Jet, c=1.0) -> Jet:
    """c / s for a batch of scalar jets s."""
    inv = 1.0 / s.val
    return Jet(c * inv, (-c) * s.d * (inv ** 2)[:, None])


def jet_inverse_matrix(m: Jet) -> Jet:
    """Inverse of a batch of matrices (P, k, k) with derivative; the
    matrices must be invertible (callers gate on the policy checks)."""
    inv = np.linalg.inv(m.val)
    return Jet(inv, -(inv[:, None] @ m.d @ inv[:, None]))


def jet_det(m: Jet, dets, adj) -> Jet:
    """Determinant jet from the determinants and adjugates of m.val
    (defined for singular matrices too): d(det) = tr(adj . dM)."""
    return Jet(dets, np.einsum("pab,pzba->pz", adj, m.d))


def jet_adjugate(m: Jet, det: Jet) -> Jet:
    return jet_einsum("p,pab->pab", det, jet_inverse_matrix(m))


class _JetBag:
    """Jets of the sampled curvature of one batch, built lazily."""

    def __init__(self, samples: CurvatureSamples):
        self.s = samples
        self.n = samples.n
        self._cache = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def g(self):
        return self._get("g", lambda: Jet(self.s["g"], self.s["dg"]))

    @property
    def ginv(self):
        def build():
            gi = self.s["ginv"][:, None]
            return Jet(self.s["ginv"], -(gi @ self.s["dg"] @ gi))
        return self._get("ginv", build)

    @property
    def C(self):
        return self._get("C", lambda: Jet(self.s["C"], self.s["dC"]))

    @property
    def A(self):
        return self._get("A", lambda: Jet(self.s["A"], self.s["dA"]))

    def raised(self, t: Jet, slots) -> Jet:
        """t with the given tensor slots raised by the inverse metric, one
        stacked matrix product per slot."""
        gi, npts, n = self.ginv, len(self.s.points), self.n
        for s in slots:
            v = np.moveaxis(t.val, s + 1, -1)
            d = np.moveaxis(t.d, s + 2, -1)
            val = v.reshape(npts, -1, n) @ gi.val
            dd = (d.reshape(npts, n, -1, n) @ gi.val[:, None]
                  + v.reshape(npts, 1, -1, n) @ gi.d)
            t = Jet(np.moveaxis(val.reshape(v.shape), -1, s + 1),
                    np.moveaxis(dd.reshape(d.shape), -1, s + 2))
        return t

    @property
    def w(self):
        """w_b = C_bcde A^cde."""
        return self._get("w", lambda: jet_einsum(
            "pbcde,pcde->pb", self.C, self.raised(self.A, (0, 1, 2))))

    @property
    def l_operator(self):
        """L^a_b = C^acde C_bcde as a jet: the value of `l_operators`, and
        the partials of L_ab = C_acde C_bc'd'e' g^cc' g^dd' g^ee' from dC and
        copies of C raised in place, then the first index raised."""
        def build():
            s, n = self.s, self.n
            npts = len(s.points)
            C, gi, dgi = s["C"], self.ginv.val, self.ginv.d
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
            return Jet(l_operators(s)[0], d)
        return self._get("L-operator", build)

    @property
    def weyl_operator(self):
        """Ranked-pair matrix of C_ab^cd as a jet: the value of
        `weyl_operators`, the partials raised from dC on the ranked first
        pairs only."""
        def build():
            a, b = pair_basis(self.n)
            cr = Jet(self.s["C"][:, a, b], self.s["dC"][:, :, a, b])
            d = self.raised(cr, (1, 2)).d[..., a, b]
            return Jet(weyl_operators(self.s)[0], 2.0 * d)
        return self._get("weyl-operator", build)

    def contracted(self, policy, tol):
        """(determinant jet, vector jet) of 'from-L' or 'from-C', once the
        policy's preconditions hold (`_gate`): 'from-L' gives ||L|| and
        u^a = Lt^a_b w^b, so K^a = -u^a / ||L||; 'from-C' gives ||C|| and
        v_b = Ct_bcde A^cde, so K_b = 2 v_b / ((1 - n) ||C||)."""
        def build():
            _gate(self.s, policy, tol)
            if policy == "from-L":
                lop = self.l_operator
                det = jet_det(lop, *l_operators(self.s)[1:])
                adj = jet_adjugate(lop, det)
                # w^b takes its value as C^bcde A_cde from the raised C of
                # `l_operators`: raising A instead rounds differently where
                # g^-1 is large.  Its partials come from the w_b jet.
                wup = Jet(np.einsum("pbcde,pcde->pb",
                                    self.s.raised("C", (1, 1, 1, 1)),
                                    self.s["A"]),
                          self.raised(self.w, (0,)).d)
                return det, jet_einsum("pab,pb->pa", adj, wup)
            a, b = pair_basis(self.n)
            wop = self.weyl_operator
            det = jet_det(wop, *weyl_operators(self.s)[1:])
            adj = jet_adjugate(wop, det)
            a1 = self.raised(self.A, (0,)).map(lambda t: t[..., a, b])
            return det, jet_einsum("pbck,pck->pb", adj.map(_pair_rows), a1)
        return self._get(("contracted", policy, tol.rank_tol), build)


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


def _k_jet(bag: _JetBag, policy, tol) -> Jet:
    """K_a with its partials for one policy, contracted before it is
    differentiated (see the module docstring)."""
    if policy == "dim4-C3":
        c3 = _gate(bag.s, policy, tol)
        m = bag.weyl_operator
        # C^3 = tr M^3 on the ranked pairs, so dC^3 = 3 tr(M^2 dM)
        c3 = Jet(c3, 3.0 * np.einsum("pij,pjk,pzki->pz", m.val, m.val, m.d))
        a, b = pair_basis(bag.n)
        # u_xfg = A_xyz C^yz_fg, then K_a = (4 / C^3) u^x_fg C^fg_xa
        u = jet_einsum("pxk,pjk->pxj", bag.A.map(lambda t: t[..., a, b]), m)
        k = jet_einsum("pxaj,pxj->pa", m.map(_pair_rows),
                       bag.raised(u, (0,)))
        return jet_einsum("p,pa->pa", jet_reciprocal(c3, 4.0), k)
    det, vec = bag.contracted(policy, tol)
    if policy == "from-L":
        kup = jet_einsum("p,pa->pa", jet_reciprocal(det, -1.0), vec)
        return jet_einsum("pab,pb->pa", bag.g, kup)
    return jet_einsum("p,pa->pa", jet_reciprocal(det, 2.0 / (1 - bag.n)), vec)


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


def _left_inverse(bag: _JetBag, policy, tol):
    """(Dt jet, the determinant jet it divides by) for one policy: 'from-L'
    divides by ||L||, 'from-C' by ||C||, 'dim4-C3' (n = 4) by the cubic
    scalar contraction.  Raises PolicyError naming the first point where
    the precondition fails.  This builds the whole rank-4 Dt and its
    partials from C with all slots raised: the oracle of `k_field`."""
    n = bag.n
    _gate(bag.s, policy, tol)
    if policy == "from-L":
        cup = bag.raised(bag.C, (0, 1, 2, 3))
        m = jet_einsum("pacde,pbcde->pab", cup, bag.C)
        det = jet_det(m, *l_operators(bag.s)[1:])
        d = jet_einsum("pab,pbcde->pacde", jet_adjugate(m, det), cup)
        return jet_einsum("p,pacde->pacde", jet_reciprocal(det, -1.0),
                          d), det
    cmix = bag.raised(bag.C, (2, 3))
    if policy == "from-C":
        m = Jet(weyl_operators(bag.s)[0], _pair_matrix(cmix.d))
        det = jet_det(m, *weyl_operators(bag.s)[1:])
        ct = jet_adjugate(m, det).map(_pair_tensor)  # Ct_xy^de
        ctup = bag.raised(ct, (0, 1))
        return jet_einsum("p,pacde->pacde", jet_reciprocal(det),
                          ctup).scaled(2.0 / (1.0 - n)), det
    c3 = jet_einsum("pabcd,pcdef,pefab->p", cmix, cmix, cmix)
    # 4 C^de_fg C^fgca / C3; the factor 4 normalizes the defining
    # contraction to exactly -identity
    cc = jet_einsum("pdefg,pfgca->pdeca", bag.raised(bag.C, (0, 1)),
                    bag.raised(bag.C, (0, 1, 2, 3)))
    perm = Jet(np.transpose(cc.val, (0, 4, 3, 1, 2)),
               np.transpose(cc.d, (0, 1, 5, 4, 2, 3)))
    return jet_einsum("p,pacde->pacde", jet_reciprocal(c3, 4.0), perm), c3


def dual_candidate_jet(bag: _JetBag, policy, tolerances=None) -> Jet:
    """Fully raised Dt^acde with exact first derivatives (see
    _left_inverse for the policies), built once per bag.  Not on the
    verdict path: `k_field` contracts A first."""
    tol = tolerances or DEFAULT_TOLERANCES
    return bag._get(("dual", policy, tol.rank_tol),
                    lambda: _left_inverse(bag, policy, tol))[0]


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
    dt, det = _left_inverse(_JetBag(s), policy,
                            tolerances or DEFAULT_TOLERANCES)
    return DualCandidate(dt.val, policy, det.val)


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
    pivot tolerance, relative to its largest entry)."""
    from . import linalg
    bad = np.flatnonzero(linalg.rank(mats, tol.rank_tol) < mats.shape[1])
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


def k_field(samples: CurvatureSamples, policy="from-L", tolerances=None,
            bag=None) -> KField:
    """K_a = Dt_a^{bcd} A_bcd for the chosen left-inverse policy, A
    contracted before anything is differentiated.  Raises PolicyError
    naming the first point where the policy's precondition fails."""
    bag = bag or _JetBag(samples)
    k = _k_jet(bag, policy, tolerances or DEFAULT_TOLERANCES)
    return KField(k.val, k.d, policy)


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


def g_tensor(samples: CurvatureSamples, bag=None, cross_check=True):
    """The ||L||-cleared natural display of E (weight -8n); returns
    (Residual, cross-check relative error vs ||L||^2 E)."""
    _need_dim4plus(samples)
    bag = bag or _JetBag(samples)
    detL, u = bag.contracted("from-L", DEFAULT_TOLERANCES)
    # D_b^cde A_cde = -g_ba Lt^a_x w^x, with D^acde = -Lt^a_b C^bcde
    q = jet_einsum("pab,pb->pa", bag.g, u).scaled(-1.0)
    covq = q.d - np.einsum("pcab,pc->pab", samples["gamma"], q.val)
    t1 = (detL.val ** 2)[:, None, None] * samples["P"]
    t2 = -detL.val[:, None, None] * covq
    t3 = np.einsum("pa,pb->pab", detL.d, q.val)
    t4 = np.einsum("pa,pb->pab", q.val, q.val)
    disp = _trace_free(t1 + t2 + t3 + t4, samples)
    res = Residual("G", disp, _scale_of(t1, t2, t3, t4))
    if not cross_check:
        return res, None
    e = e_tensor(samples, k_field(samples, "from-L", bag=bag))
    ref = (detL.val ** 2)[:, None, None] * e.values
    denom = max(np.max(np.abs(ref)), 1e-300)
    return res, float(np.max(np.abs(disp - ref)) / denom)


def gbar_tensor(samples: CurvatureSamples, bag=None, cross_check=True):
    """The ||C||-cleared display (weight 2n(1-n)); cross-checked against
    (1-n)^2 ||C||^2 E with the Lambda2 left inverse."""
    _need_dim4plus(samples)
    bag = bag or _JetBag(samples)
    n = samples.n
    detC, q = bag.contracted("from-C", DEFAULT_TOLERANCES)  # Ct_bcde A^cde
    covq = q.d - np.einsum("pcab,pc->pab", samples["gamma"], q.val)
    t1 = (1 - n) ** 2 * (detC.val ** 2)[:, None, None] * samples["P"]
    t2 = -2 * (1 - n) * detC.val[:, None, None] * covq
    t3 = 2 * (1 - n) * np.einsum("pa,pb->pab", detC.d, q.val)
    t4 = 4 * np.einsum("pa,pb->pab", q.val, q.val)
    disp = _trace_free(t1 + t2 + t3 + t4, samples)
    res = Residual("Gbar", disp, _scale_of(t1, t2, t3, t4))
    if not cross_check:
        return res, None
    e = e_tensor(samples, k_field(samples, "from-C", bag=bag))
    ref = (1 - n) ** 2 * (detC.val ** 2)[:, None, None] * e.values
    denom = max(np.max(np.abs(ref)), 1e-300)
    return res, float(np.max(np.abs(disp - ref)) / denom)


def dim4_invariant(samples: CurvatureSamples, bag=None) -> Residual:
    """Trace-free[(|C|^2)^2 P + 4|C|^2 nabla(C.A) - 4(C.A) nabla|C|^2
    + 16 (C.A)(x)(C.A)], the weight -8 obstruction in dimension 4."""
    if samples.n != 4:
        raise ValueError("dim4_invariant needs dimension 4")
    bag = bag or _JetBag(samples)
    # |C|^2 = L^a_a and C_bcde A^cde = w_b, the pieces of the from-L K
    lop = bag.l_operator
    c2 = Jet(np.trace(lop.val, axis1=1, axis2=2),
             np.trace(lop.d, axis1=2, axis2=3))
    q = bag.w
    covq = q.d - np.einsum("pcab,pc->pab", samples["gamma"], q.val)
    t1 = (c2.val ** 2)[:, None, None] * samples["P"]
    t2 = 4 * c2.val[:, None, None] * covq
    t3 = -4 * np.einsum("pb,pa->pab", q.val, c2.d)
    t4 = 16 * np.einsum("pa,pb->pab", q.val, q.val)
    disp = _trace_free(t1 + t2 + t3 + t4, samples)
    return Residual("dim4", disp, _scale_of(t1, t2, t3, t4))


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
    bag = _JetBag(samples)

    chosen = None
    if policy == "auto":
        for cand in ("from-L", "from-C") + (("dim4-C3",) if n == 4 else ()):
            try:
                k = k_field(samples, cand, tol, bag)
                chosen = cand
                break
            except PolicyError as exc:
                report.notes.append(str(exc))
    else:
        k = k_field(samples, policy, tol, bag)
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
        report.residuals["dim4"] = dim4_invariant(samples, bag)

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
    bag = _JetBag(samples)
    try:
        k = k_field(samples, policy, tol, bag)
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
