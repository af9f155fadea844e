"""Sharp obstruction invariants and the conformally-Einstein decision
pipeline at the tensor level.

Everything here is pointwise numerics on sampled curvature.  Quantities
built from adjugates and determinants of the Weyl operators carry exact
first derivatives through a small forward-mode jet algebra (value plus
coordinate partials), so covariant derivatives of e.g. K_b = Dt_bcde A^cde
need no finite differencing and no symbolic adjugates.

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
    weyl_operators,
    weyl_vanishes,
    _pair_matrix,
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

    @classmethod
    def constant(cls, val, n):
        val = np.asarray(val, dtype=float)
        return cls(val, np.zeros(val.shape[:1] + (n,) + val.shape[1:]))

    def __add__(self, other):
        return Jet(self.val + other.val, self.d + other.d)

    def __sub__(self, other):
        return Jet(self.val - other.val, self.d - other.d)

    def __neg__(self):
        return Jet(-self.val, -self.d)

    def scaled(self, c):
        return Jet(c * self.val, c * self.d)


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
    d = -np.einsum("pab,pzbc,pcd->pzad", inv, m.d, inv)
    return Jet(inv, d)


def jet_det(m: Jet, adj) -> Jet:
    """Determinant with derivative d(det) = tr(adj . dM), given the
    adjugate of m.val (defined for singular matrices too)."""
    return Jet(np.linalg.det(m.val), np.einsum("pab,pzba->pz", adj, m.d))


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
            gi = self.s["ginv"]
            d = -np.einsum("pab,pzbc,pcd->pzad", gi, self.s["dg"], gi)
            return Jet(gi, d)
        return self._get("ginv", build)

    @property
    def C(self):
        return self._get("C", lambda: Jet(self.s["C"], self.s["dC"]))

    @property
    def A(self):
        return self._get("A", lambda: Jet(self.s["A"], self.s["dA"]))

    @property
    def P(self):
        return self._get("P", lambda: Jet(self.s["P"], self.s["dP"]))

    def _raise_all(self, t: Jet, k: int) -> Jet:
        gi = self.ginv
        out = t
        for s in range(k):
            letters = "abcdefgh"[:k]
            src = letters[:s] + "x" + letters[s + 1:]
            spec = f"px{letters[s]},p{src}->p{letters}"
            out = jet_einsum(spec, gi, out)
        return out

    @property
    def C_allup(self):
        return self._get("C_allup", lambda: self._raise_all(self.C, 4))

    @property
    def L(self):
        """L^a_b = C^acde C_bcde with derivative."""
        return self._get("L", lambda: jet_einsum(
            "pacde,pbcde->pab", self.C_allup, self.C))

    @property
    def weyl_operator_matrix(self):
        """Ranked-pair matrix of C_ab^cd as a jet."""
        return self._get("wop", lambda: Jet(
            weyl_operators(self.s)[0],
            _pair_matrix(self._raise_all_last2(self.C).d)))

    def policy_operator(self, policy, tol):
        """(M, ||M||, adj M) as jets for policy 'from-L' (M = L^a_b) or
        'from-C' (the 2-form operator), once the policy's preconditions
        hold: a numerically nonzero Weyl tensor and an invertible M."""
        def build():
            _require_nonzero_weyl(self.s, tol, policy)
            if policy == "from-L":
                m, ops, name = self.L, l_operators(self.s), "||L||"
            else:
                m, ops, name = (self.weyl_operator_matrix,
                                weyl_operators(self.s), "||C||")
            det = jet_det(m, ops[2])
            _check_policy_matrix(m.val, det.val, tol, policy, name,
                                 self.s.points)
            return m, det, jet_adjugate(m, det)
        return self._get(("op", policy, tol.rank_tol), build)

    def _raise_all_last2(self, t: Jet) -> Jet:
        gi = self.ginv
        out = jet_einsum("pxc,pabxd->pabcd", gi, t)
        return jet_einsum("pxd,pabcx->pabcd", gi, out)


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
    the precondition fails."""
    n = bag.n
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of "
                         f"{POLICIES + ('user',)}")
    if policy == "from-L":
        _, det, adj = bag.policy_operator(policy, tol)
        d = jet_einsum("pab,pbcde->pacde", adj, bag.C_allup)
        return jet_einsum("p,pacde->pacde", jet_reciprocal(det, -1.0),
                          d), det
    if policy == "from-C":
        _, det, adj = bag.policy_operator(policy, tol)
        ct = Jet(_pair_tensor(adj.val), _pair_tensor(adj.d))  # Ct_xy^de
        gi = bag.ginv
        ctup = jet_einsum("pxa,pyc,pxyde->pacde", gi, gi, ct)
        return jet_einsum("p,pacde->pacde", jet_reciprocal(det),
                          ctup).scaled(2.0 / (1.0 - n)), det
    _require_nonzero_weyl(bag.s, tol, policy)
    if n != 4:
        raise PolicyError("policy dim4-C3 needs dimension 4")
    cmix = bag._raise_all_last2(bag.C)
    c3 = jet_einsum("pabcd,pcdef,pefab->p", cmix, cmix, cmix)
    _check_policy_scalar(c3.val, np.max(np.abs(cmix.val), axis=(1, 2, 3, 4)),
                         3, tol, "dim4-C3", "C^3", bag.s.points)
    # 4 C^de_fg C^fgca / C3; the factor 4 normalizes the defining
    # contraction to exactly -identity
    cup2 = _lower_last2(bag, bag.C_allup)
    cc = jet_einsum("pdefg,pfgca->pdeca", cup2, bag.C_allup)
    perm = Jet(np.transpose(cc.val, (0, 4, 3, 1, 2)),
               np.transpose(cc.d, (0, 1, 5, 4, 2, 3)))
    return jet_einsum("p,pacde->pacde", jet_reciprocal(c3, 4.0), perm), c3


def dual_candidate_jet(bag: _JetBag, policy, tolerances=None) -> Jet:
    """Fully raised Dt^acde with exact first derivatives (see
    _left_inverse for the policies), built once per bag."""
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


def _lower_last2(bag, t: Jet) -> Jet:
    g = bag.g
    out = jet_einsum("pxc,pabxd->pabcd", g, t)
    return jet_einsum("pxd,pabcx->pabcd", g, out)


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
    """K_a = Dt_a^{bcd} A_bcd for the chosen left-inverse policy."""
    bag = bag or _JetBag(samples)
    dt = dual_candidate_jet(bag, policy, tolerances)
    kup = jet_einsum("pfabc,pabc->pf", dt, bag.A)
    kl = jet_einsum("pab,pb->pa", bag.g, kup)
    return KField(kl.val, kl.d, policy)


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


def e_tensor(samples: CurvatureSamples, dt: Jet, bag=None) -> Residual:
    """Trace-free[ P_ab - nabla_a K_b + K_a K_b ] with K_b = Dt_bcde A^cde.

    Conformally invariant (weight 0) when Dt is canonical."""
    bag = bag or _JetBag(samples)
    kup = jet_einsum("pfabc,pabc->pf", dt, bag.A)
    kl = jet_einsum("pab,pb->pa", bag.g, kup)
    covk = kl.d - np.einsum("pcab,pc->pab", samples["gamma"], kl.val)
    core = samples["P"] - covk + np.einsum("pa,pb->pab", kl.val, kl.val)
    tf = _trace_free(core, samples)
    return Residual("E", tf, _scale_of(samples["P"], covk,
                                       np.einsum("pa,pb->pab", kl.val, kl.val)))


def g_tensor(samples: CurvatureSamples, bag=None, cross_check=True):
    """The ||L||-cleared natural display of E (weight -8n); returns
    (Residual, cross-check relative error vs ||L||^2 E)."""
    _need_dim4plus(samples)
    bag = bag or _JetBag(samples)
    _, detL, adjL = bag.policy_operator("from-L", DEFAULT_TOLERANCES)
    dmix = jet_einsum("pab,pbcde->pacde", adjL, bag.C_allup).scaled(-1.0)
    dmix = _lower_first(bag, dmix)           # D_b^cde (first slot lowered)
    q = jet_einsum("pbcde,pcde->pb", dmix, bag.A)
    covq = q.d - np.einsum("pcab,pc->pab", samples["gamma"], q.val)
    t1 = (detL.val ** 2)[:, None, None] * samples["P"]
    t2 = -detL.val[:, None, None] * covq
    t3 = np.einsum("pa,pb->pab", detL.d, q.val)
    t4 = np.einsum("pa,pb->pab", q.val, q.val)
    disp = _trace_free(t1 + t2 + t3 + t4, samples)
    res = Residual("G", disp, _scale_of(t1, t2, t3, t4))
    if not cross_check:
        return res, None
    dt = dual_candidate_jet(bag, "from-L")
    e = e_tensor(samples, dt, bag)
    ref = (detL.val ** 2)[:, None, None] * e.values
    denom = max(np.max(np.abs(ref)), 1e-300)
    return res, float(np.max(np.abs(disp - ref)) / denom)


def _lower_first(bag, t: Jet) -> Jet:
    return jet_einsum("pxa,pxcde->pacde", bag.g, t)


def gbar_tensor(samples: CurvatureSamples, bag=None, cross_check=True):
    """The ||C||-cleared display (weight 2n(1-n)); cross-checked against
    (1-n)^2 ||C||^2 E with the Lambda2 left inverse."""
    _need_dim4plus(samples)
    bag = bag or _JetBag(samples)
    n = samples.n
    _, detC, adj = bag.policy_operator("from-C", DEFAULT_TOLERANCES)
    ct = Jet(_pair_tensor(adj.val), _pair_tensor(adj.d))  # Ct_bc^de
    ctlow = _lower_last2(bag, ct)            # Ct_bcde
    aup = bag._raise_all(bag.A, 3)
    q = jet_einsum("pbcde,pcde->pb", ctlow, aup)
    covq = q.d - np.einsum("pcab,pc->pab", samples["gamma"], q.val)
    t1 = (1 - n) ** 2 * (detC.val ** 2)[:, None, None] * samples["P"]
    t2 = -2 * (1 - n) * detC.val[:, None, None] * covq
    t3 = 2 * (1 - n) * np.einsum("pa,pb->pab", detC.d, q.val)
    t4 = 4 * np.einsum("pa,pb->pab", q.val, q.val)
    disp = _trace_free(t1 + t2 + t3 + t4, samples)
    res = Residual("Gbar", disp, _scale_of(t1, t2, t3, t4))
    if not cross_check:
        return res, None
    dt = dual_candidate_jet(bag, "from-C")
    e = e_tensor(samples, dt, bag)
    ref = (1 - n) ** 2 * (detC.val ** 2)[:, None, None] * e.values
    denom = max(np.max(np.abs(ref)), 1e-300)
    return res, float(np.max(np.abs(disp - ref)) / denom)


def dim4_invariant(samples: CurvatureSamples, bag=None) -> Residual:
    """Trace-free[(|C|^2)^2 P + 4|C|^2 nabla(C.A) - 4(C.A) nabla|C|^2
    + 16 (C.A)(x)(C.A)], the weight -8 obstruction in dimension 4."""
    if samples.n != 4:
        raise ValueError("dim4_invariant needs dimension 4")
    bag = bag or _JetBag(samples)
    c2 = jet_einsum("pabcd,pabcd->p", bag.C_allup, bag.C)
    aup = bag._raise_all(bag.A, 3)
    q = jet_einsum("pbcde,pcde->pb", bag.C, aup)   # C_bcde A^cde
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
                dt = dual_candidate_jet(bag, cand, tol)
                chosen = cand
                break
            except PolicyError as exc:
                report.notes.append(str(exc))
    else:
        dt = dual_candidate_jet(bag, policy, tol)
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

    k = k_field(samples, chosen, tol, bag)
    report.k_provenance = chosen
    report.residuals["cspace"] = cspace_residual(samples, k)
    report.residuals["bach"] = bach_residual(samples, k)
    e = e_tensor(samples, dt, bag)
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
