"""The curvature ladder of a metric and its identity test harness.

Conventions, fixed once for the whole package and pinned by tests against
closed-form example metrics:

* commutator:      (nabla_a nabla_b - nabla_b nabla_a) V^c = R_ab^c_d V^d
* Ricci:           Ric_ab = R_ca^c_b;       scalar R = g^ab Ric_ab
* Schouten:        Ric_ab = (n-2) P_ab + J g_ab,  J = trace P = R/(2(n-1))
* Weyl:            C_abcd = R_abcd - 2 g_c[a P_b]d - 2 g_d[b P_a]c
* Cotton:          A_abc = nabla_b P_ca - nabla_c P_ba
* Bach:            B_ab  = nabla^c A_acb + P^dc C_dacb

Numeric values come from the metric alone.  Every quantity the invariants
use involves at most four derivatives of g (the Bach tensor, and the first
partials of the Weyl and Cotton tensors), so `CurvaturePack` compiles one
small tape per metric: the partials of g_ij up to order 4
(`CurvaturePack.metric_jet_tape`).  `CurvaturePack.samples` runs it at a
batch of points and builds every ladder entry from that 4-jet by truncated
Taylor arithmetic (`taylor`), in chunks of points, computing each quantity
only to the order its consumers need: g to 4, the inverse metric to 3,
the Christoffel symbols, Ricci, J and P to 2, Riemann, Weyl and Cotton to
1 and Bach to 0.  The samples keep the order-1 jets of g, g^-1, P, J, C
and A (`CurvatureSamples.jet`), the operands of the K jets in
`obstructions`; the values and d-prefixed partials of these are views of
the jets, the other entries (Christoffel symbols, Ricci, scalar, Bach)
are values only.  Other jets at the same points come from the same
machinery: `scalar_jet` compiles one tape of a scalar expression's
partials (a conformal factor, an Einstein scale), `christoffel_jet` runs
the pack's metric-jet tape again and reads the order-2 prefix of the jet
for g^-1 and the Christoffel symbols beyond their values.

The pack's symbolic TensorFields remain for symbolic calculus (coframe
components, the symbolic tractor calculus of `tractor`) and as the tests'
oracle for the numeric ladder; no command reads them."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import taylor
from .config import DEFAULT_TOLERANCES
from .evaluate import compile_batch, run_batch
from .expressions import ZERO, add, diff, mul, neg, rational
from .geometry import (
    DOWN,
    UP,
    MetricField,
    SingularMetricError,
    TensorField,
    covariant_derivative,
    partial_derivative,
    permutation_sign,
    sym_einsum,
)

__all__ = [
    "CurvaturePack",
    "CurvatureSamples",
    "identity_suite",
    "identity_residuals",
    "cotton_transform_check",
    "trace_free_residual",
    "scalar_jet",
    "christoffel_jet",
    "numeric_cov",
    "antisym_axes",
]


class CurvaturePack:
    def __init__(self, g: MetricField):
        self.g = g
        self.chart = g.chart
        self.n = g.dim
        self._cache = {}

    def _get(self, name, builder):
        if name not in self._cache:
            self._cache[name] = builder()
        return self._cache[name]

    # --- symbolic fields -------------------------------------------------
    @property
    def gamma(self):
        return self.g.christoffel()

    @property
    def riemann_mixed(self):
        """R_ab^c_d with the commutator convention above."""
        return self._get("riemann_mixed", self._riemann_mixed)

    def _riemann_mixed(self):
        n = self.n
        gam = self.gamma.comps
        dgam = partial_derivative(self.gamma)  # dgam[x, a, b, c] = d_x Gamma^a_bc
        comps = np.full((n, n, n, n), ZERO, dtype=object)
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(n):
                    for d in range(n):
                        terms = [dgam[a, c, b, d], neg(dgam[b, c, a, d])]
                        for e in range(n):
                            g1, g2 = gam[c, a, e], gam[e, b, d]
                            if g1 is not ZERO and g2 is not ZERO:
                                terms.append(mul(g1, g2))
                            g3, g4 = gam[c, b, e], gam[e, a, d]
                            if g3 is not ZERO and g4 is not ZERO:
                                terms.append(neg(mul(g3, g4)))
                        v = add(*terms)
                        comps[a, b, c, d] = v
                        comps[b, a, c, d] = neg(v)
        return TensorField(self.chart, (DOWN, DOWN, UP, DOWN), comps, weight=0)

    @property
    def riemann(self):
        """Fully lowered R_abcd = g_ce R_ab^e_d."""
        return self._get("riemann", lambda: TensorField(
            self.chart, (DOWN,) * 4,
            sym_einsum("ce,abed->abcd", self.g.comps, self.riemann_mixed.comps),
            weight=2))

    @property
    def ricci(self):
        return self._get("ricci", lambda: TensorField(
            self.chart, (DOWN, DOWN),
            sym_einsum("cacb->ab", self.riemann_mixed.comps), weight=0))

    @property
    def scalar(self):
        return self._get("scalar", lambda: sym_einsum(
            "ab,ab->", self.g.inverse_comps(), self.ricci.comps))

    @property
    def schouten_trace(self):
        return self._get("schouten_trace", lambda: mul(
            rational(1, 2 * (self.n - 1)), self.scalar))

    @property
    def schouten(self):
        def build():
            n = self.n
            ric = self.ricci.comps
            j = self.schouten_trace
            gc = self.g.comps
            out = np.empty((n, n), dtype=object)
            inv = rational(1, n - 2)
            for a in range(n):
                for b in range(a, n):
                    v = mul(inv, add(ric[a, b], neg(mul(j, gc[a, b]))))
                    out[a, b] = out[b, a] = v
            return TensorField(self.chart, (DOWN, DOWN), out, weight=0)
        return self._get("schouten", build)

    @property
    def weyl(self):
        """Totally trace-free part of the lowered Riemann tensor."""
        def build():
            n = self.n
            R = self.riemann.comps
            P = self.schouten.comps
            gc = self.g.comps
            out = np.full((n, n, n, n), ZERO, dtype=object)
            for a in range(n):
                for b in range(a + 1, n):
                    for c in range(n):
                        for d in range(n):
                            # R_abcd - (g_ca P_bd - g_cb P_ad)
                            #        - (g_db P_ac - g_da P_bc)
                            terms = [R[a, b, c, d]]
                            if gc[c, a] is not ZERO:
                                terms.append(neg(mul(gc[c, a], P[b, d])))
                            if gc[c, b] is not ZERO:
                                terms.append(mul(gc[c, b], P[a, d]))
                            if gc[d, b] is not ZERO:
                                terms.append(neg(mul(gc[d, b], P[a, c])))
                            if gc[d, a] is not ZERO:
                                terms.append(mul(gc[d, a], P[b, c]))
                            v = add(*terms)
                            out[a, b, c, d] = v
                            out[b, a, c, d] = neg(v)
            return TensorField(self.chart, (DOWN,) * 4, out, weight=2)
        return self._get("weyl", build)

    @property
    def cov_schouten(self):
        return self._get("cov_schouten",
                         lambda: covariant_derivative(self.schouten, self.g))

    @property
    def cotton(self):
        def build():
            n = self.n
            DP = self.cov_schouten.comps  # DP[x, b, c] = nabla_x P_bc
            out = np.full((n, n, n), ZERO, dtype=object)
            for a in range(n):
                for b in range(n):
                    for c in range(b + 1, n):
                        v = add(DP[b, c, a], neg(DP[c, b, a]))
                        out[a, b, c] = v
                        out[a, c, b] = neg(v)
            return TensorField(self.chart, (DOWN,) * 3, out, weight=0)
        return self._get("cotton", build)

    @property
    def cov_cotton(self):
        return self._get("cov_cotton",
                         lambda: covariant_derivative(self.cotton, self.g))

    @property
    def bach(self):
        def build():
            n = self.n
            DA = self.cov_cotton.comps  # DA[x, a, b, c] = nabla_x A_abc
            gi = self.g.inverse_comps()
            div = sym_einsum("cx,xacb->ab", gi, DA)
            pw = sym_einsum("dx,cy,xy,dacb->ab", gi, gi, self.schouten.comps,
                            self.weyl.comps)
            out = np.empty((n, n), dtype=object)
            for a in range(n):
                for b in range(n):
                    out[a, b] = add(div[a, b], pw[a, b])
            return TensorField(self.chart, (DOWN, DOWN), out, weight=0)
        return self._get("bach", build)

    # --- numeric sampling -------------------------------------------------
    def samples(self, points):
        """The ladder's values, and the first partials the invariants
        need, at the given points (`CurvatureSamples`)."""
        return CurvatureSamples(self, points)

    def metric_jet_tape(self):
        """Tape of the partials d^alpha g_ij, i <= j, |alpha| <= 4
        (component-major, monomials in `taylor.monomials` order), compiled
        once per pack: the one tape every numeric quantity of the ladder
        comes from."""
        i, j = np.triu_indices(self.n)
        return self._get("metric-jet", lambda: compile_batch(
            _partials(self.g.comps[i, j], self.chart.coords, 4)))


# points per ladder chunk: bounds the transient jets, not the results
_CHUNK = 32


def _partials(exprs, coords, order):
    """d^alpha e for each expression e and |alpha| <= order
    (expression-major, monomials in `taylor.monomials` order), each partial
    taken from its parent monomial's."""
    parent, var = taylor.parents(len(coords), order)
    out = []
    for e in exprs:
        der = [e]
        for m in range(1, len(parent)):
            der.append(diff(der[parent[m]], coords[var[m]]))
        out.extend(der)
    return out


def scalar_jet(s, f, order):
    """Taylor jet (P, M) of order `order` of the scalar expression f at the
    points of the samples s (see `taylor`): f[:, 0] holds the values and
    f[:, 1:n + 1] the first partials."""
    prog = compile_batch(_partials([f], s.pack.chart.coords, order))
    return run_batch(prog, s.bindings) / taylor.factorials(s.n, order)


def christoffel_jet(s):
    """The inverse metric (P, M, n, n) and the Christoffel symbols
    Gamma^c_bd (P, M, n, n, n) to order 1 at the points of s, from the
    order-2 prefix of the pack's metric jet."""
    n = s.n
    gj = _metric_jet(run_batch(s.pack.metric_jet_tape(), s.bindings), n, 2)
    ginv = taylor.inverse(gj, n, 1)
    _, gamp = _christoffel(taylor.partials(gj, n, 1), ginv, n, 1)
    return ginv, gamp[..., _pair_tables(n)["sym"]]


class CurvatureSamples:
    """Numeric values (and first coordinate partials) of the ladder at a
    batch of points.  values[name] has shape (P,) + component shape; the
    partial-derivative axis of d-prefixed entries comes right after P."""

    def __init__(self, pack, points):
        self.pack = pack
        self.n = n = pack.n
        self.points = [dict(p) for p in points]
        self.bindings = [pack.g.point_bindings(pt) for pt in points]
        self._derived = {}
        prog = pack.metric_jet_tape()
        n_pts = len(self.points)
        self._jets, self.values = {}, {}
        for lo in range(0, max(n_pts, 1), _CHUNK):
            jet = _metric_jet(run_batch(prog, self.bindings[lo:lo + _CHUNK]),
                              n, 4)
            try:
                chunk = _ladder(jet, n)
            except np.linalg.LinAlgError:
                p = lo + _first_singular(jet[:, 0])
                raise SingularMetricError(
                    f"metric is singular at point {self.points[p]}") from None
            for store, part in zip((self._jets, self.values), chunk):
                for name, v in part.items():
                    if name not in store:
                        store[name] = np.empty((n_pts,) + v.shape[1:])
                    store[name][lo:lo + len(v)] = v
        for name, j in self._jets.items():
            j.flags.writeable = False
            self.values[name] = j[:, 0]
            if name != "ginv":
                self.values["d" + name] = j[:, 1:]

    def __getitem__(self, name):
        return self.values[name]

    def jet(self, name):
        """The read-only order-1 `taylor` jet (P, 1 + n) + component shape
        of g, ginv, P, J, C or A: values at [:, 0], d_z at [:, 1 + z]."""
        return self._jets[name]

    # --- derived numeric arrays (cached) ---------------------------------
    def derived(self, key, builder):
        if key not in self._derived:
            self._derived[key] = builder()
        return self._derived[key]

    def raised(self, name, pattern):
        """Raise the 1-marked slots of values[name] with the inverse metric,
        e.g. raised('C', (1, 1, 0, 0)) -> C^ab_cd."""
        key = (name, tuple(pattern))
        def build():
            arr = self.values[name]
            gi = self.values["ginv"]
            for s, flag in enumerate(pattern):
                if not flag:
                    continue
                arr = _contract_slot(arr, gi, s)
            return arr
        return self.derived(key, build)

    def scale(self):
        """Residual scale max(1, |C|, |A|, |P|) per point."""
        def build():
            parts = [np.ones(len(self.points))]
            for nm in ("C", "A", "P"):
                parts.append(_maxnorm(self.values[nm], len(self.points)))
            return np.max(np.stack(parts), axis=0)
        return self.derived(("scale",), build)


def _metric_jet(vals, n, order):
    """Jet (P, M, n, n) of g of order `order` <= 4 from the metric-jet
    tape's partials: the prefix of the 4-jet, as monomials are graded."""
    n_pts = vals.shape[0]
    i, j = np.triu_indices(n)
    m = taylor.size(n, order)
    coef = (vals.reshape(n_pts, len(i), vals.shape[1] // len(i))[:, :, :m]
            / taylor.factorials(n, order)).transpose(0, 2, 1)
    jet = np.empty((n_pts, m, n, n))
    jet[:, :, i, j] = coef
    jet[:, :, j, i] = coef
    return jet


@lru_cache(maxsize=None)
def _pair_tables(n):
    """Index tables of the packed index pairs.

    Symmetric pairs b <= d (np.triu_indices(n)) pack a tensor symmetric in
    two slots: `sym` (n, n) is the pair of (b, d) in either order and
    `weight` is 2 off the diagonal, so a contraction over both slots is a
    weighted sum over pairs.  Antisymmetric pairs a < b
    (np.triu_indices(n, 1)) pack the Riemann and Weyl tensors as matrices
    X[(ab), (cd)]: `anti` holds their (a, b) as column vectors, and
    `unpack` (flat index, sign) rebuilds the n^4 tensor from the flattened
    matrix, X[idx[ab], idx[cd]] times sign[ab] sign[cd]."""
    i, j = np.triu_indices(n)
    sym = np.empty((n, n), dtype=np.int64)
    sym[i, j] = sym[j, i] = np.arange(len(i))
    a, b = np.triu_indices(n, 1)
    idx = np.zeros((n, n), dtype=np.int64)
    idx[a, b] = idx[b, a] = np.arange(len(a))
    sign = np.zeros((n, n))
    sign[a, b], sign[b, a] = 1.0, -1.0
    return {"sym": sym, "weight": np.where(i == j, 1.0, 2.0), "pairs": (i, j),
            "anti": (a[:, None], b[:, None]),
            "unpack": ((idx[:, :, None, None] * len(a) + idx).reshape(-1),
                       np.multiply.outer(sign, sign).reshape(-1))}


def _unpack(x, tables):
    """The n^4 tensor of a packed antisymmetric pair matrix x (..., N, N)."""
    flat, sign = tables["unpack"]
    out = np.take(x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],)),
                  flat, axis=-1)
    out *= sign
    n = round(len(sign) ** 0.25)
    return out.reshape(x.shape[:-2] + (n,) * 4)


def _first_singular(mats):
    for p, m in enumerate(mats):
        try:
            np.linalg.inv(m)
        except np.linalg.LinAlgError:
            return p
    return 0


def _christoffel(dg, ginv, n, k):
    """Christoffel symbols of the first kind Gamma_e,bd, to the order of
    the partials dg (d_x g_ab at [x, a, b]), and Gamma^c_bd to order k,
    both packed over b <= d."""
    i, j = _pair_tables(n)["pairs"]
    dx = dg.swapaxes(-3, -2)                         # d_x g_ab at [a, x, b]
    low = dx[..., i, j] + dx[..., j, i]
    low -= dg[..., i, j]
    low *= 0.5
    return low, taylor.product("ce,es->cs", ginv, low, n, k)


def _ladder(gj, n):
    """(order-1 jets, values) of the ladder at a chunk of points from the
    4-jet `gj` of the metric.  Each quantity is computed to the order its
    consumers need: the Christoffel symbols, Ricci, J and P to order r = 2,
    Riemann, Weyl and Cotton to order q = 1 (for their first partials) and
    Bach to order 0.  g, g^-1, P, J, C and A are returned as order-1 jets;
    the Christoffel symbols, Ricci, the scalar curvature and Bach as
    values."""
    T = taylor
    r, q = 2, 1
    tab = _pair_tables(n)
    i, j = tab["pairs"]
    sym = tab["sym"]
    dg = T.partials(gj, n, r + 1)                    # d_x g_ab
    ginv = T.inverse(gj, n, r + 1)
    # Gamma_e,bd to the order of the Riemann tensor's partials
    low, gamp = _christoffel(dg[:, :T.size(n, r)], ginv, n, r)
    gam = gamp[..., sym]
    # Ric_bd = d_c Gamma^c_bd - d_b t_d + t_e Gamma^e_bd
    #          - Gamma^c_be Gamma^e_cd,  t_d = Gamma^c_cd = g^ce d_d g_ce / 2,
    # where d_c Gamma^c_bd = v^e Gamma_e,bd + (u_bd + u_db - l_bd) / 2 with
    # v^e = d_c g^ce, u_bd = g^ce d_b d_c g_ed = d_b (g^ce d_c g_ed)
    # - (d_b g^ce) d_c g_ed and l_bd = g^ce d_c d_e g_bd (`lap`): no
    # Christoffel symbol is needed beyond order r
    dginv = T.partials(ginv, n, r)                   # d_b g^ce
    gp = gj[..., i, j]
    ginvw = ginv[..., i, j] * tab["weight"]
    lap = T.product("s,st->t", ginvw, T.second_partials(gp, n, r), n, r)
    # g^ce d_c g_ed = sum over pairs c <= e of w g^ce (d_c g_ed + d_e g_cd)/2
    # and t_d, in one product
    vt = 0.5 * T.product("s,skd->kd", ginvw, np.stack(
        [dg[..., i, j, :] + dg[..., j, i, :], dg[..., i, j].swapaxes(-1, -2)],
        axis=-2), n, r + 1)
    u = T.partials(vt[..., 0, :], n, r) - T.product("bce,ced->bd", dginv,
                                                     dg, n, r)
    t = vt[..., 1, :]
    ric = (T.product("e,es->s", np.einsum("...cce->...e", dginv), low, n, r)
           - 0.5 * lap)[..., sym]
    ric = (ric + 0.5 * (u + np.swapaxes(u, -1, -2)) - T.partials(t, n, r)
           + T.product("e,ebd->bd", t, gam, n, r)
           - T.product("cbe,ecd->bd", gam, gam, n, r))
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    scalar = T.product("bd,bd->", ginv, ric, n, r)
    J = scalar / (2 * (n - 1))
    P = (ric - T.product(",bd->bd", J, gj, n, r)) / (n - 2)
    # R_abcd = d_a Gamma_c,bd - d_b Gamma_c,ad - Gamma_e,ac Gamma^e_bd
    # + Gamma_e,bc Gamma^e_ad over the pairs a < b, c < d
    a, b = tab["anti"]
    c, d = a.T, b.T
    dlow = T.partials(low, n, q)
    quad = T.product("es,et->st", low, gamp, n, q)
    riem = (dlow[..., a, c, sym[b, d]] - dlow[..., b, c, sym[a, d]]
            - quad[..., sym[a, c], sym[b, d]]
            + quad[..., sym[b, c], sym[a, d]])
    # C_abcd = R_abcd - g_ca P_bd + g_cb P_ad - g_db P_ac + g_da P_bc
    y = T.product("s,t->st", gp, P[..., i, j], n, q)   # g_s P_t
    C = (riem - y[..., sym[c, a], sym[b, d]] + y[..., sym[c, b], sym[a, d]]
         - y[..., sym[d, b], sym[a, c]] + y[..., sym[d, a], sym[b, c]])
    # nabla_x P_bc = d_x P_bc - w_xbc - w_xcb, w_xbc = Gamma^e_xb P_ec, and
    # A_abc = nabla_b P_ca - nabla_c P_ba
    dP = T.partials(P, n, q)
    w = T.product("exb,ec->xbc", gam, P, n, q)
    nabla_p = np.moveaxis(dP - w - np.swapaxes(w, -2, -1), -1, -3)
    A = nabla_p - np.swapaxes(nabla_p, -2, -1)
    gi = ginv[:, 0]
    cov_a = numeric_cov(A[:, 0], A[:, 1:], (DOWN,) * 3, gam[:, 0])
    C = _unpack(C, tab)
    B = (np.einsum("pcx,pxacb->pab", gi, cov_a)
         + np.einsum("pdx,pcy,pxy,pdacb->pab", gi, gi, P[:, 0], C[:, 0],
                     optimize=True))
    m1 = T.size(n, 1)
    jets = {"g": gj[:, :m1], "ginv": ginv[:, :m1], "P": P[:, :m1],
            "J": J[:, :m1], "C": C, "A": A}
    out = {"gamma": gam[:, 0], "ricci": ric[:, 0], "scalar": scalar[:, 0],
           "B": B}
    return jets, out


def _contract_slot(arr, gi, slot):
    """arr: (P, n,...); contract tensor slot `slot` with gi: (P, n, n)."""
    arr = np.moveaxis(arr, slot + 1, -1)
    out = np.einsum("p...e,pea->p...a", arr, gi)
    return np.moveaxis(out, -1, slot + 1)


def numeric_cov(vals, dvals, variance, gamma):
    """nabla from coordinate partials plus Christoffel corrections.

    vals: (P, n^k), dvals: (P, n, n^k) with axis 1 the partial index,
    gamma: (P, n, n, n) = Gamma^a_bc.  Returns (P, n, n^k)."""
    out = dvals.copy()
    for s, var in enumerate(variance):
        src = np.moveaxis(vals, s + 1, -1)  # (P, ..., e)
        if var == UP:
            corr = np.einsum("pcae,p...e->pa...c", gamma, src)
        else:
            corr = -np.einsum("peai,p...e->pa...i", gamma, src)
        out += np.moveaxis(corr, -1, s + 2)
    return out


# ---------------------------------------------------------------------------
# identities


def antisym_axes(arr, axes):
    """Antisymmetrize a numeric array over the given axes (with 1/k!)."""
    k = len(axes)
    out = np.zeros_like(arr)
    for perm in permutations(range(k)):
        order = list(range(arr.ndim))
        for i, p in enumerate(perm):
            order[axes[i]] = axes[p]
        out += permutation_sign(perm) * np.transpose(arr, order)
    return out / math.factorial(k)


def _maxnorm(arr, n_pts):
    return np.max(np.abs(arr.reshape(n_pts, -1)), axis=1)


def identity_residuals(s: CurvatureSamples):
    """Per-point max-norm residuals of the differential and algebraic
    identities the ladder must satisfy.  Keys name the identity."""
    n = s.n
    P = len(s.points)
    g, gi = s["g"], s["ginv"]
    C, A, Ps, B = s["C"], s["A"], s["P"], s["B"]
    gam = s["gamma"]
    covC = numeric_cov(C, s["dC"], (DOWN,) * 4, gam)  # (P, x, a, b, c, d)
    covA = numeric_cov(A, s["dA"], (DOWN,) * 3, gam)
    covP = numeric_cov(Ps, s["dP"], (DOWN,) * 2, gam)
    dJ = s["dJ"]                     # (P, x)

    res = {}

    # div C = (n-3) A
    divC = np.einsum("pdx,pxdabc->pabc", gi, covC)
    res["weyl-divergence"] = _maxnorm((n - 3) * A - divC, P)

    # div P = dJ
    divP = np.einsum("pax,pxab->pb", gi, covP)
    res["schouten-divergence"] = _maxnorm(divP - dJ, P)

    # div A = 0
    divA = np.einsum("pax,pxabc->pbc", gi, covA)
    res["cotton-divergence"] = _maxnorm(divA, P)

    # skew_xyz [ nabla_x A_byz - P_x^c C_yzbc ] = 0
    Pup = np.einsum("pxa,pac->pxc", Ps, gi)
    lhs = np.moveaxis(covA, 2, 4)            # (P, x, y, z, b) from (P,x,b,y,z)
    rhs = np.einsum("pxc,pyzbc->pxyzb", Pup, C)
    res["cotton-curl"] = _maxnorm(antisym_axes(lhs - rhs, (1, 2, 3)), P)

    # skew_xyz [ nabla_x C_yzcd - (g_cx A_dyz - g_dx A_cyz) ] = 0
    t = covC - np.einsum("pcx,pdyz->pxyzcd", g, A) \
             + np.einsum("pdx,pcyz->pxyzcd", g, A)
    res["second-bianchi"] = _maxnorm(antisym_axes(t, (1, 2, 3)), P)

    # Weyl symmetries
    res["weyl-pair-symmetry"] = _maxnorm(C - np.transpose(C, (0, 3, 4, 1, 2)), P)
    res["weyl-antisymmetry"] = _maxnorm(C + np.transpose(C, (0, 2, 1, 3, 4)), P)
    res["weyl-cyclic"] = _maxnorm(antisym_axes(C, (1, 2, 3)), P)

    # traces
    res["weyl-trace"] = np.max(np.stack([
        _maxnorm(np.einsum("pac,pabcd->pbd", gi, C), P),
        _maxnorm(np.einsum("pab,pabcd->pcd", gi, C), P),
        _maxnorm(np.einsum("pad,pabcd->pbc", gi, C), P),
    ]), axis=0)
    res["cotton-trace"] = np.max(np.stack([
        _maxnorm(np.einsum("pab,pabc->pc", gi, A), P),
        _maxnorm(np.einsum("pac,pabc->pb", gi, A), P),
    ]), axis=0)
    res["bach-symmetry"] = _maxnorm(B - np.transpose(B, (0, 2, 1)), P)
    res["bach-trace"] = _maxnorm(np.einsum("pab,pab->p", gi, B), P)

    # metricity
    covG = numeric_cov(g, s["dg"], (DOWN, DOWN), gam)
    res["metricity"] = _maxnorm(covG, P)
    return res


def identity_suite(s: CurvatureSamples, tolerances=DEFAULT_TOLERANCES):
    """The identity residuals of the samples s, reduced: {identity name:
    (max residual, max scale, passes)}."""
    res = identity_residuals(s)
    scale = s.scale()
    return {name: (float(np.max(r)), float(np.max(scale)),
                   bool(np.all(tolerances.passes(r, scale))))
            for name, r in res.items()}


def trace_free_residual(P, g, gi):
    """Max-norm of the trace-free part of the symmetric tensors P (P, n, n)
    with respect to the metrics g (inverses gi), along with the scale
    max(1, |P|)."""
    npts, n = P.shape[:2]
    tf = P - np.einsum("pab,p->pab", g,
                       np.einsum("pab,pab->p", gi, P) / n)
    scale = np.maximum(1.0, np.max(np.abs(P.reshape(npts, -1)), axis=1))
    return float(np.max(_maxnorm(tf, npts))), float(np.max(scale))


def cotton_transform_check(s: CurvatureSamples, sh: CurvatureSamples,
                           upsilon):
    """Residuals of the conformal transformation rules between the samples
    s of g and sh of e^{2 upsilon} g at the same points.

    Checks the Cotton rule A-hat = A + (d upsilon)^k C_k..., the Schouten
    rule, and invariance of the Weyl tensor with placement C_ab^c_d."""
    n, P = s.n, len(s.points)
    uj = scalar_jet(s, upsilon, 2)
    du = uj[:, 1:n + 1]
    hess = taylor.partials(taylor.partials(uj, n, 1), n, 0)[:, 0]

    gi = s["ginv"]
    uup = np.einsum("pab,pb->pa", gi, du)

    out = {}
    rhs = s["A"] + np.einsum("pk,pkabc->pabc", uup, s["C"])
    out["cotton-transform"] = float(np.max(_maxnorm(sh["A"] - rhs, P)))

    # Schouten: P-hat = P - nabla_a u_b + u_a u_b - 1/2 |u|^2 g
    covu = hess - np.einsum("peab,pe->pab", s["gamma"], du)
    usq = np.einsum("pa,pa->p", uup, du)
    rhsP = s["P"] - covu + np.einsum("pa,pb->pab", du, du) \
        - 0.5 * np.einsum("p,pab->pab", usq, s["g"])
    out["schouten-transform"] = float(np.max(_maxnorm(sh["P"] - rhsP, P)))

    cmix = s.raised("C", (0, 0, 1, 0))
    cmix_hat = sh.raised("C", (0, 0, 1, 0))
    out["weyl-invariance"] = float(np.max(_maxnorm(cmix_hat - cmix, P)))

    scale = s.scale()
    out["scale"] = float(np.max(scale))
    return out
