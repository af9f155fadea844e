"""The curvature ladder of a metric and its identity test harness.

Conventions, fixed once for the whole package and pinned by tests against
closed-form example metrics:

* commutator:      (nabla_a nabla_b - nabla_b nabla_a) V^c = R_ab^c_d V^d
* Ricci:           Ric_ab = R_ca^c_b;       scalar R = g^ab Ric_ab
* Schouten:        Ric_ab = (n-2) P_ab + J g_ab,  J = trace P = R/(2(n-1))
* Weyl:            C_abcd = R_abcd - 2 g_c[a P_b]d - 2 g_d[b P_a]c
* Cotton:          A_abc = nabla_b P_ca - nabla_c P_ba
* Bach:            B_ab  = nabla^c A_acb + P^dc C_dacb

`CurvaturePack` materializes these lazily as symbolic TensorFields and
compiles them (with their first coordinate partials) into one tape per
stage, once per metric: `CurvaturePack.tape` caches it on the pack.
`CurvatureSamples` runs that tape at a batch of sample points, after which
all pointwise work downstream is plain numpy; `as_samples` turns a metric,
a pack or samples into samples."""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from .evaluate import compile_batch, run_batch
from .expressions import ZERO, add, diff, mul, neg, rational
from .geometry import (
    DOWN,
    UP,
    MetricField,
    TensorField,
    conformal_rescale,
    covariant_derivative,
    evaluate_components,
    partial_derivative,
    permutation_sign,
    sym_einsum,
)

__all__ = [
    "CurvaturePack",
    "CurvatureSamples",
    "as_samples",
    "curvature_pack",
    "identity_suite",
    "identity_residuals",
    "cotton_transform_check",
    "einstein_residual",
    "numeric_cov",
    "antisym_axes",
]


def curvature_pack(g):
    """Curvature ladder over one metric (n >= 3)."""
    return CurvaturePack(g)


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

    def schouten_partials(self):
        return partial_derivative(self.schouten)

    def trace_partials(self):
        j = self.schouten_trace
        return np.asarray([diff(j, c) for c in self.chart.coords], dtype=object)

    # --- numeric sampling -------------------------------------------------
    def samples(self, points, stage="full"):
        """Evaluate the ladder (plus first partials) at the given points.
        stage: 'ricci' (metric, connection, Riemann, Ricci, scalar,
        Schouten), 'full' (adds Weyl, Cotton, Bach and the partials the
        invariants need)."""
        return CurvatureSamples(self, points, stage)

    def bindings(self, points):
        return [self.g.point_bindings(pt) for pt in points]

    def tape(self, stage):
        """(program, {name: (start, stop, shape)}): the ladder up to `stage`
        compiled into one tape, once per pack and stage."""
        if stage not in _STAGES:
            raise ValueError(f"unknown stage {stage}")
        return self._get(("tape", stage), lambda: self._compile(stage))

    def _compile(self, stage):
        flat = []
        slices = {}
        for name, comps in self._field_list(stage).items():
            comps = np.asarray(comps, dtype=object)
            start = len(flat)
            flat.extend(comps.reshape(-1))
            slices[name] = (start, len(flat), comps.shape)
        return compile_batch(flat), slices

    def _field_list(self, stage):
        fields = {
            "g": self.g.field.comps,
            "dg": partial_derivative(self.g.field),
            "ginv": self.g.inverse_comps(),
            "gamma": self.gamma.comps,
            "riem": self.riemann.comps,
            "ricci": self.ricci.comps,
            "scalar": np.asarray(self.scalar, dtype=object),
            "P": self.schouten.comps,
            "J": np.asarray(self.schouten_trace, dtype=object),
        }
        if stage == "full":
            fields.update({
                "dP": self.schouten_partials(),
                "dJ": self.trace_partials(),
                "C": self.weyl.comps,
                "dC": partial_derivative(self.weyl),
                "A": self.cotton.comps,
                "dA": partial_derivative(self.cotton),
                "B": self.bach.comps,
            })
        return fields


_STAGES = ("ricci", "full")


class CurvatureSamples:
    """Numeric values (and first coordinate partials) of the ladder at a
    batch of points.  values[name] has shape (P,) + component shape; the
    partial-derivative axis of d-prefixed entries comes right after P."""

    def __init__(self, pack, points, stage="full"):
        self.pack = pack
        self.n = pack.n
        self.points = [dict(p) for p in points]
        self.bindings = pack.bindings(points)
        self._derived = {}
        prog, slices = pack.tape(stage)
        vals = run_batch(prog, self.bindings)
        n_pts = len(self.bindings)
        self.values = {name: vals[:, a:b].reshape((n_pts,) + shape)
                       for name, (a, b, shape) in slices.items()}

    def __getitem__(self, name):
        return self.values[name]

    def __contains__(self, name):
        return name in self.values

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

    def cov(self, name, variance):
        """Covariant derivative from stored partials: shape (P, n, ...)."""
        key = ("cov", name, tuple(variance))
        return self.derived(key, lambda: numeric_cov(
            self.values[name], self.values["d" + name], variance,
            self.values["gamma"]))

    def scale(self):
        """Residual scale max(1, |C|, |A|, |P|) per point."""
        def build():
            parts = [np.ones(len(self.points))]
            for nm in ("C", "A", "P"):
                if nm in self.values:
                    v = self.values[nm]
                    parts.append(np.max(np.abs(v.reshape(len(self.points), -1)),
                                        axis=1))
            return np.max(np.stack(parts), axis=0)
        return self.derived(("scale",), build)


def as_samples(source, points=None):
    """The full-stage CurvatureSamples of `source` at `points`.  `source` is
    a CurvatureSamples (returned as is; `points` is ignored), a
    CurvaturePack or a MetricField."""
    if isinstance(source, CurvatureSamples):
        return source
    if points is None:
        raise ValueError("points are required when passing a metric or pack")
    pack = source if isinstance(source, CurvaturePack) else CurvaturePack(source)
    return pack.samples(points)


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
    covC = s.cov("C", (DOWN,) * 4)   # (P, x, a, b, c, d)
    covA = s.cov("A", (DOWN,) * 3)
    covP = s.cov("P", (DOWN,) * 2)
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
    covG = numeric_cov(g, s["dg"], (DOWN, DOWN), s["gamma"])
    res["metricity"] = _maxnorm(covG, P)
    return res


def identity_suite(source, points, tolerances=None):
    """Evaluate the identity residuals of a metric (or pack, or samples; see
    `as_samples`) at sample points.

    Returns {identity name: (max residual, max scale, passes)}."""
    from .config import DEFAULT_TOLERANCES
    tol = tolerances or DEFAULT_TOLERANCES
    s = as_samples(source, points)
    res = identity_residuals(s)
    scale = s.scale()
    report = {}
    for name, r in res.items():
        worst = float(np.max(r / (tol.tol_rel * scale + tol.tol_abs)))
        report[name] = (float(np.max(r)), float(np.max(scale)),
                        bool(worst < 1.0))
    return report


def einstein_residual(pack, points):
    """Max-norm of the trace-free Schouten tensor at the points (zero iff
    Einstein), along with the residual scale."""
    s = pack.samples(points, stage="ricci")
    P = s["P"]
    g, gi = s["g"], s["ginv"]
    n = pack.n
    tf = P - np.einsum("pab,p->pab", g,
                       np.einsum("pab,pab->p", gi, P) / n)
    npts = len(points)
    scale = np.maximum(1.0, np.max(np.abs(P.reshape(npts, -1)), axis=1))
    return float(np.max(_maxnorm(tf, npts))), float(np.max(scale))


def cotton_transform_check(g, upsilon, points, pack=None, hat_pack=None):
    """Residuals of the conformal transformation rules.

    Checks, at the sample points: the Cotton rule
    A-hat = A + (d upsilon)^k C_k..., the Schouten rule, and invariance of
    the Weyl tensor with placement C_ab^c_d."""
    pack = pack or curvature_pack(g)
    ghat = conformal_rescale(g, upsilon)
    hat_pack = hat_pack or curvature_pack(ghat)
    s = pack.samples(points)
    sh = hat_pack.samples(points)
    P = len(points)

    coords = g.chart.coords
    grad = [diff(upsilon, c) for c in coords]
    du = evaluate_components(np.asarray(grad, dtype=object), s.bindings)
    hess = evaluate_components(np.asarray(
        [[diff(da, c) for c in coords] for da in grad], dtype=object),
        s.bindings)

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
