"""Standard tractor calculus: the rank n+2 bundle, its invariant metric and
connection, curvature, the second-order D operator, and the connection-rank
characterization of conformally Einstein metrics.

Concrete storage, in a fixed scale g on a chart of dimension n: a tractor
slot is an axis of size n+2 ordered [Y-part, Z-parts (n), X-part].

* an UP slot holds (alpha, m^a, tau) where the splitting triple is
  (alpha, mu_a, tau) and m^a = g^{ab} mu_b;
* a DOWN slot holds the h-lowered tuple, so that up-down contraction is a
  plain sum and lowering is multiplication by the block matrix
  [[0,0,1],[0,g_ab,0],[1,0,0]].

With this storage the projector triple is X^A = e_{n+1}, Y^A = e_0 (up),
X_A = e_0, Y_A = e_{n+1} (down), Z with metric blocks, reproducing the
standard inner-product table.

The TractorField/TractorTensor operations (connection, change of scale, D,
`einstein_candidate`, `omega`) are symbolic and take the `CurvaturePack`
of the scale.  The connection is `geometry.connection_derivative`, the
one connection loop of the package, with the Levi-Civita tables for the
tensor slots and Theta for the tractor slots; D takes its Laplacian from
`geometry.covariant_derivative`; a matrix acts on a tractor slot, to
lower, raise or change scale, through `_slot_matrix`.  The checks and
verdicts at the end run on numeric samples of the metric jet
(`CurvatureSamples`): the *_values functions, `annihilation_check`,
`parallel_tractor_check` and `rank_obstruction`, which ranks the reduced
stack [Omega; d Omega - Omega Theta] (`rank_rows`); nabla Omega itself is
built by `cov_omega_values` only."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, taylor
from .config import DEFAULT_TOLERANCES, max_norm, scale_of
from .curvature import (
    CurvaturePack,
    CurvatureSamples,
    christoffel_jet,
    pair_basis,
    scalar_jet,
    trace_free_residual,
    _pair_rows,
    _pair_tables,
)
from .evaluate import DomainError
from .expressions import ZERO, ONE, Expr, add, diff, func, mul, neg, rational
from .genericity import classify_genericity
from .geometry import (
    DOWN,
    UP,
    MetricField,
    TensorField,
    _levi_civita,
    conformal_rescale,
    connection_derivative,
    covariant_derivative,
    evaluate_components,
    sym_einsum,
)

__all__ = [
    "TUP",
    "TDOWN",
    "TractorField",
    "TractorTensor",
    "tractor_metric_matrix",
    "connection_matrices",
    "tractor_connection",
    "change_scale",
    "tractor_d",
    "einstein_candidate",
    "omega",
    "omega_values",
    "cov_omega_values",
    "div_omega_values",
    "div_omega_closed",
    "w_tensor_values",
    "theta_values",
    "einstein_tractor_values",
    "parallel_tractor_check",
    "annihilation_check",
    "rank_obstruction",
    "rank_rows",
    "rank_verdict",
    "RankReport",
]

TUP = "U"
TDOWN = "D"

_TENSOR_SLOTS = (UP, DOWN)


@dataclass(eq=False)
class TractorField:
    """A standard tractor V^A in the splitting of the scale `g`:
    components (alpha, mu_a, tau) of weights (1, 1, -1)."""

    g: MetricField
    alpha: Expr
    mu: TensorField       # one down slot
    tau: Expr

    def __post_init__(self):
        if self.mu.variance != (DOWN,):
            raise ValueError("mu must have a single down slot")

    def to_tensor(self):
        n = self.g.dim
        comps = np.empty(n + 2, dtype=object)
        comps[0] = self.alpha
        mup = sym_einsum("ab,b->a", self.g.inverse_comps(), self.mu.comps)
        for i in range(n):
            comps[1 + i] = mup[i]
        comps[n + 1] = self.tau
        return TractorTensor(self.g, (TUP,), comps)


@dataclass(eq=False)
class TractorTensor:
    """Mixed tensor-tractor components in a fixed scale.

    slots entries: 'u'/'d' tensor, 'U'/'D' tractor; comps is an object array
    with an axis of size n per tensor slot and n+2 per tractor slot."""

    g: MetricField
    slots: tuple
    comps: np.ndarray
    weight: int = 0

    def __post_init__(self):
        n = self.g.dim
        expected = tuple(n if s in _TENSOR_SLOTS else n + 2 for s in self.slots)
        if self.comps.shape != expected:
            raise ValueError(f"shape {self.comps.shape} != {expected}")

    @property
    def chart(self):
        return self.g.chart

    def map(self, fn):
        out = np.empty_like(self.comps)
        for idx in np.ndindex(*self.comps.shape):
            out[idx] = fn(self.comps[idx])
        return TractorTensor(self.g, self.slots, out, self.weight)

    def values_at(self, points):
        return evaluate_components(self.comps,
                                   [self.g.point_bindings(p) for p in points])


def tractor_metric_matrix(g, inverse=False):
    """The invariant metric on stored tuples, the lowering matrix
    [[0,0,1],[0,g_ab,0],[1,0,0]], or with `inverse` the raising matrix,
    g^ab in the middle block."""
    n = g.dim
    h = np.full((n + 2, n + 2), ZERO, dtype=object)
    h[0, n + 1] = ONE
    h[n + 1, 0] = ONE
    h[1:n + 1, 1:n + 1] = g.inverse_comps() if inverse else g.comps
    return h


def lower_tractor_slot(t: TractorTensor, slot):
    return _apply_tractor_matrix(t, slot, tractor_metric_matrix(t.g), TUP, TDOWN)


def raise_tractor_slot(t: TractorTensor, slot):
    return _apply_tractor_matrix(t, slot, tractor_metric_matrix(t.g, True),
                                 TDOWN, TUP)


def _apply_tractor_matrix(t, slot, mat, want, new):
    if t.slots[slot] != want:
        raise ValueError(f"slot {slot} is {t.slots[slot]}, expected {want}")
    slots = list(t.slots)
    slots[slot] = new
    return TractorTensor(t.g, tuple(slots), _slot_matrix(t.comps, slot, mat),
                         t.weight)


def _slot_matrix(comps, slot, mat):
    """comps with the matrix `mat` applied to the axis `slot`:
    out[..., I, ...] = mat[I, J] comps[..., J, ...]."""
    moved = np.moveaxis(comps, slot, -1)
    flat = moved.reshape(-1, moved.shape[-1])
    out = np.empty_like(flat)
    for i in range(flat.shape[0]):
        out[i] = sym_einsum("IJ,J->I", mat, flat[i])
    return np.moveaxis(out.reshape(moved.shape), -1, slot)


# ---------------------------------------------------------------------------
# connection


def connection_matrices(pack: CurvaturePack):
    """Symbolic tractor-connection matrices Theta_a acting on stored up
    tuples: (nabla_a v)_I = d_a v_I + Theta[a, I, J] v_J."""
    g, n = pack.g, pack.n
    gamma = g.christoffel().comps
    P = pack.schouten.comps
    gi = g.inverse_comps()
    pmix = sym_einsum("ax,xb->ab", P, gi)  # P_a^b
    th = np.full((n, n + 2, n + 2), ZERO, dtype=object)
    for a in range(n):
        for j in range(n):
            th[a, 0, 1 + j] = neg(g.comps[a, j])
            th[a, n + 1, 1 + j] = neg(P[a, j])
        for b in range(n):
            th[a, 1 + b, 0] = pmix[a, b]
            th[a, 1 + b, n + 1] = ONE if a == b else ZERO
            for j in range(n):
                th[a, 1 + b, 1 + j] = gamma[b, a, j]
    return th


def tractor_connection(t):
    """Coupled Levi-Civita tractor derivative; adds a down tensor slot
    leftmost.  Accepts a TractorField or TractorTensor.  Tensor slots take
    the Levi-Civita tables, an up tractor slot adds Theta[a, I, J] T^J and
    a down one subtracts Theta[a, J, I] T_J (`connection_derivative`)."""
    if isinstance(t, TractorField):
        t = t.to_tensor()
    g = t.g
    theta = connection_matrices(CurvaturePack(g))
    tables = {**_levi_civita(g), TUP: (1, theta),
              TDOWN: (-1, theta.transpose(0, 2, 1))}
    out = connection_derivative(t.comps, t.slots, tables, g.chart.coords)
    return TractorTensor(g, (DOWN,) + tuple(t.slots), out, t.weight)


# ---------------------------------------------------------------------------
# change of scale


def _scale_gradient(g, upsilon):
    """(d_a upsilon, g^ab d_b upsilon, |d upsilon|^2), symbolic."""
    du = np.asarray([diff(upsilon, c) for c in g.chart.coords], dtype=object)
    duu = sym_einsum("ab,b->a", g.inverse_comps(), du)
    return du, duu, sym_einsum("a,a->", du, duu)


def change_scale_matrices(g, upsilon):
    """(M_up, M_down): symbolic matrices mapping stored tuples in the scale
    g to stored tuples in e^{2 upsilon} g."""
    n = g.dim
    du, duu, usq = _scale_gradient(g, upsilon)
    ep = func("exp", upsilon)
    em = func("exp", neg(upsilon))
    m_up = np.full((n + 2, n + 2), ZERO, dtype=object)
    m_up[0, 0] = ep
    for a in range(n):
        m_up[1 + a, 0] = mul(em, duu[a])
        m_up[1 + a, 1 + a] = em
        m_up[n + 1, 1 + a] = neg(mul(em, du[a]))
    m_up[n + 1, 0] = mul(rational(-1, 2), em, usq)
    m_up[n + 1, n + 1] = em
    # down version: conjugate by the lowering matrices of the two scales
    hhat = tractor_metric_matrix(conformal_rescale(g, upsilon))
    m_down = sym_einsum("IK,KL,LJ->IJ", hhat, m_up,
                        tractor_metric_matrix(g, True))
    return m_up, m_down


def change_scale(t, upsilon):
    """Components of t in the rescaled scale e^{2 upsilon} g, including the
    density factor e^{w upsilon} of the object's weight."""
    ghat = conformal_rescale(t.g, upsilon)
    if isinstance(t, TractorField):
        du, duu, usq = _scale_gradient(t.g, upsilon)
        ep = func("exp", upsilon)
        mu = np.asarray([mul(ep, add(m, mul(d, t.alpha)))
                         for m, d in zip(t.mu.comps, du)], dtype=object)
        tau = mul(func("exp", neg(upsilon)),
                  add(t.tau, neg(sym_einsum("a,a->", duu, t.mu.comps)),
                      mul(rational(-1, 2), usq, t.alpha)))
        return TractorField(ghat, mul(ep, t.alpha),
                            TensorField(t.g.chart, (DOWN,), mu, weight=1), tau)
    m_up, m_down = change_scale_matrices(t.g, upsilon)
    comps = t.comps
    for s, kind in enumerate(t.slots):
        if kind not in _TENSOR_SLOTS:
            comps = _slot_matrix(comps, s, m_up if kind == TUP else m_down)
    if t.weight:
        f = func("exp", mul(rational(t.weight), upsilon))
        comps = np.asarray([mul(f, e) for e in comps.reshape(-1)],
                           dtype=object).reshape(comps.shape)
    return TractorTensor(ghat, t.slots, comps, t.weight)


# ---------------------------------------------------------------------------
# the D operator


def tractor_d(f, w, pack: CurvaturePack):
    """D applied to a weight-w scalar: the down-slot tractor with stored
    tuple (-box f, (n+2w-2) d_a f, (n+2w-2) w f), box f = Laplacian + w J,
    the Laplacian g^ab contracted with the Hessian nabla_a d_b f."""
    g, n = pack.g, pack.n
    df = TensorField(g.chart, (DOWN,), np.asarray(
        [diff(f, c) for c in g.chart.coords], dtype=object))
    lap = sym_einsum("ab,ab->", g.inverse_comps(),
                     covariant_derivative(df, g).comps)
    box = add(lap, mul(rational(w), pack.schouten_trace, f))
    c = n + 2 * w - 2
    comps = np.empty(n + 2, dtype=object)
    comps[0] = neg(box)
    comps[1:n + 1] = [mul(rational(c), d) for d in df.comps]
    comps[n + 1] = mul(rational(c * w), f)
    return TractorTensor(g, (TDOWN,), comps, weight=w - 1)


def einstein_candidate(pack: CurvaturePack, sigma):
    """I = (1/n) D sigma as an up tractor; parallel iff sigma^(-2) g is
    Einstein."""
    d = tractor_d(sigma, 1, pack)
    d = d.map(lambda e: mul(rational(1, pack.n), e))
    return raise_tractor_slot(d, 0)


# ---------------------------------------------------------------------------
# tractor curvature: symbolic assembly and numeric batches


def omega(pack: CurvaturePack):
    """Tractor curvature Omega_ab[C,D] assembled from the Weyl and Cotton
    tensors; both tractor slots down."""
    g = pack.g
    n = pack.n
    C = pack.weyl.comps
    A = pack.cotton.comps
    comps = np.full((n, n, n + 2, n + 2), ZERO, dtype=object)
    for a in range(n):
        for b in range(n):
            for i in range(n):
                for j in range(n):
                    comps[a, b, 1 + i, 1 + j] = C[a, b, i, j]
                comps[a, b, 0, 1 + i] = neg(A[i, a, b])
                comps[a, b, 1 + i, 0] = A[i, a, b]
    return TractorTensor(g, (DOWN, DOWN, TDOWN, TDOWN), comps, weight=0)


def theta_values(s: CurvatureSamples):
    """Numeric connection matrices (P, n, n+2, n+2)."""
    npts, n = len(s.points), s.n
    th = np.zeros((npts, n, n + 2, n + 2))
    g, gamma, P = s["g"], s["gamma"], s["P"]
    pmix = np.einsum("pax,pxb->pab", P, s["ginv"])
    th[:, :, 0, 1:n + 1] = -g
    th[:, :, n + 1, 1:n + 1] = -P
    for a in range(n):
        th[:, a, 1:n + 1, 0] = pmix[:, a, :]
        th[:, a, 1 + a, n + 1] = 1.0
        th[:, a, 1:n + 1, 1:n + 1] = gamma[:, :, a, :]
    return th


def omega_values(s: CurvatureSamples):
    """Stored blocks Omega_ab[I, J] over every a, b: (P, n, n, n+2, n+2),
    middle-middle C_abij, X-row and column the Cotton tensor: the rows a < b
    of `_omega_pairs`, extended by Omega_ab = -Omega_ba.  Built once per
    batch; the array is read-only."""
    def build():
        om = _omega_pairs(s)
        full = _pair_rows(om.reshape(om.shape[:2] + (-1,)))
        full = full.reshape(full.shape[:3] + om.shape[2:])
        full.flags.writeable = False
        return full
    return s.derived(("omega",), build)


def _omega_pairs(s):
    """Stored blocks of Omega_bc[I, J] on the pairs b < c (`pair_basis`
    order): (P, N, n+2, n+2).  Omega is antisymmetric in b, c, so these rows
    are all of it.  Built once per batch; the array is read-only."""
    def build():
        npts, n = len(s.points), s.n
        b, c = pair_basis(n)
        om = np.zeros((npts, len(b), n + 2, n + 2))
        om[..., 1 + b, 1 + c] = s["C"]                  # C_ij[bc], i < j
        om[..., 1 + c, 1 + b] = -s["C"]
        A = np.moveaxis(s["A"][..., b, c], 1, -1)      # A_i[bc] at [k, i]
        om[:, :, 0, 1:n + 1] = -A
        om[:, :, 1:n + 1, 0] = A
        om.flags.writeable = False
        return om
    return s.derived(("omega-pairs",), build)


def _d_omega_pairs(s, sl=slice(None), out=None):
    """d_z Omega_bc[I, J] on the pairs b < c at the points `sl`, scattered
    from dC and dA: (P, n, N, n+2, n+2), written into `out` (zero off the
    scattered entries) or into a fresh array."""
    n = s.n
    b, c = pair_basis(n)
    dC = s["dC"][sl]
    if out is None:
        out = np.zeros((len(dC), n, len(b), n + 2, n + 2))
    out[..., 1 + b, 1 + c] = dC
    out[..., 1 + c, 1 + b] = -dC
    dA = np.moveaxis(s["dA"][sl][:, :, :, b, c], 2, -1)  # d_z A_i[bc]
    out[..., 0, 1:n + 1] = -dA
    out[..., 1:n + 1, 0] = dA
    return out


def cov_omega_values(s: CurvatureSamples):
    """nabla_z Omega_bc[I,J] by the coupled connection on the ranked pairs
    b < c (`pair_basis` order): (P, z, N, I, J).  Omega is antisymmetric in
    b, c, so these rows are all of it.  The Christoffel terms read Omega_ec
    and Omega_be at every e off the ranked rows, with their signs.

    The oracle of nabla Omega, for `annihilation_check` and the tests; the
    rank test ranks the reduced stack of `rank_rows`.  Built once per
    batch; the array is read-only."""
    def build():
        b, c = pair_basis(s.n)
        om = _omega_pairs(s)
        tab = _pair_tables(s.n)
        idx, sign = tab["idx"], tab["sign"][..., None, None]
        out = _d_omega_pairs(s)
        gam = s["gamma"]
        ec = np.take(om, idx[:, c], axis=1)                 # Omega_ec
        ec *= sign[:, c]
        out -= np.einsum("pezk,pekIJ->pzkIJ", gam[..., b], ec, optimize=True)
        be = np.take(om, idx[b], axis=1)                    # Omega_be
        be *= sign[b]
        out -= np.einsum("pezk,pkeIJ->pzkIJ", gam[..., c], be, optimize=True)
        th = theta_values(s)
        out -= np.einsum("pzKI,pkKJ->pzkIJ", th, om, optimize=True)
        out -= np.einsum("pzKJ,pkIK->pzkIJ", th, om, optimize=True)
        out.flags.writeable = False
        return out
    return s.derived(("cov-omega",), build)


def div_omega_values(s: CurvatureSamples):
    """nabla^a Omega_ab[I,J] from the coupled-connection derivative on the
    ranked pairs (`cov_omega_values`), extended by Omega_ab = -Omega_ba."""
    cov = cov_omega_values(s)
    full = _pair_rows(cov.reshape(cov.shape[:3] + (-1,)))
    return np.einsum("pza,pzabIJ->pbIJ", s["ginv"],
                     full.reshape(full.shape[:4] + cov.shape[-2:]))


def div_omega_closed(s: CurvatureSamples):
    """The closed form: (n-4) Z Z A - X Z B + X Z B pattern on stored
    blocks."""
    npts, n = len(s.points), s.n
    out = np.zeros((npts, n, n + 2, n + 2))
    A, B = s["A"], s["B"]
    # A_cde with c the free tensor slot and (d, e) the middle blocks
    out[:, :, 1:n + 1, 1:n + 1] = (n - 4) * A
    out[:, :, 0, 1:n + 1] = -np.transpose(B, (0, 2, 1))
    out[:, :, 1:n + 1, 0] = np.transpose(B, (0, 2, 1))
    return out


def w_tensor_values(s: CurvatureSamples):
    """W[A,B,C,E] = (n-4) ZZ Omega - 2 X_[A Z_B]^b div-Omega, all slots
    down: (P, n+2, n+2, n+2, n+2)."""
    npts, n = len(s.points), s.n
    dv = div_omega_values(s)
    w = np.zeros((npts, n + 2, n + 2, n + 2, n + 2))
    w[:, 1:n + 1, 1:n + 1] = (n - 4) * omega_values(s)
    w[:, 0, 1:n + 1] += -dv
    w[:, 1:n + 1, 0] += dv
    return w


# ---------------------------------------------------------------------------
# checks and verdicts


def einstein_tractor_values(s: CurvatureSamples, sigma):
    """I = (1/n) D sigma = (sigma, nabla^a sigma, -(Delta sigma + J sigma)/n)
    in stored up order at the points of s, with nabla I (P, n, n+2) and the
    Hessian nabla_a nabla_b sigma (P, n, n).

    Numeric throughout: the 3-jet of sigma meets g^-1 and the Christoffel
    symbols to order 1 (`christoffel_jet`) and J to order 1 in `taylor`
    arithmetic, which gives I to order 1; nabla I = d I + Theta I."""
    T = taylor
    n = s.n
    sj = scalar_jet(s, sigma, 3)
    ginv, gam = christoffel_jet(s)
    ds = T.partials(sj, n, 2)                        # d_a sigma
    hess = T.partials(ds, n, 1) - T.product("cbd,c->bd", gam, ds, n, 1)
    ij = np.empty((len(s.points), T.size(n, 1), n + 2))
    ij[..., 0] = sj[:, :n + 1]
    ij[..., 1:n + 1] = T.product("ab,b->a", ginv, ds, n, 1)
    ij[..., n + 1] = -(T.product("ab,ab->", ginv, hess, n, 1)
                       + T.product(",->", s.jet("J"), sj, n, 1)) / n
    ivals = ij[:, 0]
    grad = T.partials(ij, n, 0)[:, 0] + np.einsum(
        "pzIJ,pJ->pzI", theta_values(s), ivals)
    return ivals, grad, hess[:, 0]


def parallel_tractor_check(s: CurvatureSamples, sigma,
                           tolerances=DEFAULT_TOLERANCES):
    """Is sigma an Einstein scale?  Builds I = (1/n) D sigma on the numeric
    metric jet (`einstein_tractor_values`), reports max |nabla I| at the
    points, h(I, I), and as the converse datum the trace-free part of the
    Schouten tensor of the rescaled metric sigma^{-2} g,
    P + sigma^{-1} nabla nabla sigma - (1/2) sigma^{-2} |d sigma|^2 g."""
    n = s.n
    ivals, grad, hess = einstein_tractor_values(s, sigma)
    sig = ivals[:, 0]
    bad = np.flatnonzero(np.abs(sig) < 1e-12)
    if bad.size:
        raise DomainError("sigma vanishes (conformal singularity)",
                          s.points[bad[0]])
    resid = max_norm(grad)
    # the top slot sigma has weight 0, nabla sigma and the bottom slot -2
    scale = scale_of((ivals[:, :1], 0), (ivals[:, 1:], -2))

    mid = ivals[:, 1:n + 1]                     # nabla^a sigma
    dsq = np.einsum("pab,pa,pb->p", s["g"], mid, mid)
    hii = 2 * sig * ivals[:, n + 1] + dsq
    expected = -(2.0 / n) * sig ** 2 * s["J"]

    phat = (s["P"] + hess / sig[:, None, None]
            - (0.5 * dsq / sig ** 2)[:, None, None] * s["g"])
    tfp, tfp_scale = trace_free_residual(phat, s["g"], s["ginv"])

    return {
        "is_einstein_scale": bool(np.all(tolerances.passes(resid, scale))),
        "parallel_residual": float(np.max(resid)),
        "scale": float(np.max(scale)),
        "h_ii": hii,
        "h_ii_expected": expected,
        "rescaled_trace_free_schouten": tfp,
        "rescaled_scale": tfp_scale,
    }


def annihilation_check(s: CurvatureSamples, tractor):
    """Residuals of Omega.I, (nabla Omega).I, (div Omega).I and W.I for a
    candidate tractor, plus the X.I values and the Z-coefficient expansion
    (the C-space combination sigma A + mu.C)."""
    n = s.n
    if isinstance(tractor, (TractorField, TractorTensor)):
        tt = tractor.to_tensor() if isinstance(tractor, TractorField) else tractor
        ivals = tt.values_at(s.points)
    else:
        ivals = np.asarray(tractor, dtype=float)
    om = omega_values(s)
    scale_om = max(float(np.max(np.abs(om))), 1e-300) * \
        max(float(np.max(np.abs(ivals))), 1e-300)
    r_om = np.einsum("pabIJ,pJ->pabI", om, ivals)
    r_cov = np.einsum("pzkIJ,pJ->pzkI", cov_omega_values(s), ivals)
    r_div = np.einsum("pbIJ,pJ->pbI", div_omega_values(s), ivals)
    r_w = np.einsum("pABIJ,pJ->pABI", w_tensor_values(s), ivals)
    # Z-coefficient of Omega.I: rows 1..n of the remaining slot
    zcoef = r_om[:, :, :, 1:n + 1]
    return {
        "omega": float(np.max(np.abs(r_om))),
        "cov_omega": float(np.max(np.abs(r_cov))),
        "div_omega": float(np.max(np.abs(r_div))),
        "w": float(np.max(np.abs(r_w))),
        "scale": scale_om,
        "x_dot_i": ivals[:, 0],
        "z_coefficient": zcoef,
    }


@dataclass
class RankReport:
    ranks: list
    max_rank: int
    verdict: str
    kernel_alignment: float | None
    weakly_generic: bool
    notes: list = field(default_factory=list)


def rank_rows(s: CurvatureSamples, tolerances=DEFAULT_TOLERANCES,
              kernels=False):
    """The measuring half of the rank test: per point, the rank of the
    reduced stack [Omega_bc; d_z Omega_bc - Omega_bc Theta_z] (pairs b < c)
    as functionals on tractors, ranked by `linalg.rank` in chunks.  A
    parallel I has Omega_bc I = 0, and as d_z I = -Theta_z I, also
    (d_z Omega_bc - Omega_bc Theta_z) I = 0.  What nabla_z Omega_bc
    (`cov_omega_values`) adds, the Christoffel terms and Theta_z Omega_bc,
    is a combination of Omega rows already stacked, so the rank is that of
    [Omega; nabla Omega].  Returns (ranks, kernels): the ranks in point
    order, and only when `kernels` asks for them an orthonormal kernel
    basis per point (`linalg.rank_nullspace`), else None.

    The stack is built one elimination chunk (`linalg.chunks`) at a time:
    Omega and d Omega - Omega Theta are written into that chunk's
    (p, 1 + n, N, n+1, n+2) array, ranked and dropped before the next, so
    the whole batch's stack is never held.  Each matrix has (1 + n) N (n+1)
    rows: row I = n+1 of Omega_bc, and so of d Omega_bc - Omega_bc Theta,
    is zero in every (z, pair) block, and the stack is built without it.
    The elimination (`linalg._eliminate`, full pivoting, ties to the first
    row) is the one of the full stack, by construction.  A zero row never
    pivots, its entries stay zero and it does not change the cut.  The
    first zero row of the full stack sits at position n+1, the target of a
    row swap only at the last of the n+2 steps, and every other one below
    position n+1, under every target.  So up to that last step the nonzero
    rows keep their relative order, and every pivot and tie is the same;
    the last step picks the same pivot, and no step follows it.  A kernel
    reads only the rows above the rank, the same rows in either stack."""
    n, npts = s.n, len(s.points)
    om, th = _omega_pairs(s), theta_values(s)
    floor = s.scale()
    rows = (1 + n) * om.shape[1] * (n + 1)
    ranks, basis = [], [] if kernels else None
    for sl in linalg.chunks(npts, rows, n + 2):
        stack = np.zeros((sl.stop - sl.start, 1 + n, om.shape[1], n + 1,
                          n + 2))
        top = om[sl, :, :n + 1]
        stack[:, 0] = top
        d = _d_omega_pairs(s, sl, stack[:, 1:])
        d -= np.einsum("pzKJ,pkIK->pzkIJ", th[sl], top, optimize=True)
        mat = stack.reshape(len(stack), rows, n + 2)
        if kernels:
            r, k = linalg.rank_nullspace(mat, tolerances.rank_tol, floor[sl])
            basis += k
        else:
            r = linalg.rank(mat, tolerances.rank_tol, floor[sl])
        ranks += r.tolist()
    return ranks, basis


def rank_verdict(ranks, n, weakly_generic):
    """The deciding half of the rank test, over the ranks of every point
    of a batch (`rank_rows`, joined across chunks): conformally Einstein
    iff the rank is at most n+1 at every point, given weak genericity."""
    max_rank = max(ranks)
    notes = []
    if not weakly_generic:
        verdict = "inconclusive"
        notes.append("not weakly generic; the rank test is silent")
    elif max_rank <= n + 1:
        verdict = "conformally-einstein"
    else:
        verdict = "not"
    return RankReport(ranks, max_rank, verdict, None, weakly_generic, notes)


def rank_obstruction(s: CurvatureSamples, tolerances=DEFAULT_TOLERANCES,
                     sigma=None, genericity=None):
    """Theorem-level rank test on one batch of points: `rank_rows` on the
    reduced stack (not `cov_omega_values`), then `rank_verdict` on its
    ranks.  The metric is conformally Einstein iff the rank is at most n+1
    at every point (given weak genericity).  When a kernel exists and
    sigma is supplied, reports the cosine alignment of the kernel with
    (1/n) D sigma; without sigma no kernel is computed.  `classify` runs
    it once per chunk of points and decides on the joined ranks
    (`rank_verdict`)."""
    gen = genericity or classify_genericity(s, tolerances)
    ranks, kernels = rank_rows(s, tolerances, kernels=sigma is not None)
    report = rank_verdict(ranks, s.n, gen.weakly_generic)
    if sigma is not None and report.verdict == "conformally-einstein":
        ivals = einstein_tractor_values(s, sigma)[0]
        cs = [np.linalg.norm(k @ (k.T @ (v / np.linalg.norm(v))))
              for k, v in zip(kernels, ivals) if k.shape[1]]
        report.kernel_alignment = float(min(cs)) if cs else None
    return report

