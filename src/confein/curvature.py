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
small tape per metric: the partials of g_ij up to order 4, monomial-major,
so that the partials up to any lower order are the outputs of a prefix of
the tape (`CurvaturePack.metric_jet_tape`).  `CurvaturePack.samples` runs
it at a batch of points, 32 points per run, and builds every ladder entry
from that 4-jet by truncated Taylor arithmetic (`taylor`), on 8 points at
a time from n = 5 on (32 below), so its transients stay small, computing
each quantity only to the order its consumers need: g to 4, the inverse
metric to 3, the Christoffel symbols, Ricci, J and P to 2, Riemann, Weyl
and Cotton to 1 and Bach to 0.  Ricci and P, being symmetric, are formed
on the pairs b <= d only (`_ladder`).  The samples keep the order-1 jets
of g, g^-1, P, J, C and A (`CurvatureSamples.jet`), the operands of the K
jets in `obstructions`; the values and d-prefixed partials of these are
views of the jets, the other entries (Christoffel symbols, Ricci, scalar,
Bach) are values only.  A consumer of values alone, the potential's
quadrature nodes, asks for samples of order 0: the same ladder on the
order-3 prefix of the same metric jet, which the tape's order-3 prefix
computes, every quantity one order lower, so the inverse metric goes to 2,
the Christoffel symbols, Ricci, J and P to 1, and Riemann, Weyl and Cotton
are values, with no partials and no Bach tensor.  Truncated Taylor
arithmetic computes each coefficient from those of lower degree only, so
these values are bitwise those of order 1.

The Weyl tensor stays in the pair basis from the ladder to its consumers:
C is a stack of pair matrices (P, N, N), C[(ab), (cd)] = C_abcd over the
pairs a < b, c < d (`pair_basis`), N = n(n-1)/2, and dC is (P, n, N, N)
(1,575 floats per point at n = 6, against 9,072 for the n^4 components
and their partials).  A slot pair is raised by a matrix product with the
inverse metric on 2-forms (`CurvatureSamples.pair_metric`, `raised`), a
contraction across the two pairs reads the row pairs extended to every
index pair (`_pair_rows`, `pair_trace`), and a contraction over a whole
pair is PAIR_SUM = 2 times the sum over the pairs.  Only the edges unpack
the n^4 components (`unpack_pairs`): the identity residuals, the
left-inverse oracle of `obstructions` and the tests.

Degeneracy is checked in one place, `CurvatureSamples`, which every
command and the potential's quadrature nodes go through: per
chunk, before any curvature is built, a point where the values of g are
not finite or degenerate (`geometry._degenerate`, the criterion sampling
redraws points by) raises SingularMetricError naming the first such
point.  Other jets at the same points come from the same machinery:
`scalar_jet` compiles one tape of a scalar expression's partials (a
conformal factor, an Einstein scale), `christoffel_jet` runs the order-2
prefix of the pack's metric-jet tape again for g^-1 and the Christoffel
symbols beyond their values.  `point_chunks` cuts a longer
list of points into chunks of whole tape runs that fit a byte budget, and
`CurvaturePack.chunks` gives one sampler per chunk: the walk of every
command, each chunk sampled, reduced to per-point figures and freed
before the next.  The potential's quadrature nodes are cut by the same
rule (`obstructions.reconstruct_potential`).

The pack's symbolic TensorFields remain for symbolic calculus (coframe
components, the symbolic tractor calculus of `tractor`) and as the tests'
oracle for the numeric ladder; no command reads them."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import taylor
from .config import DEFAULT_TOLERANCES, max_norm, scale_of
from .evaluate import compile_batch, run_batch
from .expressions import ZERO, add, diff, mul, neg, rational
from .geometry import (
    DOWN,
    UP,
    MetricField,
    SingularMetricError,
    TensorField,
    _degenerate,
    covariant_derivative,
    partial_derivative,
    permutation_sign,
    sym_einsum,
)

__all__ = [
    "CurvaturePack",
    "CurvatureSamples",
    "point_chunks",
    "identity_suite",
    "identity_residuals",
    "cotton_transform_check",
    "trace_free_residual",
    "scalar_jet",
    "christoffel_jet",
    "numeric_cov",
    "antisym_axes",
    "PAIR_SUM",
    "pair_basis",
    "pack_pairs",
    "unpack_pairs",
    "pair_trace",
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
    def samples(self, points, order=1):
        """The ladder's values, and (order 1) the first partials the
        invariants need, at the given points (`CurvatureSamples`)."""
        return CurvatureSamples(self, points, order)

    def chunks(self, points):
        """One zero-argument sampler per `point_chunks` chunk of the
        points, each giving the chunk's `samples`: the one walk of every
        command, which holds one chunk's samples at a time."""
        return [lambda sl=sl: self.samples(points[sl])
                for sl in point_chunks(len(points), self.n)]

    def metric_jet_tape(self, order=4):
        """Tape of the partials d^alpha g_ij, i <= j, |alpha| <= order,
        monomial-major: for each monomial, in `taylor.monomials` order,
        every component.  One tape of order 4 is compiled per pack, the one
        tape every numeric quantity of the ladder comes from; a lower order
        is its prefix (`EvalProgram.prefix`), the instructions that the
        partials of that order read, with the bits of the whole tape."""
        i, j = np.triu_indices(self.n)
        full = self._get("metric-jet", lambda: compile_batch(_by_monomial(
            _partials(self.g.comps[i, j], self.chart.coords, 4), len(i))))
        if order == 4:
            return full
        return self._get(("metric-jet", order), lambda: full.prefix(
            len(i) * taylor.size(self.n, order)))


# points per run of the metric-jet tape: the tape pays its per-instruction
# overhead once per run, so runs of fewer points are slower
_CHUNK = 32

# the budget of one chunk of points (`point_chunks`), counted at (1 + n) n^4
# floats per point, the order-1 jet of a 4-index tensor in full.  The
# samples keep the Weyl jet as pair matrices, (1 + n) N^2 floats, so the
# count is an upper bound on their largest array; it sets the chunk steps
# (64 points at n = 6, 160 at n = 5, 512 at n = 4).  A chunk's transients
# set classify's peak memory, and every chunk pays the eliminations' fixed
# cost per call.  Within a chunk the stages hold one slice of its points at
# a time: the samples one tape run's jet and one ladder step's outputs,
# the K jets and the genericity systems one `linalg.chunks` slice.
# Classifying rt6-quartic at 500 points (n = 6) in 64-point chunks, the
# traced peak is 10.6 MiB while the samples are built, 8.4 MiB in the
# genericity classes, 8.5 MiB in K and 8.1 MiB in the tractor rank
CHUNK_BYTES = 5 * 2 ** 20


def point_chunks(count, n):
    """Slices cutting `count` points into chunks of a multiple of the
    tape's run of points, as many whole runs as fit CHUNK_BYTES at
    dimension n (at least one): 64 points at n = 6, 160 at n = 5 and 512
    at n = 4."""
    per_point = 8 * (1 + n) * n ** 4
    step = max(1, CHUNK_BYTES // (per_point * _CHUNK)) * _CHUNK
    return [slice(s, min(s + step, count)) for s in range(0, count, step)]


def _partials(exprs, coords, order):
    """d^alpha e for each expression e and |alpha| <= order
    (expression-major, monomials in `taylor.monomials` order), each partial
    taken from its parent monomial's: the very nodes `diff` gives, with
    every partial of a ZERO parent ZERO without a call."""
    parent, var = taylor.parents(len(coords), order)
    out = []
    for e in exprs:
        der = [e]
        for m in range(1, len(parent)):
            d = der[parent[m]]
            der.append(ZERO if d is ZERO else diff(d, coords[var[m]]))
        out.extend(der)
    return out


def _by_monomial(partials, count):
    """The expression-major partials of `count` expressions
    (`_partials`), reordered monomial-major: every expression's partial
    of each monomial in turn."""
    per = len(partials) // count
    return [partials[e * per + m] for m in range(per) for e in range(count)]


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
    gj = _metric_jet(run_batch(s.pack.metric_jet_tape(2), s.bindings), n, 2)
    ginv = taylor.inverse(gj, n, 1)
    _, gamp = _christoffel(taylor.partials(gj, n, 1), ginv, n, 1)
    return ginv, gamp[..., _pair_tables(n)["sym"]]


class CurvatureSamples:
    """Numeric values (and first coordinate partials) of the ladder at a
    batch of points.  values[name] has shape (P,) + component shape; the
    partial-derivative axis of d-prefixed entries comes right after P.  The
    Weyl tensor is kept in the pair basis: values["C"] is (P, N, N) with
    [(ab), (cd)] = C_abcd over the pairs a < b, c < d (N = n(n-1)/2,
    `_pair_tables`), values["dC"] is (P, n, N, N).

    `order` 0 samples the values only, from the order-3 prefix of the
    metric jet, which the order-3 prefix of the monomial-major tape
    computes (`CurvaturePack.metric_jet_tape`): g, g^-1, the Christoffel
    symbols, Ricci, the scalar, P, J, C and A, bitwise those of order 1,
    with no partials and no Bach tensor (reading one raises KeyError) and
    jets of order 0.

    The tape runs on 32 points at a time (`_run`) and the ladder on one
    step of the run's metric jet at a time (`_step`; a step of one point
    runs doubled, `_ladder`, so that a point's figures do not depend on
    the size of its step): each step's ladder outputs are released
    before the next step is computed, and each run's tape output and jet
    before the next run, so that only the stored values and jets grow
    with the points.  The jet is formed per
    run, not per step: a step's jet is a quarter of the run's at n >= 5,
    but without a run-sized array freed after each run glibc's malloc
    keeps a lower trim threshold, hands the ladder's transients back to
    the system after every step and faults them in again (three times the
    page faults of classifying rt6-quartic at 500 points, and about 4% of
    its time)."""

    def __init__(self, pack, points, order=1):
        if order not in (0, 1):
            raise ValueError(f"samples of order {order}: expected 0 or 1")
        self.pack = pack
        self.n = n = pack.n
        self.order = order
        self.points = [dict(p) for p in points]
        self.bindings = [pack.g.point_bindings(pt) for pt in points]
        self._derived = {}
        self._jets, self.values = {}, {}
        for lo in range(0, max(len(self.points), 1), _CHUNK):
            self._run(lo, order)
        for name, j in self._jets.items():
            j.flags.writeable = False
            self.values[name] = j[:, 0]
            if order and name != "ginv":
                self.values["d" + name] = j[:, 1:]

    def _run(self, lo, order):
        """Run the metric-jet tape (its order-3 prefix at order 0) on the
        points lo:lo + 32, check their metric for degeneracy and store
        their ladder.  `_ladder`'s
        transients grow about as n^5 per point (about 9 MB on 32 points at
        n = 5), so from n = 5 on it runs on 8 points at a time.  The run's
        tape output and jet live until this returns."""
        jet = _metric_jet(run_batch(self.pack.metric_jet_tape(order + 3),
                                    self.bindings[lo:lo + _CHUNK]),
                          self.n, order + 3)
        bad = np.flatnonzero(_degenerate(jet[:, 0]))
        if bad.size:
            raise SingularMetricError(
                f"metric is degenerate at {self.points[lo + bad[0]]}")
        step = 8 if self.n >= 5 else _CHUNK
        for sub in range(0, max(len(jet), 1), step):
            self._step(jet[sub:sub + step], lo + sub)

    def _step(self, jet, lo):
        """Store the ladder of one step of the metric jet at the points
        lo:.  The step's ladder outputs live until this returns."""
        for store, part in zip((self._jets, self.values),
                               _ladder(jet, self.n)):
            for name, v in part.items():
                if name not in store:
                    store[name] = np.empty((len(self.points),) + v.shape[1:])
                store[name][lo:lo + len(v)] = v

    def __getitem__(self, name):
        return self.values[name]

    def jet(self, name):
        """The read-only `taylor` jet of the samples' order, (P, 1 + n) +
        component shape at order 1, of g, ginv, P, J, C (pair matrices) or
        A: values at [:, 0], d_z at [:, 1 + z]."""
        return self._jets[name]

    # --- derived numeric arrays (cached) ---------------------------------
    def derived(self, key, builder):
        if key not in self._derived:
            self._derived[key] = builder()
        return self._derived[key]

    def pair_metric(self):
        """The order-1 jet (P, 1 + n, N, N) of the inverse metric on
        2-forms, G^(ab)(cd) = g^ac g^bd - g^ad g^bc over the pairs a < b,
        c < d: a pair of slots is raised by multiplying its pair matrix
        with G (see `raised`)."""
        def build():
            gi = self._jets["ginv"]
            a, b = _pair_tables(self.n)["anti"]
            c, d = a.T, b.T
            return (_jet_mul(gi[..., a, c], gi[..., b, d])
                    - _jet_mul(gi[..., a, d], gi[..., b, c]))
        return self.derived(("pair-metric",), build)

    def raised(self, name, pattern):
        """The pair matrices of values[name] (the Weyl tensor, "C") with the
        1-marked slot pairs raised by the inverse metric on 2-forms, a
        matrix product with G (`pair_metric`): raised("C", (1, 1, 0, 0))
        -> C^ab_cd at [(ab), (cd)].  Both slots of a pair are raised
        together."""
        up = tuple(pattern)
        if len(up) != 4 or up[0] != up[1] or up[2] != up[3]:
            raise ValueError(f"pattern {pattern!r} does not raise whole "
                             "slot pairs")

        def build():
            g2 = self.pair_metric()[:, 0]
            if up[0] and up[2]:
                return self.raised(name, (1, 1, 0, 0)) @ g2
            if up[0]:
                return g2 @ self.values[name]
            return self.values[name] @ g2 if up[2] else self.values[name]
        return self.derived(("raised", name, up), build)

    def scale(self):
        """The residual scale per point: `config.scale_of` of C (weight 2),
        A and P (weight 0)."""
        v = self.values
        return self.derived(("scale",), lambda: scale_of(
            (v["C"], 2), (v["A"], 0), (v["P"], 0)))


def _jet_mul(x, y):
    """The componentwise product of the order-1 jets x and y."""
    out = x[:, :1] * y
    out[:, 1:] += x[:, 1:] * y[:, :1]
    return out


def _metric_jet(vals, n, order):
    """Jet (P, M, n, n) of g of order `order` <= 4 from the monomial-major
    partials of the metric-jet tape or of a prefix of it at least that
    long: the prefix of the 4-jet, as monomials are graded."""
    n_pts = vals.shape[0]
    i, j = np.triu_indices(n)
    m = taylor.size(n, order)
    coef = (vals.reshape(n_pts, vals.shape[1] // len(i), len(i))[:, :m]
            / taylor.factorials(n, order)[:, None])
    jet = np.empty((n_pts, m, n, n))
    jet[:, :, i, j] = coef
    jet[:, :, j, i] = coef
    return jet


# A contraction over an antisymmetric index pair, X_..ab Y^..ab, is twice
# its sum over the pairs a < b, the one entry per pair that a pair matrix
# holds.  Every such contraction of pair matrices carries this factor, and
# so do the matrices of the operators on 2-forms on the pairs a < b,
# W_ab -> X_ab^cd W_cd ("ranked-pair" matrices, `genericity`)
PAIR_SUM = 2.0


def pair_basis(n):
    """Index arrays (a, b) of the antisymmetric pairs a < b, row-major: the
    order of the rows and columns of every pair matrix."""
    return np.triu_indices(n, 1)


@lru_cache(maxsize=None)
def _pair_tables(n):
    """Index tables of the packed index pairs.

    Symmetric pairs b <= d (np.triu_indices(n)) pack a tensor symmetric in
    two slots: `sym` (n, n) is the pair of (b, d) in either order and
    `weight` is 2 off the diagonal, so a contraction over both slots is a
    weighted sum over pairs.  Antisymmetric pairs a < b (`pair_basis`)
    pack the Riemann and Weyl tensors as matrices X[(ab), (cd)] = X_abcd:
    `anti` holds their (a, b) as column vectors, `idx` and `sign` (n, n)
    the pair of (a, b) in either order and its sign (0 on the diagonal)."""
    i, j = np.triu_indices(n)
    sym = np.empty((n, n), dtype=np.int64)
    sym[i, j] = sym[j, i] = np.arange(len(i))
    a, b = pair_basis(n)
    idx = np.zeros((n, n), dtype=np.int64)
    idx[a, b] = idx[b, a] = np.arange(len(a))
    sign = np.zeros((n, n))
    sign[a, b], sign[b, a] = 1.0, -1.0
    return {"sym": sym, "weight": np.where(i == j, 1.0, 2.0), "pairs": (i, j),
            "anti": (a[:, None], b[:, None]), "idx": idx, "sign": sign}


def _pair_dim(count):
    """n with n(n-1)/2 = count antisymmetric pairs."""
    return int(round((1 + math.sqrt(1 + 8 * count)) / 2))


def _pair_rows(m):
    """The antisymmetric extension of the row pairs of (..., N, K): the
    array (..., n, n, K) with [a, b] = m[(ab)] = -[b, a], zero for a = b."""
    n = _pair_dim(m.shape[-2])
    a, b = pair_basis(n)
    t = np.zeros(m.shape[:-2] + (n, n) + m.shape[-1:])
    t[..., a, b, :] = m
    t[..., b, a, :] = -m
    return t


def _pair_cols(m):
    """The antisymmetric extension of the column pairs of (..., K, N):
    (..., K, n, n)."""
    return np.moveaxis(_pair_rows(np.moveaxis(m, -1, -2)), -1, -3)


def pack_pairs(t):
    """The pair matrices (..., N, N) of an array t (..., n, n, n, n)
    antisymmetric in both slot pairs: [(ab), (cd)] = t_abcd over the pairs
    a < b, c < d (`pair_basis`).  The inverse of `unpack_pairs`."""
    a, b = pair_basis(t.shape[-1])
    return t[..., a[:, None], b[:, None], a, b]


def unpack_pairs(x):
    """The n^4 tensor X_abcd (..., n, n, n, n) of pair matrices x (..., N,
    N), X[(ab), (cd)] = X_abcd for a < b, c < d, antisymmetric in both
    slot pairs.  Only the edges unpack: the identity residuals, the
    left-inverse oracle and the tests."""
    tab = _pair_tables(_pair_dim(x.shape[-1]))
    idx, sign = tab["idx"], tab["sign"]
    out = x[..., idx[:, :, None, None], idx]
    out *= sign[:, :, None, None] * sign
    return out


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
    """(jets of order q, values) of the ladder at a chunk of points from the
    jet `gj` of the metric, of order q + 3: q = 1 from the 4-jet, q = 0
    (values only) from its order-3 prefix.  Each quantity is computed to
    the order its consumers need: the Christoffel symbols, Ricci, J and P
    to order r = q + 1, Riemann, Weyl and Cotton to order q and, from the
    4-jet, Bach to order 0.  g, g^-1, P, J, C and A are returned as jets of
    order q, C as pair matrices (`_pair_tables`); the Christoffel symbols,
    Ricci, the scalar curvature and Bach as values.

    A chunk of one point runs as two copies of it, and keeps the first:
    the products round by the layout of their operands, which numpy lays
    out otherwise for one point than for a batch."""
    if len(gj) == 1:
        return tuple({k: v[:1] for k, v in part.items()}
                     for part in _ladder(gj[[0, 0]], n))
    T = taylor
    q = T.order(n, gj.shape[1]) - 3
    r = q + 1
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
    vt = 0.5 * T.product("s,skd->kd", ginvw, _vt_operand(dg, tab), n, r + 1)
    u = T.partials(vt[..., 0, :], n, r) - T.product("bce,ced->bd", dginv,
                                                     dg, n, r)
    t = vt[..., 1, :]
    dt = T.partials(t, n, r)
    tg = T.product("e,ebd->bd", t, gam, n, r)
    gg = T.product("cbe,ecd->bd", gam, gam, n, r)
    # Ric_bd = (x_bd + x_db) / 2, computed on the pairs b <= d only: x is
    # the same sum in the same order as on the whole n x n, so Ricci stays
    # bitwise the symmetrised full sum.  The terms of x that are symmetric
    # in b, d come as products on the pairs; t Gamma and Gamma Gamma stay
    # whole and are read at (b, d) and (d, b), since a product on fewer
    # columns can round differently in BLAS
    x = (T.product("e,es->s", np.einsum("...cce->...e", dginv), low, n, r)
         - 0.5 * lap) + 0.5 * (u[..., i, j] + u[..., j, i])
    ric = 0.5 * ((x - dt[..., i, j] + tg[..., i, j] - gg[..., i, j])
                 + (x - dt[..., j, i] + tg[..., j, i] - gg[..., j, i]))
    # a product's rounding can depend on its operands' memory layout (BLAS
    # or not), so the whole Ricci and P are laid out as the products lay
    # out their results, monomial-major
    ricf = _monomial_major(ric[..., sym])
    scalar = T.product("bd,bd->", ginv, ricf, n, r)
    J = scalar / (2 * (n - 1))
    Pp = (ric - T.product(",s->s", J, gp, n, r)) / (n - 2)
    P = _monomial_major(Pp[..., sym])
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
    mq = T.size(n, q)
    jets = {"g": gj[:, :mq], "ginv": ginv[:, :mq], "P": P[:, :mq],
            "J": J[:, :mq], "C": C, "A": A}
    out = {"gamma": gam[:, 0], "ricci": ricf[:, 0], "scalar": scalar[:, 0]}
    if q:
        out["B"] = _bach(ginv[:, 0], gam[:, 0], P[:, 0], C[:, 0], A)
    return jets, out


def _monomial_major(x):
    """x (P, M, ...) as a point-major view of a monomial-major array."""
    return np.ascontiguousarray(x.swapaxes(0, 1)).swapaxes(0, 1)


def _vt_operand(dg, tab):
    """The operand of the v and t product: [(ce), 0, d] = d_c g_ed + d_e g_cd
    and [(ce), 1, d] = d_d g_ce over the pairs c <= e, written pair by
    pair into one array laid out as the product reads it (monomial-major),
    returned as a point-major view."""
    npts, m, n = dg.shape[:3]
    i, j = tab["pairs"]
    out = np.empty((m, npts, len(i), 2, n))
    dgm = dg.transpose(1, 0, 2, 3, 4)
    for s, (c, e) in enumerate(zip(i, j)):
        np.add(dgm[:, :, c, e], dgm[:, :, e, c], out=out[:, :, s, 0])
        out[:, :, s, 1] = dgm[:, :, :, c, e]
    return out.transpose(1, 0, 2, 3, 4)


def _bach(gi, gam, P, C, A):
    """B_ab = nabla^c A_acb + P^dc C_dacb from the values of g^-1, the
    Christoffel symbols, P and the pair matrices C, and the order-1 jet of
    A: the divergence is contracted with g^-1 before the Christoffel terms
    are formed, nabla^c A_acb = g^cx (d_x A_acb - Gamma^e_xa A_ecb
    - Gamma^e_xc A_aeb - Gamma^e_xb A_ace)."""
    a0 = A[:, 0]
    m = np.einsum("pcx,pexa->pcea", gi, gam)         # g^cx Gamma^e_xa
    div = (np.einsum("pcx,pxacb->pab", gi, A[:, 1:])
           - np.einsum("pcea,pecb->pab", m, a0)
           - np.einsum("pe,paeb->pab", np.einsum("pcec->pe", m), a0)
           - np.einsum("pceb,pace->pab", m, a0))
    pup = np.einsum("pdx,pxy,pcy->pdc", gi, P, gi)
    return div + pair_trace(C, pup)


def pair_trace(c, s):
    """sum_dc s^dc C_dacb (P, n, n) of the pair matrices c (P, N, N) of a
    tensor antisymmetric in both slot pairs and the matrices s (P, n, n):
    the rows (da) of c extended to every d, a (`_pair_rows`) against the
    columns (cb) expanded by s^dc."""
    n = s.shape[-1]
    r, t = pair_basis(n)
    sc = np.zeros(s.shape[:2] + (len(r), n))         # [d, (rt), b]
    k = np.arange(len(r))
    sc[:, :, k, t] = s[:, :, r]
    sc[:, :, k, r] = -s[:, :, t]
    return np.einsum("pdal,pdlb->pab", _pair_rows(c), sc)


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


def identity_residuals(s: CurvatureSamples):
    """Per-point max-norm residuals of the differential and algebraic
    identities the ladder must satisfy.  Keys name the identity.  The Weyl
    tensor is unpacked from its pair matrices to n^4 components here."""
    n = s.n
    g, gi = s["g"], s["ginv"]
    C, A, Ps, B = unpack_pairs(s["C"]), s["A"], s["P"], s["B"]
    gam = s["gamma"]
    covC = numeric_cov(C, unpack_pairs(s["dC"]), (DOWN,) * 4, gam)
    # covC: (P, x, a, b, c, d)
    covA = numeric_cov(A, s["dA"], (DOWN,) * 3, gam)
    covP = numeric_cov(Ps, s["dP"], (DOWN,) * 2, gam)
    dJ = s["dJ"]                     # (P, x)

    res = {}

    # div C = (n-3) A
    divC = np.einsum("pdx,pxdabc->pabc", gi, covC)
    res["weyl-divergence"] = max_norm((n - 3) * A - divC)

    # div P = dJ
    divP = np.einsum("pax,pxab->pb", gi, covP)
    res["schouten-divergence"] = max_norm(divP - dJ)

    # div A = 0
    divA = np.einsum("pax,pxabc->pbc", gi, covA)
    res["cotton-divergence"] = max_norm(divA)

    # skew_xyz [ nabla_x A_byz - P_x^c C_yzbc ] = 0
    Pup = np.einsum("pxa,pac->pxc", Ps, gi)
    lhs = np.moveaxis(covA, 2, 4)            # (P, x, y, z, b) from (P,x,b,y,z)
    rhs = np.einsum("pxc,pyzbc->pxyzb", Pup, C)
    res["cotton-curl"] = max_norm(antisym_axes(lhs - rhs, (1, 2, 3)))

    # skew_xyz [ nabla_x C_yzcd - (g_cx A_dyz - g_dx A_cyz) ] = 0
    t = covC - np.einsum("pcx,pdyz->pxyzcd", g, A) \
             + np.einsum("pdx,pcyz->pxyzcd", g, A)
    res["second-bianchi"] = max_norm(antisym_axes(t, (1, 2, 3)))

    # Weyl symmetries
    res["weyl-pair-symmetry"] = max_norm(C - np.transpose(C, (0, 3, 4, 1, 2)))
    res["weyl-antisymmetry"] = max_norm(C + np.transpose(C, (0, 2, 1, 3, 4)))
    res["weyl-cyclic"] = max_norm(antisym_axes(C, (1, 2, 3)))

    # traces
    res["weyl-trace"] = np.max(np.stack([
        max_norm(np.einsum("pac,pabcd->pbd", gi, C)),
        max_norm(np.einsum("pab,pabcd->pcd", gi, C)),
        max_norm(np.einsum("pad,pabcd->pbc", gi, C)),
    ]), axis=0)
    res["cotton-trace"] = np.max(np.stack([
        max_norm(np.einsum("pab,pabc->pc", gi, A)),
        max_norm(np.einsum("pac,pabc->pb", gi, A)),
    ]), axis=0)
    res["bach-symmetry"] = max_norm(B - np.transpose(B, (0, 2, 1)))
    res["bach-trace"] = max_norm(np.einsum("pab,pab->p", gi, B))

    # metricity
    covG = numeric_cov(g, s["dg"], (DOWN, DOWN), gam)
    res["metricity"] = max_norm(covG)
    return res


def identity_suite(pack: CurvaturePack, points,
                   tolerances=DEFAULT_TOLERANCES):
    """The identity residuals of the metric of `pack` at the points,
    reduced: {identity name: (max residual, max scale, passes)}.  The
    points are sampled one chunk at a time (`CurvaturePack.chunks`), each
    chunk's per-point residuals and scales kept and its samples freed
    before the next, so memory stays flat in the number of points."""
    res, scale = {}, []
    for sample in pack.chunks(points):
        s = sample()
        for name, r in identity_residuals(s).items():
            res.setdefault(name, []).append(r)
        scale.append(s.scale())
    scale = np.concatenate(scale)
    res = {name: np.concatenate(rs) for name, rs in res.items()}
    return {name: (float(np.max(r)), float(np.max(scale)),
                   bool(np.all(tolerances.passes(r, scale))))
            for name, r in res.items()}


def trace_free_residual(P, g, gi):
    """Max-norm of the trace-free part of the symmetric tensors P (P, n, n)
    with respect to the metrics g (inverses gi), along with the scale
    `config.scale_of` of P (weight 0)."""
    n = P.shape[1]
    tf = P - np.einsum("pab,p->pab", g,
                       np.einsum("pab,pab->p", gi, P) / n)
    return float(np.max(max_norm(tf))), float(np.max(scale_of((P, 0))))


def cotton_transform_check(s: CurvatureSamples, sh: CurvatureSamples,
                           upsilon):
    """Residuals of the conformal transformation rules between the samples
    s of g and sh of e^{2 upsilon} g at the same points.

    Checks the Cotton rule A-hat = A + (d upsilon)^k C_k..., the Schouten
    rule, and invariance of the Weyl tensor with placement C_ab^c_d."""
    n = s.n
    uj = scalar_jet(s, upsilon, 2)
    du = uj[:, 1:n + 1]
    hess = taylor.partials(taylor.partials(uj, n, 1), n, 0)[:, 0]

    gi = s["ginv"]
    uup = np.einsum("pab,pb->pa", gi, du)
    C = unpack_pairs(s["C"])

    out = {}
    rhs = s["A"] + np.einsum("pk,pkabc->pabc", uup, C)
    out["cotton-transform"] = float(np.max(max_norm(sh["A"] - rhs)))

    # Schouten: P-hat = P - nabla_a u_b + u_a u_b - 1/2 |u|^2 g
    covu = hess - np.einsum("peab,pe->pab", s["gamma"], du)
    usq = np.einsum("pa,pa->p", uup, du)
    rhsP = s["P"] - covu + np.einsum("pa,pb->pab", du, du) \
        - 0.5 * np.einsum("p,pab->pab", usq, s["g"])
    out["schouten-transform"] = float(np.max(max_norm(sh["P"] - rhsP)))

    cmix = _contract_slot(C, gi, 2)
    cmix_hat = _contract_slot(unpack_pairs(sh["C"]), sh["ginv"], 2)
    out["weyl-invariance"] = float(np.max(max_norm(cmix_hat - cmix)))

    scale = s.scale()
    out["scale"] = float(np.max(scale))
    return out
