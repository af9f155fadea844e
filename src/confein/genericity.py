"""Pointwise genericity classification of the Weyl curvature.

Three nested open conditions on a metric, each decided numerically at
sample points by ranks of small dense matrices built from the sampled Weyl
tensor:

* weakly generic: V |-> C_abcd V^d is injective,
* Lambda2-generic: the operator 2-forms -> 2-forms, W_ab |-> C_ab^cd W_cd,
  has nonzero determinant ||C|| (numerically: full rank),
* generic: the skew system C_abcd F^ab = 0, the trace-free symmetric system
  C_abcd H^bd = 0 and its volume-form dual all have only the zero solution.

The dual system Cstar_{b1 b2..b_{n-2} c d} H^{b1 d} = 0, with Cstar the
volume-form dual of C on its first pair, has one row per (b2..b_{n-2}, c).
Cstar is antisymmetric in b1..b_{n-2}, so a row whose b2..b_{n-2} repeat an
index is exactly zero, and a row whose b2..b_{n-2} are permuted is exactly
plus or minus the row with them increasing.  Only the rows with
b2 < ... < b_{n-2} are built (`_dual_epsilon`), then the trace row: 121 of
the 1297 rows at n = 6, 51 of 126 at n = 5, all of them at n <= 4.  They
span the same row space, and the dropped rows change no max |entry|, so
neither the rank cut nor the kernel dimension moves.

Every system is read off the pair matrices the samples keep, C[(ab), (cd)]
= C_abcd (`CurvatureSamples`), never off the n^4 components: the weak
system has one row per pair a < b and index c, the skew system is C
itself, the symmetric system and its dual gather their entries from pair
matrices with their signs (`_pair_symmetric_system`), and L and the
cubic scalars are products of pair matrices.  The Weyl operator raises
the slots of the rows a < b one at a time (`weyl_operators`).

Ranked-pair convention: the matrix of an operator on 2-forms,
W_ab -> t_ab^cd W_cd, over the pairs a < b (`curvature.pair_basis`) is
M[(ab),(cd)] = PAIR_SUM * t[a,b,c,d], twice the pair matrix, since the
operator sums over c, d in both orders (`curvature.PAIR_SUM`);
`_pair_matrix` and `_pair_tensor` convert between M and the 4-index array
over any leading axes (the oracles use them).

The adjugate of the 2-form operator packages as the tensor Ct_ef^ab with
Ct_ef^ab C_ab^cd = ||C|| delta^[c_[e delta^d]_f] (`_pair_tensor` of the
adjugate), and the operator L^a_b = C^acde C_bcde with its adjugate gives
the canonical inverses of the Weyl tensor used by the obstruction
invariants.  Both operators are built once per sample batch, stacked over
its points (`weyl_operators`, `l_operators`).  The obstructions never form
those left inverses on the verdict path: `obstructions.k_field` contracts
the Weyl tensor with the Cotton tensor first, applies the operator's
adjugate to the result and differentiates only the one-form K.
The full left inverses (`obstructions.dual_candidate_jet`) stay as the
test oracle of K."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from . import linalg
from .config import DEFAULT_TOLERANCES
from .curvature import (
    PAIR_SUM,
    CurvatureSamples,
    _contract_slot,
    _pair_cols,
    _pair_rows,
    _pair_tables,
    pack_pairs,
    pair_basis,
    unpack_pairs,
)
from .geometry import permutation_sign

__all__ = [
    "PointGenericity",
    "GenericityReport",
    "PolicyError",
    "pair_basis",
    "weyl_vanishes",
    "weyl_operators",
    "l_operators",
    "classify_genericity",
    "dim4_scalars",
    "weyl_c3",
    "weyl_rows",
]


class PolicyError(ArithmeticError):
    """A dual-candidate policy's nonvanishing precondition failed."""


def _pair_matrix(t):
    """Ranked-pair matrix PAIR_SUM * t[..., a, b, c, d] of an array
    (..., n, n, n, n) antisymmetric in both pairs: shape (..., N, N),
    N = n(n-1)/2."""
    return PAIR_SUM * pack_pairs(t)


def _pair_tensor(m):
    """Inverse of _pair_matrix: the 4-index array of a ranked-pair
    matrix."""
    return unpack_pairs(m / PAIR_SUM)


def weyl_vanishes(samples, tol=DEFAULT_TOLERANCES):
    """Per point: is the Weyl tensor numerically zero, max |C| <= rank_tol
    times the curvature scale (the floor of the rank decisions)?"""
    c = samples["C"]
    cmax = np.max(np.abs(c.reshape(c.shape[0], -1)), axis=1)
    return cmax <= tol.rank_tol * samples.scale()


def weyl_rows(samples, pattern=(0, 0, 0, 0)):
    """The pair matrices of the Weyl tensor, its slot pairs raised by
    `pattern` (`CurvatureSamples.raised`), with the row pairs extended to
    every index pair: (P, n, n, N), [a, b, (cd)] = C_abcd for the default
    pattern (`curvature._pair_rows`).  Built once per batch."""
    return samples.derived(("weyl-rows", tuple(pattern)), lambda: _pair_rows(
        samples.raised("C", pattern)))


def _operators(samples, key, matrices):
    """(matrices, determinants, adjugates) per point, built once per batch.
    Where the Weyl tensor vanishes numerically the operator is roundoff and
    its determinant is 0."""
    def build():
        m = matrices()
        dets = linalg.det(m)
        adj = linalg.adjugate(m, dets)
        dets[weyl_vanishes(samples)] = 0.0
        return m, dets, adj
    return samples.derived(key, build)


def weyl_operators(samples: CurvatureSamples):
    """Ranked-pair matrix of C_ab^cd, ||C|| and the adjugate, per point.
    The matrix raises the slots c and d of the rows a < b of C one at a
    time (`_contract_slot`), the summation order of the slot contractions
    of the n^4 tensor, rather than by the inverse metric on 2-forms: where
    the Weyl tensor is anti-self-dual or null ||C|| is roundoff, and the
    policy gate prints it (`obstructions._gate`), so its digits follow the
    summation order."""
    def matrix():
        a, b = pair_basis(samples.n)
        rows = _pair_cols(samples["C"])          # C_ab_cd at [(ab), c, d]
        for slot in (1, 2):
            rows = _contract_slot(rows, samples["ginv"], slot)
        return PAIR_SUM * rows[:, :, a, b]
    return _operators(samples, ("weyl-operator",), matrix)


def l_operators(samples: CurvatureSamples):
    """L^a_b = C^acde C_bcde, ||L|| and the adjugate Lt^a_b, per point: a
    sum over c and the pairs d < e of the rows of C^ab^cd and C_abcd, each
    extended to every first pair (`_pair_rows`)."""
    def build():
        n = samples.n
        up = weyl_rows(samples, (1, 1, 1, 1))
        low = weyl_rows(samples)
        return PAIR_SUM * (
            up.reshape(-1, n, up.shape[-2] * up.shape[-1])
            @ np.swapaxes(low.reshape(up.shape[0], n, -1), 1, 2))
    return _operators(samples, ("l-operator",), build)


# ---------------------------------------------------------------------------
# genericity systems


@lru_cache(maxsize=None)
def _levi_civita(n):
    """The permutation symbol: sign(perm) at each permutation, else 0."""
    eps = np.zeros((n,) * n)
    for perm in permutations(range(n)):
        eps[perm] = permutation_sign(perm)
    eps.flags.writeable = False
    return eps


@lru_cache(maxsize=None)
def _dual_epsilon(n):
    """The rows of the permutation symbol the dual system keeps, as a
    matrix ((b1, S), (a1 a2)) -> eps[b1, S, a1, a2] over the strictly
    increasing (n-3)-tuples S in lexicographic order."""
    levi = _levi_civita(n)
    eps = np.stack([levi[(slice(None),) + s]
                    for s in combinations(range(n), n - 3)], axis=1)
    eps = eps.reshape(-1, n * n)
    eps.flags.writeable = False
    return eps


def _symmetric_rows(entries, g):
    """Trace-free symmetric systems of a stack, unknowns H^bd over the pairs
    b <= d: entries(x, y) (count, R, K) holds t[p, x_k, r, y_k] for index
    arrays x, y of length K, and row r has the entries t_brd + t_drb (the
    single term t_brb on the diagonal); then the trace row g[p, b, d]
    (doubled off the diagonal)."""
    b, d = np.triu_indices(g.shape[-1])
    off = b != d
    cols = entries(b, d)
    cols[..., off] += entries(d[off], b[off])
    trace = np.where(off, 2.0, 1.0) * g[:, b, d]
    return np.concatenate([cols, trace[:, None]], axis=1)


def _symmetric_system(t, g):
    """The symmetric systems (`_symmetric_rows`) of any stack t[p, b, ...,
    d], one row per index r of the middle axes (row-major): the general
    build, which the tests hold the pair readers to."""
    count, n = g.shape[:2]
    tt = np.moveaxis(t, -1, 2).reshape(count, n, n, -1)   # tt[p, b, d, r]
    return _symmetric_rows(lambda x, y: np.swapaxes(tt[:, x, y], 1, 2), g)


def _pair_symmetric_system(x, row, row_sign, g):
    """The symmetric systems (`_symmetric_rows`) of a stack of tensors
    t_bscd antisymmetric in c, d, read off matrices x (count, R, N) over
    the column pairs c < d: t_bscd = row_sign[b, s] x[p, row[b, s], (cd)],
    one row per (s, c), row-major."""
    count, n = g.shape[:2]
    tab = _pair_tables(n)
    idx, sign = tab["idx"], tab["sign"]
    s = np.arange(row.shape[1])[:, None, None]
    c = np.arange(n)[:, None]

    def entries(b, d):  # t_{b s c d} at [p, (s, c), k]
        return (x[:, row[b, s], idx[c, d]]
                * (row_sign[b, s] * sign[c, d])).reshape(count, -1, len(b))
    return _symmetric_rows(entries, g)


def _weyl_symmetric_system(C, g):
    """The symmetric systems C_abcd H^bd = 0 of the pair matrices C: one row
    per (a, c), row-major, t_bacd = C_abcd = sign[a, b] C[(ab), (cd)]."""
    tab = _pair_tables(g.shape[-1])
    return _pair_symmetric_system(C, tab["idx"], tab["sign"].T, g)


def _dual_system(cup, g, root):
    """The volume-form dual systems of a stack: the symmetric system of
    Cstar_{b1 S c d} = root eps_{b1 S}^{a1 a2} C_{a1 a2 c d} on the rows
    (S, c) of `_dual_epsilon`, S increasing, then the trace row, from the
    pair matrices `cup` of C^ab_cd (a sum over the pairs a1 < a2)."""
    count, n = g.shape[:2]
    a, b = pair_basis(n)
    eps = _dual_epsilon(n).reshape(-1, n, n)[:, a, b]
    cstar = (PAIR_SUM * root)[:, None, None] * (eps @ cup)
    row = np.arange(len(eps)).reshape(n, -1)             # rows (b1, S)
    return _pair_symmetric_system(cstar, row, np.ones(row.shape), g)


def _cubed(m):
    """t_ab^cd t_cd^ef t_ef^ab per point, from the ranked-pair matrices m
    of t (`_pair_matrix`): the trace of m^3."""
    return np.einsum("pij,pjk,pki->p", m, m, m)


def weyl_c3(samples: CurvatureSamples):
    """C^3 = C_ab^cd C_cd^ef C_ef^ab per point, built once per batch."""
    return samples.derived(("c3",), lambda: _cubed(
        weyl_operators(samples)[0]))


def dim4_scalars(samples):
    """(C^3, *C^3) per point of a 4-dimensional sample batch, *C the dual
    of C on its first pair by the volume form sqrt|det g| eps: *C_ab^cd =
    root eps_ab^ef C_ef^cd, a sum over the pairs e < f."""
    root = np.sqrt(np.abs(np.linalg.det(samples["g"])))
    cstar = (PAIR_SUM * root)[:, None, None] * (
        pack_pairs(_levi_civita(4)) @ samples.raised("C", (1, 1, 0, 0)))
    return weyl_c3(samples), _cubed(
        PAIR_SUM * (cstar @ samples.pair_metric()[:, 0]))


@dataclass
class PointGenericity:
    point: dict
    weakly_generic: bool
    weak_kernel: np.ndarray       # (n, k) basis of {V : C V = 0}
    lambda2_generic: bool
    weyl_det: float
    skew_kernel_dim: int
    sym_kernel_dim: int
    dual_kernel_dim: int
    generic: bool
    c3: float | None = None
    c3_star: float | None = None


@dataclass
class GenericityReport:
    """The per-point classes of a batch of points and their aggregates: a
    flag holds when it holds at every point.  `classify` builds one report
    per chunk of points and joins their `per_point` lists (`of`), so the
    flags are those of the whole batch."""

    per_point: list
    weakly_generic: bool
    lambda2_generic: bool
    generic: bool
    all_agree: bool

    @classmethod
    def of(cls, per_point):
        """The report of a list of PointGenericity."""
        flags = [(pg.weakly_generic, pg.lambda2_generic, pg.generic)
                 for pg in per_point]
        return cls(per_point=per_point,
                   weakly_generic=all(f[0] for f in flags),
                   lambda2_generic=all(f[1] for f in flags),
                   generic=all(f[2] for f in flags),
                   all_agree=len(set(flags)) == 1)


def _kernel_dims(system, npts, rows, cols, tolerances, scale):
    """Per point, cols - the rank of the (rows, cols) systems system(sl),
    each built and ranked one `linalg.chunks` chunk of points at a time,
    so that only one chunk's systems and their copies are alive."""
    dims = []
    for sl in linalg.chunks(npts, rows, cols):
        dims += (cols - linalg.rank(system(sl), tolerances.rank_tol,
                                    scale[sl])).tolist()
    return dims


def classify_genericity(s: CurvatureSamples, tolerances=DEFAULT_TOLERANCES):
    """Classify each sample point and aggregate.

    The chained flags are enforced logically: generic implies
    Lambda2-generic implies weakly generic.  The symmetric and dual
    systems are built one elimination chunk (`linalg.chunks`) at a time
    and ranked as they are built (`_kernel_dims`), so the whole batch's
    systems are never held."""
    n, npts = s.n, len(s.points)
    C, g = s["C"], s["g"]
    scale = s.scale()
    dets = weyl_operators(s)[1]
    root = np.sqrt(np.abs(np.linalg.det(g)))
    c3, c3s = ([v.tolist() for v in dim4_scalars(s)] if n == 4
               else [[None] * npts] * 2)

    # weak system: C_abcd V^d = 0, one row per pair a < b and c; a kernel
    # basis is computed only where the rank falls short
    weak = _pair_cols(C).reshape(npts, -1, n)
    short = np.flatnonzero(linalg.rank(weak, tolerances.rank_tol, scale) < n)
    wkernels = [np.zeros((n, 0))] * npts
    for p, k in zip(short, linalg.nullspace(weak[short], tolerances.rank_tol,
                                            scale[short])):
        wkernels[p] = k
    skew = np.swapaxes(PAIR_SUM * C, -1, -2)  # rows (cd), columns (ab)
    skew_dims = (skew.shape[-1]
                 - linalg.rank(skew, tolerances.rank_tol, scale)).tolist()
    # the appended trace row absorbs the pure-trace direction, so the
    # reported dimensions count genuine trace-free solutions
    cols = n * (n + 1) // 2
    sym_dims = _kernel_dims(lambda sl: _weyl_symmetric_system(C[sl], g[sl]),
                            npts, n * n + 1, cols, tolerances, scale)
    cup = s.raised("C", (1, 1, 0, 0))
    dual_dims = _kernel_dims(lambda sl: _dual_system(cup[sl], g[sl], root[sl]),
                             npts, len(_dual_epsilon(n)) + 1, cols,
                             tolerances, scale)

    per = []
    for p in range(npts):
        lam2 = skew_dims[p] == 0
        generic = lam2 and sym_dims[p] == 0 and dual_dims[p] == 0
        # enforce the implication chain
        weak = wkernels[p].shape[1] == 0 or lam2
        per.append(PointGenericity(
            point=s.points[p], weakly_generic=weak, weak_kernel=wkernels[p],
            lambda2_generic=lam2, weyl_det=float(dets[p]),
            skew_kernel_dim=skew_dims[p], sym_kernel_dim=sym_dims[p],
            dual_kernel_dim=dual_dims[p], generic=generic,
            c3=c3[p], c3_star=c3s[p]))
    return GenericityReport.of(per)
