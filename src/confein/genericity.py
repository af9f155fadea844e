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

Ranked-pair convention: a 4-index array t antisymmetric in both pairs is
packed over the pairs a < b (in `pair_basis` order) as the matrix
M[(ab),(cd)] = 2 * t[a,b,c,d]; `_pair_matrix` and `_pair_tensor` convert
between the two over any leading axes, and `_pair_rows` extends the row
pairs alone.

The adjugate of the 2-form operator packages as the tensor Ct_ef^ab with
Ct_ef^ab C_ab^cd = ||C|| delta^[c_[e delta^d]_f] (`_pair_tensor` of the
adjugate), and the operator L^a_b = C^acde C_bcde with its adjugate gives
the canonical inverses of the Weyl tensor used by the obstruction
invariants.  Both operators are built once per sample batch, stacked over
its points (`weyl_operators`, `l_operators`).  The obstructions never form
those left inverses on the verdict path: `obstructions.k_field` contracts
the Weyl tensor with the Cotton tensor first, applies the operator's
adjugate to the result and differentiates only the one-form K.
The full left inverses (`obstructions.dual_candidate`) stay as the test
oracle of K."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from . import linalg
from .config import DEFAULT_TOLERANCES
from .curvature import CurvatureSamples
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
]


class PolicyError(ArithmeticError):
    """A dual-candidate policy's nonvanishing precondition failed."""


def pair_basis(n):
    """Index arrays (a, b) of the ranked pairs a < b, row-major."""
    return np.triu_indices(n, 1)


def _pair_matrix(t):
    """Ranked-pair matrix 2 * t[..., a, b, c, d] of an array (..., n, n, n, n)
    antisymmetric in both pairs: shape (..., N, N), N = n(n-1)/2."""
    a, b = pair_basis(t.shape[-1])
    return 2.0 * t[..., a[:, None], b[:, None], a, b]


def _pair_dim(count):
    """n with n(n-1)/2 = count ranked pairs."""
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


def _pair_tensor(m):
    """Inverse of _pair_matrix: the antisymmetric extension, with the 1/2."""
    n = _pair_dim(m.shape[-1])
    a, b = pair_basis(n)
    a, b, c, d = a[:, None], b[:, None], a, b
    v = 0.5 * m
    t = np.zeros(m.shape[:-2] + (n,) * 4)
    t[..., a, b, c, d] = v
    t[..., b, a, c, d] = -v
    t[..., a, b, d, c] = -v
    t[..., b, a, d, c] = v
    return t


def weyl_vanishes(samples, tol=DEFAULT_TOLERANCES):
    """Per point: is the Weyl tensor numerically zero, max |C| <= rank_tol
    times the curvature scale (the floor of the rank decisions)?"""
    c = samples["C"]
    cmax = np.max(np.abs(c.reshape(c.shape[0], -1)), axis=1)
    return cmax <= tol.rank_tol * samples.scale()


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
    """Ranked-pair matrix of C_ab^cd, ||C|| and the adjugate, per point."""
    return _operators(samples, ("weyl-operator",), lambda: _pair_matrix(
        samples.raised("C", (0, 0, 1, 1))))


def l_operators(samples: CurvatureSamples):
    """L^a_b = C^acde C_bcde, ||L|| and the adjugate Lt^a_b, per point."""
    return _operators(samples, ("l-operator",), lambda: np.einsum(
        "pacde,pbcde->pab", samples.raised("C", (1, 1, 1, 1)), samples["C"]))


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


def _symmetric_system(t, g):
    """Trace-free symmetric systems of a stack, unknowns H^bd over the pairs
    b <= d.  Per point p, one row per index r of the middle axes of
    t[p, b, ..., d] (row-major), with entries t[p, b, r, d] + t[p, d, r, b]
    (the single term t[p, b, r, b] on the diagonal), then the trace row
    g[p, b, d] (doubled off the diagonal)."""
    count, n = g.shape[:2]
    b, d = np.triu_indices(n)
    off = b != d
    tt = np.moveaxis(t, -1, 2).reshape(count, n, n, -1)   # tt[p, b, d, r]
    cols = tt[:, b, d]
    cols[:, off] += tt[:, d[off], b[off]]
    trace = np.where(off, 2.0, 1.0) * g[:, b, d]
    return np.concatenate([np.swapaxes(cols, 1, 2), trace[:, None]], axis=1)


def _dual_system(C, gi, g, root):
    """The volume-form dual systems of a stack: the symmetric system of
    Cstar_{b1 S c d} = root eps_{b1 S}^{a1 a2} C_{a1 a2 c d} on the rows
    (S, c) of `_dual_epsilon`, S increasing, then the trace row."""
    count, n = g.shape[:2]
    cup = np.einsum("pea,pabcd->pebcd", gi, C)
    cup = np.einsum("pfb,pebcd->pefcd", gi, cup).reshape(count, n * n, -1)
    cstar = root[:, None, None] * (_dual_epsilon(n) @ cup)
    return _symmetric_system(cstar.reshape(count, n, -1, n, n), g)


def _cubed(t):
    """t_ab^cd t_cd^ef t_ef^ab per point."""
    return np.einsum("pabcd,pcdef,pefab->p", t, t, t)


def weyl_c3(samples: CurvatureSamples):
    """C^3 = C_ab^cd C_cd^ef C_ef^ab per point, built once per batch."""
    return samples.derived(("c3",), lambda: _cubed(
        samples.raised("C", (0, 0, 1, 1))))


def dim4_scalars(samples):
    """(C^3, *C^3) per point of a 4-dimensional sample batch, *C the dual
    of C on its first pair by the volume form sqrt|det g| eps."""
    root = np.sqrt(np.abs(np.linalg.det(samples["g"])))
    eps = _levi_civita(4) * root[:, None, None, None, None]
    cstar = np.einsum("pabef,pefcd->pabcd", eps,
                      samples.raised("C", (1, 1, 0, 0)))
    gi = samples["ginv"]
    return weyl_c3(samples), _cubed(
        np.einsum("pabcd,pce,pdf->pabef", cstar, gi, gi))


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

    def kernel_contains(self, vector, tol=1e-10):
        """True when `vector` lies in the weak-genericity kernel at every
        point (residual of the projection below tol)."""
        v = np.asarray(vector, dtype=float)
        v = v / np.linalg.norm(v)
        for pg in self.per_point:
            k = pg.weak_kernel
            if k.size == 0:
                return False
            resid = v - k @ (k.T @ v)
            if np.linalg.norm(resid) > tol:
                return False
        return True


def classify_genericity(s: CurvatureSamples, tolerances=DEFAULT_TOLERANCES):
    """Classify each sample point and aggregate.

    The chained flags are enforced logically: generic implies
    Lambda2-generic implies weakly generic."""
    n, npts = s.n, len(s.points)
    C, g, gi = s["C"], s["g"], s["ginv"]
    scale = s.scale()
    dets = weyl_operators(s)[1]
    root = np.sqrt(np.abs(np.linalg.det(g)))
    c3, c3s = ([v.tolist() for v in dim4_scalars(s)] if n == 4
               else [[None] * npts] * 2)

    # weak system: C_abcd V^d = 0
    _, wkernels = linalg.rank_nullspace(C.reshape(npts, n ** 3, n),
                                        tolerances.rank_tol, scale)
    skew = np.swapaxes(_pair_matrix(C), -1, -2)  # rows (cd), columns (ab)
    skew_dims = (skew.shape[-1]
                 - linalg.rank(skew, tolerances.rank_tol, scale)).tolist()
    # the appended trace row absorbs the pure-trace direction, so the
    # reported dimensions count genuine trace-free solutions
    cols = n * (n + 1) // 2
    sym_dims = (cols - linalg.rank(
        _symmetric_system(np.swapaxes(C, 1, 2), g), tolerances.rank_tol,
        scale)).tolist()
    dual_dims = (cols - linalg.rank(_dual_system(C, gi, g, root),
                                    tolerances.rank_tol, scale)).tolist()

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
