"""Dense linear algebra on stacks of small matrices (up to ~1300 rows here).

The module is stack-first: every public function takes a stack (P, m, k)
of matrices and returns one result per matrix; a 2-D argument is a stack
of one.  A stack is eliminated by one pass of numpy operations, in which
each matrix sees the same IEEE operations in the same order as it would
alone, so a rank or determinant does not depend on what it was stacked
with.

Rank and null spaces come from Gaussian elimination with full pivoting so
the pivot sequence itself is the diagnostic: a column is dependent exactly
when no remaining entry exceeds the matrix's cut, `tol * max|entry|`,
raised to `tol * floor` by an optional per-matrix floor.  A rank alone
comes from a rank-only elimination (`rank`), which does the same steps
without the bookkeeping of column permutations and signs or the
write-back of the factors.  The elimination records the largest |entry|
it pivots on at each step: a determinant's elimination, which runs
without a cut, returns these pivots on request, and `pivot_rank` reads
the rank at any cut off them, the first step whose pivot is within the
cut, so a matrix whose determinant is taken is not eliminated again for
its rank.  Adjugates are defined for singular matrices too (cofactor
fallback), since `adj(M) @ M = det(M) I` is used as an identity, not as
an inverse.

Stacks are worked on in chunks of at most CHUNK_BYTES per copy (`chunks`):
the elimination holds a few copies of what it works on, and the budget
keeps peak memory flat however many points a batch has."""

from __future__ import annotations

import numpy as np

__all__ = ["rank_nullspace", "rank", "pivot_rank", "nullspace", "adjugate",
           "det", "chunks", "CHUNK_BYTES"]

CHUNK_BYTES = 512 * 1024


def chunks(count, m, k):
    """Slices cutting a stack of `count` (m, k) float matrices into chunks
    of at most CHUNK_BYTES each (at least one matrix per chunk)."""
    step = max(1, CHUNK_BYTES // (8 * max(1, m * k)))
    return [slice(s, min(s + step, count)) for s in range(0, count, step)]


def _stack(a):
    a = np.asarray(a, dtype=float)
    return a[None] if a.ndim == 2 else a


def _eliminate(a, cut, pivots=None, factors=True):
    """Full-pivot forward elimination of every matrix of the stack `a`.

    Matrix p stops at the first step whose largest remaining |entry| is
    <= cut[p] or 0.  Returns (u, cols, r, sign): u holds the eliminated
    matrices under their permutations, cols the column permutations, r the
    numerical ranks and sign the parities of the row and column swaps.
    Without `factors` only r is kept, (None, None, r, None): the column
    permutations, the signs and the write-back of the factors into u are
    skipped, and every step does the same arithmetic.  `pivots`, a zeroed
    (count, min(m, n)) array when given, receives the largest remaining
    |entry| of each step a matrix runs, its stopping step included.

    The stack is worked on transposed, each matrix's columns as rows: the
    matrices here are tall (up to ~1300 rows of at most 21 columns), so
    the rank-1 update of each step runs along their long axis.  The step's
    |entries| and rank-1 update go into two buffers allocated once, and
    the pivot column below the pivot, which the step zeroes, is not
    updated."""
    count, m, n = a.shape
    t = np.array(np.swapaxes(a, 1, 2), dtype=float, order="C")  # [p, j, i]
    r = np.full(count, min(m, n))
    if factors:
        cols = np.tile(np.arange(n), (count, 1))
        sign = np.ones(count)
    live = np.arange(count)  # the matrices still being eliminated, and
    w = t                    # their working stack (t itself until one stops)
    absbuf, upd = np.empty(count * m * n), np.empty(count * m * n)
    for k in range(min(m, n)):
        size = len(live) * (m - k) * (n - k)
        sub = absbuf[:size].reshape(len(live), m - k, n - k)
        np.abs(np.swapaxes(w[:, k:, k:], 1, 2), out=sub)   # row-major
        sub = sub.reshape(len(live), (m - k) * (n - k))
        flat = sub.argmax(axis=1)  # ties go to the first in row-major order
        best = sub[np.arange(len(live)), flat]
        if pivots is not None:
            pivots[live, k] = best
        stop = (best <= cut[live]) | (best == 0.0)
        if stop.any():
            r[live[stop]] = k
            if factors:
                t[live[stop]] = w[stop]
            live, w, flat = live[~stop], w[~stop], flat[~stop]
            if not live.size:
                break
        at = np.arange(len(live))
        i, j = np.divmod(flat, n - k)
        i += k
        j += k
        w[at, :, k], w[at, :, i] = w[at, :, i], w[at, :, k]
        w[at, k], w[at, j] = w[at, j], w[at, k]
        if factors:
            cols[live, k], cols[live, j] = cols[live, j], cols[live, k]
            sign[live[i != k]] *= -1.0
            sign[live[j != k]] *= -1.0
        fac = w[:, k, k + 1:] / w[:, k, k, None]
        prod = upd[:len(live) * (n - k - 1) * (m - k - 1)].reshape(
            len(live), n - k - 1, m - k - 1)
        np.multiply(w[:, k + 1:, k, None], fac[:, None, :], out=prod)
        w[:, k + 1:, k + 1:] -= prod
        if factors:
            w[:, k, k + 1:] = 0.0
    if not factors:
        return None, None, r, None
    if w is not t:
        t[live] = w
    return np.ascontiguousarray(np.swapaxes(t, 1, 2)), cols, r, sign


def _cut(top, tol, floor):
    """Per-matrix cut max(tol, tol * floor / top) * top of the largest
    |entries| `top`; inf where top <= tol * floor, so that such a matrix,
    pure roundoff relative to its floor, stops at once with rank 0."""
    cut = np.full(len(top), np.inf)
    live = ~(top <= tol * floor)
    cut[live] = np.maximum(tol, tol * floor[live] / top[live]) * top[live]
    return cut


def _cuts(a, tol, floor):
    """The cuts (`_cut`) of the stack `a`, top = max|entry| per matrix."""
    return _cut(np.max(np.abs(a), axis=(1, 2), initial=0.0), tol, floor)


def _floors(floor, count):
    return np.broadcast_to(np.asarray(floor, dtype=float), (count,))


def _ranked(a, tol, floor, factors=True):
    """Per chunk of the stack `a`: (slice, u, cols, ranks, cuts), u and
    cols None without `factors` (`_eliminate`)."""
    count, m, n = a.shape
    floor = _floors(floor, count)
    for sl in chunks(count, m, n):
        cut = _cuts(a[sl], tol, floor[sl])
        u, cols, r, _ = _eliminate(a[sl], cut, factors=factors)
        yield sl, u, cols, r, cut


def _kernel(u, cols, r):
    """Orthonormal kernel basis of one eliminated matrix: one vector per
    dependent column, by back substitution."""
    n = u.shape[1]
    nullity = n - r
    if nullity == 0:
        return np.zeros((n, 0))
    basis = np.zeros((n, nullity))
    for f in range(nullity):
        x = np.zeros(n)  # in permuted column order
        x[r + f] = 1.0
        for i in range(r - 1, -1, -1):
            x[i] = -np.dot(u[i, i + 1:], x[i + 1:]) / u[i, i]
        basis[cols, f] = x
    # orthonormalize for stable downstream comparisons
    q, _ = np.linalg.qr(basis)
    return q[:, :nullity]


def rank_nullspace(a, tol=1e-8, floor=0.0):
    """(ranks, kernels) of the stack `a`: an int array and one (k, nullity)
    orthonormal kernel basis per matrix.

    `floor` (per matrix, or one for all) raises the cut to tol * floor, so
    a matrix that is pure roundoff relative to an ambient scale counts as
    zero: rank 0, kernel the identity."""
    a = _stack(a)
    ranks = np.zeros(len(a), dtype=int)
    kernels = []
    for sl, u, cols, r, cut in _ranked(a, tol, floor):
        ranks[sl] = r
        kernels += [np.eye(u.shape[2]) if c == np.inf else _kernel(*args)
                    for c, *args in zip(cut, u, cols, r)]
    return ranks, kernels


def rank(a, tol=1e-8, floor=0.0):
    """Numerical ranks of the stack `a` (see rank_nullspace), by the
    rank-only elimination."""
    a = _stack(a)
    ranks = np.zeros(len(a), dtype=int)
    for sl, _u, _cols, r, _cut in _ranked(a, tol, floor, factors=False):
        ranks[sl] = r
    return ranks


def pivot_rank(pivots, tol=1e-8, floor=0.0):
    """The ranks `rank(a, tol, floor)`, read off the pivots of the
    cut-free elimination of the stack a (`det(a, return_pivots=True)`):
    the first step whose pivot is <= the cut or exactly 0.  Up to that
    step an elimination with the cut runs the very steps of the cut-free
    one, so the ranks are the same by construction; the first pivot is
    max|entry|, the top of the cut."""
    count, steps = pivots.shape
    top = pivots[:, 0] if steps else np.zeros(count)
    cut = _cut(top, tol, _floors(floor, count))
    stop = (pivots <= cut[:, None]) | (pivots == 0.0)
    return np.where(stop.any(axis=1), stop.argmax(axis=1), steps)


def nullspace(a, tol=1e-8, floor=0.0):
    return rank_nullspace(a, tol, floor)[1]


def det(a, *, return_pivots=False):
    """Determinants of the stack `a`, by the same elimination (the sign
    tracked per swap); 0 for a matrix of deficient rank.  With
    `return_pivots`, (determinants, pivots): the largest |entry| of each
    step of the elimination, 0 from the step it stops at on, the record
    `pivot_rank` reads the ranks at any cut off."""
    a = _stack(a)
    count, n, _ = a.shape
    out = np.zeros(count)
    pivots = np.zeros((count, n)) if return_pivots else None
    for sl in chunks(count, n, n):
        u, _cols, r, sign = _eliminate(
            a[sl], np.zeros(sl.stop - sl.start),
            None if pivots is None else pivots[sl])
        full = r == n
        out[sl][full] = sign[full] * np.prod(
            np.diagonal(u[full], axis1=1, axis2=2), axis=1)
    return (out, pivots) if return_pivots else out


def adjugate(a, d=None):
    """Classical adjoints of the stack `a`: adj(a) @ a = det(a) * I, defined
    for singular a.

    Uses det * inv where well conditioned, cofactors otherwise; `d` is
    det(a) when the caller has it already."""
    a = _stack(a)
    count, n, _ = a.shape
    if n == 1:
        return np.ones((count, 1, 1))
    d = det(a) if d is None else np.reshape(np.asarray(d, dtype=float), count)
    scale = np.max(np.abs(a), axis=(1, 2), initial=0.0)
    scale[scale == 0.0] = 1.0
    # scalar pow per matrix: numpy's vectorised power can round differently
    big = np.array([s ** n for s in scale])
    well = (d != 0.0) & (np.abs(d) > 1e-10 * big)
    adj = np.empty((count, n, n))
    if well.any():
        try:
            adj[well] = d[well, None, None] * np.linalg.inv(a[well])
        except np.linalg.LinAlgError:
            # some matrix is singular to LAPACK after all: one at a time
            for p in np.flatnonzero(well):
                try:
                    adj[p] = d[p] * np.linalg.inv(a[p])
                except np.linalg.LinAlgError:
                    well[p] = False
    rest = np.flatnonzero(~well)
    # cofactors: the minor (i, j) drops row i and column j
    drop = np.array([np.delete(np.arange(n), i) for i in range(n)])
    parity = np.where(np.add.outer(np.arange(n), np.arange(n)) % 2, -1.0, 1.0)
    for sl in chunks(len(rest), n * n * (n - 1), n - 1):  # n^2 minors each
        minors = a[rest[sl]][:, drop[:, None, :, None], drop[None, :, None, :]]
        cof = det(minors.reshape(-1, n - 1, n - 1)).reshape(-1, n, n)
        adj[rest[sl]] = np.swapaxes(parity * cof, 1, 2)
    return adj
