"""Dense linear algebra on small matrices (sizes up to ~500 rows here).

Rank and null spaces come from Gaussian elimination with full pivoting so
the pivot sequence itself is the diagnostic: a column is dependent exactly
when no remaining entry exceeds `tol * max|entry|`.  Adjugates are defined
for singular matrices too (cofactor fallback), since `adj(M) @ M = det(M) I`
is used as an identity, not as an inverse."""

from __future__ import annotations

import numpy as np

__all__ = ["rank_nullspace", "rank", "nullspace", "adjugate", "det"]


def _eliminate(a, tol):
    """Full-pivot forward elimination.

    Returns (u, row_perm, col_perm, r): u is the eliminated matrix under the
    permutations, r the numerical rank.  tol is relative to the largest
    absolute entry of the input."""
    u = np.array(a, dtype=float, copy=True)
    m, n = u.shape
    scale = np.max(np.abs(u)) if u.size else 0.0
    cut = tol * scale
    rows = list(range(m))
    cols = list(range(n))
    r = 0
    for k in range(min(m, n)):
        sub = np.abs(u[k:, k:])
        if sub.size == 0:
            break
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        if sub[i, j] <= cut or sub[i, j] == 0.0:
            break
        i += k
        j += k
        if i != k:
            u[[k, i]] = u[[i, k]]
            rows[k], rows[i] = rows[i], rows[k]
        if j != k:
            u[:, [k, j]] = u[:, [j, k]]
            cols[k], cols[j] = cols[j], cols[k]
        piv = u[k, k]
        fac = u[k + 1:, k] / piv
        u[k + 1:, k:] -= np.outer(fac, u[k, k:])
        u[k + 1:, k] = 0.0
        r += 1
    return u, rows, cols, r


def rank_nullspace(a, tol=1e-8):
    """(rank, kernel basis) of `a`; kernel columns are orthonormalized.

    Kernel vectors solve a x = 0 with back substitution on the eliminated
    system, one per dependent column."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    m, n = a.shape
    u, _rows, cols, r = _eliminate(a, tol)
    nullity = n - r
    if nullity == 0:
        return r, np.zeros((n, 0))
    basis = np.zeros((n, nullity))
    for f in range(nullity):
        x = np.zeros(n)  # in permuted column order
        x[r + f] = 1.0
        for i in range(r - 1, -1, -1):
            x[i] = -np.dot(u[i, i + 1:], x[i + 1:]) / u[i, i]
        for j in range(n):
            basis[cols[j], f] = x[j]
    # orthonormalize for stable downstream comparisons
    q, _ = np.linalg.qr(basis)
    return r, q[:, :nullity]


def rank(a, tol=1e-8):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return _eliminate(a, tol)[3]


def nullspace(a, tol=1e-8):
    return rank_nullspace(a, tol)[1]


def det(a):
    """Determinant via the same elimination (sign tracked by permutations)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    u, rows, cols, r = _eliminate(a, tol=0.0)
    if r < n:
        return 0.0
    sign = _perm_sign(rows) * _perm_sign(cols)
    return sign * float(np.prod(np.diag(u)))


def _perm_sign(p):
    p = list(p)
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def adjugate(a, d=None):
    """Classical adjoint: adj(a) @ a = det(a) * I, defined for singular a.

    Uses det * inv when well conditioned, cofactors otherwise; `d` is
    det(a) when the caller has it already."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return np.ones((1, 1))
    if d is None:
        d = det(a)
    scale = np.max(np.abs(a)) or 1.0
    if d != 0.0 and abs(d) > 1e-10 * scale ** n:
        try:
            return d * np.linalg.inv(a)
        except np.linalg.LinAlgError:
            pass
    adj = np.empty((n, n))
    idx = np.arange(n)
    for i in range(n):
        ri = idx[idx != i]
        for j in range(n):
            minor = a[np.ix_(ri, idx[idx != j])]
            adj[j, i] = (-1.0) ** (i + j) * det(minor)
    return adj
