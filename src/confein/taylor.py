"""Truncated multivariate Taylor arithmetic over batches of sample points.

A jet of order k of a tensor-valued function of n coordinates, taken at P
points, is an array of shape (P, M) + tensor shape with M = C(n + k, k):
f[p, m] is the Taylor coefficient of the monomial h^alpha_m in
f(x_p + h) = sum_m f[p, m] h^alpha_m + O(|h|^(k+1)).  Monomials are graded
(degree 0, then 1, ...), so the jet of order j < k is the prefix
f[:, :size(n, j)] and the values are f[:, 0].

Arithmetic is forward propagation of truncated series (Griewank, Utke &
Walther, Math. Comp. 69 (2000)): a sum is the sum of coefficients, a
product is the truncated Cauchy product, the partial d/dx_i shifts the
coefficients with the factor alpha_i + 1, and a matrix inverse is solved
degree by degree.  A tensor contraction is a few batched matrix products,
one per degree of the first factor's monomials; the index tables are built
with numpy and cached per (n, k).

This is the one forward-mode algebra of the package: the curvature ladder
runs it to order 4, and at order 1 (values plus first partials,
f[:, 1 + i] = d_i f) it carries the one-form K of `obstructions` and its
partials, with the sampled g, g^-1, P, J, C and A as operands."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, prod

import numpy as np

__all__ = ["size", "monomials", "factorials", "parents", "partials",
           "second_partials", "product", "inverse"]


def size(n, k):
    """Number of monomials of degree <= k in n variables."""
    return comb(n + k, k)


def _frozen(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def monomials(n, k):
    """Exponent vectors (M, n) of the monomials of degree <= k, graded."""
    rows = [np.zeros((1, n), dtype=np.int64)]
    for d in range(1, k + 1):
        combos = np.array(list(combinations_with_replacement(range(n), d)))
        rows.append((combos[:, :, None] == np.arange(n)).sum(axis=1))
    return _frozen(np.concatenate(rows))


@lru_cache(maxsize=None)
def factorials(n, k):
    """alpha! per monomial: the Taylor coefficient is the partial over it."""
    fact = np.cumprod(np.concatenate([[1.0], np.arange(1.0, k + 1)]))
    return _frozen(np.prod(fact[monomials(n, k)], axis=1))


@lru_cache(maxsize=None)
def _row_lookup(n, k):
    """Row of each monomial, indexed by its exponents read in base k + 1
    (-1 where the degree exceeds k)."""
    table = np.full((k + 1) ** n, -1, dtype=np.int64)
    table[_codes(monomials(n, k), k)] = np.arange(size(n, k))
    return _frozen(table)


def _codes(exps, k):
    return exps @ (k + 1) ** np.arange(exps.shape[-1])


@lru_cache(maxsize=None)
def parents(n, k):
    """(parent rows, variables), each (M,): every monomial of degree >= 1
    is its parent's times x_var, var its last variable with a nonzero
    exponent (row 0 has parent 0 and variable -1)."""
    exps = monomials(n, k)
    var = n - 1 - np.argmax(exps[:, ::-1] > 0, axis=1)
    var[0] = -1
    down = exps.copy()
    down[np.arange(1, len(exps)), var[1:]] -= 1
    return _frozen(_row_lookup(n, k)[_codes(down, k)]), _frozen(var)


@lru_cache(maxsize=None)
def _shift(n, k):
    """(source rows, factors), each (M_k, n): d/dx_i of a jet of order
    k + 1 has coefficient (alpha_i + 1) f[alpha + e_i] at alpha."""
    exps = monomials(n, k)
    up = exps[:, None] + np.eye(n, dtype=np.int64)
    src = _row_lookup(n, k + 1)[_codes(up, k + 1)]
    return _frozen(src), _frozen((exps + 1).astype(float))


@lru_cache(maxsize=None)
def _shift2(n, k):
    """(source rows, factors), each (M_k, n(n+1)/2): the coefficient of
    d^2/dx_i dx_j (i <= j, row-major) of a jet of order k + 2 at alpha is
    (alpha + e_i + e_j)! / alpha! times f[alpha + e_i + e_j]."""
    exps = monomials(n, k)
    i, j = np.triu_indices(n)
    eye = np.eye(n, dtype=np.int64)
    up = exps[:, None] + eye[i] + eye[j]
    src = _row_lookup(n, k + 2)[_codes(up, k + 2)]
    fac = (exps[:, i] + 1) * (exps[:, j] + 1 + (i == j))
    return _frozen(src), _frozen(fac.astype(float))


def _degree_rows(n, d):
    return size(n, d - 1) if d else 0, size(n, d)


def _as_index(rows):
    if np.array_equal(rows, np.arange(rows[0], rows[0] + len(rows))):
        return slice(int(rows[0]), int(rows[0]) + len(rows))
    return _frozen(rows)


@lru_cache(maxsize=None)
def _scatter(n, k, a_rows, b_rows, base):
    """How the products of rows a_rows x b_rows (two ranges) land on the
    rows of order k (minus `base`).  Pairs with equal products must be
    summed, so the plan runs over the shorter range: each entry
    (i, None, rows) adds the products of a-row i, (None, j, rows) those of
    b-row j, and the rows they land on are distinct."""
    exps = monomials(n, k)
    rows = _row_lookup(n, k)[_codes(exps[slice(*a_rows)][:, None]
                                    + exps[slice(*b_rows)][None], k)] - base
    if rows.shape[0] <= rows.shape[1]:
        return tuple((i, None, _as_index(r)) for i, r in enumerate(rows))
    return tuple((None, j, _as_index(r)) for j, r in enumerate(rows.T))


def _accumulate(acc, r, plan):
    """acc (rows, P, ...) += the products r (a, b, P, ...) along `plan`."""
    for i, j, rows in plan:
        acc[rows] += r[:, j] if i is None else r[i]


def _shifted(f, table):
    src, fac = table
    d = f[:, src]
    d *= fac.reshape(fac.shape + (1,) * (f.ndim - 2))
    return d


def partials(f, n, k):
    """Jet of order k of the coordinate partials of f (order >= k + 1):
    shape (P, M_k, n) + tensor shape, the derivative axis after the
    monomial axis."""
    return _shifted(f, _shift(n, k))


def second_partials(f, n, k):
    """Jet of order k of the second partials d^2 f / dx_i dx_j, i <= j, of
    f (order >= k + 2): shape (P, M_k, n(n+1)/2) + tensor shape."""
    return _shifted(f, _shift2(n, k))


@lru_cache(maxsize=None)
def _plan(spec):
    lhs, out = spec.split("->")
    a, b = lhs.split(",")
    summed = [c for c in a if c in b]
    fa = [c for c in a if c not in summed]
    fb = [c for c in b if c not in summed]
    if (set(summed) & set(out) or sorted(fa + fb) != sorted(out)
            or len(set(a)) < len(a) or len(set(b)) < len(b)):
        raise ValueError(f"cannot map {spec!r} to a matrix product")
    res = fa + fb
    return (tuple(a.index(c) for c in fa + summed), len(fa),
            tuple(b.index(c) for c in summed), tuple(b.index(c) for c in fb),
            tuple(res.index(c) for c in out))


def product(spec, f, h, n, k):
    """Jet of order k of np.einsum(spec) over the tensor axes of the jets
    f and h (each of order >= k): the truncated Cauchy product.  Every
    index of `spec` is summed (in both operands) or free (in one operand
    and the output).  One broadcast matrix product per degree of f's
    monomials covers every pair of rows whose product has degree <= k;
    the work runs monomial-major, where the scatter onto product rows is
    fast, and the result is a point-major view."""
    pa, nfa, ps, pfb, po = _plan(spec)
    m = size(n, k)
    if f.shape[1] < m or h.shape[1] < m:
        raise ValueError(f"product of order {k} needs operands of order {k}")
    p = f.shape[0]
    # f as (M, P, Fa, K) and h as (M, P, K, Fb)
    ft = f[:, :m].transpose((1, 0) + tuple(2 + i for i in pa))
    ht = h[:, :m].transpose((1, 0) + tuple(2 + i for i in ps + pfb))
    fa_shape = ft.shape[2:2 + nfa]
    fb_shape = ht.shape[2 + len(ps):]
    kk = prod(ft.shape[2 + nfa:])
    ft = ft.reshape(m, p, prod(fa_shape), kk)
    ht = ht.reshape(m, p, kk, prod(fb_shape))
    acc = None
    for a in range(k + 1):
        lo, hi = _degree_rows(n, a)
        m2 = size(n, k - a)
        r = np.matmul(ft[lo:hi, None], ht[None, :m2])   # (a, b, P, Fa, Fb)
        if acc is None:
            acc = r[0]
        else:
            _accumulate(acc, r, _scatter(n, k, (lo, hi), (0, m2), 0))
    acc = acc.reshape((m, p) + fa_shape + fb_shape)
    return acc.transpose((1, 0) + tuple(2 + i for i in po))


def inverse(a, n, k):
    """Jet of order k of the inverse of a matrix jet a (P, M, r, r), degree
    by degree; the values a[:, 0] must be invertible
    (np.linalg.LinAlgError otherwise)."""
    p, r = a.shape[0], a.shape[-1]
    am = a.transpose(1, 0, 2, 3)
    inv0 = np.linalg.inv(a[:, 0])
    out = np.empty((size(n, k), p, r, r))          # monomial-major
    out[0] = inv0
    for d in range(1, k + 1):
        lo, hi = _degree_rows(n, d)
        s = np.zeros((hi - lo, p, r, r))
        for b in range(1, d + 1):
            blo, bhi = _degree_rows(n, b)
            clo, chi = _degree_rows(n, d - b)
            _accumulate(s, np.matmul(am[blo:bhi, None], out[None, clo:chi]),
                        _scatter(n, k, (blo, bhi), (clo, chi), lo))
        out[lo:hi] = -np.matmul(inv0, s)
    return out.transpose(1, 0, 2, 3)
