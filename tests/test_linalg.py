"""The stacked eliminations of `confein.linalg` against the per-matrix loop
they replace, which is kept here as the oracle: eliminated matrices, ranks,
determinants and adjugates must agree bit for bit, kernels span for span."""

import numpy as np
import pytest

from confein import linalg

TOL = 1e-8


# --- the per-matrix oracle ---------------------------------------------------

def _eliminate(a, tol):
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


def _rank_nullspace(a, tol):
    m, n = a.shape
    u, _rows, cols, r = _eliminate(a, tol)
    nullity = n - r
    if nullity == 0:
        return r, np.zeros((n, 0))
    basis = np.zeros((n, nullity))
    for f in range(nullity):
        x = np.zeros(n)
        x[r + f] = 1.0
        for i in range(r - 1, -1, -1):
            x[i] = -np.dot(u[i, i + 1:], x[i + 1:]) / u[i, i]
        for j in range(n):
            basis[cols[j], f] = x[j]
    q, _ = np.linalg.qr(basis)
    return r, q[:, :nullity]


def _rank_null_floored(mat, tol, floor):
    top = np.max(np.abs(mat)) if mat.size else 0.0
    if top <= tol * floor:
        return 0, np.eye(mat.shape[1])
    return _rank_nullspace(mat, max(tol, tol * floor / top))


def _perm_sign(p):
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


def _det(a):
    n = a.shape[0]
    u, rows, cols, r = _eliminate(a, tol=0.0)
    if r < n:
        return 0.0
    return _perm_sign(rows) * _perm_sign(cols) * float(np.prod(np.diag(u)))


def _adjugate(a, d=None):
    n = a.shape[0]
    if n == 1:
        return np.ones((1, 1))
    if d is None:
        d = _det(a)
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
            adj[j, i] = (-1.0) ** (i + j) * _det(minor)
    return adj


# --- inputs ------------------------------------------------------------------

def _deficient(rng, count, m, k, every=3):
    """Gaussian (m, k) matrices, every `every`-th one of random lower rank."""
    a = rng.normal(size=(count, m, k))
    for p in range(0, count, every):
        r = int(rng.integers(0, min(m, k)))
        a[p] = rng.normal(size=(m, r)) @ rng.normal(size=(r, k))
    return a


def _stacks():
    rng = np.random.default_rng(7)
    ints = rng.integers(-2, 3, size=(40, 5, 5)).astype(float)  # argmax ties
    zero = rng.normal(size=(6, 4, 4))
    zero[2] = 0.0
    return {
        "deficient": _deficient(rng, 30, 6, 6),
        "deficient-15": _deficient(rng, 20, 15, 15, every=4),
        "integers": ints,
        "zero": zero,
        "tall": _deficient(rng, 5, 1297, 21, every=2),
        "wide": _deficient(rng, 12, 8, 30),
        "one": rng.normal(size=(1, 4, 4)),
        "empty": np.zeros((0, 5, 5)),
    }


STACKS = _stacks()
SQUARE = [k for k, v in STACKS.items() if v.shape[1] == v.shape[2]]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", sorted(STACKS))
def test_elimination_matches_the_loop(name):
    a = STACKS[name]
    cut = TOL * np.max(np.abs(a), axis=(1, 2), initial=0.0)
    u, cols, r, sign = linalg._eliminate(a, cut)
    for p, x in enumerate(a):
        u0, rows0, cols0, r0 = _eliminate(x, TOL)
        assert np.array_equal(_bits(u[p]), _bits(u0))
        assert r[p] == r0 and list(cols[p]) == cols0
        assert sign[p] == _perm_sign(rows0) * _perm_sign(cols0)


@pytest.mark.parametrize("name", sorted(STACKS))
def test_ranks_and_kernels_match_the_loop(name):
    a = STACKS[name]
    ranks, kernels = linalg.rank_nullspace(a, TOL)
    assert np.array_equal(linalg.rank(a, TOL), ranks)
    assert len(kernels) == len(a)
    for p, x in enumerate(a):
        r0, k0 = _rank_nullspace(x, TOL)
        assert ranks[p] == r0
        _same_span(kernels[p], k0)


def _same_span(k, k0):
    assert k.shape == k0.shape
    assert np.allclose(k.T @ k, np.eye(k.shape[1]), atol=1e-12)
    assert np.allclose(k @ k.T, k0 @ k0.T, atol=1e-10)


def test_floored_ranks_match_the_loop():
    rng = np.random.default_rng(3)
    a = _deficient(rng, 24, 9, 5)
    a[::4] *= 1e-12           # top <= tol * floor: counts as zero
    a[1::4] *= 1e-7           # cut raised by the floor
    a[2] = 0.0
    floor = rng.uniform(0.5, 2.0, size=len(a))
    floor[5] = 0.0
    ranks, kernels = linalg.rank_nullspace(a, TOL, floor)
    assert np.array_equal(linalg.rank(a, TOL, floor), ranks)
    for p, x in enumerate(a):
        r0, k0 = _rank_null_floored(x, TOL, floor[p])
        assert ranks[p] == r0
        if r0 == 0:
            assert np.array_equal(kernels[p], k0)
        _same_span(kernels[p], k0)
    assert ranks[0] == 0 and ranks[2] == 0


@pytest.mark.parametrize("name", SQUARE)
def test_determinants_and_adjugates_match_the_loop(name):
    a = STACKS[name]
    d = linalg.det(a)
    adj = linalg.adjugate(a, d)
    assert np.array_equal(_bits(linalg.adjugate(a)), _bits(adj))
    for p, x in enumerate(a):
        assert _bits(d[p]) == _bits(_det(x))
        assert np.array_equal(_bits(adj[p]), _bits(_adjugate(x, d[p])))


def test_adjugate_cofactor_fallback_matches_the_loop():
    rng = np.random.default_rng(11)
    a = _deficient(rng, 9, 6, 6, every=1)   # all singular: cofactors
    a[4] = rng.normal(size=(6, 6))          # one through d * inv
    adj = linalg.adjugate(a)
    for p, x in enumerate(a):
        assert np.array_equal(_bits(adj[p]), _bits(_adjugate(x)))
        assert np.allclose(adj[p] @ x, _det(x) * np.eye(6), atol=1e-9)


def test_adjugate_survives_a_failed_inverse(monkeypatch):
    """A matrix that LAPACK finds singular despite its determinant takes
    the cofactor path, the others still d * inv, as in the loop."""
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 4, 4))
    inv = np.linalg.inv

    def failing(x):
        if np.any(np.all(x == a[2], axis=(-2, -1))):
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(x)

    monkeypatch.setattr(np.linalg, "inv", failing)
    adj = linalg.adjugate(a)
    for p, x in enumerate(a):
        assert np.array_equal(_bits(adj[p]), _bits(_adjugate(x)))
    assert not np.array_equal(adj[2], _det(a[2]) * inv(a[2]))


def test_a_matrix_is_a_stack_of_one():
    x = STACKS["deficient"][1]
    assert linalg.rank(x, TOL).tolist() == [_eliminate(x, TOL)[3]]
    assert linalg.det(x).tolist() == [_det(x)]
    assert np.array_equal(linalg.adjugate(x)[0], _adjugate(x))
    assert len(linalg.nullspace(x, TOL)) == 1


def test_chunks_cover_the_stack_within_the_budget():
    for count, m, k in [(0, 5, 5), (1, 1297, 21), (201, 1297, 21),
                        (500, 15, 15), (3, 400, 400)]:
        parts = linalg.chunks(count, m, k)
        covered = [p for sl in parts for p in range(count)[sl]]
        assert covered == list(range(count))
        for sl in parts:
            size = sl.stop - sl.start
            assert size == 1 or 8 * size * m * k <= linalg.CHUNK_BYTES


def test_elimination_pins_ties_and_a_mid_stack_stop():
    # tied pivots (equal |entries| everywhere), and matrices that stop at
    # steps 1, 2 and 0 while the others go on: the buffers the stacked pass
    # reuses must leave every matrix as the per-matrix loop leaves it
    ones = np.ones((4, 4))
    two = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0],
                    [2.0, 0.0, 0.0, -2.0], [0.0, 2.0, -2.0, 0.0]])
    full = np.array([[2.0, -2.0, 1.0, 0.0], [2.0, 2.0, 0.0, 1.0],
                     [1.0, 0.0, 2.0, -2.0], [0.0, 1.0, 2.0, 2.0]])
    a = np.stack([ones, two, full, np.zeros((4, 4)), -full])
    cut = TOL * np.max(np.abs(a), axis=(1, 2), initial=0.0)
    u, cols, r, sign = linalg._eliminate(a, cut)
    assert list(r) == [1, 2, 4, 0, 4]
    for p, x in enumerate(a):
        u0, rows0, cols0, r0 = _eliminate(x, TOL)
        assert np.array_equal(_bits(u[p]), _bits(u0))
        assert r[p] == r0 and list(cols[p]) == cols0
        assert sign[p] == _perm_sign(rows0) * _perm_sign(cols0)
