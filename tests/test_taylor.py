import numpy as np
import pytest

from confein import taylor as T

N, K, PTS = 3, 3, 4


def _jet(rng, *shape):
    return rng.normal(size=(PTS, T.size(N, K)) + shape)


def _at(jet, h, k=K):
    """The truncated series of `jet` evaluated at the offset h."""
    powers = np.prod(h ** T.monomials(N, k), axis=1)
    return np.einsum("m,pm...->p...", powers, jet[:, :T.size(N, k)])


def _offsets(scale):
    return [scale * np.array(v) for v in ([1.0, -2.0, 1.5], [0.5, 1.0, -1.0])]


def _batched(spec):
    return "p" + spec.replace(",", ",p").replace("->", "->p")


@pytest.mark.parametrize("spec,fs,hs", [
    ("ab,bc->ac", (2, 3), (3, 2)),
    ("e,ebd->bd", (3,), (3, 2, 2)),
    ("ca,bd->abcd", (2, 2), (2, 2)),
    (",bd->bd", (), (2, 2)),
    ("bd,bd->", (2, 2), (2, 2)),
])
def test_product_is_the_truncated_cauchy_product(spec, fs, hs):
    rng = np.random.default_rng(1)
    f, h = _jet(rng, *fs), _jet(rng, *hs)
    exps = [tuple(e) for e in T.monomials(N, K)]
    want = np.zeros_like(T.product(spec, f, h, N, K))
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            g = tuple(x + y for x, y in zip(a, b))
            if sum(g) <= K:
                want[:, exps.index(g)] += np.einsum(_batched(spec), f[:, i],
                                                    h[:, j])
    got = T.product(spec, f, h, N, K)
    assert np.max(np.abs(got - want)) < 1e-12


def test_inverse_inverts_to_order():
    rng = np.random.default_rng(2)
    a = _jet(rng, 3, 3)
    a[:, 0] += 4 * np.eye(3)
    inv = T.inverse(a, N, K)
    for x in _offsets(1e-3):
        resid = np.einsum("pab,pbc->pac", _at(inv, x), _at(a, x)) - np.eye(3)
        assert np.max(np.abs(resid)) < 1e-9


def test_partials_of_a_polynomial():
    # f = 2 + 3 x0 x1^2 - x2^3: d/dx1 = 6 x0 x1
    exps = T.monomials(N, K).tolist()
    f = np.zeros((1, T.size(N, K)))
    f[0, 0], f[0, exps.index([1, 2, 0])], f[0, exps.index([0, 0, 3])] = 2, 3, -1
    d = T.partials(f, N, K - 1)
    want = np.zeros(T.size(N, K - 1))
    want[T.monomials(N, K - 1).tolist().index([1, 1, 0])] = 6
    assert np.array_equal(d[0, :, 1], want)
    assert d[0, T.monomials(N, K - 1).tolist().index([0, 0, 2]), 2] == -3


def test_parents_rebuild_every_monomial():
    exps = T.monomials(4, 4)
    parent, var = T.parents(4, 4)
    rebuilt = exps[parent[1:]] + np.eye(4, dtype=int)[var[1:]]
    assert np.array_equal(rebuilt, exps[1:])


def test_order_is_read_from_the_number_of_monomials():
    for n in range(3, 7):
        for k in range(5):
            assert T.order(n, T.size(n, k)) == k
    with pytest.raises(ValueError, match="no number of monomials"):
        T.order(4, 6)
