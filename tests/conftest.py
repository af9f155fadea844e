import numpy as np
import pytest

from confein import catalog
from confein.curvature import CurvaturePack

_packs = {}
_samples = {}
_entries = {}


def entry(name):
    if name not in _entries:
        _entries[name] = catalog.get_entry(name)
    return _entries[name]


def pack(name):
    if name not in _packs:
        _packs[name] = CurvaturePack(entry(name).metric)
    return _packs[name]


def points(name, n=10, seed=0):
    return entry(name).points(n=n, seed=seed)


def samples(name, n=10, seed=0):
    key = (name, n, seed)
    if key not in _samples:
        _samples[key] = pack(name).samples(points(name, n, seed))
    return _samples[key]


@pytest.fixture
def catalog_entry():
    return entry


@pytest.fixture
def catalog_pack():
    return pack


@pytest.fixture
def catalog_points():
    return points


@pytest.fixture
def catalog_samples():
    return samples


def maxabs(arr):
    return float(np.max(np.abs(arr)))


def kernel_contains(report, vector, tol=1e-10):
    """True when `vector` lies in the weak-genericity kernel of the
    GenericityReport at every point (residual of the projection below
    tol)."""
    v = np.asarray(vector, dtype=float)
    v = v / np.linalg.norm(v)
    for pg in report.per_point:
        k = pg.weak_kernel
        if k.size == 0 or np.linalg.norm(v - k @ (k.T @ v)) > tol:
            return False
    return True


def k_field_from_tensor(k_tensor, s, provenance="user-supplied"):
    """A symbolic one-form K (a closed-form gradient) as a KField at the
    points of the samples s."""
    from confein.geometry import evaluate_components, partial_derivative
    from confein.obstructions import KField

    return KField(evaluate_components(k_tensor.comps, s.bindings),
                  evaluate_components(partial_derivative(k_tensor),
                                      s.bindings), provenance)


def perturbed_flat_metric(seed=3, scale=10):
    """Flat Euclidean 4-metric plus fixed pseudo-random cubic terms: a fully
    generic metric that is not a conformal C-space."""
    from confein.expressions import ZERO, parse
    from confein.geometry import Chart, MetricField

    ch = Chart(("x1", "x2", "x3", "x4"))
    rng = np.random.default_rng(seed)
    names = ch.coords
    comps = np.full((4, 4), ZERO, dtype=object)
    for i in range(4):
        for j in range(i, 4):
            terms = ["1" if i == j else "0"]
            for k in range(4):
                c = rng.integers(-2, 3)
                if c:
                    terms.append(f"{c}*{names[k]}^3/{scale}")
                c2 = rng.integers(-2, 3)
                if c2:
                    terms.append(f"{c2}*{names[k]}*{names[(k + 1) % 4]}/{scale}")
            e = parse(" + ".join(terms))
            comps[i, j] = e
            comps[j, i] = e
    return MetricField(ch, comps, name=f"perturbed-flat(seed={seed})")
