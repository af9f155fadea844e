"""Charts, tensor fields with symbolic components, and metric machinery.

All computation happens in a single coordinate chart.  A TensorField is a
dense object-array of Expr components, one axis per index slot, each slot up
('u') or down ('d'), plus an integer conformal-weight tag.  The weight is
bookkeeping only: raising a slot with the inverse metric adds -2, lowering
adds +2, and tests verify the tags empirically under conformal rescaling."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .evaluate import DomainError, compile_batch, run_batch
from .expressions import (
    ZERO,
    ONE,
    add,
    diff,
    func,
    is_zero,
    mul,
    neg,
    power,
    rational,
    simplify,
)

__all__ = [
    "UP",
    "DOWN",
    "Chart",
    "Point",
    "TensorField",
    "MetricField",
    "SingularMetricError",
    "sym_einsum",
    "tensor_from",
    "zeros",
    "raise_index",
    "lower_index",
    "christoffel",
    "covariant_derivative",
    "partial_derivative",
    "epsilon",
    "antisymmetrize",
    "symmetrize",
    "conformal_rescale",
    "coframe_components",
    "sample_points",
    "evaluate_components",
    "permutation_sign",
]

UP = "u"
DOWN = "d"

Point = dict  # coordinate (and parameter) name -> float


class SingularMetricError(ArithmeticError):
    pass


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate system with optional singular loci: expressions
    (typically denominators) whose zero sets sampling must avoid."""

    coords: tuple
    singular_loci: tuple = ()

    def __post_init__(self):
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("coordinate names must be pairwise distinct")
        if len(self.coords) < 3:
            raise ValueError("need dimension n >= 3")

    @property
    def dim(self):
        return len(self.coords)


@dataclass(eq=False)
class TensorField:
    """Dense symbolic tensor components on a chart.

    comps is an object ndarray of Expr with one axis of length chart.dim per
    entry of `variance`."""

    chart: Chart
    variance: tuple
    comps: np.ndarray
    weight: int = 0

    def __post_init__(self):
        expected = (self.chart.dim,) * len(self.variance)
        if self.comps.shape != expected:
            raise ValueError(f"component shape {self.comps.shape} != {expected}")

    @property
    def rank(self):
        return len(self.variance)

    def map(self, fn):
        out = np.empty_like(self.comps)
        for idx in np.ndindex(*self.comps.shape):
            out[idx] = fn(self.comps[idx])
        return TensorField(self.chart, self.variance, out, self.weight)

    def __add__(self, other):
        self._check_compatible(other)
        return TensorField(self.chart, self.variance,
                           _elementwise(add, self.comps, other.comps), self.weight)

    def __sub__(self, other):
        self._check_compatible(other)
        return TensorField(self.chart, self.variance,
                           _elementwise(lambda a, b: add(a, neg(b)),
                                        self.comps, other.comps), self.weight)

    def _check_compatible(self, other):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ValueError("tensor fields live on different charts")
        if self.variance != other.variance:
            raise ValueError(f"variance mismatch {self.variance} vs {other.variance}")
        if self.weight != other.weight:
            raise ValueError(f"weight mismatch {self.weight} vs {other.weight}")


def _elementwise(fn, a, b):
    out = np.empty_like(a)
    for idx in np.ndindex(*a.shape):
        out[idx] = fn(a[idx], b[idx])
    return out


def zeros(chart, variance, weight=0):
    comps = np.full((chart.dim,) * len(variance), ZERO, dtype=object)
    return TensorField(chart, tuple(variance), comps.copy(), weight)


def tensor_from(chart, variance, fn, weight=0):
    """Build components by calling fn(*indices) -> Expr."""
    n = chart.dim
    comps = np.empty((n,) * len(variance), dtype=object)
    for idx in np.ndindex(*comps.shape):
        comps[idx] = fn(*idx)
    return TensorField(chart, tuple(variance), comps, weight)


# ---------------------------------------------------------------------------
# symbolic einsum

_spec_cache = {}


def _parse_spec(spec, shapes):
    key = (spec, shapes)
    hit = _spec_cache.get(key)
    if hit is not None:
        return hit
    lhs, rhs = spec.split("->")
    terms = lhs.split(",")
    dims = {}
    for t, shape in zip(terms, shapes):
        if len(t) != len(shape):
            raise ValueError(f"spec {spec} does not match operand ranks")
        for ch, d in zip(t, shape):
            if dims.setdefault(ch, d) != d:
                raise ValueError(f"dimension clash for index {ch}")
    out_idx = list(rhs)
    sum_idx = sorted(set("".join(terms)) - set(out_idx))
    plan = (terms, out_idx, sum_idx, dims)
    _spec_cache[key] = plan
    return plan


def sym_einsum(spec, *arrays):
    """einsum for object arrays of Expr; skips products with a zero factor,
    which is what makes sparse metrics cheap.  Returns an Expr for scalar
    output specs."""
    arrays = [a.comps if isinstance(a, TensorField) else a for a in arrays]
    terms, out_idx, sum_idx, dims = _parse_spec(spec, tuple(a.shape for a in arrays))
    out_shape = tuple(dims[c] for c in out_idx)
    env = {}

    def entry():
        acc = []
        _accumulate(0, acc)
        return add(*acc) if acc else ZERO

    def _accumulate(k, acc):
        if k == len(sum_idx):
            fs = []
            for t, a in zip(terms, arrays):
                v = a[tuple(env[c] for c in t)]
                if v is ZERO:
                    return
                if v is not ONE:
                    fs.append(v)
            acc.append(mul(*fs) if fs else ONE)
            return
        c = sum_idx[k]
        for i in range(dims[c]):
            env[c] = i
            _accumulate(k + 1, acc)

    if not out_shape:
        return entry()
    out = np.empty(out_shape, dtype=object)
    for oidx in np.ndindex(*out_shape):
        for c, i in zip(out_idx, oidx):
            env[c] = i
        out[oidx] = entry()
    return out


# ---------------------------------------------------------------------------
# metric


class MetricField:
    """Symmetric nondegenerate (0,2) tensor field with cached inverse,
    Christoffel symbols, determinant and signature."""

    def __init__(self, chart, comps, params=None, reference_point=None,
                 sample_box=None, name=None):
        comps = np.asarray(comps, dtype=object)
        for i in range(chart.dim):
            for j in range(i):
                if comps[i, j] is not comps[j, i] and not is_zero(
                        add(comps[i, j], neg(comps[j, i]))):
                    raise ValueError(f"metric not symmetric at ({i},{j})")
        self.chart = chart
        self.field = TensorField(chart, (DOWN, DOWN), comps, weight=2)
        self.params = dict(params or {})
        self.reference_point = reference_point
        self.sample_box = sample_box
        self.name = name
        self._inverse = None
        self._det = None
        self._christoffel = None
        self._signature = None

    @property
    def comps(self):
        return self.field.comps

    @property
    def dim(self):
        return self.chart.dim

    def inverse_comps(self):
        if self._inverse is None:
            self._inverse = _symbolic_inverse(self.comps, symmetric=True)
        return self._inverse

    def det_expr(self):
        if self._det is None:
            self._det = _symbolic_det(self.comps)
        return self._det

    def christoffel(self):
        if self._christoffel is None:
            self._christoffel = christoffel(self)
        return self._christoffel

    def point_bindings(self, point):
        b = dict(self.params)
        b.update(point)
        return b

    def matrix_at(self, point):
        b = self.point_bindings(point)
        vals = evaluate_components(self.comps, [b])[0]
        return vals

    def signature(self, point=None):
        """(p, q) from the eigenvalues at `point`, by default at the
        reference point.  Only the reference point's result is cached; a
        point given while no reference point is set becomes it."""
        if point is None:
            if self._signature is None:
                if self.reference_point is None:
                    raise ValueError(
                        "no reference point available for the signature")
                self._signature = self._signature_at(self.reference_point)
            return self._signature
        sig = self._signature_at(point)
        if self.reference_point is None:
            self.reference_point = dict(point)
            self._signature = sig
        return sig

    def _signature_at(self, pt):
        m = self.matrix_at(pt)
        ev = np.linalg.eigvalsh(0.5 * (m + m.T))
        scale = np.max(np.abs(ev))
        if scale == 0 or np.min(np.abs(ev)) < 1e-10 * scale:
            raise SingularMetricError(f"metric is degenerate at {pt}")
        p = int(np.sum(ev > 0))
        return (p, self.dim - p)

    def det_sign(self, point=None):
        p, q = self.signature(point)
        return -1 if q % 2 else 1

    def assert_nondegenerate(self, points, tol=1e-10):
        points = list(points)
        m = evaluate_components(self.comps,
                                [self.point_bindings(pt) for pt in points])
        bad = np.nonzero(_degenerate(m, tol))[0]
        if bad.size:
            raise SingularMetricError(
                f"metric is degenerate at {points[bad[0]]}")


def _complexity(e):
    n = 0
    stack = [e]
    while stack:
        t = stack.pop()
        n += 1
        stack.extend(t.args)
    return n


def _symbolic_inverse(comps, symmetric=False):
    """Gauss-Jordan with pivots chosen by simplicity; exact for the
    structured matrices used here."""
    n = comps.shape[0]
    a = comps.copy()
    inv = np.full((n, n), ZERO, dtype=object)
    for i in range(n):
        inv[i, i] = ONE
    rows = list(range(n))
    for col in range(n):
        # pick the simplest provably-nonzero pivot in this column
        best, best_cost = None, None
        for r in range(col, n):
            e = a[rows[r], col]
            if e is ZERO or is_zero(e):
                continue
            cost = _complexity(e)
            if e.kind <= 1:  # constants pivot first
                cost -= 1000
            if best is None or cost < best_cost:
                best, best_cost = r, cost
        if best is None:
            raise SingularMetricError("metric matrix is symbolically singular")
        rows[col], rows[best] = rows[best], rows[col]
        pr = rows[col]
        piv = a[pr, col]
        pinv = power(piv, rational(-1))
        for jj in range(n):
            a[pr, jj] = simplify(mul(a[pr, jj], pinv))
            inv[pr, jj] = simplify(mul(inv[pr, jj], pinv))
        for r in range(n):
            rr = rows[r]
            if rr == pr:
                continue
            f = a[rr, col]
            if f is ZERO:
                continue
            for jj in range(n):
                a[rr, jj] = simplify(add(a[rr, jj], neg(mul(f, a[pr, jj]))))
                inv[rr, jj] = simplify(add(inv[rr, jj], neg(mul(f, inv[pr, jj]))))
    out = np.empty((n, n), dtype=object)
    for col in range(n):
        out[col] = inv[rows[col]]
    if symmetric:
        # average the two syntactic forms so the inverse metric is
        # manifestly symmetric
        for i in range(n):
            for j in range(i):
                s = simplify(mul(rational(1, 2), add(out[i, j], out[j, i])))
                out[i, j] = out[j, i] = s
    return out


def _symbolic_det(comps):
    n = comps.shape[0]

    def rec(rows, cols):
        if len(rows) == 1:
            return comps[rows[0], cols[0]]
        # expand along the sparsest row
        best_r, best_nz = None, None
        for ri, r in enumerate(rows):
            nz = sum(1 for c in cols if comps[r, c] is not ZERO)
            if best_nz is None or nz < best_nz:
                best_r, best_nz = ri, nz
        r = rows[best_r]
        rest_rows = rows[:best_r] + rows[best_r + 1:]
        terms = []
        for ci, c in enumerate(cols):
            e = comps[r, c]
            if e is ZERO:
                continue
            minor = rec(rest_rows, cols[:ci] + cols[ci + 1:])
            sgn = -1 if (best_r + ci) % 2 else 1
            terms.append(mul(rational(sgn), e, minor))
        return add(*terms) if terms else ZERO

    return simplify(rec(tuple(range(n)), tuple(range(n))))


def raise_index(t, slot, g):
    if t.variance[slot] != DOWN:
        raise ValueError(f"slot {slot} is already up")
    spec = _metric_spec(t.rank, slot)
    comps = sym_einsum(spec, g.inverse_comps(), t.comps)
    variance = list(t.variance)
    variance[slot] = UP
    return TensorField(t.chart, tuple(variance), comps, t.weight - 2)


def lower_index(t, slot, g):
    if t.variance[slot] != UP:
        raise ValueError(f"slot {slot} is already down")
    spec = _metric_spec(t.rank, slot)
    comps = sym_einsum(spec, g.comps, t.comps)
    variance = list(t.variance)
    variance[slot] = DOWN
    return TensorField(t.chart, tuple(variance), comps, t.weight + 2)


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _metric_spec(rank, slot):
    if rank + 2 > len(_LETTERS):
        raise ValueError("rank too large")
    idx = list(_LETTERS[2:2 + rank])
    contracted = idx[slot]
    idx_out = idx.copy()
    idx_out[slot] = "A"
    return f"A{contracted},{''.join(idx)}->{''.join(idx_out)}"


def partial_derivative(t):
    """Plain coordinate derivative; adds a leftmost (non-tensorial) axis."""
    n = t.chart.dim
    coords = t.chart.coords
    out = np.empty((n,) + t.comps.shape, dtype=object)
    for idx in np.ndindex(*t.comps.shape):
        e = t.comps[idx]
        for a in range(n):
            out[(a,) + idx] = diff(e, coords[a])
    return out


def christoffel(g):
    """Levi-Civita connection coefficients, up-down-down, symmetric in the
    two lower slots."""
    n = g.dim
    dg = partial_derivative(g.field)  # dg[a, b, c] = d_a g_bc
    ginv = g.inverse_comps()
    comps = np.empty((n, n, n), dtype=object)
    for b in range(n):
        for c in range(b, n):
            for a in range(n):
                terms = []
                for d in range(n):
                    gid = ginv[a, d]
                    if gid is ZERO:
                        continue
                    inner = add(dg[b, d, c], dg[c, b, d], neg(dg[d, b, c]))
                    if inner is ZERO:
                        continue
                    terms.append(mul(rational(1, 2), gid, inner))
                val = simplify(add(*terms)) if terms else ZERO
                comps[a, b, c] = val
                comps[a, c, b] = val
    return TensorField(g.chart, (UP, DOWN, DOWN), comps, weight=0)


def covariant_derivative(t, g):
    """Levi-Civita covariant derivative; the new down slot is leftmost."""
    gamma = g.christoffel().comps
    n = t.chart.dim
    dT = partial_derivative(t)
    out = np.empty_like(dT)
    for idx in np.ndindex(*t.comps.shape):
        for a in range(n):
            terms = [dT[(a,) + idx]]
            for s, var in enumerate(t.variance):
                i_s = idx[s]
                for e in range(n):
                    jdx = idx[:s] + (e,) + idx[s + 1:]
                    v = t.comps[jdx]
                    if v is ZERO:
                        continue
                    if var == UP:
                        gam = gamma[i_s, a, e]
                        sign = 1
                    else:
                        gam = gamma[e, a, i_s]
                        sign = -1
                    if gam is ZERO:
                        continue
                    terms.append(mul(rational(sign), gam, v))
            out[(a,) + idx] = add(*terms)
    return TensorField(t.chart, (DOWN,) + tuple(t.variance), out, t.weight)


def permutation_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def epsilon(g, orientation=1, point=None):
    """Volume form: eps_{a1..an} = orientation * sqrt|det g| * sign(perm)."""
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    n = g.dim
    s = g.det_sign(point)
    root = power(mul(rational(s), g.det_expr()), rational(1, 2))
    comps = np.full((n,) * n, ZERO, dtype=object)
    for perm in permutations(range(n)):
        sgn = permutation_sign(perm)
        comps[perm] = mul(rational(orientation * sgn), root)
    return TensorField(g.chart, (DOWN,) * n, comps, weight=n)


def _project(t, slots, antisymmetric):
    if len(set(slots)) != len(slots):
        raise ValueError("slots must be distinct")
    var0 = t.variance[slots[0]]
    for s in slots:
        if t.variance[s] != var0:
            raise ValueError("cannot mix up and down slots in one projection")
    k = len(slots)
    norm = Fraction(1, 1)
    for i in range(2, k + 1):
        norm /= i
    out = np.empty_like(t.comps)
    shape = t.comps.shape
    perms = list(permutations(range(k)))
    for idx in np.ndindex(*shape):
        terms = []
        for perm in perms:
            jdx = list(idx)
            for pos, p in zip(slots, perm):
                jdx[pos] = idx[slots[p]]
            v = t.comps[tuple(jdx)]
            if v is ZERO:
                continue
            if antisymmetric and permutation_sign(perm) < 0:
                v = neg(v)
            terms.append(v)
        out[idx] = mul(rational(norm), add(*terms)) if terms else ZERO
    return TensorField(t.chart, t.variance, out, t.weight)


def antisymmetrize(t, slots):
    """Antisymmetrizing projection over the given same-variance slots,
    including the 1/k! normalization (idempotent)."""
    return _project(t, tuple(slots), True)


def symmetrize(t, slots):
    return _project(t, tuple(slots), False)


def conformal_rescale(g, upsilon):
    """New metric e^{2 upsilon} g in the same chart."""
    factor = func("exp", mul(rational(2), upsilon))
    n = g.dim
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            comps[i, j] = mul(factor, g.comps[i, j])
    return MetricField(g.chart, comps, params=g.params,
                       reference_point=g.reference_point,
                       sample_box=g.sample_box,
                       name=f"{g.name}^rescaled" if g.name else None)


def coframe_components(t, coframe):
    """Components of t in the coframe theta^A_mu (rows = frame labels,
    columns = coordinates): up slots contract with theta, down slots with
    the inverse frame."""
    theta = np.asarray(coframe, dtype=object)
    frame = None
    comps = t.comps
    for s, var in enumerate(t.variance):
        rank = comps.ndim
        idx = _LETTERS[:rank]
        spec_idx = idx[s]
        if var == UP:
            mat = theta
        else:
            if frame is None:
                # inverse frame: theta[A, mu] e[mu, B] = delta; contraction
                # matrix for a down slot is e transposed
                frame = _symbolic_inverse(theta).T
            mat = frame
        # contract slot s: out[... A ...] = sum_mu M[A, mu] T[... mu ...]
        out_idx = idx[:s] + "A" + idx[s + 1:]
        comps = sym_einsum(f"A{spec_idx},{idx}->{out_idx}", mat, comps)
        comps = _map_simplify(comps)
    return comps


def _map_simplify(comps):
    out = np.empty_like(comps)
    for idx in np.ndindex(*comps.shape):
        out[idx] = simplify(comps[idx])
    return out


# ---------------------------------------------------------------------------
# sampling and evaluation


def sample_points(chart, params=None, n=10, seed=0, box=None, locus_tol=1e-9,
                  metric=None):
    """Draw sample points uniformly from the box (default [0.5, 1.5] per
    coordinate), rejecting any within locus_tol of a declared singular
    locus and, given the metric components `metric`, any where a component
    is undefined or the metric is degenerate (the `assert_nondegenerate`
    criterion).  A rejected point is redrawn; the points kept are the first
    n good ones in the order drawn."""
    rng = np.random.default_rng(seed)
    params = dict(params or {})
    loci = list(chart.singular_loci)
    prog = compile_batch(loci) if loci else None
    gprog = (compile_batch(list(np.asarray(metric, dtype=object).reshape(-1)))
             if metric is not None else None)
    pts = []
    checked = 0  # pts[:checked] passed the metric check
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 1000 * n:
            raise RuntimeError("sampling keeps hitting singular loci or "
                               "points where the metric is undefined or "
                               "degenerate; tighten the sample box")
        pt = {}
        for c in chart.coords:
            lo, hi = (box or {}).get(c, (0.5, 1.5))
            pt[c] = float(rng.uniform(lo, hi))
        if prog is not None:
            vals = prog.run({**params, **pt})
            vals = np.atleast_1d(np.asarray(vals, dtype=float))
            if np.any(np.abs(vals) <= locus_tol):
                continue
        pts.append(pt)
        if len(pts) == n and gprog is not None:
            fresh = pts[checked:]
            ok = _regular(gprog, [{**params, **p} for p in fresh],
                          len(chart.coords))
            pts[checked:] = [p for p, keep in zip(fresh, ok) if keep]
            checked = len(pts)
    return pts


def _regular(prog, bindings, dim):
    """Per binding: are the metric components of `prog` all defined and
    finite there, and the metric nondegenerate?"""
    try:
        m = run_batch(prog, bindings)
    except DomainError:
        # undefined somewhere: find where, one point at a time
        m = np.full((len(bindings), len(prog.outputs)), np.nan)
        for i, b in enumerate(bindings):
            try:
                m[i] = run_batch(prog, [b])[0]
            except DomainError:
                pass
    m = m.reshape(-1, dim, dim)
    ok = np.all(np.isfinite(m), axis=(1, 2))
    ok[ok] = ~_degenerate(m[ok])
    return ok


def _degenerate(m, tol=1e-10):
    """Per matrix of the stack m: is its symmetric part degenerate, its
    smallest |eigenvalue| <= tol * max(1, largest |eigenvalue|)?"""
    ev = np.abs(np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, 1, 2))))
    return np.min(ev, axis=1) <= tol * np.maximum(1.0, np.max(ev, axis=1))


def evaluate_components(comps, points):
    """Evaluate an object array of Expr (or a single Expr) at a list of
    binding dicts; returns an ndarray of shape (len(points),) + comps.shape."""
    comps = np.asarray(comps, dtype=object)
    vals = run_batch(compile_batch(list(comps.reshape(-1))), points)
    return vals.reshape((len(points),) + comps.shape)
