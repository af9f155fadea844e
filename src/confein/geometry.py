"""Charts, tensor fields with symbolic components, and metric machinery.

All computation happens in a single coordinate chart.  A TensorField is a
dense object-array of Expr components, one axis per index slot, each slot up
('u') or down ('d'), plus an integer conformal-weight tag.  The weight is
bookkeeping only, set where a field is built: 2 for the metric and the
Weyl tensor with its slots down, 0 for the Christoffel symbols."""

from __future__ import annotations

from dataclasses import dataclass

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
    "TensorField",
    "MetricField",
    "SingularMetricError",
    "sym_einsum",
    "christoffel",
    "covariant_derivative",
    "partial_derivative",
    "conformal_rescale",
    "coframe_components",
    "sample_points",
    "evaluate_components",
    "permutation_sign",
]

UP = "u"
DOWN = "d"


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
    """Symmetric nondegenerate (0,2) tensor field with cached symbolic
    inverse and Christoffel symbols."""

    def __init__(self, chart, comps, params=None, sample_box=None, name=None):
        comps = np.asarray(comps, dtype=object)
        for i in range(chart.dim):
            for j in range(i):
                if comps[i, j] is not comps[j, i] and not is_zero(
                        add(comps[i, j], neg(comps[j, i]))):
                    raise ValueError(f"metric not symmetric at ({i},{j})")
        self.chart = chart
        self.field = TensorField(chart, (DOWN, DOWN), comps, weight=2)
        self.params = dict(params or {})
        self.sample_box = sample_box
        self.name = name
        self._inverse = None
        self._christoffel = None

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

    def christoffel(self):
        if self._christoffel is None:
            self._christoffel = christoffel(self)
        return self._christoffel

    def point_bindings(self, point):
        b = dict(self.params)
        b.update(point)
        return b


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


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


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


def conformal_rescale(g, upsilon):
    """New metric e^{2 upsilon} g in the same chart."""
    factor = func("exp", mul(rational(2), upsilon))
    n = g.dim
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            comps[i, j] = mul(factor, g.comps[i, j])
    return MetricField(g.chart, comps, params=g.params,
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


# a drawn point this close to a declared singular locus is redrawn
_LOCUS_TOL = 1e-9


def sample_points(chart, params=None, n=10, seed=0, box=None, metric=None):
    """Draw sample points uniformly from the box (default [0.5, 1.5] per
    coordinate), rejecting any within _LOCUS_TOL of a declared singular
    locus and, given the metric components `metric`, any where a component
    is undefined or the metric is degenerate (`_degenerate`, the criterion
    `CurvatureSamples` applies).  A rejected point is redrawn; the points
    kept are the first n good ones in the order drawn.  Points are drawn
    and checked in batches of as many as are still missing, so no point is
    drawn past the n-th good one.  Raises SingularMetricError, naming the
    box, when 1000 n draws do not give n good points."""
    rng = np.random.default_rng(seed)
    params = dict(params or {})
    loci = list(chart.singular_loci)
    prog = compile_batch(loci) if loci else None
    gprog = (compile_batch(list(np.asarray(metric, dtype=object).reshape(-1)))
             if metric is not None else None)
    box = {c: (box or {}).get(c, (0.5, 1.5)) for c in chart.coords}
    pts = []
    attempts = 0
    while len(pts) < n:
        k = min(n - len(pts), 1000 * n - attempts)
        if k == 0:
            raise SingularMetricError(
                f"cannot sample {n} points: {len(pts)} of {attempts} drawn "
                "from the box "
                + ", ".join(f"{c} in [{lo:g}, {hi:g}]"
                            for c, (lo, hi) in box.items())
                + " miss the singular loci and have a defined, finite, "
                "nondegenerate metric")
        attempts += k
        fresh = [{c: float(rng.uniform(*box[c])) for c in chart.coords}
                 for _ in range(k)]
        binds = [{**params, **pt} for pt in fresh]
        keep = np.ones(k, dtype=bool)
        if prog is not None:
            keep = ~np.any(np.abs(run_batch(prog, binds)) <= _LOCUS_TOL,
                           axis=1)
        if gprog is not None:
            keep[keep] = _regular(gprog, [b for b, ok in zip(binds, keep)
                                          if ok], len(chart.coords))
        pts += [pt for pt, ok in zip(fresh, keep) if ok]
    return pts


def _regular(prog, bindings, dim):
    """Per binding: are the metric components of `prog` all defined there,
    and the metric not `_degenerate`?"""
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
    return ~_degenerate(m.reshape(-1, dim, dim))


def _degenerate(m):
    """Per matrix of the stack m: is it not finite, or its symmetric part
    degenerate, its smallest |eigenvalue| <= 1e-10 * max(1, largest
    |eigenvalue|)?  The one test of a degenerate metric: sampling redraws
    such points, and `CurvatureSamples` rejects them."""
    bad = ~np.all(np.isfinite(m), axis=(1, 2))
    ok = m[~bad]
    # halved before the sum, which then cannot overflow
    ev = np.abs(np.linalg.eigvalsh(0.5 * ok + 0.5 * np.swapaxes(ok, 1, 2)))
    bad[~bad] = np.min(ev, axis=1) <= 1e-10 * np.maximum(1.0,
                                                         np.max(ev, axis=1))
    return bad


def evaluate_components(comps, points):
    """Evaluate an object array of Expr (or a single Expr) at a list of
    binding dicts; returns an ndarray of shape (len(points),) + comps.shape."""
    comps = np.asarray(comps, dtype=object)
    vals = run_batch(compile_batch(list(comps.reshape(-1))), points)
    return vals.reshape((len(points),) + comps.shape)
