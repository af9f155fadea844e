"""The line-oriented metric definition file format (.mspec).

    # comment
    dim = 4
    coords = u, r, x1, x2
    param m = 1
    g[0][0] = 2*(-1/2 + m/r)
    g[0][1] = 1
    singular = r
    box r = 1.5, 3.0
    point = 0.3, 2.0, 0.1, -0.2
    conformal = log(r)

Unspecified components default to zero; giving both g[i][j] and g[j][i]
with different expressions is an error.  `point` lines pin explicit sample
points (values in coordinate order); otherwise points are drawn from the
per-coordinate boxes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expressions import Expr, ZERO, ExprSyntaxError, is_zero, parse, sub, to_text
from .geometry import Chart, MetricField

__all__ = ["MetricSpec", "MetricSpecError", "loads_mspec",
           "dumps_mspec", "entry_to_mspec"]


class MetricSpecError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class MetricSpec:
    dim: int
    coords: tuple
    params: dict
    components: dict               # (i, j) -> Expr, i <= j
    singular: tuple = ()
    boxes: dict = field(default_factory=dict)
    points: list = field(default_factory=list)
    conformal: Expr | None = None

    def metric(self, name=None):
        chart = Chart(self.coords, self.singular)
        comps = np.full((self.dim, self.dim), ZERO, dtype=object)
        for (i, j), e in self.components.items():
            comps[i, j] = e
            comps[j, i] = e
        return MetricField(chart, comps, params=self.params,
                           sample_box=self.boxes or None, name=name)

    def sample(self, n=10, seed=0):
        if self.points:
            return [dict(p) for p in self.points]
        from .geometry import sample_points
        g = self.metric()
        return sample_points(g.chart, params=self.params, n=n, seed=seed,
                             box=self.boxes or None, metric=g.comps)


def loads_mspec(text) -> MetricSpec:
    dim = None
    coords = None
    params = {}
    components = {}
    singular = []
    boxes = {}
    points = []
    conformal = None

    def fail(msg, ln):
        raise MetricSpecError(msg, ln)

    def parse_expr(src, ln):
        try:
            return parse(src)
        except ExprSyntaxError as exc:
            fail(f"bad expression: {exc}", ln)

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            fail("expected 'key = value'", ln)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "dim":
            dim = int(value)
        elif key == "coords":
            coords = tuple(c.strip() for c in value.split(","))
        elif key.startswith("param "):
            params[key.split(None, 1)[1].strip()] = float(value)
        elif key.startswith("g[") :
            try:
                inner = key[1:].replace("[", " ").replace("]", " ").split()
                i, j = int(inner[0]), int(inner[1])
            except (ValueError, IndexError):
                fail(f"bad component key {key!r}", ln)
            if dim is None:
                fail("dim must come before metric components", ln)
            if not (0 <= i < dim and 0 <= j < dim):
                fail(f"component index ({i},{j}) outside dimension {dim}", ln)
            e = parse_expr(value, ln)
            lo = (min(i, j), max(i, j))
            if lo in components and components[lo] is not e \
                    and not is_zero(sub(components[lo], e)):
                fail(f"conflicting values for g[{i}][{j}] and its mirror", ln)
            components[lo] = e
        elif key == "singular":
            singular.append(parse_expr(value, ln))
        elif key.startswith("box "):
            c = key.split(None, 1)[1].strip()
            try:
                lo, hi = (float(v) for v in value.split(","))
            except ValueError:
                fail("box needs two comma-separated numbers", ln)
            boxes[c] = (lo, hi)
        elif key == "point":
            if coords is None:
                fail("coords must come before point lines", ln)
            try:
                vals = [float(v) for v in value.split(",")]
            except ValueError:
                fail("point needs comma-separated numbers", ln)
            if len(vals) != len(coords):
                fail(f"point needs {len(coords)} values", ln)
            points.append(dict(zip(coords, vals)))
        elif key == "conformal":
            conformal = parse_expr(value, ln)
        else:
            fail(f"unknown key {key!r}", ln)

    if dim is None:
        raise MetricSpecError("missing 'dim'")
    if coords is None:
        raise MetricSpecError("missing 'coords'")
    if len(coords) != dim:
        raise MetricSpecError(f"got {len(coords)} coordinates for dim {dim}")
    if not components:
        raise MetricSpecError("no metric components given")
    return MetricSpec(dim, coords, params, components, tuple(singular),
                      boxes, points, conformal)


def dumps_mspec(spec: MetricSpec) -> str:
    lines = [f"dim = {spec.dim}", "coords = " + ", ".join(spec.coords)]
    for k in sorted(spec.params):
        lines.append(f"param {k} = {spec.params[k]!r}")
    for (i, j) in sorted(spec.components):
        lines.append(f"g[{i}][{j}] = {to_text(spec.components[(i, j)])}")
    for e in spec.singular:
        lines.append(f"singular = {to_text(e)}")
    for c in sorted(spec.boxes):
        lo, hi = spec.boxes[c]
        lines.append(f"box {c} = {lo!r}, {hi!r}")
    for p in spec.points:
        lines.append("point = " + ", ".join(repr(p[c]) for c in spec.coords))
    if spec.conformal is not None:
        lines.append(f"conformal = {to_text(spec.conformal)}")
    return "\n".join(lines) + "\n"


def entry_to_mspec(entry, n_points=10, seed=0) -> MetricSpec:
    """Export a catalog entry, pinning its recommended sample points so a
    round trip reproduces verdicts bit for bit."""
    g = entry.metric
    comps = {}
    nd = g.dim
    for i in range(nd):
        for j in range(i, nd):
            if g.comps[i, j] is not ZERO:
                comps[(i, j)] = g.comps[i, j]
    pts = entry.points(n=n_points, seed=seed)
    return MetricSpec(
        dim=nd,
        coords=g.chart.coords,
        params=dict(g.params),
        components=comps,
        singular=tuple(g.chart.singular_loci),
        boxes=dict(g.sample_box or {}),
        points=pts,
        conformal=None,
    )
