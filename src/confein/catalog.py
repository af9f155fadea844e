"""Built-in example metrics with known ground truth.

Each entry packages a metric, a safe sampling box, and an expected-truth
record whose every field carries a provenance note saying *why* the value
is what it is.  The acceptance suite replays these records through the
obstruction and tractor pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expressions import (
    ONE,
    ZERO,
    add,
    diff,
    func,
    is_zero,
    mul,
    neg,
    parse,
    power,
    rational,
    simplify,
    symbol,
)
from .geometry import Chart, MetricField, sample_points

__all__ = [
    "CatalogEntry",
    "robinson_trautman",
    "schwarzschild_de_sitter",
    "pp_wave",
    "hyperkahler_example",
    "constant_curvature",
    "flat",
    "CATALOG",
    "get_entry",
    "entry_names",
]


@dataclass
class CatalogEntry:
    name: str
    metric: MetricField
    expected: dict                 # field -> (value, provenance)
    extras: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.metric.dim

    def points(self, n=10, seed=0):
        return sample_points(self.metric.chart, params=self.metric.params,
                             n=n, seed=seed, box=self.metric.sample_box,
                             metric=self.metric.comps)

    def expect(self, key):
        return self.expected[key][0]


def _transverse(names, kappa, signs):
    """Quadratic form sum eps_i x_i^2 and the stereographic denominator."""
    q = add(*[mul(rational(s), power(symbol(x), rational(2)))
              for x, s in zip(names, signs)]) if names else ZERO
    den = add(ONE, mul(rational(kappa, 4), q))
    return q, den


def robinson_trautman(n, kappa, h, signs=None, params=None, name=None,
                      expected=None):
    """2 du (dr + h(r) du) + r^2 g_ij dx^i dx^j / (1 + kappa |x|^2/4)^2.

    The returned extras hold the null-orthonormal coframe, the curvature
    profile Psi, and the closed-form potential whose gradient solves the
    C-space equation wherever Psi is nonzero."""
    if n < 4:
        raise ValueError("need n >= 4")
    if kappa not in (-1, 0, 1):
        raise ValueError("kappa must be -1, 0 or 1")
    signs = tuple(signs or (1,) * (n - 2))
    xs = tuple(f"x{i}" for i in range(1, n - 1))
    coords = ("u", "r") + xs
    _, den = _transverse(xs, kappa, signs)
    r = symbol("r")
    loci = (r,) if kappa == 0 else (r, den)
    chart = Chart(coords, loci)
    w = mul(power(r, rational(2)), power(den, rational(-2)))
    comps = np.full((n, n), ZERO, dtype=object)
    comps[0, 0] = simplify(mul(rational(2), h))
    comps[0, 1] = comps[1, 0] = ONE
    for i, s in enumerate(signs):
        comps[2 + i, 2 + i] = mul(rational(s), w)
    box = {"r": (1.5, 3.0), "u": (0.0, 1.0)}
    for x in xs:
        box[x] = (-0.5, 0.5)
    g = MetricField(chart, comps, params=params, sample_box=box,
                    name=name or f"robinson-trautman{n}")

    hp = diff(h, "r")
    hpp = diff(hp, "r")
    kap = rational(kappa)
    psi = simplify(mul(rational(1, (n - 1) * (n - 2)),
                       add(mul(add(kap, mul(rational(2), h)),
                               power(r, rational(-2))),
                           neg(mul(rational(2), hp, power(r, rational(-1)))),
                           hpp)))
    # potential whose gradient solves the C-space equation (valid where
    # psi != 0): log[ r^{(1-n)/(n-3)} psi^{1/(3-n)} ]
    pot = add(mul(rational(1 - n, n - 3), func("log", r)),
              mul(rational(1, 3 - n), func("log", psi)))
    theta = np.full((n, n), ZERO, dtype=object)
    theta[0, 0] = ONE                      # theta^+ = du
    theta[1, 0] = h                        # theta^- = dr + h du
    theta[1, 1] = ONE
    f = mul(r, power(den, rational(-1)))
    for i in range(2, n):
        theta[i, i] = f
    scalar_closed = simplify(add(
        mul(rational(n - 2),
            add(mul(rational(n - 3), add(kap, mul(rational(2), h)),
                    power(r, rational(-2))),
                mul(rational(4), hp, power(r, rational(-1))))),
        mul(rational(2), hpp)))
    entry = CatalogEntry(
        name=name or f"robinson-trautman{n}",
        metric=g,
        expected=expected or {},
        extras={"h": h, "psi": psi, "cspace_potential": pot,
                "coframe": theta, "scalar_curvature_closed_form": scalar_closed})
    return entry


def schwarzschild_de_sitter(n, kappa=1, m=1.0, lam=0.0, name=None):
    """The Einstein members of the family: h = -kappa/2 + m/r^{n-3}
    + lam r^2 / (2(n-1))."""
    r = symbol("r")
    h = add(mul(rational(-kappa, 2), ONE),
            mul(symbol("m"), power(r, rational(-(n - 3)))),
            mul(symbol("L"), power(r, rational(2)), rational(1, 2 * (n - 1))))
    nm = name or (f"schwarzschild{n}" if lam == 0 else
                  f"schwarzschild-de-sitter{n}")
    expected = {
        "einstein": (True, "the profile makes the trace-free Schouten "
                           "tensor vanish identically"),
        "conformally_einstein": (True, "already Einstein"),
        "cspace": (True, "Einstein metrics have vanishing Cotton tensor in "
                         "their own scale"),
        "weakly_generic": (m != 0, "the Weyl profile is nonzero for m != 0"),
        "lambda2_generic": (m != 0, "the 2-form operator is invertible when "
                                    "the Weyl profile is nonzero"),
    }
    entry = robinson_trautman(n, kappa, h, params={"m": float(m),
                                                   "L": float(lam)},
                              name=nm, expected=expected)
    return entry


def rt_quartic(n, name=None):
    """h = r^4: Lambda2-generic, a conformal C-space, but not conformally
    Einstein (the second integrability condition fails).

    The skew and plain symmetric kernel systems are trivial whenever the
    curvature profile is nonzero; the volume-form-dualized symmetric system,
    which the closed-form treatment of this family leaves unexamined, turns
    out to admit solutions, so the recorded full-genericity flag is False
    even though the sharp obstructions all apply through the Lambda2
    route."""
    h = power(symbol("r"), rational(4))
    expected = {
        "einstein": (False, "the quartic profile is not in the Einstein "
                            "family"),
        "conformally_einstein": (False, "the Bach-type condition fails even "
                                        "though the C-space condition holds"),
        "cspace": (True, "the closed-form gradient solves the C-space "
                         "equation wherever the curvature profile is "
                         "nonzero"),
        "weakly_generic": (True, "nonzero curvature profile"),
        "lambda2_generic": (True, "nonzero curvature profile"),
        "generic": (False, "recorded result: the volume-form-dualized "
                           "symmetric kernel system admits solutions for "
                           "this family; the skew and plain symmetric "
                           "systems are trivial"),
        "dual_kernel_trivial": (False, "recorded result at the sample "
                                       "points"),
    }
    return robinson_trautman(n, 1, h, name=name or f"rt{n}-quartic",
                             expected=expected)


def pp_wave(n, h=None, name=None):
    """2 du (dr + h(x, u) du) + delta_ij dx^i dx^j; never weakly generic
    (the r-direction annihilates the Weyl tensor)."""
    if n < 4:
        raise ValueError("need n >= 4")
    xs = tuple(f"x{i}" for i in range(1, n - 1))
    coords = ("u", "r") + xs
    chart = Chart(coords)
    if h is None:
        h = parse("x1^2 - x2^2 + u*x1^3")
    comps = np.full((n, n), ZERO, dtype=object)
    comps[0, 0] = simplify(mul(rational(2), h))
    comps[0, 1] = comps[1, 0] = ONE
    for i in range(2, n):
        comps[i, i] = ONE
    g = MetricField(chart, comps, name=name or f"pp-wave{n}")
    lap = simplify(add(*[diff(diff(h, x), x) for x in xs]))
    harmonic = is_zero(lap)
    expected = {
        "einstein": (harmonic, "Ricci-flat exactly when the profile is "
                               "harmonic in the transverse variables"),
        "weakly_generic": (False, "the r-direction lies in the kernel of "
                                  "the Weyl tensor"),
        "lambda2_generic": (False, "implied by the failure of weak "
                                   "genericity"),
        "generic": (False, "implied"),
    }
    return CatalogEntry(name=name or f"pp-wave{n}", metric=g,
                        expected=expected,
                        extras={"h": h, "transverse_laplacian": lap})


def hyperkahler_example(name="hyperkahler4"):
    """A Riemannian Ricci-flat metric on the domain rho = 2 x1 - 2(x2^2 +
    y2^2) > 0 whose curvature operator kills a 3-dimensional space of
    2-forms: weakly generic but not Lambda2-generic."""
    rho = parse("2*x1 - 2*(x2^2 + y2^2)")
    chart = Chart(("x1", "y1", "x2", "y2"), (rho,))
    a1 = [ONE, ZERO, parse("-2*x2"), parse("-2*y2")]
    a2 = [ZERO, ONE, parse("2*y2"), parse("-2*x2")]
    rm = power(rho, rational(-1, 2))
    rp = power(rho, rational(1, 2))
    comps = np.empty((4, 4), dtype=object)
    for i in range(4):
        for j in range(4):
            v = mul(rm, add(mul(a1[i], a1[j]), mul(a2[i], a2[j])))
            if i == j and i >= 2:
                v = add(v, mul(rational(4), rp))
            comps[i, j] = simplify(v)
    g = MetricField(chart, comps,
                    sample_box={"x1": (1.0, 2.0), "y1": (0.0, 1.0),
                                "x2": (-0.3, 0.3), "y2": (-0.3, 0.3)},
                    name=name)
    expected = {
        "einstein": (True, "Ricci-flat by construction"),
        "conformally_einstein": (True, "already Einstein"),
        "weakly_generic": (True, "the squared norm of the Weyl tensor, "
                                 "24/rho^3, never vanishes on the domain"),
        "lambda2_generic": (False, "three independent 2-forms are "
                                   "annihilated by the curvature operator"),
        "generic": (False, "implied"),
    }
    return CatalogEntry(name=name, metric=g, expected=expected,
                        extras={"rho": rho,
                                "weyl_norm_squared": parse("24/(2*x1 - 2*(x2^2 + y2^2))^3")})


def constant_curvature(n, kappa, name=None):
    """Stereographic form delta_ij / (1 + kappa |x|^2 / 4)^2: Einstein with
    vanishing Weyl tensor (and vanishing Cotton tensor in n = 3)."""
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    _, den = _transverse(xs, kappa, (1,) * n)
    loci = () if kappa >= 0 else (den,)
    chart = Chart(xs, loci)
    w = power(den, rational(-2))
    comps = np.full((n, n), ZERO, dtype=object)
    for i in range(n):
        comps[i, i] = w
    g = MetricField(chart, comps, name=name or f"constant-curvature{n}")
    expected = {
        "einstein": (True, "constant sectional curvature"),
        "conformally_einstein": (True, "already Einstein"),
        "weakly_generic": (False, "the Weyl tensor vanishes identically"),
        "lambda2_generic": (False, "implied"),
        "generic": (False, "implied"),
        "cotton_flat": (True, "conformally flat"),
    }
    return CatalogEntry(name=name or f"constant-curvature{n}", metric=g,
                        expected=expected, extras={"kappa": kappa})


def flat(n, signature=None, name=None):
    signs = tuple(signature or (1,) * n)
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    chart = Chart(xs)
    comps = np.full((n, n), ZERO, dtype=object)
    for i, s in enumerate(signs):
        comps[i, i] = rational(s)
    g = MetricField(chart, comps, name=name or f"flat{n}")
    expected = {
        "einstein": (True, "zero curvature"),
        "conformally_einstein": (True, "already Einstein"),
        "weakly_generic": (False, "zero Weyl tensor"),
        "lambda2_generic": (False, "implied"),
        "generic": (False, "implied"),
    }
    return CatalogEntry(name=name or f"flat{n}", metric=g, expected=expected)


CATALOG = {
    "flat4": lambda: flat(4),
    "constant-curvature3": lambda: constant_curvature(3, 1),
    "constant-curvature4": lambda: constant_curvature(4, 1),
    "schwarzschild4": lambda: schwarzschild_de_sitter(4, m=1.0, lam=0.0),
    "schwarzschild5": lambda: schwarzschild_de_sitter(5, m=1.0, lam=0.0),
    "schwarzschild-de-sitter4": lambda: schwarzschild_de_sitter(4, m=1.0,
                                                                lam=2.0),
    "schwarzschild-de-sitter5": lambda: schwarzschild_de_sitter(5, m=1.0,
                                                                lam=2.0),
    "rt4-quartic": lambda: rt_quartic(4),
    "rt5-quartic": lambda: rt_quartic(5),
    "rt6-quartic": lambda: rt_quartic(6),
    "pp-wave4": lambda: pp_wave(4, parse("x1^2 - x2^2 + u*x1^3")),
    "pp-wave4-ricci-flat": lambda: pp_wave(4, parse("x1^2 - x2^2"),
                                           name="pp-wave4-ricci-flat"),
    "hyperkahler4": hyperkahler_example,
}


def entry_names():
    return sorted(CATALOG)


def get_entry(name) -> CatalogEntry:
    try:
        return CATALOG[name]()
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; available: "
                       f"{', '.join(entry_names())}") from None


__all__.append("rt_quartic")
