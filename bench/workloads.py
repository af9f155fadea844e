"""The benchmark's inputs: which metrics, at which points, with which
pinned verdict.

Every input is written as an `.mspec` file with its sample points pinned,
so the program sees only the file.  The point seed is the benchmark's
`--seed`; the metrics themselves never change with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Pinned verdicts, written down from each catalog entry's recorded truth
# (`CatalogEntry.expected`), never from a run of the program.  Rule: n >= 4
# and not weakly generic -> "inconclusive" (no theorem applies); otherwise
# "conformally_einstein" True -> "conformally-einstein", False -> "not".
CATALOG_VERDICTS = {
    "constant-curvature3": "conformally-einstein",   # n = 3, Einstein
    "constant-curvature4": "inconclusive",           # Weyl = 0
    "flat4": "inconclusive",                         # Weyl = 0
    "hyperkahler4": "conformally-einstein",          # Ricci-flat
    "pp-wave4": "inconclusive",                      # never weakly generic
    "pp-wave4-ricci-flat": "inconclusive",           # never weakly generic
    "rt4-quartic": "not",
    "rt5-quartic": "not",
    "rt6-quartic": "not",
    "schwarzschild-de-sitter4": "conformally-einstein",
    "schwarzschild-de-sitter5": "conformally-einstein",
    "schwarzschild4": "conformally-einstein",
    "schwarzschild5": "conformally-einstein",
}
CATALOG_POINTS = 10

# The dense generic 4-metric: generic, and not a conformal C-space.
DENSE4_SEED, DENSE4_SCALE, DENSE4_POINTS = 3, 10, 10
DENSE4_VERDICT = "not"

POINTS_ENTRY, POINTS_COUNT = "rt6-quartic", 500
POINTS_VERDICT = "not"

WORKLOADS = ("catalog", "dense4", "points")


@dataclass(frozen=True)
class Input:
    name: str
    path: Path
    pinned: str


def dense4_spec(point_seed):
    """Flat Euclidean 4-metric plus fixed pseudo-random cubic and bilinear
    terms (coefficient seed DENSE4_SEED), at DENSE4_POINTS points drawn
    from [0.5, 1.5]^4 with `point_seed`."""
    import numpy as np

    from confein.expressions import parse
    from confein.geometry import Chart, sample_points
    from confein.mspecfile import MetricSpec

    chart = Chart(("x1", "x2", "x3", "x4"))
    names = chart.coords
    rng = np.random.default_rng(DENSE4_SEED)
    comps = {}
    for i in range(4):
        for j in range(i, 4):
            terms = ["1" if i == j else "0"]
            for k in range(4):
                c = rng.integers(-2, 3)
                if c:
                    terms.append(f"{c}*{names[k]}^3/{DENSE4_SCALE}")
                c2 = rng.integers(-2, 3)
                if c2:
                    terms.append(
                        f"{c2}*{names[k]}*{names[(k + 1) % 4]}/{DENSE4_SCALE}")
            comps[(i, j)] = parse(" + ".join(terms))
    points = sample_points(chart, n=DENSE4_POINTS, seed=point_seed)
    return MetricSpec(dim=4, coords=names, params={}, components=comps,
                      points=points)


def _specs(workload, seed):
    from confein.catalog import get_entry
    from confein.mspecfile import entry_to_mspec

    if workload == "catalog":
        for name, verdict in CATALOG_VERDICTS.items():
            yield name, entry_to_mspec(get_entry(name), CATALOG_POINTS,
                                       seed), verdict
    elif workload == "dense4":
        yield "dense4", dense4_spec(seed), DENSE4_VERDICT
    elif workload == "points":
        yield POINTS_ENTRY, entry_to_mspec(get_entry(POINTS_ENTRY),
                                           POINTS_COUNT, seed), POINTS_VERDICT
    else:
        raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload, seed, directory):
    """Build the workload's metrics, draw their points and write one
    `.mspec` file per input into `directory`."""
    from confein.mspecfile import dumps_mspec

    inputs = []
    for name, spec, verdict in _specs(workload, seed):
        path = Path(directory) / f"{name}.mspec"
        path.write_text(dumps_mspec(spec), encoding="utf-8")
        inputs.append(Input(name, path, verdict))
    return inputs
