"""Numeric policy knobs shared across the pipelines, and `scale_of`, the
source of every scale and floor they decide on, each part's conformal
weight named at the call.  `Tolerances.tol_abs` is the one term with no
weight, the dim4-C3 gate (rank_tol * |C|^3, `obstructions._gate`) the one
cut already weighted."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = ["Tolerances", "DEFAULT_TOLERANCES", "max_norm", "scale_of"]


def max_norm(arr):
    """max |component| per point of the stack arr (P, ...)."""
    return np.max(np.abs(arr), axis=tuple(range(1, arr.ndim)))


def scale_of(*parts):
    """The scale max(1, max |part|) per point of (array, weight) parts,
    each array a stack (P, ...) over the same points.  The weight w of a
    part is its conformal weight, part(e^{2 upsilon} g) = e^{w upsilon}
    part(g) for constant upsilon (the convention of
    `obstructions.covariance_exponent`); each call names it, and the scale
    does not read it yet."""
    return np.maximum(1.0, np.max([max_norm(arr) for arr, _weight in parts],
                                  axis=0))


@dataclass(frozen=True)
class Tolerances:
    """The tolerances of the pipelines' residual and rank decisions, each
    against a scale or floor from `scale_of`.  Two cuts are fixed and not
    set here: a metric is degenerate where its smallest |eigenvalue| is at
    most 1e-10 times the `scale_of` of its eigenvalues
    (`geometry._degenerate`), and sigma vanishes where |sigma| < 1e-12
    (`tractor.parallel_tractor_check`).  A residual r measured against a
    magnitude `scale` passes when r < tol_rel * scale + tol_abs, tol_abs
    the one term with no weight.  `decisive`, a constant of the class and
    not a field, is the factor a residual must exceed (times scale) before
    a negative verdict is issued; anything in between is reported as
    inconclusive.  `rank_tol` is the pivot cutoff for rank and kernel
    extraction, relative to the largest matrix entry; the dim4-C3 gate,
    rank_tol * |C|^3, is the one cut already weighted.  Tolerances are
    checked when they are made, so every instance is valid."""

    tol_rel: float = 1e-8
    tol_abs: float = 1e-12
    rank_tol: float = 1e-8
    decisive: ClassVar[float] = 1e-3

    def __post_init__(self):
        if self.tol_rel <= 0 or self.tol_abs < 0 or self.rank_tol <= 0:
            raise ValueError("tolerances must be positive (tol_rel, rank_tol) "
                             "and nonnegative (tol_abs)")

    def passes(self, residual, scale=1.0):
        return residual < self.tol_rel * scale + self.tol_abs

    def decisively_fails(self, residual, scale=1.0):
        return residual > self.decisive * scale


DEFAULT_TOLERANCES = Tolerances()
