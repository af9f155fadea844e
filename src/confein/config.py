"""Numeric policy knobs shared across the pipelines."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Tolerances", "DEFAULT_TOLERANCES"]


@dataclass(frozen=True)
class Tolerances:
    """Every numeric decision the pipelines make is governed here.

    A residual r measured against a magnitude `scale` passes when
    r < tol_rel * scale + tol_abs.  `decisive` is the factor a residual must
    exceed (times scale) before a negative verdict is issued; anything in
    between is reported as inconclusive.  `rank_tol` is the pivot cutoff for
    rank and kernel extraction, relative to the largest matrix entry.
    Tolerances are checked when they are made, so every instance is valid."""

    tol_rel: float = 1e-8
    tol_abs: float = 1e-12
    rank_tol: float = 1e-8
    decisive: float = 1e-3

    def __post_init__(self):
        if self.tol_rel <= 0 or self.tol_abs < 0 or self.rank_tol <= 0:
            raise ValueError("tolerances must be positive (tol_rel, rank_tol) "
                             "and nonnegative (tol_abs)")

    def passes(self, residual, scale=1.0):
        return residual < self.tol_rel * scale + self.tol_abs

    def decisively_fails(self, residual, scale=1.0):
        return residual > self.decisive * scale


DEFAULT_TOLERANCES = Tolerances()
