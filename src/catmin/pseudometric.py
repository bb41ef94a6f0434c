"""Pseudometric matrices and their axiom check.

A pseudometric on a finite point set is stored as a dense symmetric matrix
with zero diagonal.  Entries may be ``+inf``; infinity propagates through
min/plus arithmetic and is never encoded by a sentinel.  Distances of zero
between distinct points are legal; `catmin.induced.intrinsic_pseudometric`
collapses the connecting pseudometric's zero classes with
`catmin.graphs.components`.

`verify_pseudometric` checks the triangle inequality one pivot k at a time:
the n x n detours ``d[i,k] + d[k,j]`` go into one reused buffer and fold
into a running minimum, so the check holds two n x n arrays at any n.
Blocks of pivots as one (block, n, n) array make fewer calls, but such
arrays outgrow the cache, and at the sizes of `catmin metrics` (n up to a
few hundred) they cost more than the calls they save.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PseudometricMatrix",
    "verify_pseudometric",
]

#: slack used whenever a matrix is checked for the pseudometric axioms
VERIFY_TOL = 1e-9


@dataclass
class PseudometricMatrix:
    """Symmetric nonnegative matrix of pairwise distances, possibly infinite."""

    d: np.ndarray

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float)
        if self.d.ndim != 2 or self.d.shape[0] != self.d.shape[1]:
            raise ValueError("distance matrix must be square")


def verify_pseudometric(d: np.ndarray, tol: float = VERIFY_TOL) -> list[str]:
    """Return a list of axiom violations (empty when ``d`` is a pseudometric).

    Checks nonnegativity, zero diagonal, symmetry and the triangle
    inequality.  The triangle inequality is checked with infinity-aware
    arithmetic: two points at finite distance from a common third point must
    themselves be at finite distance.  Pivots are taken in order and the
    check stops at the first such violation; the reported slack is the
    worst over the pivots up to it.
    """
    d = np.asarray(d, dtype=float)
    problems: list[str] = []
    if np.any(np.isnan(d)):
        return ["matrix contains NaN"]
    if np.any(d < -tol):
        problems.append("negative entries")
    diag = np.abs(np.diagonal(d))
    if np.any(diag > tol):
        problems.append(f"nonzero diagonal (max {diag.max():.3g})")
    with np.errstate(invalid="ignore"):
        asym = np.abs(d - d.T)
    asym = asym[np.isfinite(asym)]
    if asym.size and asym.max() > tol:
        problems.append(f"asymmetric (max {asym.max():.3g})")
    if np.any(np.isfinite(d) != np.isfinite(d.T)):
        problems.append("asymmetric infinity pattern")
    worst, bad_pivot = _worst_triangle_slack(d)
    if bad_pivot is not None:
        problems.append(f"infinite distance with finite detour via {bad_pivot}")
    if worst > tol:
        problems.append(f"triangle inequality violated by {worst:.3g}")
    return problems


def _worst_triangle_slack(d: np.ndarray) -> tuple[float, int | None]:
    """Largest finite ``d[i,j] - (d[i,k] + d[k,j])`` (at least 0) over the
    pivots k up to the first whose detour is finite across an infinite
    entry, and that pivot (None when there is none).

    Pivot by pivot, the n x n detours go into one reused buffer and fold
    into a running minimum: a pair's least finite detour gives its largest
    finite slack, because subtracting is monotone under rounding.
    """
    n = d.shape[0]
    infinite = np.flatnonzero(~np.isfinite(d))
    # detours are finite or +inf unless negative entries sum to -inf or
    # meet +inf; only then are non-finite detours set to +inf (no detour)
    sanitize = bool((d < 0.0).any())
    least = np.full(d.shape, np.inf)
    detour = np.empty_like(least)
    bad_pivot = None
    with np.errstate(invalid="ignore"):   # inf + -inf, inf - inf
        for k in range(n):
            np.add(d[:, k, None], d[k], out=detour)
            if sanitize:
                np.copyto(detour, np.inf, where=~np.isfinite(detour))
            np.minimum(least, detour, out=least)
            if infinite.size and np.isfinite(detour.take(infinite)).any():
                bad_pivot = k
                break
        slack = d - least
    slack = slack[np.isfinite(slack)]
    return max(0.0, float(slack.max())) if slack.size else 0.0, bad_pivot
