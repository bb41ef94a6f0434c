"""Pseudometric matrices, zero-distance quotients and metric components.

A pseudometric on a finite point set is stored as a dense symmetric matrix
with zero diagonal.  Entries may be ``+inf``; infinity propagates through
min/plus arithmetic and is never encoded by a sentinel.  Distances of zero
between distinct points are legal -- collapsing them is exactly what
:func:`metric_quotient` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PseudometricMatrix",
    "QuotientSpace",
    "verify_pseudometric",
    "metric_quotient",
    "metric_components",
    "UnionFind",
]

#: slack used whenever a matrix is checked for the pseudometric axioms
VERIFY_TOL = 1e-9
#: detour entries built at once by the triangle check (a few MB)
PIVOT_BLOCK_ENTRIES = 1 << 19


class UnionFind:
    """Plain union-find over ``range(n)`` with path halving; a union makes
    the smaller root the parent of the larger."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)

    def groups(self) -> list[list[int]]:
        by_root: dict[int, list[int]] = {}
        for i in range(len(self.parent)):
            by_root.setdefault(self.find(i), []).append(i)
        return [by_root[r] for r in sorted(by_root)]


@dataclass
class PseudometricMatrix:
    """Symmetric nonnegative matrix of pairwise distances, possibly infinite."""

    d: np.ndarray

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float)
        if self.d.ndim != 2 or self.d.shape[0] != self.d.shape[1]:
            raise ValueError("distance matrix must be square")

    @property
    def n(self) -> int:
        return self.d.shape[0]


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

    Pivots go in blocks: a block's detours are one array, and a pair's
    least finite detour gives its largest finite slack, because subtracting
    is monotone under rounding.
    """
    n = d.shape[0]
    infinite = ~np.isfinite(d)
    any_infinite = bool(infinite.any())
    # detours of finite entries are finite or +inf, unless negative entries
    # sum to -inf; only then are non-finite detours set to +inf (no detour)
    sanitize = any_infinite or bool((d < 0.0).any())
    block = max(1, PIVOT_BLOCK_ENTRIES // max(n * n, 1))
    least = np.full(d.shape, np.inf)
    bad_pivot = None
    for k0 in range(0, n, block):
        with np.errstate(invalid="ignore"):   # inf + -inf
            detour = d[:, k0:k0 + block].T[:, :, None] + d[k0:k0 + block, None, :]
        if sanitize:
            finite = np.isfinite(detour)
            bad = (infinite & finite).any(axis=(1, 2))
            if bad.any():
                bad_pivot = k0 + int(bad.argmax())
                detour, finite = detour[: bad_pivot - k0 + 1], finite[: bad_pivot - k0 + 1]
            detour = np.where(finite, detour, np.inf)
        np.minimum(least, detour.min(axis=0), out=least)
        if bad_pivot is not None:
            break
    with np.errstate(invalid="ignore"):
        slack = d - least
    slack = slack[np.isfinite(slack)]
    return max(0.0, float(slack.max())) if slack.size else 0.0, bad_pivot


@dataclass
class QuotientSpace:
    """Result of collapsing zero-distance (up to ``tol``) point pairs."""

    class_of: np.ndarray          # point index -> class index
    representatives: list[int]    # one member per class, lowest index
    matrix: PseudometricMatrix    # distances between classes
    tol: float
    diagnostics: list[str] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.representatives)

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_classes)]
        for i, c in enumerate(self.class_of):
            out[c].append(i)
        return out


def metric_quotient(p: PseudometricMatrix, tol: float = 0.0) -> QuotientSpace:
    """Collapse all pairs at distance ``<= tol`` and re-metrize the classes.

    Class distances are the minimum over member pairs.  When ``tol`` is too
    large relative to the geometry this minimum can break the triangle
    inequality; any violation beyond ``2*tol`` is reported in
    ``diagnostics`` rather than silently accepted.
    """
    d = p.d
    n = p.n
    uf = UnionFind(n)
    ii, jj = np.where(d <= tol)
    for i, j in zip(ii.tolist(), jj.tolist()):
        if i < j:
            uf.union(i, j)
    groups = uf.groups()
    class_of = np.empty(n, dtype=int)
    for c, members in enumerate(groups):
        for m in members:
            class_of[m] = c
    k = len(groups)
    q = np.full((k, k), np.inf)
    np.fill_diagonal(q, 0.0)
    for a in range(k):
        ga = groups[a]
        for b in range(a + 1, k):
            gb = groups[b]
            q[a, b] = q[b, a] = float(d[np.ix_(ga, gb)].min())
    diagnostics = []
    problems = verify_pseudometric(q, tol=2.0 * tol + VERIFY_TOL)
    if problems:
        diagnostics.append(
            "quotient at tol=%.3g is not a pseudometric within 2*tol: %s"
            % (tol, "; ".join(problems))
        )
    return QuotientSpace(
        class_of=class_of,
        representatives=[g[0] for g in groups],
        matrix=PseudometricMatrix(q),
        tol=tol,
        diagnostics=diagnostics,
    )


def metric_components(p: PseudometricMatrix) -> list[list[int]]:
    """Partition points into components of the finiteness relation d < inf."""
    uf = UnionFind(p.n)
    ii, jj = np.where(np.isfinite(p.d))
    for i, j in zip(ii.tolist(), jj.tolist()):
        if i < j:
            uf.union(i, j)
    return uf.groups()
