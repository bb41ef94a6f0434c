"""Length relaxation of mapped graphs and its first-order certificates.

A mapped graph is relaxed by sweeping the free vertices in ascending index
order; a vertex moves only along a direction that strictly shortens *all*
incident edges at once, so every edge length is monotone non-increasing
through the whole run.  The move direction solves the small convex program

    maximize t  subject to  <d, u_i> >= t for all i,  |d| <= 1,

whose value equals the norm of the minimum-norm point of the convex hull
of the unit edge directions u_i.  The value is zero exactly when the
origin lies in that hull, i.e. when no all-shortening direction exists.
Wolfe's finite algorithm finds the face of the hull that holds that point,
and the point is the origin's exact projection onto the face's affine hull
(see `min_norm_hull_point`).  The walk stops early at a stationary star:
once its point is at most ``STATIONARY_TOL / 2`` long, the star has no
shortening direction whatever the minimum is, and the walk neither goes on
to the minimum nor refines it.

A vertex star changes only when the vertex or one of its neighbours moves,
so within one `relax` call each star is built and solved once per change:
a sweep reuses the unit edge directions, edge lengths, t* and direction of
every unchanged star, a move steps along the star it was solved on, and the
certificate that `relax` computes on its result takes the t* of every star
of the last sweep without building the star again.

Every edge of a mapped graph is the geodesic between its ends, so moving
a vertex moves its edges with it.  `relax` moves the points of one copy of
its graph (`straighten`) and leaves the input as it is.  The certificate
records, per free vertex, the program value t*, and per interior vertex,
the sum of consecutive comparison angles in rotation order, which must
reach a full turn at a length-minimizing position.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import GraphInTarget
from .majorize import ANGLE_TOL
from .targets import EuclideanSpace

__all__ = [
    "descent_direction",
    "min_norm_hull_point",
    "straighten",
    "relax",
    "certify_conditions",
    "MinimizationCertificate",
]

ZERO_EDGE_TOL = 1e-13
DESCENT_TOL = 1e-8  # largest t* of a certified graph: the instance key "descent"
STATIONARY_TOL = 1e-12  # a star with t* at most this has no shortening direction


def min_norm_hull_point(units: np.ndarray) -> np.ndarray:
    """Minimum-norm point of the convex hull of the given row vectors.

    The optimum lies in the relative interior of a face spanned by at most
    ``dim + 1`` affinely independent rows, its support.  Wolfe's finite
    algorithm ("Finding the nearest point in a polytope", Math. Programming
    11, 1976) walks to that support, and the point is the origin's
    projection onto the support's affine hull, computed from the rows by a
    least squares on difference vectors (no Gram squaring, so it stays
    accurate near degenerate faces).  A support of ``dim + 1`` rows is a
    simplex around the origin, whose point is the exact zero vector.  Near
    stationarity (norm below 1e-6) the projection is refined in extended
    precision.  Supports whose points agree to rounding are a tie, settled
    by row order (see `_settle_ties`), so the result depends on the rows
    alone and not on the path of the walk.

    The walk stops as soon as its point is at most ``STATIONARY_TOL / 2``
    long and returns that point as it is, with no tie settling and no
    refinement: every such star reads as stationary in `descent_direction`,
    and so does its minimum.  So the result is the minimum-norm point only
    when it is longer than that; a shorter result is a point of the hull
    (up to the rounding of its weights) within ``STATIONARY_TOL / 2`` of the
    origin.  `relax` asks once per star and change of the star (see the
    module docstring), so a stationary star costs one short walk.
    """
    u = np.asarray(units, dtype=float)
    support, w = _wolfe(u)
    if len(support) > u.shape[1]:
        return np.zeros(u.shape[1])
    if len(support) >= 2 and WOLFE_STOP < math.sqrt(w @ w) < 1e-6:
        # near stationarity the direction error of a double-precision
        # projection is eps / |w|; one extended-precision pass keeps the
        # direction usable down to values far below the certificates' tol
        refined = _refine_projection_longdouble(u[support])
        if refined is not None:
            w = refined
    return w


# the walk ends at a point this short: `descent_direction` reads it, and
# every shorter hull point, as stationary
WOLFE_STOP = STATIONARY_TOL / 2
# an affine minimum whose weights (they sum to one) are all at least
# -WOLFE_WEIGHT_TOL lies in the hull up to the rounding of its weights
WOLFE_WEIGHT_TOL = 1e-10
# rounding level of a projection's norm, relative to the longest row
WOLFE_NORM_TOL = 1e-15
# relative rounding of the first-order test of a row against the point
WOLFE_GAP_NOISE = 1e-12
# a support row of smaller weight may leave the support at a tie
WOLFE_TIE_WEIGHT = 1e-6


def _affine_minimum(u: np.ndarray, diffs: np.ndarray, support: list[int]):
    """The origin's projection onto the support rows' affine hull, and its
    weights as a list; ``diffs[j, s]`` is row s minus row j."""
    base = u[support[0]]
    if len(support) == 1:
        return base.copy(), [1.0]
    d = diffs[support[0]].take(support[1:], axis=0).T
    s, *_ = np.linalg.lstsq(d, -base, rcond=None)
    return base + d @ s, [1.0 - s.sum(), *s.tolist()]


def _wolfe(u: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Wolfe's support (ascending row indices) and the projection onto it.

    A major cycle adds a row that x, the current point, does not separate
    from the origin; minor cycles move x to the affine minimum of the new
    support, stepping back into the hull and dropping rows whose weight
    reaches zero.  Rows are tried most-opposed first.

    Row j lies on the origin's side of the hyperplane through x normal to x
    iff gap_j = <x, p_s - p_j> > 0 for a support row s.  All s agree in
    exact arithmetic; the one nearest to p_j keeps the rounding of x out of
    the test.  Near stationarity |x| is tiny and the test is rounding noise,
    while the supports' projections still differ by much more than their
    rounding.  So every row the test cannot rule out is tried, and the
    projections' norms decide (see `_major_cycle`); a support within
    rounding, ``WOLFE_NORM_TOL``, of the current point may be stepped to.
    The walk is finite because no support is visited twice.  It returns
    the shortest point it visited, where a point within rounding of an
    earlier one does not count as shorter, or the first point at most
    ``WOLFE_STOP`` long.

    A star has a few rows and a support at most ``dim + 1``, so the walk
    keeps supports, weights and tests in Python lists and leaves numpy
    only the vector arithmetic: the rows' differences, the gaps and the
    projections.
    """
    k, dim = u.shape
    sq = np.einsum("ij,ij->i", u, u)
    scale = math.sqrt(sq.max())
    tol = WOLFE_NORM_TOL * scale
    noise = WOLFE_GAP_NOISE * scale
    diffs = u[None, :, :] - u[:, None, :]  # diffs[j, s] = p_s - p_j
    dist2 = np.einsum("jsd,jsd->js", diffs, diffs).tolist()
    flat = diffs.reshape(k * k, dim)

    def tests(support, x):
        """Each row's gap and the squared distance to its nearest support
        row (the first in the support at a tie)."""
        if len(support) == 1:
            s = support[0]
            return ((u[s] - u) @ x).tolist(), [row[s] for row in dist2]
        near = [min(support, key=row.__getitem__) for row in dist2]
        gaps = flat.take([r * k + s for r, s in enumerate(near)], axis=0) @ x
        return gaps.tolist(), [row[s] for row, s in zip(dist2, near)]

    # with numpy's max and argmin a NaN row makes the scale NaN and is the
    # start, so the walk returns its NaN point at once
    j = int(sq.argmin())
    support, weights, x = [j], [1.0], u[j].copy()
    norm = math.sqrt(x @ x)
    visited = {(j,)}
    best = (norm, support, weights, x)
    tested = None  # the last support tested, its gaps and squared distances
    stop = max(tol, WOLFE_STOP)
    while len(support) < k and len(support) <= dim and norm > stop:
        gaps, d2 = tests(support, x)
        tested = support, gaps, d2
        # a row is ruled out when its gap clears the rounding and its weight
        # in the affine minimum with it, gap / |p_j - q|^2 for q the nearest
        # point of the support's affine hull, is below -WOLFE_WEIGHT_TOL
        margin = [g + noise * math.sqrt(e) + WOLFE_WEIGHT_TOL * e for g, e in zip(gaps, d2)]
        step = _major_cycle(u, diffs, support, weights, margin, norm, tol, visited)
        if step is None:
            break
        support, weights, x, norm = step
        visited.add(tuple(support))
        if norm < best[0] - tol:
            best = (norm, support, weights, x)
    if norm <= WOLFE_STOP:
        return support, x  # stationary: no tie settling, no refinement
    norm, support, weights, x = best
    if norm <= tol or len(support) > dim:
        return support, x  # the origin lies in the hull
    if len(support) == k:
        tied = support
    else:
        if tested is None or tested[0] is not support:
            tested = support, *tests(support, x)
        # rows whose gap is within its rounding
        tied = [j for j, (g, e) in enumerate(zip(tested[1], tested[2])) if abs(g) <= noise * math.sqrt(e)]
    return _settle_ties(u, diffs, tol, tied, norm, support, weights, x)


def _major_cycle(u, diffs, support, weights, margin, norm, tol, visited):
    """A new support that adding a row of positive ``margin`` reaches
    (support rows and their duplicates have margin 0): the first in margin
    order that shortens x by more than ``tol``, else the shortest within
    ``tol`` of ``norm``; None when there is neither."""
    tie = None
    # most-opposed first, and in row order at equal margins
    for j in sorted((j for j, m in enumerate(margin) if m > 0.0), key=margin.__getitem__, reverse=True):
        at = bisect.bisect(support, j)
        new_support, new_weights, new_x = _wolfe_minor(
            u, diffs, support[:at] + [j] + support[at:], weights[:at] + [0.0] + weights[at:]
        )
        if tuple(new_support) in visited:
            continue
        new_norm = math.sqrt(new_x @ new_x)
        if new_norm < norm - tol:
            return new_support, new_weights, new_x, new_norm
        if new_norm < norm + tol and (tie is None or new_norm < tie[3]):
            tie = new_support, new_weights, new_x, new_norm
    return tie


def _settle_ties(u, diffs, tol, tied, norm, support, weights, x):
    """Among supports tied with the best one, the first in (size, index) order.

    The best point's face may hold more rows than its support: the ``tied``
    rows, which the first-order test cannot tell from the face (coplanar
    rows, duplicates), and support rows of weight below
    ``WOLFE_TIE_WEIGHT``, without which the point moves by little.  Every
    feasible subset of those rows whose point is within ``tol`` of the best
    is a support, and the first in (size, row index) order is taken, so
    that the result does not depend on the path of the walk.
    """
    if len(tied) == len(support) and min(weights) >= WOLFE_TIE_WEIGHT:
        return support, x
    for size in range(1, min(len(tied), u.shape[1] + 1) + 1):
        for subset in itertools.combinations(tied, size):
            y, v = _affine_minimum(u, diffs, list(subset))
            if min(v) >= -WOLFE_WEIGHT_TOL and math.sqrt(y @ y) <= norm + tol:
                return list(subset), y
    return support, x


def _wolfe_minor(u: np.ndarray, diffs: np.ndarray, support: list[int], weights: list[float]):
    """Minor cycles from hull ``weights`` on ``support``: returns the
    support, weights and point of the affine minimum they end at."""
    while True:
        x, v = _affine_minimum(u, diffs, support)
        if not any(e < -WOLFE_WEIGHT_TOL for e in v):
            return support, v, x
        # step from the weights toward v until the first weight reaches zero
        v = np.array(v)
        low = v < -WOLFE_WEIGHT_TOL
        w = np.maximum(weights, 0.0)
        ratios = np.full(len(v), np.inf)
        ratios[low] = w[low] / (w[low] - v[low])
        hit = int(ratios.argmin())
        w += ratios[hit] * (v - w)
        w[hit] = 0.0
        keep = w > 0.0
        support = [s for s, kept in zip(support, keep.tolist()) if kept]
        weights = w[keep].tolist()


def _refine_projection_longdouble(pts64: np.ndarray) -> np.ndarray | None:
    """Affine projection of the origin in extended precision (MGS + QR)."""
    pts = pts64.astype(np.longdouble)
    base = pts[0]
    cols = [pts[j] - base for j in range(1, len(pts))]
    q_cols = []
    r = np.zeros((len(cols), len(cols)), dtype=np.longdouble)
    for j, col in enumerate(cols):
        v = col.copy()
        for i, q in enumerate(q_cols):
            r[i, j] = np.dot(q, v)
            v = v - r[i, j] * q
        r[j, j] = np.sqrt(np.dot(v, v))
        if r[j, j] == 0.0:
            return None
        q_cols.append(v / r[j, j])
    rhs = np.array([-np.dot(q, base) for q in q_cols], dtype=np.longdouble)
    s = np.zeros(len(cols), dtype=np.longdouble)
    for j in range(len(cols) - 1, -1, -1):
        s[j] = (rhs[j] - np.dot(r[j, j + 1:], s[j + 1:])) / r[j, j]
    lam_rest = s
    lam0 = 1.0 - lam_rest.sum()
    if lam0 < -1e-10 or np.any(lam_rest < -1e-10):
        return None
    w = base + sum(si * ci for si, ci in zip(s, cols))
    return np.asarray(w, dtype=float)


def descent_direction(units) -> tuple[float, np.ndarray | None]:
    """Best guaranteed shortening rate t* and its direction at a vertex star.

    ``units`` are unit vectors toward the neighbors.  Returns ``(t*, d)``
    with ``t* > 0`` iff some unit direction d shortens every incident edge
    at first order (rate at least t* each); ``t* == 0`` means the origin
    lies in the convex hull of the stars and no such direction exists
    (up to `STATIONARY_TOL`).
    """
    u = np.asarray(units, dtype=float)
    if u.ndim != 2 or u.shape[0] == 0:
        raise ValueError("need a nonempty list of unit vectors")
    w = min_norm_hull_point(u)
    t_star = math.sqrt(w @ w)
    if t_star <= STATIONARY_TOL:
        return 0.0, None
    return t_star, w / t_star


def straighten(g: GraphInTarget) -> GraphInTarget:
    """A copy of the graph with its own point list, so rebinding a point
    leaves ``g`` as it is.  Its edges, like ``g``'s, are the geodesics
    between their ends."""
    return replace(g, points=list(g.points))


@dataclass
class MinimizationCertificate:
    """First-order evidence that a mapped graph cannot be Pareto-shortened."""

    t_star: dict[int, float]
    angle_sums: dict[int, float]
    interior_vertices: list[int]
    iterations: int
    converged: bool
    skipped_vertices: list[int] = field(default_factory=list)
    tol_descent: float = DESCENT_TOL
    tol_angle: float = ANGLE_TOL

    @property
    def worst_t_star(self) -> float:
        return max(self.t_star.values(), default=0.0)

    @property
    def worst_angle_deficit(self) -> float:
        gaps = [
            2.0 * np.pi - self.angle_sums[v]
            for v in self.interior_vertices
            if v in self.angle_sums
        ]
        return max(gaps, default=0.0)

    @property
    def valid(self) -> bool:
        return (
            self.worst_t_star <= self.tol_descent
            and self.worst_angle_deficit <= self.tol_angle
        )

    def summary(self) -> dict:
        return {
            "valid": bool(self.valid),
            "converged": bool(self.converged),
            "iterations": self.iterations,
            "worst_t_star": float(self.worst_t_star),
            "worst_angle_deficit": float(self.worst_angle_deficit),
            "skipped_vertices": list(self.skipped_vertices),
            "tolerances": {
                "descent": self.tol_descent,
                "angle": self.tol_angle,
            },
        }


def _require_tolerances(**tols: float) -> None:
    """A tolerance of inf passes every test and NaN fails every one; each
    must be finite and >= 0."""
    for name, tol in tols.items():
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {tol}")


def _require_euclidean(g: GraphInTarget) -> None:
    """Relaxation and the descent test (condition (a)) read vertex stars as
    difference vectors, which only a Euclidean target has."""
    if not isinstance(g.target, EuclideanSpace):
        raise NotImplementedError(
            "relaxation and certification are implemented for Euclidean targets"
        )


def _vertex_star(g: GraphInTarget, nbrs: list[list[int]], v: int):
    p = g.points
    vecs = np.asarray([p[w] - p[v] for w in nbrs[v]])
    lens = np.linalg.norm(vecs, axis=1)
    return vecs, lens


def relax(
    g: GraphInTarget,
    tol_descent: float = DESCENT_TOL,
    tol_angle: float = ANGLE_TOL,
    max_iter: int = 2000,
) -> tuple[GraphInTarget, MinimizationCertificate]:
    """Sweep free vertices into Pareto-stationary position.

    Moves the points of the copy `straighten` makes of ``g`` and returns
    that copy; ``g`` is left as it is.  Each accepted move strictly
    decreases every incident edge length (backtracking line search, halving
    from the shortest incident edge), so the final graph is edgewise
    dominated by the input.
    Terminates when no free vertex admits a shortening direction above
    ``tol_descent`` or when ``max_iter`` sweeps have run.  The returned
    certificate holds the result to ``tol_descent`` and ``tol_angle``.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    _require_tolerances(tol_descent=tol_descent, tol_angle=tol_angle)
    _require_euclidean(g)
    work = straighten(g)
    nbrs = work.neighbors()
    free = [v for v in range(work.n_vertices) if v not in work.pinned]
    skipped: set[int] = set()
    # every star unchanged since it was built: (t*, d, units, lengths), or
    # t* = 0 and no units for a star with a zero-length edge; a move drops
    # the entries of the vertex and its neighbours, whose stars it changes
    stars: dict[int, tuple] = {}
    iterations = 0
    converged = False
    for sweep in range(max_iter):
        iterations = sweep + 1
        moved = False
        worst = 0.0
        for v in free:
            if not nbrs[v]:
                continue
            if v not in stars:
                vecs, lens = _vertex_star(work, nbrs, v)
                if np.any(lens <= ZERO_EDGE_TOL):
                    skipped.add(v)
                    stars[v] = (0.0, None, None, None)
                else:
                    units = vecs / lens[:, None]
                    stars[v] = (*descent_direction(units), units, lens)
            t, d, units, lens = stars[v]
            worst = max(worst, t)
            if t <= tol_descent or d is None:
                continue
            # the squared-length change along d is exactly
            # eta * (eta - 2 * len_w * <d, u_w>), so every incident edge
            # strictly shrinks whenever eta < 2 * min_w len_w * <d, u_w>;
            # this certificate avoids the cancellation of comparing
            # rounded lengths near stationarity
            drops = units @ d
            eta_max = 2.0 * float((lens * drops).min())
            if eta_max <= 1e-300:
                continue
            step = float(lens.min())
            while step >= eta_max:
                step *= 0.5
            work.points[v] = work.points[v] + step * d
            moved = True
            stars.pop(v, None)
            for w in nbrs[v]:
                stars.pop(w, None)
        if not moved:
            # a sweep without any accepted move repeats forever; stop here
            converged = worst <= tol_descent
            break
    cert = certify_conditions(
        work, tol_descent, tol_angle, _t_star={v: star[0] for v, star in stars.items()}
    )
    cert.iterations = iterations
    cert.converged = converged
    cert.skipped_vertices = sorted(skipped)
    return work, cert


def certify_conditions(
    g: GraphInTarget,
    tol_descent: float = DESCENT_TOL,
    tol_angle: float = ANGLE_TOL,
    *,
    _t_star: dict[int, float] | None = None,
) -> MinimizationCertificate:
    """Check the two necessary conditions of a length-minimizing position
    of a mapped graph.

    (a) no free vertex admits an all-shortening direction (t* <= tol);
    (b) at every interior vertex the consecutive comparison angles in
        rotation order sum to at least a full turn.
    The conditions are necessary only: configurations exist that satisfy
    both yet still admit a global shortening deformation.

    ``_t_star`` is `relax`'s own: t* of the vertices whose stars it built
    and did not change afterwards, which are neither built nor solved
    again.
    """
    _require_tolerances(tol_descent=tol_descent, tol_angle=tol_angle)
    known = _t_star or {}
    _require_euclidean(g)
    nbrs = g.neighbors()
    t_star: dict[int, float] = {}
    skipped: list[int] = []
    for v in range(g.n_vertices):
        if v in g.pinned or not nbrs[v]:
            continue
        if v in known:
            t_star[v] = known[v]
            continue
        vecs, lens = _vertex_star(g, nbrs, v)
        if np.any(lens <= ZERO_EDGE_TOL):
            skipped.append(v)
            t_star[v] = 0.0
            continue
        t_star[v], _ = descent_direction(vecs / lens[:, None])
    angle_sums: dict[int, float] = {}
    for v in range(g.n_vertices):
        if v in g.pinned:
            continue
        rot = g.rotation[v]
        if len(rot) < 2:
            continue
        try:
            total = 0.0
            for k, w in enumerate(rot):
                w2 = rot[(k + 1) % len(rot)]
                total += g.target.comparison_angle(g.points[v], g.points[w], g.points[w2])
            angle_sums[v] = total
        except ValueError:
            skipped.append(v)
    if g.spherical_diagnostics():
        # no planar embedding: the full-turn condition has no interior set
        interior = []
    else:
        outer = set(g.outer_walk())
        interior = [
            v
            for v in range(g.n_vertices)
            if v not in g.pinned and v not in outer and len(nbrs[v]) >= 2
        ]
    return MinimizationCertificate(
        t_star=t_star,
        angle_sums=angle_sums,
        interior_vertices=interior,
        iterations=0,
        converged=True,
        skipped_vertices=sorted(set(skipped)),
        tol_descent=tol_descent,
        tol_angle=tol_angle,
    )
