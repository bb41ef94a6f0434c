"""PL saddle predicate and the ten-triangle pinwheel counterexample.

A map of a disc into Euclidean space is *saddle* when, for every affine
plane, each connected component of either open side of its preimage meets
the disc boundary.  On a PL map the component structure only changes when
the plane crosses a vertex image, so testing every plane through three
vertex images (plus nudged offsets and random planes) decides the
predicate at mesh resolution.

The candidate planes are built as arrays, and the disc's face adjacency
is read once per verdict; each plane is then one `check_plane` call, a
depth-first search over that adjacency.  Verdicts, plane counts and witnesses
are bit for bit those of the former loop, which rebuilt the adjacency
for every plane and is kept as the oracle in ``tests/oracles.py``.

The pinwheel disc shows that saddle does not imply length-minimizing: ten
triangles with a hexagonal parameter boundary mapped onto three wings
around a vertical axis, the boundary running twice along each arm of a
spatial Y.  Rotating the central triangle counterclockwise about the axis
shortens all tip-to-ring edges while changing no other edge, and the
vertex length matrix decreases entrywise -- yet the configuration passes
every first-order minimization certificate.  Its coordinates come from a
recorded parameter search (tools/search_hexagon.py) and are frozen below.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .induced import length_pseudometric
from .mesh import MappedDisc
from .meshgen import make_mapped_disc
from .targets import EuclideanSpace

__all__ = [
    "SaddleVerdict",
    "check_plane",
    "is_saddle_pl",
    "hexagon_counterexample",
    "hexagon_graph",
    "shorten_by_rotation",
    "HEXAGON_PARAMS",
]

#: frozen pinwheel parameters, found once by tools/search_hexagon.py
HEXAGON_PARAMS = {
    "tip_radius": 1.0,
    "center_height": 1.0,
    "ring_radius": 0.25,
    "ring_height": 0.4,
    "twist": -0.2,
    "epsilon": 0.05,
    "max_epsilon": 0.1,
    "refinement": 2,
}

PLANE_SNAP_TOL = 1e-9  # vertices this near a plane lie on it, times the image scale
PLANE_NUDGE = 1e-7  # offset shift of each vertex-triple plane, times the image scale
SHORTEN_TOL = 1e-9  # length change that counts as growing or shrinking


# --------------------------------------------------------------------------
# the saddle predicate


@dataclass
class SaddleVerdict:
    saddle: bool
    planes_tested: int
    witness: dict | None

    def __bool__(self):
        return self.saddle


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each rounded like the 1-D ``a[k] @ b[k]``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


class _PlaneSections:
    """One disc's face adjacency, read once, cut by one plane at a time.

    Each edge joins consecutive faces around it, and an edge with one face
    is a boundary edge.  For a plane and a side (positive first) a face is
    active when a vertex lies strictly on that side, and an edge is live
    when one of its ends does.  Active faces joined by live edges form the
    side's components; a component is a violation when no live boundary
    edge bounds one of its faces.
    """

    def __init__(self, disc: MappedDisc):
        self.img = np.asarray(disc.images, dtype=float)
        self.snap = PLANE_SNAP_TOL * max(1.0, float(np.abs(self.img).max()))
        self.tris = np.asarray(disc.triangles).tolist()
        # per face: (u, v, other face) across each interior edge, (u, v) of each boundary edge
        self.joins = [[] for _ in self.tris]
        self.rims = [[] for _ in self.tris]
        for (u, v), fs in disc.edge_faces().items():
            for a, b in zip(fs, fs[1:]):
                self.joins[a].append((u, v, b))
                self.joins[b].append((u, v, a))
            if len(fs) == 1:
                self.rims[fs[0]].append((u, v))

    def violations(self, normal: np.ndarray, offset: float) -> list[dict]:
        """The violations of the plane ``normal . x = offset``: the positive
        side first, then components in the order of their smallest face."""
        nn = np.linalg.norm(normal)
        if nn == 0.0:
            raise ValueError("zero normal")
        g = (self.img @ normal - float(offset)) / nn
        g = np.where(np.abs(g) <= self.snap, 0.0, g)
        found = []
        for side, up in (("positive", (g > 0.0).tolist()), ("negative", (g < 0.0).tolist())):
            seen = [False] * len(self.tris)
            for start, (a, b, c) in enumerate(self.tris):
                if seen[start] or not (up[a] or up[b] or up[c]):
                    continue
                # a face reached over a live edge has a vertex on this side
                seen[start] = True
                stack, faces, touches = [start], [], False
                while stack:
                    f = stack.pop()
                    faces.append(f)
                    for u, v in self.rims[f]:
                        touches = touches or up[u] or up[v]
                    for u, v, h in self.joins[f]:
                        if not seen[h] and (up[u] or up[v]):
                            seen[h] = True
                            stack.append(h)
                if not touches:
                    found.append({"side": side, "normal": normal.tolist(), "offset": float(offset),
                                  "triangles": sorted(faces)})
        return found


def check_plane(
    disc: MappedDisc, normal, offset: float, *, sections: _PlaneSections | None = None
) -> list[dict]:
    """Components of either open side of a plane section that miss the boundary.

    Vertices within `PLANE_SNAP_TOL` (times the image scale) of the plane
    count as lying on it; a component of the positive or negative open side
    is a violation when none of its triangles shows a positively/negatively
    sliced boundary edge.  ``sections`` is the disc's adjacency read once,
    as `is_saddle_pl` shares it across its planes; by default it is read
    from ``disc``.
    """
    if sections is None:
        sections = _PlaneSections(disc)
    return sections.violations(np.asarray(normal, dtype=float), offset)


def _candidate_planes(disc: MappedDisc, extra_planes: int, seed: int, nudge: float):
    """Unit normals and offsets of the planes through vertex-image triples
    (each also nudged both ways) and of seeded random planes.

    Each normal's sign is fixed by its first coordinate beyond 1e-12, and
    planes repeating an earlier (normal, offset) rounded to 9 digits are
    dropped, so the order is that of first appearance.
    """
    img = np.asarray(disc.images, dtype=float)
    scale = max(1.0, float(np.abs(img).max()))
    i, j, k = np.array(list(itertools.combinations(range(len(img)), 3)), dtype=np.intp).reshape(-1, 3).T
    cross = np.cross(img[j] - img[i], img[k] - img[i])
    nn = np.sqrt(_row_dots(cross, cross))
    keep = ~(nn <= 1e-12 * scale * scale)
    unit = cross[keep] / nn[keep][:, None]
    base = _row_dots(unit, img[i[keep]])
    offsets = [np.stack([base, base + nudge * scale, base - nudge * scale], axis=1).ravel()]
    normals = [np.repeat(unit, 3, axis=0)]
    rng = np.random.default_rng(seed)
    lo, hi = img.min(), img.max()
    for _ in range(extra_planes):
        normals.append(rng.standard_normal(3)[None])
        offsets.append([rng.uniform(lo - 0.1 * scale, hi + 0.1 * scale)])
    normals = np.concatenate(normals)
    offsets = np.concatenate(offsets).astype(float)

    nn = np.sqrt(_row_dots(normals, normals))
    keep = ~(nn <= 1e-12 * scale)
    normals = normals[keep] / nn[keep][:, None]
    offsets = offsets[keep]
    lead = np.abs(normals) > 1e-12
    first = np.argmax(lead, axis=1)
    flip = lead.any(axis=1) & (normals[np.arange(len(normals)), first] < 0)
    normals = np.where(flip[:, None], -normals, normals)

    # a key row per plane: the normal rounded by np.round, the offset by
    # Python's round (np.round does not match it near ties); sorting and !=
    # take -0.0 for 0.0, as tuple keys do
    keys = np.column_stack([np.round(normals, 9), [round(o, 9) for o in offsets.tolist()]])
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    kept = np.sort(order[new])
    return normals[kept], offsets[kept]


def is_saddle_pl(
    disc: MappedDisc,
    extra_planes: int = 200,
    seed: int = 0,
) -> SaddleVerdict:
    """Saddle verdict at mesh resolution.

    Tests every plane through a triple of distinct vertex images (with the
    offset also nudged both ways to break ties) plus seeded random planes.
    Degenerate (collinear) triples are skipped.  The witness is the first
    violation of the first violating plane, as `check_plane` lists them.
    """
    if extra_planes < 0:
        raise ValueError(f"extra_planes must be >= 0, got {extra_planes}")
    img = np.asarray(disc.images, dtype=float)
    if img.shape[1] != 3 or not isinstance(disc.target, EuclideanSpace):
        raise ValueError("the saddle predicate expects a disc mapped into Euclidean 3-space")
    sections = _PlaneSections(disc)
    normals, offsets = _candidate_planes(disc, extra_planes, seed, PLANE_NUDGE)
    for normal, offset in zip(normals, offsets):
        violations = check_plane(disc, normal, offset, sections=sections)
        if violations:
            return SaddleVerdict(False, len(normals), violations[0])
    return SaddleVerdict(True, len(normals), None)


# --------------------------------------------------------------------------
# the pinwheel counterexample


def _hexagon_points(params: dict):
    t_r = params["tip_radius"]
    hc = params["center_height"]
    rho = params["ring_radius"]
    hq = params["ring_height"]
    twist = params["twist"]
    tips = [
        np.array([t_r * math.cos(a), t_r * math.sin(a), 0.0])
        for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    ]
    center = np.array([0.0, 0.0, hc])
    ring = [
        np.array([rho * math.cos(a + twist), rho * math.sin(a + twist), hq])
        for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    ]
    return tips, center, ring


#: triangle list of the pinwheel parameter hexagon; vertices 0..5 are the
#: hexagon corners, 6..8 the inner ring
HEXAGON_TRIANGLES = [
    (0, 1, 6), (1, 2, 6),      # wing 1 (tip1 - center - tip2 over ring point 1)
    (2, 3, 7), (3, 4, 7),      # wing 2
    (4, 5, 8), (5, 0, 8),      # wing 3
    (2, 6, 7),                 # blade at tip 2
    (4, 7, 8),                 # blade at tip 3
    (0, 8, 6),                 # blade at tip 1
    (6, 7, 8),                 # central triangle
]


def hexagon_counterexample(params: dict | None = None) -> MappedDisc:
    """The frozen ten-triangle pinwheel disc.

    Odd hexagon corners map to the three arm tips, even corners all map to
    the raised Y-center, and the inner ring maps to the twisted central
    triangle; the boundary therefore runs twice along each arm of the Y.
    """
    p = dict(HEXAGON_PARAMS)
    if params:
        p.update(params)
    tips, center, ring = _hexagon_points(p)
    vertices = []
    for k in range(6):
        a = k * math.pi / 3
        vertices.append((math.cos(a), math.sin(a)))
    for a in (math.pi / 3, math.pi, 5 * math.pi / 3):
        vertices.append((0.45 * math.cos(a), 0.45 * math.sin(a)))
    images = [tips[0], center, tips[1], center, tips[2], center] + ring
    return make_mapped_disc(vertices, HEXAGON_TRIANGLES, images)


def hexagon_graph(disc: MappedDisc | None = None):
    """The 1-skeleton of the pinwheel with its boundary pinned.

    Passes every first-order minimization certificate despite the global
    shortening rotation, which is exactly what makes it instructive.
    """
    from .graphs import GraphInTarget, rotation_from_positions

    if disc is None:
        disc = hexagon_counterexample()
    edges = disc.skeleton_edges()
    rotation = rotation_from_positions(disc.n_vertices, edges, disc.vertices)
    return GraphInTarget(
        points=[np.asarray(p, float) for p in disc.images],
        edges=edges,
        pinned=disc.boundary_vertex_set(),
        rotation=rotation,
        target=disc.target,
        positions=disc.vertices,
    )


def shorten_by_rotation(disc: MappedDisc, epsilon: float) -> tuple[MappedDisc, dict]:
    """Rotate the central triangle about the symmetry axis and compare.

    Returns the deformed disc plus a report comparing the vertex length
    matrices, at the refinement of `HEXAGON_PARAMS`: for a validated
    counterclockwise ``epsilon`` no entry grows beyond `SHORTEN_TOL` and at
    least one entry strictly shrinks, which witnesses that the original map
    admits a shortening deformation with fixed boundary.  The clockwise behavior at ``-epsilon`` is recorded as
    an observation.
    """
    if abs(epsilon) > HEXAGON_PARAMS["max_epsilon"]:
        raise ValueError(
            f"rotation angle {epsilon} outside the validated range "
            f"(+-{HEXAGON_PARAMS['max_epsilon']})"
        )
    r = HEXAGON_PARAMS["refinement"]
    boundary = disc.boundary_vertex_set()
    free = sorted(v for v in range(disc.n_vertices) if v not in boundary)

    def rotated(eps: float) -> MappedDisc:
        images = np.asarray(disc.images, dtype=float).copy()
        c, s = math.cos(eps), math.sin(eps)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        for v in free:
            images[v] = rot @ images[v]
        return MappedDisc(
            disc.vertices.copy(),
            disc.triangles.copy(),
            list(disc.boundary_loop),
            images,
            disc.target,
        )

    base = length_pseudometric(disc, r).d
    deformed = rotated(epsilon)
    new = length_pseudometric(deformed, r).d
    diff = new - base
    cw = length_pseudometric(rotated(-epsilon), r).d
    report = {
        "epsilon": float(epsilon),
        "refinement": int(r),
        "max_increase": float(diff.max()),
        "max_strict_decrease": float((-diff).max()),
        "pareto": bool(diff.max() <= SHORTEN_TOL),
        "strictly_shorter_somewhere": bool((-diff).max() > SHORTEN_TOL),
        "boundary_unchanged": bool(
            np.allclose(
                np.asarray(deformed.images)[sorted(boundary)],
                np.asarray(disc.images)[sorted(boundary)],
            )
        ),
        "clockwise_max_increase": float((cw - base).max()),
        "rotated_vertices": free,
    }
    return deformed, report
