"""Triangulated parameter discs carrying a map into a target space.

A :class:`MappedDisc` is the discrete carrier of a disc-spanning map: a
simplicial disc in the parameter plane plus one target point per vertex.
The map on each parameter triangle is the target's
`~catmin.targets.TargetSpace.triangle_points`: affine for Euclidean
targets, ruled through geodesics for general ones.

Path-based quantities are computed on a *refined graph*: every face is
subdivided into ``r^2`` sub-triangles and the sub-edges form a planar graph
whose edge weights are the target lengths of their image segments.  Path
lengths over this graph decrease towards the induced length pseudometric as
``r`` grows (along nested refinements ``r, 2r, 4r, ...``).  The refined
graph is a `~catmin.graphs.PathGraph`, which holds its weight matrix and
runs its Dijkstra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import PathGraph
from .pseudometric import UnionFind
from .targets import EuclideanSpace, TargetSpace, invalid

__all__ = ["MappedDisc", "RefinedGraph", "build_refined_graph", "boundary_loop_of"]


def _edges_of_triangles(triangles: np.ndarray) -> dict[tuple[int, int], list[int]]:
    """Map each undirected edge to the list of face indices containing it."""
    out: dict[tuple[int, int], list[int]] = {}
    for f, tri in enumerate(triangles):
        a, b, c = (int(x) for x in tri)
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            out.setdefault(key, []).append(f)
    return out


def boundary_loop_of(vertices: np.ndarray, triangles: np.ndarray) -> list[int]:
    """Derive the boundary cycle of a simplicial disc, counterclockwise,
    starting at its smallest vertex index."""
    edge_faces = _edges_of_triangles(triangles)
    boundary_edges = [e for e, fs in edge_faces.items() if len(fs) == 1]
    if not boundary_edges:
        raise ValueError("mesh has no boundary")
    nbr: dict[int, list[int]] = {}
    for u, v in boundary_edges:
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    for v, ns in nbr.items():
        if len(ns) != 2:
            raise ValueError(f"boundary is not a single cycle at vertex {v}")
    start = min(nbr)
    loop = [start, nbr[start][0]]
    while loop[-1] != start:
        prev, cur = loop[-2], loop[-1]
        ns = nbr[cur]
        loop.append(ns[0] if ns[1] == prev else ns[1])
        if len(loop) > len(boundary_edges) + 1:
            raise ValueError("boundary is not a single cycle")
    loop.pop()
    if len(loop) != len(boundary_edges):
        raise ValueError("boundary has more than one component")
    pts = vertices[loop]
    area2 = float(np.sum(pts[:, 0] * np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) * pts[:, 1]))
    if area2 < 0.0:
        loop = [loop[0]] + loop[:0:-1]
    return loop


@dataclass
class MappedDisc:
    """Simplicial parameter disc plus per-vertex images in a target space.

    A disc is checked when it is built: a malformed one raises a
    ValueError whose ``problems`` lists the diagnostics.
    """

    vertices: np.ndarray              # (n, 2) parameter coordinates
    triangles: np.ndarray             # (m, 3) vertex index triples
    boundary_loop: list[int]          # cyclic vertex index list
    images: np.ndarray                # (n, dim) per-vertex target points
    target: TargetSpace
    # worked out once: nothing changes a disc after it is built
    _edge_faces: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=int)
        self.boundary_loop = [int(v) for v in self.boundary_loop]
        self.images = np.asarray(self.images, dtype=float)
        problems = self._diagnose()
        if problems:
            raise invalid(self, problems)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def edge_faces(self) -> dict[tuple[int, int], list[int]]:
        """Each undirected edge's faces, built on the first call and kept."""
        if self._edge_faces is None:
            self._edge_faces = _edges_of_triangles(self.triangles)
        return self._edge_faces

    def skeleton_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edge_faces().keys())

    def _diagnose(self) -> list[str]:
        problems: list[str] = []
        n, m = self.n_vertices, self.n_triangles
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            return ["vertices must be (n, 2) parameter coordinates"]
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1)).tolist()
        if bad:
            problems.append(f"parameter vertices not finite: {bad}")
        if m == 0:
            return ["mesh has no triangles"]
        if self.triangles.min(initial=0) < 0 or self.triangles.max(initial=-1) >= n:
            problems.append("triangle index out of range")
            return problems
        for f, tri in enumerate(self.triangles):
            if len(set(int(v) for v in tri)) != 3:
                problems.append(f"triangle {f} has repeated vertices")
        if problems:
            return problems
        used = np.zeros(n, dtype=bool)
        used[self.triangles.ravel()] = True
        if not used.all():
            problems.append(f"vertices not in any triangle: {np.where(~used)[0].tolist()}")
        edge_faces = self.edge_faces()
        for e, fs in edge_faces.items():
            if len(fs) > 2:
                problems.append(f"edge {e} lies in {len(fs)} triangles")
        n_edges = len(edge_faces)
        euler = n - n_edges + m
        if euler != 1:
            problems.append(f"Euler characteristic {euler}, expected 1")
        uf = UnionFind(n)
        for u, v in edge_faces:
            uf.union(u, v)
        roots = {uf.find(i) for i in range(n) if used[i]}
        if len(roots) > 1:
            problems.append("mesh is not connected")
        try:
            derived = boundary_loop_of(self.vertices, self.triangles)
        except ValueError as exc:
            problems.append(str(exc))
            return problems
        bl = list(self.boundary_loop)
        want = {(min(derived[i], derived[(i + 1) % len(derived)]),
                 max(derived[i], derived[(i + 1) % len(derived)]))
                for i in range(len(derived))}
        got = {(min(bl[i], bl[(i + 1) % len(bl)]), max(bl[i], bl[(i + 1) % len(bl)]))
               for i in range(len(bl))} if len(bl) >= 3 else set()
        if want != got:
            problems.append("boundary_loop does not traverse the single-triangle edges")
        n_img = len(self.images)
        if n_img != n:
            problems.append(f"{n_img} images for {n} vertices")
            return problems
        finite = np.isfinite(self.images).reshape(n_img, -1).all(axis=1)
        if not finite.all():
            problems.append(f"images not finite at vertices: {np.flatnonzero(~finite).tolist()}")
        foreign = [v for v in np.flatnonzero(finite).tolist() if not self.target.contains(self.images[v])]
        if foreign:
            problems.append(f"images not points of {self.target!r} at vertices: {foreign}")
        return problems

    def boundary_vertex_set(self) -> set[int]:
        return set(int(v) for v in self.boundary_loop)


@dataclass
class RefinedGraph(PathGraph):
    """Planar subdivision graph of a mapped disc with image-length weights."""

    node_param: np.ndarray            # (N, 2)
    node_images: list                 # N target points
    edges: np.ndarray                 # (E, 2) node index pairs
    weights: np.ndarray               # (E,)
    orig_index: np.ndarray            # (n,) node id of each mesh vertex
    refinement: int

    def __post_init__(self):
        PathGraph.__init__(self, len(self.node_param), self.edges[:, 0], self.edges[:, 1], self.weights)


def _lattice(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One face's refinement lattice, in the order the builder visits it.

    Returns the points ``(a, b, c)``, a + b + c = r, weights of the corners
    (i, j, k), with ``a`` then ``b`` descending; the visit sequence (each
    point, then its neighbours towards the later points); and the
    sub-edges as point index pairs in that sequence's order.
    """
    pts = [(a, b, r - a - b) for a in range(r, -1, -1) for b in range(r - a, -1, -1)]
    index = {p: q for q, p in enumerate(pts)}
    visits: list[int] = []
    pairs: list[tuple[int, int]] = []
    for a, b, c in pts:
        here = index[(a, b, c)]
        visits.append(here)
        for nb in ((a - 1, b + 1, c), (a - 1, b, c + 1), (a, b - 1, c + 1)):
            if min(nb) >= 0:
                visits.append(index[nb])
                pairs.append((here, index[nb]))
    return np.asarray(pts, dtype=int), np.asarray(visits, dtype=int), np.asarray(pairs, dtype=int)


def build_refined_graph(disc: MappedDisc, refinement: int = 1) -> RefinedGraph:
    """Subdivide every face into ``refinement^2`` sub-triangles.

    Sub-edge weights are target distances between node images; for
    Euclidean targets this is exactly the length of the affine image of the
    parameter segment, so graph paths are genuine image lengths of
    piecewise-straight parameter paths.

    Nodes are numbered in order of first appearance in a face-by-face walk
    of the lattice (`_lattice`).  Every lattice point first gets a canonical
    id (mesh vertices, then ``r - 1`` points per skeleton edge counted from
    its lower end, then each face's interior points), and one pass over
    the walk's ids gives the numbering.
    """
    r = int(refinement)
    if r < 1:
        raise ValueError("refinement must be >= 1")
    n, m = disc.n_vertices, disc.n_triangles
    tri = disc.triangles
    skeleton = np.asarray(disc.skeleton_edges(), dtype=int).reshape(-1, 2)
    n_edges = len(skeleton)
    edge_code = skeleton[:, 0] * n + skeleton[:, 1]   # sorted, as the edges are

    pts, visits, pairs = _lattice(r)
    a, b, c = pts.T
    n_inner = (r - 1) * (r - 2) // 2
    inner_base = n + n_edges * (r - 1)
    canon = np.empty((m, len(pts)), dtype=np.int64)
    for corner, at in enumerate((a == r, b == r, c == r)):
        canon[:, at] = tri[:, [corner]]
    # side (i, j) has c = 0, (j, k) has a = 0, (i, k) has b = 0; a side
    # point's step counts from the side's lower vertex
    for (x, y), on, step_x, step_y in (((0, 1), c == 0, b, a), ((1, 2), a == 0, c, b),
                                       ((0, 2), b == 0, c, a)):
        on = on & (step_x > 0) & (step_y > 0)
        u, v = tri[:, x], tri[:, y]
        eid = np.searchsorted(edge_code, np.minimum(u, v) * n + np.maximum(u, v))
        step = np.where((u < v)[:, None], step_x[on], step_y[on])
        canon[:, on] = n + eid[:, None] * (r - 1) + step - 1
    inner = (a > 0) & (b > 0) & (c > 0)
    canon[:, inner] = inner_base + np.arange(m)[:, None] * n_inner + np.arange(n_inner)
    n_nodes = inner_base + m * n_inner

    seq = canon[:, visits].ravel()
    first = np.full(n_nodes, seq.size)
    np.minimum.at(first, seq, np.arange(seq.size))
    canon_of_node = np.argsort(first, kind="stable")
    node_of = np.empty(n_nodes, dtype=np.int64)
    node_of[canon_of_node] = np.arange(n_nodes)

    # parameter points and images in canonical order: a side point at t
    # is the point at weights (1 - t, t, 0) of the triangle (lo, hi, hi);
    # those weights sum to exactly 1, so in a Euclidean space it is
    # (1 - t) lo + t hi bit for bit
    t = np.tile(np.arange(1, r) / r, n_edges)
    corners = np.concatenate([np.repeat(skeleton[:, [0, 1, 1]], r - 1, axis=0),
                              np.repeat(tri, n_inner, axis=0)]).T
    weights = np.concatenate([np.stack([1 - t, t, 0 * t]), np.tile(pts[inner], (m, 1)).T], axis=1)

    def lattice_points(space, vals):
        inside = space.triangle_points(*vals[corners], *weights)
        return np.concatenate([vals, inside])[canon_of_node]

    node_param = lattice_points(EuclideanSpace(2), disc.vertices)
    img = lattice_points(disc.target, disc.images)

    here = node_of[canon[:, pairs[:, 0]]].ravel()
    there = node_of[canon[:, pairs[:, 1]]].ravel()
    code = np.minimum(here, there) * n_nodes + np.maximum(here, there)
    code = np.unique(code)
    edges = np.stack([code // n_nodes, code % n_nodes], axis=1)
    lengths = disc.target.distances(img[edges[:, 0]], img[edges[:, 1]])

    return RefinedGraph(
        node_param=node_param,
        node_images=list(img),
        edges=edges,
        weights=lengths,
        orig_index=node_of[:n],
        refinement=r,
    )

