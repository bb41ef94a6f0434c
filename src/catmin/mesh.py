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

from .graphs import PathGraph, components, signed_area
from .targets import EuclideanSpace, TargetSpace, invalid

__all__ = ["MappedDisc", "RefinedGraph", "SidePairing", "build_refined_graph", "boundary_loop_of", "side_pairing"]


@dataclass(frozen=True)
class SidePairing:
    """Side pairing, vertex fans and pieces of a complex of triangles: side
    ``3 f + s`` is side ``s`` of triangle ``f``; it joins the corners
    ``3 f + s`` and ``3 f + (s + 1) % 3``, corner ``3 f + c`` being the
    triangle's corner ``c``.  A fan is a set of one vertex's corners joined
    across paired sides at that vertex, a piece a set of triangles joined
    through paired sides; both are named by their smallest member.
    """

    partner: np.ndarray     # (3m,) the side paired with each side, -1 if none
    boundary: np.ndarray    # the sides on no other side, increasing
    crowded: list           # ((u, v), k): k > 2 sides on the vertex pair (u, v), left unpaired
    n_edges: int            # one per side pair, per crowded vertex pair and per boundary side
    fan: np.ndarray         # (3m,) each corner's fan
    piece: np.ndarray       # (m,) each triangle's piece
    component: np.ndarray   # each vertex's component through sides and links, by smallest vertex


def side_pairing(triangles, gluings, links) -> SidePairing:
    """Pair the sides of ``triangles``, an (m, 3) vertex index array, and
    find their fans, pieces and vertex components.  A mapped disc passes
    ``gluings`` None: two sides on one vertex pair are paired, three or
    more are crowded.  A glued disc passes its pairs of side numbers, each
    side in one pair at most, and its bridges as ``links``, vertex pairs
    joined without a side.  Across a paired side the corners at one vertex
    join one fan.
    """
    tri = np.asarray(triangles, dtype=np.intp).reshape(-1, 3)
    m = len(tri)
    side = np.arange(3 * m)
    ahead = side - side % 3 + (side + 1) % 3   # a side's second corner
    a = tri.ravel()
    b = a[ahead]
    partner = np.full(3 * m, -1)
    crowded = []
    if gluings is None:
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        key = lo * (1 + hi.max(initial=0)) + hi
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        size = np.diff(first, append=3 * m)
        two = first[size == 2]
        partner[order[two]], partner[order[two + 1]] = order[two + 1], order[two]
        boundary = np.sort(order[first[size == 1]])
        crowded = [((int(lo[order[i]]), int(hi[order[i]])), int(k)) for i, k in zip(first, size) if k > 2]
        n_edges = len(first)
    else:
        pairs = np.asarray(gluings, dtype=np.intp).reshape(-1, 2)
        partner[pairs[:, 0]], partner[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
        boundary = np.flatnonzero(partner < 0)
        n_edges = 3 * m - len(pairs)
    p = np.flatnonzero(partner > side)
    q = partner[p]
    same = a[p] == a[q]   # the two sides run the same way
    fan = components(3 * m, np.concatenate([p, ahead[p]]),
                     np.concatenate([np.where(same, q, ahead[q]), np.where(same, ahead[q], q)]))
    ends = np.concatenate([np.stack([a, b], axis=1), np.asarray(links, dtype=np.intp).reshape(-1, 2)])
    return SidePairing(partner, boundary, crowded, n_edges, fan, components(m, p // 3, q // 3),
                       components(1 + int(ends.max(initial=-1)), ends[:, 0], ends[:, 1]))


_last_pairing: dict[bytes, SidePairing] = {}


def _pair_by_vertices(triangles: np.ndarray) -> SidePairing:
    """The mapped-disc pairing of an int triangle array.  The last one is
    kept, and read, never written, by every disc on the same triangles:
    `make_mapped_disc` derives the loop, then builds the disc, on one pairing."""
    key = triangles.tobytes()
    if key not in _last_pairing:
        _last_pairing.clear()
        _last_pairing[key] = side_pairing(triangles, None, ())
    return _last_pairing[key]


def boundary_loop_of(vertices: np.ndarray, triangles: np.ndarray) -> list[int]:
    """Derive the boundary cycle of a simplicial disc, counterclockwise,
    starting at its smallest vertex index."""
    tri = np.asarray(triangles, dtype=int)
    boundary = _pair_by_vertices(tri).boundary.tolist()
    if not boundary:
        raise ValueError("mesh has no boundary")
    tri = tri.ravel()
    nbr: dict[int, list[int]] = {}
    for s in boundary:
        u, v = int(tri[s]), int(tri[s - s % 3 + (s + 1) % 3])
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    for v, ns in nbr.items():
        if len(ns) != 2:
            raise ValueError(f"boundary is not a single cycle at vertex {v}")
    # every vertex has two neighbours, so the walk comes back to its start
    loop = [min(nbr), nbr[min(nbr)][0]]
    while loop[-1] != loop[0]:
        prev, cur = loop[-2], loop[-1]
        loop.append(nbr[cur][0] if nbr[cur][1] == prev else nbr[cur][1])
    loop.pop()
    if len(loop) != len(boundary):
        raise ValueError("boundary has more than one component")
    if signed_area(np.asarray(vertices, dtype=float)[loop]) < 0.0:
        loop = [loop[0]] + loop[:0:-1]
    return loop


@dataclass
class MappedDisc:
    """Simplicial parameter disc plus per-vertex images in a target space.

    A disc is checked when it is built: a malformed one raises a
    ValueError whose ``problems`` lists the diagnostics.  Its sides are
    paired once (`side_pairing`), and the checks read the pairing: every
    edge lies on one or two triangles, the triangles around each vertex
    form one fan, the complex is connected with Euler characteristic 1,
    and ``boundary_loop`` traverses its one boundary cycle.
    """

    vertices: np.ndarray              # (n, 2) parameter coordinates
    triangles: np.ndarray             # (m, 3) vertex index triples
    boundary_loop: list[int]          # cyclic vertex index list
    images: np.ndarray                # (n, dim) per-vertex target points
    target: TargetSpace
    # worked out once: nothing changes a disc after it is built
    pairing: SidePairing | None = field(default=None, init=False, repr=False, compare=False)
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
        """Each undirected edge's faces, in increasing order, read off the
        side pairing on the first call and kept."""
        if self._edge_faces is None:
            partner = self.pairing.partner
            later = np.flatnonzero(partner < np.arange(len(partner)))  # each boundary side, each pair's later side
            ends = np.sort(self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)[later], axis=1).tolist()
            faces = [[f] if t < 0 else [t // 3, f] for f, t in zip((later // 3).tolist(), partner[later].tolist())]
            self._edge_faces = dict(sorted(zip(map(tuple, ends), faces)))
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
        t = self.triangles
        if t.ndim != 2 or t.shape[1] != 3:
            return problems + ["triangles must be (m, 3) vertex index triples"]
        if t.min(initial=0) < 0 or t.max(initial=-1) >= n:
            problems.append("triangle index out of range")
            return problems
        repeated = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 2] == t[:, 0])
        problems += [f"triangle {f} has repeated vertices" for f in np.flatnonzero(repeated).tolist()]
        if problems:
            return problems
        used = np.zeros(n, dtype=bool)
        used[self.triangles.ravel()] = True
        if not used.all():
            problems.append(f"vertices not in any triangle: {np.where(~used)[0].tolist()}")
        self.pairing = pairing = _pair_by_vertices(self.triangles)
        for e, k in pairing.crowded:
            problems.append(f"edge {e} lies in {k} triangles")
        euler = n - pairing.n_edges + m
        if euler != 1:
            problems.append(f"Euler characteristic {euler}, expected 1")
        fans_at = np.bincount(t.ravel()[pairing.fan == np.arange(3 * m)], minlength=n)  # each fan at its vertex
        if (fans_at > 1).any():
            problems.append(f"faces around vertices {np.flatnonzero(fans_at > 1).tolist()} form more than one fan")
        if len(np.unique(pairing.component[np.flatnonzero(used)])) > 1:
            problems.append("mesh is not connected")
        try:
            derived = boundary_loop_of(self.vertices, self.triangles)  # reads the same pairing
        except ValueError as exc:
            problems.append(str(exc))
            return problems

        def steps(loop):
            return {(min(u, v), max(u, v)) for u, v in zip(loop, loop[1:] + loop[:1])}

        if len(self.boundary_loop) < 3 or steps(self.boundary_loop) != steps(derived):
            problems.append("boundary_loop does not traverse the single-triangle edges")
        n_img = len(self.images)
        if n_img != n:
            problems.append(f"{n_img} images for {n} vertices")
            return problems
        finite = np.isfinite(self.images).reshape(n_img, -1).all(axis=1)
        if not finite.all():
            problems.append(f"images not finite at vertices: {np.flatnonzero(~finite).tolist()}")
        member = self.target.contains(self.images) if self.images.ndim == 2 else False
        foreign = np.flatnonzero(finite & ~np.asarray(member)).tolist()
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

