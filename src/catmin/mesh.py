"""Triangulated parameter discs carrying a map into a target space.

A :class:`MappedDisc` is the discrete carrier of a disc-spanning map: a
simplicial disc in the parameter plane plus one target point per vertex.
The map is affine on each parameter triangle (for Euclidean targets) or
ruled through geodesics (for general ones).

Path-based quantities are computed on a *refined graph*: every face is
subdivided into ``r^2`` sub-triangles and the sub-edges form a planar graph
whose edge weights are the target lengths of their image segments.  Path
lengths over this graph decrease towards the induced length pseudometric as
``r`` grows (along nested refinements ``r, 2r, 4r, ...``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .pseudometric import UnionFind
from .targets import EuclideanSpace, TargetSpace

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
    """Simplicial parameter disc plus per-vertex images in a target space."""

    vertices: np.ndarray              # (n, 2) parameter coordinates
    triangles: np.ndarray             # (m, 3) vertex index triples
    boundary_loop: list[int]          # cyclic vertex index list
    images: np.ndarray | list         # per-vertex target points
    target: TargetSpace

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=int)
        if isinstance(self.target, EuclideanSpace):
            self.images = np.asarray(self.images, dtype=float)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def edge_faces(self) -> dict[tuple[int, int], list[int]]:
        return _edges_of_triangles(self.triangles)

    def skeleton_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edge_faces().keys())

    def validate(self) -> list[str]:
        """Invariant check; returns diagnostics, empty when the disc is valid."""
        problems: list[str] = []
        n, m = self.n_vertices, self.n_triangles
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            return ["vertices must be (n, 2) parameter coordinates"]
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

    def require_valid(self) -> "MappedDisc":
        problems = self.validate()
        if problems:
            raise ValueError("invalid MappedDisc: " + "; ".join(problems))
        return self

    def boundary_vertex_set(self) -> set[int]:
        return set(int(v) for v in self.boundary_loop)


@dataclass
class RefinedGraph:
    """Planar subdivision graph of a mapped disc with image-length weights."""

    node_param: np.ndarray            # (N, 2)
    node_images: list                 # N target points
    edges: np.ndarray                 # (E, 2) node index pairs
    weights: np.ndarray               # (E,)
    orig_index: np.ndarray            # (n,) node id of each mesh vertex
    refinement: int
    edge_face: np.ndarray             # (E,) mesh face owning each sub-edge
    node_on_boundary: np.ndarray      # (N,) bool
    matrix: csr_matrix = field(repr=False, default=None)

    @property
    def n_nodes(self) -> int:
        return self.node_param.shape[0]

    def csgraph(self) -> csr_matrix:
        if self.matrix is None:
            n = self.n_nodes
            i = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
            j = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
            w = np.concatenate([self.weights, self.weights])
            self.matrix = csr_matrix((w, (i, j)), shape=(n, n))
        return self.matrix

    def shortest_paths(self, sources: np.ndarray, return_predecessors: bool = False):
        """Dijkstra from the given node ids over the weighted subdivision graph."""
        return _dijkstra(
            self.csgraph(),
            directed=False,
            indices=sources,
            return_predecessors=return_predecessors,
        )


def build_refined_graph(disc: MappedDisc, refinement: int = 1) -> RefinedGraph:
    """Subdivide every face into ``refinement^2`` sub-triangles.

    Sub-edge weights are target distances between node images; for
    Euclidean targets this is exactly the length of the affine image of the
    parameter segment, so graph paths are genuine image lengths of
    piecewise-straight parameter paths.
    """
    disc.require_valid()
    r = int(refinement)
    if r < 1:
        raise ValueError("refinement must be >= 1")
    target = disc.target
    euclidean = isinstance(target, EuclideanSpace)

    node_ids: dict[tuple, int] = {}
    params: list[np.ndarray] = []
    images: list = []

    def vertex_node(i: int) -> int:
        key = ("v", int(i))
        if key not in node_ids:
            node_ids[key] = len(params)
            params.append(disc.vertices[i])
            images.append(disc.images[i])
        return node_ids[key]

    def edge_node(u: int, v: int, k: int) -> int:
        # k steps from min(u,v) towards max(u,v), 0 < k < r
        a, b = (u, v) if u < v else (v, u)
        key = ("e", a, b, k)
        if key not in node_ids:
            t = k / r
            node_ids[key] = len(params)
            params.append((1 - t) * disc.vertices[a] + t * disc.vertices[b])
            images.append(target.geodesic_eval(disc.images[a], disc.images[b], t))
        return node_ids[key]

    def face_node(f: int, abc: tuple[int, int, int]) -> int:
        key = ("f", f, abc)
        if key not in node_ids:
            a, b, c = abc
            i, j, k = disc.triangles[f]
            node_ids[key] = len(params)
            params.append((a * disc.vertices[i] + b * disc.vertices[j] + c * disc.vertices[k]) / r)
            if euclidean:
                images.append((a * disc.images[i] + b * disc.images[j] + c * disc.images[k]) / r)
            else:
                # rule through the corner i: corner -> point on the opposite edge
                t = c / (b + c)
                x = target.geodesic_eval(disc.images[j], disc.images[k], t)
                images.append(target.geodesic_eval(disc.images[i], x, (b + c) / r))
        return node_ids[key]

    def grid_node(f: int, a: int, b: int, c: int) -> int:
        i, j, k = (int(x) for x in disc.triangles[f])
        if b == 0 and c == 0:
            return vertex_node(i)
        if a == 0 and c == 0:
            return vertex_node(j)
        if a == 0 and b == 0:
            return vertex_node(k)
        if c == 0:
            return edge_node(i, j, b if i < j else a)
        if a == 0:
            return edge_node(j, k, c if j < k else b)
        if b == 0:
            return edge_node(i, k, c if i < k else a)
        return face_node(f, (a, b, c))

    edge_set: dict[tuple[int, int], int] = {}
    for f in range(disc.n_triangles):
        for a in range(r, -1, -1):
            for b in range(r - a, -1, -1):
                c = r - a - b
                here = grid_node(f, a, b, c)
                for da, db, dc in ((-1, 1, 0), (-1, 0, 1), (0, -1, 1)):
                    na, nb, nc = a + da, b + db, c + dc
                    if min(na, nb, nc) < 0:
                        continue
                    there = grid_node(f, na, nb, nc)
                    key = (min(here, there), max(here, there))
                    edge_set.setdefault(key, f)

    n_nodes = len(params)
    node_param = np.asarray(params)
    edges = np.asarray(sorted(edge_set.keys()), dtype=int)
    edge_face = np.asarray([edge_set[tuple(e)] for e in edges], dtype=int)
    if euclidean:
        img = np.asarray(images)
        weights = np.linalg.norm(img[edges[:, 0]] - img[edges[:, 1]], axis=1)
    else:
        weights = np.asarray(
            [target.distance(images[u], images[v]) for u, v in edges], dtype=float
        )

    boundary = np.zeros(n_nodes, dtype=bool)
    bl = disc.boundary_loop
    for idx in range(len(bl)):
        u, v = int(bl[idx]), int(bl[(idx + 1) % len(bl)])
        boundary[vertex_node(u)] = True
        for k in range(1, r):
            boundary[edge_node(u, v, k)] = True

    orig_index = np.asarray([vertex_node(i) for i in range(disc.n_vertices)], dtype=int)
    return RefinedGraph(
        node_param=node_param,
        node_images=images,
        edges=edges,
        weights=np.asarray(weights, dtype=float),
        orig_index=orig_index,
        refinement=r,
        edge_face=edge_face,
        node_on_boundary=boundary,
    )
