"""Finite graphs mapped into a target space with a planar rotation system.

The rotation system (counterclockwise cyclic neighbor order per vertex)
determines the faces by the usual directed-edge tracing; for graphs that
come with parameter-plane positions the outer face is the clockwise walk.
Faces are what the disc-gluing stage fills with comparison triangles.

:class:`PathGraph` is catmin's one shortest-path backend: the refined mesh
graph, the intrinsic quotient of the refined mesh and the surface graph of
a glued disc W are all path graphs, and this module is the only one that
runs Dijkstra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .targets import TargetSpace, invalid

__all__ = ["GraphInTarget", "PathGraph", "path_from", "path_hops", "rotation_from_positions", "walk_back"]


def path_from(pred_row: np.ndarray, a: int, b: int) -> list[int]:
    """Nodes of the shortest path from ``a`` to ``b``, read backwards off
    the predecessor row of source ``a``; ``[]`` when ``b`` is unreachable."""
    path = [int(b)]
    while path[-1] != a:
        prev = int(pred_row[path[-1]])
        if prev < 0:
            return []
        path.append(prev)
    return path[::-1]


def path_hops(pred: np.ndarray, a, b) -> np.ndarray:
    """Hop counts of the shortest paths ``a[k] -> b[k]``, read off the
    all-pairs predecessor table by walking every path back at once; -1
    where ``b[k]`` is unreachable.  Takes as many steps as the longest
    path has hops."""
    a = np.asarray(a, dtype=np.int64)
    node = np.array(b, dtype=np.int64)
    hops = np.zeros(node.shape, dtype=np.int64)
    live = np.flatnonzero(node != a)
    while live.size:
        prev = pred[a[live], node[live]]
        hops[live[prev < 0]] = -1
        live, prev = live[prev >= 0], prev[prev >= 0]
        node[live] = prev
        hops[live] += 1
        live = live[prev != a[live]]
    return hops


def walk_back(pred: np.ndarray, a, b, steps) -> np.ndarray:
    """Node ``steps[k]`` hops before ``b[k]`` on the shortest path
    ``a[k] -> b[k]``, for steps within that path's hop count."""
    a = np.asarray(a, dtype=np.int64)
    node = np.array(b, dtype=np.int64)
    steps = np.asarray(steps)
    for step in range(int(steps.max(initial=0))):
        live = np.flatnonzero(steps > step)
        node[live] = pred[a[live], node[live]]
    return node


class PathGraph:
    """Undirected weighted graph on ``range(n)`` with its Dijkstra tables.

    The edges ``(a[k], b[k])`` of weight ``w[k]`` go into one symmetric CSR
    ``matrix``: loops are dropped, and of parallel edges the shortest is
    kept.  Dijkstra runs directed on that matrix, which gives the
    undirected result while scanning each edge once.

    Two distance backends share the matrix: ``all_pairs()`` runs Dijkstra
    from every node once and keeps distances and predecessors (``distance``
    and ``path_nodes`` read it); ``rows(sources)`` runs Dijkstra only from
    sources it has not seen, and reads from all-pairs once that exists.
    Both give bitwise the same distances.
    """

    def __init__(self, n: int, a, b, w):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        w = np.asarray(w, dtype=float)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        key = lo * n + hi
        # shortest connection per node pair: sort by pair, then by length
        order = np.lexsort((w, key))
        order = order[lo[order] != hi[order]]
        first = np.ones(order.size, dtype=bool)
        first[1:] = key[order[1:]] != key[order[:-1]]
        keep = order[first]
        lo, hi, w = lo[keep], hi[keep], w[keep]
        self.matrix = csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
            shape=(n, n),
        )
        self._dist = None
        self._pred = None
        self._rows: dict[int, np.ndarray] = {}

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    def shortest_paths(self, sources, return_predecessors: bool = False):
        """Dijkstra from the given node ids (every node for ``None``)."""
        return _dijkstra(
            self.matrix, directed=True, indices=sources, return_predecessors=return_predecessors
        )

    def all_pairs(self):
        """Distance and predecessor matrices from every node, computed once."""
        if self._dist is None:
            self._dist, self._pred = self.shortest_paths(None, return_predecessors=True)
        return self._dist, self._pred

    def rows(self, sources) -> np.ndarray:
        """Distance rows of the given source nodes, one per source.

        Each source runs Dijkstra at most once per graph; once all-pairs
        exists the rows are read from it.
        """
        sources = [int(s) for s in sources]
        if self._dist is not None:
            return self._dist[sources]
        new = [s for s in dict.fromkeys(sources) if s not in self._rows]
        if new:
            self._rows.update(zip(new, self.shortest_paths(new)))
        return np.array([self._rows[s] for s in sources]).reshape(len(sources), self.n_nodes)

    def distance(self, a: int, b: int) -> float:
        dist, _ = self.all_pairs()
        return float(dist[a, b])

    def path_nodes(self, a: int, b: int) -> list[int]:
        _, pred = self.all_pairs()
        return path_from(pred[a], a, b)


def rotation_from_positions(
    n: int, edges: list[tuple[int, int]], positions: np.ndarray
) -> list[list[int]]:
    """Counterclockwise neighbor order read off parameter-plane positions."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rotation = []
    for v in range(n):
        ang = {
            w: float(np.arctan2(positions[w][1] - positions[v][1],
                                positions[w][0] - positions[v][0]))
            for w in nbrs[v]
        }
        rotation.append(sorted(nbrs[v], key=lambda w: (ang[w], w)))
    return rotation


@dataclass
class GraphInTarget:
    """Vertices with target points, edges, a pinned subset and rotations.

    A graph is checked when it is built: a malformed one raises a
    ValueError whose ``problems`` lists the diagnostics.
    """

    points: list                               # per-vertex target point
    edges: list[tuple[int, int]]               # undirected, u < v
    pinned: set[int]
    rotation: list[list[int]]                  # CCW neighbor order per vertex
    target: TargetSpace
    positions: np.ndarray | None = None        # optional parameter-plane coords
    edge_paths: dict[tuple[int, int], list] = field(default_factory=dict)
    # optional polyline realizations (target points, endpoints included);
    # absent entries mean the edge is realized as the geodesic
    # traced once: edges and rotation never change after construction
    _faces: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.edges = sorted((min(int(u), int(v)), max(int(u), int(v))) for u, v in self.edges)
        self.pinned = {int(v) for v in self.pinned}
        self.points = [np.asarray(p, dtype=float) for p in self.points]
        if self.positions is not None:
            self.positions = np.asarray(self.positions, dtype=float)
        problems = self._diagnose()
        if problems:
            raise invalid(self, problems)

    @property
    def n_vertices(self) -> int:
        return len(self.points)

    def neighbors(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            out[u].append(v)
            out[v].append(u)
        return out

    def edge_length(self, u: int, v: int) -> float:
        key = (min(u, v), max(u, v))
        path = self.edge_paths.get(key)
        if path is None:
            return self.target.distance(self.points[u], self.points[v])
        return sum(
            self.target.distance(path[i], path[i + 1]) for i in range(len(path) - 1)
        )

    def edge_lengths(self) -> dict[tuple[int, int], float]:
        return {e: self.edge_length(*e) for e in self.edges}

    def _diagnose(self) -> list[str]:
        problems: list[str] = []
        n = self.n_vertices
        for v, p in enumerate(self.points):
            if not (np.isfinite(p).all() and self.target.contains(p)):
                problems.append(f"points[{v}] is not a finite point of {self.target!r}")
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                problems.append(f"edge ({u},{v}) out of range")
            if u == v:
                problems.append(f"loop edge at {u}")
        if problems:
            return problems
        nbrs = self.neighbors()
        if len(self.rotation) != n:
            problems.append("rotation system must list every vertex")
            return problems
        for v in range(n):
            if sorted(self.rotation[v]) != sorted(nbrs[v]):
                problems.append(f"rotation at {v} is not a permutation of its neighbors")
        if problems:
            return problems
        # connectivity
        if n > 0:
            seen = {0}
            stack = [0]
            while stack:
                x = stack.pop()
                for y in nbrs[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) != n:
                problems.append("graph is not connected")
        return problems

    def spherical_diagnostics(self) -> list[str]:
        """Check that face tracing tiles the directed edges with Euler 2.

        Required before faces can be filled with triangles; plain
        relaxation does not need it.
        """
        try:
            walks = self.faces()
        except ValueError as exc:
            return [str(exc)]
        euler = self.n_vertices - len(self.edges) + len(walks)
        if self.edges and euler != 2:
            return [f"rotation system is not spherical: Euler {euler} != 2"]
        return []

    def faces(self) -> list[list[int]]:
        """All face walks (closed vertex sequences) traced from the rotations,
        on the first call; later calls return the same walks."""
        if self._faces is None:
            self._faces = self._trace_faces()
        return self._faces

    def _trace_faces(self) -> list[list[int]]:
        idx_in_rot = [
            {w: k for k, w in enumerate(rot)} for rot in self.rotation
        ]
        unused = {(u, v) for u, v in self.edges} | {(v, u) for u, v in self.edges}
        walks: list[list[int]] = []
        for start in sorted(unused):
            if start not in unused:
                continue
            walk = []
            u, v = start
            guard = 4 * len(self.edges) + 4
            while (u, v) in unused:
                unused.remove((u, v))
                walk.append(u)
                k = idx_in_rot[v].get(u)
                if k is None:
                    raise ValueError(f"rotation at {v} does not mention {u}")
                w = self.rotation[v][k - 1]
                u, v = v, w
                guard -= 1
                if guard < 0:
                    raise ValueError("face tracing does not close up")
            if (u, v) != start:
                raise ValueError("face tracing does not close up")
            walks.append(walk)
        return walks

    def outer_face_index(self, walks: list[list[int]] | None = None) -> int:
        """Index of the outer face: the clockwise walk when positions are
        known, otherwise the walk of greatest image length."""
        if walks is None:
            walks = self.faces()
        if self.positions is not None:
            areas = []
            for walk in walks:
                pts = self.positions[walk]
                areas.append(
                    0.5
                    * float(
                        np.sum(
                            pts[:, 0] * np.roll(pts[:, 1], -1)
                            - np.roll(pts[:, 0], -1) * pts[:, 1]
                        )
                    )
                )
            return int(np.argmin(areas))
        lengths = []
        for walk in walks:
            tot = 0.0
            for i, u in enumerate(walk):
                v = walk[(i + 1) % len(walk)]
                tot += self.edge_length(u, v)
            lengths.append(tot)
        return int(np.argmax(lengths))

    def outer_walk(self) -> list[int]:
        walks = self.faces()
        return walks[self.outer_face_index(walks)]
