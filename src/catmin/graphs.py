"""Finite graphs mapped into a target space with a planar rotation system.

A mapped graph is a simple graph whose every edge is the target geodesic
between its ends' points.  The rotation system (counterclockwise cyclic
neighbor order per vertex) determines the faces by the usual directed-edge
tracing; for graphs that come with parameter-plane positions the outer
face is the clockwise walk.  Faces are what the disc-gluing stage fills
with comparison triangles.

:class:`PathGraph` is catmin's one shortest-path backend: the refined mesh
graph, the intrinsic quotient of the refined mesh and the surface graph of
a glued disc W are all path graphs, and this module is the only one that
runs Dijkstra.  It is also the only one that imports scipy, and only when
the first :class:`PathGraph` is built, so the commands that never take a
shortest path (validation, the link and saddle checks, the field system)
start without loading scipy's sparse graph stack.

A large Dijkstra call runs across the process's CPUs.  When the sources
times the matrix's stored entries reach :data:`FORK_WORK` edge scans,
:meth:`PathGraph.shortest_paths` starts w - 1 forked workers, w the smaller
of that quotient, the source count and the CPUs ``os.sched_getaffinity``
allows, and computes the first of w contiguous blocks of sources itself.
The rows are bitwise those of one serial run, since each source's Dijkstra
is independent; every worker is waited for before the call returns or
raises, and a worker's failure raises ``RuntimeError``.  A process pinned to
one CPU, a smaller call or a platform without ``os.fork`` runs serially.
The workers only run scipy's Dijkstra and leave with ``os._exit``, so the
BLAS threads numpy starts are no hazard to them; Python 3.12 and later
still warn at each fork in a process with such threads
(``DeprecationWarning: This process ... is multi-threaded, use of fork()
may lead to deadlocks in the child``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .targets import TargetSpace, invalid

__all__ = ["FORK_WORK", "GraphInTarget", "PathGraph", "components", "path_from", "path_hops",
           "rotation_from_positions", "signed_area", "walk_back"]

# Dijkstra work, in edge scans (sources x stored matrix entries), per forked
# worker: a smaller call does not repay a fork, and a worker's block should
# take tens of milliseconds (2**22 scans take about 0.07 s on a 2 GHz core)
FORK_WORK = 1 << 22


def components(n: int, a, b) -> np.ndarray:
    """Each node's component in the graph on ``range(n)`` with edges
    ``(a[k], b[k])``, named by its smallest node: each round hooks every
    root onto the smallest root it is joined to and points every node at
    its root, until no edge joins two roots."""
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return label
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while not np.array_equal(label[label], label):
            label = label[label]


def signed_area(points: np.ndarray) -> float:
    """Area of the closed polygon through the rows (x, y) of ``points``,
    positive when it runs counterclockwise."""
    x, y = points[:, 0], points[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


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

    Both run through ``shortest_paths``, which splits a call of at least
    2 x ``FORK_WORK`` edge scans between forked workers, one per usable CPU
    at most (see the module docstring): the same rows, bitwise, with no
    worker left behind once the call returns or raises.
    """

    def __init__(self, n: int, a, b, w):
        from scipy.sparse import csr_matrix

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
        """Dijkstra from the given node ids (every node for ``None``).

        Rows are scipy's, float64 distances and int32 predecessors; a call
        worth w >= 2 workers computes them in w contiguous blocks of
        sources, w - 1 of them in forked children that write into one
        shared anonymous map.
        """
        from scipy.sparse.csgraph import dijkstra

        def run(indices):
            return dijkstra(self.matrix, directed=True, indices=indices, return_predecessors=return_predecessors)

        ids = np.arange(self.n_nodes) if sources is None else np.asarray(sources)
        workers = self._workers(ids.size if ids.ndim else 1)
        if workers <= 1:
            return run(sources)
        import mmap

        k, n = ids.size, self.n_nodes
        shared = mmap.mmap(-1, k * n * (12 if return_predecessors else 8))
        dist = np.frombuffer(shared, np.float64, k * n).reshape(k, n)
        pred = np.frombuffer(shared, np.int32, k * n, offset=k * n * 8).reshape(k, n) if return_predecessors else None

        def fill(lo, hi):
            if return_predecessors:
                dist[lo:hi], pred[lo:hi] = run(ids[lo:hi])
            else:
                dist[lo:hi] = run(ids[lo:hi])

        bounds = [k * i // workers for i in range(workers + 1)]
        children = []
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                pid = os.fork()
                if pid == 0:  # the child never returns from here
                    code = 1
                    try:
                        # no collection of the parent's garbage, whose finalizers are the parent's
                        import gc

                        gc.disable()
                        fill(lo, hi)
                        code = 0
                    except BaseException:
                        import sys
                        import traceback

                        traceback.print_exc()
                        sys.stderr.flush()
                    finally:
                        os._exit(code)
                children.append(pid)
            fill(bounds[0], bounds[1])
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
        if any(codes):
            raise RuntimeError(f"Dijkstra workers exited with codes {codes}")
        return (dist, pred) if return_predecessors else dist

    def _workers(self, n_sources: int) -> int:
        """Processes a Dijkstra run from ``n_sources`` sources is split
        between: one per ``FORK_WORK`` edge scans, at most one per source
        and per CPU this process may run on; 1 without ``os.fork``."""
        if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
            return 1
        return min(len(os.sched_getaffinity(0)), n_sources, n_sources * self.matrix.nnz // FORK_WORK)

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

    A simple connected graph: no loop, and no edge listed twice.  Each edge
    is the target geodesic between its ends' points, so its length is their
    target distance.  Each vertex's rotation is a permutation of its
    neighbours.  A graph is checked when it is built: a malformed one raises
    a ValueError whose ``problems`` lists the diagnostics.
    """

    points: list                               # per-vertex target point
    edges: list[tuple[int, int]]               # undirected, u < v
    pinned: set[int]
    rotation: list[list[int]]                  # CCW neighbor order per vertex
    target: TargetSpace
    positions: np.ndarray | None = None        # optional parameter-plane coords
    # traced once: edges and rotation never change after construction
    _faces: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.edges = sorted((min(int(u), int(v)), max(int(u), int(v))) for u, v in self.edges)
        self.pinned = {int(v) for v in self.pinned}
        self.rotation = [[int(w) for w in rot] for rot in self.rotation]
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
        return self.target.distance(self.points[u], self.points[v])

    def edge_lengths(self) -> dict[tuple[int, int], float]:
        return {e: self.edge_length(*e) for e in self.edges}

    def _diagnose(self) -> list[str]:
        problems: list[str] = []
        n = self.n_vertices
        if n == 0:
            return ["graph has no vertices"]
        for v, p in enumerate(self.points):
            if not (p.ndim == 1 and np.isfinite(p).all() and self.target.contains(p)):
                problems.append(f"points[{v}] is not a finite point of {self.target!r}")
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                problems.append(f"edge ({u},{v}) out of range")
            if u == v:
                problems.append(f"loop edge at {u}")
        # edges are sorted, so a duplicate follows its first listing
        problems += [f"edge ({u},{v}) listed twice" for (u, v), prev in zip(self.edges[1:], self.edges)
                     if (u, v) == prev]
        problems += [f"pinned vertex {v} out of range" for v in sorted(self.pinned) if not 0 <= v < n]
        if self.positions is not None and not (
                self.positions.shape == (n, 2) and np.isfinite(self.positions).all()):
            problems.append("positions must be finite (n, 2) parameter coordinates")
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
        ends = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)
        if components(n, ends[:, 0], ends[:, 1]).any():
            problems.append("graph is not connected")
        return problems

    def spherical_diagnostics(self) -> list[str]:
        """Check that the face walks have Euler characteristic 2.

        Required before faces can be filled with triangles; plain
        relaxation does not need it.
        """
        walks = self.faces()
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
        """Orbits of the step (u, v) -> (v, w), w the neighbour before u in
        v's rotation.  Each rotation is a permutation of distinct
        neighbours, so the step is a bijection on the directed edges, and
        each walk closes where it started."""
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
            while (u, v) in unused:
                unused.remove((u, v))
                walk.append(u)
                u, v = v, self.rotation[v][idx_in_rot[v][u] - 1]
            walks.append(walk)
        return walks

    def outer_face_index(self, walks: list[list[int]] | None = None) -> int:
        """Index of the outer face: the clockwise walk when positions are
        known, otherwise the walk of greatest image length."""
        if walks is None:
            walks = self.faces()
        if self.positions is not None:
            return int(np.argmin([signed_area(self.positions[walk]) for walk in walks]))
        return int(np.argmax([sum(self.edge_length(u, v) for u, v in zip(walk, walk[1:] + walk[:1]))
                              for walk in walks]))

    def outer_walk(self) -> list[int]:
        walks = self.faces()
        return walks[self.outer_face_index(walks)]
