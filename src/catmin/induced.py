"""Pseudometrics induced on a mapped disc: length, connecting, intrinsic.

Three pullbacks of the target metric to the mesh vertices, ordered
``length >= intrinsic >= connecting``:

* the *length* pseudometric is the infimal image length of refined-mesh
  paths between two vertices;
* the *connecting* pseudometric is the infimal image diameter of a
  connected 1-skeleton vertex subset containing both;
* the *intrinsic* pseudometric re-runs the length computation after
  collapsing the zero classes of the connecting pseudometric; when every
  class is a single vertex it is the length pseudometric itself.

Both path metrics are `~catmin.graphs.PathGraph` distances: the length
pseudometric on the refined graph, the intrinsic one on its quotient, whose
nodes are the refined nodes with each zero class made one node, and whose
edges are the refined edges between different nodes, the shortest of
parallel ones kept.

The connecting minimum over connected subsets is exact only at desk scale
(``n <= 14`` by default): array passes over all 2^n vertex subsets give
each subset's image diameter and connectivity, and a superset-minimum
transform gives each pair's least connected diameter.  Beyond that a
factor-2 bracket is computed by growing components inside metric balls
around each candidate center.  Per center, a union-find pass records the
merges as a binary merge tree; it keeps its own parent list, and since the
entering vertex's side and the neighbour's are already found as roots, a
merge links them directly without finding them again.  In a depth-first
leaf order of that forest every merge is a contiguous block, so in one
permutation of the image distance matrix every merge's diameter and every
pair's entry are cumulative maxima.  The bracket's ``upper`` is the metric (min-plus)
closure of the raw grown-component diameters: the connecting pseudometric
obeys the triangle inequality and lies below the raw values, so it lies
below their closure too, and the closure is itself a pseudometric.
``lower`` is ``max(raw / 2, image distance)``; an exact result is its own
lower bound.  Entries ``<= zero_tol`` are joined by chains of raw entries
``<= zero_tol``, so the closure keeps the zero classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import PathGraph
from .mesh import MappedDisc, RefinedGraph, build_refined_graph
from .pseudometric import PseudometricMatrix, UnionFind

__all__ = [
    "length_pseudometric",
    "connecting_pseudometric",
    "connecting_on_graph",
    "ConnectingResult",
    "intrinsic_pseudometric",
    "ordering_chain_report",
    "vertex_image_distances",
    "EXACT_CONNECTING_LIMIT",
]

EXACT_CONNECTING_LIMIT = 14
ZERO_TOL = 1e-9  # connecting distance that identifies vertices: the instance key "zero"
CHAIN_SLACK = 1e-9  # of the ordering chain, on top of the identification tolerance


def vertex_image_distances(disc: MappedDisc) -> np.ndarray:
    """Pairwise target distances between vertex images."""
    img = disc.images
    return disc.target.distances(img[:, None, :], img[None, :, :])


def length_pseudometric(
    disc: MappedDisc, refinement: int = 1, graph: RefinedGraph | None = None
) -> PseudometricMatrix:
    """Shortest image length of refined-mesh paths between original vertices.

    Monotone non-increasing along nested refinements (r, 2r, 4r, ...) since
    every coarse sub-edge is a union of collinear finer ones.
    """
    g = graph if graph is not None else build_refined_graph(disc, refinement)
    dist = g.shortest_paths(g.orig_index)
    d = dist[:, g.orig_index]
    d = np.minimum(d, d.T)  # exact symmetry despite float noise
    np.fill_diagonal(d, 0.0)
    return PseudometricMatrix(d)


@dataclass
class ConnectingResult:
    """Connecting pseudometric, exact or bracketed between lower and upper.

    When ``exact``, ``lower`` is the same array as ``upper.d``.
    """

    upper: PseudometricMatrix
    lower: np.ndarray
    exact: bool


def _exact_connecting(n: int, edges: list[tuple[int, int]], dimg: np.ndarray) -> np.ndarray:
    """Exact connecting pseudometric by array passes over all 2^n subsets.

    A subset's image diameter comes from the subset without its top vertex;
    a subset is connected when the component of its lowest vertex, grown
    one neighbourhood at a time inside it, is all of it; and a pair's value
    is the least diameter of a connected subset holding it, read off a
    superset-minimum transform.  Every step is a max or a min of image
    distances, so the result does not depend on the order of the passes.
    """
    size = 1 << n
    adj = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    diam = np.zeros(size)
    reach_of = np.zeros(size, dtype=np.int64)   # neighbours of a subset's vertices
    for top in range(n):
        lo, hi = 1 << top, 2 << top
        farthest = np.zeros(lo)                  # max over a subset of dimg[top]
        for j in range(top):
            b = 1 << j
            farthest[b:2 * b] = np.maximum(farthest[:b], dimg[top, j])
        diam[lo:hi] = np.maximum(diam[:lo], farthest)
        reach_of[lo:hi] = reach_of[:lo] | adj[top]
    masks = np.arange(size, dtype=np.int64)
    grown = masks & -masks
    while True:
        more = grown | (reach_of[grown] & masks)
        if np.array_equal(more, grown):
            break
        grown = more
    best = np.where(grown == masks, diam, np.inf)
    for j in range(n):                           # min over supersets
        pairs = best.reshape(-1, 2, 1 << j)
        np.minimum(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])
    bits = 1 << np.arange(n, dtype=np.int64)
    out = best[bits[:, None] | bits[None, :]]
    np.fill_diagonal(out, 0.0)
    return out


def _merge_forest(
    nbrs: list[list[int]], row: np.ndarray
) -> tuple[list[int], list[tuple[int, int, int, int, int]]]:
    """Merge tree of the components grown in order of ``row`` (pass 1).

    Vertices enter in stable ascending order of ``row`` until the first
    non-finite value; each enters as a singleton and is merged, neighbour by
    neighbour, with the components of its already added neighbours.  Tree
    nodes ``0..n-1`` are the vertices and node ``n + i`` is the i-th merge.
    Returns a leaf order ``p`` of the merge forest and, per merge in creation
    order, ``(lo, mid, hi, a, b)``: the merged component is ``p[lo:hi]``, the
    entering vertex's side is node ``a`` on ``p[lo:mid]`` and the neighbour's
    side is node ``b`` on ``p[mid:hi]``.
    """
    n = len(row)
    parent = list(range(n))      # union-find forest of the grown components
    node = list(range(n))        # root vertex -> its merge-tree node
    added = [False] * n
    kids: list[tuple[int, int]] = []   # node n + i merges kids[i]
    order = np.argsort(row, kind="stable")
    finite = np.isfinite(row[order])
    entered = order[: finite.argmin() if not finite.all() else n].tolist()
    for v in entered:
        added[v] = True
        rv = v                   # root of v's component
        for w in nbrs[v]:
            if not added[w]:
                continue
            rw = w
            while parent[rw] != rw:      # path halving
                parent[rw] = parent[parent[rw]]
                rw = parent[rw]
            if rv == rw:
                continue
            kids.append((node[rv], node[rw]))
            if rv < rw:                  # rv and rw are roots: join them
                parent[rw] = rv
            else:
                parent[rv] = rw
                rv = rw
            node[rv] = n + len(kids) - 1
    size = [1] * n + [0] * len(kids)
    for i, (a, b) in enumerate(kids):
        size[n + i] = size[a] + size[b]
    start = [0] * (n + len(kids))
    offset = 0
    for v in entered:
        if parent[v] == v:           # one tree per final component
            start[node[v]] = offset
            offset += size[node[v]]
    for i in range(len(kids) - 1, -1, -1):   # parents before children
        a, b = kids[i]
        start[a] = start[n + i]
        start[b] = start[n + i] + size[a]
    p = [0] * offset
    for v in entered:
        p[start[v]] = v
    merges = [(start[a], start[b], start[b] + size[b], a, b) for a, b in kids]
    return p, merges


def _bracket_connecting(
    n: int, edges: list[tuple[int, int]], dimg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """2-approximation by growing components inside balls around each center.

    For any connected witness set K containing a pair, centering at a point
    of K reaches the pair at radius <= diam K, and the grown component has
    diameter <= 2 diam K; hence upper/2 <= true value <= upper.

    Per center, the components' merge tree puts every merge on a contiguous
    block of the leaf order.  In the once-permuted distance matrix, a
    merge's diameter is the largest entry above the diagonal inside its
    block; two cumulative maxima give that for every block at once.  A
    pair's entry is the diameter at its lowest common merge; diameters only
    grow up the tree, and the merges whose split lies between the pair's
    leaf positions are that merge and its descendants, so the entry is the
    range max of the split diameters (infinite between trees and at the
    vertices never reached), a cumulative max along each row.  Both are
    maxima of the same entries the merge-by-merge construction reads, so
    the result is bitwise the same.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    upper = np.full((n, n), np.inf)
    np.fill_diagonal(upper, 0.0)
    after = np.triu(np.ones((n, n), dtype=bool), 1)   # position t after position s
    for c in range(n):
        p, merges = _merge_forest(nbrs, dimg[c])
        k = len(p)
        entered = np.zeros(n, dtype=bool)
        entered[p] = True
        order = np.concatenate([np.asarray(p, dtype=np.int64), np.flatnonzero(~entered)])
        split = np.full(n, np.inf)   # split[q]: the merge between positions q-1 and q
        if merges:
            dp = dimg.take(order[:k], axis=0).take(order[:k], axis=1)
            # span[s, t]: largest dp[s', t'] with s <= s' < t' <= t
            span = np.maximum.accumulate(np.where(after[:k, :k], dp, 0.0), axis=1)
            span = np.maximum.accumulate(span[::-1], axis=0)[::-1]
            lo, mid, hi = np.asarray(merges, dtype=np.int64)[:, :3].T
            split[mid] = span[lo, hi - 1]
        # reach[s, t]: largest split[q] with s < q <= t (0 where t <= s)
        reach = np.maximum.accumulate(np.where(after, split, 0.0), axis=1)
        block = np.maximum(reach, reach.T)
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        np.minimum(upper, block.take(position, axis=0).take(position, axis=1), out=upper)
    lower = np.maximum(upper / 2.0, dimg)
    np.fill_diagonal(lower, 0.0)
    return lower, upper


def _metric_closure(d: np.ndarray) -> np.ndarray:
    """Min-plus closure (Floyd-Warshall): the largest pseudometric <= ``d``."""
    d = d.copy()
    for k in range(d.shape[0]):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def connecting_on_graph(
    n: int,
    edges: list[tuple[int, int]],
    image_distances: np.ndarray,
    exact_limit: int = EXACT_CONNECTING_LIMIT,
) -> ConnectingResult:
    """Connecting pseudometric of a vertex-weighted graph.

    ``image_distances`` is the pairwise target distance matrix of the vertex
    images; subsets are connected in the given graph.
    """
    dimg = np.asarray(image_distances, dtype=float)
    edges = [(int(u), int(v)) for u, v in edges]
    if n <= exact_limit:
        d = _exact_connecting(n, edges, dimg)
        return ConnectingResult(upper=PseudometricMatrix(d), lower=d, exact=True)
    lower, upper = _bracket_connecting(n, edges, dimg)
    return ConnectingResult(
        upper=PseudometricMatrix(_metric_closure(upper)), lower=lower, exact=False
    )


def connecting_pseudometric(disc: MappedDisc) -> ConnectingResult:
    """Minimal image diameter of connected 1-skeleton subsets joining pairs."""
    return connecting_on_graph(disc.n_vertices, disc.skeleton_edges(), vertex_image_distances(disc))


def intrinsic_pseudometric(
    disc: MappedDisc,
    zero_tol: float = ZERO_TOL,
    refinement: int = 1,
    graph: RefinedGraph | None = None,
    connecting: ConnectingResult | None = None,
    length: PseudometricMatrix | None = None,
) -> PseudometricMatrix:
    """Length pseudometric after collapsing connecting-zero vertex classes.

    Vertices whose connecting distance is ``<= zero_tol`` become a single
    routing node, so paths may teleport within a collapsed class.  Lies
    entrywise between the connecting and length pseudometrics up to the
    identification slack.  ``connecting`` and ``length``, when given, are
    the disc's connecting and length pseudometrics and are not computed
    again.  When no class has two vertices nothing collapses, and the
    result is a copy of the length pseudometric.
    """
    conn = connecting if connecting is not None else connecting_pseudometric(disc)
    uf = UnionFind(disc.n_vertices)
    ii, jj = np.where(conn.upper.d <= zero_tol)
    for i, j in zip(ii.tolist(), jj.tolist()):
        if i < j:
            uf.union(i, j)
    if all(root == i for i, root in enumerate(uf.parent)):
        if length is None:
            length = length_pseudometric(disc, refinement, graph=graph)
        return PseudometricMatrix(length.d.copy())
    g = graph if graph is not None else build_refined_graph(disc, refinement)
    n = disc.n_vertices
    canon = np.arange(g.n_nodes)
    canon[g.orig_index] = g.orig_index[[uf.find(i) for i in range(n)]]
    labels, node_of = np.unique(canon, return_inverse=True)
    quotient = PathGraph(len(labels), node_of[g.edges[:, 0]], node_of[g.edges[:, 1]], g.weights)
    sources = node_of[g.orig_index]
    used = np.unique(sources)
    d = quotient.shortest_paths(used)[np.searchsorted(used, sources)][:, sources]
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return PseudometricMatrix(d)


def ordering_chain_report(disc: MappedDisc, refinement: int = 1, zero_tol: float = ZERO_TOL) -> dict:
    """Entrywise check of length >= intrinsic >= connecting on one instance.

    The connecting side uses the exact value when available and the sound
    lower bracket otherwise.  Both inequalities are held to ``zero_tol``
    plus `CHAIN_SLACK`.
    """
    graph = build_refined_graph(disc, refinement)
    length = length_pseudometric(disc, refinement, graph=graph)
    conn = connecting_pseudometric(disc)
    intrinsic = intrinsic_pseudometric(
        disc, zero_tol, refinement, graph=graph, connecting=conn, length=length
    )
    allowed = CHAIN_SLACK + zero_tol
    gap1 = intrinsic.d - length.d
    gap1 = gap1[np.isfinite(gap1)]
    conn_side = conn.upper.d if conn.exact else conn.lower
    gap2 = conn_side - intrinsic.d
    gap2 = gap2[np.isfinite(gap2)]
    worst1 = float(gap1.max()) if gap1.size else 0.0
    worst2 = float(gap2.max()) if gap2.size else 0.0
    return {
        "length": length,
        "intrinsic": intrinsic,
        "connecting": conn,
        "worst_length_vs_intrinsic": worst1,
        "worst_intrinsic_vs_connecting": worst2,
        "chain_holds": bool(worst1 <= allowed and worst2 <= allowed),
        "slack": allowed,
    }
