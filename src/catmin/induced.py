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
leaf order of that forest every merge is a contiguous block whose cross
pairs are runs of consecutive positions, one per row of its entering side,
so one gather over all runs reads each merge's cross block once.  The
forests of consecutive centers are laid end to end in blocks of at most
`BRACKET_BLOCK_PAIRS` pairs, and one gather and one scatter serve a whole
block, so the fixed cost of their twenty-odd array calls is paid per block,
not per center.  A pair recurs once per center of a block that reaches it,
so the scatter takes the minimum over its recurrences (``np.minimum.at``);
a minimum does not depend on the order of its operands, so the blocks
change no bit of the result.  The
bracket's ``upper`` is the metric (min-plus) closure of the raw
grown-component diameters: the connecting pseudometric obeys the triangle
inequality and lies below the raw values, so it lies below their closure
too, and the closure is itself a pseudometric.  ``lower`` is
``max(raw / 2, image distance)``; an exact result is its own lower bound.
Entries ``<= zero_tol`` are joined by chains of raw entries ``<= zero_tol``,
so the closure keeps the zero classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import PathGraph, components
from .mesh import MappedDisc, RefinedGraph, build_refined_graph
from .pseudometric import PseudometricMatrix

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
#: pairs that one block of bracket centers may hold: about 2 MB of the
#: block's index and distance arrays, so that they stay in cache
BRACKET_BLOCK_PAIRS = 1 << 15


def vertex_image_distances(disc: MappedDisc) -> np.ndarray:
    """Pairwise target distances between vertex images."""
    img = disc.images
    return disc.target.distances(img[:, None, :], img[None, :, :])


def length_pseudometric(
    disc: MappedDisc, refinement: int = 1, graph: RefinedGraph | None = None
) -> PseudometricMatrix:
    """Shortest image length of refined-mesh paths between original vertices.

    Monotone non-increasing along nested refinements (r, 2r, 4r, ...) since
    every coarse sub-edge is a union of collinear finer ones.  Its limit is
    not the paper's length pseudometric |.|_s: the sub-edges run only along
    each face's three sides, so on a face the limit is a hexagonal-norm
    metric (ROADMAP item 12).  It bounds |.|_s from above on the vertices.
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge tree of the components grown in order of ``row`` (pass 1).

    Vertices enter in stable ascending order of ``row`` until the first
    non-finite value; each enters as a singleton and is merged, neighbour by
    neighbour, with the components of its already added neighbours.  Tree
    nodes ``0..n-1`` are the vertices and node ``n + i`` is the i-th merge.
    Returns a leaf order ``p`` of the merge forest and, per merge in creation
    order, int arrays ``lo, mid, hi``: the merged component is ``p[lo:hi]``,
    the entering vertex's side is ``p[lo:mid]`` and the neighbour's side is
    ``p[mid:hi]``.
    """
    n = len(row)
    parent = list(range(n))      # union-find forest of the grown components
    node = list(range(n))        # root vertex -> its merge-tree node
    added = [False] * n
    kids_a: list[int] = []       # node n + i merges kids_a[i] and kids_b[i]
    kids_b: list[int] = []
    order = np.argsort(row, kind="stable")
    finite = np.isfinite(row[order])
    entered = order[: finite.argmin() if not finite.all() else n]
    for v in entered.tolist():
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
            kids_a.append(node[rv])
            kids_b.append(node[rw])
            if rv < rw:                  # rv and rw are roots: join them
                parent[rw] = rv
            else:
                parent[rv] = rw
                rv = rw
            node[rv] = n + len(kids_a) - 1
    size = [1] * n + [0] * len(kids_a)
    for i, (a, b) in enumerate(zip(kids_a, kids_b)):
        size[n + i] = size[a] + size[b]
    start = [0] * len(size)
    offset = 0
    for v in entered.tolist():
        if parent[v] == v:           # one tree per final component
            start[node[v]] = offset
            offset += size[node[v]]
    for i in range(len(kids_a) - 1, -1, -1):   # parents before children
        a = kids_a[i]
        start[a] = start[n + i]
        start[kids_b[i]] = start[n + i] + size[a]
    start, size = np.array(start), np.array(size)
    p = np.empty(offset, dtype=np.int64)
    p[start[entered]] = entered
    lo = start[n:]
    mid = lo + size[kids_a]
    return p, lo, mid, lo + size[n:]


def _bracket_connecting(
    n: int, edges: list[tuple[int, int]], dimg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """2-approximation by growing components inside balls around each center.

    For any connected witness set K containing a pair, centering at a point
    of K reaches the pair at radius <= diam K, and the grown component has
    diameter <= 2 diam K; hence upper/2 <= true value <= upper.

    Per center, the components' merge tree puts every merge on a contiguous
    block of the leaf order: merge ``(lo, mid, hi)`` joins the entering
    side at positions ``[lo, mid)`` to the neighbour's at ``[mid, hi)``.
    Every pair of positions in one tree is a cross pair of exactly one
    merge, its lowest common one, so the merges' cross blocks, read row by
    row as runs of columns, cover each pair once.  One gather of the image
    distances over all runs, grouped by merge, and one maximum per group
    give each merge's cross maximum, read with the entering side as rows.
    A merge's diameter is the largest cross maximum in its subtree, whose
    merges are the ones split between positions ``lo + 1`` and ``hi - 1``:
    a range maximum of the per-split cross maxima.  A pair's entry is the
    diameter of its lowest common merge, written to the pair's run; pairs
    in different trees or at vertices never reached stay infinite.

    Forests of consecutive centers share one pass, up to
    `BRACKET_BLOCK_PAIRS` pairs (so many that the pass's arrays stay in
    cache): their leaf orders are laid end to end, which keeps every merge
    a contiguous block, and the block's pair entries are min-scattered into
    ``upper``, since a pair recurs once per center of the block that
    reaches it.  Every value is a max or a min of the entries the
    merge-by-merge construction reads, and a minimum does not depend on
    the order of its operands, so the result is bitwise the same whatever
    the blocks.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    upper = np.full((n, n), np.inf)
    np.fill_diagonal(upper, 0.0)
    flat_upper, flat_dimg = upper.reshape(-1), dimg.ravel()   # flat_upper is a view of upper
    block: list[tuple[np.ndarray, ...]] = []
    held = 0                                     # pairs the block's forests may hold
    for c in range(n):
        forest = _merge_forest(nbrs, dimg[c])
        leaves = len(forest[0])
        pairs = leaves * (leaves - 1) // 2
        if block and held + pairs > BRACKET_BLOCK_PAIRS:
            _scatter_block(block, n, flat_dimg, flat_upper)
            block, held = [], 0
        if forest[1].size:
            block.append(forest)
            held += pairs
    if block:
        _scatter_block(block, n, flat_dimg, flat_upper)
    upper = np.minimum(upper, upper.T)
    lower = np.maximum(upper / 2.0, dimg)
    np.fill_diagonal(lower, 0.0)
    return lower, upper


def _scatter_block(
    forests: list[tuple[np.ndarray, ...]], n: int, flat_dimg: np.ndarray, flat_upper: np.ndarray
) -> None:
    """Min-scatter the merge diameters of a block of centers' forests.

    The forests' leaf orders are laid end to end, so each merge's
    positions stay one contiguous block and no range crosses into a
    neighbouring forest.
    """
    leaves = [len(f[0]) for f in forests]
    shift = np.repeat(np.cumsum(leaves) - leaves, [len(f[1]) for f in forests])
    p = np.concatenate([f[0] for f in forests])
    lo, mid, hi = (np.concatenate([f[k] for f in forests]) + shift for k in (1, 2, 3))
    rows, cols = mid - lo, hi - mid
    # run r: row run_row[r] of merge run_merge[r], over its columns [mid, hi)
    run_merge = np.repeat(np.arange(lo.size), rows)
    run_row = np.arange(len(run_merge)) + np.repeat(lo - np.cumsum(rows) + rows, rows)
    run_len = cols[run_merge]
    at = np.repeat(mid[run_merge] - np.cumsum(run_len) + run_len, run_len)
    at += np.arange(len(at))                 # column position of each pair
    flat = p.take(at)
    flat += np.repeat(p[run_row] * n, run_len)
    pairs = rows * cols
    split = np.zeros(len(p) + 1)             # padded: a range may end at len(p)
    split[mid] = np.maximum.reduceat(flat_dimg.take(flat), np.cumsum(pairs) - pairs)
    diam = np.maximum.reduceat(split, np.stack([lo + 1, hi], axis=1).ravel())[::2]
    np.minimum.at(flat_upper, flat, np.repeat(diam, pairs))


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
    n = disc.n_vertices
    ii, jj = np.nonzero(np.triu(conn.upper.d <= zero_tol, k=1))
    root = components(n, ii, jj)   # each class named by its smallest vertex
    if np.array_equal(root, np.arange(n)):
        if length is None:
            length = length_pseudometric(disc, refinement, graph=graph)
        return PseudometricMatrix(length.d.copy())
    g = graph if graph is not None else build_refined_graph(disc, refinement)
    canon = np.arange(g.n_nodes)
    canon[g.orig_index] = g.orig_index[root]
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
    plus `CHAIN_SLACK`.  A `MappedDisc` is connected, so all three
    matrices are finite.
    """
    graph = build_refined_graph(disc, refinement)
    length = length_pseudometric(disc, refinement, graph=graph)
    conn = connecting_pseudometric(disc)
    intrinsic = intrinsic_pseudometric(
        disc, zero_tol, refinement, graph=graph, connecting=conn, length=length
    )
    allowed = CHAIN_SLACK + zero_tol
    conn_side = conn.upper.d if conn.exact else conn.lower
    worst1 = float((intrinsic.d - length.d).max())
    worst2 = float((conn_side - intrinsic.d).max())
    return {
        "length": length,
        "intrinsic": intrinsic,
        "connecting": conn,
        "worst_length_vs_intrinsic": worst1,
        "worst_intrinsic_vs_connecting": worst2,
        "chain_holds": bool(worst1 <= allowed and worst2 <= allowed),
        "slack": allowed,
    }
