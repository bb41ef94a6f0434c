"""Independent brute-force oracles used to pin expected values.

Most of these are deliberately written with different machinery than the
library (heapq instead of scipy, frozenset recursion instead of bitmask
DP) so the two sides cannot share a bug.  The others are the library's
former loop-by-loop paths, kept as the reference its array passes must
equal bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math

import numpy as np

from catmin.majorize import THIN_ALLOWANCE_GAPS, GlueError, PolyhedralDisc, comparison_triangle
from catmin.targets import TargetSpace


class RuledEuclidean(TargetSpace):
    """Euclidean space seen only through `distance` and `geodesic_eval`, so
    every other primitive takes its general `TargetSpace` default (the
    refined graph puts side points on geodesics and rules face points
    through a corner)."""

    def distance(self, p, q):
        return float(np.linalg.norm(np.asarray(p) - np.asarray(q)))

    def geodesic_eval(self, p, q, t):
        return (1.0 - t) * np.asarray(p) + t * np.asarray(q)


class UnionFind:
    """Plain union-find over ``range(n)`` with path halving; a union makes
    the smaller root the parent of the larger, so each root is its class's
    smallest member."""

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


def dijkstra_oracle(n_nodes, weighted_edges, source):
    """Textbook heap Dijkstra over an undirected weighted edge list."""
    adj = [[] for _ in range(n_nodes)]
    for u, v, w in weighted_edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = [math.inf] * n_nodes
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u] + 1e-15:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v] - 1e-18:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def all_pairs_dijkstra_oracle(n_nodes, weighted_edges):
    return np.array([dijkstra_oracle(n_nodes, weighted_edges, s) for s in range(n_nodes)])


def connected_subsets_oracle(n, edges):
    """Every connected vertex subset, found by subset filtering."""
    nbrs = {i: set() for i in range(n)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def is_connected(subset):
        subset = set(subset)
        if not subset:
            return False
        seen = {next(iter(subset))}
        stack = [next(iter(subset))]
        while stack:
            x = stack.pop()
            for y in nbrs[x]:
                if y in subset and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen == subset

    out = []
    for size in range(1, n + 1):
        for comb in itertools.combinations(range(n), size):
            if is_connected(comb):
                out.append(frozenset(comb))
    return out


def connecting_matrix_oracle(n, edges, image_dist):
    """Exhaustive min over connected subsets of the image diameter.

    An independent formulation: the definition itself, over subsets listed
    by `itertools.combinations` and tested by a search, sharing no code or
    idea with the bitmask passes or the bracket.
    """
    image_dist = np.asarray(image_dist)
    subsets = connected_subsets_oracle(n, edges)
    out = np.full((n, n), math.inf)
    np.fill_diagonal(out, 0.0)
    for s in subsets:
        idx = sorted(s)
        diam = float(image_dist[np.ix_(idx, idx)].max()) if len(idx) > 1 else 0.0
        for i, j in itertools.combinations(idx, 2):
            if diam < out[i, j]:
                out[i, j] = out[j, i] = diam
    return out


def bracket_connecting_oracle(n, edges, dimg):
    """The factor-2 connecting bracket, merge by merge and pair by pair.

    Per center, vertices enter in stable order of image distance until the
    first infinite one; every union of two grown components writes its
    diameter into ``upper`` for each cross pair.  Returns (lower, upper)
    with ``lower = max(upper / 2, dimg)``; ``upper`` is not metric-closed.

    A former implementation: the bracket as first written.  It shares the
    growth order and the merge rule with `induced._bracket_connecting`, so
    it pins that code's refactors bit for bit but cannot catch a defect of
    the construction itself; `connecting_matrix_oracle` checks the bounds.
    """
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    upper = np.full((n, n), np.inf)
    np.fill_diagonal(upper, 0.0)
    for c in range(n):
        order = np.argsort(dimg[c], kind="stable")
        uf = UnionFind(n)
        added = np.zeros(n, dtype=bool)
        diam_of = {}
        members_of = {}
        for v in order.tolist():
            if not np.isfinite(dimg[c][v]):
                break
            added[v] = True
            rv = uf.find(v)
            diam_of[rv] = 0.0
            members_of[rv] = [v]
            for w in nbrs[v]:
                if not added[w]:
                    continue
                rv, rw = uf.find(v), uf.find(w)
                if rv == rw:
                    continue
                ma, mb = members_of[rv], members_of[rw]
                cross = float(dimg[np.ix_(ma, mb)].max())
                d_new = max(diam_of[rv], diam_of[rw], cross)
                uf.union(rv, rw)
                root = uf.find(rv)
                members_of[root] = ma + mb
                diam_of[root] = d_new
                for a in ma:
                    row = upper[a]
                    for b in mb:
                        if d_new < row[b]:
                            upper[a, b] = upper[b, a] = d_new
    lower = np.maximum(upper / 2.0, dimg)
    np.fill_diagonal(lower, 0.0)
    return lower, upper


def merge_forest_oracle(
    nbrs: list[list[int]], row: np.ndarray
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Merge tree of the components grown in order of ``row`` (pass 1).

    Vertices enter in stable ascending order of ``row`` until the first
    non-finite value; each enters as a singleton and is merged, neighbour by
    neighbour, with the components of its already added neighbours.  Tree
    nodes ``0..n-1`` are the vertices and node ``n + i`` is the i-th merge.
    Returns a leaf order ``p`` of the merge forest and, per merge in creation
    order, ``(lo, mid, hi)``: the merged component is ``p[lo:hi]``, the
    entering vertex's side is ``p[lo:mid]`` and the neighbour's side is
    ``p[mid:hi]``.

    A former implementation of `induced._merge_forest`, with a plain
    union-find that finds both roots and merges as lists; it pins the
    forest and its leaf order, not the bracket built on them.
    """
    n = len(row)
    uf = UnionFind(n)            # the grown components
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
            rw = uf.find(w)
            if rv == rw:
                continue
            kids.append((node[rv], node[rw]))
            uf.union(rv, rw)
            rv = min(rv, rw)
            node[rv] = n + len(kids) - 1
    size = [1] * n + [0] * len(kids)
    for i, (a, b) in enumerate(kids):
        size[n + i] = size[a] + size[b]
    start = [0] * (n + len(kids))
    offset = 0
    for v in entered:
        if uf.parent[v] == v:        # one tree per final component
            start[node[v]] = offset
            offset += size[node[v]]
    for i in range(len(kids) - 1, -1, -1):   # parents before children
        a, b = kids[i]
        start[a] = start[n + i]
        start[b] = start[n + i] + size[a]
    p = [0] * offset
    for v in entered:
        p[start[v]] = v
    merges = [(start[a], start[b], start[b] + size[b]) for a, b in kids]
    return p, merges


def jsonable_oracle(obj):
    """JSON-ready copy of ``obj``, converted element by element.

    Infinities become the strings "inf"/"-inf"; NaN raises ``ValueError``.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable_oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable_oracle(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable_oracle(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            raise ValueError("NaN is not serializable")
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


def instance_to_json_oracle(doc):
    """Canonical report text: sorted keys, minimal separators, one newline."""
    return json.dumps(jsonable_oracle(doc), sort_keys=True, separators=(",", ":")) + "\n"


def cone_distance_oracle(total_angle, r1, phi1, r2, phi2):
    """Exact intrinsic distance on a cone of the given total apex angle.

    Points are (radius, azimuth) in the cone's developing coordinates.
    """
    dphi = abs(phi1 - phi2) % total_angle
    dphi = min(dphi, total_angle - dphi)
    if dphi >= math.pi:
        return r1 + r2
    return math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(dphi))


def maximin_direction_oracle(units, n_samples=1_000_000, seed=0):
    """max over sampled unit directions of min_i <d, u_i> (2D or 3D)."""
    units = np.asarray(units, dtype=float)
    dim = units.shape[1]
    if dim == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((n_samples, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scores = (dirs @ units.T).min(axis=1)
    k = int(np.argmax(scores))
    return float(scores[k]), dirs[k]


def min_norm_hull_point_oracle(units):
    """Minimum-norm hull point by enumerating every support.

    The optimum lies in the relative interior of a face spanned by at most
    ``dim + 1`` affinely independent points, so all small supports are
    tried and the best feasible affine projection wins; the point is then
    refined exactly as the library refines it.  C(k, <= dim + 1) least
    squares solves: the library finds the support with Wolfe's algorithm.
    """
    from catmin.minimize import _refine_projection_longdouble

    u = np.asarray(units, dtype=float)
    k, dim = u.shape
    best = None
    best_norm = np.inf
    best_subset = (0,)
    for size in range(1, min(k, dim + 1) + 1):
        for subset in itertools.combinations(range(k), size):
            pts = u[list(subset)]
            if size == 1:
                cand = pts[0]
            else:
                base = pts[0]
                diffs = (pts[1:] - base).T
                s, *_ = np.linalg.lstsq(diffs, -base, rcond=None)
                lam = np.concatenate([[1.0 - s.sum()], s])
                if np.any(lam < -1e-10):
                    continue
                cand = base + diffs @ s
            norm = float(np.linalg.norm(cand))
            if norm < best_norm - 1e-15:
                best_norm = norm
                best = cand
                best_subset = subset
    if 0.0 < best_norm < 1e-6 and len(best_subset) >= 2:
        refined = _refine_projection_longdouble(u[list(best_subset)])
        if refined is not None:
            best = refined
    return best


def descent_direction_oracle(units, tol=1e-12):
    """`descent_direction` on the enumerated hull point."""
    w = min_norm_hull_point_oracle(units)
    t_star = float(np.linalg.norm(w))
    if t_star <= tol:
        return 0.0, None
    return t_star, w / t_star


def articulation_oracle(n, edges):
    """Cut vertices found by brute-force removal."""
    def n_components(skip):
        nbrs = {i: set() for i in range(n) if i != skip}
        for u, v in edges:
            if skip in (u, v):
                continue
            nbrs[u].add(v)
            nbrs[v].add(u)
        seen = set()
        comps = 0
        for s in nbrs:
            if s in seen:
                continue
            comps += 1
            stack = [s]
            seen.add(s)
            while stack:
                x = stack.pop()
                for y in nbrs[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        return comps

    base = n_components(None if n == 0 else -1)
    return sorted(v for v in range(n) if n_components(v) > base)


def surface_graph_matrix_oracle(disc, subdiv):
    """Chord-complete surface graph of a polyhedral disc, built chord by chord.

    Nodes are numbered exactly as in ``SurfaceGraph`` (per face, side chains
    in side order, then bridge chains); every pair of ring nodes of a face is
    joined by its planar chord, one ``np.linalg.norm`` per chord, keeping the
    shortest connection per node pair in a dict.  Returns the symmetric CSR
    weight matrix.
    """
    from scipy.sparse import csr_matrix

    r = int(subdiv)
    partner = {}
    for a, b in disc.gluings:
        partner[a] = b
        partner[b] = a
    n_nodes = 0
    vertex_node = {}
    side_chain = {}

    def new_node():
        nonlocal n_nodes
        n_nodes += 1
        return n_nodes - 1

    def vnode(v):
        if v not in vertex_node:
            vertex_node[v] = new_node()
        return vertex_node[v]

    def chain_of_side(f, s):
        if (f, s) in side_chain:
            return side_chain[(f, s)]
        u, v = disc.side_corners(f, s)
        interior = [new_node() for _ in range(1, r)]
        chain = [vnode(u)] + interior + [vnode(v)]
        side_chain[(f, s)] = chain
        if (f, s) in partner:
            pu, _ = disc.side_corners(*partner[(f, s)])
            side_chain[partner[(f, s)]] = chain if pu == u else chain[::-1]
        return chain

    weight = {}

    def connect(a, b, w):
        if a == b:
            return
        key = (min(a, b), max(a, b))
        if w < weight.get(key, np.inf):
            weight[key] = w

    for f in range(disc.n_triangles):
        coords = disc.tri_coords[f]
        ring, ring_xy = [], []
        for s in range(3):
            chain = chain_of_side(f, s)
            for k, node in enumerate(chain[:-1]):
                t = k / r
                ring.append(node)
                ring_xy.append((1 - t) * coords[s] + t * coords[(s + 1) % 3])
        for i in range(len(ring)):
            for j in range(i + 1, len(ring)):
                connect(ring[i], ring[j], float(np.linalg.norm(ring_xy[i] - ring_xy[j])))
    for u, v, length in disc.bridges:
        chain = [vnode(u)] + [new_node() for _ in range(1, r)] + [vnode(v)]
        for a, b in zip(chain, chain[1:]):
            connect(a, b, length / r)

    pairs = np.asarray(list(weight.keys()), dtype=int).reshape(-1, 2)
    w = np.asarray(list(weight.values()), dtype=float)
    return csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([pairs[:, 0], pairs[:, 1]]),
                                  np.concatenate([pairs[:, 1], pairs[:, 0]]))),
        shape=(n_nodes, n_nodes),
    )


def eps_net_oracle(dist, boundary_length, b_nodes, b_arcs, eps_fracs):
    """Greedy separated nets read off a dense all-pairs distance matrix."""
    L = boundary_length
    ell = L / (2.0 * math.pi)
    results = {}
    for frac in eps_fracs:
        eps = frac * L
        m = math.ceil(10.0 * ell / eps)
        chosen = []
        for k in range(m):
            idx = int(np.searchsorted(b_arcs, L * k / m, side="right")) - 1
            if b_nodes[max(idx, 0)] not in chosen:
                chosen.append(b_nodes[max(idx, 0)])
        n_boundary = len(chosen)
        mind = dist[chosen].min(axis=0)
        added = 0
        while mind.max() > eps:
            node = int(np.argmax(mind))
            chosen.append(node)
            added += 1
            mind = np.minimum(mind, dist[node])
        bound_interior = 4.0 * (ell / eps) ** 2
        results[f"L/{round(1 / frac)}"] = {
            "eps": float(eps),
            "boundary_points": n_boundary,
            "boundary_bound": m,
            "interior_points": added,
            "interior_bound": bound_interior,
            "net_size": len(chosen),
            "total_bound": bound_interior + m,
            "ok": bool(added <= bound_interior and n_boundary <= m),
        }
    results["all_ok"] = all(v["ok"] for v in results.values() if isinstance(v, dict))
    return results


def thin_triangle_test_oracle(
    w: PolyhedralDisc,
    samples: int = 10_000,
    seed: int = 0,
    subdiv: int = 24,
    allowance_gaps: float = THIN_ALLOWANCE_GAPS,
) -> dict:
    """Sampled comparison inequality drawn one triangle at a time.

    The former body of `catmin.majorize.thin_triangle_test`: each loop turn
    draws one candidate triangle, tests it against the rejection rules, and
    reads both sides' paths node by node.  Same sampling distribution as the
    library's batched draws, on a different random stream, so the two agree
    on verdicts, not on the triangles drawn.
    """
    sg = w.surface_graph(subdiv)
    dist, _ = sg.all_pairs()
    rng = np.random.default_rng(seed)
    n = sg.n_nodes
    allowance = allowance_gaps * sg.max_gap
    worst = -np.inf
    worst_case = None
    done = 0
    attempts = 0
    while done < samples and attempts < 30 * samples:
        attempts += 1
        a, b, c = (int(x) for x in rng.integers(0, n, size=3))
        if len({a, b, c}) < 3:
            continue
        ab, ac, bc = dist[a, b], dist[a, c], dist[b, c]
        if min(ab, ac, bc) <= 4 * sg.max_gap or not np.isfinite(ab + ac + bc):
            continue
        path_ab = sg.path_nodes(a, b)
        path_ac = sg.path_nodes(a, c)
        if len(path_ab) < 3 or len(path_ac) < 3:
            continue
        p = path_ab[int(rng.integers(1, len(path_ab) - 1))]
        q = path_ac[int(rng.integers(1, len(path_ac) - 1))]
        try:
            comp = comparison_triangle(bc, ac, ab)
        except GlueError:
            continue
        x, y, z = comp.coords
        p_bar = x + (y - x) * (dist[a, p] / ab)
        q_bar = x + (z - x) * (dist[a, q] / ac)
        violation = float(dist[p, q] - np.linalg.norm(p_bar - q_bar))
        if violation > worst:
            worst = violation
            worst_case = (a, b, c, p, q)
        done += 1
    return {
        "samples": done,
        "worst_violation": float(worst) if done else 0.0,
        "allowance": float(allowance),
        "beyond_allowance": float(worst - allowance) if done else 0.0,
        "violation_found": bool(done and worst > allowance),
        "worst_case_nodes": worst_case,
        "max_gap": float(sg.max_gap),
    }


def _directional_derivative_oracle(patch, vec, arr):
    ax = np.gradient(arr, patch.hx, axis=0, edge_order=2)
    ay = np.gradient(arr, patch.hy, axis=1, edge_order=2)
    return vec[..., :1] * ax + vec[..., 1:2] * ay


def energy_oracle(patch, vecs, values=None):
    """Field energy with both gradients of the values taken again per field."""
    vals = patch.values if values is None else np.asarray(values, dtype=float)
    total = 0.0
    for vec in vecs:
        deriv = _directional_derivative_oracle(patch, vec, vals)
        dens = np.sum(deriv * deriv, axis=-1)
        total += float(np.trapezoid(np.trapezoid(dens, dx=patch.hy, axis=1), dx=patch.hx))
    return total


def perturbation_evidence_oracle(patch, fields, trials=100, seed=0, amplitude=0.05,
                                 tol=1e-9, ts=(0.25, 0.5, 0.75)):
    """The former perturbation loop: convexity sampled by one energy call
    per point of each segment, four energy calls per trial."""
    from catmin.fields import energy

    rng = np.random.default_rng(seed)
    nx, ny = patch.shape
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    ring = np.minimum.reduce([ii, jj, nx - 1 - ii, ny - 1 - jj])
    mask = np.clip(ring / 2.0, 0.0, 1.0)
    xs, ys = np.meshgrid(patch.x, patch.y, indexing="ij")
    e0 = energy(patch, fields)
    min_margin = np.inf
    worst_convexity = -np.inf
    for _ in range(trials):
        bump = np.zeros((nx, ny, 3))
        for _ in range(2):
            cx = rng.uniform(patch.x[1], patch.x[-2])
            cy = rng.uniform(patch.y[1], patch.y[-2])
            width = rng.uniform(0.15, 0.4) * (patch.x[-1] - patch.x[0])
            direction = rng.standard_normal(3)
            blob = np.exp(-(((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * width * width)))
            bump += blob[..., None] * direction
        bump *= (mask * amplitude)[..., None]
        s1 = patch.values + bump
        e1 = energy(patch, fields, values=s1)
        min_margin = min(min_margin, e1 - e0)
        for t in ts:
            st = (1.0 - t) * patch.values + t * s1
            et = energy(patch, fields, values=st)
            worst_convexity = max(worst_convexity, et - ((1.0 - t) * e0 + t * e1))
    return {
        "trials": trials,
        "energy": e0,
        "min_margin": float(min_margin),
        "never_decreases": bool(min_margin >= -tol),
        "convexity_max_violation": float(worst_convexity),
        "convex_ok": bool(worst_convexity <= tol),
        "tolerance": tol,
    }


def perturbation_closed_form_oracle(patch, fields, trials=100, seed=0, amplitude=0.05, tol=1e-9):
    """The former per-trial closed form: each trial builds its two masked
    blobs as full 2-D arrays, takes their `np.gradient` pair and reads the
    margin 2<s0, b>_A + E(b) and E(b) from the node tensor, one trial at a
    time."""
    from catmin.fields import _CONVEXITY_TS, _d, _grad, _node_tensor, energy

    rng = np.random.default_rng(seed)
    nx, ny = patch.shape
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    ring = np.minimum.reduce([ii, jj, nx - 1 - ii, ny - 1 - jj])
    scale = np.clip(ring / 2.0, 0.0, 1.0) * amplitude
    xs, ys = np.meshgrid(patch.x, patch.y, indexing="ij")
    e0 = energy(patch, fields)
    a00, a01, a11 = _node_tensor(patch, fields)
    s_x, s_y = (g.reshape(-1, 3) for g in _grad(patch, patch.values))
    profiles = np.empty((2, nx, ny))
    directions = np.empty((2, 3))
    min_margin = np.inf
    worst_convexity = -np.inf
    for _ in range(trials):
        for k in range(2):
            cx = rng.uniform(patch.x[1], patch.x[-2])
            cy = rng.uniform(patch.y[1], patch.y[-2])
            width = rng.uniform(0.15, 0.4) * (patch.x[-1] - patch.x[0])
            directions[k] = rng.standard_normal(3)
            profiles[k] = np.exp(-(((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * width * width)))
        profiles *= scale
        gx = _d(profiles, patch.hx, 1).reshape(2, -1)
        gy = _d(profiles, patch.hy, 2).reshape(2, -1)
        u = a00 * gx + a01 * gy
        v = a01 * gx + a11 * gy
        eb = float(np.sum((u @ gx.T + v @ gy.T) * (directions @ directions.T)))
        margin = 2.0 * float(np.sum((u @ s_x + v @ s_y) * directions)) + eb
        min_margin = min(min_margin, margin)
        worst_convexity = max(worst_convexity, *(-t * (1.0 - t) * eb for t in _CONVEXITY_TS))
    return {
        "trials": trials,
        "energy": e0,
        "min_margin": float(min_margin),
        "never_decreases": bool(min_margin >= -tol),
        "convexity_max_violation": float(worst_convexity),
        "convex_ok": bool(worst_convexity <= tol),
        "tolerance": tol,
    }


def laplacian_oracle(patch, vecs):
    """sum_i v_i(v_i s) on interior nodes, each derivative taken on its own."""
    s = patch.values
    out = np.zeros_like(s)
    for vec in vecs:
        g = _directional_derivative_oracle(patch, vec, s)
        out += _directional_derivative_oracle(patch, vec, g)
    return out[1:-1, 1:-1]


def field_march_oracle(patch):
    """The former row-major march of the field system: each step gathers
    its diagonal's cells and their neighbours by 2-D fancy indexing.
    Returns (lambda1, lambda2, window, shrunk) as the solve keeps them."""
    from catmin.fields import (
        POSITIVITY_TOL,
        FieldSystemError,
        _dd,
        _second_derivatives,
        curvature_frame,
    )

    frame = curvature_frame(patch)
    nx, ny = patch.shape
    E, F, G = frame.first_form
    det = E * G - F * F

    def tangential(u):
        ub1 = np.sum(u * frame.s_x, axis=-1)
        ub2 = np.sum(u * frame.s_y, axis=-1)
        return (G * ub1 - F * ub2) / det, (E * ub2 - F * ub1) / det

    v1 = frame.e1 * (1.0 / np.sqrt(np.abs(frame.kappa1)))[..., None]
    v2 = frame.e2 * (1.0 / np.sqrt(np.abs(frame.kappa2)))[..., None]
    vv1, vv2 = _second_derivatives(patch, (v1, v2), (frame.s_x, frame.s_y))
    t1, t2 = tangential(vv1 + vv2)
    a11, a12 = tangential(_dd(patch.values, patch.hx, 0))
    a21, a22 = tangential(_dd(patch.values, patch.hy, 1))

    def h1(i, j, w1, w2):
        return -2.0 * (t1[i, j] + w1 * a11[i, j] + w2 * a21[i, j])

    def h2(i, j, w1, w2):
        return -2.0 * (t2[i, j] + w1 * a12[i, j] + w2 * a22[i, j])

    n = nx - 1
    hx, hy = patch.hx, patch.hy
    w1 = np.full((nx, ny), np.nan)
    w2 = np.full((nx, ny), np.nan)
    diag_i = np.arange(nx)
    w1[diag_i, n - diag_i] = 1.0
    w2[diag_i, n - diag_i] = 1.0
    for c in range(n + 1, 2 * n + 1):
        i = np.arange(max(0, c - n), min(n, c) + 1)
        j = c - i
        f1_prev = h1(i - 1, j, w1[i - 1, j], w2[i - 1, j])
        f2_prev = h2(i, j - 1, w1[i, j - 1], w2[i, j - 1])
        w1_star = w1[i - 1, j] + hx * f1_prev
        w2_star = w2[i, j - 1] + hy * f2_prev
        w1[i, j] = w1[i - 1, j] + 0.5 * hx * (f1_prev + h1(i, j, w1_star, w2_star))
        w2[i, j] = w2[i, j - 1] + 0.5 * hy * (f2_prev + h2(i, j, w1_star, w2_star))
    for c in range(n - 1, -1, -1):
        i = np.arange(max(0, c - n), min(n, c) + 1)
        j = c - i
        f1_next = h1(i + 1, j, w1[i + 1, j], w2[i + 1, j])
        f2_next = h2(i, j + 1, w1[i, j + 1], w2[i, j + 1])
        w1_star = w1[i + 1, j] - hx * f1_next
        w2_star = w2[i, j + 1] - hy * f2_next
        w1[i, j] = w1[i + 1, j] - 0.5 * hx * (f1_next + h1(i, j, w1_star, w2_star))
        w2[i, j] = w2[i, j + 1] - 0.5 * hy * (f2_next + h2(i, j, w1_star, w2_star))
    if np.isnan(w1).any() or np.isnan(w2).any():
        raise FieldSystemError("marching failed to cover the grid")
    for k in range((n + 1) // 2):
        sl = slice(k, nx - k)
        if min(w1[sl, sl].min(), w2[sl, sl].min()) > POSITIVITY_TOL:
            return np.sqrt(w1[sl, sl]), np.sqrt(w2[sl, sl]), (k, nx - k), k > 0
    raise FieldSystemError("lost positivity of the squared scalings")


def check_plane_oracle(disc, normal, offset, tol=1e-9):
    """One plane section, its face adjacency rebuilt and its components
    found by a per-edge union-find (the saddle predicate's per-plane loop)."""
    img = np.asarray(disc.images, dtype=float)
    normal = np.asarray(normal, dtype=float)
    nn = np.linalg.norm(normal)
    if nn == 0.0:
        raise ValueError("zero normal")
    scale = max(1.0, float(np.abs(img).max()))
    g = (img @ normal - float(offset)) / nn
    g = np.where(np.abs(g) <= tol * scale, 0.0, g)
    tris = disc.triangles
    edge_faces = disc.edge_faces()
    boundary_edges = {e for e, fs in edge_faces.items() if len(fs) == 1}
    violations = []
    for side in (1.0, -1.0):
        s = side * g
        active = np.where(s[tris].max(axis=1) > 0.0)[0]
        if active.size == 0:
            continue
        pos_in_active = {int(f): k for k, f in enumerate(active)}
        uf = UnionFind(len(active))
        touches = [False] * len(active)
        for (u, v), fs in edge_faces.items():
            if max(s[u], s[v]) <= 0.0:
                continue
            ids = [pos_in_active[f] for f in fs if f in pos_in_active]
            for a, b in zip(ids, ids[1:]):
                uf.union(a, b)
            if (u, v) in boundary_edges:
                for a in ids:
                    touches[a] = True
        comp_touch = {}
        comp_members = {}
        for k in range(len(active)):
            root = uf.find(k)
            comp_touch[root] = comp_touch.get(root, False) or touches[k]
            comp_members.setdefault(root, []).append(int(active[k]))
        for root, ok in comp_touch.items():
            if not ok:
                violations.append(
                    {
                        "side": "positive" if side > 0 else "negative",
                        "normal": normal.tolist(),
                        "offset": float(offset),
                        "triangles": sorted(comp_members[root]),
                    }
                )
    return violations


def candidate_planes_oracle(disc, extra_planes, seed, nudge):
    """Saddle candidate planes built one vertex triple at a time: unit
    normal, sign fixed by its first nonzero coordinate, deduplicated on
    the normal and offset rounded to 9 digits, in first-seen order."""
    img = np.asarray(disc.images, dtype=float)
    n = img.shape[0]
    scale = max(1.0, float(np.abs(img).max()))
    seen = set()
    planes = []

    def push(normal, offset):
        nn = np.linalg.norm(normal)
        if nn <= 1e-12 * scale:
            return
        normal = normal / nn
        for k in range(3):
            if abs(normal[k]) > 1e-12:
                if normal[k] < 0:
                    normal, offset = -normal, -offset
                break
        key = (tuple(np.round(normal, 9)), round(float(offset), 9))
        if key in seen:
            return
        seen.add(key)
        planes.append((normal, float(offset)))

    for i, j, k in itertools.combinations(range(n), 3):
        normal = np.cross(img[j] - img[i], img[k] - img[i])
        nn = np.linalg.norm(normal)
        if nn <= 1e-12 * scale * scale:
            continue
        normal = normal / nn
        base = float(normal @ img[i])
        for off in (base, base + nudge * scale, base - nudge * scale):
            push(normal.copy(), off)
    rng = np.random.default_rng(seed)
    lo, hi = img.min(), img.max()
    for _ in range(extra_planes):
        normal = rng.standard_normal(3)
        offset = rng.uniform(lo - 0.1 * scale, hi + 0.1 * scale)
        push(normal, offset)
    return planes


def is_saddle_oracle(disc, extra_planes=200, seed=0, tol=1e-9, nudge=1e-7):
    """Saddle verdict as (saddle, planes tested, witness), plane by plane;
    a violating plane ends the test, and is the last plane counted."""
    planes = candidate_planes_oracle(disc, extra_planes, seed, nudge)
    for tested, (normal, offset) in enumerate(planes, 1):
        violations = check_plane_oracle(disc, normal, offset, tol)
        if violations:
            return False, tested, violations[0]
    return True, len(planes), None


def _subset_connected_oracle(mask, adj):
    low = mask & (-mask)
    reached = low
    while True:
        grow = reached
        m = reached
        while m:
            b = m & (-m)
            grow |= adj[b.bit_length() - 1] & mask
            m ^= b
        if grow == reached:
            break
        reached = grow
    return reached == mask


def exact_connecting_oracle(n, edges, dimg):
    """The exact connecting pseudometric, subset by subset: each subset's
    diameter from the subset without its lowest vertex, its connectivity
    by a search, and each pair's minimum over the connected subsets."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    size = 1 << n
    diam = np.zeros(size)
    connected = np.zeros(size, dtype=bool)
    members: list[list[int]] = [[] for _ in range(size)]
    for s in range(1, size):
        low = s & (-s)
        i = low.bit_length() - 1
        rest = s ^ low
        if rest == 0:
            diam[s] = 0.0
            connected[s] = True
            members[s] = [i]
            continue
        mem = members[rest]
        row = dimg[i]
        best = diam[rest]
        for j in mem:
            if row[j] > best:
                best = row[j]
        diam[s] = best
        members[s] = [i] + mem
        connected[s] = _subset_connected_oracle(s, adj)
    subsets = np.arange(size, dtype=np.int64)
    out = np.full((n, n), np.inf)
    np.fill_diagonal(out, 0.0)
    conn_idx = subsets[connected]
    conn_diam = diam[connected]
    for i in range(n):
        for j in range(i + 1, n):
            pair = (1 << i) | (1 << j)
            sel = (conn_idx & pair) == pair
            if sel.any():
                out[i, j] = out[j, i] = float(conn_diam[sel].min())
    return out


def intrinsic_quotient_oracle(disc, zero_tol=1e-9, refinement=1):
    """The intrinsic pseudometric, always through the quotient graph: every
    connecting-zero class is one routing node, even a class of one vertex."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    from catmin.induced import connecting_pseudometric
    from catmin.mesh import build_refined_graph

    uf = UnionFind(disc.n_vertices)
    ii, jj = np.where(connecting_pseudometric(disc).upper.d <= zero_tol)
    for i, j in zip(ii.tolist(), jj.tolist()):
        if i < j:
            uf.union(i, j)
    g = build_refined_graph(disc, refinement)
    n = disc.n_vertices
    canon = np.arange(g.n_nodes)
    for i in range(n):
        canon[g.orig_index[i]] = g.orig_index[uf.find(i)]
    relabel: dict[int, int] = {}
    node_of = np.empty(g.n_nodes, dtype=int)
    for node in range(g.n_nodes):
        c = int(canon[node])
        if c not in relabel:
            relabel[c] = len(relabel)
        node_of[node] = relabel[c]
    best: dict[tuple[int, int], float] = {}
    for (u, v), w in zip(g.edges.tolist(), g.weights.tolist()):
        a, b = node_of[u], node_of[v]
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if w < best.get(key, np.inf):
            best[key] = w
    m = len(relabel)
    if best:
        e = np.asarray(list(best.keys()), dtype=int)
        w = np.asarray(list(best.values()), dtype=float)
        mat = csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([e[:, 0], e[:, 1]]),
                                      np.concatenate([e[:, 1], e[:, 0]]))),
            shape=(m, m),
        )
    else:
        mat = csr_matrix((m, m))
    sources = node_of[g.orig_index]
    dist = dijkstra(mat, directed=False, indices=np.asarray(sorted(set(sources.tolist()))))
    row_of = {s: k for k, s in enumerate(sorted(set(sources.tolist())))}
    d = np.empty((n, n))
    for i in range(n):
        d[i] = dist[row_of[sources[i]]][sources]
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return d


def verify_pseudometric_oracle(d, tol=1e-9):
    """`verify_pseudometric` with the triangle inequality checked one pivot
    at a time.

    Checks nonnegativity, zero diagonal, symmetry and the triangle
    inequality.  The triangle inequality is checked with infinity-aware
    arithmetic: two points at finite distance from a common third point must
    themselves be at finite distance.

    A former implementation, the loop that the array check replaced: it
    takes each pivot's slacks directly instead of a least detour per pair,
    but it repeats the axiom checks and the stop rule of
    `verify_pseudometric`, so it pins messages, not the axioms' reading.
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
    n = d.shape[0]
    worst = 0.0
    for k in range(n):
        # d[i,j] <= d[i,k] + d[k,j]; inf on the right never violates
        with np.errstate(invalid="ignore"):
            detour = d[:, k, None] + d[None, k, :]
            slack = d - detour
        finite = np.isfinite(slack)
        if finite.any():
            worst = max(worst, float(slack[finite].max()))
        bad_inf = np.isinf(d) & np.isfinite(detour)
        if bad_inf.any():
            problems.append(f"infinite distance with finite detour via {k}")
            break
    if worst > tol:
        problems.append(f"triangle inequality violated by {worst:.3g}")
    return problems


def refined_graph_oracle(disc, refinement=1):
    """`build_refined_graph` one lattice point at a time: every face is
    subdivided into ``refinement^2`` sub-triangles and each node is keyed
    in a dict on first sight.

    Sub-edge weights are target distances between node images; for
    Euclidean targets this is exactly the length of the affine image of the
    parameter segment, so graph paths are genuine image lengths of
    piecewise-straight parameter paths.
    """
    from catmin.mesh import RefinedGraph
    from catmin.targets import EuclideanSpace

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

    edge_set: set[tuple[int, int]] = set()
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
                    edge_set.add((min(here, there), max(here, there)))

    node_param = np.asarray(params)
    edges = np.asarray(sorted(edge_set), dtype=int)
    if euclidean:
        img = np.asarray(images)
        weights = np.linalg.norm(img[edges[:, 0]] - img[edges[:, 1]], axis=1)
    else:
        weights = np.asarray(
            [target.distance(images[u], images[v]) for u, v in edges], dtype=float
        )

    orig_index = np.asarray([vertex_node(i) for i in range(disc.n_vertices)], dtype=int)
    return RefinedGraph(
        node_param=node_param,
        node_images=images,
        edges=edges,
        weights=np.asarray(weights, dtype=float),
        orig_index=orig_index,
        refinement=r,
    )


def key_lemma_sampled_oracle(result, disc, samples=2000, seed=0, subdiv=8, refinement=2):
    """The key lemma's former sampled checks, on W's chord graph.

    Contraction: d_W(p x, p y) - d_mesh(x, y) over every pair of sample
    vertices, d_W read off the all-pairs table of ``W.surface_graph(subdiv)``
    and d_mesh off the refined mesh.  Shortness: d(q a, q b) - d_W(a, b) over
    ``samples`` random pairs of surface-graph nodes, q ruling each node to
    its fraction of the geodesic between the images of its segment's ends.
    Returns the two worst excesses and the number of pairs sampled.  The
    chord graph overestimates d_W, so these are evidence, not certificates.
    """
    from catmin.mesh import build_refined_graph

    w, gamma, target, sample = result.disc, result.graph, disc.target, result.sample
    g = build_refined_graph(disc, refinement)
    nodes = [int(g.orig_index[v]) for v in sample]
    d_mesh = g.shortest_paths(np.asarray(nodes))[:, nodes]
    sg = w.surface_graph(subdiv)
    dist_w, _ = sg.all_pairs()

    worst_contraction = -math.inf
    for i, x in enumerate(sample):
        for j in range(i + 1, len(sample)):
            dw = dist_w[sg.vertex_node(result.p_map[x]), sg.vertex_node(result.p_map[sample[j]])]
            worst_contraction = max(worst_contraction, float(dw - d_mesh[i, j]))

    p = gamma.points
    q_point = [target.geodesic_eval(p[u], p[v], t) for u, v, t in sg.nodes]
    rng = np.random.default_rng(seed)
    n_nodes = sg.n_nodes
    worst_shortness = -math.inf
    pairs_done = 0
    while n_nodes >= 2 and pairs_done < samples:
        need = samples - pairs_done
        a_idx = rng.integers(0, n_nodes, size=2 * need + 8)
        b_idx = rng.integers(0, n_nodes, size=2 * need + 8)
        for a, b in zip(a_idx.tolist(), b_idx.tolist()):
            if a == b:
                continue
            dy = target.distance(q_point[a], q_point[b])
            worst_shortness = max(worst_shortness, float(dy - dist_w[a, b]))
            pairs_done += 1
            if pairs_done >= samples:
                break
    if pairs_done == 0:
        worst_shortness = 0.0
    return {
        "contraction_max_excess": worst_contraction,
        "shortness_max_excess": worst_shortness,
        "shortness_pairs": pairs_done,
    }
