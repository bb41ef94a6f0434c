"""Factor a sampled disc map through a nonpositively curved polyhedral disc.

Given a mapped disc and a finite vertex sample F, the pipeline

1. joins all sample pairs by shortest paths in the refined mesh graph and
   unites them into an embedded graph (shared subpaths automatically become
   shared edges), each chain of mesh edges replaced by the target geodesic
   between its ends, its chord,
2. relaxes that graph relative to the pinned boundary sample A = F on the
   boundary loop,
3. fills its bounded faces with comparison-triangle fans and glues them
   into a polyhedral disc W,
4. maps each sample vertex to its W vertex (the contraction p) and every
   W triangle affinely onto the target triangle of its corners' images
   (the short map q).

Both hold by construction, and each is certified on every run by a check
linear in the size of W: no relaxed edge is longer than the initial
graph's chord it came from (`contraction_excess`), and W's sides and
bridges are as long as the target distances between their ends' images
(`shortness_excess`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import GraphInTarget, path_from
from .majorize import ANGLE_TOL, Cat0Report, PolyhedralDisc, boundary_and_area, cat0_certificate, glue_disc
from .mesh import MappedDisc, build_refined_graph
from .minimize import DESCENT_TOL, MinimizationCertificate, relax
__all__ = ["geodesic_graph", "run_key_lemma", "contraction_excess", "shortness_excess", "KeyLemmaResult"]

KEY_LEMMA_TOL = 1e-6  # largest contraction, boundary and shortness excess of a PASS
KEY_LEMMA_MAX_ITER = 5000  # relaxation sweeps


def _checked_sample(disc: MappedDisc, sample: list[int]) -> list[int]:
    """The sample as sorted distinct vertex indices of ``disc``."""
    sample = sorted(dict.fromkeys(int(v) for v in sample))
    if not sample:
        raise ValueError("sample must be nonempty")
    for v in (sample[0], sample[-1]):
        if not 0 <= v < disc.n_vertices:
            raise ValueError(f"sample vertex {v} outside range({disc.n_vertices})")
    return sample


def _union_paths(sources: list[int], pred: np.ndarray) -> set[tuple[int, int]]:
    """Union of shortest-path edge sets between all source-node pairs.

    ``pred`` holds one Dijkstra predecessor row per source, in order.
    """
    edges: set[tuple[int, int]] = set()
    for a_row, a_node in enumerate(sources):
        for b_node in sources[a_row + 1:]:
            path = path_from(pred[a_row], a_node, b_node)
            edges.update((min(u, v), max(u, v)) for u, v in zip(path, path[1:]))
    return edges


def geodesic_graph(
    disc: MappedDisc, sample: list[int], refinement: int = 2
) -> tuple[GraphInTarget, dict[int, int]]:
    """Embedded union of refined-mesh shortest paths between sample vertices.

    A `MappedDisc` is connected, so every pair of sample vertices is joined.
    Degree-2 chains between sample vertices and path intersections are
    contracted into single edges, each the target geodesic between the
    chain's ends, so the result is a small graph no longer than the paths;
    the rotation system is inherited from the parameter-plane embedding.
    Returns the graph and the map from mesh vertex index to graph vertex
    index.
    """
    sample = _checked_sample(disc, sample)
    g = build_refined_graph(disc, refinement)
    source_nodes = [int(g.orig_index[v]) for v in sample]
    _, pred = g.shortest_paths(np.asarray(source_nodes), return_predecessors=True)
    edge_set = _union_paths(source_nodes, pred)

    adj: dict[int, set[int]] = {}
    for u, v in edge_set:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for n in source_nodes:
        adj.setdefault(n, set())

    essential = {n for n in adj if len(adj[n]) != 2}
    essential.update(source_nodes)

    # walk maximal chains between essential nodes
    chains: list[list[int]] = []
    seen_dir: set[tuple[int, int]] = set()
    for start in sorted(essential):
        for first in sorted(adj[start]):
            if (start, first) in seen_dir:
                continue
            chain = [start, first]
            seen_dir.add((start, first))
            while chain[-1] not in essential:
                prev, cur = chain[-2], chain[-1]
                nxts = [w for w in adj[cur] if w != prev]
                nxt = nxts[0]
                seen_dir.add((cur, nxt))
                chain.append(nxt)
            seen_dir.add((chain[-1], chain[-2]))
            for a, b in zip(chain, chain[1:]):
                seen_dir.add((a, b))
                seen_dir.add((b, a))
            chains.append(chain)

    # keep parallel chains and loops distinct by promoting interior nodes
    final_chains: list[list[int]] = []
    used_pairs: set[tuple[int, int]] = set()

    def push(chain: list[int]):
        key = (min(chain[0], chain[-1]), max(chain[0], chain[-1]))
        if chain[0] == chain[-1] or key in used_pairs:
            if len(chain) >= 3:
                mid = len(chain) // 2
                push(chain[: mid + 1])
                push(chain[mid:])
                return
        used_pairs.add(key)
        final_chains.append(chain)

    for chain in chains:
        push(chain)

    graph_nodes = sorted(
        {c[0] for c in final_chains} | {c[-1] for c in final_chains} | set(source_nodes)
    )
    index_of = {n: i for i, n in enumerate(graph_nodes)}
    points = [g.node_images[n] for n in graph_nodes]
    positions = np.asarray([g.node_param[n] for n in graph_nodes])
    edges = []
    depart: dict[int, list[tuple[float, int]]] = {i: [] for i in range(len(graph_nodes))}
    for chain in final_chains:
        edges.append((index_of[chain[0]], index_of[chain[-1]]))
        for a, b in ((chain[0], chain[1]), (chain[-1], chain[-2])):
            vec = g.node_param[b] - g.node_param[a]
            ang = float(np.arctan2(vec[1], vec[0]))
            other = index_of[chain[-1]] if a == chain[0] else index_of[chain[0]]
            depart[index_of[a]].append((ang, other))
    rotation = [[w for _, w in sorted(depart[i], key=lambda t: (t[0], t[1]))] for i in range(len(graph_nodes))]

    boundary = disc.boundary_vertex_set()
    pinned = {index_of[g.orig_index[v]] for v in sample if v in boundary}
    gamma = GraphInTarget(
        points=points,
        edges=edges,
        pinned=pinned,
        rotation=rotation,
        target=disc.target,
        positions=positions,
    )
    vertex_map = {v: index_of[int(g.orig_index[v])] for v in sample}
    return gamma, vertex_map


@dataclass
class KeyLemmaResult:
    sample: list[int]
    boundary_sample: list[int]
    graph_initial: GraphInTarget | None
    graph: GraphInTarget | None
    certificate: MinimizationCertificate | None
    disc: PolyhedralDisc | None
    cat0: Cat0Report | None
    one_point: bool
    p_map: dict[int, int]
    verification: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.verification.get("ok", False))


def _one_point_result(sample, boundary_sample, note) -> KeyLemmaResult:
    """The factorization through a one-point space, which needs no check."""
    return KeyLemmaResult(
        sample=sample,
        boundary_sample=boundary_sample,
        graph_initial=None,
        graph=None,
        certificate=None,
        disc=None,
        cat0=None,
        one_point=True,
        p_map={v: 0 for v in sample},
        verification={
            "ok": True,
            "note": note,
            "contraction_max_excess": 0.0,
            "boundary_max_distance": 0.0,
            "shortness_max_excess": 0.0,
        },
    )


def run_key_lemma(
    disc: MappedDisc,
    sample: list[int],
    refinement: int = 2,
    shortness_samples: int = 2000,
    seed: int = 0,
    tol_descent: float = DESCENT_TOL,
    tol_angle: float = ANGLE_TOL,
) -> KeyLemmaResult:
    """Full factorization run with its certificates.

    Produces W and the vertex contraction p; the verification report
    records the worst per-edge contraction excess (`contraction_excess`),
    the boundary agreement and the worst per-side shortness excess of q
    (`shortness_excess`), each held to `KEY_LEMMA_TOL`.  The relaxation
    certificate holds to ``tol_descent`` and ``tol_angle``, and W's CAT(0)
    certificate to ``tol_angle``.  ``shortness_samples`` and ``seed`` have
    no effect, since no check samples; they stay only while
    ``bench/workloads.py`` passes them (ROADMAP item 9).
    """
    sample = _checked_sample(disc, sample)
    boundary = disc.boundary_vertex_set()
    boundary_sample = [v for v in sample if v in boundary]

    if not boundary_sample:
        # nothing pins the graph: a single point factors everything
        return _one_point_result(sample, [], "no boundary sample: one-point space")
    if len(sample) == 1:
        # the one-point space already satisfies the contraction and carries
        # the constant short map
        return _one_point_result(sample, boundary_sample, "single usable sample vertex: one-point space")

    gamma0, vmap = geodesic_graph(disc, sample, refinement)
    gamma, certificate = relax(
        gamma0, tol_descent=tol_descent, tol_angle=tol_angle, max_iter=KEY_LEMMA_MAX_ITER
    )
    w_disc, glue_report = glue_disc(gamma)
    cat0 = cat0_certificate(w_disc, tol_angle=tol_angle)

    worst_contraction = contraction_excess(w_disc, gamma0)
    worst_shortness = shortness_excess(w_disc, gamma)
    # boundary agreement: pinned vertices keep their original images
    worst_boundary = max(
        [0.0] + [disc.target.distance(gamma.points[vmap[v]], disc.images[v]) for v in boundary_sample]
    )

    ba = boundary_and_area(w_disc)
    ok = (
        worst_contraction <= KEY_LEMMA_TOL
        and worst_boundary <= KEY_LEMMA_TOL
        and worst_shortness <= KEY_LEMMA_TOL
        and cat0.ok
        and ba["isoperimetric_ok"]
    )
    verification = {
        "ok": bool(ok),
        "contraction_max_excess": worst_contraction,
        "boundary_max_distance": float(worst_boundary),
        "shortness_max_excess": worst_shortness,
        "cat0_pass": bool(cat0.ok),
        "isoperimetric_ok": bool(ba["isoperimetric_ok"]),
        "boundary_length": ba["boundary_length"],
        "area": ba["area"],
        "glue_witness_ok": bool(glue_report.witness_ok),
        "relax_converged": bool(certificate.converged),
        "tolerance": KEY_LEMMA_TOL,
    }
    return KeyLemmaResult(
        sample=sample,
        boundary_sample=boundary_sample,
        graph_initial=gamma0,
        graph=gamma,
        certificate=certificate,
        disc=w_disc,
        cat0=cat0,
        one_point=False,
        p_map=vmap,
        verification=verification,
    )


def _w_edges(w: PolyhedralDisc) -> tuple[np.ndarray, np.ndarray]:
    """End vertices and lengths of all triangle sides and bridges of W."""
    corners = np.asarray(w.tri_vertices, dtype=int).reshape(-1, 3)
    coords = np.asarray(w.tri_coords, dtype=float).reshape(-1, 3, 2)
    sides = np.stack([corners, np.roll(corners, -1, axis=1)], axis=-1).reshape(-1, 2)
    side_lengths = np.linalg.norm(coords - np.roll(coords, -1, axis=1), axis=-1).reshape(-1)
    bridges = np.asarray([(u, v) for u, v, _ in w.bridges], dtype=int).reshape(-1, 2)
    bridge_lengths = np.asarray([ln for _, _, ln in w.bridges], dtype=float)
    return np.concatenate([sides, bridges]), np.concatenate([side_lengths, bridge_lengths])


def contraction_excess(w: PolyhedralDisc, graph_initial: GraphInTarget) -> float:
    """Largest excess, over the graph's edges, of W's length for the edge
    (its shortest side or bridge joining the ends) over the initial graph's
    edge, the chord of the mesh polyline it replaced.  A mesh geodesic
    between samples is a chain of these polylines, each at least as long as
    its chord, so d_W(p x, p y) - d_mesh(x, y) is at most the sum of the
    chain's excesses: a maximum of 0 up to rounding certifies p."""
    ends, lengths = _w_edges(w)
    w_length: dict[tuple[int, int], float] = {}
    for (u, v), ln in zip(np.sort(ends, axis=1).tolist(), lengths.tolist()):
        w_length[u, v] = min(ln, w_length.get((u, v), np.inf))
    lengths0 = graph_initial.edge_lengths()
    return float(max(w_length[e] - ln0 for e, ln0 in lengths0.items()))


def shortness_excess(w: PolyhedralDisc, graph: GraphInTarget) -> float:
    """Largest |W length - target distance between its ends' images| over
    W's triangle sides and bridges, W's vertex v mapping to
    ``graph.points[v]``.  An affine map onto a triangle with the same sides
    is an isometry, so q is short on each face and bridge and hence for W's
    length metric.  (q's singular values on a sliver face are far less
    accurate than its sides.)"""
    ends, lengths = _w_edges(w)
    points = np.asarray(graph.points, dtype=float)
    images = graph.target.distances(points[ends[:, 0]], points[ends[:, 1]])
    return float(np.max(np.abs(lengths - images), initial=0.0))

