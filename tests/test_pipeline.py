import math
from dataclasses import replace

import numpy as np
import pytest

from catmin import pipeline
from catmin.induced import length_pseudometric
from catmin.majorize import GlueError, glue_disc
from catmin.mesh import build_refined_graph
from catmin.meshgen import grid_disc, make_mapped_disc, random_height_disc
from catmin.minimize import relax
from catmin.pipeline import (
    contraction_excess,
    geodesic_graph,
    run_key_lemma,
    shortness_excess,
)
from catmin.saddle import hexagon_counterexample, hexagon_graph

from oracles import all_pairs_dijkstra_oracle, key_lemma_sampled_oracle


def flat_grid(k):
    vertices, triangles = grid_disc(k)
    images = np.column_stack([vertices, np.zeros(len(vertices))])
    return make_mapped_disc(vertices, triangles, images)


def saddle_grid(k, c=1.0):
    vertices, triangles = grid_disc(k)
    x, y = vertices[:, 0], vertices[:, 1]
    images = np.stack([x, y, c * x * y], axis=1)
    return make_mapped_disc(vertices, triangles, images)


# ----------------------------------------------------------- geodesic graph


def test_two_point_sample_gives_single_path():
    disc = flat_grid(3)
    gamma, vmap = geodesic_graph(disc, [0, 8], refinement=1)
    assert set(vmap.keys()) == {0, 8}
    # a single shortest path contracts to one geodesic edge
    assert len(gamma.edges) == 1
    u, v = gamma.edges[0]
    assert {vmap[0], vmap[8]} == {u, v}
    # the path runs along the two cell diagonals through the grid center
    assert gamma.edge_length(u, v) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_three_point_sample_union_is_shortest_paths():
    disc = saddle_grid(4)
    g = build_refined_graph(disc, 1)
    gamma, vmap = geodesic_graph(disc, [0, 3, 12], refinement=1)
    edges = list(
        zip(g.edges[:, 0].tolist(), g.edges[:, 1].tolist(), g.weights.tolist())
    )
    oracle = all_pairs_dijkstra_oracle(g.n_nodes, edges)
    # each sample pair must be joined in Gamma at exactly the mesh distance
    lengths = {}
    nbrs = gamma.neighbors()
    import heapq

    def gamma_dist(a, b):
        dist = {a: 0.0}
        heap = [(0.0, a)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == b:
                return d
            if d > dist.get(u, np.inf):
                continue
            for w in nbrs[u]:
                nd = d + gamma.edge_length(u, w)
                if nd < dist.get(w, np.inf):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        return dist.get(b, np.inf)

    for a, b in [(0, 3), (0, 12), (3, 12)]:
        want = oracle[g.orig_index[a], g.orig_index[b]]
        assert gamma_dist(vmap[a], vmap[b]) == pytest.approx(want, abs=1e-9)
    assert gamma.spherical_diagnostics() == []  # built, so it passed the graph's checks


# ----------------------------------------------------------- key lemma


def test_interior_sample_gives_one_point_space():
    disc = flat_grid(3)
    res = run_key_lemma(disc, [4], refinement=1)
    assert res.one_point
    assert res.ok


def test_flat_quad_boundary_sample():
    disc = flat_grid(3)
    corners = [0, 2, 8, 6]
    res = run_key_lemma(disc, corners, refinement=2)
    assert not res.one_point
    assert res.ok, res.verification
    # W is isometric to the flat unit square: exact area, perimeter and
    # corner distances, with equality on the quad edges
    assert res.disc.area() == pytest.approx(1.0, abs=1e-9)
    assert res.disc.boundary_length() == pytest.approx(4.0, abs=1e-9)
    sg = res.disc.surface_graph(8)
    for a, b, want in [(0, 2, 1.0), (2, 8, 1.0), (8, 6, 1.0), (6, 0, 1.0),
                       (0, 8, np.sqrt(2.0)), (2, 6, np.sqrt(2.0))]:
        got, bound = sg.distance_with_bound(
            sg.vertex_node(res.p_map[a]), sg.vertex_node(res.p_map[b])
        )
        assert want - 1e-9 <= got <= want + bound


def test_saddle_disc_contraction_all_pairs():
    disc = saddle_grid(4, c=1.2)
    sample = [0, 3, 12, 15, 5, 10]
    res = run_key_lemma(disc, sample, refinement=2)
    assert res.ok, res.verification
    assert res.verification["contraction_max_excess"] <= 1e-6
    assert res.verification["shortness_max_excess"] <= 1e-6
    assert res.verification["boundary_max_distance"] <= 1e-6
    sampled = key_lemma_sampled_oracle(res, disc, samples=1500, seed=5)
    assert sampled["shortness_pairs"] == 1500
    assert sampled["contraction_max_excess"] <= 1e-6
    assert sampled["shortness_max_excess"] <= 1e-6
    # independent check against the mesh length pseudometric
    lp = length_pseudometric(disc, refinement=2).d
    sg = res.disc.surface_graph(8)
    d, _ = sg.all_pairs()
    for i, x in enumerate(sample):
        for y in sample[i + 1:]:
            dw = d[sg.vertex_node(res.p_map[x]), sg.vertex_node(res.p_map[y])]
            assert dw <= lp[x, y] + 1e-6


def test_random_instances_verify(tmp_path):
    for seed in (1, 2, 3):
        disc = random_height_disc(seed, max_vertices=16)
        boundary = sorted(disc.boundary_vertex_set())
        interior = [v for v in range(disc.n_vertices) if v not in boundary]
        sample = boundary[:3] + interior[:2]
        res = run_key_lemma(disc, sample, refinement=2)
        assert res.ok, (seed, res.verification)
        sampled = key_lemma_sampled_oracle(res, disc, samples=400, seed=seed)
        assert sampled["contraction_max_excess"] <= 1e-6, (seed, sampled)
        assert sampled["shortness_max_excess"] <= 1e-6, (seed, sampled)
        assert res.cat0.ok


@pytest.mark.parametrize("bad", [9, -1])
def test_sample_vertex_out_of_range_is_a_value_error(bad):
    disc = flat_grid(3)
    for run in (run_key_lemma, geodesic_graph):
        with pytest.raises(ValueError, match=f"sample vertex {bad} outside range\\(9\\)"):
            run(disc, [0, 2, bad], refinement=1)


def test_single_boundary_vertex_sample_is_one_point():
    disc = flat_grid(3)
    res = run_key_lemma(disc, [0], refinement=1)
    assert res.one_point and res.ok


def test_two_boundary_vertices_give_metric_tree():
    disc = flat_grid(3)
    res = run_key_lemma(disc, [0, 2], refinement=1)
    assert res.ok
    assert res.disc.n_triangles == 0
    assert len(res.disc.bridges) == 1
    assert res.cat0.ok  # a metric tree is flat and simply connected


# ------------------------------------------------------ known defect


def sweep_instance(s):
    """Instance s of the key-lemma robustness sweep
    (``bench/workloads.py::sweep_instance``)."""
    disc = random_height_disc(9000 + s, max_vertices=60, jitter=0.05 if s % 2 else 0.3)
    rng = np.random.default_rng(s)
    k = int(rng.integers(3, min(disc.n_vertices, 12) + 1))
    return disc, [int(v) for v in rng.choice(disc.n_vertices, k, replace=False)]


def _collapsing(raises, how):
    return pytest.mark.xfail(raises=raises, strict=True, reason=(
        "known defect: relax drives two free vertices together and an edge "
        f"collapses to ~1e-13; {how}"))


# The key lemma holds on every instance.  On these, relax collapses an edge
# and the run breaks; each passes once collapsing edges are contracted.
@pytest.mark.parametrize("s", [
    pytest.param(8, marks=_collapsing(GlueError, "the glue mismatch 1.49e-8 exceeds the absolute 1e-9")),
    pytest.param(53, marks=_collapsing(GlueError, "the glue mismatch 3.73e-9 exceeds the absolute 1e-9")),
    pytest.param(61, marks=_collapsing(GlueError, "W is rejected for zero boundary and bridge lengths")),
    pytest.param(52, marks=_collapsing(AssertionError, "degenerate fans fail the CAT(0) angle check")),
    pytest.param(84, marks=_collapsing(AssertionError, "degenerate fans fail the CAT(0) angle check")),
    pytest.param(99, marks=_collapsing(AssertionError, "degenerate fans fail the CAT(0) angle check")),
    pytest.param(106, marks=_collapsing(AssertionError, "degenerate fans fail the CAT(0) angle check")),
])
def test_key_lemma_passes_on_collapsing_sweep_instance(s):
    disc, sample = sweep_instance(s)
    result = run_key_lemma(disc, sample)
    assert result.ok, result.verification


# The key lemma holds on a disc however large.  Glue compares W's side
# lengths with the absolute GLUE_TOL, so at 1e7 rounding (1.6e-16 of the
# disc's size) breaks it (ROADMAP item 16).
@pytest.mark.parametrize("scale", [
    1.0,
    1e5,
    pytest.param(1e7, marks=pytest.mark.xfail(raises=GlueError, strict=True, reason=(
        "known defect (ROADMAP item 16): gluing length mismatch 1.63e-09 beyond the absolute 1e-09"))),
])
def test_key_lemma_passes_on_a_scaled_disc(scale):
    vertices, triangles = grid_disc(8)
    x, y = vertices[:, 0], vertices[:, 1]
    images = np.stack([x, y, 0.6 * np.sin(3.0 * x) * np.cos(2.0 * y)], axis=1)
    disc = make_mapped_disc(vertices, triangles, scale * images)
    result = run_key_lemma(disc, list(range(0, disc.n_vertices, 3)))
    assert result.ok, result.verification


# ------------------------------------------------------ what the stages rely on


def test_refined_graph_rows_are_finite_from_every_vertex():
    # a MappedDisc is connected, so Dijkstra from any vertex reaches every
    # refined node: each sample vertex is joined to every other one
    discs = [sweep_instance(s)[0] for s in range(120)]
    discs += [saddle_grid(k, 1.2) for k in (3, 8, 12, 16)] + [flat_grid(5)]
    for disc in discs:
        g = build_refined_graph(disc, 2)
        assert np.isfinite(g.shortest_paths(g.orig_index)).all()


def test_zero_length_sub_edges_join_their_ends():
    # a disc whose images all coincide has only sub-edges of length 0, and
    # the path graph keeps them as edges: every row is finite, all zero
    vertices, triangles = grid_disc(3)
    disc = make_mapped_disc(vertices, triangles, np.zeros((len(vertices), 3)))
    g = build_refined_graph(disc, 2)
    assert not g.weights.any()
    assert not g.shortest_paths(g.orig_index).any()


def uses_each_directed_edge_once(graph):
    steps = [(u, v) for walk in graph.faces() for u, v in zip(walk, walk[1:] + walk[:1])]
    return sorted(steps) == sorted([(u, v) for u, v in graph.edges] + [(v, u) for u, v in graph.edges])


@pytest.mark.parametrize("s", [0, 1, 2, 3, 14, 22])
def test_face_walks_use_each_directed_edge_once(s):
    # so an edge bounds at most two of the polygons glue_disc fills
    disc, sample = sweep_instance(s)
    gamma, _ = geodesic_graph(disc, sample)
    assert uses_each_directed_edge_once(gamma)


def test_hexagon_graph_face_walks_use_each_directed_edge_once():
    assert uses_each_directed_edge_once(hexagon_graph())


@pytest.mark.parametrize("disc, sample", [
    (hexagon_counterexample(), [0, 2, 4, 6]),
    (hexagon_counterexample(), [0]),
    (hexagon_counterexample(), [7]),
    (hexagon_counterexample(), [0, 7, 8]),
    (saddle_grid(4, c=1.2), [0, 3, 12, 15, 5, 10]),
    sweep_instance(0),
    sweep_instance(3),
])
def test_p_map_covers_exactly_the_sample(disc, sample):
    res = run_key_lemma(disc, sample)
    assert sorted(res.p_map) == res.sample == sorted(set(sample))


# ------------------------------------------------------ certificates


def keylemma_grid_instance(k):
    """The k x k grid disc of z = 1.2xy and its sample, as the benchmark's
    ``keylemma_grid`` workload builds them (before its rigid motion): 8
    boundary vertices spread along the loop and 3 random interior ones."""
    disc = saddle_grid(k, 1.2)
    loop = list(disc.boundary_loop)
    interior = sorted(set(range(disc.n_vertices)) - set(loop))
    sample = [loop[(j * len(loop)) // 8] for j in range(8)]
    return disc, sample + [int(v) for v in np.random.default_rng(k).choice(interior, size=3, replace=False)]


# W of sweep instances 14, 22 and 31 has a sliver face (area 4.1e-9, 2.4e-10
# and 6.6e-16) whose sides agree with the target's to rounding, while the
# largest singular value of q's linear part on it exceeds 1 by 0.49, 0.60
# and 5.6e-5: the side comparison certifies q where that test would not.
# On the hexagon relax moves a vertex by 0.50, and every W edge is still no
# longer than the initial graph's edge it came from
@pytest.mark.parametrize("disc, sample", [
    pytest.param(*sweep_instance(14), id="14"),
    pytest.param(*sweep_instance(22), id="22"),
    pytest.param(*sweep_instance(31), id="31"),
    pytest.param(hexagon_counterexample(), [0, 2, 4, 6], id="hexagon"),
    pytest.param(*keylemma_grid_instance(8), id="grid8"),
    pytest.param(*keylemma_grid_instance(12), id="grid12"),
])
def test_key_lemma_certifies_shortness_on_sliver_faces(disc, sample):
    result = run_key_lemma(disc, sample)
    assert result.ok, result.verification
    assert result.verification["shortness_max_excess"] <= 1e-12
    assert result.verification["contraction_max_excess"] <= 1e-12


def test_key_lemma_holds_its_certificates_to_the_given_tolerances():
    # the instance block's descent and angle reach relax and the CAT(0) test
    res = run_key_lemma(saddle_grid(4, c=1.2), [0, 3, 12, 15, 5, 10], tol_descent=0.5, tol_angle=0.25)
    assert (res.certificate.tol_descent, res.certificate.tol_angle) == (0.5, 0.25)
    assert res.cat0.tol_angle == 0.25


def test_key_lemma_reports_its_certificates():
    disc = saddle_grid(4, c=1.2)
    res = run_key_lemma(disc, [0, 3, 12, 15, 5, 10], refinement=2)
    assert res.verification["contraction_max_excess"] == contraction_excess(res.disc, res.graph_initial)
    assert res.verification["shortness_max_excess"] == shortness_excess(res.disc, res.graph)
    assert "shortness_pairs" not in res.verification


def test_key_lemma_builds_two_graphs(monkeypatch):
    # the geodesic graph and relax's one straightened copy of it
    from catmin.graphs import GraphInTarget

    built = []
    post_init = GraphInTarget.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(GraphInTarget, "__post_init__", counted)
    res = run_key_lemma(*keylemma_grid_instance(8))
    assert res.verification["ok"]
    assert [id(g) for g in built] == [id(res.graph_initial), id(res.graph)]


def test_key_lemma_traces_faces_once(monkeypatch):
    # certifying and gluing read the relaxed graph's faces four times; its
    # edges and rotation never change, so they are traced once
    from catmin.graphs import GraphInTarget

    traced = []
    trace = GraphInTarget._trace_faces

    def counted(self):
        traced.append(self)
        return trace(self)

    monkeypatch.setattr(GraphInTarget, "_trace_faces", counted)
    disc = saddle_grid(12, 1.2)
    loop = list(disc.boundary_loop)
    sample = [loop[(j * len(loop)) // 8] for j in range(8)] + [40, 77, 100]
    res = run_key_lemma(disc, sample)
    assert res.verification["ok"]
    assert [g is res.graph for g in traced] == [True]


def test_shortness_certificate_fails_on_a_doctored_face(monkeypatch):
    # one W triangle shrunk by 1 %: its sides no longer match the target
    # triangle, so q is not certified short on it
    tol = 1e-6

    def doctored_glue(graph):
        w, report = glue_disc(graph)
        w.tri_coords[0] = 0.99 * w.tri_coords[0]
        return w, report

    monkeypatch.setattr(pipeline, "glue_disc", doctored_glue)
    res = run_key_lemma(saddle_grid(4, c=1.2), [0, 3, 12, 15, 5, 10], refinement=2)
    assert res.verification["shortness_max_excess"] > tol
    assert res.verification["contraction_max_excess"] <= tol
    assert not res.ok


def test_shortness_certificate_fails_on_a_doctored_bridge():
    res = run_key_lemma(flat_grid(3), [0, 2], refinement=1)
    u, v, ln = res.disc.bridges[0]
    res.disc.bridges[0] = (u, v, ln - 0.01)
    assert shortness_excess(res.disc, res.graph) == pytest.approx(0.01, abs=1e-12)


def test_contraction_certificate_fails_on_a_lengthened_edge(monkeypatch):
    # relax moves a free vertex off its place: the edges there grow longer
    # than the initial chords, W follows the moved graph, and p is no longer
    # certified a contraction
    tol = 1e-6

    def doctored_relax(graph, **kwargs):
        relaxed, certificate = relax(graph, **kwargs)
        free = min(set(range(relaxed.n_vertices)) - relaxed.pinned)
        points = list(relaxed.points)
        points[free] = points[free] + np.array([0.0, 0.0, 0.05])
        return replace(relaxed, points=points), certificate

    monkeypatch.setattr(pipeline, "relax", doctored_relax)
    res = run_key_lemma(saddle_grid(4, c=1.2), [0, 3, 12, 15, 5, 10], refinement=2)
    assert res.verification["contraction_max_excess"] > tol
    assert res.verification["shortness_max_excess"] <= tol
    assert not res.ok
