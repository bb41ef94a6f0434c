import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmin import induced
from catmin.induced import (
    connecting_on_graph,
    connecting_pseudometric,
    intrinsic_pseudometric,
    length_pseudometric,
    ordering_chain_report,
)
from catmin.mesh import MappedDisc, build_refined_graph
from catmin.meshgen import fan_disc, grid_disc, make_mapped_disc, random_height_disc
from catmin.pseudometric import verify_pseudometric

from oracles import (
    RuledEuclidean,
    all_pairs_dijkstra_oracle,
    bracket_connecting_oracle,
    connecting_matrix_oracle,
    exact_connecting_oracle,
    intrinsic_quotient_oracle,
    merge_forest_oracle,
    refined_graph_oracle,
)


def flat_grid_disc(k):
    vertices, triangles = grid_disc(k)
    images = np.column_stack([vertices, np.zeros(len(vertices))])
    return make_mapped_disc(vertices, triangles, images)


def saddle_grid_disc(k):
    vertices, triangles = grid_disc(k)
    x, y = vertices[:, 0], vertices[:, 1]
    images = np.stack([x, y, x * y], axis=1)
    return make_mapped_disc(vertices, triangles, images)


# ---------------------------------------------------------------- length


def test_length_constant_map_is_zero():
    vertices, triangles = fan_disc(5)
    images = np.ones((len(vertices), 3)) * 4.2
    disc = make_mapped_disc(vertices, triangles, images)
    d = length_pseudometric(disc, refinement=2).d
    assert np.allclose(d, 0.0)


def test_length_isometric_embedding_equals_skeleton_distances():
    disc = flat_grid_disc(3)
    got = length_pseudometric(disc, refinement=1).d
    edges = []
    img = np.asarray(disc.images)
    for u, v in disc.skeleton_edges():
        edges.append((u, v, float(np.linalg.norm(img[u] - img[v]))))
    # refinement 1 admits no face shortcuts on a flat mesh, only skeleton paths
    want = all_pairs_dijkstra_oracle(disc.n_vertices, edges)
    assert np.allclose(got, want, atol=1e-12)


def test_length_grid_saddle_matches_independent_dijkstra():
    disc = saddle_grid_disc(5)
    graph = build_refined_graph(disc, 1)
    got = length_pseudometric(disc, refinement=1, graph=graph).d
    edges = list(
        zip(
            graph.edges[:, 0].tolist(),
            graph.edges[:, 1].tolist(),
            graph.weights.tolist(),
        )
    )
    want = all_pairs_dijkstra_oracle(graph.n_nodes, edges)
    want = want[np.ix_(graph.orig_index, graph.orig_index)]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_length_monotone_under_nested_refinement():
    disc = saddle_grid_disc(3)
    d1 = length_pseudometric(disc, refinement=1).d
    d2 = length_pseudometric(disc, refinement=2).d
    d4 = length_pseudometric(disc, refinement=4).d
    assert np.all(d2 <= d1 + 1e-12)
    assert np.all(d4 <= d2 + 1e-12)


def test_length_output_verifies_as_pseudometric():
    for seed in range(5):
        disc = random_height_disc(seed, max_vertices=16)
        d = length_pseudometric(disc, refinement=2).d
        assert verify_pseudometric(d) == []


# ---------------------------------------------------------------- connecting


def test_connecting_constant_map_zero():
    vertices, triangles = fan_disc(4)
    images = np.zeros((len(vertices), 3))
    disc = make_mapped_disc(vertices, triangles, images)
    res = connecting_pseudometric(disc)
    assert res.exact
    assert np.allclose(res.upper.d, 0.0)


def test_connecting_path_graph_hand_value():
    # path v0-v1-v2 with images 0, 10, 1 on the line: the only connected set
    # joining the ends is all three vertices, with image diameter 10
    img = np.array([[0.0], [10.0], [1.0]])
    dimg = np.abs(img - img.T)
    res = connecting_on_graph(3, [(0, 1), (1, 2)], dimg)
    assert res.exact
    assert res.upper.d[0, 2] == pytest.approx(10.0)
    assert res.upper.d[0, 1] == pytest.approx(10.0)
    assert res.upper.d[1, 2] == pytest.approx(9.0)


def test_connecting_matches_exhaustive_oracle_on_random_graphs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        edges = [(i - 1, i) for i in range(1, n)]  # spanning path keeps it connected
        for _ in range(int(rng.integers(0, n))):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.append((min(u, v), max(u, v)))
        edges = sorted(set(edges))
        pts = rng.standard_normal((n, 3))
        dimg = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        got = connecting_on_graph(n, edges, dimg)
        assert got.exact
        want = connecting_matrix_oracle(n, edges, dimg)
        assert np.allclose(got.upper.d, want, atol=1e-12)


def test_connecting_bracket_is_sound_on_larger_graph():
    rng = np.random.default_rng(5)
    n = 18
    edges = [(i - 1, i) for i in range(1, n)]
    for _ in range(12):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    edges = sorted(set(edges))
    pts = rng.standard_normal((n, 3))
    dimg = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    res = connecting_on_graph(n, edges, dimg, exact_limit=14)
    assert not res.exact
    exact = connecting_on_graph(n, edges, dimg, exact_limit=n)
    assert np.all(res.lower <= exact.upper.d + 1e-12)
    assert np.all(exact.upper.d <= res.upper.d + 1e-12)
    assert verify_pseudometric(res.upper.d) == []


def random_graph(rng, n, extra):
    """A random graph on n vertices: a spanning path unless ``rng`` says
    otherwise, plus up to ``extra`` random edges."""
    edges = [(i - 1, i) for i in range(1, n)] if rng.random() < 0.8 else []
    for u, v in rng.integers(0, n, size=(extra, 2)).tolist():
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return sorted(set(edges))


def test_exact_connecting_bitwise_equals_subset_loop_on_random_graphs():
    # disconnected graphs leave infinite pairs; rounded points make ties
    rng = np.random.default_rng(41)
    for trial in range(150):
        n = int(rng.integers(1, 12))
        edges = random_graph(rng, n, int(rng.integers(0, 2 * n)))
        pts = rng.standard_normal((n, 3))
        if trial % 4 == 0:
            pts = np.round(pts)
        dimg = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        got = induced._exact_connecting(n, edges, dimg)
        assert got.tobytes() == exact_connecting_oracle(n, edges, dimg).tobytes(), trial


def test_exact_connecting_bitwise_equals_subset_loop_on_acceptance_discs():
    checked = 0
    for s in range(23):
        disc = random_height_disc(1000 + s, max_vertices=30)
        n = disc.n_vertices
        if n > induced.EXACT_CONNECTING_LIMIT:
            continue
        dimg = induced.vertex_image_distances(disc)
        got = induced._exact_connecting(n, disc.skeleton_edges(), dimg)
        assert got.tobytes() == exact_connecting_oracle(n, disc.skeleton_edges(), dimg).tobytes()
        checked += 1
    assert checked == 13


def test_bracket_bitwise_equals_oracle_on_random_graphs():
    rng = np.random.default_rng(43)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        edges = random_graph(rng, n, int(rng.integers(0, 2 * n)))
        pts = rng.standard_normal((n, 3))
        if trial % 4 == 0:
            pts = np.round(pts)
        dimg = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        assert_bracket_is_oracle(n, edges, dimg)


def smooth_grid_disc(k):
    """k x k grid disc mapped to a fixed low-frequency height field."""
    rng = np.random.default_rng(k)
    amp = rng.uniform(0.1, 0.6, size=3)
    freq = rng.uniform(0.5, 2.5, size=(3, 2))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=3)
    vertices, triangles = grid_disc(k)
    x, y = vertices[:, 0], vertices[:, 1]
    z = sum(amp[i] * np.sin(2.0 * math.pi * (freq[i, 0] * x + freq[i, 1] * y) + phase[i]) for i in range(3))
    return make_mapped_disc(vertices, triangles, np.stack([x, y, z], axis=1))


def assert_bracket_is_oracle(n, edges, dimg):
    lower, upper = induced._bracket_connecting(n, edges, dimg)
    want_lower, want_upper = bracket_connecting_oracle(n, edges, dimg)
    assert upper.tobytes() == want_upper.tobytes()
    assert lower.tobytes() == want_lower.tobytes()


@pytest.mark.parametrize("k", [10, 12])
def test_bracket_bitwise_equals_oracle_on_grid_discs(k):
    disc = smooth_grid_disc(k)
    assert_bracket_is_oracle(disc.n_vertices, disc.skeleton_edges(), induced.vertex_image_distances(disc))


def test_bracket_bitwise_equals_oracle_on_acceptance_discs():
    checked = 0
    for s in range(23):
        disc = random_height_disc(1000 + s, max_vertices=30)
        if disc.n_vertices <= induced.EXACT_CONNECTING_LIMIT:
            continue
        assert_bracket_is_oracle(disc.n_vertices, disc.skeleton_edges(), induced.vertex_image_distances(disc))
        checked += 1
    assert checked == 10


def test_bracket_bitwise_equals_oracle_with_infinite_distances():
    # two clusters at infinite image distance, a few infinite pairs inside
    # them, and an asymmetric copy: vertices beyond the first infinite
    # distance never enter, the merge forest has several trees, and a
    # merge's cross diameter is read with the entering side as rows
    rng = np.random.default_rng(17)
    n = 22
    edges = sorted({(i - 1, i) for i in range(1, n)} | {
        (int(min(u, v)), int(max(u, v))) for u, v in rng.integers(0, n, size=(14, 2)) if u != v
    })
    pts = rng.standard_normal((n, 3))
    dimg = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    half = n // 2
    dimg[:half, half:] = dimg[half:, :half] = np.inf
    for i, j in ((0, 3), (12, 19), (5, 8)):
        dimg[i, j] = dimg[j, i] = np.inf
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    forests = [induced._merge_forest(nbrs, dimg[c]) for c in range(n)]
    assert all(len(p) < n for p, *_ in forests)
    assert any(len(p) - len(lo) > 1 for p, lo, _, _ in forests)
    assert_bracket_is_oracle(n, edges, dimg)
    skew = dimg + np.triu(rng.uniform(0.0, 0.5, size=(n, n)), 1)
    assert_bracket_is_oracle(n, edges, skew)


def test_bracket_bitwise_equals_oracle_on_multirow_cross_blocks_with_ties():
    # a cycle with chords, image distances with few values per row: tied
    # vertices enter in index order, so a vertex often joins two components
    # grown apart, and the second merge's entering side holds several
    # leaves; its cross block then spans several rows of runs
    rng = np.random.default_rng(37)
    n = 24
    edges = [(i - 1, i) for i in range(1, n)] + [(0, n - 1), (2, 13), (7, 19)]
    ring = np.arange(n)
    gap = np.abs(ring[:, None] - ring[None, :])
    dimg = (np.minimum(gap, n - gap) // 3).astype(float)
    assert all(len(np.unique(row)) <= 5 for row in dimg)
    nbrs = neighbour_lists(n, edges)
    for dist in (dimg, dimg + np.triu(rng.integers(0, 2, size=(n, n)), 1)):
        forests = [induced._merge_forest(nbrs, dist[c]) for c in range(n)]
        assert any(np.any((mid - lo > 1) & (hi - mid > 1)) for _, lo, mid, hi in forests)
        assert_bracket_is_oracle(n, edges, dist)


@pytest.mark.parametrize("block_pairs", [0, 1 << 62], ids=["one_center", "all_centers"])
def test_bracket_blocks_of_one_center_and_of_all_centers_equal_oracle(monkeypatch, block_pairs):
    # a bound of 0 makes each center with a merge a block of its own; a
    # bound that no disc reaches makes all centers one block
    blocks = []
    scatter = induced._scatter_block

    def counted(forests, *args):
        blocks.append(len(forests))
        scatter(forests, *args)

    monkeypatch.setattr(induced, "BRACKET_BLOCK_PAIRS", block_pairs)
    monkeypatch.setattr(induced, "_scatter_block", counted)
    disc = smooth_grid_disc(10)
    assert_bracket_is_oracle(disc.n_vertices, disc.skeleton_edges(), induced.vertex_image_distances(disc))
    assert blocks == ([1] * 100 if block_pairs == 0 else [100])
    # the oracle cases above, run again under this bound
    test_bracket_bitwise_equals_oracle_on_acceptance_discs()
    test_bracket_bitwise_equals_oracle_with_infinite_distances()
    test_bracket_bitwise_equals_oracle_on_multirow_cross_blocks_with_ties()


@st.composite
def small_image_graphs(draw):
    """A graph on at most 10 vertices, connected or not, with vertex images
    in R^3; integer coordinates make tied distances."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n))) if pairs else set()
    if draw(st.booleans()):
        edges |= {(i - 1, i) for i in range(1, n)}
    coord = st.one_of(st.integers(-2, 2).map(float), st.floats(-2.0, 2.0))
    pts = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n)))
    return n, sorted(edges), np.linalg.norm(pts[:, None] - pts[None, :], axis=2)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(small_image_graphs())
def test_connecting_dp_and_bracket_against_the_brute_force_definition(graph):
    # against the definition itself, which shares no code with either: the
    # bitmask DP gives it exactly (both take maxima and minima of the same
    # entries); forced, the bracket has lower <= exact <= closed upper, and
    # its raw upper is within the docstring's factor 2 (to rounding of the
    # triangle inequality)
    n, edges, dimg = graph
    exact = connecting_matrix_oracle(n, edges, dimg)
    assert np.array_equal(connecting_on_graph(n, edges, dimg).upper.d, exact)
    res = connecting_on_graph(n, edges, dimg, exact_limit=0)
    assert not res.exact
    _, raw = induced._bracket_connecting(n, edges, dimg)
    assert np.all(res.lower <= exact + 1e-12)
    assert np.all(exact <= res.upper.d + 1e-12)
    assert np.all(raw <= 2.0 * exact + 1e-12)


def neighbour_lists(n, edges):
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def assert_forests_are_oracle(n, edges, dimg):
    nbrs = neighbour_lists(n, edges)
    for c in range(n):
        p, lo, mid, hi = induced._merge_forest(nbrs, dimg[c])
        p_oracle, merges = merge_forest_oracle(nbrs, dimg[c])
        assert p.tolist() == p_oracle, c
        assert np.column_stack([lo, mid, hi]).tolist() == [list(m) for m in merges], c


def rigidly_moved(disc, seed):
    """``disc`` with its images rotated and shifted, as the metrics
    benchmark moves its discs: the distances change in their last bits."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return make_mapped_disc(disc.vertices, disc.triangles, disc.images @ q.T + rng.uniform(-1.0, 1.0, size=3))


@pytest.mark.parametrize("k", [10, 12])
def test_merge_forest_equals_oracle_on_metrics_grids(k):
    for disc in (smooth_grid_disc(k), rigidly_moved(smooth_grid_disc(k), 3)):
        assert_forests_are_oracle(disc.n_vertices, disc.skeleton_edges(), induced.vertex_image_distances(disc))


def test_merge_forest_equals_oracle_on_acceptance_discs():
    checked = 0
    for s in range(23):
        disc = random_height_disc(1000 + s, max_vertices=30)
        if disc.n_vertices <= induced.EXACT_CONNECTING_LIMIT:
            continue
        assert_forests_are_oracle(disc.n_vertices, disc.skeleton_edges(), induced.vertex_image_distances(disc))
        checked += 1
    assert checked == 10


def test_merge_forest_ties_enter_in_stable_order():
    # on a path with one value everywhere, vertices enter as 0, 1, 2, 3 and
    # each joins the component of all earlier ones
    p, lo, mid, hi = induced._merge_forest(neighbour_lists(4, [(0, 1), (1, 2), (2, 3)]), np.zeros(4))
    assert p.tolist() == [3, 2, 1, 0]
    assert np.column_stack([lo, mid, hi]).tolist() == [[2, 3, 4], [1, 2, 4], [0, 1, 4]]
    rng = np.random.default_rng(29)
    for trial in range(20):
        n = int(rng.integers(2, 30))
        edges = random_graph(rng, n, int(rng.integers(0, 2 * n)))
        dimg = rng.integers(0, 3, size=(n, n)).astype(float)   # many ties per row
        assert_forests_are_oracle(n, edges, dimg)
        assert_forests_are_oracle(n, edges, np.zeros((n, n)))


def test_merge_forest_equals_oracle_with_infinite_tails_and_disconnected_skeleton():
    rng = np.random.default_rng(31)
    n = 24
    # two paths with a few chords, no edge between them
    edges = [(i - 1, i) for i in range(1, n) if i != n // 2]
    edges += [(0, 5), (3, 9), (12, 20), (14, 23)]
    pts = rng.standard_normal((n, 3))
    dimg = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    assert_forests_are_oracle(n, edges, dimg)
    p, lo, _, _ = induced._merge_forest(neighbour_lists(n, edges), dimg[0])
    assert sorted(p) == list(range(n)) and len(lo) == n - 2    # two trees
    tails = dimg.copy()
    far = rng.random((n, n)) < 0.3                                  # vertices never reached
    tails[far | far.T] = np.inf
    np.fill_diagonal(tails, 0.0)
    assert_forests_are_oracle(n, edges, tails)
    forests = [induced._merge_forest(neighbour_lists(n, edges), tails[c]) for c in range(n)]
    assert all(len(p) == n - np.isinf(tails[c]).sum() for c, (p, *_) in enumerate(forests))


def test_bracket_upper_is_closed_and_keeps_zero_classes():
    rng = np.random.default_rng(23)
    n = 20
    edges = [(i - 1, i) for i in range(1, n)] + [(0, 7), (3, 12), (9, 18)]
    pts = rng.standard_normal((n, 3))
    pts[4:7] = pts[4]           # a connected class with one image
    pts[15] = pts[10]           # same image, not joined by a zero chain
    dimg = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    res = connecting_on_graph(n, edges, dimg)
    assert not res.exact
    _, raw = induced._bracket_connecting(n, edges, dimg)
    assert verify_pseudometric(res.upper.d) == []
    assert np.all(res.upper.d <= raw)
    assert (res.upper.d < raw).any()
    assert np.array_equal(res.upper.d <= 1e-9, raw <= 1e-9)
    assert (raw <= 1e-9).sum() == n + 6


def test_ordering_chain_computes_connecting_once(monkeypatch):
    calls = []
    real = induced.connecting_pseudometric

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(induced, "connecting_pseudometric", counted)
    for disc in (random_height_disc(1002, max_vertices=30), random_height_disc(1001, max_vertices=30)):
        calls.clear()
        report = ordering_chain_report(disc, refinement=2)
        assert len(calls) == 1
        assert report["chain_holds"]


def test_connecting_below_length_on_random_instances():
    for seed in range(8):
        disc = random_height_disc(seed + 100, max_vertices=14)
        length = length_pseudometric(disc, refinement=1).d
        conn = connecting_pseudometric(disc)
        side = conn.upper.d if conn.exact else conn.lower
        assert np.all(side <= length + 1e-9)


def test_connecting_refinement_independent():
    disc = saddle_grid_disc(3)
    a = connecting_pseudometric(disc).upper.d
    b = connecting_pseudometric(disc).upper.d
    assert np.array_equal(a, b)  # depends only on the vertex set and skeleton


# ---------------------------------------------------------------- intrinsic


def test_intrinsic_equals_length_for_injective_embedding():
    disc = saddle_grid_disc(4)
    li = length_pseudometric(disc, refinement=2).d
    it = intrinsic_pseudometric(disc, zero_tol=1e-9, refinement=2).d
    assert np.allclose(li, it, atol=1e-12)


def collapsed_interior_disc():
    """7-vertex disc whose center is joined to a collapsed interior pair."""
    vertices = np.array(
        [
            (0.0, 0.0),
            (1.0, 0.0),
            (0.5, 0.9),
            (-0.5, 0.9),
            (-1.0, 0.0),
            (-0.5, -0.9),
            (0.5, -0.9),
        ]
    )
    triangles = np.array(
        [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6), (0, 6, 1)]
    )
    images = np.array(
        [
            (0.0, 0.0, 0.0),
            (1.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),  # collapsed with the center
            (-0.5, 0.9, 0.0),
            (-1.0, 0.0, 0.0),
            (-0.5, -0.9, 0.0),
            (0.5, -0.9, 0.0),
        ]
    )
    return make_mapped_disc(vertices, triangles, images)


def test_intrinsic_routes_through_collapsed_class():
    disc = collapsed_interior_disc()
    graph = build_refined_graph(disc, 1)
    it = intrinsic_pseudometric(disc, zero_tol=1e-9, refinement=1, graph=graph).d
    assert it[0, 2] == pytest.approx(0.0, abs=1e-12)

    # oracle: explicit quotient graph with vertices 0 and 2 merged,
    # rebuilt by hand over the skeleton at refinement 1
    merged = {2: 0}
    img = np.asarray(disc.images)
    edges = {}
    for u, v in disc.skeleton_edges():
        mu, mv = merged.get(u, u), merged.get(v, v)
        if mu == mv:
            continue
        w = float(np.linalg.norm(img[u] - img[v]))
        key = (min(mu, mv), max(mu, mv))
        edges[key] = min(edges.get(key, np.inf), w)
    ids = sorted({0, 1, 3, 4, 5, 6})
    remap = {v: i for i, v in enumerate(ids)}
    oracle_edges = [(remap[u], remap[v], w) for (u, v), w in edges.items()]
    want = all_pairs_dijkstra_oracle(len(ids), oracle_edges)
    for a in ids:
        for b in ids:
            assert it[a, b] == pytest.approx(want[remap[a]][remap[b]], abs=1e-12)


def _count_quotient_solves(monkeypatch):
    """Counter of the Dijkstra runs on the intrinsic quotient graph: the
    path graphs `induced` builds, not the refined graphs it reads."""
    calls = []

    class CountedPathGraph(induced.PathGraph):
        def shortest_paths(self, *args, **kwargs):
            calls.append(1)
            return super().shortest_paths(*args, **kwargs)

    monkeypatch.setattr(induced, "PathGraph", CountedPathGraph)
    return calls


def test_intrinsic_collapsed_class_builds_the_quotient(monkeypatch):
    calls = _count_quotient_solves(monkeypatch)
    disc = collapsed_interior_disc()
    got = intrinsic_pseudometric(disc, zero_tol=1e-9, refinement=1).d
    assert len(calls) == 1
    assert got.tobytes() == intrinsic_quotient_oracle(disc, 1e-9, 1).tobytes()


def test_intrinsic_without_zero_classes_is_the_length_matrix(monkeypatch):
    # no two vertices collapse: the quotient graph is the refined graph, and
    # its distances are the length matrix, which is returned as a copy
    calls = _count_quotient_solves(monkeypatch)
    for disc in [random_height_disc(1000 + s, max_vertices=30) for s in range(6)] + [saddle_grid_disc(5)]:
        length = length_pseudometric(disc, refinement=2)
        got = intrinsic_pseudometric(disc, refinement=2, length=length).d
        assert got is not length.d
        assert got.tobytes() == length.d.tobytes()
        assert got.tobytes() == intrinsic_quotient_oracle(disc, 1e-9, 2).tobytes()
    assert calls == []


def test_ordering_chain_on_random_instances():
    for seed in range(10):
        disc = random_height_disc(seed + 50, max_vertices=13)
        report = ordering_chain_report(disc, refinement=2)
        assert report["chain_holds"], (
            seed,
            report["worst_length_vs_intrinsic"],
            report["worst_intrinsic_vs_connecting"],
        )


def test_ordering_chain_matrices_are_finite():
    # a MappedDisc is connected: the chain compares finite matrices, exact,
    # bracketed and with a collapsed class alike
    discs = [random_height_disc(50, max_vertices=13), random_height_disc(1002, max_vertices=30),
             collapsed_interior_disc()]
    for disc in discs:
        report = ordering_chain_report(disc, refinement=2)
        conn = report["connecting"]
        for d in (report["length"].d, report["intrinsic"].d, conn.upper.d, conn.lower):
            assert np.isfinite(d).all()


def test_all_induced_matrices_verify_as_pseudometrics():
    for seed in (0, 7):
        disc = random_height_disc(seed + 300, max_vertices=12)
        assert verify_pseudometric(length_pseudometric(disc, 2).d) == []
        assert verify_pseudometric(intrinsic_pseudometric(disc, refinement=2).d) == []
        conn = connecting_pseudometric(disc)
        assert verify_pseudometric(conn.upper.d) == []


# ---------------------------------------------------------------- refined graph


@pytest.mark.parametrize("refinement", [1, 2, 3, 4])
def test_refined_graph_arrays_equal_pointwise_builder(refinement):
    # same node numbering (first appearance in the face walk), same edges
    # and weights, bit for bit
    discs = [random_height_disc(s, max_vertices=30) for s in range(4)] + [saddle_grid_disc(4)]
    general = discs[0]
    discs.append(MappedDisc(general.vertices, general.triangles, general.boundary_loop,
                            list(general.images), RuledEuclidean()))
    for disc in discs:
        got = build_refined_graph(disc, refinement)
        want = refined_graph_oracle(disc, refinement)
        for name in ("node_param", "edges", "weights", "orig_index"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        assert np.asarray(got.node_images).tobytes() == np.asarray(want.node_images).tobytes()
        assert got.refinement == want.refinement
