import math
import weakref

import numpy as np
import pytest

from catmin.graphs import GraphInTarget, PathGraph, path_from, path_hops, walk_back, rotation_from_positions
from catmin.majorize import (
    GlueError,
    PolyhedralDisc,
    SurfaceGraph,
    boundary_and_area,
    cat0_certificate,
    comparison_triangle,
    cone_disc,
    cut_vertices,
    eps_net_report,
    face_majorant,
    glue_disc,
    strip_disc,
    thin_triangle_test,
)
from catmin import majorize
from catmin.meshgen import grid_disc, make_mapped_disc
from catmin.pipeline import run_key_lemma
from catmin.targets import EuclideanSpace, angle_from_sides
from scipy.sparse.csgraph import dijkstra

from oracles import (
    RuledEuclidean,
    articulation_oracle,
    cone_distance_oracle,
    eps_net_oracle,
    surface_graph_matrix_oracle,
    thin_triangle_test_oracle,
)


def euclidean_graph(points, edges, pinned=()):
    points = [np.asarray(p, float) for p in points]
    positions = np.asarray([p[:2] for p in points])
    rotation = rotation_from_positions(len(points), edges, positions)
    return GraphInTarget(
        points=points,
        edges=edges,
        pinned=set(pinned),
        rotation=rotation,
        target=EuclideanSpace(len(points[0])),
        positions=positions,
    )


# ---------------------------------------------------------- comparison


def test_comparison_equilateral_angles():
    tri = comparison_triangle(1.0, 1.0, 1.0)
    for ang in tri.corner_angles():
        assert ang == pytest.approx(math.pi / 3, abs=1e-12)


def test_comparison_pythagorean_right_angle():
    tri = comparison_triangle(3.0, 4.0, 5.0)
    # the corner opposite the side of length 5 is the third one
    assert tri.corner_angles()[2] == pytest.approx(math.pi / 2, abs=1e-12)
    d01 = np.linalg.norm(tri.coords[0] - tri.coords[1])
    d02 = np.linalg.norm(tri.coords[0] - tri.coords[2])
    d12 = np.linalg.norm(tri.coords[1] - tri.coords[2])
    assert (d12, d02, d01) == pytest.approx((3.0, 4.0, 5.0), abs=1e-12)


def test_comparison_collinear_flagged():
    tri = comparison_triangle(2.0, 1.0, 1.0)
    # Z lies on the line XY, opposite Y: a straight angle at X
    assert tri.coords[:, 1] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
    assert tri.corner_angles() == pytest.approx((math.pi, 0.0, 0.0), abs=1e-12)


def test_comparison_rejects_bad_sides():
    with pytest.raises(GlueError):
        comparison_triangle(3.0, 1.0, 1.0)


def test_face_majorant_flat_triangle_congruent():
    pts = [np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), np.array([0.3, 0.8, 0.0])]
    maj = face_majorant(pts, EuclideanSpace(3))
    assert len(maj.triangles) == 1
    assert maj.witness_ok
    for planar, target in zip(maj.corner_planar, maj.corner_target):
        assert planar == pytest.approx(target, abs=1e-12)


def test_face_majorant_quad_is_two_triangle_fan():
    pts = [
        np.array([0.0, 0.0, 0.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([1.0, 1.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
    ]
    maj = face_majorant(pts, EuclideanSpace(3))
    assert len(maj.triangles) == 2
    assert maj.witness_ok
    # flat quad: angles add up to the planar corner angles exactly
    assert maj.corner_planar[0] == pytest.approx(math.pi / 2, abs=1e-12)


# ---------------------------------------------------------- gluing


def test_glue_single_triangle_face():
    g = euclidean_graph(
        [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.5, 1.5, 0.0)],
        [(0, 1), (1, 2), (0, 2)],
    )
    disc, report = glue_disc(g)
    assert disc.n_triangles == 1
    assert not disc.bridges
    assert report.witness_ok
    ba = boundary_and_area(disc)
    per = sum(g.edge_length(*e) for e in g.edges)
    assert ba["boundary_length"] == pytest.approx(per, abs=1e-12)
    assert ba["isoperimetric_ok"]


def test_glue_two_triangles_shared_edge():
    g = euclidean_graph(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)],
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
    )
    disc, report = glue_disc(g)
    assert disc.n_triangles == 2
    assert len(disc.gluings) == 1
    assert report.max_length_drift <= 1e-9
    cert = cat0_certificate(disc)
    assert cert.interior_vertices == []  # all four vertices on the boundary
    assert cert.ok


def test_glue_whisker_becomes_bridge():
    g = euclidean_graph(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 1.0, 0.0), (1.8, 0.4, 0.0)],
        [(0, 1), (1, 2), (0, 2), (1, 3)],
    )
    disc, _ = glue_disc(g)
    assert disc.n_triangles == 1
    assert disc.bridges == [(1, 3, pytest.approx(g.edge_length(1, 3)))]
    assert len(disc.used_vertices()) - disc.n_edges() + disc.n_triangles == 1


def test_glue_tree_gives_metric_tree():
    g = euclidean_graph(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 0.0, 0.0)],
        [(0, 1), (1, 2), (1, 3)],
    )
    disc, _ = glue_disc(g)
    assert disc.n_triangles == 0
    assert len(disc.bridges) == 3
    assert cat0_certificate(disc).ok  # a metric tree is flat and simply connected
    sg = disc.surface_graph(subdiv=4)
    d = sg.distance(sg.vertex_node(0), sg.vertex_node(3))
    assert d == pytest.approx(2.0, abs=1e-12)


def test_glue_hexagonal_wheel_interior_full_turn():
    pts = [(0.0, 0.0, 0.0)] + [
        (math.cos(k * math.pi / 3), math.sin(k * math.pi / 3), 0.0) for k in range(6)
    ]
    edges = [(0, k) for k in range(1, 7)] + [
        (min(k, k % 6 + 1), max(k, k % 6 + 1)) for k in range(1, 7)
    ]
    g = euclidean_graph(pts, sorted(set(edges)))
    disc, report = glue_disc(g)
    assert disc.n_triangles == 6
    cert = cat0_certificate(disc)
    assert cert.interior_vertices == [0]
    assert cert.angle_sums[0] == pytest.approx(2 * math.pi, abs=1e-12)
    assert cert.ok


# ---------------------------------------------------------- cones


def test_cone_certificates_by_total_angle():
    five_flat = cone_disc(5 * math.pi / 3, 5)  # five equilateral triangles
    assert five_flat.side_length(0, 1) == pytest.approx(1.0)
    cert = cat0_certificate(five_flat)
    assert cert.interior_vertices == [0]
    assert cert.angle_sums[0] == pytest.approx(5 * math.pi / 3, abs=1e-12)
    assert not cert.ok

    six_flat = cone_disc(2 * math.pi, 6)
    assert cat0_certificate(six_flat).ok

    seven = cone_disc(7 * math.pi / 3, 7)
    cert7 = cat0_certificate(seven)
    assert cert7.angle_sums[0] == pytest.approx(7 * math.pi / 3, abs=1e-12)
    assert cert7.ok


def test_cone_spoke_distances_match_unfolding_oracle():
    total = 5 * math.pi / 2
    n = 5
    cone = cone_disc(total, n)
    sg = cone.surface_graph(subdiv=16)
    dist, _ = sg.all_pairs()
    apex_node = sg.vertex_node(0)
    # rim vertices sit at radius 1, azimuth i * total/n in developing coords
    for i in range(n):
        for j in range(i + 1, n):
            want = cone_distance_oracle(total, 1.0, i * total / n, 1.0, j * total / n)
            got = dist[sg.vertex_node(1 + i), sg.vertex_node(1 + j)]
            _, bound = sg.distance_with_bound(sg.vertex_node(1 + i), sg.vertex_node(1 + j))
            assert want - 1e-9 <= got <= want + bound
        assert dist[apex_node, sg.vertex_node(1 + i)] == pytest.approx(1.0, abs=1e-9)


def test_thin_triangles_flat_strip():
    disc = strip_disc((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    rep = thin_triangle_test(disc, samples=400, seed=1, subdiv=12)
    assert rep["samples"] == 400
    assert not rep["violation_found"]


def test_thin_triangles_nonpositive_cone_passes():
    cone = cone_disc(5 * math.pi / 2, 5)
    rep = thin_triangle_test(cone, samples=600, seed=2, subdiv=20)
    assert rep["samples"] == 600
    assert not rep["violation_found"], rep


def test_thin_triangles_positive_cone_fails():
    cone = cone_disc(3 * math.pi / 2, 3)
    rep = thin_triangle_test(cone, samples=600, seed=3, subdiv=20)
    assert rep["violation_found"], rep
    assert rep["worst_violation"] > rep["allowance"]


@pytest.mark.parametrize("samples", [0, -5])
def test_thin_triangle_test_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        thin_triangle_test(cone_disc(5 * math.pi / 2, 5), samples=samples, subdiv=4)


# 0.1 and 0.099 both report as "L/10", where the second net hid the first
@pytest.mark.parametrize("fracs", [(0.0,), (-0.1,), (0.1, math.nan), (math.inf,), (), (0.1, 0.099)])
def test_eps_net_report_needs_positive_fractions(fracs):
    with pytest.raises(ValueError, match="eps_fracs"):
        eps_net_report(cone_disc(5 * math.pi / 2, 5), eps_fracs=fracs, subdiv=4)


def test_thin_triangle_test_reports_its_attempts():
    strip = strip_disc((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    rep = thin_triangle_test(strip, samples=400, seed=1, subdiv=12)
    assert rep["samples"] == 400 and rep["attempts"] >= 400
    # at subdiv 1 every side is within 4 gaps: the run keeps no triangle,
    # and a run that measured nothing has no verdict to report
    with pytest.raises(ValueError, match=r"attempts 300\b.*max_gap"):
        thin_triangle_test(strip, samples=10, seed=1, subdiv=1)


def thin_oracle_cases(saddle_w):
    return [
        ("cone3pi/2", cone_disc(3 * math.pi / 2, 3), 20, 600),
        ("cone5pi/2", cone_disc(5 * math.pi / 2, 5), 20, 600),
        ("strip", strip_disc((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)), 12, 400),
        ("saddle_w", saddle_w, 8, 300),
    ]


def test_thin_triangle_verdicts_equal_the_loop_oracle(saddle_w):
    for name, disc, subdiv, samples in thin_oracle_cases(saddle_w):
        for seed in range(5):
            got = thin_triangle_test(disc, samples=samples, seed=seed, subdiv=subdiv)
            want = thin_triangle_test_oracle(disc, samples=samples, seed=seed, subdiv=subdiv)
            for key in ("samples", "violation_found", "allowance", "max_gap"):
                assert got[key] == want[key], (name, seed, key)


def test_thin_triangle_worst_case_recomputes_its_violation(saddle_w):
    for name, disc, subdiv, samples in thin_oracle_cases(saddle_w):
        rep = thin_triangle_test(disc, samples=samples, seed=7, subdiv=subdiv)
        nodes = rep["worst_case_nodes"]
        assert all(type(v) is int for v in nodes), name
        a, b, c, p, q = nodes
        sg = disc.surface_graph(subdiv)
        dist, _ = sg.all_pairs()
        assert p in sg.path_nodes(a, b)[1:-1] and q in sg.path_nodes(a, c)[1:-1], name
        ab, ac = dist[a, b], dist[a, c]
        x, y, z = comparison_triangle(dist[b, c], ac, ab).coords
        p_bar = x + (y - x) * (dist[a, p] / ab)
        q_bar = x + (z - x) * (dist[a, q] / ac)
        violation = dist[p, q] - np.linalg.norm(p_bar - q_bar)
        assert violation == pytest.approx(rep["worst_violation"], rel=1e-12, abs=0), name


def test_thin_triangle_test_repeats_per_seed():
    cone = cone_disc(3 * math.pi / 2, 3)
    rep = thin_triangle_test(cone, samples=500, seed=11, subdiv=12)
    assert thin_triangle_test(cone, samples=500, seed=11, subdiv=12) == rep
    assert thin_triangle_test(cone, samples=500, seed=12, subdiv=12) != rep


# ---------------------------------------------------------- strip oracle


def test_strip_distance_matches_planar_unfolding():
    disc = strip_disc((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    sg = disc.surface_graph(subdiv=10)
    # apexes unfold to (0.5, +-sqrt(3)/2); the joining segment crosses the
    # shared edge at its midpoint, which is a subdivision node
    got, bound = sg.distance_with_bound(sg.vertex_node(2), sg.vertex_node(3))
    assert got == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert bound >= 0.0
    # an asymmetric pair still matches within the declared bound
    sg2 = disc.surface_graph(subdiv=9)
    got2, bound2 = sg2.distance_with_bound(sg2.vertex_node(2), sg2.vertex_node(3))
    assert math.sqrt(3.0) - 1e-9 <= got2 <= math.sqrt(3.0) + bound2


# ---------------------------------------------------------- reports


def test_boundary_and_area_unit_triangle():
    g = euclidean_graph(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, math.sqrt(3) / 2, 0.0)],
        [(0, 1), (1, 2), (0, 2)],
    )
    disc, _ = glue_disc(g)
    ba = boundary_and_area(disc)
    assert ba["boundary_length"] == pytest.approx(3.0, abs=1e-12)
    assert ba["area"] == pytest.approx(math.sqrt(3) / 4, abs=1e-12)
    assert ba["isoperimetric_ok"]


def test_cut_vertices_single_triangle_none():
    g = euclidean_graph(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 1.0, 0.0)],
        [(0, 1), (1, 2), (0, 2)],
    )
    disc, _ = glue_disc(g)
    assert cut_vertices(disc)["cut_vertices"] == []


def test_cut_vertices_two_triangles_sharing_vertex():
    tri = comparison_triangle(1.0, 1.0, 1.0)
    disc = PolyhedralDisc(
        tri_coords=[tri.coords, tri.coords],
        tri_vertices=[(0, 1, 2), (2, 3, 4)],
        gluings=[],
        bridges=[],
        boundary_walk=[0, 1, 2, 3, 4, 2],
        boundary_lengths=[1.0] * 6,
        n_vertices=5,
    )  # built, so it passed the disc's checks
    out = cut_vertices(disc)
    assert out["cut_vertices"] == [2]
    assert articulation_oracle(5, disc.skeleton_edges()) == [2]


def test_polyhedral_disc_is_checked_when_built():
    tri = comparison_triangle(1.0, 1.0, 1.0)
    with pytest.raises(GlueError) as err:
        PolyhedralDisc(
            tri_coords=[tri.coords],
            tri_vertices=[(0, 1, 2)],
            gluings=[],
            bridges=[],
            boundary_walk=[0, 1, 2],
            boundary_lengths=[1.0, 0.0, 1.0],
            n_vertices=3,
        )
    assert err.value.problems == ["boundary_lengths[1] = 0.0 is not a finite positive length"]
    assert str(err.value) == "invalid PolyhedralDisc: " + err.value.problems[0]


def test_graph_is_checked_when_built():
    with pytest.raises(ValueError) as err:
        euclidean_graph([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(0, 1)])
    assert err.value.problems == ["graph is not connected"]
    assert str(err.value) == "invalid GraphInTarget: graph is not connected"


@pytest.mark.parametrize("target", [EuclideanSpace(3), RuledEuclidean()], ids=["euclidean", "general"])
def test_graph_rejects_non_finite_points_on_any_target(target):
    points = [np.array([0.0, 0.0, 0.0]), np.array([np.nan, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])]
    edges = [(0, 1), (1, 2), (0, 2)]
    positions = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
    with pytest.raises(ValueError) as err:
        GraphInTarget(points, edges, set(), rotation_from_positions(3, edges, positions), target, positions)
    assert err.value.problems == [f"points[1] is not a finite point of {target!r}"]


def test_cut_vertices_bowtie_chain():
    tri = comparison_triangle(1.0, 1.0, 1.0)
    disc = PolyhedralDisc(
        tri_coords=[tri.coords] * 3,
        tri_vertices=[(0, 1, 2), (2, 3, 4), (4, 5, 6)],
        gluings=[],
        bridges=[],
        boundary_walk=[0, 1, 2, 3, 4, 5, 6, 4, 2],
        boundary_lengths=[1.0] * 9,
        n_vertices=7,
    )
    out = cut_vertices(disc)
    assert out["cut_vertices"] == [2, 4]
    assert articulation_oracle(7, disc.skeleton_edges()) == [2, 4]
    assert len(out["blocks"]) == 3


def _blocks_of(nx, vertices, edges):
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    return sorted(sorted(b) for b in nx.biconnected_components(g))


def test_cut_vertices_and_blocks_match_oracles_on_random_graphs():
    # forests, cycles with chords, isolated vertices, several components
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(47)
    for trial in range(300):
        n = int(rng.integers(1, 16))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 2)), 2)).tolist()
        edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
        cuts, blocks = majorize._biconnected(list(range(n)), edges)
        assert sorted(cuts) == articulation_oracle(n, edges), trial
        assert sorted(sorted(b) for b in blocks) == _blocks_of(nx, range(n), edges), trial


def test_cut_vertices_and_blocks_match_oracles_on_glued_discs():
    nx = pytest.importorskip("networkx")
    tri = comparison_triangle(1.0, 1.0, 1.0)
    chain = PolyhedralDisc(
        tri_coords=[tri.coords] * 3,
        tri_vertices=[(0, 1, 2), (2, 3, 4), (4, 5, 6)],
        gluings=[],
        bridges=[],
        boundary_walk=[0, 1, 2, 3, 4, 5, 6, 4, 2],
        boundary_lengths=[1.0] * 9,
        n_vertices=7,
    )
    vertices, triangles = grid_disc(6)
    x, y = vertices[:, 0], vertices[:, 1]
    grid = make_mapped_disc(vertices, triangles, np.stack([x, y, 1.2 * x * y], axis=1))
    loop = list(grid.boundary_loop)
    w = run_key_lemma(grid, [loop[0], loop[5], loop[10], loop[15], 14]).disc
    for disc in (chain, strip_disc((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)), cone_disc(5 * math.pi / 2, 5), w):
        used, edges = sorted(disc.used_vertices()), disc.skeleton_edges()
        out = cut_vertices(disc)
        assert out["cut_vertices"] == [v for v in articulation_oracle(disc.n_vertices, edges) if v in used]
        assert out["blocks"] == _blocks_of(nx, used, edges)


def test_eps_net_bounds_on_flat_and_cone():
    for disc in (strip_disc((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)), cone_disc(5 * math.pi / 2, 5)):
        rep = eps_net_report(disc, eps_fracs=(0.1, 0.05), subdiv=10)
        assert rep["all_ok"], rep


# ------------------------------------------------- cone angle majorization


def test_fan_angles_majorize_surface_angles_around_cone_point():
    # geodesic triangle around the apex of a cone with total angle 5*pi/2:
    # the planar comparison angles strictly exceed the intrinsic corner
    # angles computed by an unfolding oracle
    total = 5 * math.pi / 2
    cone = cone_disc(total, 5)
    sg = cone.surface_graph(subdiv=48)
    corners = [sg.vertex_node(1), sg.vertex_node(3), sg.vertex_node(5)]
    azim = [0.0, 2 * total / 5, 4 * total / 5]

    def intrinsic_corner_angle(j):
        # unfold the two sides meeting at corner j: each contributes the
        # planar angle between the side and the spoke to the apex
        r_j = 1.0
        ang = 0.0
        for k in (j - 1, j + 1):
            r_k = 1.0
            dphi = abs(azim[j % 3] - azim[k % 3]) % total
            dphi = min(dphi, total - dphi)
            chord = math.sqrt(r_j**2 + r_k**2 - 2 * r_j * r_k * math.cos(dphi))
            ang += math.asin(r_k * math.sin(dphi) / chord)
        return ang

    for j in range(3):
        apex = corners[j]
        p, q = corners[(j - 1) % 3], corners[(j + 1) % 3]
        comparison = angle_from_sides(sg.distance(apex, p), sg.distance(apex, q), sg.distance(p, q))
        actual = intrinsic_corner_angle(j)
        assert comparison > actual + 0.05, (j, comparison, actual)


def test_glued_relaxed_graph_has_full_interior_turns():
    import sys

    sys.path.insert(0, "tests")
    from catmin.minimize import relax, straighten

    rng = np.random.default_rng(31)
    for trial in range(5):
        from catmin.meshgen import grid_disc

        vertices, triangles = grid_disc(4)
        edges = sorted(
            {
                (min(int(a), int(b)), max(int(a), int(b)))
                for tri in triangles
                for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))
            }
        )
        n = len(vertices)
        pts = np.column_stack([vertices, np.zeros(n)])
        pts += rng.uniform(-0.08, 0.08, size=pts.shape)
        boundary = {v for v in range(n) if v not in (5, 6, 9, 10)}
        g = euclidean_graph(pts, edges, pinned=boundary)
        out, cert = relax(straighten(g), tol_descent=1e-8)
        disc, report = glue_disc(out)
        sums = disc.vertex_angle_sums()
        for v in disc.interior_vertices():
            assert sums[v] >= 2 * math.pi - 1e-6, (trial, v, sums[v])
        assert report.witness_ok


def test_isoperimetric_ratio_approaches_circle_constant():
    # flat regular discs: area / boundary^2 increases toward 1/(4 pi)
    ratios = []
    for n_rim in (8, 16, 48):
        pts = [(0.0, 0.0, 0.0)] + [
            (math.cos(2 * math.pi * k / n_rim), math.sin(2 * math.pi * k / n_rim), 0.0)
            for k in range(n_rim)
        ]
        edges = [(0, 1 + k) for k in range(n_rim)] + [
            (min(1 + k, 1 + (k + 1) % n_rim), max(1 + k, 1 + (k + 1) % n_rim))
            for k in range(n_rim)
        ]
        g = euclidean_graph(pts, sorted(set(edges)))
        disc, _ = glue_disc(g)
        ba = boundary_and_area(disc)
        assert ba["isoperimetric_ok"]
        ratios.append(ba["area"] / ba["boundary_length"] ** 2)
    assert ratios[0] < ratios[1] < ratios[2] < 1.0 / (4 * math.pi) + 1e-12


def test_certified_glued_disc_has_no_thin_triangle_violation():
    # a relaxed, certificate-passing glued disc must also pass the sampled
    # comparison inequality
    from catmin.minimize import relax, straighten
    from catmin.meshgen import grid_disc

    rng = np.random.default_rng(17)
    vertices, triangles = grid_disc(4)
    edges = sorted(
        {
            (min(int(a), int(b)), max(int(a), int(b)))
            for tri in triangles
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))
        }
    )
    pts = np.column_stack([vertices, np.zeros(len(vertices))])
    pts += rng.uniform(-0.06, 0.06, size=pts.shape)
    boundary = {v for v in range(len(vertices)) if v not in (5, 6, 9, 10)}
    out, _ = relax(straighten(euclidean_graph(pts, edges, pinned=boundary)))
    disc, _ = glue_disc(out)
    assert cat0_certificate(disc).ok
    rep = thin_triangle_test(disc, samples=800, seed=4, subdiv=14)
    assert not rep["violation_found"], rep


# ------------------------------------- surface graph against the loop oracle


@pytest.fixture(scope="module")
def saddle_w():
    vertices, triangles = grid_disc(6)
    x, y = vertices[:, 0], vertices[:, 1]
    disc = make_mapped_disc(vertices, triangles, np.stack([x, y, x * y], axis=1))
    res = run_key_lemma(disc, [0, 2, 5, 17, 35, 33, 30, 12, 14, 22], refinement=2)
    assert res.ok, res.verification
    return res.disc


def whisker_disc():
    # one triangle plus a whisker: one bridge next to the face chords
    g = euclidean_graph(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0)], [(0, 1), (1, 2), (0, 2), (1, 3)]
    )
    disc, _ = glue_disc(g)
    assert len(disc.bridges) == 1
    return disc


def oracle_cases(saddle_w):
    return [
        ("cone3", cone_disc(2 * math.pi, 3), 8),
        ("cone5", cone_disc(5 * math.pi / 2, 5), 8),
        ("strip", strip_disc((1.0, 1.2, 0.9), (0.8, 1.1, 0.9)), 8),
        ("whisker", whisker_disc(), 5),
        ("saddle_w8", saddle_w, 8),
        ("saddle_w12", saddle_w, 12),
    ]


def test_surface_graph_bitwise_equal_to_loop_oracle(saddle_w):
    for name, disc, subdiv in oracle_cases(saddle_w):
        sg = disc.surface_graph(subdiv)
        want = surface_graph_matrix_oracle(disc, subdiv)
        assert sg.matrix.shape == want.shape, name
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(sg.matrix, attr), getattr(want, attr)), (name, attr)
        dist, pred = sg.all_pairs()
        want_dist, want_pred = dijkstra(want, directed=False, return_predecessors=True)
        assert np.array_equal(dist, want_dist), name
        assert np.array_equal(pred, want_pred), name


def test_vectorized_path_walks_equal_path_from(saddle_w):
    two_parts = PathGraph(5, [0, 1, 3], [1, 2, 4], [1.0, 2.0, 1.0])
    rng = np.random.default_rng(0)
    for name, sg in [("two_parts", two_parts)] + [
        (name, disc.surface_graph(subdiv)) for name, disc, subdiv in oracle_cases(saddle_w)
    ]:
        _, pred = sg.all_pairs()
        a, b = rng.integers(0, sg.n_nodes, size=(2, 3000))
        b[:20] = a[:20]  # empty paths too
        hops = path_hops(pred, a, b)
        paths = [path_from(pred[i], i, j) for i, j in zip(a.tolist(), b.tolist())]
        assert hops.tolist() == [len(path) - 1 for path in paths], name
        k = np.arange(a.size) % np.maximum(hops + 1, 1)  # a position on every path
        reach = hops >= 0
        nodes = walk_back(pred, a[reach], b[reach], (hops - k)[reach])
        want = [path[i] for path, i, ok in zip(paths, k.tolist(), reach) if ok]
        assert nodes.tolist() == want, name
    assert (path_hops(two_parts.all_pairs()[1], [0, 2, 4], [4, 0, 3]) == [-1, 2, 1]).all()


def test_rows_bitwise_equal_to_all_pairs(saddle_w):
    for name, disc, subdiv in oracle_cases(saddle_w):
        sg = SurfaceGraph(disc, subdiv)  # not the kept graph, whose all-pairs may exist
        n = sg.n_nodes
        picks = [[0], [n - 1, 0, n // 2], [n // 2, n // 3, n // 2], list(range(0, n, 7)), []]
        on_demand = [sg.rows(s) for s in picks]  # memoised rows, no all-pairs
        assert sg._dist is None
        dense, _ = disc.surface_graph(subdiv).all_pairs()
        for s, got in zip(picks, on_demand):
            assert got.shape == (len(s), n)
            assert np.array_equal(got, dense[s]), (name, s)
        sg.all_pairs()
        assert np.array_equal(sg.rows(picks[1]), dense[picks[1]]), name


def test_eps_net_report_equals_oracle_all_pairs(saddle_w):
    fracs = (0.1, 0.05, 0.02)
    for name, disc, subdiv in oracle_cases(saddle_w):
        sg = disc.surface_graph(subdiv)
        dist = dijkstra(surface_graph_matrix_oracle(disc, subdiv), directed=False)
        b_nodes, b_arcs = sg.boundary_node_arcs()
        want = eps_net_oracle(dist, disc.boundary_length(), b_nodes, b_arcs, fracs)
        assert eps_net_report(disc, eps_fracs=fracs, subdiv=subdiv) == want, name


def test_key_lemma_thin_test_and_nets_share_one_all_pairs_run(monkeypatch):
    vertices, triangles = grid_disc(6)
    x, y = vertices[:, 0], vertices[:, 1]
    disc = make_mapped_disc(vertices, triangles, np.stack([x, y, 1.2 * x * y], axis=1))
    graphs_built, all_pairs_runs, dijkstra_runs = [], [], []
    init = SurfaceGraph.__init__
    all_pairs = SurfaceGraph.all_pairs
    shortest_paths = SurfaceGraph.shortest_paths

    def counting_init(sg, *args, **kwargs):
        graphs_built.append(sg)
        init(sg, *args, **kwargs)

    def counting_all_pairs(sg):
        if sg._dist is None:
            all_pairs_runs.append(sg)
        return all_pairs(sg)

    def counting_dijkstra(sg, sources, *args, **kwargs):
        # W's runs only: the refined mesh graph's runs are not counted
        dijkstra_runs.append(sources)
        return shortest_paths(sg, sources, *args, **kwargs)

    monkeypatch.setattr(SurfaceGraph, "__init__", counting_init)
    monkeypatch.setattr(SurfaceGraph, "all_pairs", counting_all_pairs)
    monkeypatch.setattr(SurfaceGraph, "shortest_paths", counting_dijkstra)
    res = run_key_lemma(disc, [0, 2, 5, 17, 35, 33, 30, 12, 14, 22], refinement=2)
    assert res.ok, res.verification
    # the key lemma certifies W edge by edge: no graph on W, no Dijkstra
    assert graphs_built == [] and dijkstra_runs == []
    w = res.disc
    thin = thin_triangle_test(w, samples=300, seed=5, subdiv=8)
    nets = eps_net_report(w, eps_fracs=(0.1, 0.05), subdiv=8)
    assert len(graphs_built) == 1 and graphs_built[0].disc is w
    assert len(all_pairs_runs) == 1 and all_pairs_runs[0].disc is w
    assert dijkstra_runs == [None]  # the one all-pairs run, no row runs for the nets

    # a graph built afresh gives the same reports
    monkeypatch.setattr(PolyhedralDisc, "surface_graph", lambda self, subdiv=12: SurfaceGraph(self, subdiv))
    assert thin_triangle_test(w, samples=300, seed=5, subdiv=8) == thin
    assert eps_net_report(w, eps_fracs=(0.1, 0.05), subdiv=8) == nets


def test_surface_graph_keeps_only_the_last_graph():
    cone, strip = cone_disc(2 * math.pi, 4), strip_disc((1.0, 1.2, 0.9), (0.8, 1.1, 0.9))
    sg = cone.surface_graph(6)
    assert cone.surface_graph(6) is sg
    assert cone.surface_graph(7) is not sg
    sg = cone.surface_graph(6)
    kept = weakref.ref(sg)
    del sg
    strip.surface_graph(6)
    assert kept() is None  # dropped as soon as another disc's graph is asked for
