from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import nnls

from catmin import minimize
from catmin.graphs import GraphInTarget, rotation_from_positions
from catmin.minimize import certify_conditions, descent_direction, relax, straighten
from catmin.targets import EuclideanSpace

from oracles import RuledEuclidean, descent_direction_oracle, maximin_direction_oracle, min_norm_hull_point_oracle


def euclidean_graph(points, edges, pinned, positions=None):
    points = [np.asarray(p, float) for p in points]
    dim = len(points[0])
    if positions is None:
        positions = np.asarray([p[:2] for p in points])
    rotation = rotation_from_positions(len(points), edges, positions)
    return GraphInTarget(
        points=points,
        edges=edges,
        pinned=set(pinned),
        rotation=rotation,
        target=EuclideanSpace(dim),
        positions=np.asarray(positions, float),
    )


def zero_in_hull(points) -> bool:
    """Convex-hull membership of the origin via nonnegative least squares.

    The residual is recomputed from the returned coefficients; the rnorm
    reported by scipy's nnls is unreliable on some inputs."""
    pts = np.asarray(points, float)
    a = np.vstack([pts.T, np.ones(len(pts))])
    b = np.zeros(pts.shape[1] + 1)
    b[-1] = 1.0
    lam, _ = nnls(a, b)
    return float(np.linalg.norm(a @ lam - b)) < 1e-9


# ------------------------------------------------------------- descent LP


def test_descent_single_neighbor():
    t, d = descent_direction(np.array([[1.0, 0.0]]))
    assert t == pytest.approx(1.0)
    assert np.allclose(d, [1.0, 0.0])


def test_descent_three_at_equal_angles_has_no_direction():
    a = 2 * np.pi / 3
    units = np.array(
        [[1.0, 0.0], [np.cos(a), np.sin(a)], [np.cos(2 * a), np.sin(2 * a)]]
    )
    t, d = descent_direction(units)
    assert t == 0.0
    assert d is None


def test_descent_two_at_sixty_degrees_is_bisector():
    units = np.array([[1.0, 0.0], [np.cos(np.pi / 3), np.sin(np.pi / 3)]])
    t, d = descent_direction(units)
    assert t == pytest.approx(np.cos(np.pi / 6), abs=1e-12)
    want = units.sum(axis=0)
    want /= np.linalg.norm(want)
    assert np.allclose(d, want, atol=1e-12)
    # sampled-direction oracle agrees to its angular resolution
    t_oracle, _ = maximin_direction_oracle(units, n_samples=200_000)
    assert abs(t - t_oracle) < 2e-5


def test_descent_agrees_with_hull_membership_on_random_stars():
    rng = np.random.default_rng(42)
    disagreements = 0
    for _ in range(300):
        dim = int(rng.integers(2, 4))
        deg = int(rng.integers(1, 9))
        units = rng.standard_normal((deg, dim))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        t, _ = descent_direction(units)
        if (t > 1e-9) == zero_in_hull(units):
            disagreements += 1
    assert disagreements == 0


def unit_rows(a):
    a = np.asarray(a, dtype=float)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def assert_same_descent(units):
    t, d = descent_direction(units)
    t_oracle, d_oracle = descent_direction_oracle(units)
    assert t == t_oracle, (t, t_oracle, units)
    if d_oracle is None:
        assert d is None
    else:
        assert d is not None and np.array_equal(d, d_oracle), (d, d_oracle, units)


def test_descent_bitwise_equals_enumerated_hull_on_random_stars():
    # Wolfe's support and the enumerated one give the same projection;
    # stars of degree 9 to 20 (up to C(20, <= 4) enumerated supports) are
    # one in twenty of the draw to keep the oracle's time in bounds
    rng = np.random.default_rng(77)
    for i in range(2000):
        dim = int(rng.integers(2, 4))
        deg = int(rng.integers(9, 21)) if i % 20 == 0 else int(rng.integers(1, 9))
        assert_same_descent(unit_rows(rng.standard_normal((deg, dim))))


def _near_stationary_pair(delta):
    # the hull of two units at angle pi - 2 delta passes delta from the origin
    a = np.pi / 2 - delta
    return np.array([[np.cos(a), np.sin(a)], [np.cos(a), -np.sin(a)]])


def _degenerate_stars():
    rng = np.random.default_rng(5)
    r = rng.standard_normal
    out = {
        "duplicate_2d": unit_rows([[1, 0], [1, 0], [0, 1], [0, 1]]),
        "duplicate_3d": unit_rows([[1, 2, 0], [0, 1, 1], [1, 2, 0], [-1, 0, 1], [0, 1, 1]]),
        "antipodal_2d": unit_rows([[1, 0], [-1, 0]]),
        "antipodal_3d": unit_rows([[0, 0, 1], [0, 0, -1], [1, 1, 0]]),
        "origin_on_edge_2d": unit_rows([[1, 0], [-1, 0], [0, 1], [1, 1]]),
        "origin_on_face_3d": unit_rows([[1, 0, 0], [-0.5, 0.8, 0], [-0.5, -0.8, 0], [0, 0.3, 1]]),
        "origin_inside_3d": unit_rows([[1, 0, -0.3], [-0.5, 0.8, -0.3], [-0.5, -0.8, -0.3], [0, 0, 1]]),
    }
    for delta in (1e-9, 1e-7):
        out[f"near_stationary_{delta:.0e}"] = _near_stationary_pair(delta)
    for k in range(4):
        # units in a random plane through the origin of R^3
        basis = np.linalg.qr(r((3, 2)))[0].T
        out[f"planar_in_3d_{k}"] = unit_rows(r((3 + k, 2)) @ basis)
        # near stationarity in R^3: a nearly flat star whose hull passes
        # ~1e-9 from the origin (extended-precision refinement)
        flat = unit_rows(np.column_stack([r((4, 2)), np.zeros(4)]))
        out[f"near_stationary_3d_{k}"] = unit_rows(flat + [0.0, 0.0, 1e-9 * (k + 1)])
    return out


def _near_duplicate_antipodal_stars(n):
    # two rows a hair apart and nearly antipodal to a third, as at a vertex
    # between an almost collapsed edge and its neighbour: the projections
    # onto the candidate supports differ by far less than their norms
    rng = np.random.default_rng(9)
    r = rng.standard_normal
    for eps_dup, eps_anti in ((1e-9, 1e-6), (1e-10, 1e-6), (1e-9, 1e-8), (1e-9, 1e-9)):
        for _ in range(n):
            v = unit_rows(r((1, 3)))[0]
            yield unit_rows([v + eps_dup * r(3), v + eps_dup * r(3), -v + eps_anti * r(3)])


@pytest.mark.parametrize("name", sorted(_degenerate_stars()))
def test_descent_bitwise_equals_enumerated_hull_on_degenerate_stars(name):
    assert_same_descent(_degenerate_stars()[name])


def test_descent_bitwise_equals_enumerated_hull_on_near_duplicate_stars():
    for units in _near_duplicate_antipodal_stars(50):
        assert_same_descent(units)


# Stars at which a walk that left out one of Wolfe's safeguards against
# rounding (named by the key) picked another support than the enumeration.
# All but the last were met while relaxing key-lemma sweep instances 1-36
# (bench/workloads.py::sweep_instance): near-collapsed edges make rows a
# hair apart or nearly antipodal.  The last is a near-duplicate triple.
RECORDED_STARS = {
    "weight_tie": [
        [0.319715203353771, -0.9009544329952971, -0.29336546901532146],
        [-0.31957101912906577, 0.9009455448788444, 0.2935498064992932],
        [0.31957316498385474, -0.9009442864321291, -0.29355133276397144],
        [0.18544790289369112, -0.8700847872727417, -0.45668538214933024],
    ],
    "clear_first": [
        [0.31958838481593393, -0.9009459368655667, -0.2935296971963299],
        [0.3210987462960741, -0.9010661750434864, -0.29150530581721945],
        [0.3195724945826679, -0.9009446795933977, -0.29355085593225677],
        [-0.3195724951296646, 0.9009446792725809, 0.29355085632139893],
    ],
    "weight_margin": [
        [0.7714561807869948, 0.2867331266424214, -0.5680136223818973],
        [0.3419492406483181, 0.7669147000503839, 0.5430585232428162],
        [0.07051075341849189, -0.7372555964096575, -0.671924414807943],
        [-0.34194924064130033, -0.7669147000469128, -0.5430585232521372],
    ],
    "nearest_row": [
        [0.31971274749449025, -0.9009558721198122, -0.2933637257439181],
        [-0.31957269832608504, 0.9009445601069893, 0.2935510008468863],
        [0.319572816125017, -0.9009444910231075, -0.29355108463270874],
        [0.18544588878910898, -0.87008596846022, -0.4566839495973758],
    ],
    "rounding_margin": [
        [0.9029532927807415, -0.07475084638983454, -0.42318750220253415],
        [0.1385310354838498, 0.41839430323651466, -0.8976387687856423],
        [-0.6321921119538642, -0.21558280093595428, 0.7442158218715332],
        [-0.9101398496180638, 0.398424872635434, -0.113591703053728],
        [-0.7654067391761135, -0.10212053721634823, 0.635392728556468],
    ],
    "best_hysteresis": [
        [0.27024956678017303, -0.10460233316360702, -0.9570911782854644],
        [0.2702495668802292, -0.10460233310518692, -0.9570911782635968],
        [-0.27024927175418184, 0.10460177376463634, 0.9570913227282056],
    ],
}


@pytest.mark.parametrize("name", sorted(RECORDED_STARS))
def test_descent_bitwise_equals_enumerated_hull_on_recorded_stars(name):
    assert_same_descent(np.array(RECORDED_STARS[name]))


def test_degenerate_star_values():
    stars = _degenerate_stars()
    for name in ("antipodal_2d", "origin_on_edge_2d", "origin_on_face_3d", "origin_inside_3d"):
        assert descent_direction(stars[name]) == (0.0, None), name
    # a full simplex around the origin gives the exact zero vector
    assert not minimize.min_norm_hull_point(stars["origin_inside_3d"]).any()
    for delta in (1e-9, 1e-7):
        t, d = descent_direction(stars[f"near_stationary_{delta:.0e}"])
        assert t == pytest.approx(np.sin(delta), rel=1e-6)
        assert np.allclose(d, [1.0, 0.0], atol=1e-12)


# ------------------------------------------------------------- straighten


def test_straighten_replaces_detour_by_segment():
    g = euclidean_graph(
        points=[(0.0, 0.0), (1.0, 0.0)],
        edges=[(0, 1)],
        pinned=[0, 1],
    )
    g.edge_paths[(0, 1)] = [
        np.array([0.0, 0.0]),
        np.array([0.5, 0.7]),
        np.array([1.0, 0.0]),
    ]
    detour = g.edge_length(0, 1)
    s = straighten(g)
    assert s.edge_length(0, 1) == pytest.approx(1.0)
    assert s.edge_length(0, 1) < detour
    assert np.allclose(s.points[0], g.points[0])


def test_straighten_identity_on_straight_graph():
    g = euclidean_graph(
        points=[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)],
        edges=[(0, 1), (0, 2), (1, 2)],
        pinned=[0, 1, 2],
    )
    s = straighten(g)
    for e in g.edges:
        assert s.edge_length(*e) == pytest.approx(g.edge_length(*e))


# ------------------------------------------------------------- relax


def test_relax_path_middle_onto_segment():
    g = euclidean_graph(
        points=[(0.0, 0.0, 0.0), (0.4, 0.9, 0.3), (1.0, 0.0, 0.0)],
        edges=[(0, 1), (1, 2)],
        pinned=[0, 2],
        positions=[(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)],
    )
    out, cert = relax(g, tol_descent=1e-8)
    assert cert.converged
    p = out.points[1]
    # Pareto-stationary positions on this star are exactly the closed segment
    t = np.clip(np.dot(p - out.points[0], out.points[2] - out.points[0]), 0, 1)
    proj = out.points[0] + t * (out.points[2] - out.points[0])
    assert np.linalg.norm(p - proj) < 1e-5
    assert cert.worst_t_star <= 1e-8


def test_relax_star_enters_zero_descent_region():
    leaves = [
        (1.0, 0.0),
        (np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)),
        (np.cos(4 * np.pi / 3), np.sin(4 * np.pi / 3)),
    ]
    g = euclidean_graph(
        points=[(2.5, 2.0)] + leaves,
        edges=[(0, 1), (0, 2), (0, 3)],
        pinned=[1, 2, 3],
        positions=[(0.1, 0.1)] + leaves,
    )
    start_lens = [g.edge_length(0, k) for k in (1, 2, 3)]
    out, cert = relax(g)
    end_lens = [out.edge_length(0, k) for k in (1, 2, 3)]
    assert all(e <= s + 1e-12 for s, e in zip(start_lens, end_lens))
    assert cert.worst_t_star <= 1e-8
    # grid-search oracle: the zero-descent region consists of points whose
    # unit directions to the leaves have the origin in their hull
    p = out.points[0]
    units = np.asarray([np.asarray(l) - p for l in leaves])
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    assert zero_in_hull(units)


def test_relax_all_pinned_is_identity():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    g = euclidean_graph(pts, [(0, 1), (1, 2), (0, 2)], pinned=[0, 1, 2])
    out, cert = relax(g)
    for a, b in zip(out.points, pts):
        assert np.allclose(a, b)
    assert cert.converged


def test_relax_never_increases_any_edge():
    rng = np.random.default_rng(9)
    for trial in range(5):
        n = 7
        pts = rng.standard_normal((n, 3))
        pos = rng.standard_normal((n, 2))
        edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 3), (1, 4)]
        edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
        g = euclidean_graph(pts, edges, pinned=[0, 1, 2], positions=pos)
        before = g.edge_lengths()
        out, _ = relax(g)
        after = out.edge_lengths()
        for e in edges:
            assert after[e] <= before[e] + 1e-12


def test_relax_commutes_with_rigid_motion():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((6, 3))
    pos = rng.standard_normal((6, 2))
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4), (2, 5)]
    g = euclidean_graph(pts, edges, pinned=[0, 3], positions=pos)
    out1, _ = relax(g)

    theta = 0.83
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    shift = np.array([0.3, -1.2, 2.0])
    g2 = euclidean_graph([rot @ p + shift for p in pts], edges, pinned=[0, 3], positions=pos)
    out2, _ = relax(g2)
    for p1, p2 in zip(out1.points, out2.points):
        assert np.linalg.norm(rot @ p1 + shift - p2) < 1e-6


# ------------------------------------------------------------- star memo


def grid_graph_with_paths():
    """Geodesic graph, with its mesh polylines, of the 8x8 z = 1.2xy grid
    disc with 8 evenly spread boundary and 3 random interior sample
    vertices."""
    from catmin.meshgen import grid_disc, make_mapped_disc
    from catmin.pipeline import geodesic_graph

    vertices, triangles = grid_disc(8)
    x, y = vertices[:, 0], vertices[:, 1]
    disc = make_mapped_disc(vertices, triangles, np.stack([x, y, 1.2 * x * y], axis=1))
    loop = list(disc.boundary_loop)
    interior = sorted(set(range(disc.n_vertices)) - set(loop))
    sample = [loop[(j * len(loop)) // 8] for j in range(8)]
    sample += [int(v) for v in np.random.default_rng(8).choice(interior, size=3, replace=False)]
    return geodesic_graph(disc, sample)[0]


def grid_geodesic_graph():
    """`grid_graph_with_paths` straightened."""
    return straighten(grid_graph_with_paths())


def sweep_geodesic_graph(s):
    """Straightened geodesic graph of key-lemma sweep instance ``s``."""
    from catmin.meshgen import random_height_disc
    from catmin.pipeline import geodesic_graph

    disc = random_height_disc(9000 + s, max_vertices=60, jitter=0.05 if s % 2 else 0.3)
    rng = np.random.default_rng(s)
    k = int(rng.integers(3, min(disc.n_vertices, 12) + 1))
    sample = [int(v) for v in rng.choice(disc.n_vertices, k, replace=False)]
    return straighten(geodesic_graph(disc, sample)[0])


MEMO_GRAPHS = {"grid8": grid_geodesic_graph, **{f"sweep{s}": (lambda s=s: sweep_geodesic_graph(s)) for s in (1, 2, 3)}}


@pytest.mark.parametrize("name", sorted(MEMO_GRAPHS))
def test_relax_certificate_reuses_exact_t_star(name):
    # t* kept from the last sweep for unchanged stars is what a fresh
    # certification computes on the relaxed graph
    out, cert = relax(MEMO_GRAPHS[name]())
    fresh = certify_conditions(out)
    assert cert.t_star == fresh.t_star
    assert cert.angle_sums == fresh.angle_sums


@pytest.mark.parametrize("name", ["grid8", "sweep1", "sweep3"])
def test_relax_on_enumerated_hull_is_bitwise_equal(monkeypatch, name):
    # sweep2 reaches degree 9, where the enumeration alone takes seconds
    g = MEMO_GRAPHS[name]()
    out, cert = relax(g)
    monkeypatch.setattr(minimize, "min_norm_hull_point", min_norm_hull_point_oracle)
    out_oracle, cert_oracle = relax(g)
    assert len(out.points) == len(out_oracle.points)
    for p, q in zip(out.points, out_oracle.points):
        assert np.array_equal(p, q)
    assert cert.summary() == cert_oracle.summary()
    assert cert.t_star == cert_oracle.t_star


def test_relax_straightens_a_copy_of_its_graph():
    g = grid_graph_with_paths()
    assert g.edge_paths
    points = [p.copy() for p in g.points]
    out, cert = relax(g)
    assert out.edge_paths == {}
    # the input keeps its points and paths
    assert g.edge_paths
    assert all(np.array_equal(p, q) for p, q in zip(g.points, points))
    out_straight, cert_straight = relax(straighten(g))
    assert len(out.points) == len(out_straight.points)
    for p, q in zip(out.points, out_straight.points):
        assert np.array_equal(p, q)
    assert cert.summary() == cert_straight.summary()


def test_certify_conditions_needs_geodesic_edges():
    g = grid_graph_with_paths()
    with pytest.raises(ValueError, match="geodesic edges"):
        certify_conditions(g)
    assert certify_conditions(straighten(g)).interior_vertices


def test_relax_solves_each_unchanged_star_once(monkeypatch):
    g = grid_geodesic_graph()
    calls = []

    def counted(units, *args, **kwargs):
        calls.append(len(units))
        return descent_direction(units, *args, **kwargs)

    monkeypatch.setattr(minimize, "descent_direction", counted)
    _, cert = relax(g)
    free = [v for v in range(g.n_vertices) if v not in g.pinned and g.neighbors()[v]]
    # every free star is visited once per sweep and once by the certificate
    visited = (cert.iterations + 1) * len(free)
    assert cert.converged and not cert.skipped_vertices
    assert len(free) <= len(calls) < visited / 2


# ------------------------------------------------------------- certify


def hexagonal_wheel():
    center = [(0.0, 0.0)]
    ring = [
        (np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)) for k in range(6)
    ]
    pts = center + ring
    edges = [(0, k) for k in range(1, 7)] + [
        (k, k % 6 + 1) for k in range(1, 7)
    ]
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return euclidean_graph(pts, edges, pinned=range(1, 7))


def test_certify_flat_wheel_full_turn():
    g = hexagonal_wheel()
    cert = certify_conditions(g)
    assert cert.angle_sums[0] == pytest.approx(2 * np.pi, abs=1e-12)
    assert cert.t_star[0] == 0.0
    assert cert.interior_vertices == [0]
    assert cert.valid


def test_certify_does_not_pass_a_shortenable_graph_on_a_general_target():
    # the free vertex can move down and shorten both edges (t* = 0.894 on
    # EuclideanSpace); a general target must not skip that condition
    points, edges = [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)], [(0, 1), (1, 2)]
    euclid = euclidean_graph(points, edges, pinned=[0, 2])
    assert certify_conditions(euclid).t_star[1] == pytest.approx(2 / np.sqrt(5))
    try:
        cert = certify_conditions(replace(euclid, target=RuledEuclidean()))
    except NotImplementedError:
        return
    assert not cert.valid


def test_certify_on_relax_outputs():
    from catmin.meshgen import grid_disc

    rng = np.random.default_rng(21)
    vertices, triangles = grid_disc(3)
    edges = sorted(
        {
            (min(int(a), int(b)), max(int(a), int(b)))
            for tri in triangles
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))
        }
    )
    boundary = [0, 1, 2, 3, 5, 6, 7, 8]  # all but the grid center
    for trial in range(8):
        pts = np.column_stack([vertices, np.zeros(len(vertices))])
        pts += 0.25 * rng.standard_normal(pts.shape)
        g = euclidean_graph(pts, edges, boundary, positions=vertices)
        out, cert = relax(g, tol_descent=1e-8)
        assert cert.worst_t_star <= 1e-8, trial
        assert out.edge_paths == {}
        assert cert.interior_vertices == [4]
        assert cert.worst_angle_deficit <= 1e-6, (trial, cert.angle_sums)


def test_faces_euler_and_outer_detection():
    g = euclidean_graph(
        points=[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
        pinned=[],
    )
    walks = g.faces()
    assert len(walks) == 3  # two bounded triangles plus the outer face
    outer = g.outer_walk()
    assert sorted(set(outer)) == [0, 1, 2, 3]
    bounded = [w for w in walks if w != outer]
    assert sorted(len(w) for w in bounded) == [3, 3]


@pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
def test_relax_rejects_a_bad_tol_angle_before_sweeping(bad, monkeypatch):
    swept = []
    monkeypatch.setattr(minimize, "descent_direction", lambda units: swept.append(units))
    with pytest.raises(ValueError, match="tol_angle"):
        relax(grid_geodesic_graph(), tol_angle=bad)
    assert swept == []


def test_relax_certificate_holds_to_its_tol_angle():
    _, cert = relax(grid_geodesic_graph(), tol_angle=0.25)
    assert cert.summary()["tolerances"] == {"descent": 1e-8, "angle": 0.25}
    assert cert.valid == (cert.worst_t_star <= 1e-8 and cert.worst_angle_deficit <= 0.25)
