import numpy as np
import pytest
from scipy.optimize import nnls

from catmin.graphs import GraphInTarget, rotation_from_positions
from catmin.minimize import certify_conditions, descent_direction, relax, straighten
from catmin.targets import EuclideanSpace

from oracles import maximin_direction_oracle


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
        assert cert.worst_residual <= 1e-9
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
    assert g.validate() == []
    outer = g.outer_walk()
    assert sorted(set(outer)) == [0, 1, 2, 3]
    bounded = [w for w in walks if w != outer]
    assert sorted(len(w) for w in bounded) == [3, 3]
