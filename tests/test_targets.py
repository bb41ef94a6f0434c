import math

import numpy as np
import pytest

from catmin.targets import EuclideanSpace, angle_from_sides

from oracles import RuledEuclidean


def test_euclidean_distance_345():
    sp = EuclideanSpace(3)
    assert sp.distance((0.0, 0.0, 0.0), (3.0, 4.0, 0.0)) == pytest.approx(5.0)


def test_distance_of_point_to_itself():
    sp = EuclideanSpace(2)
    p = sp.point((1.3, -0.2))
    assert sp.distance(p, p) == 0.0


def test_geodesic_endpoints_and_length():
    sp = EuclideanSpace(3)
    p, q = np.array([0.0, 1.0, 2.0]), np.array([3.0, 1.0, -2.0])
    assert np.allclose(sp.geodesic_eval(p, q, 0.0), p)
    assert np.allclose(sp.geodesic_eval(p, q, 1.0), q)
    # constant speed: chord lengths over a partition sum to the distance
    ts = np.linspace(0, 1, 17)
    pts = [sp.geodesic_eval(p, q, t) for t in ts]
    total = sum(np.linalg.norm(b - a) for a, b in zip(pts, pts[1:]))
    assert total == pytest.approx(sp.distance(p, q), abs=1e-12)


def test_comparison_angle_right_angle():
    sp = EuclideanSpace(2)
    ang = sp.comparison_angle((0.0, 0.0), (2.0, 0.0), (0.0, 3.0))
    assert ang == pytest.approx(math.pi / 2, abs=1e-12)


def test_comparison_angle_collinear_between():
    sp = EuclideanSpace(2)
    ang = sp.comparison_angle((0.0, 0.0), (1.0, 0.0), (-2.0, 0.0))
    assert ang == pytest.approx(math.pi, abs=1e-12)


def test_comparison_angle_equilateral_sides():
    # law of cosines by hand: arccos((1 + 1 - 1) / 2) = pi / 3
    assert angle_from_sides(1.0, 1.0, 1.0) == pytest.approx(math.pi / 3, abs=1e-15)


def test_comparison_angle_symmetric_and_bounded():
    sp = EuclideanSpace(3)
    rng = np.random.default_rng(5)
    for _ in range(50):
        apex, p, q = rng.standard_normal((3, 3))
        a1 = sp.comparison_angle(apex, p, q)
        a2 = sp.comparison_angle(apex, q, p)
        assert a1 == pytest.approx(a2, abs=1e-12)
        assert 0.0 <= a1 <= math.pi


def test_comparison_angle_degenerate_apex_rejected():
    sp = EuclideanSpace(2)
    with pytest.raises(ValueError):
        sp.comparison_angle((0.0, 0.0), (0.0, 0.0), (1.0, 0.0))


def test_comparison_angle_finite_difference_continuity():
    # away from degeneracy the angle moves at most proportionally to the
    # perturbation of its arguments
    sp = EuclideanSpace(3)
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(25):
        apex, p, q = rng.standard_normal((3, 3))
        if min(np.linalg.norm(p - apex), np.linalg.norm(q - apex)) < 0.3:
            continue
        base = sp.comparison_angle(apex, p, q)
        for _ in range(3):
            delta = rng.standard_normal(3)
            delta *= h / np.linalg.norm(delta)
            moved = sp.comparison_angle(apex, p + delta, q)
            assert abs(moved - base) < 1e-3  # bounded difference quotient


def test_default_distances_match_euclidean_override():
    rng = np.random.default_rng(5)
    P, Q = rng.standard_normal((2, 40, 3))
    want = EuclideanSpace(3).distances(P, Q)
    assert want.shape == (40,)
    np.testing.assert_allclose(RuledEuclidean().distances(P, Q), want, rtol=1e-12, atol=0)
    # rows broadcast against each other: all pairs of a point set
    pairs = RuledEuclidean().distances(P[:, None, :], P[None, :, :])
    assert pairs.shape == (40, 40)
    np.testing.assert_allclose(pairs, EuclideanSpace(3).distances(P[:, None, :], P[None, :, :]),
                               rtol=1e-12, atol=0)


def test_default_triangle_points_match_euclidean_override():
    rng = np.random.default_rng(6)
    A, B, C = rng.standard_normal((3, 50, 3))
    a, b, c = rng.uniform(0.0, 2.0, (3, 50))
    want = EuclideanSpace(3).triangle_points(A, B, C, a, b, c)
    assert want.shape == (50, 3)
    got = RuledEuclidean().triangle_points(A, B, C, a, b, c)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("space", [EuclideanSpace(3), RuledEuclidean()], ids=["euclidean", "default"])
def test_triangle_points_at_unit_weights_are_the_corners(space):
    rng = np.random.default_rng(7)
    A, B, C = rng.standard_normal((3, 10, 3))
    for weights, corner in (((1, 0, 0), A), ((0, 1, 0), B), ((0, 0, 1), C)):
        np.testing.assert_allclose(space.triangle_points(A, B, C, *weights), corner,
                                   rtol=1e-12, atol=1e-15)


def test_euclidean_contains_answers_row_by_row_for_an_array_of_points():
    space = EuclideanSpace(3)
    rows = np.array([[0.0, 1.0, 2.0], [np.nan, 0.0, 0.0], [1.0, 1.0, np.inf]])
    assert space.contains(rows).tolist() == [True, False, False]
    assert space.contains(np.zeros((4, 2))).tolist() == [False] * 4
    assert [space.contains(p) for p in rows] == [True, False, False]
    assert not space.contains(np.zeros((1, 1, 3)))


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def test_euclidean_distance_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(21)
    for dim in (1, 2, 3, 7):
        sp = EuclideanSpace(dim)
        for scale in (1e-170, 1e-8, 1.0, 1e8, 1e150):
            P = rng.standard_normal((40, dim)) * scale
            Q = rng.standard_normal((40, dim)) * scale
            for p, q in zip(P, Q):
                assert _bits(sp.distance(p, q)) == _bits(float(np.linalg.norm(p - q)))
                assert _bits(sp.distance(list(p), tuple(q))) == _bits(float(np.linalg.norm(p - q)))
    # a scalar point of a line, and a strided view
    assert EuclideanSpace(1).distance(0.5, -2.0) == 2.5
    M = rng.standard_normal((6, 6))
    assert _bits(EuclideanSpace(3).distance(M[::2, 0], M[1::2, 3])) == _bits(float(np.linalg.norm(M[::2, 0] - M[1::2, 3])))


def test_angle_from_sides_is_numpy_clip_bit_for_bit():
    rng = np.random.default_rng(22)
    cases = [tuple(s) for s in rng.uniform(0.01, 3.0, (300, 3))]
    # degenerate triangles whose cosine rounds past -1 or 1, and NaN cosines
    cases += [(1.0, 1.0, 2.0), (1.0, 1.0, 2.0 + 4e-16), (0.1, 0.2, 0.1 + 1e-17), (0.3, 0.1, 0.2),
              (1.0, 1.0, 0.0), (1.0, 1.0, math.nan), (math.inf, 1.0, 1.0), (1.0, 2.0, math.inf)]
    for a, b, c in cases:
        cos = (a * a + b * b - c * c) / (2.0 * a * b)
        want = float(np.arccos(np.clip(cos, -1.0, 1.0)))
        assert _bits(angle_from_sides(a, b, c)) == _bits(want), (a, b, c)
    assert math.isnan(angle_from_sides(1.0, 1.0, math.nan))
