import math

import numpy as np
import pytest

from catmin.induced import length_pseudometric
from catmin.meshgen import fan_disc, grid_disc, make_mapped_disc, paraboloid_cap_disc, random_height_disc
from catmin.minimize import certify_conditions
from catmin.saddle import (
    HEXAGON_PARAMS,
    _candidate_planes,
    _PlaneSections,
    check_plane,
    hexagon_counterexample,
    hexagon_graph,
    is_saddle_pl,
    shorten_by_rotation,
)

from oracles import candidate_planes_oracle, check_plane_oracle, is_saddle_oracle


def flat_disc():
    vertices, triangles = grid_disc(3)
    images = np.column_stack([vertices, np.zeros(len(vertices))])
    return make_mapped_disc(vertices, triangles, images)


# ------------------------------------------------------------- predicate


def test_flat_disc_is_saddle():
    verdict = is_saddle_pl(flat_disc(), extra_planes=100, seed=0)
    assert verdict.saddle
    assert verdict.witness is None


def test_paraboloid_cap_is_not_saddle():
    disc = paraboloid_cap_disc(n_rim=8, rings=3, height=1.0)
    verdict = is_saddle_pl(disc, extra_planes=50, seed=0)
    assert not verdict.saddle
    assert verdict.witness is not None


def test_paraboloid_explicit_horizontal_witness():
    # plane z = 0.5 cuts off the bowl bottom containing the apex vertex
    disc = paraboloid_cap_disc(n_rim=8, rings=3, height=1.0)
    violations = check_plane(disc, normal=(0.0, 0.0, 1.0), offset=0.5)
    assert violations
    bad = [v for v in violations if v["side"] == "negative"]
    assert bad
    apex_triangles = {f for f, tri in enumerate(disc.triangles) if 0 in tri}
    assert apex_triangles & set(bad[0]["triangles"])


def test_saddle_invariant_under_rigid_motion():
    rng = np.random.default_rng(3)
    theta = 0.7
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [0.0, 0.0, 1.0],
            [np.sin(theta), np.cos(theta), 0.0],
        ]
    )
    shift = np.array([0.4, -0.8, 1.1])
    for build, expected in ((flat_disc, True), (paraboloid_cap_disc, False)):
        disc = build()
        moved = make_mapped_disc(
            disc.vertices,
            disc.triangles,
            np.asarray(disc.images) @ rot.T + shift,
        )
        assert is_saddle_pl(moved, extra_planes=50, seed=0).saddle is expected


# ------------------------------------------------------------- blocks vs oracle


def cone_disc(waves: int):
    """Fan disc mapped to z = r cos(waves theta): a convex cone for 0 waves,
    a saddle cone (three valleys) for 3."""
    vertices, triangles = fan_disc(7, 2)
    x, y = vertices[:, 0], vertices[:, 1]
    z = np.hypot(x, y) * np.cos(waves * np.arctan2(y, x))
    return make_mapped_disc(vertices, triangles, np.column_stack([x, y, z]))


def grid_saddle_disc(k: int):
    vertices, triangles = grid_disc(k)
    x, y = vertices[:, 0], vertices[:, 1]
    return make_mapped_disc(vertices, triangles, np.column_stack([x, y, 1.1 * x * y]))


ORACLE_DISCS = {
    "flat": flat_disc,
    "cone": lambda: cone_disc(0),
    "saddle_cone": lambda: cone_disc(3),
    "pinwheel": hexagon_counterexample,
    "cap": lambda: paraboloid_cap_disc(n_rim=6, rings=2),
    "grid4": lambda: grid_saddle_disc(4),
    "grid5": lambda: grid_saddle_disc(5),
}


def rigidly_moved(disc, seed: int):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    images = np.asarray(disc.images) @ q.T + rng.uniform(-2.0, 2.0, 3)
    return make_mapped_disc(disc.vertices, disc.triangles, images)


def bits(a):
    """The bit patterns of a float array: equal only if every bit is (-0.0 too)."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", sorted(ORACLE_DISCS))
def test_candidate_planes_bitwise_equal_oracle(name):
    for disc in (ORACLE_DISCS[name](), rigidly_moved(ORACLE_DISCS[name](), 5)):
        normals, offsets = _candidate_planes(disc, 40, 3, 1e-7)
        want = candidate_planes_oracle(disc, 40, 3, 1e-7)
        assert len(want) == len(normals) == len(offsets)
        assert np.array_equal(bits(normals), bits([n for n, _ in want]))
        assert np.array_equal(bits(offsets), bits([o for _, o in want]))


@pytest.mark.parametrize("name", sorted(ORACLE_DISCS))
def test_check_plane_lists_every_violation_of_the_oracle(name):
    disc = ORACLE_DISCS[name]()
    normals, offsets = _candidate_planes(disc, 40, 3, 1e-7)
    sections = _PlaneSections(disc)
    for k, (normal, offset) in enumerate(zip(normals, offsets)):
        want = check_plane_oracle(disc, normal, offset)
        assert check_plane(disc, normal, offset, sections=sections) == want
        if k % 5 == 0:
            assert check_plane(disc, normal, offset) == want


def test_check_plane_equals_oracle_on_random_planes():
    rng = np.random.default_rng(11)
    n_violations = 0
    for seed in range(12):
        disc = random_height_disc(300 + seed, max_vertices=20)
        sections = _PlaneSections(disc)
        img = np.asarray(disc.images)
        normals = rng.standard_normal((60, 3))
        offsets = np.einsum("ij,ij->i", normals, img[rng.integers(0, len(img), 60)])
        offsets += rng.uniform(-0.05, 0.05, 60)
        for normal, offset in zip(normals, offsets):
            want = check_plane_oracle(disc, normal, offset)
            assert check_plane(disc, normal, offset) == want
            assert check_plane(disc, normal, offset, sections=sections) == want
            n_violations += len(want)
    assert n_violations > 0


def test_check_plane_lists_the_positive_side_first():
    # a bump and a dip on a flat grid: the plane z = 0 cuts off one of each
    vertices, triangles = grid_disc(5)
    disc = make_mapped_disc(vertices, triangles, np.column_stack([vertices, np.zeros(len(vertices))]))
    inner = [v for v in range(disc.n_vertices) if v not in disc.boundary_vertex_set()]
    images = np.asarray(disc.images).copy()
    images[inner[0], 2], images[inner[-1], 2] = -1.0, 1.0
    disc = make_mapped_disc(vertices, triangles, images)
    got = check_plane(disc, (0.0, 0.0, 1.0), 0.0)
    assert [v["side"] for v in got] == ["positive", "negative"]
    assert got == check_plane_oracle(disc, (0.0, 0.0, 1.0), 0.0)


def test_saddle_verdict_reads_the_adjacency_once_and_checks_each_plane(monkeypatch):
    import catmin.saddle as saddle_module

    disc = grid_saddle_disc(4)
    calls = {"check_plane": 0, "edge_faces": 0}
    check = saddle_module.check_plane
    edge_faces = type(disc).edge_faces

    def counted_check(*args, **kwargs):
        calls["check_plane"] += 1
        return check(*args, **kwargs)

    def counted_edge_faces(self):
        calls["edge_faces"] += 1
        return edge_faces(self)

    monkeypatch.setattr(saddle_module, "check_plane", counted_check)
    monkeypatch.setattr(type(disc), "edge_faces", counted_edge_faces)
    verdict = is_saddle_pl(disc, extra_planes=40, seed=9)
    assert verdict.saddle
    assert calls["check_plane"] == verdict.planes_tested
    # the disc was validated when it was built; the sections of all its
    # planes read the adjacency once
    assert calls["edge_faces"] == 1


def test_check_plane_rejects_zero_normal():
    with pytest.raises(ValueError):
        check_plane(flat_disc(), (0.0, 0.0, 0.0), 0.0)


@pytest.mark.parametrize("planes", [-1, -3])
def test_is_saddle_rejects_negative_extra_planes(planes):
    with pytest.raises(ValueError, match="extra_planes"):
        is_saddle_pl(flat_disc(), extra_planes=planes)


@pytest.mark.parametrize("name", sorted(ORACLE_DISCS))
def test_saddle_verdict_equals_oracle_under_rigid_motions(name):
    for seed in (None, 1):
        disc = ORACLE_DISCS[name]()
        if seed is not None:
            disc = rigidly_moved(disc, seed)
        verdict = is_saddle_pl(disc, extra_planes=40, seed=9)
        assert (verdict.saddle, verdict.planes_tested, verdict.witness) == is_saddle_oracle(
            disc, extra_planes=40, seed=9
        )


def test_saddle_verdicts_of_the_oracle_discs():
    verdicts = {name: is_saddle_pl(build(), extra_planes=40, seed=9).saddle
                for name, build in ORACLE_DISCS.items()}
    assert verdicts == {"flat": True, "cone": False, "saddle_cone": True, "pinwheel": True,
                        "cap": False, "grid4": True, "grid5": True}


def test_saddle_verdict_equals_oracle_on_random_discs():
    outcomes = set()
    for seed in range(8):
        disc = random_height_disc(400 + seed, max_vertices=16)
        verdict = is_saddle_pl(disc, extra_planes=30, seed=seed)
        want = is_saddle_oracle(disc, extra_planes=30, seed=seed)
        assert (verdict.saddle, verdict.planes_tested, verdict.witness) == want
        outcomes.add(verdict.saddle)
    assert outcomes == {True, False}


# ------------------------------------------------------------- pinwheel


def test_hexagon_has_ten_triangles_and_symmetric_image():
    disc = hexagon_counterexample()  # built, so it passed the disc's checks
    assert disc.n_triangles == 10
    img = np.asarray(disc.images)
    theta = 2 * np.pi / 3
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    # rotation by a third of a turn permutes the vertex images:
    # tips 0->2->4->0, centers 1->3->5->1, ring 6->7->8->6
    perm = [2, 3, 4, 5, 0, 1, 7, 8, 6]
    assert np.allclose(img[perm], img @ rot.T, atol=1e-12)


def test_hexagon_boundary_runs_twice_along_each_arm():
    disc = hexagon_counterexample()
    img = np.asarray(disc.images)
    loop = disc.boundary_loop
    segs = {}
    for i in range(len(loop)):
        a, b = img[loop[i]], img[loop[(i + 1) % len(loop)]]
        key = tuple(sorted([tuple(np.round(a, 9)), tuple(np.round(b, 9))]))
        segs[key] = segs.get(key, 0) + 1
    assert sorted(segs.values()) == [2, 2, 2]  # three arms, each twice


def test_hexagon_is_saddle():
    verdict = is_saddle_pl(hexagon_counterexample(), extra_planes=200, seed=0)
    assert verdict.saddle, verdict.witness


def test_hexagon_reproduced_bit_identically():
    a = hexagon_counterexample()
    b = hexagon_counterexample(dict(HEXAGON_PARAMS))
    assert np.array_equal(np.asarray(a.images), np.asarray(b.images))
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)


def test_hexagon_graph_passes_first_order_certificate():
    cert = certify_conditions(hexagon_graph())
    assert cert.valid
    assert cert.worst_t_star == 0.0
    assert cert.interior_vertices == [6, 7, 8]
    for v in (6, 7, 8):
        assert cert.angle_sums[v] >= 2 * np.pi - 1e-9


# ------------------------------------------------------------- shortening


def test_shorten_zero_rotation_identity():
    disc = hexagon_counterexample()
    _, rep = shorten_by_rotation(disc, 0.0)
    assert rep["max_increase"] == pytest.approx(0.0, abs=1e-15)
    assert rep["max_strict_decrease"] == pytest.approx(0.0, abs=1e-15)


def test_shorten_validated_epsilon_is_pareto_with_strict_entry():
    disc = hexagon_counterexample()
    deformed, rep = shorten_by_rotation(disc, HEXAGON_PARAMS["epsilon"])
    assert rep["pareto"]
    assert rep["max_strict_decrease"] >= 1e-4
    assert rep["boundary_unchanged"]
    # the map is saddle yet shortenable: first-order conditions are only
    # necessary, never sufficient
    assert rep["clockwise_max_increase"] > 0.0
    assert is_saddle_pl(disc, extra_planes=30, seed=1).saddle
    # entrywise comparison against an independent recomputation
    base = length_pseudometric(disc, HEXAGON_PARAMS["refinement"]).d
    new = length_pseudometric(deformed, HEXAGON_PARAMS["refinement"]).d
    assert np.all(new <= base + 1e-9)
    assert (base - new).max() >= 1e-4


def test_shorten_rejects_out_of_range_epsilon():
    with pytest.raises(ValueError):
        shorten_by_rotation(hexagon_counterexample(), 0.5)


def test_shorten_rejected_below_validated_range_boundary():
    # the full validated range works on both signs request-wise; clockwise
    # is allowed as an observation and reported, not asserted
    disc = hexagon_counterexample()
    _, rep = shorten_by_rotation(disc, -HEXAGON_PARAMS["epsilon"])
    assert rep["max_increase"] > 0.0  # clockwise genuinely lengthens an entry
