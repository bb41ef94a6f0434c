import json
import math

import numpy as np
import pytest

from catmin.cli import main
from catmin.induced import length_pseudometric
from catmin.mesh import MappedDisc, boundary_loop_of
from catmin.meshgen import fan_disc, grid_disc, make_mapped_disc, paraboloid_cap_disc, random_height_disc
from catmin.minimize import certify_conditions
from catmin.saddle import (
    HEXAGON_PARAMS,
    _candidate_planes,
    _offset_keys,
    _PlaneSections,
    check_plane,
    hexagon_counterexample,
    hexagon_graph,
    is_saddle_pl,
    shorten_by_rotation,
)
from catmin.targets import EuclideanSpace

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


def _image_scale_defect(how):
    return pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
        "known defect (ROADMAP item 16): the image scale is max(1, |img|.max()), so the snap and "
        f"the nudge are absolute on small discs and grow with translation; {how}"))


# a similarity of R^3 keeps a disc saddle or not saddle
@pytest.mark.parametrize("scale, shift", [
    pytest.param(1e-6, 0.0, id="scaled1e-6"),
    pytest.param(1.0, 1e6, id="moved1e6"),
    pytest.param(3e-7, 0.0, id="scaled3e-7", marks=_image_scale_defect("at 3e-7 the cap is called saddle")),
    pytest.param(1e-8, 0.0, id="scaled1e-8", marks=_image_scale_defect("at 1e-8 the cap is called saddle")),
    pytest.param(1.0, 1e7, id="moved1e7", marks=_image_scale_defect("at 1e7 the nudge is the cap's depth")),
])
def test_paraboloid_cap_is_not_saddle_after_a_similarity(scale, shift):
    cap = paraboloid_cap_disc()
    moved = make_mapped_disc(cap.vertices, cap.triangles, scale * cap.images + np.array([shift, 0.0, 0.0]))
    assert not is_saddle_pl(moved).saddle


def test_paraboloid_explicit_horizontal_witness():
    # plane z = 0.5 cuts off the bowl bottom containing the apex vertex
    disc = paraboloid_cap_disc(n_rim=8, rings=3, height=1.0)
    violations = check_plane(disc, normal=(0.0, 0.0, 1.0), offset=0.5)
    assert violations
    bad = [v for v in violations if v["side"] == "negative"]
    assert bad
    apex_triangles = {f for f, tri in enumerate(disc.triangles) if 0 in tri}
    assert apex_triangles & set(bad[0]["triangles"])


@pytest.mark.parametrize("seed", [56, 80, 46])
def test_random_discs_with_a_cap_are_not_saddle(seed):
    # each of these discs is cut off a cap by a plane through three vertex
    # images whose normal the sign rule flips; with the offset left unflipped
    # that plane was never tested and the discs were called saddle
    disc = random_height_disc(seed, max_vertices=25, jitter=0.05)
    verdict = is_saddle_pl(disc)
    assert not verdict.saddle
    normals, offsets = _candidate_planes(_PlaneSections(disc), 200, 0)
    k = verdict.planes_tested - 1
    assert check_plane(disc, normals[k], offsets[k])[0] == verdict.witness


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


def grid_saddle_disc(k: int, c: float = 1.1):
    vertices, triangles = grid_disc(k)
    x, y = vertices[:, 0], vertices[:, 1]
    return make_mapped_disc(vertices, triangles, np.column_stack([x, y, c * x * y]))


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
        normals, offsets = _candidate_planes(_PlaneSections(disc), 40, 3)
        want = candidate_planes_oracle(disc, 40, 3, 1e-7)
        assert len(want) == len(normals) == len(offsets)
        assert np.array_equal(bits(normals), bits([n for n, _ in want]))
        assert np.array_equal(bits(offsets), bits([o for _, o in want]))


@pytest.mark.parametrize("name", sorted(ORACLE_DISCS))
def test_check_plane_lists_every_violation_of_the_oracle(name):
    disc = ORACLE_DISCS[name]()
    sections = _PlaneSections(disc)
    normals, offsets = _candidate_planes(sections, 40, 3)
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


@pytest.mark.parametrize("name", ["cap", "grid25"])
def test_planes_tested_counts_the_planes_checked(monkeypatch, name):
    import catmin.saddle as saddle_module

    disc = paraboloid_cap_disc() if name == "cap" else grid_saddle_disc(5)
    saddle = name != "cap"
    violated = []
    check = saddle_module.check_plane

    def counted_check(*args, **kwargs):
        found = check(*args, **kwargs)
        violated.append(bool(found))
        return found

    monkeypatch.setattr(saddle_module, "check_plane", counted_check)
    verdict = is_saddle_pl(disc)
    assert verdict.saddle is saddle
    assert verdict.planes_tested == len(violated)
    # the verdict stops at the first violating plane, if there is one
    assert violated == [False] * (len(violated) - 1) + [not saddle]
    candidates = len(_candidate_planes(_PlaneSections(disc), 200, 0)[0])
    assert (verdict.planes_tested == candidates) if saddle else (1 <= verdict.planes_tested < candidates)


def test_check_plane_rejects_zero_normal():
    with pytest.raises(ValueError):
        check_plane(flat_disc(), (0.0, 0.0, 0.0), 0.0)


@pytest.mark.parametrize("normal, offset", [
    ((math.nan, 0.0, 1.0), 0.5),
    ((0.0, math.inf, 1.0), 0.5),
    ((0.0, 0.0, 1.0), math.inf),
    ((0.0, 0.0, 1.0), math.nan),
])
def test_check_plane_rejects_a_plane_it_cannot_evaluate(normal, offset):
    # z = 0.5 cuts off the cap's apex; a non-finite entry must not read as "no violation"
    disc = paraboloid_cap_disc()
    assert check_plane(disc, (0.0, 0.0, 1.0), 0.5)
    with pytest.raises(ValueError, match="finite"):
        check_plane(disc, normal, offset)
    with pytest.raises(ValueError, match="finite"):
        _PlaneSections(disc).heights(np.asarray(normal, dtype=float), offset)


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


# ------------------------------------------------------------- monotone-walk certificate


def bumped_disc(k: int, heights: dict):
    """The flat k x k grid disc with grid points (i, j) raised to the given heights."""
    vertices, triangles = grid_disc(k)
    z = np.zeros(len(vertices))
    for (i, j), h in heights.items():
        z[j * k + i] = h
    return make_mapped_disc(vertices, triangles, np.column_stack([vertices, z]))


# disc, plane offset (normal (0, 0, 1)), whether the walk clears the plane,
# the sides cut off; the image scale is 1, so the snap distance is 1e-9
FALLBACK_CASES = {
    # a flat top: four level vertices above the plane, none with a higher neighbour
    "plateau": (bumped_disc(6, {(2, 2): 1.0, (3, 2): 1.0, (2, 3): 1.0, (3, 3): 1.0}), 0.5, False, ["positive"]),
    # a level ridge out to the rim: the walk stalls, yet nothing is cut off
    "ridge": (bumped_disc(6, {(i, 2): 1.0 for i in range(4)}), 0.5, False, []),
    # a strict interior maximum and a strict interior minimum
    "peak_and_pit": (bumped_disc(5, {(1, 1): 1.0, (3, 3): -1.0}), 0.0, False, ["positive", "negative"]),
    # a vertex at the snap distance lies on the plane; one ulp further it is cut off
    "at_snap": (bumped_disc(5, {(2, 2): 1e-9}), 0.0, True, []),
    "beyond_snap": (bumped_disc(5, {(2, 2): np.nextafter(1e-9, 1.0)}), 0.0, False, ["positive"]),
    # a peak within the snap of the plane, over a level floor below it
    "snapped_peak": (bumped_disc(5, {(2, 2): 1.0}), 1.0 - 0.5e-9, False, []),
}


@pytest.mark.parametrize("name", sorted(FALLBACK_CASES))
def test_check_plane_falls_back_to_the_face_search_where_the_walk_stalls(name):
    disc, offset, cleared, sides = FALLBACK_CASES[name]
    normal = np.array([0.0, 0.0, 1.0])
    sections = _PlaneSections(disc)
    assert sections.climbs(sections.distances(normal, offset)) is cleared
    got = check_plane(disc, normal, offset, sections=sections)
    assert got == check_plane_oracle(disc, normal, offset)
    assert [v["side"] for v in got] == sides


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("c", [1.1, -0.7])
def test_check_plane_equals_oracle_on_planes_through_grid_lines(k, c):
    # these planes pass through rows, columns and level sets of grid
    # vertices, so neighbours tie on either side
    disc = grid_saddle_disc(k, c)
    xs = np.linspace(0.0, 1.0, k)
    planes = [((1.0, 0.0, 0.0), t) for t in xs] + [((0.0, 1.0, 0.0), t) for t in xs]
    planes += [((0.0, 0.0, 1.0), c * s * t) for s in xs for t in xs]
    planes += [((1.0, -1.0, 0.0), 0.0), ((1.0, 1.0, 0.0), 1.0), ((1.0, 1.0, 0.0), xs[1])]
    sections = _PlaneSections(disc)
    for normal, offset in planes:
        assert check_plane(disc, normal, offset, sections=sections) == check_plane_oracle(disc, normal, offset)


def test_the_walk_clears_most_planes_of_the_saddle_grid(monkeypatch):
    searched = []
    climbs = _PlaneSections.climbs

    def counted(self, g):
        cleared = climbs(self, g)
        searched.append(not cleared)
        return cleared

    monkeypatch.setattr(_PlaneSections, "climbs", counted)
    verdict = is_saddle_pl(grid_saddle_disc(5), extra_planes=200, seed=1)
    assert verdict.saddle
    assert verdict.planes_tested == len(searched) == 1787
    assert sum(searched) < 0.1 * verdict.planes_tested


def test_a_disc_without_interior_vertices_clears_every_plane():
    vertices, triangles = grid_disc(2)
    x, y = vertices[:, 0], vertices[:, 1]
    disc = make_mapped_disc(vertices, triangles, np.column_stack([x, y, x * y]))
    sections = _PlaneSections(disc)
    assert len(sections.inner) == 0
    for normal, offset in zip(*_candidate_planes(sections, 20, 0)):
        assert sections.climbs(sections.distances(normal, offset))
        assert check_plane_oracle(disc, normal, offset) == []


def pinched_disc():
    """The 6 x 6 grid disc with a tetrahedron's surface glued on at two
    interior vertices that share no neighbour, as the fields of a
    `MappedDisc` into R^3.

    Every edge keeps at most two faces, the Euler characteristic stays 1
    and the boundary is the grid's one cycle; but the faces around either
    glued vertex form two fans, one in the grid and one in the tetrahedron,
    so the complex is no disc.
    """
    vertices, triangles = grid_disc(6)
    loop = boundary_loop_of(vertices, triangles)
    q, r, s, t = 7, 28, 36, 37
    vertices = np.vstack([vertices, [[0.3, 0.7], [0.7, 0.3]]])
    triangles = np.vstack([triangles, [[q, r, s], [q, r, t], [q, s, t], [r, s, t]]])
    x, y = vertices[:, 0], vertices[:, 1]
    z = x + y + 1.0
    z[[s, t]] = 0.0
    return vertices, triangles, loop, np.column_stack([x, y, z]), EuclideanSpace(3)


def test_a_disc_with_split_vertex_fans_is_rejected(tmp_path):
    with pytest.raises(ValueError) as err:
        MappedDisc(*pinched_disc())
    assert err.value.problems == ["faces around vertices [7, 28] form more than one fan"]
    vertices, triangles, loop, images, _ = pinched_disc()
    doc = {"format_version": 1, "kind": "mapped_disc", "target": {"type": "euclidean", "dimension": 3},
           "payload": {"vertices": vertices.tolist(), "triangles": triangles.tolist(),
                       "boundary_loop": loop, "images": images.tolist()}}
    path = tmp_path / "pinched.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--in", str(path), "--out", str(tmp_path / "v.json")]) == 1
    assert main(["metrics", "--in", str(path), "--out", str(tmp_path / "m.json")]) == 2
    assert main(["check-saddle", "--in", str(path), "--out", str(tmp_path / "s.json")]) == 2


def test_offset_keys_bitwise_equal_python_round():
    rng = np.random.default_rng(24)
    k = np.arange(-3000, 3000)
    near_ties = (k + 0.5) * 1e-9
    edge = 2.0**52 / 1e9
    offsets = np.concatenate([
        k / 1024.0,  # offset * 1e9 is an exact half-integer for odd k
        near_ties, np.nextafter(near_ties, np.inf), np.nextafter(near_ties, -np.inf),
        edge * (1.0 + np.arange(-20, 21) * 2.0**-52), [-edge, 2.0 * edge, 1e300, -1e300],
        [0.0, -0.0, 5e-10, -5e-10, 1e-320, -1e-320],
        rng.uniform(-1.0, 1.0, 3000) * 10.0 ** rng.integers(-12, 9, 3000),
    ])
    want = [round(o, 9) for o in offsets.tolist()]
    with np.errstate(over="ignore", invalid="ignore"):  # 1e300 * 1e9
        assert np.array_equal(bits(_offset_keys(offsets)), bits(want))
        # np.round alone differs on some of them
        assert not np.array_equal(bits(np.round(offsets, 9)), bits(want))


def test_candidate_planes_bitwise_equal_oracle_at_offset_half_ties():
    # images on a 1/1024 lattice: the planes x = const have offsets whose
    # product with 1e9 is an exact half-integer
    vertices, triangles = grid_disc(4)
    i, j = np.divmod(np.arange(16), 4)
    images = np.column_stack([2 * j + 1, 2 * i + 1, 2 * ((i * j) % 3) + 1]) / 1024.0
    disc = make_mapped_disc(vertices, triangles, images)
    normals, offsets = _candidate_planes(_PlaneSections(disc), 40, 3)
    assert np.any(np.abs(offsets * 1e9 % 1.0 - 0.5) == 0.0)
    want = candidate_planes_oracle(disc, 40, 3, 1e-7)
    assert len(want) == len(normals) == len(offsets)
    assert np.array_equal(bits(normals), bits([n for n, _ in want]))
    assert np.array_equal(bits(offsets), bits([o for _, o in want]))


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
