import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from catmin.cli import main
from catmin.fields import bilinear_saddle_patch
from catmin.instances import (
    fixture_path,
    graph_instance,
    instance_to_json,
    jsonable,
    load_instance,
    mapped_disc_instance,
    parse_instance,
    patch_instance,
    poly_disc_instance,
    save_instance,
    validate_instance,
)
from catmin.majorize import cone_disc
from catmin.mesh import MappedDisc
from catmin.meshgen import grid_disc, make_mapped_disc, random_height_disc
from catmin.saddle import hexagon_counterexample
from catmin.targets import EuclideanSpace

from oracles import instance_to_json_oracle, jsonable_oracle


def flat_instance():
    vertices, triangles = grid_disc(3)
    images = np.column_stack([vertices, np.zeros(len(vertices))])
    return mapped_disc_instance(make_mapped_disc(vertices, triangles, images))


# --------------------------------------------------------------- round trips


def test_mapped_disc_round_trip():
    doc = flat_instance()
    text = instance_to_json(doc)
    again = instance_to_json(json.loads(text))
    assert text == again
    kind, disc, _ = parse_instance(json.loads(text))
    assert kind == "mapped_disc"
    assert instance_to_json(mapped_disc_instance(disc)) == text


def test_round_trip_all_kinds(tmp_path):
    disc = random_height_disc(3, max_vertices=12)
    docs = [
        mapped_disc_instance(disc, sample=[0, 1]),
        patch_instance(bilinear_saddle_patch(0.5, 8)),
        poly_disc_instance(cone_disc(2 * math.pi, 6)),
    ]
    from catmin.saddle import hexagon_graph

    docs.append(graph_instance(hexagon_graph()))
    for doc in docs:
        assert validate_instance(doc) == [], doc["kind"]
        p = tmp_path / f"{doc['kind']}.json"
        save_instance(doc, p)
        loaded = load_instance(p)
        assert instance_to_json(loaded) == instance_to_json(doc)
        parse_instance(loaded)


def test_infinity_encoding():
    from catmin.instances import jsonable

    assert jsonable([1.0, math.inf, -math.inf]) == [1.0, "inf", "-inf"]


def test_validate_reports_bad_fields():
    doc = flat_instance()
    doc["payload"]["triangles"][0][0] = 99
    problems = validate_instance(doc)
    assert any("out of range" in p for p in problems)

    doc2 = flat_instance()
    doc2["tolerances"]["zero"] = -1.0
    assert any("tolerance" in p for p in validate_instance(doc2))

    doc3 = flat_instance()
    doc3["kind"] = "nope"
    assert any("kind" in p for p in validate_instance(doc3))


def test_validate_well_formed_fixture_clean():
    paths = sorted(fixture_path("hexagon.json").parent.glob("*.json"))
    assert len(paths) >= 4
    for path in paths:
        assert validate_instance(load_instance(path)) == [], path.name


def test_fixture_matches_frozen_builder():
    doc = load_instance(fixture_path("hexagon.json"))
    _, disc, _ = parse_instance(doc)
    built = hexagon_counterexample()
    assert np.array_equal(np.asarray(disc.images), np.asarray(built.images))
    assert np.array_equal(disc.vertices, built.vertices)


# --------------------------------------------------------------- CLI


def run_cli(*argv):
    return main(list(argv))


def test_cli_metrics_flat_chain_pass(tmp_path):
    inst = tmp_path / "flat.json"
    save_instance(flat_instance(), inst)
    out = tmp_path / "report.json"
    code = run_cli("metrics", "--in", str(inst), "--out", str(out), "--refine", "2")
    assert code == 0
    rep = load_instance(out)
    assert rep["pass"] is True
    assert rep["chain"]["holds"] is True


def test_cli_counterexample_then_check_saddle(tmp_path):
    cx = tmp_path / "cx.json"
    assert run_cli("counterexample", "--out", str(cx)) == 0
    assert run_cli("check-saddle", "--in", str(cx), "--planes", "50",
                   "--out", str(tmp_path / "saddle.json")) == 0


def test_cli_check_cat0_cone_fixture_fails(tmp_path):
    code = run_cli(
        "check-cat0",
        "--in", str(fixture_path("cone_five_equilateral.json")),
        "--out", str(tmp_path / "r.json"),
    )
    assert code == 1
    rep = load_instance(tmp_path / "r.json")
    assert rep["pass"] is False


def test_cli_check_cat0_flat_cone_passes(tmp_path):
    code = run_cli(
        "check-cat0",
        "--in", str(fixture_path("cone_5pi2.json")),
        "--out", str(tmp_path / "r.json"),
    )
    assert code == 0


def test_cli_malformed_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli("metrics", "--in", str(bad)) == 2
    # too deep for the decoder (a RecursionError) or no UTF-8 text
    for name, data in (("deep.json", b"[" * 100000 + b"]" * 100000), ("binary.json", b"\xff\xfe{}")):
        (tmp_path / name).write_bytes(data)
        for command in ("validate", "check-cat0"):
            capsys.readouterr()
            assert run_cli(command, "--in", str(tmp_path / name)) == 2
            assert capsys.readouterr().err.startswith(f"input error: cannot read instance {tmp_path / name}")
    doc = flat_instance()
    doc["payload"]["triangles"][0][0] = 99
    worse = tmp_path / "worse.json"
    save_instance(doc, worse)
    assert run_cli("metrics", "--in", str(worse)) == 2


def test_cli_key_lemma_and_determinism(tmp_path):
    disc = random_height_disc(11, max_vertices=12)
    boundary = sorted(disc.boundary_vertex_set())
    inst = tmp_path / "disc.json"
    save_instance(mapped_disc_instance(disc, sample=boundary[:4]), inst)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("key-lemma", "--in", str(inst), "--out", str(out1)) == 0
    assert run_cli("key-lemma", "--in", str(inst), "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("bad", ["999", "-1"])
def test_cli_key_lemma_sample_out_of_range_exit_2(tmp_path, capsys, bad):
    # a --sample vertex outside the 144-vertex grid is malformed input; it
    # must neither crash (999) nor wrap round to vertex 143 and pass (-1)
    vertices, triangles = grid_disc(12)
    x, y = vertices[:, 0], vertices[:, 1]
    disc = make_mapped_disc(vertices, triangles, np.stack([x, y, 1.2 * x * y], axis=1))
    assert disc.n_vertices == 144
    inst = tmp_path / "grid12.json"
    save_instance(mapped_disc_instance(disc), inst)
    out = tmp_path / "r.json"
    assert run_cli("key-lemma", "--in", str(inst), "--out", str(out), "--sample", "0", "5", bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and f"vertex {bad} " in err
    assert not out.exists()



def _saddle_disc_doc():
    # the document as a file holds it, plain lists that the cases edit
    vertices, triangles = grid_disc(3)
    x, y = vertices[:, 0] - 0.5, vertices[:, 1] - 0.5
    disc = make_mapped_disc(vertices, triangles, np.stack([x, y, x * y], axis=1))
    return json.loads(instance_to_json(mapped_disc_instance(disc, sample=[0, 2, 8])))


def _nan_image():
    doc = _saddle_disc_doc()
    doc["payload"]["images"][4][2] = math.nan
    return doc, "images not finite at vertices: [4]"


def _infinite_vertex():
    doc = _saddle_disc_doc()
    doc["payload"]["vertices"][4][0] = "inf"
    return doc, "parameter vertices not finite: [4]"


def _nan_patch_value():
    doc = json.loads(instance_to_json(patch_instance(bilinear_saddle_patch(0.5, 4))))
    doc["payload"]["values"][2][2][2] = math.nan
    return doc, "values must be finite"


@pytest.mark.parametrize(
    "make, command",
    [
        pytest.param(_nan_image, "key-lemma", id="key_lemma_nan_image"),
        pytest.param(_nan_image, "check-saddle", id="check_saddle_nan_image"),
        pytest.param(_infinite_vertex, "metrics", id="metrics_infinite_vertex"),
        pytest.param(_nan_patch_value, "solve-fields", id="solve_fields_nan_value"),
        pytest.param(_nan_patch_value, "perturb", id="perturb_nan_value"),
    ],
)
def test_cli_non_finite_input_is_malformed(tmp_path, capsys, make, command):
    # a non-finite coordinate is no point of the parameter plane or the
    # target: validate names it, and no command reads a verdict off it
    doc, diagnostic = make()
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "v.json"
    assert run_cli("validate", "--in", str(inst), "--out", str(out)) == 1
    assert any(diagnostic in p for p in load_instance(out)["diagnostics"])
    capsys.readouterr()
    report = tmp_path / "r.json"
    assert run_cli(command, "--in", str(inst), "--out", str(report)) == 2
    assert capsys.readouterr().err.startswith("input error: invalid instance")
    assert not report.exists()


def _short_images():
    # 2-d images under the declared EuclideanSpace(3)
    doc = _saddle_disc_doc()
    doc["payload"]["images"] = [p[:2] for p in doc["payload"]["images"]]
    return doc


def test_mapped_disc_rejects_images_outside_its_target():
    _, triangles = grid_disc(3)
    doc = _short_images()
    with pytest.raises(ValueError) as err:
        MappedDisc(doc["payload"]["vertices"], triangles, doc["payload"]["boundary_loop"],
                   doc["payload"]["images"], EuclideanSpace(3))
    assert err.value.problems == ["images not points of EuclideanSpace(3) at vertices: [0, 1, 2, 3, 4, 5, 6, 7, 8]"]
    assert str(err.value) == "invalid MappedDisc: " + err.value.problems[0]


@pytest.mark.parametrize("command", ["metrics", "key-lemma", "check-saddle"])
def test_cli_image_of_wrong_dimension_is_malformed(tmp_path, capsys, command):
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(_short_images()), encoding="utf-8")
    out = tmp_path / "v.json"
    assert run_cli("validate", "--in", str(inst), "--out", str(out)) == 1
    assert load_instance(out)["diagnostics"] == [
        "payload: images not points of EuclideanSpace(3) at vertices: [0, 1, 2, 3, 4, 5, 6, 7, 8]"
    ]
    capsys.readouterr()
    report = tmp_path / "r.json"
    assert run_cli(command, "--in", str(inst), "--out", str(report)) == 2
    assert capsys.readouterr().err.startswith("input error: invalid instance")
    assert not report.exists()


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
    "known defect (ROADMAP item 16): squared distances between images this "
    "large overflow, so metrics, check-saddle and key-lemma exit 2 on NaN"))
@pytest.mark.parametrize("scale", [1e156, 1e300])
def test_cli_disc_that_validates_is_not_malformed_input(tmp_path, capsys, scale):
    # exit 2 means malformed input, and validate accepts this disc
    disc = random_height_disc(1005, max_vertices=30)
    inst = tmp_path / "disc.json"
    save_instance(mapped_disc_instance(make_mapped_disc(disc.vertices, disc.triangles, scale * disc.images)), inst)
    assert run_cli("validate", "--in", str(inst), "--out", str(tmp_path / "v.json")) == 0
    codes = {
        command[0]: run_cli(*command, "--in", str(inst), "--out", str(tmp_path / "r.json"))
        for command in (["metrics"], ["check-saddle"], ["key-lemma", "--sample", "0", "1", "2", "3"])
    }
    assert 2 not in codes.values(), codes


def test_cli_check_saddle_negative_planes_is_malformed(tmp_path, capsys):
    # a negative count of random planes is no count: it must not pass
    # the disc on the vertex-triple planes alone
    inst = tmp_path / "disc.json"
    save_instance(_saddle_disc_doc(), inst)
    out = tmp_path / "r.json"
    assert run_cli("check-saddle", "--in", str(inst), "--planes", "-3", "--out", str(out)) == 2
    assert "extra_planes" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("check-saddle", "--in", str(inst), "--planes", "0", "--out", str(out)) == 0

def square_graph():
    """A unit square's corners pinned, with one free centre vertex."""
    from catmin.graphs import GraphInTarget, rotation_from_positions
    from catmin.targets import EuclideanSpace

    pts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.4), (0.0, 1.0, 0.0), (0.5, 0.5, 0.3)]
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]
    positions = np.asarray([p[:2] for p in pts])
    return GraphInTarget(
        points=[np.asarray(p) for p in pts],
        edges=edges,
        pinned={0, 1, 2, 3},
        rotation=rotation_from_positions(5, edges, positions),
        target=EuclideanSpace(3),
        positions=positions,
    )


def square_graph_instance(path):
    save_instance(graph_instance(square_graph()), path)
    return path


def test_cli_minimize_and_build_disc(tmp_path):
    inst = square_graph_instance(tmp_path / "graph.json")
    relaxed = tmp_path / "relaxed.json"
    assert run_cli("minimize-graph", "--in", str(inst), "--out", str(relaxed)) == 0
    rep = load_instance(relaxed)
    assert rep["certificate"]["valid"] is True

    disc_out = tmp_path / "disc.json"
    svg = tmp_path / "w.svg"
    code = run_cli("build-disc", "--in", str(inst), "--out", str(disc_out), "--svg", str(svg))
    assert code in (0, 1)  # certificate outcome depends on the instance
    assert svg.exists()
    built = load_instance(disc_out)
    assert "disc" in built


@pytest.mark.parametrize("flags", [
    ("--max-iter", "0"),
    ("--max-iter", "-3"),
    ("--tol-descent", "-1"),
    ("--tol-descent", "nan"),
    ("--tol-descent", "inf"),
])
def test_cli_minimize_graph_bad_flag_is_malformed(tmp_path, capsys, flags):
    # no sweep limit below one and no negative tolerance is a well-formed
    # request: exit 2 with an input error, not a stack trace or a verdict
    inst = square_graph_instance(tmp_path / "graph.json")
    out = tmp_path / "r.json"
    assert run_cli("minimize-graph", "--in", str(inst), "--out", str(out), *flags) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not out.exists()


def test_cli_minimize_graph_reads_a_zero_tol_descent(tmp_path):
    # 0 is a tolerance like any other, not a request for the instance's
    inst = square_graph_instance(tmp_path / "graph.json")
    out = tmp_path / "r.json"
    assert run_cli("minimize-graph", "--in", str(inst), "--out", str(out), "--tol-descent", "0") == 0
    assert load_instance(out)["certificate"]["tolerances"]["descent"] == 0.0


def test_cli_check_cat0_negative_tol_angle_is_malformed(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli("check-cat0", "--in", str(fixture_path("cone_5pi2.json")),
                   "--tol-angle", "-1", "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not out.exists()


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_cli_check_cat0_non_finite_tol_angle_is_malformed(tmp_path, capsys, tol):
    # an infinite tolerance would pass any cone, 3pi/2 included, and a NaN
    # one fail every cone: neither is a verdict on the disc
    out = tmp_path / "r.json"
    code = run_cli("check-cat0", "--in", str(fixture_path("cone_3pi2.json")),
                   "--tol-angle", tol, "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not out.exists()


@pytest.mark.parametrize("tol", [math.inf, math.nan])
@pytest.mark.parametrize("command, key", [("check-cat0", "angle"), ("minimize-graph", "descent")])
def test_cli_non_finite_instance_tolerance_is_malformed(tmp_path, capsys, tol, command, key):
    # json.loads reads NaN and Infinity, so a tolerances block can carry them
    if command == "check-cat0":
        doc = load_instance(fixture_path("cone_3pi2.json"))
    else:
        doc = load_instance(square_graph_instance(tmp_path / "g.json"))
    doc["tolerances"][key] = tol
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "v.json"
    assert run_cli("validate", "--in", str(inst), "--out", str(out)) == 1
    assert f"tolerance '{key}' must be a finite nonnegative number" in load_instance(out)["diagnostics"]
    capsys.readouterr()
    report = tmp_path / "r.json"
    assert run_cli(command, "--in", str(inst), "--out", str(report)) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not report.exists()


def test_relax_and_cat0_reject_bad_limits():
    from catmin.majorize import cat0_certificate
    from catmin.minimize import certify_conditions, relax

    g = square_graph()
    for max_iter in (0, -3):
        with pytest.raises(ValueError, match="max_iter"):
            relax(g, max_iter=max_iter)
    # an infinite tolerance passes every test and a NaN one fails every one
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol_descent"):
            relax(g, tol_descent=bad)
        with pytest.raises(ValueError, match="tol_angle"):
            cat0_certificate(cone_disc(2 * math.pi, 4), tol_angle=bad)
        for name in ("tol_descent", "tol_angle"):
            with pytest.raises(ValueError, match=name):
                certify_conditions(g, **{name: bad})


def test_cli_solve_fields_and_perturb(tmp_path):
    inst = tmp_path / "patch.json"
    save_instance(patch_instance(bilinear_saddle_patch(0.5, 16)), inst)
    out = tmp_path / "fields.json"
    assert run_cli("solve-fields", "--in", str(inst), "--out", str(out)) == 0
    rep = load_instance(out)
    assert rep["pass"] is True
    assert run_cli("perturb", "--in", str(inst), "--trials", "10",
                   "--out", str(tmp_path / "p.json")) == 0


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_perturb_without_trials_is_malformed(tmp_path, capsys, trials):
    # no trial means no evidence: a PASS here would claim minimality untested
    inst = tmp_path / "patch.json"
    save_instance(patch_instance(bilinear_saddle_patch(0.5, 16)), inst)
    out = tmp_path / "p.json"
    assert run_cli("perturb", "--in", str(inst), "--trials", trials, "--out", str(out)) == 2
    assert "trials" in capsys.readouterr().err
    assert not out.exists()


def test_cli_shorten_pinwheel(tmp_path):
    cx = tmp_path / "cx.json"
    run_cli("counterexample", "--out", str(cx))
    out = tmp_path / "sh.json"
    assert run_cli("shorten", "--in", str(cx), "--epsilon", "0.05", "--out", str(out)) == 0
    rep = load_instance(out)
    assert rep["report"]["pareto"] is True
    assert rep["report"]["max_strict_decrease"] >= 1e-4


def test_cli_validate_command(tmp_path):
    inst = tmp_path / "flat.json"
    save_instance(flat_instance(), inst)
    assert run_cli("validate", "--in", str(inst)) == 0
    doc = flat_instance()
    doc["tolerances"]["zero"] = -3
    save_instance(doc, inst)
    assert run_cli("validate", "--in", str(inst)) == 1


def _two_point_face(payload):
    payload["tri_coords"][0] = payload["tri_coords"][0][:2]


def _walk_vertex_outside(payload):
    payload["boundary_walk"][2] = payload["n_vertices"]


def _short_boundary_lengths(payload):
    payload["boundary_lengths"].pop()


def _three_d_coords(payload):
    payload["tri_coords"] = [[p + [0.0] for p in tri] for tri in payload["tri_coords"]]


def _infinite_coord(payload):
    payload["tri_coords"][1][2][0] = "inf"


def _vertex_pair(payload):
    payload["tri_vertices"][2] = payload["tri_vertices"][2][:2]


def _negative_vertex(payload):
    payload["tri_vertices"][2][1] = -1


def _missing_triple(payload):
    payload["tri_vertices"].pop()


def _bridge_outside(payload):
    payload["bridges"].append([0, payload["n_vertices"], 1.0])


def _infinite_boundary_length(payload):
    payload["boundary_lengths"][0] = "inf"


@pytest.mark.parametrize(
    "edit, diagnostic",
    [
        pytest.param(_two_point_face, "tri_coords[0]", id="two_point_face"),
        pytest.param(_walk_vertex_outside, "boundary_walk", id="walk_vertex_outside"),
        pytest.param(_short_boundary_lengths, "boundary_lengths", id="short_boundary_lengths"),
        pytest.param(_three_d_coords, "tri_coords[0]", id="three_d_coords"),
        pytest.param(_infinite_coord, "tri_coords[1]", id="infinite_coord"),
        pytest.param(_vertex_pair, "tri_vertices[2]", id="vertex_pair"),
        pytest.param(_negative_vertex, "tri_vertices[2]", id="negative_vertex"),
        pytest.param(_missing_triple, "one triple per tri_coords entry", id="missing_triple"),
        pytest.param(_bridge_outside, "bridge (0,7)", id="bridge_outside"),
        pytest.param(_infinite_boundary_length, "boundary_lengths[0]", id="infinite_boundary_length"),
    ],
)
def test_cli_malformed_polyhedral_disc(tmp_path, capsys, edit, diagnostic):
    # side lengths and corners cannot be read from any of these payloads:
    # validate must name the fault first, and commands reject it as input
    doc = json.loads(instance_to_json(poly_disc_instance(cone_disc(2 * math.pi, 6))))
    edit(doc["payload"])
    inst = tmp_path / "w.json"
    save_instance(doc, inst)
    out = tmp_path / "v.json"
    assert run_cli("validate", "--in", str(inst), "--out", str(out)) == 1
    assert any(diagnostic in p for p in load_instance(out)["diagnostics"])
    capsys.readouterr()
    assert run_cli("check-cat0", "--nets", "--in", str(inst)) == 2
    assert capsys.readouterr().err.startswith("input error: invalid instance")


def test_cli_rejects_a_projective_plane(tmp_path, capsys):
    # every side glued to the other side on its vertex pair: Euler
    # characteristic 1 and connected, but closed, so no disc retract
    from catmin.majorize import comparison_triangle

    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
            (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    sides: dict = {}
    for f, tri in enumerate(tris):
        for s in range(3):
            sides.setdefault(frozenset((tri[s], tri[(s + 1) % 3])), []).append([f, s])
    payload = {
        "tri_coords": [comparison_triangle(1.0, 1.0, 1.0).coords.tolist()] * len(tris),
        "tri_vertices": [list(tri) for tri in tris],
        "gluings": list(sides.values()),
        "bridges": [],
        "boundary_walk": list(range(6)),
        "boundary_lengths": [1.0] * 6,
        "n_vertices": 6,
    }
    inst = tmp_path / "rp2.json"
    inst.write_text(json.dumps({"format_version": 1, "kind": "polyhedral_disc", "payload": payload}))
    out = tmp_path / "v.json"
    assert run_cli("validate", "--in", str(inst), "--out", str(out)) == 1
    closed = "triangles [0, 1, 2, 3, 4, 5, 6, 7, 8, 9] are glued into a closed surface"
    assert any(closed in p for p in load_instance(out)["diagnostics"])
    capsys.readouterr()
    assert run_cli("check-cat0", "--in", str(inst)) == 2
    assert closed in capsys.readouterr().err


def _edge_triple(payload):
    payload["edges"][0] = payload["edges"][0] + [2]


def _edge_of_names(payload):
    payload["edges"][0] = ["a", 1]


def _planar_point(payload):
    payload["points"][0] = payload["points"][0][:2]


def _pinned_name(payload):
    payload["pinned"][0] = "x"


def _rotation_of_names(payload):
    payload["rotation"][0] = ["a"]


def _pinned_number(payload):
    payload["pinned"] = 3


def _point_of_names(payload):
    payload["points"][0] = ["a", "b", "c"]


def _duplicated_edge(payload):
    # each end's rotation lists the other twice, so it is still a
    # permutation of the neighbour list
    u, v = payload["edges"][0]
    payload["edges"].append([u, v])
    payload["rotation"][u].append(v)
    payload["rotation"][v].append(u)


@pytest.mark.parametrize(
    "edit, diagnostic",
    [
        pytest.param(_edge_triple, "[0, 1, 2]", id="edge_triple"),
        pytest.param(_edge_of_names, "['a', 1]", id="edge_of_names"),
        pytest.param(_planar_point, "points[0]", id="planar_point"),
        pytest.param(_pinned_name, "'x'", id="pinned_name"),
        pytest.param(_rotation_of_names, "['a']", id="rotation_of_names"),
        pytest.param(_pinned_number, "payload.pinned", id="pinned_number"),
        pytest.param(_point_of_names, "['a', 'b', 'c']", id="point_of_names"),
        pytest.param(_duplicated_edge, "edge (0,1) listed twice", id="duplicated_edge"),
    ],
)
def test_cli_malformed_graph(tmp_path, capsys, edit, diagnostic):
    # none of these payloads can be glued: validate names the entry, and
    # build-disc and minimize-graph reject it as input instead of failing
    # inside numpy or relaxing a multigraph
    from catmin.saddle import hexagon_graph

    doc = graph_instance(hexagon_graph())
    assert doc["payload"]["edges"][0] == [0, 1]
    edit(doc["payload"])
    inst = tmp_path / "g.json"
    save_instance(doc, inst)
    out = tmp_path / "v.json"
    assert run_cli("validate", "--in", str(inst), "--out", str(out)) == 1
    assert any(diagnostic in p for p in load_instance(out)["diagnostics"])
    capsys.readouterr()
    for command in ("build-disc", "minimize-graph"):
        assert run_cli(command, "--in", str(inst)) == 2
        assert capsys.readouterr().err.startswith("input error: invalid instance")


def test_svg_outputs(tmp_path):
    from catmin.svgout import svg_parameter_domain, svg_plane_sections

    disc = hexagon_counterexample()
    p1 = tmp_path / "dom.svg"
    svg_parameter_domain(disc, p1)
    assert p1.read_text().startswith("<svg")
    p2 = tmp_path / "sec.svg"
    svg_plane_sections(disc, (0, 0, 1), 0.2, p2)
    assert "<polygon" in p2.read_text()


def test_svg_plane_sections_reads_the_plane_as_check_plane_does(tmp_path):
    # normal . x = offset: a normal of length 2 with offset 0.6 is the plane
    # z = 0.3, which check_plane tests; the figure drew z = 0.6
    from catmin.svgout import svg_plane_sections

    disc = hexagon_counterexample()
    paths = {}
    for name, normal, offset in (("long", (0, 0, 2), 0.6), ("unit", (0, 0, 1), 0.3), ("high", (0, 0, 1), 0.6)):
        paths[name] = tmp_path / f"{name}.svg"
        svg_plane_sections(disc, normal, offset, paths[name])
    assert paths["long"].read_bytes() == paths["unit"].read_bytes()
    assert paths["unit"].read_bytes() != paths["high"].read_bytes()


def test_fixture_files_are_canonical_bytes():
    # serialize(parse(file)) reproduces each shipped fixture byte for byte
    for name in (
        "hexagon.json",
        "cone_five_equilateral.json",
        "cone_5pi2.json",
        "cone_3pi2.json",
        "saddle_patch.json",
    ):
        path = fixture_path(name)
        raw = path.read_text(encoding="utf-8")
        assert instance_to_json(json.loads(raw)) == raw, name


def sweep_instance_8():
    """Key-lemma sweep instance 8: its disc and vertex sample."""
    disc = random_height_disc(9008, max_vertices=60, jitter=0.3)
    rng = np.random.default_rng(8)
    n = disc.n_vertices
    k = int(rng.integers(3, min(n, 12) + 1))
    return disc, [int(v) for v in rng.choice(n, k, replace=False)]


def test_cli_key_lemma_glue_failure_is_a_fail_verdict(tmp_path, capsys):
    # sweep instance 8: relax collapses an edge and the glue check rejects
    # the result; that is a FAIL of the glue stage, not malformed input
    disc, sample = sweep_instance_8()
    inst = tmp_path / "sweep8.json"
    save_instance(mapped_disc_instance(disc, sample=sample), inst)
    assert run_cli("key-lemma", "--in", str(inst), "--out", str(tmp_path / "r.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL (glue): ")
    assert "input error" not in err


def test_cli_build_disc_glue_failure_is_a_fail_verdict(tmp_path, capsys):
    # the relaxed graph of sweep instance 8 is well-formed, but its faces
    # cannot be glued within GLUE_TOL: a FAIL of the glue stage, exit 1
    from catmin.minimize import relax, straighten
    from catmin.pipeline import geodesic_graph

    disc, sample = sweep_instance_8()
    gamma0, _ = geodesic_graph(disc, sorted(sample), 2)
    gamma, _ = relax(straighten(gamma0), tol_descent=1e-8, max_iter=5000)
    inst = tmp_path / "relaxed8.json"
    save_instance(graph_instance(gamma), inst)
    assert validate_instance(load_instance(inst)) == []
    assert run_cli("build-disc", "--in", str(inst), "--out", str(tmp_path / "w.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL (glue): ")
    assert "input error" not in err


def test_cli_metrics_bracketed_disc_passes(tmp_path):
    # n = 25 > EXACT_CONNECTING_LIMIT: the bracket's upper side must be a
    # pseudometric, so the command reports PASS and exits 0
    disc = random_height_disc(1002, max_vertices=30)
    assert disc.n_vertices == 25
    inst = tmp_path / "acc1002.json"
    save_instance(mapped_disc_instance(disc), inst)
    out = tmp_path / "report.json"
    assert run_cli("metrics", "--in", str(inst), "--out", str(out)) == 0
    rep = load_instance(out)
    assert rep["connecting_exact"] is False
    assert len(rep["connecting_lower"]) == 25
    assert rep["matrices_verify"] is True
    assert rep["chain"]["holds"] is True
    assert rep["pass"] is True


def test_cli_metrics_exact_report_has_one_connecting_matrix(tmp_path):
    # an exact connecting matrix is its own lower bound: written once
    disc = random_height_disc(1020, max_vertices=30)
    assert disc.n_vertices == 13
    inst = tmp_path / "acc1020.json"
    save_instance(mapped_disc_instance(disc), inst)
    out = tmp_path / "report.json"
    assert run_cli("metrics", "--in", str(inst), "--out", str(out)) == 0
    rep = load_instance(out)
    assert rep["connecting_exact"] is True
    assert "connecting_lower" not in rep
    assert len(rep["connecting_upper"]) == 13


@pytest.mark.parametrize("seed", [1002, 1020])
def test_cli_metrics_report_bytes_are_the_oracle_writers(tmp_path, seed):
    # n = 25 is bracketed, n = 13 exact
    from catmin.induced import EXACT_CONNECTING_LIMIT, ordering_chain_report

    disc = random_height_disc(seed, max_vertices=30)
    assert (disc.n_vertices > EXACT_CONNECTING_LIMIT) == (seed == 1002)
    inst = tmp_path / "disc.json"
    save_instance(mapped_disc_instance(disc), inst)
    out = tmp_path / "report.json"
    assert run_cli("metrics", "--in", str(inst), "--out", str(out)) == 0
    text = out.read_text(encoding="utf-8")
    assert instance_to_json_oracle(json.loads(text)) == text
    rep = ordering_chain_report(parse_instance(load_instance(inst))[1])
    conn = rep["connecting"]
    report = {
        "length": rep["length"].d,
        "intrinsic": rep["intrinsic"].d,
        "connecting_upper": conn.upper.d,
        "connecting_lower": conn.lower,
        "chain": {key: rep[key] for key in ("chain_holds", "worst_length_vs_intrinsic", "slack")},
    }
    assert instance_to_json(report) == instance_to_json_oracle(report)


@pytest.mark.parametrize("seed", [1002, 1020])
def test_cli_metrics_validates_the_disc_once(tmp_path, monkeypatch, seed):
    calls = []
    diagnose = MappedDisc._diagnose

    def counted(self):
        calls.append(1)
        return diagnose(self)

    monkeypatch.setattr(MappedDisc, "_diagnose", counted)
    inst = tmp_path / "disc.json"
    save_instance(mapped_disc_instance(random_height_disc(seed, max_vertices=30)), inst)
    calls.clear()
    assert run_cli("metrics", "--in", str(inst), "--out", str(tmp_path / "r.json")) == 0
    assert len(calls) == 1


def test_cli_import_leaves_networkx_out():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, catmin.cli; sys.exit(int('networkx' in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "networkx was imported"


def _jsonable_samples():
    rng = np.random.default_rng(11)
    floats = rng.standard_normal((6, 5))
    floats[1, 2] = math.inf
    floats[4, 0] = -math.inf
    floats[5, 4] = math.inf
    cube = rng.standard_normal((2, 3, 4))
    cube[1, 2, 3] = -math.inf
    signed_zeros = np.array([0.0, -0.0, 1.0, -0.0, 0.0])
    # values where repr switches notation, subnormals, the float extremes
    notation = np.array([1e16, 1e15, 9999999999999998.0, 1e-05, 0.0001, 1e-4 - 1e-20, 5e-324,
                         2.2250738585072014e-308, 1.7976931348622e+308, 0.1, 1 / 3, -2.5e-10])
    return [
        floats,
        cube,
        np.array([math.inf, 1.5, -math.inf, -0.0]),
        np.float64(math.inf),
        np.array(-math.inf),
        np.array(2.5),
        rng.standard_normal(7).astype(np.float32),
        rng.integers(-5, 5, size=(3, 4)),
        rng.integers(0, 9, size=5).astype(np.uint8),
        np.array([[True, False], [False, True]]),
        np.zeros((0, 3)),
        np.zeros((0,)),
        np.zeros((3, 0)),
        np.zeros((2, 0, 3)),
        signed_zeros,
        notation,
        -notation,
        np.array([1e16, 1e-05, 1e-45, 0.1, -0.0, 3.4e38, -math.inf], dtype=np.float32),
        rng.standard_normal((2, 2, 2)).astype(np.float16),
        floats.T,
        floats[::2],
        cube[:, ::-1, 1::2],
        [floats, 0.5, floats, -0.0, math.inf, signed_zeros, np.float32(0.1)],
        {
            "a": {1: floats, "b": [cube, (np.int64(3), np.float64(-math.inf))]},
            "c": [None, True, "inf", 2, 0.5, np.array([1, 2])],
            "d": np.array(["x", "y"]),
        },
        {2.5: signed_zeros, None: [1.5], True: (notation, ("t", -0.0))},
        # strings that read like an array's splice marker, NULs, non-ASCII
        {"\x00": floats, "\x000": "\x001", "s": ["\x00", "\x002", '"\x000', cube]},
        ["\x000", "\x001", floats, cube],
        {"ü": notation, "text": "Grüße ∞ \u2028 \x00 \x7f", "k\x00": [signed_zeros]},
    ]


def test_jsonable_matches_recursive_converter():
    for obj in _jsonable_samples():
        want = jsonable_oracle(obj)
        got = jsonable(obj)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        assert instance_to_json({"x": obj}) == instance_to_json_oracle({"x": obj})


def test_writer_equals_the_oracle_writer_on_whole_documents():
    samples = _jsonable_samples()
    docs = [{f"s{i:02d}": obj for i, obj in enumerate(samples)}, {"all": samples}]
    docs += [obj for obj in samples if isinstance(obj, dict)]
    for doc in docs:
        text = instance_to_json(doc)
        assert text == instance_to_json_oracle(doc)
        assert text == instance_to_json(json.loads(text))


def test_writer_keeps_signed_zeros_apart():
    text = instance_to_json({"z": np.array([0.0, -0.0, 0.0]), "w": np.array([-0.0])})
    assert text == '{"w":[-0.0],"z":[0.0,-0.0,0.0]}\n'


def _builder_documents():
    from catmin.majorize import glue_disc
    from catmin.saddle import hexagon_graph

    square = square_graph()
    return [
        mapped_disc_instance(random_height_disc(1005, max_vertices=30), sample=[0, 3], metadata={"m": 1}),
        mapped_disc_instance(hexagon_counterexample()),
        graph_instance(square),
        graph_instance(hexagon_graph(), tolerances={"descent": 0.0}),
        patch_instance(bilinear_saddle_patch(0.5, 8)),
        poly_disc_instance(cone_disc(2 * math.pi, 6)),
        poly_disc_instance(glue_disc(square)[0]),
    ]


def test_builders_hand_their_arrays_to_the_writer(tmp_path):
    # the payload's float arrays reach the writer as arrays, and the saved
    # bytes are what the element-by-element writer makes of the document
    for i, doc in enumerate(_builder_documents()):
        payload = doc["payload"]
        assert any(isinstance(v, np.ndarray) or (isinstance(v, list) and v and isinstance(v[0], np.ndarray))
                   for v in payload.values()), doc["kind"]
        path = tmp_path / f"{i}.json"
        save_instance(doc, path)
        assert path.read_text(encoding="utf-8") == instance_to_json_oracle(doc), doc["kind"]


def test_writer_raises_what_the_oracle_writer_raises():
    cases = [
        ({"m": np.array([[1.0, 2.0], [math.inf, math.nan]])}, ValueError),
        ({"m": np.array(math.nan)}, ValueError),
        ({"m": np.array([1.0, 2.0]), "v": [0.5, math.nan]}, ValueError),
        ({"m": [np.zeros(3), np.array([math.nan], dtype=np.float32)]}, ValueError),
        ({"m": np.array([1.0, 2.0]), "o": object()}, TypeError),
        ({"m": np.array([1.0, 2.0]), "c": np.array([1 + 2j])}, TypeError),
        ({"m": np.array([1.0, 2.0]), "s": {1.5}}, TypeError),
    ]
    for doc, error in cases:
        with pytest.raises(error):
            instance_to_json_oracle(doc)
        with pytest.raises(error):
            instance_to_json(doc)


def test_jsonable_rejects_nan_in_arrays():
    for bad in (np.array([[1.0, math.nan], [math.inf, 0.0]]), np.array(math.nan),
                {"m": np.array([math.nan])}):
        with pytest.raises(ValueError):
            jsonable(bad)


# --------------------------------------------------------------- tolerance block


def _hexagon_graph_instance(path):
    from catmin.saddle import hexagon_graph

    save_instance(graph_instance(hexagon_graph()), path)
    return path


def _edited(doc_path, path, edit):
    doc = load_instance(doc_path)
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("command, source", [
    ("check-cat0", "cone_5pi2.json"),
    ("metrics", "hexagon.json"),
    ("build-disc", "pinwheel graph"),
    ("minimize-graph", "pinwheel graph"),
])
def test_cli_instance_without_tolerances_reads_the_defaults(tmp_path, command, source):
    # validate accepted the file, and the command died with KeyError: 'tolerances'
    src = fixture_path(source) if source.endswith(".json") else _hexagon_graph_instance(tmp_path / "g.json")
    bare = _edited(src, tmp_path / "bare.json", lambda d: d.pop("tolerances"))
    assert run_cli("validate", "--in", str(bare), "--out", str(tmp_path / "v.json")) == 0
    want, got = tmp_path / "want.json", tmp_path / "got.json"
    assert run_cli(command, "--in", str(src), "--out", str(want)) == 0
    assert run_cli(command, "--in", str(bare), "--out", str(got)) == 0
    assert got.read_bytes() == want.read_bytes()


def test_cli_boolean_tolerance_is_malformed(tmp_path, capsys):
    # isinstance(True, int) holds, so "angle": true validated and check-cat0
    # read it as 1.0
    inst = _edited(fixture_path("cone_3pi2.json"), tmp_path / "bool.json",
                   lambda d: d["tolerances"].update(angle=True))
    out = tmp_path / "v.json"
    assert run_cli("validate", "--in", str(inst), "--out", str(out)) == 1
    assert load_instance(out)["diagnostics"] == ["tolerance 'angle' must be a finite nonnegative number"]
    capsys.readouterr()
    report = tmp_path / "r.json"
    assert run_cli("check-cat0", "--in", str(inst), "--out", str(report)) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not report.exists()


def test_cli_key_lemma_reads_the_tolerance_block(tmp_path):
    inst = _edited(fixture_path("hexagon.json"), tmp_path / "h.json",
                   lambda d: d["tolerances"].update(descent=0.5, angle=0.5))
    out = tmp_path / "r.json"
    assert run_cli("key-lemma", "--in", str(inst), "--sample", "0", "2", "4", "6", "--out", str(out)) == 0
    assert load_instance(out)["certificate"]["tolerances"] == {"angle": 0.5, "descent": 0.5}


def test_cli_minimize_graph_reads_the_tolerance_angle(tmp_path):
    from catmin.saddle import hexagon_graph

    inst = tmp_path / "g.json"
    save_instance(graph_instance(hexagon_graph(), tolerances={"angle": 0.5}), inst)
    out = tmp_path / "r.json"
    assert run_cli("minimize-graph", "--in", str(inst), "--out", str(out)) == 0
    assert load_instance(out)["certificate"]["tolerances"] == {"angle": 0.5, "descent": 1e-8}


def test_parse_instance_merges_the_tolerance_block_over_the_defaults():
    from catmin.instances import DEFAULT_TOLERANCES

    doc = flat_instance()
    doc["tolerances"] = {"angle": 0.25, "verify": 1e-9}
    _, _, parsed = parse_instance(doc)
    assert parsed["tolerances"] == {"zero": 1e-9, "descent": 1e-8, "angle": 0.25, "verify": 1e-9}
    assert doc["tolerances"] == {"angle": 0.25, "verify": 1e-9}
    del doc["tolerances"]
    assert parse_instance(doc)[2]["tolerances"] == DEFAULT_TOLERANCES


def test_builders_write_the_tolerances_that_commands_read():
    from catmin import induced, majorize, minimize
    from catmin.instances import DEFAULT_TOLERANCES

    assert DEFAULT_TOLERANCES == {
        "zero": induced.ZERO_TOL, "descent": minimize.DESCENT_TOL, "angle": majorize.ANGLE_TOL,
    }
    for doc in _builder_documents():
        assert set(doc["tolerances"]) == {"zero", "descent", "angle"}, doc["kind"]


# --------------------------------------------------------------- the schema


def _pinwheel_graph_doc():
    from catmin.saddle import hexagon_graph

    return json.loads(instance_to_json(graph_instance(hexagon_graph())))


def _cone_doc():
    return json.loads(instance_to_json(poly_disc_instance(cone_disc(2 * math.pi, 6))))


def _string_positions():
    doc = _pinwheel_graph_doc()
    doc["payload"]["positions"] = "abc"
    return doc, "payload.positions: 'abc' is not a list of lists of 2 numbers", ["build-disc", "minimize-graph"]


def _one_element_gluing():
    doc = _cone_doc()
    doc["payload"]["gluings"][0] = [[0]]
    return doc, "payload.gluings[0]: [[0]] is not a list of 2 lists of 2 integers", ["check-cat0"]


def _float_index():
    doc = _cone_doc()
    doc["payload"]["tri_vertices"][0][1] = 6.7
    return doc, "payload.tri_vertices[0]: [0, 6.7, 2] is not a list of 3 integers", ["check-cat0"]


def _float_vertex_count():
    doc = _cone_doc()
    doc["payload"]["n_vertices"] = 7.9
    return doc, "payload.n_vertices: 7.9 is not an integer", ["check-cat0"]


def _numeric_string():
    doc = _saddle_disc_doc()
    doc["payload"]["vertices"][0][0] = "0.5"
    return doc, "payload.vertices[0]: ['0.5', 0.0] is not a list of 2 numbers", ["metrics", "check-saddle"]


def _empty_graph():
    # validated, then failed inside relax and glue_disc on an empty argmin
    doc = _pinwheel_graph_doc()
    doc["payload"].update(points=[], edges=[], pinned=[], rotation=[], positions=[])
    return doc, "payload: graph has no vertices", ["build-disc", "minimize-graph"]


def _unknown_top_level_key():
    doc = _cone_doc()
    doc["extra"] = 1
    return doc, "unknown key 'extra'", ["check-cat0"]


def _unknown_payload_key():
    doc = _cone_doc()
    doc["payload"]["bridge"] = []
    return doc, "payload: unknown key 'bridge'", ["check-cat0"]


def _unknown_tolerance_key():
    # a misspelt angle fell back to the default and judged the cone with it
    doc = load_instance(fixture_path("cone_3pi2.json"))
    doc["tolerances"]["angel"] = 10.0
    return doc, "tolerances: unknown key 'angel'", ["check-cat0"]


@pytest.mark.parametrize("make", [
    _string_positions, _one_element_gluing, _float_index, _float_vertex_count, _numeric_string,
    _empty_graph, _unknown_top_level_key, _unknown_payload_key, _unknown_tolerance_key,
])
def test_cli_reports_a_field_of_the_wrong_type_shape_or_name(tmp_path, capsys, make):
    # each of these crashed a command with a stack trace (exit 1), was read
    # as something else (6.7 as 6, "0.5" as 0.5), was ignored, or validated
    # and then failed a command (the empty graph)
    doc, diagnostic, commands = make()
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "v.json"
    assert run_cli("validate", "--in", str(inst), "--out", str(out)) == 1
    assert load_instance(out)["diagnostics"] == [diagnostic]
    for command in commands:
        capsys.readouterr()
        assert run_cli(command, "--in", str(inst), "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: invalid instance") and diagnostic in err
        assert not (tmp_path / "r.json").exists()


def test_graph_rejects_a_pinned_vertex_out_of_range():
    from catmin.graphs import GraphInTarget

    with pytest.raises(ValueError) as err:
        GraphInTarget(points=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], edges=[(0, 1)], pinned={5},
                      rotation=[[1], [0]], target=EuclideanSpace(3))
    assert err.value.problems == ["pinned vertex 5 out of range"]


def test_patch_names_its_fault_like_the_other_constructors():
    from catmin.fields import HeightFieldPatch

    base = bilinear_saddle_patch(0.5, 4)
    with pytest.raises(ValueError) as err:
        HeightFieldPatch(base.x[:3], base.y[:3], base.values[:3, :3])
    assert err.value.problems == ["x grid needs at least 5 nodes for stencils"]
    assert str(err.value) == "invalid HeightFieldPatch: x grid needs at least 5 nodes for stencils"
