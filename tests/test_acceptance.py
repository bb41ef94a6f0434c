"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line; run with ``pytest -s`` to see them.
The key-lemma runs are shared between the criteria that quantify over
every produced glued disc.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import nnls

from catmin.fields import bilinear_saddle_patch, field_system_report, perturbation_evidence, solve_field_system
from catmin.graphs import GraphInTarget, rotation_from_positions
from catmin.induced import connecting_on_graph, ordering_chain_report
from catmin.majorize import boundary_and_area, cone_disc, eps_net_report, thin_triangle_test
from catmin.meshgen import grid_disc, fan_disc, random_height_disc
from catmin.minimize import descent_direction, relax, straighten
from catmin.pipeline import run_key_lemma
from catmin.saddle import HEXAGON_PARAMS, hexagon_counterexample, is_saddle_pl, shorten_by_rotation
from catmin.targets import EuclideanSpace

from oracles import connecting_matrix_oracle, key_lemma_sampled_oracle


def report(idx, ok, elapsed, detail=""):
    line = f"ACCEPTANCE {idx:2d} {'PASS' if ok else 'FAIL'} ({elapsed:6.1f}s) {detail}"
    print(line)
    return ok


# ----------------------------------------------------------------- 1


def test_criterion_1_ordering_chain():
    t0 = time.monotonic()
    worst = 0.0
    ok = True
    for seed in range(50):
        disc = random_height_disc(1000 + seed, max_vertices=30)
        rep = ordering_chain_report(disc, refinement=2, zero_tol=1e-9)
        worst = max(worst, rep["worst_length_vs_intrinsic"], rep["worst_intrinsic_vs_connecting"])
        ok = ok and rep["chain_holds"]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    assert report(1, ok, elapsed, f"50 instances, worst chain excess {worst:.2e}")


# ----------------------------------------------------------------- 2


def test_criterion_2_connecting_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 13))
        edges = {(i - 1, i) for i in range(1, n)}
        for _ in range(int(rng.integers(0, 2 * n))):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        edges = sorted(edges)
        pts = rng.standard_normal((n, 3))
        dimg = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        got = connecting_on_graph(n, edges, dimg)
        assert got.exact
        want = connecting_matrix_oracle(n, edges, dimg)
        worst = max(worst, float(np.abs(got.upper.d - want).max()))
    elapsed = time.monotonic() - t0
    ok = worst == 0.0 and elapsed < 60.0
    assert report(2, ok, elapsed, f"100 graphs, max deviation {worst:.2e}")


# ----------------------------------------------------------------- 3


def _random_disc_graph(seed):
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        k = int(rng.integers(3, 5))
        vertices, triangles = grid_disc(k)
    else:
        vertices, triangles = fan_disc(int(rng.integers(5, 9)), rings=int(rng.integers(1, 3)))
    edges = sorted(
        {
            (min(int(a), int(b)), max(int(a), int(b)))
            for tri in triangles
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))
        }
    )
    n = len(vertices)
    pts = np.column_stack([vertices, np.zeros(n)])
    # jitter scaled to the shortest mesh edge keeps the instances generic
    # without seeding near-collapsed edges
    min_edge = min(np.linalg.norm(vertices[u] - vertices[v]) for u, v in edges)
    pts = pts + rng.uniform(-0.25, 0.25, size=(n, 3)) * min_edge
    edge_faces = {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edge_faces.setdefault((min(a, b), max(a, b)), []).append(1)
    boundary = {v for e, fs in edge_faces.items() if len(fs) == 1 for v in e}
    g = GraphInTarget(
        points=[p for p in pts],
        edges=edges,
        pinned=boundary,
        rotation=rotation_from_positions(n, edges, vertices),
        target=EuclideanSpace(3),
        positions=vertices,
    )
    return g


def test_criterion_3_relaxation_certificates():
    t0 = time.monotonic()
    worst_t = 0.0
    worst_deficit = 0.0
    ok = True
    for seed in range(50):
        g = _random_disc_graph(2000 + seed)
        _, cert = relax(straighten(g), tol_descent=1e-8)
        worst_t = max(worst_t, cert.worst_t_star)
        worst_deficit = max(worst_deficit, cert.worst_angle_deficit)
        ok = ok and cert.worst_t_star <= 1e-8
        ok = ok and cert.worst_angle_deficit <= 1e-6
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    assert report(
        3, ok, elapsed,
        f"50 instances, worst t*={worst_t:.2e} deficit={worst_deficit:.2e}",
    )


# ----------------------------------------------------------------- 4


def test_criterion_4_gordan_duality():
    t0 = time.monotonic()
    rng = np.random.default_rng(4242)
    disagreements = 0
    for _ in range(1000):
        dim = int(rng.integers(2, 4))
        deg = int(rng.integers(1, 9))
        units = rng.standard_normal((deg, dim))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        t_star, _ = descent_direction(units)
        a = np.vstack([units.T, np.ones(deg)])
        b = np.zeros(dim + 1)
        b[-1] = 1.0
        lam, _ = nnls(a, b)
        in_hull = float(np.linalg.norm(a @ lam - b)) < 1e-9
        if (t_star > 1e-9) == in_hull:
            disagreements += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 10.0
    assert report(4, ok, elapsed, f"1000 stars, {disagreements} disagreements")


# ----------------------------------------------------------------- 5, 6, 7 share the produced discs


@pytest.fixture(scope="module")
def key_lemma_runs():
    """The 20 runs, the time they took, and each run's disc and seed."""
    runs, inputs = [], []
    t0 = time.monotonic()
    for seed in range(20):
        disc = random_height_disc(3000 + seed, max_vertices=20)
        rng = np.random.default_rng(seed)
        boundary = sorted(disc.boundary_vertex_set())
        interior = [v for v in range(disc.n_vertices) if v not in set(boundary)]
        n_b = min(len(boundary), int(rng.integers(3, 6)))
        pick_b = [boundary[i] for i in rng.choice(len(boundary), size=n_b, replace=False)]
        pick_i = (
            [interior[i] for i in rng.choice(len(interior), size=min(2, len(interior)), replace=False)]
            if interior
            else []
        )
        runs.append(run_key_lemma(disc, pick_b + pick_i, refinement=2))
        inputs.append((disc, seed))
    return runs, time.monotonic() - t0, inputs


def test_criterion_5_key_lemma_contraction(key_lemma_runs):
    # the certificates over every run, and the former sampled checks as the
    # oracle: 500 random node pairs per W, so >= 9000 pairs over the 20 runs
    runs, build_time, inputs = key_lemma_runs
    t0 = time.monotonic()
    worst_contraction = max(r.verification["contraction_max_excess"] for r in runs)
    worst_short = max(r.verification["shortness_max_excess"] for r in runs)
    sampled = [
        key_lemma_sampled_oracle(r, disc, samples=500, seed=seed)
        for r, (disc, seed) in zip(runs, inputs) if r.disc is not None
    ]
    sampled_contraction = max(o["contraction_max_excess"] for o in sampled)
    sampled_short = max(o["shortness_max_excess"] for o in sampled)
    pairs = sum(o["shortness_pairs"] for o in sampled)
    ok = (
        all(r.ok for r in runs)
        and worst_contraction <= 1e-6
        and worst_short <= 1e-6
        and sampled_contraction <= 1e-6
        and sampled_short <= 1e-6
        and pairs >= 10_000 * 0.9
    )
    elapsed = build_time + (time.monotonic() - t0)
    ok = ok and elapsed < 120.0
    assert report(
        5, ok, elapsed,
        f"20 runs, contraction excess {worst_contraction:.2e} (sampled {sampled_contraction:.2e}), "
        f"shortness excess {worst_short:.2e} (sampled {sampled_short:.2e} over {pairs} pairs)",
    )


def test_criterion_6_cat0_certificates(key_lemma_runs):
    runs, _, _ = key_lemma_runs
    t0 = time.monotonic()
    ok = all(r.cat0.ok for r in runs if r.cat0 is not None)
    flat = thin_triangle_test(cone_disc(5 * math.pi / 2, 5), samples=10_000, seed=0, subdiv=24)
    sharp = thin_triangle_test(cone_disc(3 * math.pi / 2, 3), samples=10_000, seed=0, subdiv=24)
    ok = ok and not flat["violation_found"] and sharp["violation_found"]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    assert report(
        6, ok, elapsed,
        f"all W certified; 5pi/2 worst {flat['worst_violation']:+.3f} <= allow "
        f"{flat['allowance']:.3f}; 3pi/2 worst {sharp['worst_violation']:+.3f}",
    )


def test_criterion_7_isoperimetric_and_nets(key_lemma_runs):
    runs, _, _ = key_lemma_runs
    t0 = time.monotonic()
    ok = True
    for r in runs:
        if r.disc is None:
            continue
        ba = boundary_and_area(r.disc)
        ok = ok and ba["isoperimetric_ok"]
        nets = eps_net_report(r.disc, eps_fracs=(0.1, 0.05), subdiv=8)
        ok = ok and nets["all_ok"]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    assert report(7, ok, elapsed, f"{len(runs)} discs, isoperimetric and net bounds")


# ----------------------------------------------------------------- 8


def test_criterion_8_counterexample_reproduction():
    t0 = time.monotonic()
    disc = hexagon_counterexample()
    verdict = is_saddle_pl(disc, extra_planes=200, seed=0)
    _, rep = shorten_by_rotation(disc, HEXAGON_PARAMS["epsilon"])
    ok = (
        disc.n_triangles == 10
        and verdict.saddle
        and rep["pareto"]
        and rep["max_strict_decrease"] >= 1e-4
        and rep["boundary_unchanged"]
    )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    assert report(
        8, ok, elapsed,
        f"saddle over {verdict.planes_tested} planes, strict decrease "
        f"{rep['max_strict_decrease']:.2e}",
    )


# ----------------------------------------------------------------- 9


def test_criterion_9_field_system_convergence():
    t0 = time.monotonic()
    norms = {}
    lam_ok = True
    for n in (16, 32, 64):
        patch = bilinear_saddle_patch(0.5, n, coef=1.0)
        fields = solve_field_system(patch)
        rep = field_system_report(fields)
        norms[n] = rep["residual_max"]
        lam_ok = lam_ok and rep["lambda_min"] > 0.0 and not rep["shrunk"]
    order1 = math.log2(norms[16] / norms[32])
    order2 = math.log2(norms[32] / norms[64])
    ok = lam_ok and 1.5 <= order1 <= 2.5 and 1.5 <= order2 <= 2.5
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    assert report(
        9, ok, elapsed,
        f"residuals {norms[16]:.2e}/{norms[32]:.2e}/{norms[64]:.2e}, "
        f"orders {order1:.2f}, {order2:.2f}",
    )


# ----------------------------------------------------------------- 10


def test_criterion_10_energy_minimality_evidence():
    t0 = time.monotonic()
    patch = bilinear_saddle_patch(0.5, 32, coef=1.0)
    fields = solve_field_system(patch)
    rep = perturbation_evidence(patch, fields, trials=100, seed=0)
    ok = rep["never_decreases"] and rep["convex_ok"]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    assert report(
        10, ok, elapsed,
        f"100 perturbations, min margin {rep['min_margin']:+.3e}, "
        f"convexity violation {rep['convexity_max_violation']:+.2e}",
    )
