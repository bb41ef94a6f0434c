"""The benchmark's workloads: inputs made from a seed, operations, checks.

`build(name, seed, workdir)` is the set-up that `setup_s` times: it makes
every input of one pass from the seed (and writes instance files where a
workload reads them) and returns the pass's operations.  Each operation's
output goes to a check that compares it with an expectation taken from the
paper or from the acceptance criteria, never from the program's own earlier
output.  Operations call catmin through module attributes, so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from catmin import cli, fields, instances, majorize, meshgen, pipeline, saddle
from catmin.majorize import cone_disc
from catmin.mesh import MappedDisc

# keylemma_sweep seed N runs key-lemma instances 120 N .. 120 N + 119; seed 0
# is the ROADMAP item-3 sweep
SWEEP_WINDOW = 120


@dataclass
class Failure:
    """Why an operation failed.  `kind` is "raised", "verdict", "exit" or
    "check".  `claimed` marks a wrong answer: the program certified
    something (a PASS, exit 0, a positive verdict) that the check rejects,
    so a user would take it as true.  A failure the program reports itself
    (an exception, a FAIL, a non-zero exit, a negative verdict) is not one."""

    kind: str
    detail: str
    claimed: bool = False


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Failure | None]


def run_op(op: Op) -> Failure | None:
    """Run one operation and classify its outcome; never raises."""
    try:
        out = op.run()
    except Exception as exc:  # a failed operation is counted, the run goes on
        return Failure("raised", f"{type(exc).__name__}: {exc}")
    return op.check(out)


# ------------------------------------------------------------------ inputs


def height_grid_disc(k: int, height) -> MappedDisc:
    """k x k grid disc over [0,1]^2 mapped to the graph of `height`."""
    vertices, triangles = meshgen.grid_disc(k)
    x, y = vertices[:, 0], vertices[:, 1]
    return meshgen.make_mapped_disc(vertices, triangles, np.stack([x, y, height(x, y)], axis=1))


def smooth_height(rng: np.random.Generator):
    """Random low-frequency height function (three plane waves)."""
    amp = rng.uniform(0.1, 0.6, size=3)
    freq = rng.uniform(0.5, 2.5, size=(3, 2))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=3)
    return lambda x, y: sum(
        amp[i] * np.sin(2.0 * math.pi * (freq[i, 0] * x + freq[i, 1] * y) + phase[i]) for i in range(3)
    )


def rigid_motion(rng: np.random.Generator):
    """Random rotation and translation of R^3.  Every verdict and every
    induced distance is invariant under it, so a seed changes all input
    numbers but not the work a pass does."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    shift = rng.uniform(-1.0, 1.0, size=3)
    return lambda disc: meshgen.make_mapped_disc(disc.vertices, disc.triangles, disc.images @ q.T + shift)


def grid_sample(disc: MappedDisc, n_boundary: int, n_interior: int, rng: np.random.Generator) -> list[int]:
    """Boundary vertices spread evenly along the loop plus random interior
    vertices."""
    loop = list(disc.boundary_loop)
    picked = [loop[(j * len(loop)) // n_boundary] for j in range(n_boundary)]
    interior = sorted(set(range(disc.n_vertices)) - set(loop))
    return picked + [int(v) for v in rng.choice(interior, size=n_interior, replace=False)]


def sweep_instance(s: int) -> tuple[MappedDisc, list[int]]:
    """Instance s of the key-lemma robustness sweep (ROADMAP item 3)."""
    disc = meshgen.random_height_disc(9000 + s, max_vertices=60, jitter=0.05 if s % 2 else 0.3)
    n = disc.n_vertices
    rng = np.random.default_rng(s)
    k = int(rng.integers(3, min(n, 12) + 1))
    return disc, [int(v) for v in rng.choice(n, k, replace=False)]


# ------------------------------------------------------------------ checks

CERT_TOL = 1e-6  # run_key_lemma's own default tolerance


def check_key_lemma(res) -> Failure | None:
    """The key lemma holds for every instance, so the verdict must be PASS;
    a PASS must also show its certificates within tolerance."""
    v = res.verification
    if not res.ok:
        reasons = [key for key in ("cat0_pass", "isoperimetric_ok", "relax_converged") if v.get(key) is False]
        return Failure("verdict", "FAIL " + ",".join(reasons))
    worst = max(v["contraction_max_excess"], v["boundary_max_distance"], v["shortness_max_excess"])
    if worst > CERT_TOL or (res.cat0 is not None and not res.cat0.ok):
        return Failure("check", f"PASS with excess {worst:.3g}", claimed=True)
    return None


def verdict(got: bool, wanted: bool, what: str) -> Failure | None:
    """Compare a yes/no verdict, where yes certifies `what`, with the expected one."""
    if got == wanted:
        return None
    return Failure("verdict", f"{what}: got {got}, expected {wanted}", claimed=got)


def check_chain_file(path: str) -> Failure | None:
    """`metrics` must exit 0 (the chain holds on every disc), and its report
    must show length >= intrinsic >= connecting entrywise."""

    def mat(rows):
        return np.array([[math.inf if x == "inf" else x for x in row] for row in rows], dtype=float)

    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    length, intrinsic = mat(rep["length"]), mat(rep["intrinsic"])
    conn = mat(rep["connecting_upper"] if rep["connecting_exact"] else rep["connecting_lower"])
    slack = rep["chain"]["slack"]
    with np.errstate(invalid="ignore"):
        bad = (intrinsic - length > slack) | (conn - intrinsic > slack)
    if rep["chain"]["holds"] and not bad.any():
        return None
    return Failure("check", f"chain broken at {int(bad.sum())} entries", claimed=True)


# ------------------------------------------------------------------ workloads


def keylemma_grid(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    move = rigid_motion(rng)
    state: dict = {}
    ops = []
    for k in (8, 12, 16):
        # the sample is fixed per grid so that W, and the work, is the same
        # on every seed; the seed moves the image and the sampling seeds
        disc = height_grid_disc(k, lambda x, y: 1.2 * x * y)
        sample = grid_sample(disc, 8, 3, np.random.default_rng(k))
        disc = move(disc)
        op_seed = int(rng.integers(2**31))

        def lemma(disc=disc, sample=sample, k=k, op_seed=op_seed):
            state[k] = None
            res = pipeline.run_key_lemma(disc, sample, refinement=2, shortness_samples=2000, seed=op_seed)
            state[k] = res.disc
            return res

        def w_of(k=k):
            if state.get(k) is None:
                raise RuntimeError(f"no W: the {k}x{k} key lemma did not produce one")
            return state[k]

        ops += [
            Op(f"key_lemma_{k}x{k}", lemma, check_key_lemma),
            # W is CAT(0), so geodesic triangles are thin within the allowance
            Op(f"thin_{k}x{k}",
               lambda w_of=w_of, s=op_seed: majorize.thin_triangle_test(w_of(), samples=1000, seed=s, subdiv=8),
               lambda rep: verdict(not rep["violation_found"], True, "thin triangles")),
            # acceptance criterion 7: separated nets within the packing bound
            Op(f"nets_{k}x{k}",
               lambda w_of=w_of: majorize.eps_net_report(w_of(), eps_fracs=(0.1, 0.05), subdiv=8),
               lambda rep: verdict(rep["all_ok"], True, "net bounds")),
        ]
    return ops


def metrics_cli(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    move = rigid_motion(rng)
    # the height field is fixed per grid so that the work is the same on
    # every seed; the seed moves every disc's image
    discs = [(f"grid{k * k}", move(height_grid_disc(k, smooth_height(np.random.default_rng(k)))))
             for k in (10, 12)]
    # the first acceptance-criterion discs, n = 4..26: exact connecting DP up
    # to n = 14, the factor-2 bracket above
    discs += [(f"acc{1000 + s}", move(meshgen.random_height_disc(1000 + s, max_vertices=30))) for s in range(23)]
    ops = []
    for label, disc in discs:
        src = os.path.join(workdir, f"{label}.json")
        out = os.path.join(workdir, f"{label}.out.json")
        instances.save_instance(instances.mapped_disc_instance(disc), src)
        ops.append(Op(
            f"metrics_{label}_n{disc.n_vertices}",
            lambda src=src, out=out: cli.main(["metrics", "--in", src, "--out", out]),
            lambda code, out=out: check_chain_file(out) if code == 0
            else Failure("exit", f"exit {code}, expected 0"),
        ))
    return ops


def saddle_fields(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    coef = rng.uniform(0.8, 1.25)
    plane_seed = int(rng.integers(2**31))
    ops = []
    # z = c x y is a saddle surface; so are its PL interpolants on a grid
    for k in (3, 4, 5):
        disc = height_grid_disc(k, lambda x, y: coef * x * y)
        ops.append(Op(
            f"saddle_grid_n{k * k}",
            lambda disc=disc: saddle.is_saddle_pl(disc, seed=plane_seed),
            lambda v: verdict(v.saddle, True, "saddle"),
        ))
    # acceptance criterion 8: the pinwheel is saddle yet shortens
    pinwheel = saddle.hexagon_counterexample()
    ops.append(Op("saddle_pinwheel", lambda: saddle.is_saddle_pl(pinwheel, seed=plane_seed),
                  lambda v: verdict(v.saddle, True, "saddle")))

    def check_shorten(out):
        rep = out[1]
        ok = rep["pareto"] and rep["max_strict_decrease"] >= 1e-4 and rep["boundary_unchanged"]
        return verdict(bool(ok), True, "pareto shortening")

    ops.append(Op("shorten_pinwheel",
                  lambda: saddle.shorten_by_rotation(pinwheel, saddle.HEXAGON_PARAMS["epsilon"]),
                  check_shorten))
    cap = meshgen.paraboloid_cap_disc(height=rng.uniform(0.8, 1.2))
    ops.append(Op("saddle_cap", lambda: saddle.is_saddle_pl(cap, seed=plane_seed),
                  lambda v: verdict(v.saddle, False, "saddle")))
    # acceptance criterion 6: the 5pi/2 cone is thin, the 3pi/2 cone is not
    cone_seed = int(rng.integers(2**31))
    for total, n_tri, thin in ((5 * math.pi / 2, 5, True), (3 * math.pi / 2, 3, False)):
        cone = cone_disc(total, n_tri)
        ops.append(Op(
            f"thin_cone_{n_tri}",
            lambda cone=cone: majorize.thin_triangle_test(cone, samples=2000, seed=cone_seed, subdiv=16),
            lambda rep, thin=thin: verdict(not rep["violation_found"], thin, "thin triangles"),
        ))

    # acceptance criteria 9 and 10: second-order residuals, positive scalings,
    # energy never decreased by boundary-fixed perturbations
    field_coef = rng.uniform(0.8, 1.25)
    perturb_seed = int(rng.integers(2**31))
    residual: dict[int, float] = {}

    def solve(n):
        patch = fields.bilinear_saddle_patch(0.5, n, coef=field_coef)
        solved = fields.solve_field_system(patch)
        rep = fields.field_system_report(solved)
        evidence = fields.perturbation_evidence(patch, solved, trials=100, seed=perturb_seed)
        residual[n] = rep["residual_max"]
        return n, rep, evidence

    def check_fields(out):
        n, rep, evidence = out
        if not (rep["lambda_min"] > 0.0 and not rep["shrunk"]):
            return Failure("check", f"n={n}: lambda_min {rep['lambda_min']:.3g}")
        if not (evidence["never_decreases"] and evidence["convex_ok"]):
            return Failure("check", f"n={n}: energy decreased")
        if n // 2 in residual:
            order = math.log2(residual[n // 2] / residual[n])
            if not 1.5 <= order <= 2.5:
                return Failure("check", f"n={n}: residual order {order:.2f}")
        return None

    for n in (32, 64, 128):
        ops.append(Op(f"fields_n{n}", lambda n=n: solve(n), check_fields))
    return ops


def keylemma_sweep(seed: int, workdir: str) -> list[Op]:
    ops = []
    for s in range(SWEEP_WINDOW * seed, SWEEP_WINDOW * (seed + 1)):
        disc, sample = sweep_instance(s)
        ops.append(Op(
            f"sweep_{s}",
            lambda disc=disc, sample=sample: pipeline.run_key_lemma(disc, sample, shortness_samples=300),
            check_key_lemma,
        ))
    return ops


WORKLOADS = {
    "keylemma_grid": keylemma_grid,
    "metrics_cli": metrics_cli,
    "saddle_fields": saddle_fields,
    "keylemma_sweep": keylemma_sweep,
}


def build(name: str, seed: int, workdir: str) -> list[Op]:
    return WORKLOADS[name](seed, workdir)
