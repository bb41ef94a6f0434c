"""Command-line surface: one subcommand per pipeline stage.

Exit codes: 0 for PASS verdicts, 1 for FAIL verdicts, 2 for input errors.
Reports are canonical JSON, so identical inputs and seeds give
byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import induced, instances
from .fields import FieldSystemError, field_system_report, perturbation_evidence, solve_field_system
from .majorize import GlueError, boundary_and_area, cat0_certificate, cut_vertices, eps_net_report, glue_disc
from .minimize import relax
from .pipeline import run_key_lemma
from .saddle import hexagon_counterexample, is_saddle_pl, shorten_by_rotation
from .pseudometric import verify_pseudometric


class InputError(ValueError):
    """Malformed input, exit 2."""


def _read(path) -> dict:
    """The JSON document at ``path``; an unreadable, non-UTF-8 or too deeply nested file is malformed."""
    try:
        return instances.load_instance(path)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read instance {path}: {exc}") from exc


def _load(path, want_kind):
    try:
        kind, obj, doc = instances.parse_instance(_read(path))
    except instances.InstanceError as exc:
        raise InputError(f"invalid instance {path}: " + "; ".join(exc.problems)) from exc
    if kind != want_kind:
        raise InputError(f"{path}: expected a {want_kind} instance, found {kind}")
    return obj, doc


def _emit(report: dict, out_path):
    """Write ``report`` as canonical JSON; its arrays are converted here, once.

    The text is `instances.instance_to_json` of the report, byte for byte
    ``json.dumps(jsonable(report), sort_keys=True, separators=(",", ":"))``
    plus a newline; float arrays are formatted apart, each distinct 64-bit
    value once.
    """
    text = instances.instance_to_json(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------- commands


def cmd_metrics(args) -> int:
    disc, doc = _load(args.infile, "mapped_disc")
    zero_tol = doc["tolerances"]["zero"]
    rep = induced.ordering_chain_report(disc, refinement=args.refine, zero_tol=zero_tol)
    chain_ok = rep["chain_holds"]
    conn = rep["connecting"]
    length, intrinsic = rep["length"].d, rep["intrinsic"].d
    # when no vertices collapse, the intrinsic matrix is a copy of the length one
    matrices_ok = (
        not verify_pseudometric(length)
        and (np.array_equal(intrinsic, length) or not verify_pseudometric(intrinsic))
        and not verify_pseudometric(conn.upper.d)
    )
    report = {
        "command": "metrics",
        "refinement": args.refine,
        "zero_tol": zero_tol,
        "length": length,
        "intrinsic": intrinsic,
        "connecting_upper": conn.upper.d,
        "connecting_exact": conn.exact,
        "chain": {
            "holds": chain_ok,
            "worst_length_vs_intrinsic": rep["worst_length_vs_intrinsic"],
            "worst_intrinsic_vs_connecting": rep["worst_intrinsic_vs_connecting"],
            "slack": rep["slack"],
        },
        "matrices_verify": matrices_ok,
        "pass": bool(chain_ok and matrices_ok),
    }
    if not conn.exact:
        # an exact connecting matrix is its own lower bound
        report["connecting_lower"] = conn.lower
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def cmd_minimize_graph(args) -> int:
    g, doc = _load(args.infile, "graph")
    tols = doc["tolerances"]
    out, cert = relax(
        g,
        tol_descent=args.tol_descent if args.tol_descent is not None else tols["descent"],
        tol_angle=tols["angle"],
        max_iter=args.max_iter,
    )
    report = {
        "command": "minimize-graph",
        "certificate": cert.summary(),
        "edge_lengths": {f"{u}-{v}": length for (u, v), length in sorted(out.edge_lengths().items())},
        "graph": instances.graph_instance(out)["payload"],
        "pass": bool(cert.valid),
    }
    _emit(report, args.out)
    if args.svg:
        from .svgout import svg_graph

        svg_graph(out, args.svg)
    return 0 if cert.valid else 1


def cmd_build_disc(args) -> int:
    g, doc = _load(args.infile, "graph")
    disc, glue_report = glue_disc(g)
    cert = cat0_certificate(disc, tol_angle=doc["tolerances"]["angle"])
    report = {
        "command": "build-disc",
        "disc": instances.poly_disc_instance(disc)["payload"],
        "glue": {
            "witness_ok": glue_report.witness_ok,
            "max_length_drift": glue_report.max_length_drift,
        },
        "cat0": cert.summary(),
        "boundary_area": boundary_and_area(disc),
        "cut_vertices": cut_vertices(disc),
        "pass": bool(cert.ok),
    }
    _emit(report, args.out)
    if args.svg:
        from .svgout import svg_disc_layout

        svg_disc_layout(disc, args.svg)
    return 0 if cert.ok else 1


def cmd_check_cat0(args) -> int:
    disc, doc = _load(args.infile, "polyhedral_disc")
    tol_angle = args.tol_angle if args.tol_angle is not None else doc["tolerances"]["angle"]
    cert = cat0_certificate(disc, tol_angle=tol_angle)
    report = {
        "command": "check-cat0",
        "cat0": cert.summary(),
        "boundary_area": boundary_and_area(disc),
        "nets": eps_net_report(disc) if args.nets else None,
        "pass": bool(cert.ok),
    }
    _emit(report, args.out)
    return 0 if cert.ok else 1


def cmd_key_lemma(args) -> int:
    disc, doc = _load(args.infile, "mapped_disc")
    sample = args.sample or doc.get("sample")
    if not sample:
        raise InputError("key-lemma needs a vertex sample (instance 'sample' or --sample)")
    tols = doc["tolerances"]
    result = run_key_lemma(disc, [int(v) for v in sample], refinement=args.refine,
                           tol_descent=tols["descent"], tol_angle=tols["angle"])
    report = {
        "command": "key-lemma",
        "sample": result.sample,
        "boundary_sample": result.boundary_sample,
        "one_point": result.one_point,
        "verification": result.verification,
        "p_map": {str(k): int(v) for k, v in sorted(result.p_map.items())},
        "certificate": result.certificate.summary() if result.certificate else None,
        "cat0": result.cat0.summary() if result.cat0 else None,
        "disc": instances.poly_disc_instance(result.disc)["payload"] if result.disc else None,
        "pass": bool(result.ok),
    }
    _emit(report, args.out)
    if args.svg and result.graph is not None:
        from .svgout import svg_graph

        svg_graph(result.graph, args.svg)
    if args.svg_disc and result.disc is not None:
        from .svgout import svg_disc_layout

        svg_disc_layout(result.disc, args.svg_disc)
    return 0 if result.ok else 1


def cmd_check_saddle(args) -> int:
    disc, _ = _load(args.infile, "mapped_disc")
    verdict = is_saddle_pl(disc, extra_planes=args.planes, seed=args.seed)
    report = {
        "command": "check-saddle",
        "saddle": verdict.saddle,
        "planes_tested": verdict.planes_tested,
        "witness": verdict.witness or None,
        "pass": verdict.saddle,
    }
    _emit(report, args.out)
    if args.svg and verdict.witness:
        from .svgout import svg_plane_sections

        svg_plane_sections(
            disc, verdict.witness["normal"], verdict.witness["offset"], args.svg
        )
    return 0 if verdict.saddle else 1


def cmd_counterexample(args) -> int:
    disc = hexagon_counterexample()
    doc = instances.mapped_disc_instance(
        disc, metadata={"fixture": "pinwheel counterexample"}
    )
    _emit(doc, args.out)
    if args.svg:
        from .svgout import svg_parameter_domain

        svg_parameter_domain(disc, args.svg)
    return 0


def cmd_shorten(args) -> int:
    disc, _ = _load(args.infile, "mapped_disc")
    deformed, rep = shorten_by_rotation(disc, args.epsilon)
    report = {
        "command": "shorten",
        "report": rep,
        "deformed": instances.mapped_disc_instance(deformed)["payload"],
        "pass": bool(rep["pareto"] and rep["strictly_shorter_somewhere"]),
    }
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def cmd_solve_fields(args) -> int:
    patch, _ = _load(args.infile, "patch")
    try:
        fields = solve_field_system(patch)
    except FieldSystemError as exc:
        _emit({"command": "solve-fields", "error": str(exc), "pass": False}, args.out)
        return 1
    rep = field_system_report(fields)
    report = {
        "command": "solve-fields",
        "report": rep,
        "lambda1": fields.lambda1,
        "lambda2": fields.lambda2,
        "shrunk": fields.shrunk,
        "window": list(fields.window),
        "pass": bool(rep["lambda_min"] > 0.0),
    }
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def cmd_perturb(args) -> int:
    patch, _ = _load(args.infile, "patch")
    try:
        fields = solve_field_system(patch)
    except FieldSystemError as exc:
        _emit({"command": "perturb", "error": str(exc), "pass": False}, args.out)
        return 1
    rep = perturbation_evidence(
        fields.patch, fields, trials=args.trials, seed=args.seed
    )
    report = {
        "command": "perturb",
        "report": rep,
        "pass": bool(rep["never_decreases"] and rep["convex_ok"]),
    }
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def cmd_validate(args) -> int:
    problems = instances.validate_instance(_read(args.infile))
    _emit({"command": "validate", "diagnostics": problems, "pass": not problems}, args.out)
    return 0 if not problems else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged and none of its defaults is mutable."""
    ap = argparse.ArgumentParser(
        prog="catmin",
        description="induced pseudometrics, graph relaxation, comparison-triangle "
        "disc gluing and saddle-surface checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the JSON report here (default stdout)")
        return p

    p = add("metrics", cmd_metrics, help="induced pseudometrics and the ordering chain")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--refine", type=int, default=2)

    p = add("minimize-graph", cmd_minimize_graph, help="relax a mapped graph and certify it")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol-descent", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--svg")

    p = add("build-disc", cmd_build_disc, help="glue comparison fans into a polyhedral disc")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--svg")

    p = add("check-cat0", cmd_check_cat0, help="angle-sum nonpositive-curvature certificate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol-angle", type=float, default=None)
    p.add_argument("--nets", action="store_true", help="include separated-net counts")

    p = add("key-lemma", cmd_key_lemma, help="factor a sampled disc map through a glued disc")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--refine", type=int, default=2)
    p.add_argument("--sample", type=int, nargs="*")
    p.add_argument("--svg", help="draw the embedded graph")
    p.add_argument("--svg-disc", help="draw the glued disc layout")

    p = add("check-saddle", cmd_check_saddle, help="PL saddle predicate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--planes", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg", help="draw the witness plane sections")

    p = add("counterexample", cmd_counterexample, help="write the pinwheel fixture")
    p.add_argument("--svg", help="draw its parameter domain")

    p = add("shorten", cmd_shorten, help="rotate the pinwheel's central triangle")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--epsilon", type=float, default=0.05)

    p = add("solve-fields", cmd_solve_fields, help="solve the saddle field system")
    p.add_argument("--in", dest="infile", required=True)

    p = add("perturb", cmd_perturb, help="boundary-fixed energy perturbation evidence")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = add("validate", cmd_validate, help="schema and invariant diagnostics")
    p.add_argument("--in", dest="infile", required=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GlueError as exc:
        # a well-formed instance whose faces cannot be glued: a FAIL verdict
        print(f"FAIL (glue): {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # an InputError among them
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
