"""Outside-in tracing of catmin's layers for the benchmark's traced run.

`instrument(tracer)` rebinds catmin functions and methods, on every name a
caller resolves, to wrappers that record a span or a count in `tracer`; the
callable it returns puts the originals back.  Nothing in the package
changes, so the untraced run measures the program exactly as users call it.

A span is ``[name, start, end, parent, op, child_seconds]``; `parent` is the
index of the enclosing span (-1 at top level) and `op` the benchmark
operation that caused it.  A span's self time is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

from catmin import fields, induced, instances, majorize, mesh, minimize, pipeline, pseudometric, saddle, targets


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op = -1
        self._open: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, self.op, 0.0])
        self._open.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = self.clock()
        self._open.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def self_seconds(self) -> Counter:
        out: Counter = Counter()
        for name, start, end, _, _, child in self.spans:
            out[name] += (end - start) - child
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def _wrap(fn, tracer: Tracer, span=None, count=None, after=None, when=None, errors=None):
    """Wrapper recording a span named `span` (a string, or a function of the
    call's arguments) and/or bumping counter `count`; `after(tracer, args,
    kwargs, result)` records what the result shows, `when(args)` limits
    recording to calls that do work, `errors` counts calls that raise."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when is not None and not when(args):
            return fn(*args, **kwargs)
        if count:
            tracer.count(count)
        idx = None
        if span is not None:
            idx = tracer.enter(span if isinstance(span, str) else span(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if errors:
                tracer.count(errors)
            raise
        finally:
            if idx is not None:
                tracer.exit(idx)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _hull_degree(t, args, kwargs, result):
    k = len(_first(args, kwargs, "units"))
    t.count("minimize.hull.degree_sum", k)
    t.maximum("minimize.hull.max_degree", k)


def _relax_done(t, args, kwargs, result):
    cert = result[1]
    t.count("minimize.relax.sweeps", cert.iterations)
    t.count("minimize.relax.stalled", int(not cert.converged))


def _graph_size(t, args, kwargs, result):
    gamma = result[0]
    t.count("pipeline.graph.vertices", gamma.n_vertices)
    t.count("pipeline.graph.edges", len(gamma.edges))


def _dijkstra_sources(t, args, kwargs, result):
    dist = result[0] if isinstance(result, tuple) else result
    t.count("mesh.dijkstra.sources", dist.shape[0] if dist.ndim == 2 else 1)


def _surface_graph_size(t, args, kwargs, result):
    t.count("majorize.surface_graph.nodes", result.n_nodes)
    t.count("majorize.surface_graph.edges", result.matrix.nnz // 2)


def _all_pairs_bytes(t, args, kwargs, result):
    n = result[0].shape[0]
    t.count("majorize.all_pairs.bytes", n * n * (8 + 4))


def _connecting_kind(args, kwargs):
    n = _first(args, kwargs, "n")
    limit = args[3] if len(args) > 3 else kwargs.get("exact_limit", induced.EXACT_CONNECTING_LIMIT)
    return "induced.connecting.exact" if n <= limit else "induced.connecting.bracket"


def _bracket_gap(t, args, kwargs, result):
    if not result.exact:
        gap = result.upper.d - result.lower
        gap = gap[np.isfinite(gap)]
        t.maximum("induced.bracket_gap", float(gap.max()) if gap.size else 0.0)


def _hooks():
    """(owner, attribute, wrapper options) for every instrumented name."""
    return [
        (mesh, "build_refined_graph", dict(
            span="mesh.refine", after=lambda t, a, k, r: t.count("mesh.refine.nodes", r.n_nodes))),
        (mesh.RefinedGraph, "shortest_paths", dict(span="mesh.dijkstra", after=_dijkstra_sources)),
        (pipeline, "run_key_lemma", dict(span="pipeline.verify")),
        (pipeline, "geodesic_graph", dict(span="pipeline.geodesic_graph", after=_graph_size)),
        (minimize, "straighten", dict(span="minimize.straighten")),
        (minimize, "relax", dict(span="minimize.relax", after=_relax_done)),
        (minimize, "certify_conditions", dict(span="minimize.certify")),
        (minimize, "descent_direction", dict(
            count="minimize.descent.calls",
            after=lambda t, a, k, r: t.count("minimize.descent.useful", int(r[1] is not None)))),
        (minimize, "min_norm_hull_point", dict(span="minimize.hull", after=_hull_degree)),
        (majorize, "glue_disc", dict(
            span="majorize.glue", errors="majorize.glue.errors",
            after=lambda t, a, k, r: t.count("majorize.W.triangles", r[0].n_triangles))),
        (majorize, "cat0_certificate", dict(
            span="majorize.cat0", after=lambda t, a, k, r: t.count("majorize.cat0.fail", int(not r.ok)))),
        (majorize, "boundary_and_area", dict(span="majorize.boundary_area")),
        (majorize.PolyhedralDisc, "surface_graph", dict(
            span="majorize.surface_graph", after=_surface_graph_size)),
        (majorize.SurfaceGraph, "all_pairs", dict(
            span="majorize.all_pairs", when=lambda a: a[0]._dist is None, after=_all_pairs_bytes)),
        (majorize, "thin_triangle_test", dict(
            span="majorize.thin",
            after=lambda t, a, k, r: t.maximum("majorize.thin.worst_violation", r["worst_violation"]))),
        (majorize, "eps_net_report", dict(span="majorize.nets")),
        (induced, "connecting_pseudometric", dict(count="induced.connecting.calls")),
        (induced, "connecting_on_graph", dict(span=_connecting_kind, after=_bracket_gap)),
        (induced, "intrinsic_pseudometric", dict(span="induced.intrinsic")),
        (induced, "length_pseudometric", dict(span="induced.length")),
        (pseudometric, "verify_pseudometric", dict(span="pseudometric.verify")),
        (instances, "load_instance", dict(span="instances.load")),
        (instances, "instance_to_json", dict(
            span="instances.to_json",
            after=lambda t, a, k, r: t.count("instances.bytes_written", len(r.encode("utf-8"))))),
        (saddle, "is_saddle_pl", dict(
            span="saddle.is_saddle", after=lambda t, a, k, r: t.count("saddle.planes", r.planes_tested))),
        (saddle, "check_plane", dict(span="saddle.check_plane")),
        (saddle, "shorten_by_rotation", dict(span="saddle.shorten")),
        (fields, "solve_field_system", dict(span="fields.solve")),
        (fields, "curvature_frame", dict(count="fields.curvature_frame.calls")),
        (fields, "energy", dict(count="fields.energy.calls")),
        (fields, "perturbation_evidence", dict(span="fields.perturb")),
        (fields, "field_system_report", dict(span="fields.report")),
        (targets.EuclideanSpace, "distance", dict(count="targets.distance.calls")),
    ]


def _bindings(owner, attr):
    """Every (namespace, name) that resolves to owner.attr: a class keeps
    its methods in one place, a module function is also bound wherever
    another catmin module imported it by name."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        return original, [(owner, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if name == "catmin" or name.startswith("catmin."):
            found += [(module, key) for key, value in vars(module).items() if value is original]
    return original, found


def instrument(tracer: Tracer):
    """Install the wrappers; returns a callable that removes them."""
    undo = []
    for owner, attr, options in _hooks():
        original, places = _bindings(owner, attr)
        wrapper = _wrap(original, tracer, **options)
        for place, key in places:
            undo.append((place, key, getattr(place, key)))
            setattr(place, key, wrapper)

    def restore():
        for place, key, value in reversed(undo):
            setattr(place, key, value)

    return restore


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit, better, value from a finished Tracer); `*.s` is self time
LAYER_METRICS = [
    ("mesh.refine.s", "s", "lower", lambda t: t.self_seconds()["mesh.refine"]),
    ("mesh.refine.nodes", "count", "lower", lambda t: t.counts["mesh.refine.nodes"]),
    ("mesh.dijkstra.calls", "count", "lower", lambda t: t.calls()["mesh.dijkstra"]),
    ("mesh.dijkstra.sources", "count", "lower", lambda t: t.counts["mesh.dijkstra.sources"]),
    ("mesh.dijkstra.s", "s", "lower", lambda t: t.self_seconds()["mesh.dijkstra"]),
    ("pipeline.geodesic_graph.s", "s", "lower", lambda t: t.self_seconds()["pipeline.geodesic_graph"]),
    ("pipeline.verify.s", "s", "lower", lambda t: t.self_seconds()["pipeline.verify"]),
    ("pipeline.graph.vertices", "count", "lower", lambda t: t.counts["pipeline.graph.vertices"]),
    ("pipeline.graph.edges", "count", "lower", lambda t: t.counts["pipeline.graph.edges"]),
    ("minimize.relax.s", "s", "lower", lambda t: t.self_seconds()["minimize.relax"]),
    ("minimize.relax.sweeps", "count", "lower", lambda t: t.counts["minimize.relax.sweeps"]),
    ("minimize.relax.stalled", "count", "lower", lambda t: t.counts["minimize.relax.stalled"]),
    ("minimize.hull.calls", "count", "lower", lambda t: t.calls()["minimize.hull"]),
    ("minimize.hull.s", "s", "lower", lambda t: t.self_seconds()["minimize.hull"]),
    ("minimize.hull.max_degree", "count", "lower", lambda t: t.maxima.get("minimize.hull.max_degree", 0)),
    ("minimize.hull.mean_degree", "count", "lower",
     lambda t: _ratio(t.counts["minimize.hull.degree_sum"], t.calls()["minimize.hull"])),
    ("minimize.descent.useful_ratio", "1", "higher",
     lambda t: _ratio(t.counts["minimize.descent.useful"], t.counts["minimize.descent.calls"])),
    ("minimize.certify.s", "s", "lower", lambda t: t.self_seconds()["minimize.certify"]),
    ("majorize.glue.s", "s", "lower", lambda t: t.self_seconds()["majorize.glue"]),
    ("majorize.glue.errors", "count", "lower", lambda t: t.counts["majorize.glue.errors"]),
    ("majorize.cat0.s", "s", "lower", lambda t: t.self_seconds()["majorize.cat0"]),
    ("majorize.cat0.fail", "count", "lower", lambda t: t.counts["majorize.cat0.fail"]),
    ("majorize.W.triangles", "count", "lower", lambda t: t.counts["majorize.W.triangles"]),
    ("majorize.surface_graph.s", "s", "lower", lambda t: t.self_seconds()["majorize.surface_graph"]),
    ("majorize.surface_graph.nodes", "count", "lower", lambda t: t.counts["majorize.surface_graph.nodes"]),
    ("majorize.surface_graph.edges", "count", "lower", lambda t: t.counts["majorize.surface_graph.edges"]),
    ("majorize.all_pairs.calls", "count", "lower", lambda t: t.calls()["majorize.all_pairs"]),
    ("majorize.all_pairs.s", "s", "lower", lambda t: t.self_seconds()["majorize.all_pairs"]),
    ("majorize.all_pairs.bytes", "B", "lower", lambda t: t.counts["majorize.all_pairs.bytes"]),
    ("majorize.thin.s", "s", "lower", lambda t: t.self_seconds()["majorize.thin"]),
    ("majorize.thin.worst_violation", "length", "lower",
     lambda t: t.maxima.get("majorize.thin.worst_violation", 0.0)),
    ("majorize.nets.s", "s", "lower", lambda t: t.self_seconds()["majorize.nets"]),
    ("induced.connecting.calls", "count", "lower", lambda t: t.counts["induced.connecting.calls"]),
    ("induced.connecting.exact_s", "s", "lower", lambda t: t.self_seconds()["induced.connecting.exact"]),
    ("induced.connecting.bracket_s", "s", "lower", lambda t: t.self_seconds()["induced.connecting.bracket"]),
    ("induced.intrinsic.s", "s", "lower", lambda t: t.self_seconds()["induced.intrinsic"]),
    ("induced.length.s", "s", "lower", lambda t: t.self_seconds()["induced.length"]),
    ("induced.bracket_gap", "length", "lower", lambda t: t.maxima.get("induced.bracket_gap", 0.0)),
    ("pseudometric.verify.calls", "count", "lower", lambda t: t.calls()["pseudometric.verify"]),
    ("pseudometric.verify.s", "s", "lower", lambda t: t.self_seconds()["pseudometric.verify"]),
    ("instances.load.s", "s", "lower", lambda t: t.self_seconds()["instances.load"]),
    ("instances.to_json.s", "s", "lower", lambda t: t.self_seconds()["instances.to_json"]),
    ("instances.bytes_written", "B", "lower", lambda t: t.counts["instances.bytes_written"]),
    ("saddle.is_saddle.s", "s", "lower", lambda t: t.self_seconds()["saddle.is_saddle"]),
    ("saddle.planes", "count", "lower", lambda t: t.counts["saddle.planes"]),
    ("saddle.check_plane.calls", "count", "lower", lambda t: t.calls()["saddle.check_plane"]),
    ("saddle.check_plane.s", "s", "lower", lambda t: t.self_seconds()["saddle.check_plane"]),
    ("saddle.shorten.s", "s", "lower", lambda t: t.self_seconds()["saddle.shorten"]),
    ("fields.solve.s", "s", "lower", lambda t: t.self_seconds()["fields.solve"]),
    ("fields.curvature_frame.calls", "count", "lower", lambda t: t.counts["fields.curvature_frame.calls"]),
    ("fields.energy.calls", "count", "lower", lambda t: t.counts["fields.energy.calls"]),
    ("fields.perturb.s", "s", "lower", lambda t: t.self_seconds()["fields.perturb"]),
    ("fields.report.s", "s", "lower", lambda t: t.self_seconds()["fields.report"]),
    ("targets.distance.calls", "count", "lower", lambda t: t.counts["targets.distance.calls"]),
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    return {name: float(value(tracer)) for name, _, _, value in LAYER_METRICS}
