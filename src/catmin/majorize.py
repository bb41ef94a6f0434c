"""Comparison triangles, face majorants and glued polyhedral disc retracts.

Every bounded face of an embedded mapped graph is replaced by a fan of
planar triangles whose side lengths equal the corresponding target
distances.  Gluing the fans along shared graph edges produces an abstract
polyhedral disc W carrying an intrinsic metric; nonpositive curvature is
certified by the angle sums around interior vertices (a full turn or
more), and sampled thin-triangle checks probe the comparison inequality
directly.

Edges of the graph that bound no face (whiskers, tree parts) survive in W
as one-dimensional *bridge* segments; a graph with no faces at all glues
to a metric tree, which is a legitimate degenerate disc retract.

The angle sums certify CAT(0) only on a simply connected W (Bridson and
Haefliger, II.4.1 and II.5.5), which `PolyhedralDisc` checks when it is
built, from its side pairing (`~catmin.mesh.side_pairing`).

Intrinsic distances on W are overestimated by Dijkstra runs on an
edge-subdivided surface graph whose faces carry complete chord
connections, a `~catmin.graphs.PathGraph`; every query can report a
conservative error bound derived from the subdivision gap and the edge
crossings of the returned path.
Queries that read most source rows or need paths (``thin_triangle_test``,
node-to-node distances and paths) use the graph's all-pairs matrices;
a query that reads a few sources (``eps_net_report``) runs Dijkstra only
from those, through ``SurfaceGraph.rows``.
``surface_graph`` keeps the graph it built last, so the thin-triangle test
and the nets on one W share one graph and one all-pairs run.  The key
lemma reads no distances on W: it certifies its maps side by side.

The thin-triangle test measures all its samples at once, their paths read
off the all-pairs predecessor table (see `thin_triangle_test`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import GraphInTarget, PathGraph, path_hops, walk_back
from .mesh import SidePairing, side_pairing
from .targets import TargetSpace, angle_from_sides, invalid

__all__ = [
    "ComparisonTriangle",
    "comparison_triangle",
    "FaceMajorant",
    "face_majorant",
    "PolyhedralDisc",
    "GlueError",
    "GlueReport",
    "glue_disc",
    "cat0_certificate",
    "Cat0Report",
    "thin_triangle_test",
    "boundary_and_area",
    "cut_vertices",
    "eps_net_report",
    "SurfaceGraph",
    "cone_disc",
    "strip_disc",
]

GLUE_TOL = 1e-9
DEGENERATE_TOL = 1e-12
ANGLE_TOL = 1e-6  # largest angle deficit of a certificate: the instance key "angle"
TRIANGLE_SLACK = 1e-12  # of the triangle inequality, relative to the sides
WITNESS_ANGLE_TOL = 1e-9  # of the fan witness, planar >= target corner angle
ISOPERIMETRIC_SLACK = 1e-9  # of A <= L^2 / (4 pi)
#: thin-triangle allowance in units of the subdivision gap; calibrated
#: against exact unfolding oracles in the test suite
THIN_ALLOWANCE_GAPS = 3.0


class GlueError(ValueError):
    """Raised when faces cannot be filled or glued consistently."""


# --------------------------------------------------------------------------
# comparison triangles


@dataclass
class ComparisonTriangle:
    """Planar triangle with prescribed side lengths.

    Corners are X, Y, Z with ``|YZ| = a``, ``|XZ| = b``, ``|XY| = c``;
    X sits at the origin and Y on the positive x-axis.  Collinear data is
    allowed.
    """

    sides: tuple[float, float, float]
    coords: np.ndarray

    def corner_angles(self) -> tuple[float, float, float]:
        a, b, c = self.sides
        out = []
        for pair, opp in (((b, c), a), ((a, c), b), ((a, b), c)):
            if pair[0] > 0.0 and pair[1] > 0.0:
                out.append(angle_from_sides(pair[0], pair[1], opp))
            else:
                out.append(0.0)  # collapsed corner carries no angle
        return tuple(out)


def _triangle_area(coords: np.ndarray) -> float:
    (x1, y1), (x2, y2), (x3, y3) = coords
    return 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))


def _breaks_triangle_inequality(a, b, c):
    """Whether one of the sides (a, b, c) exceeds the sum of the other two
    by more than `TRIANGLE_SLACK` relative to the scale of the sides;
    elementwise on arrays."""
    eps = TRIANGLE_SLACK * np.maximum(np.maximum(np.maximum(a, b), c), 1.0)
    return (a > b + c + eps) | (b > c + a + eps) | (c > a + b + eps)


def _third_corner(a, b, c):
    """Corner Z = (x, y), y >= 0, of the planar triangle with |YZ| = a,
    |XZ| = b and |XY| = c > 0 when X sits at the origin and Y at (c, 0);
    elementwise on arrays."""
    x = (b ** 2 + c ** 2 - a ** 2) / (2.0 * c)
    return x, np.sqrt(np.maximum(b ** 2 - x ** 2, 0.0))


def comparison_triangle(a: float, b: float, c: float) -> ComparisonTriangle:
    """Planar triangle with sides (a, b, c), collinear ones included.

    Raises :class:`GlueError` when the triangle inequality fails beyond
    `TRIANGLE_SLACK` relative to the scale of the sides.
    """
    sides = (float(a), float(b), float(c))
    if min(sides) < 0.0:
        raise GlueError(f"negative side length in {sides}")
    if _breaks_triangle_inequality(*sides):
        raise GlueError(f"triangle inequality fails for sides {sides}")
    if sides[2] == 0.0:
        # X = Y; Z lies at distance |XZ| on the x-axis
        return ComparisonTriangle(sides, np.array([(0.0, 0.0), (0.0, 0.0), (sides[1], 0.0)]))
    x, y = _third_corner(*sides)
    return ComparisonTriangle(sides, np.array([(0.0, 0.0), (sides[2], 0.0), (x, y)]))


@dataclass
class FaceMajorant:
    """Fan of comparison triangles over one geodesic polygon."""

    triangles: list[ComparisonTriangle]
    corner_planar: list[float]        # accumulated planar angle per corner
    corner_target: list[float]        # comparison angle in the target
    witness_ok: bool                  # planar >= target at every corner


def face_majorant(loop_points: list, target: TargetSpace) -> FaceMajorant:
    """Fan-triangulate a closed geodesic polygon from its first vertex.

    Each fan triangle is the comparison triangle of its target side
    lengths; the accumulated planar angle at every polygon corner is
    checked against the target comparison angle there (fanning can only
    increase corner angles, so the witness must hold for genuine geodesic
    polygons in a nonpositively curved target).
    """
    k = len(loop_points)
    if k < 3:
        raise GlueError("a face needs at least 3 corners")
    d = target.distance
    side = [d(loop_points[i], loop_points[(i + 1) % k]) for i in range(k)]
    diag = [d(loop_points[0], loop_points[i]) for i in range(k)]
    triangles = [
        comparison_triangle(side[i], diag[i + 1], diag[i]) for i in range(1, k - 1)
    ]
    corner_planar = [0.0] * k
    for t_idx, tri in enumerate(triangles):
        ang = tri.corner_angles()  # corners (apex, w_{t_idx+1}, w_{t_idx+2})
        corner_planar[0] += ang[0]
        corner_planar[t_idx + 1] += ang[1]
        corner_planar[t_idx + 2] += ang[2]
    corner_target = []
    for j in range(k):
        try:
            corner_target.append(
                target.comparison_angle(
                    loop_points[j], loop_points[(j - 1) % k], loop_points[(j + 1) % k]
                )
            )
        except ValueError:
            corner_target.append(0.0)  # collapsed corner: nothing to majorize
    witness_ok = all(p >= t - WITNESS_ANGLE_TOL for p, t in zip(corner_planar, corner_target))
    return FaceMajorant(triangles, corner_planar, corner_target, witness_ok)


# --------------------------------------------------------------------------
# polyhedral discs


@dataclass(eq=False)
class PolyhedralDisc:
    """Disc retract glued from planar triangles plus 1-dimensional bridges.

    ``gluings`` identifies triangle sides isometrically; side ``s`` of a
    triangle joins its corners ``s`` and ``(s+1) % 3``.  Sides not listed
    in any gluing are boundary sides.  ``boundary_walk`` is the closed
    vertex walk of the boundary curve with matching segment lengths: its
    steps run along the boundary sides, each once, and along bridges, each
    twice (out and back) or never.

    A disc is checked when it is built, and a malformed one raises a
    `GlueError` whose ``problems`` lists the diagnostics.  Its sides are
    paired once (`~catmin.mesh.side_pairing`), and the checks read the
    pairing: the vertices its triangles and bridges use are connected, the
    Euler characteristic is 1, and no closed component (triangles joined
    through gluings with no unglued side) exists.  So W is simply
    connected: a 2-cycle lives on closed components, so H_2 = 0, and then
    Euler characteristic 1 forces H_1 = 0; each piece of triangles has an
    unglued side, so W collapses onto a graph, which H_1 = 0 makes a tree,
    and its fundamental group is trivial.  A disc is immutable once built:
    ``surface_graph`` hands out a graph built from it earlier, and discs
    compare and hash by identity.
    """

    tri_coords: list[np.ndarray]
    tri_vertices: list[tuple[int, int, int]]
    gluings: list[tuple[tuple[int, int], tuple[int, int]]]
    bridges: list[tuple[int, int, float]]
    boundary_walk: list[int]
    boundary_lengths: list[float]
    n_vertices: int
    # worked out once when built: the side pairing, and each boundary_walk
    # step's segment, a boundary side's number 3 f + s or -1 - b for bridge b
    pairing: SidePairing | None = field(default=None, init=False, repr=False)
    walk_segments: list[int] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.tri_coords = [np.asarray(c, dtype=float) for c in self.tri_coords]
        self.tri_vertices = [tuple(int(v) for v in tri) for tri in self.tri_vertices]
        self.gluings = [((int(f1), int(s1)), (int(f2), int(s2))) for (f1, s1), (f2, s2) in self.gluings]
        self.bridges = [(int(u), int(v), float(ln)) for u, v, ln in self.bridges]
        self.boundary_walk = [int(v) for v in self.boundary_walk]
        self.boundary_lengths = [float(ln) for ln in self.boundary_lengths]
        self.n_vertices = int(self.n_vertices)
        problems = self._diagnose()
        if problems:
            raise invalid(self, problems, GlueError)

    @property
    def n_triangles(self) -> int:
        return len(self.tri_coords)

    def side_corners(self, f: int, s: int) -> tuple[int, int]:
        tri = self.tri_vertices[f]
        return tri[s], tri[(s + 1) % 3]

    def side_length(self, f: int, s: int) -> float:
        p = self.tri_coords[f]
        return float(np.linalg.norm(p[s] - p[(s + 1) % 3]))

    def boundary_sides(self) -> list[tuple[int, int]]:
        return [divmod(side, 3) for side in self.pairing.boundary.tolist()]

    def n_edges(self) -> int:
        return self.pairing.n_edges + len(self.bridges)

    def used_vertices(self) -> set[int]:
        return {v for tri in self.tri_vertices for v in tri} | {v for u, w, _ in self.bridges for v in (u, w)}

    def corner_angle(self, f: int, corner: int) -> float:
        p = self.tri_coords[f]
        u = p[(corner + 1) % 3] - p[corner]
        v = p[(corner + 2) % 3] - p[corner]
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu <= DEGENERATE_TOL or nv <= DEGENERATE_TOL:
            return 0.0
        cos = float(np.dot(u, v) / (nu * nv))
        return float(np.arccos(np.clip(cos, -1.0, 1.0)))

    def vertex_angle_sums(self) -> dict[int, float]:
        sums: dict[int, float] = {}
        for f in range(self.n_triangles):
            for corner in range(3):
                v = self.tri_vertices[f][corner]
                sums[v] = sums.get(v, 0.0) + self.corner_angle(f, corner)
        return sums

    def interior_vertices(self) -> list[int]:
        """Vertices fully surrounded by glued triangles: on a triangle and on
        no boundary side.  Their triangles form one closed fan (a second fan
        would split the boundary walk); a bridge at one leaves that fan's
        turn in its link."""
        exposed = {v for f, s in self.boundary_sides() for v in self.side_corners(f, s)}
        return sorted({v for tri in self.tri_vertices for v in tri} - exposed)

    def _diagnose(self) -> list[str]:
        # shapes and vertex indices first: every later check reads them
        n = self.n_vertices
        problems: list[str] = []
        if len(self.tri_vertices) != self.n_triangles:
            problems.append("tri_vertices must list one triple per tri_coords entry")
        for f, coords in enumerate(self.tri_coords):
            if np.shape(coords) != (3, 2) or not np.all(np.isfinite(coords)):
                problems.append(f"tri_coords[{f}] must be a finite (3, 2) array")
        for f, tri in enumerate(self.tri_vertices):
            if len(tri) != 3 or not all(0 <= v < n for v in tri):
                problems.append(f"tri_vertices[{f}] must be a triple in range({n})")
        for u, v, _ in self.bridges:
            if not (0 <= u < n and 0 <= v < n):
                problems.append(f"bridge ({u},{v}) has an end outside range({n})")
        for v in self.boundary_walk:
            if not 0 <= v < n:
                problems.append(f"boundary_walk vertex {v} outside range({n})")
        if len(self.boundary_lengths) != len(self.boundary_walk):
            problems.append("boundary_lengths must list one length per boundary_walk step")
        for i, ln in enumerate(self.boundary_lengths):
            if not (math.isfinite(ln) and ln > 0):
                problems.append(f"boundary_lengths[{i}] = {ln} is not a finite positive length")
        for u, v, ln in self.bridges:
            if not (math.isfinite(ln) and ln > 0):
                problems.append(f"bridge ({u},{v}) length {ln} is not a finite positive length")
        if problems:
            return problems
        seen_sides = set()
        for (f1, s1), (f2, s2) in self.gluings:
            for f, s in ((f1, s1), (f2, s2)):
                if not (0 <= f < self.n_triangles and 0 <= s < 3):
                    return [f"gluing references missing side ({f},{s})"]
                if (f, s) in seen_sides:
                    problems.append(f"side ({f},{s}) glued twice")
                seen_sides.add((f, s))
            l1, l2 = self.side_length(f1, s1), self.side_length(f2, s2)
            if abs(l1 - l2) > GLUE_TOL:
                problems.append(f"glued sides ({f1},{s1})~({f2},{s2}) differ in length by {abs(l1 - l2):.3g}")
            if set(self.side_corners(f1, s1)) != set(self.side_corners(f2, s2)):
                problems.append(f"glued sides ({f1},{s1})~({f2},{s2}) join different vertex pairs")
        if problems:
            return problems
        glued = [(3 * f1 + s1, 3 * f2 + s2) for (f1, s1), (f2, s2) in self.gluings]
        self.pairing = pairing = side_pairing(self.tri_vertices, glued, [(u, v) for u, v, _ in self.bridges])
        used = sorted(self.used_vertices())
        if len(set(pairing.component[used].tolist())) > 1:
            problems.append("the triangles and bridges do not form one connected complex")
        euler = len(used) - self.n_edges() + self.n_triangles
        if euler != 1:
            problems.append(f"Euler characteristic {euler}, expected 1 for a disc retract")
        for piece in np.setdiff1d(pairing.piece, pairing.piece[pairing.boundary // 3]).tolist():
            problems.append(f"triangles {np.flatnonzero(pairing.piece == piece).tolist()} are glued into a "
                            "closed surface: none of their sides is unglued")
        return problems + self._match_walk()

    def _match_walk(self) -> list[str]:
        """Match each boundary_walk step to the boundary side on its vertex
        pair, with a length within `GLUE_TOL` of the step's, or to the bridge
        there, of the step's length, and keep the matches; the problems of a
        walk off the boundary.  (Of several sides and bridges on one pair,
        which only a complex rejected for a cycle has, the last is taken.)"""
        pool: dict[frozenset, list[tuple[int, float]]] = {}
        for f, s in self.boundary_sides():
            pool.setdefault(frozenset(self.side_corners(f, s)), []).append((3 * f + s, self.side_length(f, s)))
        for b, (u, v, ln) in enumerate(self.bridges):
            pool.setdefault(frozenset((u, v)), []).extend([(-1 - b, ln)] * 2)
        walk, self.walk_segments, stray = self.boundary_walk, [], []
        for i, (u, v, ln) in enumerate(zip(walk, walk[1:] + walk[:1], self.boundary_lengths)):
            entries = pool.get(frozenset((u, v)))
            if entries and abs(entries[-1][1] - ln) <= (GLUE_TOL if entries[-1][0] >= 0 else 0.0):
                self.walk_segments.append(entries.pop()[0])
            else:
                stray.append(i)
        left = [seg for entries in pool.values() for seg, _ in entries]
        sides = sorted(divmod(seg, 3) for seg in left if seg >= 0)
        once = sorted(self.bridges[-1 - seg][:2] for seg in left if seg < 0 and left.count(seg) == 1)
        return [problem for problem, found in (
            (f"boundary_walk steps {stray} run along no boundary side or bridge of their length", stray),
            (f"boundary sides {sides} are not on boundary_walk", sides),
            (f"bridges {once} are on boundary_walk once, not twice or never", once)) if found]

    def area(self) -> float:
        return float(sum(_triangle_area(c) for c in self.tri_coords))

    def boundary_length(self) -> float:
        return float(sum(self.boundary_lengths))

    def surface_graph(self, subdiv: int = 12) -> "SurfaceGraph":
        """Surface graph of this disc at ``subdiv``, with its distance tables.

        The graph built last is kept and returned again for the same disc
        and ``subdiv``; any other request drops it, so at most one graph
        and its all-pairs table stay alive.
        """
        return _last_surface_graph(self, subdiv)


@functools.lru_cache(maxsize=1)
def _last_surface_graph(disc: PolyhedralDisc, subdiv: int) -> "SurfaceGraph":
    return SurfaceGraph(disc, subdiv)


# --------------------------------------------------------------------------
# gluing an embedded graph into a polyhedral disc


def _excise_spurs(walk: list[int]) -> tuple[list[int], list[tuple[int, int]]]:
    """Strip out-and-back excursions from a closed walk.

    Returns the remaining simple cycle (possibly empty) and the excised
    edges; each excised edge bounds no polygon and becomes a bridge.
    """
    walk = list(walk)
    spurs: list[tuple[int, int]] = []
    while len(walk) >= 3:
        k = len(walk)
        spur_at = None
        for i in range(k):
            if walk[(i - 1) % k] == walk[(i + 1) % k]:
                spur_at = i
                break
        if spur_at is None:
            break
        # rotate so the spur tip sits at position 1, then drop positions 1, 2
        rot = walk[(spur_at - 1) % k:] + walk[: (spur_at - 1) % k]
        u, tip = rot[0], rot[1]
        spurs.append((min(u, tip), max(u, tip)))
        walk = [rot[0]] + rot[3:]
    if len(walk) == 2:
        u, v = walk
        if u != v:
            spurs.append((min(u, v), max(u, v)))
        walk = []
    elif len(walk) < 2:
        walk = []
    return walk, spurs


@dataclass
class GlueReport:
    witness_ok: bool
    max_length_drift: float


def glue_disc(g: GraphInTarget) -> tuple[PolyhedralDisc, GlueReport]:
    """Fill every bounded face of an embedded graph with a comparison fan.

    Faces come from the rotation system; fan apexes are the first vertices
    of the face walks.  Edges bounding no polygon become bridges.  The
    boundary curve of the result is the outer face walk.
    """
    problems = g.spherical_diagnostics()
    if problems:
        raise GlueError("graph is not embeddable as given: " + "; ".join(problems))
    walks = g.faces()
    outer_idx = g.outer_face_index(walks)

    tri_coords: list[np.ndarray] = []
    tri_vertices: list[tuple[int, int, int]] = []
    gluings: list[tuple[tuple[int, int], tuple[int, int]]] = []
    witness_ok = True
    owners_by_edge: dict[tuple[int, int], list[tuple[int, int]]] = {}
    polygon_edges: set[tuple[int, int]] = set()
    bridge_set: set[tuple[int, int]] = set()
    max_drift = 0.0

    for w_idx, walk in enumerate(walks):
        if w_idx == outer_idx:
            continue
        cycle, spurs = _excise_spurs(walk)
        bridge_set.update(spurs)
        if not cycle:
            continue
        k = len(cycle)
        maj = face_majorant([g.points[v] for v in cycle], g.target)
        witness_ok = witness_ok and maj.witness_ok
        base = len(tri_coords)
        for i, tri in enumerate(maj.triangles):
            tri_coords.append(tri.coords.copy())
            tri_vertices.append((cycle[0], cycle[i + 1], cycle[i + 2]))
        for i in range(len(maj.triangles) - 1):
            gluings.append(((base + i, 2), (base + i + 1, 0)))  # shared fan diagonal
        for j in range(k):
            u, v = cycle[j], cycle[(j + 1) % k]
            if j == 0:
                owner = (base, 0)
            elif j == k - 1:
                owner = (base + len(maj.triangles) - 1, 2)
            else:
                owner = (base + j - 1, 1)
            owners_by_edge.setdefault((min(u, v), max(u, v)), []).append(owner)
            polygon_edges.add((min(u, v), max(u, v)))
            side_len = float(
                np.linalg.norm(
                    tri_coords[owner[0]][owner[1]]
                    - tri_coords[owner[0]][(owner[1] + 1) % 3]
                )
            )
            max_drift = max(max_drift, abs(side_len - g.edge_length(u, v)))

    # face tracing puts each directed edge on one walk: an edge has at most two owners
    gluings += [tuple(owners) for owners in owners_by_edge.values() if len(owners) == 2]

    for u, v in g.edges:
        key = (min(u, v), max(u, v))
        if key not in polygon_edges:
            bridge_set.add(key)
    bridges = [(u, v, g.edge_length(u, v)) for u, v in sorted(bridge_set)]

    outer_walk = walks[outer_idx]
    boundary_lengths = [
        g.edge_length(outer_walk[i], outer_walk[(i + 1) % len(outer_walk)])
        for i in range(len(outer_walk))
    ]
    # a side that drifted from its edge length is named as such before W's
    # own checks run on the disc built from it
    if max_drift > GLUE_TOL:
        raise GlueError(f"gluing length mismatch {max_drift:.3g} beyond {GLUE_TOL}")
    disc = PolyhedralDisc(
        tri_coords=tri_coords,
        tri_vertices=tri_vertices,
        gluings=gluings,
        bridges=bridges,
        boundary_walk=list(outer_walk),
        boundary_lengths=boundary_lengths,
        n_vertices=g.n_vertices,
    )
    return disc, GlueReport(witness_ok=witness_ok, max_length_drift=max_drift)


# --------------------------------------------------------------------------
# certificates and measurements


@dataclass
class Cat0Report:
    ok: bool
    angle_sums: dict[int, float]
    interior_vertices: list[int]
    worst_deficit: float
    tol_angle: float

    def summary(self) -> dict:
        return {
            "pass": bool(self.ok),
            "interior_vertices": list(self.interior_vertices),
            "angle_sums": {str(k): float(v) for k, v in sorted(self.angle_sums.items())},
            "worst_deficit": float(self.worst_deficit),
        }


def cat0_certificate(w: PolyhedralDisc, tol_angle: float = ANGLE_TOL) -> Cat0Report:
    """Nonpositive-curvature certificate: at least a full turn around every
    interior vertex, which makes ``w`` CAT(0) as it is simply connected: a
    `PolyhedralDisc` is built only connected, of Euler characteristic 1 and
    with no closed component, hence with trivial homology and a free, so
    trivial, fundamental group.  ``tol_angle`` must be finite and >= 0."""
    if not 0.0 <= tol_angle < math.inf:
        raise ValueError(f"tol_angle must be finite and >= 0, got {tol_angle}")
    sums = w.vertex_angle_sums()
    interior = w.interior_vertices()
    worst = max((2.0 * math.pi - sums.get(v, 0.0) for v in interior), default=0.0)
    return Cat0Report(worst <= tol_angle, sums, interior, worst, tol_angle)


def boundary_and_area(w: PolyhedralDisc) -> dict:
    """Boundary length, area, and the planar isoperimetric flag, up to
    `ISOPERIMETRIC_SLACK`."""
    L = w.boundary_length()
    A = w.area()
    return {
        "boundary_length": L,
        "area": A,
        "isoperimetric_ok": bool(A <= L * L / (4.0 * math.pi) + ISOPERIMETRIC_SLACK),
    }


def cut_vertices(w: PolyhedralDisc) -> dict:
    """Articulation vertices of the 1-skeleton and its 2-connected blocks.

    W is simply connected, so its pieces (triangles joined through gluings)
    and bridges meet at single vertices, as in a tree: a cycle of the
    skeleton stays in one piece, and no vertex splits a piece, whose
    triangles around each vertex form one fan.  Each piece's vertices and
    each bridge's ends are a block, and a cut vertex lies on two blocks.
    """
    pieces: dict[int, set[int]] = {}
    for piece, tri in zip(w.pairing.piece.tolist(), w.tri_vertices):
        pieces.setdefault(piece, set()).update(tri)
    blocks = [sorted(b) for b in pieces.values()] + [sorted((u, v)) for u, v, _ in w.bridges]
    seen, cuts = set(), set()
    for block in blocks:
        cuts.update(seen.intersection(block))
        seen.update(block)
    return {"cut_vertices": sorted(cuts), "blocks": sorted(blocks)}


# --------------------------------------------------------------------------
# intrinsic distances via an edge-subdivided surface graph


class SurfaceGraph(PathGraph):
    """Subdivided surface graph with complete chord connections per face.

    Dijkstra distances overestimate the intrinsic metric; the conservative
    per-query bound is ``(crossings + 2) * max_gap``, while in practice the
    overestimate behaves like the quadratic snapping error of straight
    crossings (the thin-triangle allowance relies on the calibrated value
    ``THIN_ALLOWANCE_GAPS * max_gap``).

    Its distances come from the `~catmin.graphs.PathGraph` tables:
    all-pairs for ``distance``, ``path_nodes`` and ``distance_with_bound``,
    per-source rows for queries that read a few sources.

    ``PolyhedralDisc.surface_graph`` keeps the graph it built last, tables
    included, so every caller asking for the same disc and ``subdiv`` reads
    the same tables; this relies on the disc being immutable.
    """

    def __init__(self, disc: PolyhedralDisc, subdiv: int = 12):
        if subdiv < 1:
            raise ValueError("subdiv must be >= 1")
        self.disc = disc
        self.subdiv = int(subdiv)
        # each node lies at fraction t of a segment (u, v) between disc
        # vertices: a side, a bridge, or (v, v) for a vertex itself
        self.nodes: list[tuple[int, int, float]] = []
        self._vertex_node: dict[int, int] = {}
        self._side_chain: dict[tuple[int, int], list[int]] = {}
        self._bridge_chain: list[list[int]] = []
        PathGraph.__init__(self, *self._build())

    def _new_node(self, u: int, v: int, t: float) -> int:
        self.nodes.append((u, v, t))
        return len(self.nodes) - 1

    def _build(self):
        """Create the nodes; return ``(n, a, b, w)``, every chord and
        bridge segment as an edge (a, b) of length w."""
        disc = self.disc
        r = self.subdiv
        partner = disc.pairing.partner.tolist()

        def vertex_node(v: int) -> int:
            if v not in self._vertex_node:
                self._vertex_node[v] = self._new_node(v, v, 0.0)
            return self._vertex_node[v]

        max_gap = 0.0

        def chain_of_side(f: int, s: int) -> list[int]:
            """Node chain along side (f, s), ordered corner s -> corner s+1."""
            nonlocal max_gap
            if (f, s) in self._side_chain:
                return self._side_chain[(f, s)]
            u, v = disc.side_corners(f, s)
            interior = [self._new_node(u, v, k / r) for k in range(1, r)]
            chain = [vertex_node(u)] + interior + [vertex_node(v)]
            self._side_chain[(f, s)] = chain
            if partner[3 * f + s] >= 0:
                glued = divmod(partner[3 * f + s], 3)
                self._side_chain[glued] = chain if disc.side_corners(*glued)[0] == u else chain[::-1]
            max_gap = max(max_gap, disc.side_length(f, s) / r)
            return chain

        # chords of every face ring, then bridge segments, as parallel arrays
        tri_u, tri_v = np.triu_indices(3 * r, k=1)
        t = np.arange(r) / r
        pair_a: list[np.ndarray] = [np.empty(0, dtype=int)]
        pair_b: list[np.ndarray] = [np.empty(0, dtype=int)]
        pair_w: list[np.ndarray] = [np.empty(0)]
        for f in range(disc.n_triangles):
            coords = disc.tri_coords[f]
            ring: list[int] = []
            for s in range(3):
                ring.extend(chain_of_side(f, s)[:-1])
            ring_xy = np.concatenate([
                (1 - t)[:, None] * coords[s] + t[:, None] * coords[(s + 1) % 3] for s in range(3)
            ])
            ring_arr = np.asarray(ring)
            d = ring_xy[tri_u] - ring_xy[tri_v]
            pair_a.append(ring_arr[tri_u])
            pair_b.append(ring_arr[tri_v])
            # the dot-product form rounds exactly like np.linalg.norm of each
            # chord; sqrt(x*x + y*y) and hypot differ in the last bit
            pair_w.append(np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0]))

        for b_idx, (u, v, length) in enumerate(disc.bridges):
            chain = [vertex_node(u)]
            for k in range(1, r):
                chain.append(self._new_node(u, v, k / r))
            chain.append(vertex_node(v))
            pair_a.append(np.asarray(chain[:-1]))
            pair_b.append(np.asarray(chain[1:]))
            pair_w.append(np.full(r, length / r))
            self._bridge_chain.append(chain)
            max_gap = max(max_gap, length / r)

        self.max_gap = max_gap
        return len(self.nodes), np.concatenate(pair_a), np.concatenate(pair_b), np.concatenate(pair_w)

    # ---------------- queries

    def vertex_node(self, v: int) -> int:
        return self._vertex_node[v]

    def side_chain(self, f: int, s: int) -> list[int]:
        return self._side_chain[(f, s)]

    def bridge_chain(self, b_idx: int) -> list[int]:
        return self._bridge_chain[b_idx]

    def distance_with_bound(self, a: int, b: int) -> tuple[float, float]:
        """Distance overestimate with a conservative error bound:
        value - bound <= true distance <= value."""
        value = self.distance(a, b)
        crossings = max(len(self.path_nodes(a, b)) - 2, 0)
        return value, (crossings + 2) * self.max_gap

    def boundary_node_arcs(self) -> tuple[list[int], list[float]]:
        """Nodes along the boundary walk with cumulative arclengths."""
        disc = self.disc
        nodes: list[int] = []
        arcs: list[float] = []
        acc = 0.0
        for u, segment, length in zip(disc.boundary_walk, disc.walk_segments, disc.boundary_lengths):
            chain = self.side_chain(*divmod(segment, 3)) if segment >= 0 else self.bridge_chain(-1 - segment)
            if chain[0] != self.vertex_node(u):
                chain = chain[::-1]
            m = len(chain) - 1
            for k, node in enumerate(chain[:-1]):
                nodes.append(node)
                arcs.append(acc + length * (k / m))
            acc += length
        return nodes, arcs


# --------------------------------------------------------------------------
# thin triangles and nets


def thin_triangle_test(
    w: PolyhedralDisc,
    samples: int = 10_000,
    seed: int = 0,
    subdiv: int = 24,
) -> dict:
    """Sampled comparison inequality on random geodesic triangles.

    For random node triangles (A, B, C) and random points p on side AB and
    q on side AC, the intrinsic distance d(p, q) must not exceed the
    distance of the matching points on the planar comparison triangle,
    up to the distance-approximation allowance of `THIN_ALLOWANCE_GAPS`
    subdivision gaps.

    Candidate triangles are drawn in batches of ``samples`` node triples,
    one ``rng.integers`` call per batch, and tested as arrays.  A triple is
    rejected when its nodes are not distinct, its shortest side is within
    4 subdivision gaps, its sides break the triangle inequality (as
    `comparison_triangle` would find), or side AB or AC is a single hop.
    W's surface graph is connected, so every side is finite.  The first
    accepted triples in draw order are kept, at most 30 * ``samples``
    candidates are drawn, and ``attempts`` counts the candidates tested up
    to the last one kept; a run that reaches that cap reports fewer
    ``samples`` than asked for, and one that keeps none raises
    ``ValueError``: it measured nothing.  Then p and q are
    drawn uniformly among the interior nodes of the shortest paths AB and
    AC, and every sample is measured at once.  One seed always draws the
    same triangles; the stream is not that of the former one-triangle-
    at-a-time loop (kept as the test oracle), whose sampling distribution
    it shares.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    sg = w.surface_graph(subdiv)
    dist, pred = sg.all_pairs()
    rng = np.random.default_rng(seed)
    n = sg.n_nodes
    allowance = THIN_ALLOWANCE_GAPS * sg.max_gap
    cap = 30 * samples
    kept: list[tuple[np.ndarray, ...]] = []  # accepted (a, b, c, hops_ab, hops_ac) per batch
    done = attempts = 0
    while done < samples and attempts < cap:
        m = min(samples, cap - attempts)
        a, b, c = rng.integers(0, n, size=(3, m))
        ab, ac, bc = dist[a, b], dist[a, c], dist[b, c]
        ok = (a != b) & (a != c) & (b != c)
        ok &= np.minimum(np.minimum(ab, ac), bc) > 4 * sg.max_gap
        ok &= ~_breaks_triangle_inequality(bc, ac, ab)
        idx = np.flatnonzero(ok)
        hops_ab, hops_ac = path_hops(pred, a[idx], b[idx]), path_hops(pred, a[idx], c[idx])
        long = (hops_ab >= 2) & (hops_ac >= 2)
        idx = idx[long][: samples - done]
        kept.append((a[idx], b[idx], c[idx], hops_ab[long][: idx.size], hops_ac[long][: idx.size]))
        done += idx.size
        attempts += int(idx[-1]) + 1 if done == samples else m
    if not done:
        raise ValueError(
            f"no triangle accepted in attempts {attempts}: sides must exceed 4 max_gap = "
            f"{4 * sg.max_gap:.3g} and paths AB, AC need 2 hops; raise subdiv"
        )
    a, b, c, hops_ab, hops_ac = (np.concatenate(x) for x in zip(*kept))
    p = walk_back(pred, a, b, hops_ab - rng.integers(1, hops_ab))
    q = walk_back(pred, a, c, hops_ac - rng.integers(1, hops_ac))
    # comparison triangle of sides (bc, ac, ab): X at the origin, Y = (ab, 0),
    # Z = (x, y); p-bar and q-bar at the same fractions of XY and XZ
    ab, ac, bc = dist[a, b], dist[a, c], dist[b, c]
    x, y = _third_corner(bc, ac, ab)
    t_p, t_q = dist[a, p] / ab, dist[a, q] / ac
    dx, dy = ab * t_p - x * t_q, y * t_q
    violation = dist[p, q] - np.sqrt(dx * dx + dy * dy)
    k = int(np.argmax(violation))
    worst = float(violation[k])
    return {
        "samples": done,
        "attempts": attempts,
        "worst_violation": worst,
        "allowance": float(allowance),
        "beyond_allowance": float(worst - allowance),
        "violation_found": bool(worst > allowance),
        "worst_case_nodes": tuple(int(v[k]) for v in (a, b, c, p, q)),
        "max_gap": float(sg.max_gap),
    }


def eps_net_report(w: PolyhedralDisc, eps_fracs=(0.1, 0.05), subdiv: int = 12) -> dict:
    """Greedy separated nets checked against the packing-count bound.

    With l = L / (2 pi), the net seeds ceil(10 l / eps) boundary points at
    equal arclength and then adds farthest nodes while they are more than
    eps from everything chosen; the interior count must stay within
    4 (l / eps)^2.  Each net is reported under the key ``L/k`` with k the
    nearest integer to 1 / frac, so two fractions with the same key raise.
    """
    if not eps_fracs or not all(0.0 < frac < math.inf for frac in eps_fracs):
        raise ValueError(f"eps_fracs must be positive finite fractions, got {tuple(eps_fracs)}")
    keys = [f"L/{round(1 / frac)}" for frac in eps_fracs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"eps_fracs {tuple(eps_fracs)} give the same net keys {keys}")
    sg = w.surface_graph(subdiv)
    L = w.boundary_length()
    ell = L / (2.0 * math.pi)
    b_nodes, b_arcs = sg.boundary_node_arcs()
    results = {}
    for key, frac in zip(keys, eps_fracs):
        eps = frac * L
        m = math.ceil(10.0 * ell / eps)
        chosen: list[int] = []
        for k in range(m):
            t = L * k / m
            idx = int(np.searchsorted(b_arcs, t, side="right")) - 1
            node = b_nodes[idx]
            if node not in chosen:
                chosen.append(node)
        n_boundary = len(chosen)
        mind = sg.rows(chosen).min(axis=0)
        added = 0
        while True:
            node = int(np.argmax(mind))
            if mind[node] <= eps:
                break
            chosen.append(node)
            added += 1
            mind = np.minimum(mind, sg.rows([node])[0])
        bound_interior = 4.0 * (ell / eps) ** 2
        results[key] = {
            "eps": float(eps),
            "boundary_points": n_boundary,
            "boundary_bound": m,
            "interior_points": added,
            "interior_bound": bound_interior,
            "net_size": len(chosen),
            "total_bound": bound_interior + m,
            "ok": bool(added <= bound_interior and n_boundary <= m),
        }
    results["all_ok"] = all(v["ok"] for v in results.values() if isinstance(v, dict))
    return results


# --------------------------------------------------------------------------
# ready-made discs


def cone_disc(total_angle: float, n_triangles: int = 6, radius: float = 1.0) -> PolyhedralDisc:
    """Closed fan of isoceles triangles around one vertex with the given
    total apex angle; positively curved for totals below a full turn."""
    if n_triangles < 3:
        raise ValueError("a closed fan needs at least 3 triangles")
    apex = total_angle / n_triangles
    if apex >= math.pi:
        raise ValueError("per-triangle apex angle must be < pi")
    rim = 2.0 * radius * math.sin(apex / 2.0)
    ring = range(n_triangles)
    return PolyhedralDisc(
        # corners (apex, rim_i, rim_{i+1}); neighbours share a spoke
        tri_coords=[comparison_triangle(rim, radius, radius).coords for _ in ring],
        tri_vertices=[(0, 1 + i, 1 + (i + 1) % n_triangles) for i in ring],
        gluings=[((i, 2), ((i + 1) % n_triangles, 0)) for i in ring],
        bridges=[],
        boundary_walk=[1 + i for i in ring],
        boundary_lengths=[rim] * n_triangles,
        n_vertices=n_triangles + 1,
    )


def strip_disc(tri1_sides, tri2_sides) -> PolyhedralDisc:
    """Two triangles glued along their first side (corners 0 and 1)."""
    t1 = comparison_triangle(*tri1_sides)
    t2 = comparison_triangle(*tri2_sides)
    if abs(t1.sides[2] - t2.sides[2]) > GLUE_TOL:
        raise GlueError("shared sides differ in length")
    return PolyhedralDisc(
        tri_coords=[t1.coords, t2.coords],
        tri_vertices=[(0, 1, 2), (0, 1, 3)],
        gluings=[((0, 0), (1, 0))],
        bridges=[],
        boundary_walk=[2, 0, 3, 1],
        boundary_lengths=[
            t1.sides[1],  # 2 -> 0, i.e. |XZ| of t1
            t2.sides[1],  # 0 -> 3
            t2.sides[0],  # 3 -> 1
            t1.sides[0],  # 1 -> 2
        ],
        n_vertices=4,
    )
