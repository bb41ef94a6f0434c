"""Static SVG figures: parameter domains, embedded graphs, disc layouts.

Figures only; coordinates are emitted with fixed precision so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .graphs import GraphInTarget
from .majorize import PolyhedralDisc
from .mesh import MappedDisc
from .saddle import PLANE_SNAP_TOL

__all__ = ["svg_parameter_domain", "svg_graph", "svg_disc_layout", "svg_plane_sections"]


def _fmt(x: float) -> str:
    return f"{x:.5f}"


class _Canvas:
    def __init__(self, width: float, height: float):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
            f'width="{_fmt(width)}" height="{_fmt(height)}">'
        ]

    def polygon(self, pts, fill="#e8eef7", stroke="#39506b", width=0.01):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" stroke-width="{_fmt(width)}"/>'
        )

    def line(self, a, b, stroke="#39506b", width=0.01, dash=None):
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"{extra}/>'
        )

    def circle(self, c, r, fill="#b33"):
        self.parts.append(
            f'<circle cx="{_fmt(c[0])}" cy="{_fmt(c[1])}" r="{_fmt(r)}" fill="{fill}"/>'
        )

    def text(self, pos, s, size=0.08, fill="#222"):
        self.parts.append(
            f'<text x="{_fmt(pos[0])}" y="{_fmt(pos[1])}" font-size="{_fmt(size)}" '
            f'fill="{fill}" font-family="monospace">{s}</text>'
        )

    def write(self, path):
        self.parts.append("</svg>")
        Path(path).write_text("\n".join(self.parts), encoding="utf-8")


def _fit(points: np.ndarray):
    lo = points.min(axis=0) - 0.1  # a margin around the points
    hi = points.max(axis=0) + 0.1
    span = hi - lo

    def to_canvas(p):
        q = np.asarray(p, dtype=float) - lo
        return q[0], span[1] - q[1]  # flip y for SVG

    return to_canvas, span


def svg_parameter_domain(disc: MappedDisc, path) -> None:
    """Triangulated parameter disc with its boundary loop and vertex ids."""
    to_canvas, span = _fit(disc.vertices)
    cv = _Canvas(span[0], span[1])
    for tri in disc.triangles:
        cv.polygon([to_canvas(disc.vertices[v]) for v in tri])
    loop = disc.boundary_loop
    for i in range(len(loop)):
        a = to_canvas(disc.vertices[loop[i]])
        b = to_canvas(disc.vertices[loop[(i + 1) % len(loop)]])
        cv.line(a, b, stroke="#b33", width=0.02)
    for v in range(disc.n_vertices):
        p = to_canvas(disc.vertices[v])
        cv.circle(p, 0.02, fill="#39506b")
        cv.text((p[0] + 0.03, p[1] - 0.03), str(v))
    cv.write(path)


def svg_graph(g: GraphInTarget, path) -> None:
    """Embedded graph in the parameter plane; pinned vertices marked."""
    if g.positions is None:
        raise ValueError("graph has no parameter positions to draw")
    to_canvas, span = _fit(np.asarray(g.positions))
    cv = _Canvas(span[0], span[1])
    for u, v in g.edges:
        cv.line(to_canvas(g.positions[u]), to_canvas(g.positions[v]))
    for v in range(g.n_vertices):
        p = to_canvas(g.positions[v])
        cv.circle(p, 0.025, fill="#b33" if v in g.pinned else "#39506b")
        cv.text((p[0] + 0.03, p[1] - 0.03), str(v))
    cv.write(path)


def svg_disc_layout(w: PolyhedralDisc, path) -> None:
    """Per-face planar layout with the gluing graph and angle-sum labels."""
    m = max(w.n_triangles, 1)
    cols = int(np.ceil(np.sqrt(m)))
    cell = 0.0
    for coords in w.tri_coords:
        span = coords.max(axis=0) - coords.min(axis=0)
        cell = max(cell, float(span.max()))
    cell = (cell or 1.0) * 1.3
    rows = int(np.ceil(m / cols)) if m else 1
    label_h = 0.3 * cell + 1.0
    cv = _Canvas(cols * cell + 0.5, rows * cell + label_h + 0.5)
    centers = []
    for f, coords in enumerate(w.tri_coords):
        r, c = divmod(f, cols)
        origin = np.array([c * cell + 0.25, r * cell + 0.25])
        local = coords - coords.min(axis=0)
        pts = [(origin[0] + p[0], origin[1] + (cell - 0.5) - p[1]) for p in local]
        cv.polygon(pts)
        centroid = np.mean(pts, axis=0)
        centers.append(centroid)
        cv.text((centroid[0] - 0.05, centroid[1]), f"T{f}", size=0.1)
    for (f1, _), (f2, _) in w.gluings:
        cv.line(centers[f1], centers[f2], stroke="#8ab06a", width=0.008, dash="0.03,0.03")
    y = rows * cell + 0.6
    sums = w.vertex_angle_sums()
    interior = set(w.interior_vertices())
    for k, v in enumerate(sorted(sums)):
        mark = "*" if v in interior else " "
        cv.text((0.3, y + 0.14 * k), f"v{v}{mark} angle {sums[v]:.6f}", size=0.11)
    cv.write(path)


def svg_plane_sections(disc: MappedDisc, normal, offset, path) -> None:
    """Parameter domain colored by the sign of the plane section; vertices
    snap onto the plane as in `saddle.check_plane`."""
    img = np.asarray(disc.images, dtype=float)
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    g = img @ n - float(offset)
    scale = max(1.0, float(np.abs(img).max()))
    g = np.where(np.abs(g) <= PLANE_SNAP_TOL * scale, 0.0, g)
    to_canvas, span = _fit(disc.vertices)
    cv = _Canvas(span[0], span[1])
    for tri in disc.triangles:
        vals = g[tri]
        if vals.max() > 0 and vals.min() < 0:
            fill = "#d8c8e8"
        elif vals.max() > 0:
            fill = "#f3b6b6"
        elif vals.min() < 0:
            fill = "#b6c8f3"
        else:
            fill = "#dddddd"
        cv.polygon([to_canvas(disc.vertices[v]) for v in tri], fill=fill)
    for v in range(disc.n_vertices):
        p = to_canvas(disc.vertices[v])
        cv.circle(p, 0.02, fill="#333")
    cv.write(path)
