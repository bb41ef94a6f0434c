"""Geodesic target spaces: the interface and the Euclidean model.

Points are float vectors (1-d ``np.ndarray``).  A target space provides
five primitives:

- ``distance(p, q)``: the distance between two points;
- ``distances(P, Q)``: row-wise distances between two arrays of points;
- ``geodesic_eval(p, q, t)``: the point at parameter ``t`` on a
  constant-speed geodesic p->q;
- ``triangle_points(A, B, C, a, b, c)``: the point of each triangle
  (A, B, C) at weights proportional to (a, b, c);
- ``comparison_angle(apex, p, q)``: the angle of the planar triangle with
  matching side lengths.

A new model needs only ``distance`` and ``geodesic_eval``: the defaults of
the other three are built on them, and `EuclideanSpace` overrides the two
batched ones with array expressions.  Everything downstream (refined graphs,
graph relaxation, triangle majorants, disc gluing) consumes targets only
through these primitives.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["TargetSpace", "EuclideanSpace", "angle_from_sides"]


def angle_from_sides(a: float, b: float, c: float) -> float:
    """Angle opposite side ``c`` in the planar triangle with sides a, b, c.

    The cosine is clamped to [-1, 1] so that slightly inconsistent side
    lengths (from approximate distances) still yield an angle.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("apex sides must be positive for an angle")
    cos = (a * a + b * b - c * c) / (2.0 * a * b)
    # np.clip(cos, -1.0, 1.0) on a scalar, NaN passed through, at a tenth
    # of its cost
    return float(np.arccos(min(max(cos, -1.0), 1.0)))


def invalid(obj, problems: list[str], error: type[ValueError] = ValueError) -> ValueError:
    """The ``error`` a constructor raises when its diagnostics find
    ``problems`` with ``obj``; the list rides along as ``.problems``."""
    exc = error(f"invalid {type(obj).__name__}: " + "; ".join(problems))
    exc.problems = problems
    return exc


class TargetSpace:
    """Abstract geodesic metric space."""

    def distance(self, p, q) -> float:
        raise NotImplementedError

    def geodesic_eval(self, p, q, t: float):
        """Point at parameter ``t`` in [0, 1] on a constant-speed geodesic p->q."""
        raise NotImplementedError

    def distances(self, P, Q) -> np.ndarray:
        """Distances between the rows of ``P`` and ``Q`` (broadcast against
        each other), one `distance` call per row."""
        P, Q = np.broadcast_arrays(np.asarray(P, dtype=float), np.asarray(Q, dtype=float))
        rows = zip(P.reshape(-1, P.shape[-1]), Q.reshape(-1, Q.shape[-1]))
        return np.asarray([self.distance(p, q) for p, q in rows], dtype=float).reshape(P.shape[:-1])

    def triangle_points(self, A, B, C, a, b, c) -> np.ndarray:
        """Point of each triangle (rows of A, B, C) at weights proportional
        to (a, b, c), ruled through ``A``: the point at weights (b, c) on
        the geodesic B->C, then the point at ``(b + c) / (a + b + c)`` on
        the geodesic from A to it."""
        A, B, C = (np.asarray(x, dtype=float) for x in (A, B, C))
        a, b, c = (np.broadcast_to(np.asarray(w, dtype=float), A.shape[:1]) for w in (a, b, c))
        out = np.empty_like(A)
        for k, (wa, wb, wc) in enumerate(zip(a.tolist(), b.tolist(), c.tolist())):
            bc = wb + wc
            x = self.geodesic_eval(B[k], C[k], wc / bc if bc else 0.0)
            out[k] = self.geodesic_eval(A[k], x, bc / (wa + bc))
        return out

    def comparison_angle(self, apex, p, q) -> float:
        """Angle at ``apex`` of the planar triangle with matching side lengths."""
        a = self.distance(apex, p)
        b = self.distance(apex, q)
        if a == 0.0 or b == 0.0:
            raise ValueError("comparison angle undefined: point coincides with apex")
        c = self.distance(p, q)
        return angle_from_sides(a, b, c)

    def contains(self, p):
        """Whether ``p`` is a point of the space; for an (n, k) array of n
        points, which rows are, or one answer for all.  Every ``p`` is, by
        default."""
        return True


class EuclideanSpace(TargetSpace):
    """R^m with straight segments as geodesics."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = int(dimension)

    def point(self, coords) -> np.ndarray:
        p = np.asarray(coords, dtype=float)
        if p.shape != (self.dimension,):
            raise ValueError(f"expected a point of dimension {self.dimension}")
        return p

    def contains(self, p):
        p = np.asarray(p, dtype=float)
        if p.ndim == 2:  # one finite point per row, as one array test
            return (p.shape[1] == self.dimension) & np.isfinite(p).all(axis=1)
        return p.shape == (self.dimension,) and bool(np.all(np.isfinite(p)))

    def distance(self, p, q) -> float:
        # np.linalg.norm's own sum, sqrt(d . d) over the flattened difference,
        # without its dispatch
        d = (np.asarray(p, float) - np.asarray(q, float)).ravel(order="K")
        return math.sqrt(d @ d)

    def distances(self, P, Q) -> np.ndarray:
        return np.linalg.norm(np.asarray(P, float) - np.asarray(Q, float), axis=-1)

    def geodesic_eval(self, p, q, t: float) -> np.ndarray:
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        return (1.0 - t) * p + t * q

    def triangle_points(self, A, B, C, a, b, c) -> np.ndarray:
        A, B, C = (np.asarray(x, float) for x in (A, B, C))
        a, b, c = (np.asarray(w, float)[..., None] for w in (a, b, c))
        return (a * A + b * B + c * C) / (a + b + c)

    def __repr__(self):
        return f"EuclideanSpace({self.dimension})"
