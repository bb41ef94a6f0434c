"""Parameter-disc mesh builders and seeded random instances."""

from __future__ import annotations

import numpy as np

from .mesh import MappedDisc, boundary_loop_of
from .targets import EuclideanSpace

__all__ = [
    "grid_disc",
    "fan_disc",
    "make_mapped_disc",
    "random_height_disc",
    "paraboloid_cap_disc",
]


def make_mapped_disc(vertices, triangles, images) -> MappedDisc:
    """Assemble a MappedDisc into the Euclidean space of its images,
    deriving the boundary loop from the triangles."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=int)
    images = np.asarray(images, dtype=float)
    loop = boundary_loop_of(vertices, triangles)
    return MappedDisc(vertices, triangles, loop, images, EuclideanSpace(images.shape[1]))


def grid_disc(k: int) -> tuple[np.ndarray, np.ndarray]:
    """k x k vertex grid over [0,1]^2, two triangles per cell."""
    if k < 2:
        raise ValueError("grid needs k >= 2")
    xs = np.linspace(0.0, 1.0, k)
    vertices = np.array([(x, y) for y in xs for x in xs])
    tris = []
    for j in range(k - 1):
        for i in range(k - 1):
            a = j * k + i
            b = a + 1
            c = a + k
            d = c + 1
            tris.append((a, b, d))
            tris.append((a, d, c))
    return vertices, np.asarray(tris, dtype=int)


def fan_disc(n_rim: int, rings: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Disc triangulated by concentric rings around a center vertex."""
    if n_rim < 3:
        raise ValueError("rim needs >= 3 vertices")
    vertices = [(0.0, 0.0)]
    ring_start = [None]
    for ring in range(1, rings + 1):
        r = ring / rings
        start = len(vertices)
        ring_start.append(start)
        for k in range(n_rim):
            a = 2.0 * np.pi * k / n_rim
            vertices.append((r * np.cos(a), r * np.sin(a)))
    tris = []
    first = ring_start[1]
    for k in range(n_rim):
        tris.append((0, first + k, first + (k + 1) % n_rim))
    for ring in range(1, rings):
        s0, s1 = ring_start[ring], ring_start[ring + 1]
        for k in range(n_rim):
            k2 = (k + 1) % n_rim
            tris.append((s0 + k, s1 + k, s1 + k2))
            tris.append((s0 + k, s1 + k2, s0 + k2))
    return np.asarray(vertices, dtype=float), np.asarray(tris, dtype=int)


def random_height_disc(
    seed: int,
    max_vertices: int = 30,
    dim: int = 3,
    height_scale: float = 0.6,
    jitter: float = 0.05,
) -> MappedDisc:
    """Seeded generic instance: a grid or ring disc embedded as a bumpy graph.

    The image is (x, y, f(x, y), ...) for a random low-frequency height
    function plus a small jitter, so the map is a quasi-isometric embedding
    with no collapsed regions.
    """
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        k = int(rng.integers(2, int(np.sqrt(max_vertices)) + 1))
        vertices, triangles = grid_disc(k)
    else:
        rings = int(rng.integers(1, 3))
        n_rim = int(rng.integers(3, max(4, (max_vertices - 1) // rings + 1)))
        n_rim = min(n_rim, max(3, (max_vertices - 1) // rings))
        vertices, triangles = fan_disc(n_rim, rings)
    n = len(vertices)
    amp = rng.uniform(0.1, height_scale, size=3)
    freq = rng.uniform(0.5, 2.5, size=(3, 2))
    phase = rng.uniform(0, 2 * np.pi, size=3)
    x, y = vertices[:, 0], vertices[:, 1]
    h = sum(
        amp[i] * np.sin(2 * np.pi * (freq[i, 0] * x + freq[i, 1] * y) + phase[i])
        for i in range(3)
    )
    cols = [x, y, h]
    while len(cols) < dim:
        cols.append(np.zeros(n))
    images = np.stack(cols, axis=1) + jitter * rng.standard_normal((n, dim))
    return make_mapped_disc(vertices, triangles, images)


def paraboloid_cap_disc(n_rim: int = 8, rings: int = 3, height: float = 1.0) -> MappedDisc:
    """Upward cap z = height * (x^2 + y^2) over the unit disc."""
    vertices, triangles = fan_disc(n_rim, rings)
    x, y = vertices[:, 0], vertices[:, 1]
    images = np.stack([x, y, height * (x * x + y * y)], axis=1)
    return make_mapped_disc(vertices, triangles, images)
