"""Strictly saddle height-field patches and their balancing field systems.

A patch is a map s(x, y) into Euclidean 3-space on a uniform grid.  On a
strictly saddle patch (principal curvatures of opposite sign everywhere),
an array of four vector fields

    v1 = e1 / sqrt(|k1|),  v2 = e2 / sqrt(|k2|),
    v3 = (l1, 0),          v4 = (0, l2),

with e_i the unit principal directions, can be scaled so that the
second-order operator

    D_v s = sum_i v_i(v_i s)

vanishes.  v3 and v4 run along the grid axes, which must be the
asymptotic coordinate directions (as for z = c x y): the solver checks
that the second form's L and N vanish on them, so `curvature_frame`
computes no asymptotic directions of its own.  The normal parts cancel
by construction (the principal terms contribute opposite unit normal
curvatures, the asymptotic terms have none), and the tangential parts
cancel when w = (l1^2, l2^2) satisfies the semilinear system
dw1/dx = h1(x, y, w),  dw2/dy = h2(x, y, w)  along the two asymptotic
coordinate directions.  In rotated coordinates
x = t + z, y = t - z this is a first-order hyperbolic system with
characteristic speeds +-1; the solver marches it away from the grid
anti-diagonal (the t = 0 line) with unit data, following each
characteristic family exactly along the grid axes with a Heun corrector,
so the update is an upwind difference along the characteristics and the
scheme is second-order accurate.  The march stores its coefficients and
w in anti-diagonal-major order (the cells with i + j = c together, by
increasing i, for c = 0, 1, ...), so each step reads one diagonal and
writes the next as contiguous slices; w returns to row-major order once,
at the end.

The accompanying quadrature energy  E_v s = sum_i int |v_i s|^2  is a
positive semidefinite quadratic form in the grid values, so it is exactly
convex along every segment.  Its Euler-Lagrange operator is
sum_i v_i*(v_i s) with v* = -v - div v, not D_v s, so a vanishing D_v s
does not make the solved s a minimizer: `perturbation_evidence` samples
margins under boundary-fixed bumps of amplitude 0.05, which is evidence at
that amplitude only (at n = 32, bumps of amplitude 1e-3 find descent).
Per node the energy is  w * sum_c grad s_c^T A grad s_c  with w the
trapezoid weight and A = sum_i v_i v_i^T a 2x2 tensor, so each margin
E(s0 + b) - E(s0) = 2 <s0, b>_A + E(b) is read in closed form from A and
the bump's gradients, with no energy call per bump.  A bump's masked
Gaussian profile is a sum of outer products of 1-D factors, and so are its
gradients, so those forms are batched bilinear forms over blocks of trials
(rank-1 matrix products, plus a correction on the boundary rim), with no
per-trial pass over the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .targets import invalid

__all__ = [
    "HeightFieldPatch",
    "FieldArray",
    "CurvatureFrame",
    "FieldSystemError",
    "bilinear_saddle_patch",
    "difference_saddle_patch",
    "patch_from_function",
    "curvature_frame",
    "energy",
    "laplacian",
    "solve_field_system",
    "field_system_report",
    "perturbation_evidence",
]

STRICT_SADDLE_TOL = 1e-10  # Gauss curvature must stay below its negative
ASYMPTOTIC_TOL = 1e-8  # largest |L|, |N| on the grid axes, relative to max |M|
POSITIVITY_TOL = 1e-9  # squared scalings at most this have lost positivity
BUMP_AMPLITUDE = 0.05  # of the perturbation bumps
ENERGY_TOL = 1e-9  # energy margin and convexity slack of the perturbations


class FieldSystemError(RuntimeError):
    """Raised when the field system cannot be solved on the given patch."""


@dataclass
class HeightFieldPatch:
    """Uniform rectangular grid carrying a map into Euclidean 3-space; a
    malformed one raises a ValueError whose ``problems`` names its fault."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray  # (nx, ny, 3)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        for arr, name in ((self.x, "x"), (self.y, "y"), (self.values, "values")):
            if not np.isfinite(arr).all():
                raise invalid(self, [f"{name} must be finite"])
        if self.values.shape != (self.x.size, self.y.size, 3):
            raise invalid(self, ["values must have shape (len(x), len(y), 3)"])
        for coords, name in ((self.x, "x"), (self.y, "y")):
            if coords.size < 5:
                raise invalid(self, [f"{name} grid needs at least 5 nodes for stencils"])
            steps = np.diff(coords)
            if steps.min() <= 0 or np.ptp(steps) > 1e-9 * abs(steps[0]):
                raise invalid(self, [f"{name} grid must be uniform and increasing"])

    @property
    def hx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def hy(self) -> float:
        return float(self.y[1] - self.y[0])

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[0], self.values.shape[1]

    def crop(self, i0: int, i1: int, j0: int, j1: int) -> "HeightFieldPatch":
        return HeightFieldPatch(self.x[i0:i1], self.y[j0:j1], self.values[i0:i1, j0:j1])


def patch_from_function(fn, half_width: float = 0.5, n: int = 32) -> HeightFieldPatch:
    """Sample (x, y) -> point in R^3 on a centered square grid of n cells."""
    coords = np.linspace(-half_width, half_width, n + 1)
    xs, ys = np.meshgrid(coords, coords, indexing="ij")
    vals = np.asarray(fn(xs, ys))
    if vals.shape[0] == 3:
        vals = np.moveaxis(vals, 0, -1)
    return HeightFieldPatch(coords, coords, vals)


def bilinear_saddle_patch(half_width: float = 0.5, n: int = 32, coef: float = 1.0) -> HeightFieldPatch:
    """The saddle z = coef * x * y; its asymptotic curves are the grid axes."""
    return patch_from_function(
        lambda xs, ys: np.stack([xs, ys, coef * xs * ys], axis=-1), half_width, n
    )


def difference_saddle_patch(half_width: float = 0.5, n: int = 32) -> HeightFieldPatch:
    """The saddle z = x^2 - y^2 with diagonal asymptotic directions."""
    return patch_from_function(
        lambda xs, ys: np.stack([xs, ys, xs * xs - ys * ys], axis=-1), half_width, n
    )


# --------------------------------------------------------------------------
# finite differences


def _d(arr: np.ndarray, h: float, axis: int) -> np.ndarray:
    return np.gradient(arr, h, axis=axis, edge_order=2)


def _dd(arr: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative; central interior, one-sided 2nd order at edges."""
    out = np.empty_like(arr)
    a = np.moveaxis(arr, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[1:-1] = (a[2:] - 2.0 * a[1:-1] + a[:-2]) / (h * h)
    o[0] = (2.0 * a[0] - 5.0 * a[1] + 4.0 * a[2] - a[3]) / (h * h)
    o[-1] = (2.0 * a[-1] - 5.0 * a[-2] + 4.0 * a[-3] - a[-4]) / (h * h)
    return out


def _grad(patch: HeightFieldPatch, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (d/dx, d/dy) pair of a grid quantity, for every field to share."""
    return _d(arr, patch.hx, 0), _d(arr, patch.hy, 1)


def _along(vec: np.ndarray, grad: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Derivative along a parameter vector field, from the quantity's `_grad`."""
    ax, ay = grad
    return vec[..., :1] * ax + vec[..., 1:2] * ay


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over a last axis of length 3.

    Bit for bit ``np.sum(a * b, axis=-1)``, signed zeros included (the
    leading 0.0 makes a row of -0.0 products sum to 0.0, as np.sum does),
    without its slow reduction over a short axis.
    """
    p = a * b
    return 0.0 + p[..., 0] + p[..., 1] + p[..., 2]


def directional_derivative(patch: HeightFieldPatch, vec: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Derivative of a grid quantity along a parameter vector field."""
    return _along(vec, _grad(patch, arr))


@dataclass
class FieldArray:
    """Vector fields on the patch grid, with the saddle scalings when solved."""

    fields: list[np.ndarray]                    # each (nx, ny, 2)
    patch: HeightFieldPatch
    frame: CurvatureFrame                       # of ``patch``, kept by the solver
    lambda1: np.ndarray | None = None
    lambda2: np.ndarray | None = None
    shrunk: bool = False
    window: tuple[int, int] | None = None


# --------------------------------------------------------------------------
# curvature frame


@dataclass
class CurvatureFrame:
    kappa1: np.ndarray
    kappa2: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    first_form: tuple[np.ndarray, np.ndarray, np.ndarray]    # E, F, G
    second_form: tuple[np.ndarray, np.ndarray, np.ndarray]   # L, M, N
    s_x: np.ndarray
    s_y: np.ndarray
    # read by the solve only; a solved `FieldArray`'s frame holds None
    s_xx: np.ndarray | None
    s_yy: np.ndarray | None
    normal: np.ndarray


def _orient(vfield: np.ndarray, reference: np.ndarray) -> np.ndarray:
    sign = np.where(np.sum(vfield * reference, axis=-1, keepdims=True) < 0.0, -1.0, 1.0)
    return vfield * sign


def curvature_frame(patch: HeightFieldPatch) -> CurvatureFrame:
    """Principal curvatures and directions and the two fundamental forms
    of a strictly saddle patch.

    Raises (with the offending node) when the Gauss curvature is not
    negative beyond `STRICT_SADDLE_TOL` everywhere, since asymptotic directions
    then degenerate.
    """
    s = patch.values
    s_x = _d(s, patch.hx, 0)
    s_y = _d(s, patch.hy, 1)
    s_xx = _dd(s, patch.hx, 0)
    s_yy = _dd(s, patch.hy, 1)
    s_xy = _d(s_x, patch.hy, 1)
    normal = np.cross(s_x, s_y)
    nn = np.linalg.norm(normal, axis=-1, keepdims=True)
    if np.any(nn <= 0.0):
        raise FieldSystemError("degenerate parametrization: zero normal")
    normal = normal / nn
    E = _dot(s_x, s_x)
    F = _dot(s_x, s_y)
    G = _dot(s_y, s_y)
    L = _dot(s_xx, normal)
    M = _dot(s_xy, normal)
    N = _dot(s_yy, normal)
    det_i = E * G - F * F
    gauss = (L * N - M * M) / det_i
    if np.any(gauss >= -STRICT_SADDLE_TOL):
        i, j = np.unravel_index(int(np.argmax(gauss)), gauss.shape)
        raise FieldSystemError(
            f"patch is not strictly saddle at node ({i},{j}): "
            f"Gauss curvature {gauss[i, j]:.3g}"
        )
    mean = (L * G - 2.0 * M * F + N * E) / (2.0 * det_i)
    root = np.sqrt(mean * mean - gauss)
    kappa1 = mean + root
    kappa2 = mean - root

    def principal_direction(kappa):
        # rows of (II - kappa I); the null vector is the direction
        a11 = L - kappa * E
        a12 = M - kappa * F
        a22 = N - kappa * G
        v = np.where(
            (np.abs(a11) >= np.abs(a22))[..., None],
            np.stack([-a12, a11], axis=-1),
            np.stack([-a22, a12], axis=-1),
        )
        norm_i = np.sqrt(
            E * v[..., 0] ** 2 + 2 * F * v[..., 0] * v[..., 1] + G * v[..., 1] ** 2
        )
        return v / norm_i[..., None]

    e1 = principal_direction(kappa1)
    e2 = principal_direction(kappa2)
    center = (patch.shape[0] // 2, patch.shape[1] // 2)
    e1 = _orient(e1, e1[center])
    e2 = _orient(e2, e2[center])

    return CurvatureFrame(kappa1, kappa2, e1, e2, (E, F, G), (L, M, N), s_x, s_y, s_xx, s_yy, normal)


# --------------------------------------------------------------------------
# energy and the operator


def energy(patch: HeightFieldPatch, fields: FieldArray | list, values: np.ndarray | None = None) -> float:
    """Trapezoidal quadrature of the summed squared directional derivatives.

    Exactly convex in the grid values: every term is a fixed nonnegative
    weight times the square of a linear stencil.
    """
    vals = patch.values if values is None else np.asarray(values, dtype=float)
    total = 0.0
    for deriv in _derivatives(fields, _grad(patch, vals)):
        dens = _dot(deriv, deriv)
        total += float(np.trapezoid(np.trapezoid(dens, dx=patch.hy, axis=1), dx=patch.hx))
    return total


def _derivatives(fields: FieldArray | list, grad: tuple[np.ndarray, np.ndarray]):
    """Each field's derivative of a quantity, from the quantity's `_grad`.

    A solved `FieldArray` holds v1, v2, v3 = (lambda1, 0) and
    v4 = (0, lambda2) (see `_assemble`): v3 and v4 read one partial each,
    with no product by their zero coordinate.
    """
    if not isinstance(fields, FieldArray):
        for vec in fields:
            yield _along(vec, grad)
        return
    ax, ay = grad
    yield _along(fields.fields[0], grad)
    yield _along(fields.fields[1], grad)
    yield fields.lambda1[..., None] * ax
    yield fields.lambda2[..., None] * ay


def _second_derivatives(patch: HeightFieldPatch, vecs, grad_s) -> list[np.ndarray]:
    """v(v s) for each field v, from the values' gradient pair ``grad_s``."""
    return [directional_derivative(patch, vec, _along(vec, grad_s)) for vec in vecs]


def _summed(s: np.ndarray, terms: list[np.ndarray]) -> np.ndarray:
    out = np.zeros_like(s)
    for term in terms:
        out += term
    return out[1:-1, 1:-1]


def laplacian(patch: HeightFieldPatch, fields: FieldArray | list) -> np.ndarray:
    """Nested directional derivatives sum_i v_i(v_i s) on interior nodes."""
    vecs = fields.fields if isinstance(fields, FieldArray) else fields
    s = patch.values
    return _summed(s, _second_derivatives(patch, vecs, _grad(patch, s)))


# --------------------------------------------------------------------------
# the field system


def _tangential_coefficients(frame: CurvatureFrame, u: np.ndarray):
    E, F, G = frame.first_form
    det = E * G - F * F
    ub1 = _dot(u, frame.s_x)
    ub2 = _dot(u, frame.s_y)
    c1 = (G * ub1 - F * ub2) / det
    c2 = (E * ub2 - F * ub1) / det
    return c1, c2


def solve_field_system(patch: HeightFieldPatch) -> FieldArray:
    """Solve for the asymptotic scalings that cancel the operator.

    Requires the grid axes to be the asymptotic coordinate directions
    (checked: the second form must vanish on them), which holds for
    patches sampled in asymptotic coordinates such as z = c x y.  The
    squared scalings w = (l1^2, l2^2) obey one transport equation per
    characteristic family; both are marched from unit data on the grid
    anti-diagonal with a Heun corrector.  The coefficients and w are held
    diagonal by diagonal (anti-diagonal-major order), so a forward step's
    neighbours (i - 1, j) and (i, j - 1) are the first and the last cells
    of the previous diagonal, and a backward step's (i + 1, j) and
    (i, j + 1) the last and the first of the next; w is scattered back to
    row-major order once.  If positivity fails, the patch is shrunk to the
    largest centered window on which it holds.
    """
    frame = curvature_frame(patch)
    nx, ny = patch.shape
    if nx != ny:
        raise FieldSystemError(
            "step configuration invalid for characteristic marching: grid must be square"
        )
    if abs(patch.hx - patch.hy) > 1e-12 * patch.hx:
        raise FieldSystemError(
            "step configuration invalid for characteristic marching: hx must equal hy"
        )
    E, F, G = frame.first_form
    L, M, N = frame.second_form
    scale = np.abs(M).max()
    if np.abs(L).max() > ASYMPTOTIC_TOL * scale or np.abs(N).max() > ASYMPTOTIC_TOL * scale:
        raise FieldSystemError(
            "grid axes are not asymptotic: sample the patch in asymptotic "
            "coordinates (second form must vanish on the axes)"
        )

    inv_sqrt_k1 = 1.0 / np.sqrt(np.abs(frame.kappa1))
    inv_sqrt_k2 = 1.0 / np.sqrt(np.abs(frame.kappa2))
    v1 = frame.e1 * inv_sqrt_k1[..., None]
    v2 = frame.e2 * inv_sqrt_k2[..., None]

    vv1, vv2 = _second_derivatives(patch, (v1, v2), (frame.s_x, frame.s_y))
    T = vv1 + vv2
    del vv1, vv2

    # anti-diagonal-major order: diagonal c = i + j holds its cells by
    # increasing i, from start[c] on, so each step of the march reads and
    # writes slices; each coefficient is dropped as soon as it is skewed
    diagonal = np.add.outer(np.arange(nx), np.arange(ny)).ravel()
    order = np.argsort(diagonal, kind="stable")
    start = [0, *np.cumsum(np.bincount(diagonal)).tolist()]

    def skewed(u):
        return (coef.ravel()[order] for coef in _tangential_coefficients(frame, u))

    t1, t2 = skewed(T)
    # s_xx and s_yy: the axis fields (1, 0) and (0, 1) applied twice
    a11, a12 = skewed(frame.s_xx)
    a21, a22 = skewed(frame.s_yy)
    del T

    def h1(d, w1, w2):
        return -2.0 * (t1[d] + w1 * a11[d] + w2 * a21[d])

    def h2(d, w1, w2):
        return -2.0 * (t2[d] + w1 * a12[d] + w2 * a22[d])

    n = nx - 1
    hx, hy = patch.hx, patch.hy
    w1 = np.full(nx * ny, np.nan)
    w2 = np.full(nx * ny, np.nan)
    w1[start[n]:start[n + 1]] = 1.0
    w2[start[n]:start[n + 1]] = 1.0

    for c in range(n + 1, 2 * n + 1):
        # diagonal c - 1 is one cell longer: (i - 1, j) are its first
        # cells, (i, j - 1) its last
        at = slice(start[c], start[c + 1])
        di = slice(start[c - 1], start[c] - 1)
        dj = slice(start[c - 1] + 1, start[c])
        f1_prev = h1(di, w1[di], w2[di])
        f2_prev = h2(dj, w1[dj], w2[dj])
        w1_star = w1[di] + hx * f1_prev
        w2_star = w2[dj] + hy * f2_prev
        w1[at] = w1[di] + 0.5 * hx * (f1_prev + h1(at, w1_star, w2_star))
        w2[at] = w2[dj] + 0.5 * hy * (f2_prev + h2(at, w1_star, w2_star))
    for c in range(n - 1, -1, -1):
        # diagonal c + 1 is one cell longer: (i + 1, j) are its last
        # cells, (i, j + 1) its first
        at = slice(start[c], start[c + 1])
        di = slice(start[c + 1] + 1, start[c + 2])
        dj = slice(start[c + 1], start[c + 2] - 1)
        f1_next = h1(di, w1[di], w2[di])
        f2_next = h2(dj, w1[dj], w2[dj])
        w1_star = w1[di] - hx * f1_next
        w2_star = w2[dj] - hy * f2_next
        w1[at] = w1[di] - 0.5 * hx * (f1_next + h1(at, w1_star, w2_star))
        w2[at] = w2[dj] - 0.5 * hy * (f2_next + h2(at, w1_star, w2_star))

    if np.isnan(w1).any() or np.isnan(w2).any():
        raise FieldSystemError("marching failed to cover the grid")
    rows = np.empty((2, nx * ny))
    rows[:, order] = w1, w2
    w1, w2 = rows.reshape(2, nx, ny)
    shrunk = False
    window = (0, nx)
    if min(w1.min(), w2.min()) <= POSITIVITY_TOL:
        k = 0
        ok = -1
        while 2 * k < n:
            sl = slice(k, nx - k)
            if min(w1[sl, sl].min(), w2[sl, sl].min()) > POSITIVITY_TOL:
                ok = k
                break
            k += 1
        if ok < 0:
            raise FieldSystemError(
                "lost positivity of the squared scalings; the patch is too "
                "large for a positive solution"
            )
        shrunk = True
        window = (ok, nx - ok)
        sub = patch.crop(ok, nx - ok, ok, nx - ok)
        return _assemble(sub, curvature_frame(sub), w1[ok:nx - ok, ok:nx - ok],
                         w2[ok:nx - ok, ok:nx - ok], shrunk, window)
    return _assemble(patch, frame, w1, w2, shrunk, window)


def _assemble(patch, frame, w1, w2, shrunk, window) -> FieldArray:
    lam1 = np.sqrt(w1)
    lam2 = np.sqrt(w2)
    v1 = frame.e1 / np.sqrt(np.abs(frame.kappa1))[..., None]
    v2 = frame.e2 / np.sqrt(np.abs(frame.kappa2))[..., None]
    # v3 and v4 are axis-aligned; `_derivatives` reads them off lam1, lam2
    v3 = np.stack([lam1, np.zeros_like(lam1)], axis=-1)
    v4 = np.stack([np.zeros_like(lam2), lam2], axis=-1)
    return FieldArray(
        fields=[v1, v2, v3, v4],
        patch=patch,
        lambda1=lam1,
        lambda2=lam2,
        shrunk=shrunk,
        window=window,
        frame=replace(frame, s_xx=None, s_yy=None),
    )


def field_system_report(fields: FieldArray) -> dict:
    """Residual and structural checks of a solved field array."""
    patch = fields.patch
    frame = fields.frame
    terms = _second_derivatives(patch, fields.fields, (frame.s_x, frame.s_y))
    res = _summed(patch.values, terms)
    res_norm = float(np.abs(res).max()) if res.size else 0.0
    checks = {}
    for name, gg in (("v3", terms[2]), ("v4", terms[3])):
        normal_part = np.abs(_dot(gg, frame.normal))[2:-2, 2:-2]
        checks[f"{name}_normal_part_max"] = float(normal_part.max()) if normal_part.size else 0.0
    return {
        "residual_max": res_norm,
        "lambda_min": float(min(fields.lambda1.min(), fields.lambda2.min())),
        "shrunk": fields.shrunk,
        **checks,
    }


# --------------------------------------------------------------------------
# minimality evidence

_CONVEXITY_TS = (0.25, 0.5, 0.75)  # the points t of each segment reported
_TRIAL_BLOCK = 32  # trials per batched pass: memory O(n^2 + block * n) at any trial count


def _node_tensor(patch: HeightFieldPatch, fields: FieldArray) -> tuple[np.ndarray, ...]:
    """The energy's 2x2 tensor per node, flattened: (a00, a01, a11).

    With A = sum_i v_i v_i^T times the trapezoid weight of the node,
    E(s) = sum over nodes and coordinates c of grad s_c^T A grad s_c.
    """
    wx = np.full(patch.shape[0], patch.hx)
    wy = np.full(patch.shape[1], patch.hy)
    wx[[0, -1]] *= 0.5
    wy[[0, -1]] *= 0.5
    weight = np.outer(wx, wy).ravel()
    vecs = [vec.reshape(-1, 2) for vec in fields.fields]
    return tuple(
        weight * sum(vec[:, p] * vec[:, q] for vec in vecs) for p, q in ((0, 0), (0, 1), (1, 1))
    )


def _bump_factors(coords: np.ndarray, centers: np.ndarray, widths: np.ndarray, h: float):
    """1-D factors, along one grid axis, of boundary-masked Gaussian blobs.

    The bump mask clip(ring / 2, 0, 1) is min(c(i), c(j)) with the ramp
    c(i) = clip(min(i, n - 1 - i) / 2, 0, 1).  That is c(i) c(j) except at
    the four nodes where both are 1/2, so a masked blob X (x) Y is
    core_x (x) core_y + corner_x (x) corner_y, with core = c X and corner =
    X / 2 on the second and next-to-last nodes only.  Returns the
    (2, blobs, nodes) stack (core, corner) and its `_d` along the axis.
    """
    nodes = np.arange(coords.size)
    ramp = np.clip(np.minimum(nodes, coords.size - 1 - nodes) / 2.0, 0.0, 1.0)
    corner = np.zeros(coords.size)
    corner[[1, -2]] = 0.5
    blob = np.exp(-((coords - centers[:, None]) ** 2) / (2.0 * widths[:, None] ** 2))
    factors = np.stack([blob * ramp, blob * corner])
    return factors, _d(factors, h, 2)


def _bilinear(matrix: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row-wise f_k^T M g_k: M summed against the outer product f_k (x) g_k."""
    return np.einsum("kj,kj->k", f @ matrix, g)


def _a_form(tensor, gx, gy, hx, hy) -> np.ndarray:
    """grad g^T A grad h summed over the trailing two (node) axes."""
    a00, a01, a11 = tensor
    return np.sum(a00 * gx * hx + a01 * (gx * hy + gy * hx) + a11 * gy * hy, axis=(-2, -1))


def _bump_forms(tensor, p, q, fx, fy, directions):
    """Each trial's <s0, b>_A and E(b) for bumps of unit amplitude.

    The blobs come two per trial, each with its direction, as the 1-D
    factors and their `_d` from `_bump_factors`: ``fx`` is
    ((core_x, corner_x), (d core_x, d corner_x)) and ``fy`` likewise.  A
    core's gradients are gx = d core_x (x) core_y and gy = core_x (x)
    d core_y, so each form over the grid is a batch of matrix products.
    The corners change the gradients only on the rim (the nodes within two
    of the boundary), where each form gains its full minus its core value.
    """
    ((x, x_corner), (dx, dx_corner)), ((y, y_corner), (dy, dy_corner)) = fx, fy
    a00, a01, a11 = tensor
    nx, ny = p.shape[:2]
    pair = np.arange(x.shape[0]).reshape(-1, 2)
    k, l = pair[:, [0, 0, 1]].ravel(), pair[:, [0, 1, 1]].ravel()
    # sum over nodes and coordinates c of P_c gx + Q_c gy, per blob
    lin = np.einsum("kjc,kj->kc", (dx @ p.reshape(nx, -1)).reshape(-1, ny, 3), y)
    lin += np.einsum("kjc,kj->kc", (x @ q.reshape(nx, -1)).reshape(-1, ny, 3), dy)
    # the Gram entries (0, 0), (0, 1), (1, 1) of each trial's two blobs
    gram = (_bilinear(a00, dx[k] * dx[l], y[k] * y[l])
            + _bilinear(a01, dx[k] * x[l], y[k] * dy[l])
            + _bilinear(a01, x[k] * dx[l], dy[k] * y[l])
            + _bilinear(a11, x[k] * x[l], dy[k] * dy[l]))
    rim_x, rim_y = (np.unique(np.r_[0:3, n - 3:n]) for n in (nx, ny))
    rim = np.ix_(rim_x, rim_y)
    core_gx = dx[:, rim_x, None] * y[:, None, rim_y]
    core_gy = x[:, rim_x, None] * dy[:, None, rim_y]
    corner_gx = dx_corner[:, rim_x, None] * y_corner[:, None, rim_y]
    corner_gy = x_corner[:, rim_x, None] * dy_corner[:, None, rim_y]
    lin += np.einsum("kij,ijc->kc", corner_gx, p[rim]) + np.einsum("kij,ijc->kc", corner_gy, q[rim])
    full_gx = core_gx + corner_gx
    full_gy = core_gy + corner_gy
    rim_tensor = (a00[rim], a01[rim], a11[rim])
    gram += (_a_form(rim_tensor, full_gx[k], full_gy[k], full_gx[l], full_gy[l])
             - _a_form(rim_tensor, core_gx[k], core_gy[k], core_gx[l], core_gy[l]))
    linear = _dot(lin, directions).reshape(-1, 2).sum(axis=1)
    dots = _dot(directions[k], directions[l])
    quadratic = _dot((gram * dots).reshape(-1, 3), np.array([1.0, 2.0, 1.0]))
    return linear, quadratic


def perturbation_evidence(
    patch: HeightFieldPatch,
    fields: FieldArray,
    trials: int = 100,
    seed: int = 0,
) -> dict:
    """Boundary-fixed random perturbations never decrease the energy.

    Each trial adds a random smooth bump b = m1 d1 + m2 d2 (scalar profiles
    m_k, each a Gaussian blob of amplitude `BUMP_AMPLITUDE` with the
    boundary ring pinned and the next ring at half the amplitude; directions
    d_k in R^3) and checks E(s0 + b) >= E(s0) - `ENERGY_TOL`.  E is a PSD
    quadratic form, so the margin is 2 <s0, b>_A + E(b), read off the
    per-node tensor A of `_node_tensor`, and E(s0 + t b) - (1 - t) E(s0) - t E(s0 + b) = -t (1 - t) E(b) gives
    convexity at each t in `_CONVEXITY_TS`: one `energy` call per run, for
    E(s0).  Each masked blob is a sum of outer products of 1-D factors
    (`_bump_factors`), and so are its gradients, so the margins of a block
    of `_TRIAL_BLOCK` trials are batched bilinear forms (`_bump_forms`),
    with no per-trial pass over the grid.  At least one trial is required.
    """
    if trials < 1:
        raise ValueError(f"perturbation evidence needs trials >= 1, got {trials}")
    if not (np.array_equal(patch.x, fields.patch.x) and np.array_equal(patch.y, fields.patch.y)):
        raise ValueError(
            f"patch grid {patch.shape} is not the solved grid {fields.patch.shape}: "
            f"the solve kept window {fields.window}; pass fields.patch"
        )
    rng = np.random.default_rng(seed)
    nx, ny = patch.shape
    e0 = energy(patch, fields)
    tensor = tuple(a.reshape(nx, ny) for a in _node_tensor(patch, fields))
    a00, a01, a11 = tensor
    s_x, s_y = _grad(patch, patch.values)
    # <s0, b>_A = sum over nodes and coordinates c of P_c gx + Q_c gy
    p = a00[..., None] * s_x + a01[..., None] * s_y
    q = a01[..., None] * s_x + a11[..., None] * s_y
    del s_x, s_y
    ts = np.asarray(_CONVEXITY_TS)
    convexity = -ts * (1.0 - ts)
    # each blob draws cx, cy and its width uniformly, then its direction;
    # random() mapped to (high - low) u + low is uniform(low, high) bit for bit
    low = np.array([patch.x[1], patch.y[1], 0.15])
    high = np.array([patch.x[-2], patch.y[-2], 0.4])
    span = patch.x[-1] - patch.x[0]
    min_margin = np.inf
    worst_convexity = -np.inf
    for start in range(0, trials, _TRIAL_BLOCK):
        block = min(_TRIAL_BLOCK, trials - start)
        blobs = np.empty((2 * block, 3))  # cx, cy, width
        directions = np.empty((2 * block, 3))
        for k in range(2 * block):
            blobs[k] = rng.random(3)
            directions[k] = rng.standard_normal(3)
        blobs = low + (high - low) * blobs
        blobs[:, 2] *= span
        fx = _bump_factors(patch.x, blobs[:, 0], blobs[:, 2], patch.hx)
        fy = _bump_factors(patch.y, blobs[:, 1], blobs[:, 2], patch.hy)
        linear, quadratic = _bump_forms(tensor, p, q, fx, fy, directions)
        eb = BUMP_AMPLITUDE * BUMP_AMPLITUDE * quadratic
        min_margin = min(min_margin, float(np.min(2.0 * BUMP_AMPLITUDE * linear + eb)))
        worst_convexity = max(worst_convexity, float(np.max(convexity * eb[:, None])))
    return {
        "trials": trials,
        "energy": e0,
        "min_margin": float(min_margin),
        "never_decreases": bool(min_margin >= -ENERGY_TOL),
        "convexity_max_violation": float(worst_convexity),
        "convex_ok": bool(worst_convexity <= ENERGY_TOL),
        "tolerance": ENERGY_TOL,
    }
