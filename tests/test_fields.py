import re

import numpy as np
import pytest

from catmin.fields import (
    FieldSystemError,
    HeightFieldPatch,
    bilinear_saddle_patch,
    curvature_frame,
    difference_saddle_patch,
    energy,
    field_system_report,
    laplacian,
    patch_from_function,
    perturbation_evidence,
    solve_field_system,
)
import catmin.fields as fields_module

from oracles import (
    energy_oracle,
    field_march_oracle,
    laplacian_oracle,
    perturbation_closed_form_oracle,
    perturbation_evidence_oracle,
)


def unit_coordinate_fields(patch):
    nx, ny = patch.shape
    ex = np.zeros((nx, ny, 2))
    ex[..., 0] = 1.0
    ey = np.zeros((nx, ny, 2))
    ey[..., 1] = 1.0
    return [ex, ey]


# ------------------------------------------------------------- energy


def test_energy_constant_map_zero():
    patch = patch_from_function(lambda x, y: np.stack([0 * x + 1, 0 * y + 2, 0 * x], -1), 0.5, 8)
    assert energy(patch, unit_coordinate_fields(patch)) == pytest.approx(0.0, abs=1e-15)


def test_energy_linear_map_twice_area():
    patch = patch_from_function(lambda x, y: np.stack([x, y, 0 * x], -1), 0.5, 16)
    got = energy(patch, unit_coordinate_fields(patch))
    assert got == pytest.approx(2.0 * 1.0, abs=1e-12)  # area of [-1/2,1/2]^2 is 1


def test_energy_translation_invariant_and_quadratic_scaling():
    patch = bilinear_saddle_patch(0.5, 16, coef=1.3)
    fields = unit_coordinate_fields(patch)
    e0 = energy(patch, fields)
    shifted = HeightFieldPatch(patch.x, patch.y, patch.values + np.array([3.0, -1.0, 2.0]))
    assert energy(shifted, fields) == pytest.approx(e0, rel=1e-12)
    scaled = HeightFieldPatch(patch.x, patch.y, 2.5 * patch.values)
    assert energy(scaled, fields) == pytest.approx(2.5**2 * e0, rel=1e-12)


def test_energy_matches_richardson_extrapolated_oracle():
    def run(n):
        patch = bilinear_saddle_patch(0.5, n, coef=1.0)
        return energy(patch, unit_coordinate_fields(patch))

    e1, e2, e4 = run(16), run(32), run(64)
    star = (4.0 * e4 - e2) / 3.0  # second-order extrapolation
    err1 = abs(e1 - star)
    err2 = abs(e2 - star)
    assert err2 <= err1 / 3.0  # roughly fourth of the error at half the step


@pytest.mark.parametrize("n", [32, 64, 128])
def test_energy_and_laplacian_bitwise_equal_oracle_on_solved_patches(n):
    patch = bilinear_saddle_patch(0.5, n, coef=1.1)
    fa = solve_field_system(patch)
    rng = np.random.default_rng(n)
    values = patch.values + 0.02 * rng.standard_normal(patch.values.shape)
    assert energy(patch, fa) == energy_oracle(patch, fa.fields)
    assert energy(patch, fa, values=values) == energy_oracle(patch, fa.fields, values)
    assert np.array_equal(laplacian(patch, fa), laplacian_oracle(patch, fa.fields))


def test_energy_and_laplacian_bitwise_equal_oracle_on_random_values():
    rng = np.random.default_rng(5)
    for n in (8, 13, 24):
        patch = patch_from_function(lambda x, y: rng.standard_normal(x.shape + (3,)), 0.7, n)
        vecs = [rng.standard_normal((n + 1, n + 1, 2)) for _ in range(int(rng.integers(1, 5)))]
        values = rng.standard_normal(patch.values.shape) * 10.0 ** rng.uniform(-3, 3)
        assert energy(patch, vecs) == energy_oracle(patch, vecs)
        assert energy(patch, vecs, values=values) == energy_oracle(patch, vecs, values)
        assert np.array_equal(laplacian(patch, vecs), laplacian_oracle(patch, vecs))


# ------------------------------------------------------------- laplacian


def test_laplacian_linear_map_zero():
    patch = patch_from_function(lambda x, y: np.stack([x, 2 * y, x + y], -1), 0.5, 12)
    res = laplacian(patch, unit_coordinate_fields(patch))
    assert np.abs(res).max() <= 1e-12


def test_laplacian_quadratic_exact_any_grid():
    for n in (8, 16, 32):
        patch = patch_from_function(lambda x, y: np.stack([x, y, x * x], -1), 0.5, n)
        nx, ny = patch.shape
        ex = np.zeros((nx, ny, 2))
        ex[..., 0] = 1.0
        res = laplacian(patch, [ex])
        want = np.array([0.0, 0.0, 2.0])
        assert np.abs(res - want).max() <= 1e-10


# ------------------------------------------------------------- curvature


def test_curvature_frame_difference_saddle():
    patch = difference_saddle_patch(0.5, 32)
    frame = curvature_frame(patch)
    c = (16, 16)
    assert frame.kappa1[c] == pytest.approx(2.0, abs=1e-10)
    assert frame.kappa2[c] == pytest.approx(-2.0, abs=1e-10)


def test_curvature_frame_off_center_matches_closed_form():
    # for z = x^2 - y^2 the Gauss curvature is -4 / (1 + 4x^2 + 4y^2)^2
    patch = difference_saddle_patch(0.5, 64)
    frame = curvature_frame(patch)
    i, j = 20, 40
    x, y = patch.x[i], patch.y[j]
    want = -4.0 / (1.0 + 4 * x * x + 4 * y * y) ** 2
    got = frame.kappa1[i, j] * frame.kappa2[i, j]
    assert got == pytest.approx(want, rel=1e-6)


def test_curvature_frame_rejects_plane_and_bowl():
    plane = patch_from_function(lambda x, y: np.stack([x, y, 0 * x], -1), 0.5, 8)
    with pytest.raises(FieldSystemError):
        curvature_frame(plane)
    bowl = patch_from_function(lambda x, y: np.stack([x, y, x * x + y * y], -1), 0.5, 8)
    with pytest.raises(FieldSystemError) as err:
        curvature_frame(bowl)
    assert "node" in str(err.value)


# ------------------------------------------------------------- field system


def test_solver_requires_asymptotic_axes():
    with pytest.raises(FieldSystemError) as err:
        solve_field_system(difference_saddle_patch(0.5, 16))
    assert "asymptotic" in str(err.value)


def test_solver_requires_square_grid():
    base = bilinear_saddle_patch(0.5, 16)
    ragged = HeightFieldPatch(base.x, base.y[:-2], base.values[:, :-2])
    with pytest.raises(FieldSystemError) as err:
        solve_field_system(ragged)
    assert "step configuration" in str(err.value)


def test_solver_positive_and_second_order_residual():
    norms = {}
    for n in (16, 32, 64):
        patch = bilinear_saddle_patch(0.5, n, coef=1.0)
        fa = solve_field_system(patch)
        rep = field_system_report(fa)
        assert rep["lambda_min"] > 0.0
        assert not rep["shrunk"]
        assert rep["v3_normal_part_max"] <= 1e-10
        assert rep["v4_normal_part_max"] <= 1e-10
        norms[n] = rep["residual_max"]
    order1 = np.log2(norms[16] / norms[32])
    order2 = np.log2(norms[32] / norms[64])
    assert 1.5 <= order1 <= 2.5
    assert 1.5 <= order2 <= 2.5


def test_solver_shrinks_when_positivity_fails():
    patch = bilinear_saddle_patch(0.7, 32, coef=3.0)
    fa = solve_field_system(patch)
    assert fa.shrunk
    lo, hi = fa.window
    assert 0 < lo < hi <= 33
    rep = field_system_report(fa)
    assert rep["lambda_min"] > 0.0


def test_report_reads_the_solver_frame(monkeypatch):
    calls = []
    original = fields_module.curvature_frame

    def counted(patch, *args, **kwargs):
        calls.append(patch.shape)
        return original(patch, *args, **kwargs)

    monkeypatch.setattr(fields_module, "curvature_frame", counted)
    for patch in (bilinear_saddle_patch(0.5, 24), bilinear_saddle_patch(0.7, 32, coef=3.0)):
        calls.clear()
        fa = solve_field_system(patch)
        rep = field_system_report(fa)
        # one frame for the solve (two when the patch is shrunk), none for the report
        assert len(calls) == (2 if fa.shrunk else 1)
        assert fa.frame.s_x.shape[:2] == fa.patch.shape
        fa.frame = original(fa.patch)
        assert field_system_report(fa) == rep
        assert rep["residual_max"] == float(np.abs(laplacian_oracle(fa.patch, fa.fields)).max())


def bits(a):
    """The bit patterns of a float array: equal only if every bit is (-0.0 too)."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("half_width", [0.5, 1.5])
@pytest.mark.parametrize("coef", [0.8, 1.0, 1.1, 1.25])
@pytest.mark.parametrize("n", [8, 16, 31, 32, 64, 128])
def test_march_along_diagonals_equals_the_row_major_oracle(n, coef, half_width):
    # at half-width 1.5 positivity fails at the corners and the solve shrinks its window
    patch = bilinear_saddle_patch(half_width, n, coef=coef)
    fa = solve_field_system(patch)
    lam1, lam2, window, shrunk = field_march_oracle(patch)
    assert (fa.window, fa.shrunk) == (window, shrunk)
    assert shrunk is (half_width == 1.5)
    assert np.array_equal(bits(fa.lambda1), bits(lam1))
    assert np.array_equal(bits(fa.lambda2), bits(lam2))


def test_dot_equals_numpy_sum_bit_for_bit():
    rng = np.random.default_rng(7)
    for shape in [(3,), (5, 3), (33, 33, 3), (2, 7, 9, 3)]:
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        b = rng.standard_normal(shape)
        b[rng.random(shape) < 0.1] = 0.0
        assert np.array_equal(bits(fields_module._dot(a, b)), bits(np.sum(a * b, axis=-1)))
    # rows whose three products are all -0.0 sum to 0.0 under np.sum, and so under the helper
    a = np.array([[-0.0, -0.0, -0.0], [-1.0, 0.0, 2.0]])
    b = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, -0.0]])
    got = fields_module._dot(a, b)
    assert np.array_equal(bits(got), bits(np.sum(a * b, axis=-1)))
    assert np.array_equal(bits(got), bits([0.0, 0.0]))


# ------------------------------------------------------------- minimality


def test_perturbation_evidence_on_solved_patch():
    patch = bilinear_saddle_patch(0.5, 24, coef=1.0)
    fa = solve_field_system(patch)
    rep = perturbation_evidence(patch, fa, trials=40, seed=7)
    assert rep["never_decreases"], rep
    assert rep["convex_ok"], rep


@pytest.mark.parametrize("trials", [0, -3])
def test_perturbation_needs_a_trial(trials):
    patch = bilinear_saddle_patch(0.5, 16, coef=1.0)
    fa = solve_field_system(patch)
    with pytest.raises(ValueError, match="trials"):
        perturbation_evidence(patch, fa, trials=trials)


def test_perturbation_zero_is_equality():
    patch = bilinear_saddle_patch(0.5, 16, coef=1.0)
    fa = solve_field_system(patch)
    e0 = energy(patch, fa)
    assert energy(patch, fa, values=patch.values.copy()) == pytest.approx(e0, rel=1e-15)


@pytest.mark.parametrize("n", [16, 24, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_perturbation_evidence_equals_the_sampled_oracle(n, seed):
    # the margin 2<s0, b>_A + E(b) and convexity from the quadratic identity
    # E((1-t)s0 + t s1) - [(1-t)E0 + tE1] = -t(1-t)E(s1 - s0) read what the
    # oracle samples, up to rounding; the oracle's E1 - E0 cancels to an
    # absolute error of a few ulps of E0
    patch = bilinear_saddle_patch(0.5, n, coef=1.0 + 0.1 * seed)
    fa = solve_field_system(patch)
    got = perturbation_evidence(patch, fa, trials=40, seed=seed)
    want = perturbation_evidence_oracle(patch, fa, trials=40, seed=seed)
    for key in ("trials", "energy", "never_decreases", "convex_ok", "tolerance"):
        assert got[key] == want[key], key
    assert abs(got["min_margin"] - want["min_margin"]) <= 1e-12 * want["energy"]
    assert got["convexity_max_violation"] < 0.0
    assert abs(got["convexity_max_violation"] - want["convexity_max_violation"]) <= (
        1e-12 * abs(want["convexity_max_violation"])
    )


@pytest.mark.parametrize("trials", [1, 7])
def test_perturbation_evidence_makes_one_energy_call_per_run(monkeypatch, trials):
    patch = bilinear_saddle_patch(0.5, 16, coef=1.0)
    fa = solve_field_system(patch)
    calls = []
    original = fields_module.energy

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fields_module, "energy", counted)
    perturbation_evidence(patch, fa, trials=trials)
    # E(s0) only: each trial's margin and E(b) come from the node tensor
    assert len(calls) == 1


def assert_matches_the_closed_form_oracle(patch, fa, trials, seed):
    got = perturbation_evidence(patch, fa, trials=trials, seed=seed)
    want = perturbation_closed_form_oracle(patch, fa, trials=trials, seed=seed)
    for key in ("trials", "energy", "never_decreases", "convex_ok", "tolerance"):
        assert got[key] == want[key], key
    # a margin is a difference of energies, so it is held at the scale of
    # E(s0): a near-zero margin (n = 5) keeps few of its own digits
    assert abs(got["min_margin"] - want["min_margin"]) <= 1e-13 * want["energy"]
    assert abs(got["convexity_max_violation"] - want["convexity_max_violation"]) <= (
        1e-13 * abs(want["convexity_max_violation"])
    )


@pytest.mark.parametrize("n", [4, 5, 6, 7, 16, 33, 64, 128])
@pytest.mark.parametrize("coef", [0.8, 1.0, 1.25])
def test_perturbation_evidence_equals_the_closed_form_oracle(n, coef):
    # the batched rank-1 forms read what the per-trial dense loop reads
    fa = solve_field_system(bilinear_saddle_patch(0.5, n, coef=coef))
    for seed in range(3):
        assert_matches_the_closed_form_oracle(fa.patch, fa, trials=100, seed=seed)


@pytest.mark.parametrize("seed", range(8))
def test_perturbation_evidence_equals_the_closed_form_oracle_on_a_shrunk_window(seed):
    fa = solve_field_system(bilinear_saddle_patch(1.5, 32))
    assert fa.shrunk
    assert_matches_the_closed_form_oracle(fa.patch, fa, trials=100, seed=seed)


def test_perturbation_evidence_across_trial_blocks():
    # more than two blocks, the last one partial
    fa = solve_field_system(bilinear_saddle_patch(0.5, 16, coef=1.1))
    trials = 2 * fields_module._TRIAL_BLOCK + 5
    assert_matches_the_closed_form_oracle(fa.patch, fa, trials=trials, seed=4)


@pytest.mark.parametrize("n", [4, 5, 32, 33])
def test_bump_factors_reproduce_the_masked_blob(n):
    # core (x) core + corner (x) corner is the dense masked blob, and its
    # `_d` pairs are the dense profile's gradients; centres next to each
    # corner give the corner point masses their largest share
    patch = bilinear_saddle_patch(0.5, n)
    nx, ny = patch.shape
    amplitude = 0.05
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    ring = np.minimum.reduce([ii, jj, nx - 1 - ii, ny - 1 - jj])
    scale = np.clip(ring / 2.0, 0.0, 1.0) * amplitude
    xs, ys = np.meshgrid(patch.x, patch.y, indexing="ij")
    span = patch.x[-1] - patch.x[0]
    cx, cy, width = (v.ravel() for v in np.meshgrid(
        [patch.x[1], patch.x[-2]], [patch.y[1], patch.y[-2]], [0.15 * span, 0.4 * span]))
    fx, dfx = fields_module._bump_factors(patch.x, cx, width, patch.hx)
    fy, dfy = fields_module._bump_factors(patch.y, cy, width, patch.hy)
    for k in range(cx.size):
        blob = np.exp(-(((xs - cx[k]) ** 2 + (ys - cy[k]) ** 2) / (2 * width[k] * width[k])))
        dense = scale * blob
        pairs = (
            (np.einsum("ri,rj->ij", fx[:, k], fy[:, k]), dense),
            (np.einsum("ri,rj->ij", dfx[:, k], fy[:, k]), fields_module._d(dense, patch.hx, 0)),
            (np.einsum("ri,rj->ij", fx[:, k], dfy[:, k]), fields_module._d(dense, patch.hy, 1)),
        )
        for factored, want in pairs:
            assert np.abs(amplitude * factored - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("n", [16, 24, 32])
def test_node_tensor_reproduces_the_energy(n):
    patch = bilinear_saddle_patch(0.5, n, coef=1.2)
    fa = solve_field_system(patch)
    a00, a01, a11 = fields_module._node_tensor(patch, fa)
    rng = np.random.default_rng(n)
    for values in (patch.values, rng.standard_normal(patch.values.shape)):
        gx, gy = (g.reshape(-1, 3) for g in fields_module._grad(patch, values))
        quad = np.sum((a00[:, None] * gx + a01[:, None] * gy) * gx
                      + (a01[:, None] * gx + a11[:, None] * gy) * gy)
        want = energy(patch, fa, values=values)
        assert abs(quad - want) <= 1e-13 * want


def test_perturbation_on_a_shrunk_solve_names_the_window():
    # the solve kept a smaller window: the full patch's grid is not the
    # grid the fields live on, and the caller must pass fields.patch
    patch = bilinear_saddle_patch(1.5, 32)
    fa = solve_field_system(patch)
    assert fa.shrunk and fa.patch.shape != patch.shape
    with pytest.raises(ValueError, match=re.escape(f"window {fa.window}")):
        perturbation_evidence(patch, fa, trials=1)
    assert perturbation_evidence(fa.patch, fa, trials=3)["trials"] == 3


@pytest.mark.parametrize("name", ["x", "y", "values"])
def test_patch_rejects_non_finite_entries(name):
    base = bilinear_saddle_patch(0.5, 4)
    arrays = {"x": base.x.copy(), "y": base.y.copy(), "values": base.values.copy()}
    arrays[name].flat[2] = np.nan if name == "values" else np.inf
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        HeightFieldPatch(**arrays)
