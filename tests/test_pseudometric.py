import numpy as np
import pytest

from catmin.pseudometric import PseudometricMatrix, verify_pseudometric

from oracles import verify_pseudometric_oracle

INF = np.inf


def test_verify_accepts_valid_matrix():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    assert verify_pseudometric(d) == []


def test_verify_flags_each_axiom():
    bad_diag = np.array([[0.1, 1.0], [1.0, 0.0]])
    assert any("diagonal" in p for p in verify_pseudometric(bad_diag))
    bad_sym = np.array([[0.0, 1.0], [2.0, 0.0]])
    assert any("asym" in p for p in verify_pseudometric(bad_sym))
    bad_tri = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    assert any("triangle" in p for p in verify_pseudometric(bad_tri))


def test_verify_infinite_detour_is_flagged():
    d = np.array([[0.0, 1.0, INF], [1.0, 0.0, 1.0], [INF, 1.0, 0.0]])
    assert any("infinite" in p for p in verify_pseudometric(d))


def _euclidean(rng, n, dim=3):
    pts = rng.standard_normal((n, dim))
    return np.linalg.norm(pts[:, None] - pts[None, :], axis=2)


def _axiom_breakers(rng):
    """Matrices that break each axiom, alone and together, some with
    infinite entries, at sizes up to n = 110."""
    out = []
    for n in (3, 7, 40, 110):
        d = _euclidean(rng, n)
        out.append(d)
        neg = d.copy()
        neg[0, 1] = neg[1, 0] = -0.5
        out.append(neg)
        diag = d.copy()
        diag[n // 2, n // 2] = 0.3
        out.append(diag)
        asym = d.copy()
        asym[0, n - 1] += 0.25
        out.append(asym)
        tri = d.copy()
        tri[1, 2] = tri[2, 1] = d[1, 2] + 4.0
        out.append(tri)
        # infinite entries: clusters at infinite distance (a pseudometric),
        # then infinite pairs with finite detours, the first at a late pivot
        # and a worse triangle slack at a still later one
        split = d.copy()
        split[: n // 2, n // 2:] = split[n // 2:, : n // 2] = INF
        out.append(split)
        # vertex 0 is at finite distance from the last three vertices only
        late = d.copy()
        late[0, 1:n - 3] = late[1:n - 3, 0] = INF
        late[1, 2] = late[2, 1] = d[1, 2] + 7.0
        out.append(late)
        both = late.copy()
        both[1, 1] = 0.2
        both[1, 2] -= 0.3
        both[0, n - 1] = both[n - 1, 0] = -0.01
        out.append(both)
        neg_inf = d.copy()
        neg_inf[0, 2] = neg_inf[2, 0] = -INF
        out.append(neg_inf)
        # a -inf entry makes some detours -inf, others (with +inf) NaN; the
        # violated pair (1, n-1) must still show its slack via pivot 2
        neg_detour = d.copy()
        neg_detour[0, 1] = neg_detour[1, 0] = -INF
        neg_detour[1, n - 1] = neg_detour[n - 1, 1] = d[1, n - 1] + 4.0
        out.append(neg_detour)
        mixed = neg_detour.copy()
        mixed[0, n - 1] = mixed[n - 1, 0] = INF
        out.append(mixed)
        nan = d.copy()
        nan[1, 1] = np.nan
        out.append(nan)
    out.append(np.zeros((0, 0)))
    out.append(np.zeros((1, 1)))
    out.append(np.full((2, 2), INF))
    return out


def test_verify_equals_pivot_loop_on_axiom_breakers():
    for d in _axiom_breakers(np.random.default_rng(29)):
        for tol in (1e-9, 0.1):
            assert verify_pseudometric(d, tol) == verify_pseudometric_oracle(d, tol)


def test_verify_reports_the_first_pivot_with_a_finite_detour():
    # the infinite pair (0, 1) has finite detours through pivots 5 and 9
    # only; the check stops at 5 and weighs the slacks of pivots 0..5
    rng = np.random.default_rng(31)
    d = _euclidean(rng, 10)
    d[0, 1] = d[1, 0] = INF
    for k in (2, 3, 4, 6, 7, 8):
        d[0, k] = d[k, 0] = INF
    problems = verify_pseudometric(d)
    assert problems == verify_pseudometric_oracle(d)
    assert "infinite distance with finite detour via 5" in problems


def test_verify_stops_at_a_late_first_finite_detour():
    # n = 120: the infinite pairs (0, k), k < 70, have their first finite
    # detour at pivot 70; the violated pair (1, 2) has its least detour at
    # a later pivot, so its reported slack is the one up to pivot 70
    rng = np.random.default_rng(43)
    n = 120
    d = _euclidean(rng, n)
    d[0, 1:70] = d[1:70, 0] = INF
    d[1, 2] = d[2, 1] = d[1, 2] + 3.0
    assert (d[1, 71:] + d[71:, 2]).min() < (d[1, :71] + d[:71, 2]).min()
    problems = verify_pseudometric(d)
    assert problems == verify_pseudometric_oracle(d)
    assert "infinite distance with finite detour via 70" in problems
    assert any(p.startswith("triangle inequality violated by") for p in problems)


def test_verify_equals_pivot_loop_on_random_matrices():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        d = np.round(rng.uniform(0.0, 3.0, size=(n, n)), 1)
        d = np.minimum(d, d.T)
        np.fill_diagonal(d, 0.0)
        d[rng.uniform(size=(n, n)) < 0.1] = INF
        assert verify_pseudometric(d) == verify_pseudometric_oracle(d)


def test_random_euclidean_matrices_verify():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.standard_normal((rng.integers(2, 9), 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        assert verify_pseudometric(d) == []


def test_rejects_non_square():
    with pytest.raises(ValueError):
        PseudometricMatrix(np.zeros((2, 3)))
