import math

import numpy as np
import pytest

import oddkit
from oddkit import LatticeMatrix
from oddkit.approx import approx_errors

from conftest import offset_grid, random_matrix, single_diagonal


def geometric_matrix(window):
    """A(k, k-m) = 2^{-m} for m >= 0: E_n under Jaffard(0) is exactly 2^{-n}."""
    diags = {}
    for m in range(0, 2 * window + 1):
        diags[(m,)] = np.full(2 * window + 1 - m, 2.0**-m)
    return LatticeMatrix(1, window, diags)


def test_approx_error_pinned():
    a = random_matrix(1, 4)
    assert oddkit.approx_error(a, 0, "jaffard:r=0") == oddkit.jaffard_norm(a, 0.0)
    banded = oddkit.band_truncate(a, 3)
    assert oddkit.approx_error(banded, 4, "jaffard:r=0") == 0.0
    g = geometric_matrix(6)
    for n in (0, 1, 3, 7):
        assert math.isclose(oddkit.approx_error(g, n, "jaffard:r=0"), 2.0**-n, rel_tol=1e-14)
    with pytest.raises(ValueError):
        oddkit.approx_error(a, -1, "jaffard:r=0")
    with pytest.raises(ValueError):
        approx_errors(a, "jaffard:r=0", n_max=-3)


def test_approx_errors_sweep_matches_loop():
    a = random_matrix(2, 5, density=0.7)
    for base in ("jaffard:r=1", "cpr:p=2,r=1", "op", "schur:p=2,r=1"):
        fast = approx_errors(a, base)
        slow = np.array(
            [oddkit.approx_error(a, n, base) for n in range(2 * a.window + 1)]
        )
        assert np.allclose(fast, slow, rtol=1e-12)


def _entry_sum(matrix):
    # a solid norm that no NormSpec names: the sum of all entry magnitudes
    return float(np.abs(matrix.to_dense()).sum())


@pytest.mark.parametrize("dim,window", [(1, 5), (2, 2)])
def test_approx_error_op_and_callable_match_dense_tail(dim, window):
    # E_n is the base norm of the dense matrix with the entries of
    # |k - l|_inf < n set to zero
    a = random_matrix(5 + dim, window, dim=dim, density=0.8)
    dense = a.to_dense()
    sup = np.abs(offset_grid(dim, window)).max(axis=-1)
    for n in range(2 * window + 2):
        tail = np.where(sup >= n, dense, 0.0)
        want = np.linalg.norm(tail, 2)
        assert math.isclose(oddkit.approx_error(a, n, "op"), want, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(
            oddkit.approx_error(a, n, _entry_sum), np.abs(tail).sum(), rel_tol=1e-13, abs_tol=0.0
        )


def test_approx_errors_nonincreasing_and_vanishing():
    a = random_matrix(3, 5)
    errs = approx_errors(a, "jaffard:r=0")
    assert (np.diff(errs) <= 1e-15).all()
    assert errs[-1] >= 0.0
    assert oddkit.approx_error(a, oddkit.bandwidth(a), "jaffard:r=0") == 0.0


def test_approx_space_norm_pinned():
    assert oddkit.approx_space_norm(LatticeMatrix.zeros(1, 5), "jaffard:r=0", 1.0) == 0.0
    g = geometric_matrix(6)
    # sup_n 2^{-n} (n+1) = 1, attained at n = 0 and 1
    assert math.isclose(
        oddkit.approx_space_norm(g, "jaffard:r=0", 1.0), 1.0, rel_tol=1e-14
    )
    banded = oddkit.band_truncate(random_matrix(4, 5), 3)
    v = oddkit.approx_space_norm(banded, "jaffard:r=0", 2.0)
    assert math.isfinite(v) and v > 0


def test_approx_space_norm_forms_equivalent():
    for seed in range(4):
        a = oddkit.generate(oddkit.DecayModel("phase", 2.0, seed=seed), 12)
        for p in (1.0, math.inf):
            s = oddkit.approx_space_norm(a, "jaffard:r=0", 0.5, p, form="sum")
            d = oddkit.approx_space_norm(a, "jaffard:r=0", 0.5, p, form="dyadic")
            assert 1 / 8 < s / d < 8
    with pytest.raises(ValueError):
        oddkit.approx_space_norm(a, "jaffard:r=0", 0.5, form="integral")


def test_approx_space_norm_refusals():
    a = oddkit.generate(oddkit.DecayModel("phase", 2.0, seed=1), 8)
    base = "jaffard:r=0"
    # defaults: the integral form at p = inf
    assert oddkit.approx_space_norm(a, base, 0.5) == oddkit.approx_space_norm(
        a, base, 0.5, math.inf, form="sum"
    )
    for r, p in ((0.0, math.inf), (-1.0, 2.0), (math.nan, 2.0), (math.inf, 2.0),
                 (0.5, 0.0), (0.5, 0.5), (0.5, math.nan)):
        with pytest.raises(ValueError):
            oddkit.approx_space_norm(a, base, r, p)
    with pytest.raises(ValueError):
        oddkit.approx_space_norm(a, base, 0.5, form="weird")
    with pytest.raises(ValueError):
        oddkit.cpr_shift_identity_check(a, 2.0, 2.0, 1.0, math.nan)


def test_scheme_algebra_bandwidth():
    a = random_matrix(5, 6)
    b = random_matrix(6, 6)
    for n, m in ((2, 3), (1, 4), (3, 3)):
        prod = oddkit.band_truncate(a, n) @ oddkit.band_truncate(b, m)
        assert oddkit.bandwidth(prod) <= n + m - 1


def test_truncation_is_optimal_among_banded():
    rng = np.random.default_rng(9)
    a = random_matrix(7, 5)
    for n in (1, 3, 5):
        e_n = oddkit.approx_error(a, n, "jaffard:r=0")
        trunc = oddkit.band_truncate(a, n)
        for _ in range(8):
            competitor = LatticeMatrix(
                1, 5,
                {off: arr * rng.random(arr.shape) for off, arr in trunc.diagonals()},
            )
            assert oddkit.jaffard_norm(a - competitor, 0.0) >= e_n - 1e-13


def test_jackson_bernstein_pinned_main_diagonal():
    d = LatticeMatrix(1, 6, {(0,): np.full(13, 5.0)})
    # E_0 = base, higher errors vanish; block norm is 2^{-r} base
    for r in (0.5, 1.0):
        got = oddkit.jackson_bernstein_ratio(d, "jaffard:r=0", r)
        assert math.isclose(got, 2.0**r, rel_tol=1e-13)
    with pytest.raises(ValueError):
        oddkit.jackson_bernstein_ratio(LatticeMatrix.zeros(1, 6), "jaffard:r=0", 0.5)


def test_jackson_bernstein_interval():
    for seed in range(4):
        a = oddkit.generate(oddkit.DecayModel("mag", 2.5, seed=seed), 12)
        for r, p in ((0.5, math.inf), (1.5, math.inf), (1.0, 1.0)):
            ratio = oddkit.jackson_bernstein_ratio(a, "jaffard:r=0", r, p)
            assert 1 / 20 < ratio < 20


def test_cpr_shift_identity():
    a = oddkit.generate(oddkit.DecayModel("phase", 2.5, seed=11), 12)
    rep = oddkit.cpr_shift_identity_check(a, p=2.0, q=2.0, r=1.0, s=0.5)
    assert rep.lhs > 0 and rep.rhs > 0
    assert 1 / 20 < rep.ratio < 20
    assert rep.direct is not None and rep.ratio_direct is not None
    assert 1 / 20 < rep.ratio_direct < 20
    rep2 = oddkit.cpr_shift_identity_check(a, p=1.0, q=math.inf, r=0.5, s=0.5)
    assert rep2.direct is None
    with pytest.raises(ValueError):
        oddkit.cpr_shift_identity_check(a, 1.0, 1.0, 0.5, 0.0)
