import csv
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import oddkit
from oddkit import (
    HypersingularQuadrature,
    LatticeMatrix,
    QuadratureError,
    StabilizationWarning,
)
from oddkit import bessel
from oddkit.bessel import write_multiplier_csv

from conftest import random_matrix, single_diagonal

# Cutoff-integral multipliers frozen from an independent adaptive-quadrature
# oracle (1-d oscillatory rule; 2-d via the radial Bessel-J0 reduction):
# mu_eps(m) = integral over eps <= |t|_2 <= 1 of (e^{2 pi i m.t} - 1)
#             |t|_2^{-r} dt / |t|_2^d
MU_1D = {
    # (r, eps_power, m): value
    (0.5, 12, 1): -8.630876979400227,
    (1.0, 12, 1): -17.811380008102788,
    (1.9, 12, 1): -188.23869975749403,
    (0.75, 8, 2): -21.92519160958085,
    (0.75, 8, 5): -45.66280411992986,
    (0.75, 8, 17): -111.40061078218477,
}
MU_2D = {
    # (eps_power, m tuple): value at r = 0.5
    (6, (1, 0)): -17.725399485293234,
    (6, (1, 1)): -22.9013145689703,
    (6, (3, 0)): -38.91236869126824,
    (6, (17, 5)): -90.79029134666986,
    (12, (32, 32)): -189.6822055364563,
}
# (1 + 4 pi^2) powers
GAIN_R1 = 0.15717672547758985  # (1 + 4 pi^2)^(-1/2)
GAIN_R2 = 40.47841760435743  # 1 + 4 pi^2


def test_bessel_convolve_pinned():
    a = random_matrix(1, 4)
    assert oddkit.bessel_convolve(a, 0.0) == a
    u = single_diagonal(4, 1)
    got = oddkit.bessel_convolve(u, 1.0).side_diagonal(1)
    assert np.allclose(got, GAIN_R1, rtol=1e-14)
    d = LatticeMatrix(1, 4, {(0,): np.arange(1.0, 10.0)})
    assert oddkit.bessel_convolve(d, 1.7) == d  # main diagonal untouched


def test_bessel_convolve_semigroup():
    a = random_matrix(2, 5, density=0.7)
    two = oddkit.bessel_convolve(oddkit.bessel_convolve(a, 0.5), 1.0)
    one = oddkit.bessel_convolve(a, 1.5)
    assert two.allclose(one, rtol=1e-13, atol=1e-16)


def test_bessel_norm_pinned():
    assert oddkit.bessel_norm(LatticeMatrix.identity(1, 4), 1.3, "jaffard:r=0") == 1.0
    got = oddkit.bessel_norm(single_diagonal(4, 1), 2.0, "jaffard:r=0")
    assert math.isclose(got, GAIN_R2, rel_tol=1e-13)


def test_bessel_round_trip_is_identity():
    # weighting after damping reproduces the base norm and the entries
    for seed, r in ((3, 0.5), (4, 1.0), (5, 1.9)):
        a = random_matrix(seed, 5, density=0.8)
        damped = oddkit.bessel_convolve(a, r)
        back = damped.scale_diagonals(lambda offs, r=r: oddkit.bessel_weight(offs, r))
        assert back.allclose(a, rtol=1e-13, atol=1e-16)
        for base in ("jaffard:r=0", "schur:p=1,r=0", "cpr:p=2,r=1"):
            v = oddkit.bessel_norm(damped, r, base)
            want = oddkit.matrix_norm(a, base)
            assert math.isclose(v, want, rel_tol=1e-12)


def test_quadrature_validation():
    with pytest.raises(ValueError):
        HypersingularQuadrature(0.0, 1)
    with pytest.raises(ValueError):
        HypersingularQuadrature(2.0, 1)
    with pytest.raises(ValueError):
        HypersingularQuadrature(0.5, 3)
    q = HypersingularQuadrature(0.5, 1)
    assert q.eps_grid[0] == 0.5 and q.eps_grid[-1] == 2.0**-12
    assert len(q.eps_grid) == 12


def test_multipliers_match_oracle_1d():
    for (r, j, m), want in MU_1D.items():
        q = HypersingularQuadrature(r, 1)
        idx = int(np.argmin(np.abs(np.asarray(q.eps_grid) - 2.0**-j)))
        got = float(q.multipliers(np.array([[m]]))[0, idx])
        assert math.isclose(got, want, rel_tol=1e-9)


def test_multipliers_match_oracle_2d():
    q = HypersingularQuadrature(0.5, 2)
    for (j, m), want in MU_2D.items():
        idx = int(np.argmin(np.abs(np.asarray(q.eps_grid) - 2.0**-j)))
        got = float(q.multipliers(np.array([m]))[0, idx])
        assert math.isclose(got, want, rel_tol=1e-9)


def test_multiplier_symmetries():
    q = HypersingularQuadrature(0.75, 1)
    table = q.multipliers(np.array([[0], [3], [-3]]))
    assert np.all(table[0] == 0.0)
    assert np.array_equal(table[1], table[2])
    # |mu| grows monotonically as the cutoff shrinks
    assert (np.diff(np.abs(table[1])) > 0).all()


def test_multipliers_2d_memory(monkeypatch):
    # the angular average is J0 in closed form: a d=2 row allocates
    # O(panels x nodes), with no angular axis; a fresh row table makes the
    # traced call compute its row instead of reading a shared one
    monkeypatch.setattr(HypersingularQuadrature, "_ROWS", {})
    q = HypersingularQuadrature(0.5, 2)
    q.multipliers([[1, 0]])  # imports scipy.special outside the trace
    tracemalloc.start()
    try:
        q.multipliers([[32, 32]])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _count_rows(monkeypatch):
    calls = []
    original = HypersingularQuadrature._mu_row

    def counting(self, freq):
        calls.append(freq)
        return original(self, freq)

    monkeypatch.setattr(HypersingularQuadrature, "_ROWS", {})
    monkeypatch.setattr(HypersingularQuadrature, "_mu_row", counting)
    return calls


def test_rows_shared_across_quadratures(monkeypatch):
    calls = _count_rows(monkeypatch)
    offs = oddkit.generate(oddkit.DecayModel("phase", 2.5, seed=1), 6, dim=2).offset_array()
    first = HypersingularQuadrature(0.5, 2).multipliers(offs)
    # one row per distinct |m|^2, not per offset
    assert len(calls) == len(np.unique((offs**2).sum(axis=1))) < len(offs)
    del calls[:]
    second = HypersingularQuadrature(0.5, 2).multipliers(offs)
    assert calls == []
    assert first.tobytes() == second.tobytes()


def test_row_keys_do_not_collide(monkeypatch):
    monkeypatch.setattr(HypersingularQuadrature, "_ROWS", {})
    rows = [
        HypersingularQuadrature(r, dim).multipliers([[3, 0][:dim]])[0]
        for r, dim in ((0.5, 1), (0.5, 2), (0.75, 1))
    ]
    for i in range(3):
        for j in range(i):
            assert not np.allclose(rows[i], rows[j])
    # the same |m|^2 = 9 read after the others still gives its own row
    again = HypersingularQuadrature(0.5, 1).multipliers([[-3]])[0]
    assert again.tobytes() == rows[0].tobytes()


def test_returned_table_is_a_copy():
    q = HypersingularQuadrature(0.5, 1)
    table = q.multipliers([[2], [-2]])
    want = table.copy()
    table[:] = 7.0
    assert q.multipliers([[2], [-2]]).tobytes() == want.tobytes()
    assert all(not row.flags.writeable for row in HypersingularQuadrature._ROWS.values())


def test_quadrature_failure_raises(monkeypatch):
    monkeypatch.setattr(bessel, "REL_TOL", 1e-15)
    monkeypatch.setattr(bessel, "MAX_NODES", 16)
    q = HypersingularQuadrature(0.5, 1)
    with pytest.raises(QuadratureError):
        q.multipliers(np.array([[7]]))


def test_hypersingular_norm_pinned():
    d = LatticeMatrix(1, 5, {(0,): np.full(11, 4.0)})
    assert oddkit.hypersingular_norm(d, 0.5, "jaffard:r=0") == 4.0
    u = single_diagonal(5, 1)
    got = oddkit.hypersingular_norm(u, 0.5, "op")
    assert math.isclose(got, 1.0 + 8.630876979400227, rel_tol=1e-9)
    with pytest.raises(ValueError):
        oddkit.hypersingular_norm(u, 2.5, "op")


def test_hypersingular_scaling_linearity():
    a = random_matrix(6, 4, density=0.6)
    q = HypersingularQuadrature(0.5, 1)
    v1 = oddkit.hypersingular_norm(a, 0.5, "jaffard:r=0", quad=q)
    v3 = oddkit.hypersingular_norm(3.0 * a, 0.5, "jaffard:r=0", quad=q)
    assert math.isclose(v3, 3.0 * v1, rel_tol=1e-12)


def test_hypersingular_profile_paths_agree():
    a = random_matrix(7, 4, density=0.6)
    q = HypersingularQuadrature(0.75, 1)
    eps, fast = oddkit.hypersingular_profile(a, 0.75, "jaffard:r=1", quad=q)
    _, slow = oddkit.hypersingular_profile(
        a, 0.75, lambda m: oddkit.jaffard_norm(m, 1.0), quad=q
    )
    assert np.allclose(fast, slow, rtol=1e-12)
    assert (np.diff(fast) > -1e-12).all()  # stabilizing in shrinking eps


def test_stabilization_warning_near_two():
    u = single_diagonal(4, 1)
    with pytest.warns(StabilizationWarning):
        oddkit.hypersingular_norm(u, 1.9, "jaffard:r=0")
    with warnings.catch_warnings():
        warnings.simplefilter("error", StabilizationWarning)
        oddkit.hypersingular_norm(u, 0.5, "jaffard:r=0")


def test_embedding_check_main_diagonal():
    d = LatticeMatrix(1, 5, {(0,): np.full(11, 2.0)})
    rep = oddkit.embedding_check(d, 0.5, "jaffard:r=0")
    # all three norms reduce to weighted copies of the base norm
    assert math.isclose(rep.bessel, 2.0, rel_tol=1e-14)
    assert math.isclose(rep.besov_p1, 2.0 * 2.0**-0.5, rel_tol=1e-14)
    assert math.isclose(rep.lower_ratio, 2.0**0.5, rel_tol=1e-13)
    assert math.isclose(rep.upper_ratio, 2.0**-0.5, rel_tol=1e-13)
    assert math.isclose(rep.hyp_ratio, 1.0, rel_tol=1e-13)


def test_embedding_check_corpus():
    q = HypersingularQuadrature(0.5, 1)
    for seed in range(3):
        a = oddkit.generate(oddkit.DecayModel("phase", 2.5, seed=seed), 10)
        rep = oddkit.embedding_check(a, 0.5, "jaffard:r=0", quad=q)
        for v in (rep.lower_ratio, rep.upper_ratio, rep.shift_ratio, rep.hyp_ratio):
            assert math.isfinite(v) and v > 0
    with pytest.raises(ValueError):
        oddkit.embedding_check(LatticeMatrix.zeros(1, 5), 0.5, "jaffard:r=0")


def test_multiplier_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(bessel, "LEVELS", 4)
    q = HypersingularQuadrature(0.5, 1)
    path = tmp_path / "mult.csv"
    write_multiplier_csv(q, np.array([[0], [2]]), path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m1", "eps", "re", "im"]
    assert len(rows) == 1 + 2 * 4
    assert all(row[3] == "0.0" for row in rows[1:])
    got = float(rows[1 + 4][2])  # first eps row of m = 2
    want = float(q.multipliers(np.array([[2]]))[0, 0])
    assert math.isclose(got, want, rel_tol=1e-15)


def test_d1_path_loads_no_scipy_special():
    # scipy.special (J0) is imported only when a d=2 multiplier row is built
    code = (
        "import sys, oddkit\n"
        "a = oddkit.generate(oddkit.DecayModel('phase', 2.5, seed=0), 6)\n"
        "oddkit.embedding_check(a, 0.5, 'jaffard:r=0')\n"
        "assert 'scipy.special' not in sys.modules, 'scipy.special loaded'\n"
    )
    src = os.path.dirname(os.path.dirname(oddkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path}
    )
