import math
import warnings

import numpy as np
import pytest

import oddkit
from oddkit import LatticeMatrix, NormSpec, ParameterDomainWarning, Weight
from oddkit.norms import envelope_separable, stack_norm

from conftest import (
    dense_cpr,
    dense_jaffard,
    dense_schur,
    offset_grid,
    random_matrix,
    single_diagonal,
)

# (1 + 4 pi^2)^(1/2) and 1 + 4 pi^2, frozen from independent evaluation
BESSEL_W1_AT_1 = 6.362265131567328
BESSEL_W2_AT_1 = 40.47841760435743


def test_weight_values():
    assert oddkit.polynomial_weight([[1]], 1.0)[0] == 2.0
    assert oddkit.polynomial_weight([[3, 4]], 2.0)[0] == 36.0  # (1+5)^2
    assert math.isclose(oddkit.bessel_weight([[1]], 1.0)[0], BESSEL_W1_AT_1, rel_tol=1e-15)
    assert math.isclose(oddkit.bessel_weight([[1]], 2.0)[0], BESSEL_W2_AT_1, rel_tol=1e-15)
    w = Weight("bessel", 1.0)
    assert math.isclose(w(np.array([[1]]))[0], BESSEL_W1_AT_1, rel_tol=1e-15)
    with pytest.raises(ValueError):
        Weight("gauss", 1.0)


def test_op_norm_basic():
    assert oddkit.op_norm_l2(LatticeMatrix.identity(1, 4)) == 1.0
    assert oddkit.op_norm_l2(LatticeMatrix.zeros(1, 4)) == 0.0
    # a single full side diagonal acts as a (scaled) shift
    u = single_diagonal(4, 1, value=-2.0 + 1.5j)
    assert math.isclose(oddkit.op_norm_l2(u), abs(-2.0 + 1.5j), rel_tol=1e-12)


def test_op_norm_matches_svd():
    for dim, w in ((1, 5), (2, 2)):
        a = random_matrix(100 + dim, w, dim=dim)
        want = float(np.linalg.svd(a.to_dense(), compute_uv=False)[0])
        assert math.isclose(oddkit.op_norm_l2(a), want, rel_tol=1e-12)


def test_op_norm_iterative_path():
    # d=2 window 23 has 47^2 = 2209 > 2048 rows, so this exercises the
    # matrix-free branch; shift and diagonal matrices have exact norms
    u = single_diagonal(23, (1, 0), value=1.0 - 2.0j, dim=2)
    assert math.isclose(oddkit.op_norm_l2(u), abs(1.0 - 2.0j), rel_tol=1e-9)
    rng = np.random.default_rng(3)
    vals = rng.random((47, 47)) + 1j * rng.random((47, 47))
    a = LatticeMatrix(2, 23, {(0, 0): vals})
    assert math.isclose(oddkit.op_norm_l2(a), float(np.abs(vals).max()), rel_tol=1e-9)


def test_jaffard_pinned_values():
    assert oddkit.jaffard_norm(LatticeMatrix.identity(1, 4), 3.0) == 1.0
    assert oddkit.jaffard_norm(single_diagonal(4, 1), 2.0) == 4.0
    # weight cancels the envelope exactly
    w = 4
    diff = offset_grid(1, w)[..., 0]
    a = LatticeMatrix.from_dense((1.0 + np.abs(diff)) ** -1.5, window=w)
    assert math.isclose(oddkit.jaffard_norm(a, 1.5), 1.0, rel_tol=1e-12)


def test_jaffard_matches_dense():
    for dim, w in ((1, 4), (2, 2)):
        a = random_matrix(110 + dim, w, dim=dim, density=0.7)
        diff = offset_grid(dim, w)
        for r in (0.0, 1.0, 2.5):
            assert math.isclose(
                oddkit.jaffard_norm(a, r), dense_jaffard(a.to_dense(), diff, r),
                rel_tol=1e-12,
            )


def test_schur_pinned_values():
    assert oddkit.schur_norm(LatticeMatrix.identity(1, 4), 1, 0.0) == 1.0
    a = LatticeMatrix.identity(1, 4) + single_diagonal(4, 1)
    assert math.isclose(oddkit.schur_norm(a, 1, 0.0), 2.0, rel_tol=1e-14)
    assert math.isclose(oddkit.schur_norm(single_diagonal(4, 1), 1, 1.0), 2.0, rel_tol=1e-14)


def test_schur_matches_dense():
    for dim, w in ((1, 4), (2, 2)):
        a = random_matrix(120 + dim, w, dim=dim, density=0.8)
        diff = offset_grid(dim, w)
        for p, r in ((1, 0.5), (2, 1.0), (math.inf, 2.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ParameterDomainWarning)
                got = oddkit.schur_norm(a, p, r)
            assert math.isclose(got, dense_schur(a.to_dense(), diff, p, r), rel_tol=1e-12)


def test_cpr_pinned_values():
    assert oddkit.cpr_norm(LatticeMatrix.identity(1, 4), 2, 1.0) == 1.0
    a = LatticeMatrix.identity(1, 4) + single_diagonal(4, 1)
    assert math.isclose(oddkit.cpr_norm(a, 1, 0.0), 2.0, rel_tol=1e-14)


def test_cpr_inf_is_jaffard():
    a = random_matrix(130, 4, density=0.7)
    for r in (0.0, 1.5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParameterDomainWarning)
            got = oddkit.cpr_norm(a, math.inf, r)
        assert math.isclose(got, oddkit.jaffard_norm(a, r), rel_tol=1e-14)


def test_cpr_matches_scalar_oracle():
    a = random_matrix(131, 3, density=0.8)
    for p, r, lit in ((1, 0.0, False), (2, 1.0, False), (1, 0.0, True), (2, 1.0, True)):
        got = oddkit.cpr_norm(a, p, r, literal=lit)
        assert math.isclose(got, dense_cpr(a, p, r, literal=lit), rel_tol=1e-12)


def test_weighted_norm():
    a = random_matrix(140, 4)
    base = NormSpec("jaffard", r=0.0)
    assert math.isclose(
        oddkit.weighted_norm(a, base, Weight("poly", 0.0)),
        oddkit.jaffard_norm(a, 0.0),
        rel_tol=1e-14,
    )
    assert math.isclose(
        oddkit.weighted_norm(a, base, Weight("poly", 1.5)),
        oddkit.jaffard_norm(a, 1.5),
        rel_tol=1e-13,
    )
    got = oddkit.weighted_norm(single_diagonal(4, 1), base, Weight("bessel", 1.0))
    assert math.isclose(got, BESSEL_W1_AT_1, rel_tol=1e-13)
    with pytest.raises(ValueError):
        oddkit.weighted_norm(a, NormSpec("op"), Weight("poly", 1.0))


def test_weighted_norm_callable_base():
    a = random_matrix(141, 3)
    got = oddkit.weighted_norm(a, lambda m: oddkit.jaffard_norm(m, 0.0), Weight("poly", 2.0))
    assert math.isclose(got, oddkit.jaffard_norm(a, 2.0), rel_tol=1e-12)


def test_solidity_randomized():
    rng = np.random.default_rng(7)
    specs = [
        NormSpec("jaffard", r=1.0),
        NormSpec("schur", p=1, r=0.0),
        NormSpec("schur", p=2, r=1.0),
        NormSpec("cpr", p=1, r=0.0),
        NormSpec("cpr", p=2, r=1.5, literal=True),
        NormSpec("jaffard", r=0.0, weight=Weight("bessel", 1.0)),
    ]
    for seed in range(3):
        a = random_matrix(150 + seed, 3)
        dominated = LatticeMatrix(
            1, 3, {off: arr * rng.random(arr.shape) for off, arr in a.diagonals()}
        )
        for spec in specs:
            assert oddkit.matrix_norm(dominated, spec) <= oddkit.matrix_norm(a, spec)


def test_modulate_isometry_all_solid():
    a = random_matrix(160, 3)
    specs = ["jaffard:r=2", "schur:p=1,r=0", "cpr:p=2,r=1.5", "w[bessel:r=1]jaffard:r=0"]
    for t in (0.17, 0.5, 0.93):
        b = oddkit.modulate(a, t)
        for s in specs:
            assert math.isclose(
                oddkit.matrix_norm(b, s), oddkit.matrix_norm(a, s), rel_tol=1e-13
            )


def test_parameter_domain_warning():
    a = random_matrix(170, 3)
    with pytest.warns(ParameterDomainWarning):
        oddkit.schur_norm(a, 2, 0.25)  # needs r > 1 - 1/2
    with pytest.warns(ParameterDomainWarning):
        oddkit.cpr_norm(a, math.inf, 0.5)  # p=inf needs r > d
    with warnings.catch_warnings():
        warnings.simplefilter("error", ParameterDomainWarning)
        oddkit.schur_norm(a, 1, 0.0)
        oddkit.cpr_norm(a, 2, 1.5)


SEPARABLE_SPECS = ("jaffard:r=1.5", "cpr:p=2,r=1", "schur:p=inf,r=0.5", "w[bessel:r=1]cpr:p=1,r=0")


def _check_stack_norm(a):
    offs, env = a.envelope()
    gen = np.random.default_rng(7)
    m = offs.shape[0]
    stack = gen.standard_normal((5, m)) + 1j * gen.standard_normal((5, m))
    stack[1] = 1.0
    stack[2] = 0.0
    stack[3, : m // 2] = 0.0
    for text in SEPARABLE_SPECS:
        spec = oddkit.parse_norm_spec(text)
        assert envelope_separable(spec)
        got = stack_norm(spec, offs, env, stack)
        assert got.shape == (5,)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParameterDomainWarning)
            want = [oddkit.matrix_norm(a.scale_diagonals(lambda _o, f=f: f), spec) for f in stack]
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-13)
        assert math.isclose(stack_norm(spec, offs, env, stack, sup=True), max(want), rel_tol=1e-13)
        # a stack of envelopes gives one row of values per envelope
        both = stack_norm(spec, offs, np.stack([env, 2.0 * env]), stack)
        assert both.shape == (2, 5)
        assert np.allclose(both[1], 2.0 * got, rtol=1e-13, atol=0.0)


def test_stack_norm_matches_matrix_norm():
    for dim, window in ((1, 6), (2, 3)):
        _check_stack_norm(random_matrix(180, window, dim=dim, density=0.6))


def test_stack_norm_stacks_and_refusals():
    # cpr p=1, r=1 on offsets 0 and 1: weights (1, 2)
    spec = oddkit.parse_norm_spec("cpr:p=1,r=1")
    offs = np.array([[0], [1]])
    out = stack_norm(spec, offs, np.ones(2), np.array([[1.0, 1.0], [0.5, 2.0]]))
    assert np.array_equal(out, [3.0, 4.5])
    # sup-type: the max over the stack equals the stacked max bit for bit
    a = random_matrix(181, 8, density=0.7)
    offs, env = a.envelope()
    stack = np.abs(np.random.default_rng(3).standard_normal((9, offs.shape[0])))
    for text in ("jaffard:r=0.5", "schur:p=inf,r=0", "cpr:p=inf,r=2,literal=true"):
        spec = oddkit.parse_norm_spec(text)
        assert stack_norm(spec, offs, env, stack, sup=True) == stack_norm(spec, offs, env, stack).max()
    for text in ("schur:p=2,r=1", "schur:p=1,r=0", "cpr:p=1,r=0,literal=true", "op"):
        spec = oddkit.parse_norm_spec(text)
        assert not envelope_separable(spec)
        with pytest.raises(ValueError):
            stack_norm(spec, offs, env, stack)
    assert not envelope_separable(None)


def test_grammar_round_trip():
    texts = [
        "op",
        "jaffard:r=2.0",
        "schur:p=1.0,r=0.0",
        "cpr:p=2.0,r=1.5",
        "cpr:p=1.0,r=0.5,literal=true",
        "w[bessel:r=1.0]jaffard:r=0.0",
        "w[poly:r=2.0]schur:p=inf,r=0.0",
    ]
    for text in texts:
        spec = oddkit.parse_norm_spec(text)
        assert oddkit.format_norm_spec(spec) == text
        assert oddkit.parse_norm_spec(oddkit.format_norm_spec(spec)) == spec


def test_grammar_accepts_aliases_and_rejects_junk():
    assert oddkit.parse_norm_spec("w[polynomial:r=1]jaffard:r=0").weight.kind == "poly"
    assert oddkit.parse_norm_spec("schur:p=inf,r=2").p == math.inf
    for bad in ("fro", "jaffard:q=2", "schur:p", "w[bessel:r=1", "w[box:r=1]op", "jaffard:r=-1"):
        with pytest.raises(ValueError):
            oddkit.parse_norm_spec(bad)


def test_matrix_norm_dispatch():
    a = random_matrix(190, 3)
    assert math.isclose(
        oddkit.matrix_norm(a, "jaffard:r=1.0"), oddkit.jaffard_norm(a, 1.0), rel_tol=1e-14
    )
    assert math.isclose(
        oddkit.matrix_norm(a, lambda m: 3.0), 3.0, rel_tol=1e-14
    )
    assert math.isclose(oddkit.matrix_norm(a, NormSpec("op")), oddkit.op_norm_l2(a), rel_tol=1e-12)


def test_nan_parameters_refused():
    with pytest.raises(ValueError):
        NormSpec("jaffard", r=float("nan"))
    with pytest.raises(ValueError):
        NormSpec("schur", p=float("nan"))
    for bad in (float("nan"), math.inf, -math.inf):
        with pytest.raises(ValueError):
            Weight("poly", bad)
    for text in ("jaffard:r=nan", "cpr:p=2,r=nan", "w[bessel:r=nan]jaffard:r=0"):
        with pytest.raises(ValueError):
            oddkit.parse_norm_spec(text)


def _matrix_free_case():
    # 47^2 = 2209 rows, so op_norm_l2 takes the ARPACK branch; a diagonal
    # matrix with one dominant entry has that entry's modulus as its norm
    rng = np.random.default_rng(5)
    vals = 0.5 * rng.random((47, 47)) + 0j
    vals[10, 20] = 1.0 - 2.0j
    return LatticeMatrix(2, 23, {(0, 0): vals}), abs(1.0 - 2.0j)


def test_op_norm_arpack_failure_falls_back(monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr("scipy.sparse.linalg.svds", no_convergence)
    a, want = _matrix_free_case()
    assert math.isclose(oddkit.op_norm_l2(a), want, rel_tol=1e-9)


def test_op_norm_other_errors_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not an ARPACK failure")

    monkeypatch.setattr("scipy.sparse.linalg.svds", broken)
    a, _ = _matrix_free_case()
    with pytest.raises(TypeError):
        oddkit.op_norm_l2(a)


def test_diag_matvec_matches_dense():
    from oddkit.norms import _diag_matvec

    for dim, w in ((1, 4), (2, 2)):
        a = random_matrix(83 + dim, w, dim=dim, density=0.6)
        x = np.random.default_rng(dim).standard_normal(a.n_rows) + 0j
        dense = a.to_dense()
        assert np.allclose(_diag_matvec(a, x), dense @ x, rtol=1e-13, atol=1e-13)
        assert np.allclose(_diag_matvec(a, x, conj=True), dense.conj().T @ x, rtol=1e-13, atol=1e-13)
