import math
import warnings

import numpy as np
import pytest

import oddkit
from oddkit import LatticeMatrix, NormSpec, ParameterDomainWarning, Weight, norms
from oddkit.norms import (
    _dense_singular_extremes,
    _diag_matvec,
    _diagonal_separable,
    _diagonal_values,
    _line_sums,
    _product_operator,
    _stack_norm,
    _stack_values,
)

from conftest import (
    coo_operator,
    dense_cpr,
    dense_jaffard,
    dense_poly_weight,
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
    cases = [random_matrix(100 + dim, w, dim=dim) for dim, w in ((1, 5), (2, 2))]
    for kind in ("det", "phase", "mag"):
        for dim, w in ((1, 64), (2, 4)):
            cases.append(oddkit.generate(oddkit.DecayModel(kind, 2.0, seed=11), w, dim=dim))
    for a in cases:
        want = float(np.linalg.svd(a.to_dense(), compute_uv=False)[0])
        assert math.isclose(oddkit.op_norm_l2(a), want, rel_tol=1e-12)


def _hermitian(shift=0.0):
    """A random complex Hermitian 33 x 33 matrix plus shift * I: kappa 27
    unshifted, 4.6 at shift 30."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
    return x + x.conj().T + shift * np.eye(33)


def _no_last_column():
    a = np.random.default_rng(7).standard_normal((17, 17)).astype(complex)
    a[:, -1] = 0.0
    return a


def _section(kind, window=16, margin=2.0):
    model = oddkit.DecayModel(kind, 2.5, seed=3)
    return oddkit.make_invertible(oddkit.generate(model, window), margin=margin).to_dense()


# name -> (path, builder); the paths of _dense_singular_extremes are
# "symmetric" (eigvalsh of the real section itself), "gram" (eigvalsh of A*A,
# s_min certified by GRAM_GATE) and "gram+svd" (s_min from the SVD)
EXTREMES_CASES = {
    "det": ("symmetric", lambda: _section("det")),
    "singular-symmetric": ("symmetric", lambda: np.ones((17, 17), dtype=complex)),
    "1x1-real": ("symmetric", lambda: np.array([[-2.5 + 0j]])),
    "mag": ("gram", lambda: _section("mag")),
    "phase": ("gram", lambda: _section("phase")),
    "complex-hermitian": ("gram", lambda: _hermitian(30.0)),
    "1x1-complex": ("gram", lambda: np.array([[3.0 - 4.0j]])),
    # kappa 5-9 on phase (margins near 1); mag stays near kappa 2 at any margin
    **{
        f"{kind}-W{w}-margin{m}": ("gram", lambda k=kind, w=w, m=m: _section(k, w, m))
        for kind in ("phase", "mag")
        for w, m in ((32, 1.05), (128, 1.1), (256, 1.23))
    },
    "complex-hermitian-kappa27": ("gram+svd", _hermitian),
    "singular": ("gram+svd", _no_last_column),
}


@pytest.mark.parametrize("case", list(EXTREMES_CASES))
def test_dense_singular_extremes_match_complex_svd(case, monkeypatch):
    path, build = EXTREMES_CASES[case]
    dense = build()
    want = np.linalg.svd(dense, compute_uv=False)
    calls, of_section = [], []
    for name in ("eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            if _name == "eigvalsh":
                of_section.append(args[0].shape == dense.shape and np.array_equal(args[0], dense))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    s_max, s_min = _dense_singular_extremes(dense)
    assert calls == (["eigvalsh", "svd"] if path == "gram+svd" else ["eigvalsh"])
    assert of_section == [path == "symmetric"]
    assert math.isclose(s_max, want[0], rel_tol=1e-13)
    if case.startswith("singular"):
        assert s_min <= 1e-13 * s_max and want[-1] <= 1e-13 * want[0]
    else:
        assert math.isclose(s_min, want[-1], rel_tol=1e-13)
        kappa = want[0] / want[-1]
        assert (kappa <= 10.0) == (path != "gram+svd")
        if case.startswith("phase-"):
            assert 5.0 <= kappa <= 9.0


def test_op_norm_dense_branch_takes_no_svd(monkeypatch):
    # singular and not symmetric, far outside GRAM_GATE: the op norm needs
    # s_max only, which the Gram eigenvalues always give
    a = LatticeMatrix.from_dense(_no_last_column(), window=8)
    want = float(np.linalg.svd(a.to_dense(), compute_uv=False)[0])

    def no_svd(*args, **kwargs):
        raise AssertionError("op_norm_l2 reached the SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert math.isclose(oddkit.op_norm_l2(a), want, rel_tol=1e-13)


def test_dense_singular_extremes_symmetry_test_is_exact():
    # one ulp off symmetric, or a symmetric real part under a nonzero
    # imaginary part, takes the SVD
    h = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
    for at, bump in (((0, 1), np.spacing(1.0)), ((0, 0), 1j)):
        a = h.copy()
        a[at] += bump
        want = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(_dense_singular_extremes(a), (want[0], want[-1]), rtol=1e-13, atol=0)


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


def test_family_functions_refuse_what_norm_spec_refuses():
    a = random_matrix(132, 3)
    for p, r in ((0.5, 0.0), (math.nan, 0.0), (2.0, -1.0), (2.0, math.nan)):
        for fn in (oddkit.schur_norm, oddkit.cpr_norm):
            with pytest.raises(ValueError):
                fn(a, p, r)
    for r in (-1.0, math.nan):
        with pytest.raises(ValueError):
            oddkit.jaffard_norm(a, r)


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


def test_weighted_norm_on_weighted_base():
    # the base's own weight and the extra weight both apply
    for dim, w in ((1, 4), (2, 2)):
        a = random_matrix(142 + dim, w, dim=dim, density=0.8)
        diff = offset_grid(dim, w)
        bessel = (1.0 + 4.0 * np.pi**2 * (diff.astype(float) ** 2).sum(axis=-1)) ** 0.5
        got = oddkit.weighted_norm(a, "w[bessel:r=1]jaffard:r=0", Weight("poly", 1.5))
        want = dense_jaffard(bessel * a.to_dense(), diff, 1.5)
        assert math.isclose(got, want, rel_tol=1e-13)


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


SEPARABLE_SPECS = (
    "jaffard:r=1.5",
    "cpr:p=2,r=1",
    "schur:p=inf,r=0.5",
    "w[bessel:r=1]cpr:p=1,r=0",
    "cpr:p=1,r=0,literal=true",
    "w[poly:r=1]cpr:p=2,r=0.5,literal=true",
)


def _dense_oracle(a, spec, f):
    """spec of F . A from the conftest oracles, the spec's own weight folded
    into the multiplier."""
    scaled = a.scale_diagonals(
        lambda o: f if spec.weight is None else f * spec.weight(o)
    )
    if spec.kind == "cpr":
        return dense_cpr(scaled, spec.p, spec.r, literal=spec.literal)
    diff = offset_grid(a.dim, a.window)
    if spec.kind == "jaffard":
        return dense_jaffard(scaled.to_dense(), diff, spec.r)
    return dense_schur(scaled.to_dense(), diff, spec.p, spec.r)


def _check_stack_norm(a):
    gen = np.random.default_rng(7)
    m = a.offset_array().shape[0]
    stack = gen.standard_normal((5, m)) + 1j * gen.standard_normal((5, m))
    stack[1] = 1.0
    stack[2] = 0.0
    stack[3, : m // 2] = 0.0
    for text in SEPARABLE_SPECS:
        spec = oddkit.parse_norm_spec(text)
        assert _diagonal_separable(spec)
        offs, vals = _diagonal_values(a, spec)
        assert np.array_equal(offs, a.offset_array())
        got = _stack_norm(spec, offs, vals, stack)
        assert got.shape == (5,)
        want = [_dense_oracle(a, spec, f) for f in stack]
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-13, abs_tol=0.0)
        # the plain max over the stack is the single outer row g = 1
        assert math.isclose(_stack_values(a, spec, stack, np.ones(m)), max(want), rel_tol=1e-13)
        # a stack of value rows gives one row of norms per value row
        both = _stack_norm(spec, offs, np.stack([vals, 2.0 * vals]), stack)
        assert both.shape == (2, 5)
        assert np.allclose(both[1], 2.0 * got, rtol=1e-13, atol=0.0)
        # the family functions are the F = 1 row
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParameterDomainWarning)
            assert oddkit.matrix_norm(a, spec) == float(_stack_norm(spec, offs, vals, stack[1:2])[0])


def test_stack_norm_matches_dense_oracles():
    for dim, window in ((1, 6), (2, 3)):
        _check_stack_norm(random_matrix(180, window, dim=dim, density=0.6))


def test_diagonal_values():
    a = random_matrix(182, 5, density=0.7)
    offs, env = a.envelope()
    for text in ("jaffard:r=1", "schur:p=inf,r=0", "cpr:p=2,r=1", "cpr:p=inf,r=1,literal=true"):
        got_offs, got = _diagonal_values(a, oddkit.parse_norm_spec(text))
        assert np.array_equal(got_offs, offs) and np.array_equal(got, env)
    # literal cpr at p < inf reads the l^p norm of each diagonal
    _, got = _diagonal_values(a, oddkit.parse_norm_spec("cpr:p=3,r=0,literal=true"))
    want = [(np.abs(arr) ** 3).sum() ** (1 / 3) for _, arr in a.diagonals()]
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def test_stack_norm_stacks_and_refusals():
    # cpr p=1, r=1 on offsets 0 and 1: weights (1, 2)
    spec = oddkit.parse_norm_spec("cpr:p=1,r=1")
    offs = np.array([[0], [1]])
    out = _stack_norm(spec, offs, np.ones(2), np.array([[1.0, 1.0], [0.5, 2.0]]))
    assert np.array_equal(out, [3.0, 4.5])
    # sup-type: the max over the stack under the outer row g = 1 equals the
    # stacked max bit for bit
    a = random_matrix(181, 8, density=0.7)
    offs, env = a.envelope()
    stack = np.abs(np.random.default_rng(3).standard_normal((9, offs.shape[0])))
    for text in ("jaffard:r=0.5", "schur:p=inf,r=0", "cpr:p=inf,r=2,literal=true"):
        spec = oddkit.parse_norm_spec(text)
        ones = np.ones(offs.shape[0])
        assert _stack_values(a, spec, stack, ones) == _stack_values(a, spec, stack).max()
    for text in ("schur:p=2,r=1", "schur:p=1,r=0", "op"):
        spec = oddkit.parse_norm_spec(text)
        assert not _diagonal_separable(spec)
        with pytest.raises(ValueError):
            _stack_norm(spec, offs, env, stack)
    assert not _diagonal_separable(None)


LINE_SUM_SPECS = ("schur:p=1,r=0", "schur:p=1.5,r=1", "schur:p=2,r=1.5", "w[bessel:r=1]schur:p=2,r=0")


def _line_sum_stacks(m):
    """Multiplier stacks of 1, 2 and 64 rows over m diagonals, with rows
    that are all zero or zero on some diagonals."""
    gen = np.random.default_rng(11)
    big = gen.standard_normal((64, m)) + 1j * gen.standard_normal((64, m))
    big[1] = 0.0
    big[2, ::3] = 0.0
    big[3] = 1.0
    return big[3:4], big[:2], big


@pytest.mark.parametrize("dim,window", [(1, 6), (2, 3)])
def test_line_sums_match_scaled_matrix_oracle(dim, window):
    # the per-row callable loop scales one matrix per row and reads its
    # Schur norm; the line sums take the whole stack at once
    a = random_matrix(190 + dim, window, dim=dim, density=0.7)
    for text in LINE_SUM_SPECS:
        spec = oddkit.parse_norm_spec(text)
        assert not _diagonal_separable(spec)
        oracle = lambda x, spec=spec: oddkit.matrix_norm(x, spec)  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParameterDomainWarning)
            for stack in _line_sum_stacks(a.offset_array().shape[0]):
                got = _stack_values(a, spec, stack)
                want = _stack_values(a, oracle, stack)
                assert got.shape == want.shape == (stack.shape[0],)
                assert np.allclose(got, want, rtol=1e-12, atol=0.0), (text, stack.shape)
                assert math.isclose(
                    _stack_values(a, spec, stack, outer=np.ones(stack.shape[1])),
                    want.max(),
                    rel_tol=1e-12,
                )
                sums = _line_sums(a, spec, stack)
                assert np.allclose(sums ** (1.0 / spec.p), want, rtol=1e-12, atol=0.0)
    # the zero matrix, and a zero row, give 0
    zero = LatticeMatrix.zeros(dim, window)
    spec = oddkit.parse_norm_spec("schur:p=2,r=1.5")
    for k in (1, 2, 64):
        assert np.array_equal(_stack_values(zero, spec, np.ones((k, 0))), np.zeros(k))
    assert _stack_values(a, spec, _line_sum_stacks(a.offset_array().shape[0])[1])[1] == 0.0


OUTER_SPECS = (
    "jaffard:r=1",
    "w[bessel:r=1]jaffard:r=0",
    "cpr:p=2,r=1",
    "cpr:p=2,r=0.5,literal=true",
    "schur:p=1,r=0",
    "schur:p=1.5,r=1",
    "schur:p=2,r=1.5",
)


def _outer_stacks(m):
    """An inner stack F of 4 complex rows and a (2, 3, m) stack of
    non-negative outer rows g, one of them all zero and one zero on some
    diagonals."""
    gen = np.random.default_rng(13)
    inner = gen.standard_normal((4, m)) + 1j * gen.standard_normal((4, m))
    outer = np.abs(gen.standard_normal((2, 3, m)))
    outer[0, 1] = 0.0
    outer[1, 2, ::2] = 0.0
    return inner, outer


@pytest.mark.parametrize("dim,window", [(1, 6), (2, 3)])
def test_stack_values_outer_rows_match_pair_oracle(dim, window):
    # max_k base(g F_k . A) for every outer row g against one scaled matrix
    # per (g, F_k) pair, and the callable path against that explicit loop
    a = random_matrix(195 + dim, window, dim=dim, density=0.7)
    inner, outer = _outer_stacks(a.offset_array().shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterDomainWarning)
        for text in OUTER_SPECS:
            spec = oddkit.parse_norm_spec(text)
            want = np.array([
                [
                    max(oddkit.matrix_norm(a.scale_diagonals(lambda _o, x=g * f: x), spec)
                        for f in inner)
                    for g in row
                ]
                for row in outer
            ])
            oracle = lambda x, spec=spec: oddkit.matrix_norm(x, spec)  # noqa: E731
            assert np.array_equal(_stack_values(a, oracle, inner, outer), want)
            got = _stack_values(a, spec, inner, outer)
            assert got.shape == (2, 3)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0), text
            assert got[0, 1] == 0.0
            # one outer row g gives a scalar, and no outer row an empty result
            one = _stack_values(a, spec, inner, outer[1, 0])
            assert np.shape(one) == () and math.isclose(one, want[1, 0], rel_tol=1e-12)
            assert _stack_values(a, spec, inner, outer[:0, 0]).shape == (0,)


def test_stack_values_outer_rows_schur_chunks(monkeypatch):
    # products g F of one outer row at a time, in tables of a few diagonals,
    # give the values of one pass over all of them
    a = random_matrix(197, 3, dim=2, density=0.8)
    inner, outer = _outer_stacks(a.offset_array().shape[0])
    for text in ("schur:p=1,r=0", "schur:p=1.5,r=1"):
        spec = oddkit.parse_norm_spec(text)
        whole = _stack_values(a, spec, inner, outer)
        monkeypatch.setattr(oddkit.lattice, "_BLOCK_BYTES", 8 * a.n_rows * 5)
        assert np.allclose(_stack_values(a, spec, inner, outer), whole, rtol=1e-13, atol=0.0)
        monkeypatch.undo()


def test_stack_values_outer_rows_zero_matrix():
    for dim in (1, 2):
        zero = LatticeMatrix.zeros(dim, 3)
        for text in OUTER_SPECS:
            spec = oddkit.parse_norm_spec(text)
            got = _stack_values(zero, spec, np.ones((4, 0)), np.ones((3, 0)))
            assert np.array_equal(got, np.zeros(3)), text


def test_line_sums_match_dense_weighted_sums():
    # sum_l |A(k, l)|^1.5 f(k - l)^1.5 along every row and column, f any
    # per-diagonal multiplier, from the dense matrix
    a = random_matrix(81, 3, density=0.5)
    diff = offset_grid(1, 3)[..., 0]
    f = 1.0 + np.abs(a.offset_array()[:, 0]) / 2.0
    weighted = np.abs(a.to_dense()) ** 1.5 * (1.0 + np.abs(diff) / 2.0) ** 1.5
    want = max(weighted.sum(axis=1).max(), weighted.sum(axis=0).max())
    spec = NormSpec("schur", p=1.5)
    got = _line_sums(a, spec, f[None])
    assert got.shape == (1,) and math.isclose(got[0], want, rel_tol=1e-13)
    stacked = _line_sums(a, spec, np.stack([f, 2.0 * f]))
    assert np.allclose(stacked, [want, 2.0**1.5 * want], rtol=1e-13, atol=0.0)


def test_line_sums_blocks_of_diagonals(monkeypatch):
    # one block, and blocks of one, two or five diagonals, give the dense
    # line sums of one and of 64 multiplier rows: the bincount of one row
    # and the tables of more rows alike
    a = random_matrix(192, 3, dim=2, density=0.8)
    spec = oddkit.parse_norm_spec("schur:p=1.5,r=1")
    offs = a.offset_array()
    diff = offset_grid(2, 3)
    at = np.full(diff.shape[:2], offs.shape[0])  # past the stored offsets: factor 0
    for i, off in enumerate(offs):
        at[(diff == off).all(axis=-1)] = i
    big = _line_sum_stacks(offs.shape[0])[2]
    mags = np.abs(a.to_dense()) * dense_poly_weight(diff, spec.r)
    for k in (1, 64):
        stack = big[:k]
        factor = np.abs(np.concatenate([stack, np.zeros((k, 1))], axis=1))[:, at]
        powed = (mags * factor) ** spec.p
        want = np.maximum(powed.sum(axis=2).max(axis=1), powed.sum(axis=1).max(axis=1))
        for width in (None, 1, 2, 5):
            if width is not None:
                monkeypatch.setattr(oddkit.lattice, "_BLOCK_BYTES", 8 * a.n_rows * width)
            got = _line_sums(a, spec, stack)
            assert got.shape == (k,)
            assert np.allclose(got, want, rtol=1e-13, atol=0.0), (k, width)
        monkeypatch.undo()


@pytest.mark.memory
def test_line_sums_memory_bounded_d2():
    import tracemalloc

    # d=2 W=16: 1089 lines and 4225 diagonals.  The whole (diagonals x
    # lines) table is 37 MB and the coordinates of every entry 9.5 MB; a
    # block's table stays under lattice._BLOCK_BYTES (4 MB), and the stack and
    # its weighted powers are 2.2 MB each.  This call peaks at 17.2 MB.
    a = oddkit.corpus(3, 16, count=1, dim=2)[0]
    stack = np.abs(np.random.default_rng(5).standard_normal((64, a.offset_array().shape[0])))
    spec = oddkit.parse_norm_spec("schur:p=2,r=1.5")
    tracemalloc.start()
    try:
        _stack_values(a, spec, stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@pytest.mark.memory
def test_schur_norm_memory_d2():
    import tracemalloc

    # one row adds each block's weighted |a|^p with bincount; at d=2 W=24
    # (5.8M stored entries, 44 blocks) the temporaries of one block stay
    # within three block budgets (12 MB), where one pass over the whole
    # buffer peaked at 132.16 MB
    a = oddkit.corpus(3, 24, count=1, dim=2)[0]
    tracemalloc.start()
    try:
        oddkit.schur_norm(a, 1, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * oddkit.lattice._BLOCK_BYTES, peak / 2**20


def test_product_operator_blocks_match_dense(monkeypatch):
    # blocks of one or two diagonals scatter the dense operator with the
    # bits of the dense section, in float64 for a real section
    for dim, w in ((1, 4), (2, 2)):
        a = random_matrix(220 + dim, w, dim=dim, density=0.7)
        real = LatticeMatrix.from_dense(a.to_dense().real, dim=dim)
        monkeypatch.setattr(oddkit.lattice, "_CACHED_LAYOUT_ENTRIES", 0)
        for width in (1, 2):
            monkeypatch.setattr(oddkit.lattice, "_BLOCK_BYTES", 8 * a.n_rows * width)
            for b, dtype in ((a, np.complex128), (real, np.float64)):
                op = _product_operator(b)
                assert type(op) is np.ndarray and op.dtype == dtype
                assert np.array_equal(op, b.to_dense())
        monkeypatch.undo()


@pytest.mark.memory
def test_product_operator_memory_d2():
    import tracemalloc

    # the dense operator of a full real d=2 W=24 section (2401 rows) is
    # scattered block by block into the 44 MB float64 section; the
    # coordinates of the whole buffer took 44 MB more
    a = oddkit.generate(oddkit.DecayModel("mag", 2.5, seed=7), 24, dim=2)
    tracemalloc.start()
    try:
        op = _product_operator(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.dtype == np.float64
    assert peak <= op.nbytes + 2 * oddkit.lattice._BLOCK_BYTES, (peak - op.nbytes) / 2**20


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
    assert oddkit.parse_norm_spec("cpr:p=2,literal=YES").literal
    assert oddkit.parse_norm_spec("cpr:p=2,literal=on").literal
    assert not oddkit.parse_norm_spec("cpr:p=2,literal=0").literal
    for bad in (
        "fro",
        "jaffard:q=2",
        "schur:p",
        "w[bessel:r=1",
        "w[box:r=1]op",
        "jaffard:r=-1",
        "jaffard:r=inf",
        "jaffard:r=1,r=2",
        "schur:p=1,p=2",
        "w[bessel:r=1,r=2]jaffard:r=0",
        "cpr:p=2,literal=ture",
        "cpr:p=2,literal=",
        "jaffard:r=1,",
        "schur:p=1,r=0]",
        "op:r=0",
    ):
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
    # a base that is no string, NormSpec or callable is refused, also by
    # the evaluators that take a base norm
    for call in (
        lambda: oddkit.matrix_norm(a, 2.0),
        lambda: oddkit.besov_norm_solid_lp(a, 2.0, 1.0),
        lambda: oddkit.modulus(a, None, 0.5),
        lambda: oddkit.approx_error(a, 1, 2.0),
    ):
        with pytest.raises(TypeError):
            call()


def test_nan_parameters_refused():
    with pytest.raises(ValueError):
        NormSpec("jaffard", r=float("nan"))
    with pytest.raises(ValueError):
        NormSpec("schur", p=float("nan"))
    with pytest.raises(ValueError):
        NormSpec("jaffard", r=math.inf)
    for bad in (float("nan"), math.inf, -math.inf):
        with pytest.raises(ValueError):
            Weight("poly", bad)
    for text in ("jaffard:r=nan", "cpr:p=2,r=nan", "w[bessel:r=nan]jaffard:r=0"):
        with pytest.raises(ValueError):
            oddkit.parse_norm_spec(text)


def _matrix_free_case(dominant=1.0 - 2.0j):
    # 47^2 = 2209 rows, so op_norm_l2 takes the ARPACK branch; a diagonal
    # matrix with one dominant entry has that entry's modulus as its norm
    rng = np.random.default_rng(5)
    vals = 0.5 * rng.random((47, 47)) + 0j
    vals[10, 20] = dominant
    return LatticeMatrix(2, 23, {(0, 0): vals}), abs(dominant)


def _no_convergence(*args, **kwargs):
    from scipy.sparse.linalg import ArpackNoConvergence

    raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))


def test_op_norm_arpack_failure_falls_back(monkeypatch):
    monkeypatch.setattr("scipy.sparse.linalg.svds", _no_convergence)
    a, want = _matrix_free_case()
    assert math.isclose(oddkit.op_norm_l2(a), want, rel_tol=1e-9)


def test_op_norm_real_section_falls_back_in_real_arithmetic(monkeypatch):
    seen = []

    def recording(op, x, conj=False):
        seen.append((op.dtype, x.dtype))
        return _diag_matvec(op, x, conj)

    monkeypatch.setattr("scipy.sparse.linalg.svds", _no_convergence)
    monkeypatch.setattr("oddkit.norms._diag_matvec", recording)
    a, want = _matrix_free_case(-2.5)
    assert math.isclose(oddkit.op_norm_l2(a), want, rel_tol=1e-9)
    # the power iteration ran, on real start vectors and a real operator
    assert len(seen) > 2 and set(seen) == {(np.dtype(np.float64),) * 2}


@pytest.mark.parametrize(
    "case,kind,dtype",
    [
        ("real dense", "ndarray", np.float64),
        ("real coo", "coo_array", np.float64),
        ("complex coo", "coo_array", np.complex128),
    ],
)
def test_op_norm_arpack_stops_at_op_tol(monkeypatch, case, kind, dtype):
    # 47^2 = 2209 rows: the ARPACK branch.  svds squares its tol, so it is
    # handed sqrt(OP_TOL) and ARPACK stops at OP_TOL on sigma^2.  OP_TOL**2
    # hands ARPACK 1e-20 and gives the same value in about twice the
    # matvecs.  The ratio of the two counts depends on where ARPACK's
    # restarts fall: 0.52 to 0.76 over the d=2 W=23 mag and phase sections
    # tried, 0.52 and 0.55 on these.
    import scipy.sparse.linalg

    full = case == "real dense"
    a = oddkit.generate(
        oddkit.DecayModel("mag", 2.5, seed=1 if full else 3), 23, dim=2, band=None if full else 2
    )
    if case == "complex coo":
        a = a * 1j
    op = _product_operator(a)
    assert type(op).__name__ == kind and op.dtype == dtype
    svds, tols, counts = scipy.sparse.linalg.svds, [], []

    def recording(*args, **kwargs):
        tols.append(kwargs["tol"])
        return svds(*args, **kwargs)

    def counting(op, x, conj=False):
        counts[-1] += 1
        return _diag_matvec(op, x, conj)

    monkeypatch.setattr("scipy.sparse.linalg.svds", recording)
    monkeypatch.setattr("oddkit.norms._diag_matvec", counting)
    values = []
    for tol in (norms.OP_TOL, norms.OP_TOL**2):
        monkeypatch.setattr(norms, "OP_TOL", tol)
        counts.append(0)
        values.append(oddkit.op_norm_l2(a))
    assert [t * t for t in tols] == pytest.approx([1e-10, 1e-20], rel=1e-12, abs=0)
    assert counts[0] <= 0.6 * counts[1], counts
    assert math.isclose(values[0], values[1], rel_tol=1e-13)


def test_op_norm_full_real_section_multiplies_dense():
    # 47^2 = 2209 rows, past the dense switch, every entry stored and real:
    # the products are float64 gemv on the dense section, and the rank-one
    # u v^T has the norm |u| |v|
    rng = np.random.default_rng(23)
    u, v = rng.standard_normal(47**2), rng.standard_normal(47**2)
    a = LatticeMatrix.from_dense(np.outer(u, v), dim=2)
    op = _product_operator(a)
    assert type(op) is np.ndarray and op.dtype == np.float64
    assert np.array_equal(op, a.to_dense().real)
    want = np.linalg.norm(u) * np.linalg.norm(v)
    assert math.isclose(oddkit.op_norm_l2(a), want, rel_tol=1e-12)


def test_op_norm_real_banded_section_matches_complex_path():
    # 24k stored entries in 8001 rows: a real COO operator; times 1j, the
    # same norm runs through the complex COO and complex ARPACK
    a = oddkit.generate(oddkit.DecayModel("mag", 2.5, seed=1), 4000, band=1)
    op = _product_operator(a)
    assert op.format == "coo" and op.dtype == np.float64 and op.data.flags.c_contiguous
    assert _product_operator(a * 1j).dtype == np.complex128
    assert math.isclose(oddkit.op_norm_l2(a), oddkit.op_norm_l2(a * 1j), rel_tol=1e-12)


def test_op_norm_other_errors_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not an ARPACK failure")

    monkeypatch.setattr("scipy.sparse.linalg.svds", broken)
    a, _ = _matrix_free_case()
    with pytest.raises(TypeError):
        oddkit.op_norm_l2(a)


def test_diag_matvec_matches_dense():
    rng = np.random.default_rng(11)
    kinds = set()
    for dim, w in ((1, 4), (2, 2)):
        full = random_matrix(83 + dim, w, dim=dim, density=0.6)
        banded = oddkit.band_truncate(full, w)  # offsets up to w - 1 < 2W
        thinned = full.select(full.offset_array().sum(axis=1) % 3 != 1)
        assert len(banded.offsets()) < len(full.offsets())
        assert len(thinned.offsets()) < len(full.offsets())
        for a in (full, banded, thinned):
            real = LatticeMatrix.from_dense(a.to_dense().real, dim=dim)
            for b in (a, real):
                dense = b.to_dense()
                # the complex COO, and the operator op_norm_l2 multiplies
                # through: dense or COO, narrowed to float64 for ``real``
                for op in (coo_operator(b), _product_operator(b)):
                    kinds.add((type(op).__name__, op.dtype.name))
                    xr = rng.standard_normal(b.n_rows)
                    for x in (xr, xr + 1j * rng.standard_normal(b.n_rows)):
                        assert np.allclose(_diag_matvec(op, x), dense @ x, rtol=1e-13, atol=1e-13)
                        assert np.allclose(
                            _diag_matvec(op.T, x, conj=True),
                            dense.conj().T @ x,
                            rtol=1e-13,
                            atol=1e-13,
                        )
                        assert np.allclose(
                            _diag_matvec(op, x, conj=True), dense.conj() @ x, rtol=1e-13, atol=1e-13
                        )
    assert kinds == {
        (kind, dtype) for kind in ("ndarray", "coo_array") for dtype in ("float64", "complex128")
    }


def _constant_diagonals(dim, window, values):
    diags = {}
    for off, value in values.items():
        shape = tuple(2 * window + 1 - abs(m) for m in off)
        diags[off] = np.full(shape, value, dtype=complex)
    return LatticeMatrix(dim, window, diags)


def test_op_norm_arpack_kronecker_sum_d2():
    # 47^2 = 2209 rows: the ARPACK branch.  a I + b (S_10 + S_01) + conj(b)
    # (S_-10 + S_0-1) is a Kronecker sum of Hermitian tridiagonal Toeplitz
    # matrices of size 47, with the eigenvalues
    # a + 2|b| (cos(pi j / 48) + cos(pi k / 48)), j, k = 1..47; the largest
    # modulus is a + 4|b| cos(pi / 48).
    a, b = 1.0, 0.3 - 0.4j
    m = _constant_diagonals(
        2,
        23,
        {(0, 0): a, (1, 0): b, (0, 1): b, (-1, 0): np.conj(b), (0, -1): np.conj(b)},
    )
    want = a + 4 * abs(b) * math.cos(math.pi / 48)
    assert math.isclose(oddkit.op_norm_l2(m), want, rel_tol=1e-12)


def test_op_norm_arpack_tridiagonal_toeplitz_d1(monkeypatch):
    # 2049 rows: the ARPACK branch.  The Hermitian tridiagonal Toeplitz
    # matrix with a on the diagonal and b, conj(b) beside it has the
    # eigenvalues a + 2|b| cos(pi j / 2050), so its norm is
    # |a| + 2|b| cos(pi / 2050).  The top of that spectrum is clustered
    # (gaps of order 1/n^2) and ARPACK needs 11143 matvecs at the default
    # OP_TOL; 1e-8 takes 9103 and still gives the closed form to about
    # 1e-14 here.
    a, b = 0.5, 1.0 - 1.0j
    m = _constant_diagonals(1, 1024, {(0,): a, (1,): b, (-1,): np.conj(b)})
    want = abs(a) + 2 * abs(b) * math.cos(math.pi / 2050)
    monkeypatch.setattr(norms, "OP_TOL", 1e-8)
    assert math.isclose(oddkit.op_norm_l2(m), want, rel_tol=1e-9)


@pytest.mark.memory
def test_banded_norms_stay_in_stored_entries():
    import tracemalloc

    import scipy.sparse.linalg  # noqa: F401  (imported before tracing)

    a = oddkit.generate(oddkit.DecayModel("mag", 2.5, seed=1), 4000, band=1)
    n = a.n_rows
    rows, cols = np.zeros(n), np.zeros(n)
    for (m,), arr in a.diagonals():
        rows[max(m, 0) : n + min(m, 0)] += np.abs(arr)
        cols[max(-m, 0) : n + min(-m, 0)] += np.abs(arr)
    peaks = {}
    values = {}
    for name, fn in (
        ("schur", lambda: oddkit.matrix_norm(a, "schur:p=1,r=0")),
        ("op", lambda: oddkit.op_norm_l2(a)),
    ):
        tracemalloc.start()
        try:
            values[name] = fn()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    # 24k stored entries in an 8001-row window: a dense matrix or a
    # window-sized index map (64M entries) would not fit in 16 MB
    assert peaks["schur"] < 16 and peaks["op"] < 16, peaks
    assert math.isclose(values["schur"], max(rows.max(), cols.max()), rel_tol=1e-12)
    _, env = a.envelope()
    assert env.max() <= values["op"] * (1 + 1e-12)
    assert values["op"] <= values["schur"] * (1 + 1e-12)
