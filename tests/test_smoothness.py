import functools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddkit
from oddkit import BesovSpec, DyadicPartition, LatticeMatrix, NormSpec, ParameterDomainWarning, Weight
from oddkit import smoothness
from oddkit.smoothness import _default_level_max

from conftest import dense_difference, offset_grid, random_matrix, single_diagonal


def decay_matrix(seed, window, exponent=2.5, dim=1):
    return oddkit.generate(
        oddkit.DecayModel("phase", exponent, seed=seed), window, dim=dim
    )


def test_t_grid():
    g = oddkit.t_grid(0.5, 1, 16)
    assert g.shape == (16, 1)
    assert g[0, 0] == -0.5 and g[-1, 0] == 0.5
    g2 = oddkit.t_grid(0.25, 2, 8)
    assert g2.shape[1] == 2
    assert (np.sqrt((g2**2).sum(axis=1)) <= 0.25 * (1 + 1e-9)).all()
    with pytest.raises(ValueError):
        oddkit.t_grid(0.5, 1, 4)


def test_modulus_vanishes_on_main_diagonal():
    d = LatticeMatrix(1, 4, {(0,): np.arange(1.0, 10.0)})
    for h in (1.0, 0.25):
        assert oddkit.modulus(d, "jaffard:r=0", h) == 0.0
        assert oddkit.modulus(d, "op", h, order=2) == 0.0


def test_modulus_single_diagonal_closed_form():
    # |e^{2 pi i t} - 1| = 2 sin(pi t) peaks at the endpoint t = h for h <= 1/2
    u = single_diagonal(4, 1)
    for h in (0.5, 0.25, 0.0625):
        want = 2.0 * math.sin(math.pi * h)
        got_op = oddkit.modulus(u, "op", h)  # generic path
        got_solid = oddkit.modulus(u, "jaffard:r=0", h)  # reducer path
        assert math.isclose(got_op, want, rel_tol=1e-12)
        assert math.isclose(got_solid, want, rel_tol=1e-12)


def test_modulus_triangle_bound():
    a = decay_matrix(1, 12)
    base = "schur:p=1,r=0"
    bound = 2.0 * oddkit.matrix_norm(a, base)
    assert oddkit.modulus(a, base, 0.5) <= bound * (1 + 1e-12)


def test_modulus_refuses_non_finite_h():
    a = decay_matrix(1, 8)
    for h in (math.nan, math.inf, 0.0, -0.5):
        with pytest.raises(ValueError, match="h must be finite and > 0"):
            oddkit.modulus(a, "jaffard:r=0", h)
        with pytest.raises(ValueError, match="h must be finite and > 0"):
            oddkit.modulus(a, "op", h)
    with pytest.raises(ValueError, match="h must be finite and > 0"):
        oddkit.continuity_defect(a, "jaffard:r=0", (0.5, math.nan))


def test_modulus_generic_and_reducer_paths_agree():
    a = decay_matrix(2, 10)
    spec = NormSpec("jaffard", r=1.0)
    fast = oddkit.modulus(a, spec, 0.25, order=2)
    slow = oddkit.modulus(a, lambda m: oddkit.jaffard_norm(m, 1.0), 0.25, order=2)
    assert math.isclose(fast, slow, rel_tol=1e-12)


def _dense_op(dense):
    return np.linalg.norm(dense, 2)


def _dense_modulus(base, dense, diff, dim, h, order, grid):
    """max over the t_grid points of base(dense D_t^order), entrywise."""
    pts = oddkit.t_grid(h, dim, grid)
    return max(base(dense_difference(dense, diff, t, order)) for t in pts)


def _dense_besov(base, dense, diff, dim, r, grid, level_max):
    """base + max over levels of 2^{r l} times the level's dense modulus
    (p = inf, order floor(r) + 1)."""
    order = math.floor(r) + 1
    levels = (
        2.0 ** (r * l) * _dense_modulus(base, dense, diff, dim, 2.0**-l, order, grid)
        for l in range(level_max + 1)
    )
    return base(dense) + max(levels)


@pytest.mark.parametrize("dim,window", [(1, 6), (2, 2)])
@pytest.mark.parametrize("kind", ["det", "phase"])
def test_op_modulus_matches_dense_oracle(dim, window, kind):
    # op reads the modulus off the real rows (2 sin(pi m.t))^k; the oracle
    # takes the 2-norm of each complex dense difference
    a = oddkit.generate(oddkit.DecayModel(kind, 2.0, seed=1), window, dim=dim)
    dense, diff = a.to_dense(), offset_grid(dim, window)
    for order in (1, 2, 3):
        for h in (1 / 4, 1 / 16):
            got = oddkit.modulus(a, "op", h, order, grid=16)
            want = _dense_modulus(_dense_op, dense, diff, dim, h, order, 16)
            assert math.isclose(got, want, rel_tol=1e-12), (order, h)


def test_op_modulus_keeps_the_sign_of_its_rows():
    # magnitude rows |2 sin(pi m t)| read 1.353 here: the op norm sees the
    # sign pattern of a real multiplier, the solid norms do not
    a = oddkit.generate(oddkit.DecayModel("det", 2.0, seed=1), 6)
    pts = oddkit.t_grid(0.25, 1, 64)
    want = _dense_modulus(_dense_op, a.to_dense(), offset_grid(1, 6), 1, 0.25, 1, 64)
    magnitude = max(
        oddkit.op_norm_l2(a.scale_diagonals(lambda o, t=t: np.abs(2.0 * np.sin(np.pi * (o @ t)))))
        for t in pts
    )
    assert math.isclose(want, 1.0938, rel_tol=1e-4)
    assert math.isclose(magnitude, 1.3533, rel_tol=1e-4)
    assert math.isclose(oddkit.modulus(a, "op", 0.25), want, rel_tol=1e-12)


def test_op_reiteration_matches_nested_dense_oracle():
    a = decay_matrix(5, 3)
    dense, diff = a.to_dense(), offset_grid(1, 3)
    level_max = _default_level_max(3)

    def inner(x):
        return _dense_besov(_dense_op, x, diff, 1, 0.5, 8, level_max)

    iterated = _dense_besov(inner, dense, diff, 1, 0.5, 8, level_max)
    direct = _dense_besov(_dense_op, dense, diff, 1, 1.0, 8, level_max)
    got = oddkit.reiteration_ratio(a, "op", 0.5, 0.5, grid=8)
    assert math.isclose(got, iterated / direct, rel_tol=1e-10)


SUP_BASES = ("jaffard:r=0", "jaffard:r=1.5", "w[bessel:r=1]jaffard:r=0", "cpr:p=inf", "schur:p=inf")


def _table_factors(matrix, spec, h, grid, order):
    """The (T, M) difference rows of every grid point, whatever the base."""
    pts = oddkit.t_grid(h, matrix.dim, grid)
    return smoothness._difference_factors(matrix.offset_array(), pts, order)


def _grid_values(monkeypatch, a, base, grid):
    """(order, value) of every grid sup that modulus and besov_norm_modulus
    take, one per level, and of two reiteration ratios (the highest order
    of their differences)."""
    seen = []
    grid_sup = smoothness._grid_sup

    def record(matrix, spec, h, g, order):
        value = grid_sup(matrix, spec, h, g, order)
        seen.append((order, float(value)))
        return value

    with monkeypatch.context() as mp:
        mp.setattr(smoothness, "_grid_sup", record)
        for h in (1.0, 0.25, 0.0625):
            for order in (1, 2, 3):
                oddkit.modulus(a, base, h, order, grid=grid)
        for r in (0.5, 1.5, 2.5):
            oddkit.besov_norm_modulus(a, base, r, 2.0, grid=grid)
    for r, s, p, order in ((0.5, 0.5, math.inf, 2), (1.5, 0.5, 1.0, 3)):
        seen.append((order, oddkit.reiteration_ratio(a, base, r, s, p, grid=grid)))
    return seen


@pytest.mark.parametrize("dim,window,grid", [(1, 8, 64), (2, 3, 16)])
@pytest.mark.parametrize("banded", [False, True])
def test_sup_row_moduli_match_the_table_path(monkeypatch, dim, window, grid, banded):
    # a sup-type base reads the shared row max_t |2 sin(pi m.t)| to the
    # power k; the (T, M) table through the stack evaluator is the oracle.
    # Orders 1 and 2 keep their bits; at order 3 a power of the row is not
    # the column max of the powered table to the last bit
    band = window // 2 if banded else None
    a = oddkit.generate(oddkit.DecayModel("phase", 2.5, seed=21), window, dim=dim, band=band)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterDomainWarning)
        for base in SUP_BASES:
            fast = _grid_values(monkeypatch, a, base, grid)
            with monkeypatch.context() as mp:
                mp.setattr(smoothness, "_grid_factors", _table_factors)
                slow = _grid_values(mp, a, base, grid)
            assert [k for k, _ in fast] == [k for k, _ in slow]
            for (order, got), (_, want) in zip(fast, slow):
                if order <= 2:
                    assert got == want, (base, order)
                else:
                    assert math.isclose(got, want, rel_tol=1e-15, abs_tol=0.0), (base, order)


def test_grid_sup_rows_are_read_only_and_keyed(monkeypatch):
    assert smoothness._grid_sup_row.cache_info().maxsize >= 64
    keys = [(1, 4, 16, 0.25), (1, 5, 16, 0.25), (1, 4, 32, 0.25), (1, 4, 16, 0.5), (2, 4, 16, 0.25)]
    rows = [smoothness._grid_sup_row(*key) for key in keys]
    for key, row in zip(keys, rows):
        dim, window, grid, h = key
        assert smoothness._grid_sup_row(*key) is row
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1.0
        axis = np.arange(-2 * window, 2 * window + 1)
        offs = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
        theta = oddkit.t_grid(h, dim, grid) @ offs.T.astype(float)
        assert np.array_equal(row, np.abs(2.0 * np.sin(np.pi * theta)).max(axis=0))
        # walked one grid point at a time: the same bits
        with monkeypatch.context() as mp:
            mp.setattr(oddkit.lattice, "_BLOCK_BYTES", 8 * len(offs))
            assert smoothness._grid_sup_row.__wrapped__(*key).tobytes() == row.tobytes()
    for i, row in enumerate(rows):
        for other in rows[i + 1 :]:
            assert not np.shares_memory(row, other)
            assert row.shape != other.shape or not np.array_equal(row, other)


def test_besov_modulus_main_diagonal_only():
    d = LatticeMatrix(1, 4, {(0,): np.full(9, 2.0)})
    assert oddkit.besov_norm_modulus(d, "jaffard:r=0", 0.5) == 2.0


def test_besov_modulus_single_diagonal_formula():
    # all three quantities of the l^inf level sum are available in closed form
    u = single_diagonal(6, 1)
    r = 0.5
    levels = range(0, _default_level_max(6) + 1)
    per_level = []
    for l in levels:
        pts = oddkit.t_grid(2.0**-l, 1, 64)[:, 0]
        per_level.append(2.0 ** (r * l) * np.max(2.0 * np.abs(np.sin(np.pi * pts))))
    want = 1.0 + max(per_level)
    got = oddkit.besov_norm_modulus(u, "jaffard:r=0", r)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_besov_modulus_homogeneity_and_validation():
    a = decay_matrix(3, 8)
    v = oddkit.besov_norm_modulus(a, "jaffard:r=0", 0.75)
    v3 = oddkit.besov_norm_modulus(3.0 * a, "jaffard:r=0", 0.75)
    assert math.isclose(v3, 3.0 * v, rel_tol=1e-12)
    with pytest.raises(ValueError):
        oddkit.besov_norm_modulus(a, "jaffard:r=0", 0.0)
    with pytest.raises(ValueError):
        oddkit.besov_norm_modulus(a, "jaffard:r=0", 1.5, order=1)  # need k > floor(r)


def test_besov_solid_lp_pinned():
    assert oddkit.besov_norm_solid_lp(LatticeMatrix.zeros(1, 4), "jaffard:r=0", 1.0) == 0.0
    d = LatticeMatrix(1, 4, {(0,): np.full(9, 3.0)})
    assert math.isclose(
        oddkit.besov_norm_solid_lp(d, "jaffard:r=0", 0.5), 3.0 * 2.0**-0.5, rel_tol=1e-14
    )
    # single diagonal |m| = 4 sits in block k = 2 alone: weight 2^{2r}
    u = single_diagonal(6, 4)
    assert math.isclose(oddkit.besov_norm_solid_lp(u, "jaffard:r=0", 1.0), 4.0, rel_tol=1e-14)
    assert math.isclose(oddkit.besov_norm_solid_lp(u, "jaffard:r=0", 1.0, p=1), 4.0, rel_tol=1e-14)
    with pytest.raises(ValueError):
        oddkit.besov_norm_solid_lp(u, "op", 1.0)


def test_besov_solid_lp_p_monotone():
    # l^p block sums decrease in p, exactly
    a = decay_matrix(4, 12)
    n1 = oddkit.besov_norm_solid_lp(a, "jaffard:r=0", 0.5, p=1)
    n2 = oddkit.besov_norm_solid_lp(a, "jaffard:r=0", 0.5, p=2)
    ninf = oddkit.besov_norm_solid_lp(a, "jaffard:r=0", 0.5)
    assert n1 >= n2 >= ninf > 0


def test_besov_solid_lp_smoothness_monotone():
    # term by term, 2^{ks} >= 2^{-(s-r)} 2^{kr} for k >= -1
    a = decay_matrix(5, 12)
    r, s = 0.5, 1.25
    lo = 2.0 ** -(s - r) * oddkit.besov_norm_solid_lp(a, "jaffard:r=0", r)
    assert oddkit.besov_norm_solid_lp(a, "jaffard:r=0", s) >= lo * (1 - 1e-12)


def test_partition_identity():
    part = DyadicPartition()
    offs = np.arange(0, 4097).reshape(-1, 1)
    total = part.low_pass(offs)
    for k in range(0, 14):
        total = total + part.band(k, offs)
    assert np.abs(total - 1.0).max() < 1e-12
    assert part.low_pass(np.array([[0]]))[0] == 1.0


def test_partition_band_support():
    part = DyadicPartition()
    x = np.array([0.0, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0])
    vals = part.profile(x)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[5] == 0.0 and vals[6] == 0.0
    assert (vals[2:5] > 0).all()
    # |m| = 3 is split between bands 1 and 2 only, and they telescope to 1
    m3 = np.array([[3]])
    b = [float(part.band(k, m3)[0]) for k in range(0, 5)]
    assert b[0] == 0.0 and b[3] == 0.0 and b[4] == 0.0
    assert math.isclose(b[1] + b[2], 1.0, rel_tol=1e-14)


def test_partition_reconstruction():
    a = decay_matrix(6, 10)
    offs = a.offset_array()
    part = DyadicPartition()
    acc = a.scale_diagonals(lambda o: part.low_pass(o))
    for k in range(0, int(math.ceil(math.log2(20))) + 2):
        acc = acc + a.scale_diagonals(lambda o, k=k: part.band(k, o))
    assert acc.allclose(a, rtol=1e-12, atol=1e-13)


def test_besov_phi_lp_pinned():
    eye = LatticeMatrix.identity(1, 6)
    assert math.isclose(
        oddkit.besov_norm_phi_lp(eye, "jaffard:r=0", 1.0), 0.5, rel_tol=1e-14
    )
    u = single_diagonal(6, 4)
    # |m| = 4 is pure band k = 2 (profile(1) = 1): value 2^{2r}
    assert math.isclose(oddkit.besov_norm_phi_lp(u, "jaffard:r=0", 1.0), 4.0, rel_tol=1e-12)


def _phi_lp_from_public_bands(a, base, r, p):
    """besov_norm_phi_lp rebuilt from the public band and low_pass rows on
    the offsets themselves, in C order, one profile row per band."""
    part = DyadicPartition()
    offs = a.offset_array()
    top = int(math.ceil(math.log2(max(int(np.abs(offs).max(initial=0)), 1)))) + 1
    bands = [part.band(k, offs) for k in range(top + 1)]
    low = np.ones(len(offs))
    for band in bands:
        low -= band
    # the low-pass is 1 minus the bands, subtracted in the order k = 0..top
    assert part.low_pass(offs).tobytes() == low.tobytes()
    rows = np.array([part.low_pass(offs)] + bands)
    keep = (rows != 0).any(axis=1)
    ks = np.arange(-1, top + 1)[keep]
    vals = oddkit.norms._stack_values(a, oddkit.norms._coerce_spec(base), rows[keep])
    weighted = [2.0 ** (k * r) * v for k, v in zip(ks.tolist(), vals)]
    return float(oddkit.norms._lp_combine(weighted, p))


@pytest.mark.parametrize(
    "make",
    [
        lambda: oddkit.generate(oddkit.DecayModel("phase", 2.5, seed=4), 64, band=32),
        lambda: LatticeMatrix.identity(1, 8) * 3.0,
        lambda: LatticeMatrix.zeros(1, 8),
        lambda: decay_matrix(5, 8, dim=2),
    ],
    ids=["banded", "main-diagonal", "zeros", "d2"],
)
def test_phi_lp_keeps_the_bits_of_the_public_bands(make):
    # the bands are evaluated once on the distinct radii |m|_inf and
    # gathered back to the offsets: every value keeps its bits, also on
    # the matrix-product path of cpr at p < inf, which sums in layout order
    # (at d=2 W=8 a column-ordered stack moves its values in the last bit)
    a = make()
    for base in ("jaffard:r=0", "schur:p=1,r=0", "cpr:p=2,r=0.5,literal=true", "cpr:p=2,r=0"):
        for r, p in ((0.5, math.inf), (1.5, 1.0), (1.0, 2.0)):
            got = oddkit.besov_norm_phi_lp(a, base, r, p)
            assert got == _phi_lp_from_public_bands(a, base, r, p), (base, r, p)


def test_three_evaluators_within_interval():
    for seed in range(4):
        a = decay_matrix(40 + seed, 12)
        for r, p in ((0.5, math.inf), (1.0, 1.0)):
            m = oddkit.besov_norm_modulus(a, "jaffard:r=0", r, p)
            s = oddkit.besov_norm_solid_lp(a, "jaffard:r=0", r, p)
            f = oddkit.besov_norm_phi_lp(a, "jaffard:r=0", r, p)
            for x, y in ((m, s), (f, s), (m, f)):
                assert 1 / 20 < x / y < 20


def test_order_independence_interval():
    a = decay_matrix(7, 12)
    v1 = oddkit.besov_norm_modulus(a, "jaffard:r=0", 0.5, order=1)
    v2 = oddkit.besov_norm_modulus(a, "jaffard:r=0", 0.5, order=2)
    assert 1 / 8 < v1 / v2 < 8


def test_besov_algebra_inequality_measured():
    # Banach-algebra property holds with a modest constant on the corpus
    worst = 0.0
    for seed in range(3):
        a = decay_matrix(50 + seed, 8)
        b = decay_matrix(60 + seed, 8)
        na = oddkit.besov_norm_modulus(a, "schur:p=1,r=0", 0.5)
        nb = oddkit.besov_norm_modulus(b, "schur:p=1,r=0", 0.5)
        nab = oddkit.besov_norm_modulus(a @ b, "schur:p=1,r=0", 0.5)
        worst = max(worst, nab / (na * nb))
    assert worst < 4.0


def test_besov_spec_validation():
    with pytest.raises(ValueError):
        BesovSpec("jaffard:r=0", r=-1.0)
    with pytest.raises(ValueError):
        BesovSpec("jaffard:r=0", r=0.5, p=0.5)
    with pytest.raises(ValueError):
        BesovSpec("jaffard:r=0", r=1.5, order=1)
    with pytest.raises(ValueError):
        BesovSpec("jaffard:r=0", r=0.5, method="fourier")


def test_besov_norm_dispatch():
    a = decay_matrix(8, 8)
    base = NormSpec("jaffard", r=0.0)
    for method, direct in (
        ("modulus", oddkit.besov_norm_modulus(a, base, 0.5)),
        ("solidlp", oddkit.besov_norm_solid_lp(a, base, 0.5)),
        ("philp", oddkit.besov_norm_phi_lp(a, base, 0.5)),
    ):
        spec = BesovSpec(base, r=0.5, method=method)
        assert math.isclose(oddkit.besov_norm(a, spec), direct, rel_tol=1e-13)


def test_evaluate_universal():
    a = decay_matrix(9, 8)
    assert math.isclose(
        oddkit.evaluate(a, "jaffard:r=2"), oddkit.jaffard_norm(a, 2.0), rel_tol=1e-14
    )
    text = "besov:base=jaffard:r=0,r=0.5,p=inf,method=solidlp"
    assert math.isclose(
        oddkit.evaluate(a, text),
        oddkit.besov_norm_solid_lp(a, "jaffard:r=0", 0.5),
        rel_tol=1e-14,
    )


def test_besov_grammar_round_trip():
    texts = [
        "besov:base=jaffard:r=0.0,r=0.5,p=inf,method=modulus",
        "besov:base=jaffard:r=0.0,r=0.5,p=inf,method=solidlp",
        "besov:base=[schur:p=1.0,r=0.0],r=1.5,p=2.0,method=modulus,k=2",
        "besov:base=[cpr:p=2.0,r=1.5],r=0.75,p=1.0,method=philp",
        "besov:base=jaffard:r=2.0,r=1.0,p=inf,method=modulus,grid=32,lmax=8",
    ]
    for text in texts:
        spec = oddkit.parse_besov_spec(text)
        assert oddkit.format_besov_spec(spec) == text
        assert oddkit.parse_besov_spec(oddkit.format_besov_spec(spec)) == spec


_PS = st.just(math.inf) | st.floats(1.0, 1e6)
_WEIGHTS = st.none() | st.builds(
    Weight, st.sampled_from(("poly", "bessel")), st.floats(-1e3, 1e3, allow_nan=False)
)


@st.composite
def _norm_specs(draw):
    kind = draw(st.sampled_from(("op", "jaffard", "schur", "cpr")))
    if kind == "op":
        return NormSpec("op")
    return NormSpec(
        kind,
        p=math.inf if kind == "jaffard" else draw(_PS),
        r=draw(st.floats(0.0, 1e3)),
        weight=draw(_WEIGHTS),
        literal=kind == "cpr" and draw(st.booleans()),
    )


@st.composite
def _besov_specs(draw):
    r = draw(st.floats(1e-3, 50.0))
    order = st.integers(math.floor(r) + 1, math.floor(r) + 4)
    return BesovSpec(
        draw(_norm_specs()),
        r,
        draw(_PS),
        order=draw(st.none() | order),
        method=draw(st.sampled_from(("modulus", "solidlp", "philp"))),
        grid=draw(st.none() | st.integers(8, 128)),
        level_max=draw(st.none() | st.integers(0, 12)),
    )


@settings(max_examples=200, deadline=None)
@given(_norm_specs(), _besov_specs())
def test_grammar_round_trip_property(norm, besov):
    assert oddkit.parse_norm_spec(oddkit.format_norm_spec(norm)) == norm
    assert oddkit.parse_besov_spec(oddkit.format_besov_spec(besov)) == besov
    assert oddkit.parse_any_spec(oddkit.format_besov_spec(besov)) == besov


def test_besov_grammar_bracketed_base():
    spec = oddkit.parse_besov_spec("besov:base=[schur:p=1,r=0],r=0.5,p=inf,method=solidlp")
    assert spec.base == NormSpec("schur", p=1.0, r=0.0)
    for bad in (
        "besov:r=0.5",
        "besov:base=jaffard:r=0",
        "besov:base=[schur:p=1,r=0,r=0.5",
        "besov:base=jaffard:r=0,r=0.5,mode=solidlp",
        "besov:base=jaffard:r=0,r=0.5,r=1.0",
        "besov:base=jaffard:r=0,r=0.5,lmin=1",
        "besov:base=jaffard:r=0,r=0.5,",
        "besov:base=jaffard:r=0,,r=0.5",
        "besov:base=jaffard:r=0,r=0.5]",
        "besov:base=jaffard:r=0,r=0.5,method=philp,method=modulus",
        "besov:base=[schur:p=1,r=0,p=2],r=0.5",
        "besov:base=jaffard:r=0,r=0.5,grid=4",
        "besov:base=jaffard:r=0,r=0.5,lmax=-1",
    ):
        with pytest.raises(ValueError):
            oddkit.parse_besov_spec(bad)


def test_reiteration_single_diagonal_and_zero():
    with pytest.raises(ValueError):
        oddkit.reiteration_ratio(LatticeMatrix.zeros(1, 8), "jaffard:r=0", 0.5, 0.5)
    u = single_diagonal(8, 4)
    ratio = oddkit.reiteration_ratio(u, "jaffard:r=0", 0.5, 0.5)
    assert 1 / 20 < ratio < 20


def test_reiteration_fast_path_matches_generic():
    # the callable oracle scales one matrix per stack row, for every pair
    # of grid points of every pair of levels; 16 points, as in the
    # stack-path tests below, keep it to about a second, and criterion 5
    # covers the default grid
    a = decay_matrix(10, 8)
    fast = oddkit.reiteration_ratio(a, NormSpec("jaffard", r=0.0), 0.5, 0.5, grid=16)
    slow = oddkit.reiteration_ratio(a, lambda m: oddkit.jaffard_norm(m, 0.0), 0.5, 0.5, grid=16)
    assert math.isclose(fast, slow, rel_tol=1e-10)


def _generic(spec):
    return lambda m: oddkit.matrix_norm(m, spec)


def test_reiteration_stack_paths_match_generic():
    # cpr at p = 2 takes the matrix-product path, jaffard at p = 1 the
    # commuted-max path with an l^1 sum over levels, literal cpr the product
    # path on the per-diagonal l^p norms; r != s tells the inner norm from
    # the outer one
    a = decay_matrix(11, 6)
    cases = (
        (NormSpec("cpr", p=2.0, r=0.0), 2.0, 0.5, 1.5),
        (NormSpec("jaffard", r=0.0), 1.0, 1.5, 0.5),
        (NormSpec("cpr", p=1.5, r=0.5, literal=True), 1.0, 1.5, 0.5),
    )
    for spec, p, r, s in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParameterDomainWarning)
            fast = oddkit.reiteration_ratio(a, spec, r, s, p, grid=16)
            slow = oddkit.reiteration_ratio(a, _generic(spec), r, s, p, grid=16)
        assert math.isclose(fast, slow, rel_tol=1e-10)


def test_reiteration_schur_matches_generic():
    # Schur at p < inf scales the inner stack by each outer row; the
    # callable path scales one matrix per pair of outer and inner rows;
    # a weighted base at p = 1.5, inner order 2 and an l^2
    # level sum, and r != s to tell the inner norm from the outer one
    a = oddkit.corpus(3, 8, count=1)[0]
    spec = NormSpec("schur", p=1.5, r=1.0)
    fast = oddkit.reiteration_ratio(a, spec, 1.5, 0.5, 2.0, grid=16)
    slow = oddkit.reiteration_ratio(a, _generic(spec), 1.5, 0.5, 2.0, grid=16)
    assert math.isclose(fast, slow, rel_tol=1e-10)


def test_reiteration_schur_runtime():
    # nesting the callable path took 2.5 s on this input and grid
    a = oddkit.corpus(3, 16, count=1)[0]
    start = time.perf_counter()
    oddkit.reiteration_ratio(a, "schur:p=1,r=0", 0.5, 0.5, grid=16)
    assert time.perf_counter() - start < 0.1


def test_reiteration_fast_path_matches_generic_d2():
    a = decay_matrix(12, 2, dim=2)
    specs = (
        NormSpec("jaffard", r=0.0),
        NormSpec("cpr", p=1.0, r=0.0),
        NormSpec("cpr", p=2.0, r=1.5, literal=True),
    )
    for spec in specs:
        fast = oddkit.reiteration_ratio(a, spec, 0.5, 0.5, grid=8)
        slow = oddkit.reiteration_ratio(a, _generic(spec), 0.5, 0.5, grid=8)
        assert math.isclose(fast, slow, rel_tol=1e-10)


def _level_by_level_ratio(a, base, r, s, grid):
    """reiteration_ratio at p = inf with one stack per inner level: the
    path that every base takes at p < inf."""
    spec = oddkit.norms._coerce_spec(base)
    stack = functools.partial(oddkit.norms._stack_values, a, spec)
    level_max = _default_level_max(a.window)
    offs = a.offset_array()
    levels = [
        smoothness._grid_factors(a, spec, 2.0**-l, grid, math.floor(r) + 1)
        for l in range(level_max + 1)
    ]
    ones = np.ones((1, len(offs)))

    def inner(g):
        return smoothness._level_sum(
            lambda l: stack(levels[l], g), stack(ones, g), r, math.inf, level_max
        )

    def outer(l):
        pts = oddkit.t_grid(2.0**-l, a.dim, grid)
        return inner(smoothness._difference_factors(offs, pts, math.floor(s) + 1)).max(-1)

    iterated = smoothness._level_sum(outer, inner(ones[0]), s, math.inf, level_max)
    return iterated / oddkit.besov_norm_modulus(a, spec, r + s, math.inf, grid=grid)


FOLD_BASES = ("jaffard:r=0", "w[bessel:r=1]jaffard:r=0", "cpr:p=inf,r=1", "schur:p=inf,r=0.5")


@pytest.mark.parametrize("dim,window,grid", [(1, 64, 32), (2, 8, 16)])
def test_reiteration_fold_matches_level_by_level(dim, window, grid):
    # a sup-type base at p = inf folds the inner levels into one row
    # max_l 2^{rl} max_k |F_lk|; the level-by-level max is the oracle.  The
    # power 2^{rl} is applied before the max over diagonals, not after, so
    # values may move in the last bit; r != s, and r = 1.5 (s = 1.5) takes
    # inner (outer) differences of order 2
    a = decay_matrix(13, window, dim=dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterDomainWarning)
        for base in FOLD_BASES:
            for r, s in ((1.5, 0.5), (0.5, 1.5)):
                got = oddkit.reiteration_ratio(a, base, r, s, grid=grid)
                want = _level_by_level_ratio(a, base, r, s, grid)
                assert math.isclose(got, want, rel_tol=1e-15, abs_tol=0.0), (base, r, s)


def _top_level_stack_calls(monkeypatch, call):
    """The number of _stack_values calls that ``call`` makes, not counting
    the ones a stack call makes itself."""
    real = oddkit.norms._stack_values
    depth, calls = [0], [0]

    def counting(*args, **kwargs):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return real(*args, **kwargs)
        finally:
            depth[0] -= 1

    with monkeypatch.context() as mp:
        mp.setattr(oddkit.norms, "_stack_values", counting)
        call()
    return calls[0]


@pytest.mark.parametrize(
    "base,p,folds",
    [
        ("jaffard:r=0", math.inf, True),
        ("cpr:p=inf,r=1", math.inf, True),
        ("schur:p=inf,r=0.5", math.inf, True),
        ("jaffard:r=0", 1.0, False),
        ("cpr:p=inf,r=1", 1.0, False),
        ("schur:p=1,r=0", math.inf, False),
        ("cpr:p=2,r=0", math.inf, False),
    ],
)
def test_reiteration_fold_path(monkeypatch, base, p, folds):
    # level_max + 1 outer levels and the base row each take one inner
    # level sum: two stacks (base row and folded row) on a sup-type base at
    # p = inf, level_max + 2 stacks otherwise
    a = decay_matrix(14, 8)
    r, s, grid = 0.5, 1.0, 16
    levels = _default_level_max(a.window) + 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterDomainWarning)
        direct = _top_level_stack_calls(
            monkeypatch, lambda: oddkit.besov_norm_modulus(a, base, r + s, p, grid=grid)
        )
        calls = _top_level_stack_calls(
            monkeypatch, lambda: oddkit.reiteration_ratio(a, base, r, s, p, grid=grid)
        )
    per_inner_sum = 2 if folds else levels + 1
    assert calls == direct + (levels + 1) * per_inner_sum


def test_literal_cpr_stack_evaluators_match_generic():
    # literal cpr reads one l^p norm per diagonal, Schur at p < inf the
    # line sums of the whole stack; every evaluator on the stack path
    # agrees with the callable path, which scales one matrix per stack row
    for dim, window in ((1, 6), (2, 2)):
        a = decay_matrix(13, window, dim=dim)
        for spec in (NormSpec("cpr", p=1.0, r=0.0, literal=True),
                     NormSpec("cpr", p=3.5, r=1.5, literal=True, weight=oddkit.Weight("poly", 1.0)),
                     NormSpec("schur", p=1.0, r=0.0),
                     NormSpec("schur", p=2.0, r=1.5)):
            slow = _generic(spec)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ParameterDomainWarning)
                pairs = [
                    (oddkit.modulus(a, spec, 0.25, order=2, grid=16),
                     oddkit.modulus(a, slow, 0.25, order=2, grid=16)),
                    (oddkit.besov_norm_modulus(a, spec, 0.5, 2.0, grid=16, level_max=3),
                     oddkit.besov_norm_modulus(a, slow, 0.5, 2.0, grid=16, level_max=3)),
                    (oddkit.besov_norm_solid_lp(a, spec, 0.5, 2.0),
                     oddkit.besov_norm_solid_lp(a, slow, 0.5, 2.0)),
                    (oddkit.besov_norm_phi_lp(a, spec, 1.5, 1.0),
                     oddkit.besov_norm_phi_lp(a, slow, 1.5, 1.0)),
                ]
            for fast, want in pairs:
                assert want > 0 and math.isclose(fast, want, rel_tol=1e-12)


def test_smoothness_parameters_refused():
    a = decay_matrix(14, 4)
    bad = ((0.0, math.inf), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
           (0.5, 0.5), (0.5, -1.0), (0.5, math.nan))
    for r, p in bad:
        with pytest.raises(ValueError):
            BesovSpec("jaffard:r=0", r=r, p=p)
        for evaluator in (oddkit.besov_norm_modulus, oddkit.besov_norm_solid_lp, oddkit.besov_norm_phi_lp):
            with pytest.raises(ValueError):
                evaluator(a, "jaffard:r=0", r, p)
        with pytest.raises(ValueError):
            oddkit.reiteration_ratio(a, "jaffard:r=0", r, 0.5, p, grid=8)
        with pytest.raises(ValueError):
            oddkit.reiteration_ratio(a, "jaffard:r=0", 0.5, r, p, grid=8)


@pytest.mark.memory
def test_reiteration_memory_bounded_d2():
    # the nested levels never form a (T, T, M) array: at d=2 W=2 on the
    # default grid that array alone is about 350 MB
    a = oddkit.generate(oddkit.DecayModel("det", 2.0), 2, dim=2)
    for base in ("jaffard:r=0", "cpr:p=2,r=1.5"):
        tracemalloc.start()
        try:
            oddkit.reiteration_ratio(a, base, 0.5, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


@pytest.mark.memory
def test_besov_modulus_memory_bounded_d2():
    # a sup-type base reads one row per level, formed in blocks of grid
    # points: at d=2 W=8 on the default grid the call peaks at 4.1 MB.  A
    # level's (T, M) multipliers are 6.4 MB (T = 740 points, M = 1089
    # offsets): the call peaked at 12.3 MB while it formed them one level
    # at a time, and all seven levels together would be 45 MB
    a = oddkit.corpus(5, 8, count=1, dim=2)[0]
    tracemalloc.start()
    try:
        oddkit.besov_norm_modulus(a, "jaffard:r=0", 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20


@pytest.mark.memory
def test_difference_factors_memory_bounded_d2():
    # every base but a sup-type one still takes a level's (T, M) factors,
    # 740 x 1089 here: formed in place the call peaks at 6.2 MB, and one
    # temporary of the table would take it to 12.3 MB
    a = oddkit.corpus(5, 8, count=1, dim=2)[0]
    pts = oddkit.t_grid(1.0, 2, 32)
    tracemalloc.start()
    try:
        smoothness._difference_factors(a.offset_array(), pts, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.memory
def test_sup_modulus_memory_bounded_d2():
    # the sup row walks the grid in blocks of points under the block budget:
    # 128 points per axis at h = 1/4 (12644 points) against the 4225
    # offsets of d=2 W=16 peak at 4.3 MB, where the (T, M) table and its
    # |.| took 2 x 408 MB
    a = oddkit.corpus(5, 16, count=1, dim=2)[0]
    tracemalloc.start()
    try:
        oddkit.modulus(a, "jaffard:r=0", 0.25, grid=128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_continuity_defect():
    eye = LatticeMatrix.identity(1, 6)
    rep = oddkit.continuity_defect(eye, "jaffard:r=0", (1.0, 0.5, 0.25))
    assert rep.modulus == (0.0, 0.0, 0.0)
    u = single_diagonal(6, 1)
    rep = oddkit.continuity_defect(u, "jaffard:r=0", (0.25, 0.125))
    for h, m in zip(rep.h, rep.modulus):
        assert math.isclose(m, 2.0 * math.sin(math.pi * h), rel_tol=1e-12)
    # envelope matched to the weight: every tail sup is exactly 1
    w = 6
    dense = np.fromfunction(
        lambda i, j: (1.0 + np.abs(i - j)) ** -1.5, (13, 13)
    )
    a = LatticeMatrix.from_dense(dense, window=w)
    rep = oddkit.continuity_defect(a, "jaffard:r=1.5", (0.5,))
    assert rep.tail_exponent == 1.5
    assert all(math.isclose(t, 1.0, rel_tol=1e-12) for t in rep.tail)
