import json
import math

import numpy as np
import pytest

import oddkit
from oddkit import LatticeMatrix

from conftest import (
    dense_derivation,
    dense_difference,
    dense_envelope,
    dense_modulate,
    offset_grid,
    random_matrix,
    single_diagonal,
)


def test_construction_validates():
    with pytest.raises(ValueError):
        LatticeMatrix(3, 4)
    with pytest.raises(ValueError):
        LatticeMatrix(1, 0)
    with pytest.raises(IndexError):
        LatticeMatrix(1, 2, {(5,): np.ones(0)})
    with pytest.raises(ValueError):
        LatticeMatrix(1, 2, {(1,): np.ones(3)})  # shape must be 2W+1-|m| = 4


def test_zero_diagonals_dropped():
    a = LatticeMatrix(1, 2, {(0,): np.ones(5), (1,): np.zeros(4)})
    assert a.offsets() == [(0,)]
    assert a == LatticeMatrix(1, 2, {(0,): np.ones(5)})


def test_immutable():
    a = LatticeMatrix.identity(1, 2)
    with pytest.raises(AttributeError):
        a.window = 3
    with pytest.raises(ValueError):
        a.side_diagonal(0)[0] = 5.0
    for _, arr in a.diagonals():
        with pytest.raises(ValueError):
            arr[0] = 5.0
    with pytest.raises(ValueError):
        a.offset_array()[0, 0] = 1
    assert a == LatticeMatrix.identity(1, 2)


def test_identity_side_diagonals():
    a = LatticeMatrix.identity(1, 3)
    assert np.array_equal(a.side_diagonal(0), np.ones(7))
    assert np.array_equal(a.side_diagonal(1), np.zeros(6))
    with pytest.raises(IndexError):
        a.side_diagonal(7)


def test_side_diagonal_of_exponential_profile():
    # A(k, l) = 2^{-|k-l|} on W=4; offset 2 gives seven 0.25 entries
    w = 4
    diff = offset_grid(1, w)[..., 0]
    a = LatticeMatrix.from_dense(2.0 ** (-np.abs(diff)), window=w)
    d = a.side_diagonal(2)
    assert d.shape == (7,)
    assert np.allclose(d, 0.25)


def test_band_truncate():
    a = random_matrix(1, 3)
    assert oddkit.band_truncate(a, 0) == LatticeMatrix.zeros(1, 3)
    eye = LatticeMatrix.identity(1, 3)
    assert oddkit.band_truncate(eye, 1) == eye
    b = LatticeMatrix(
        1, 3, {(0,): np.ones(7), (1,): np.ones(6), (2,): np.ones(5)}
    )
    assert oddkit.band_truncate(b, 2).offsets() == [(0,), (1,)]
    # matches dense masking
    diff = offset_grid(1, 3)[..., 0]
    dense = a.to_dense().copy()
    dense[np.abs(diff) >= 4] = 0.0
    assert oddkit.band_truncate(a, 4).allclose(LatticeMatrix.from_dense(dense, window=3))


def test_bandwidth():
    assert oddkit.bandwidth(LatticeMatrix.zeros(1, 2)) == 0
    assert oddkit.bandwidth(LatticeMatrix.identity(1, 2)) == 1
    b = LatticeMatrix(1, 3, {(0,): np.ones(7), (-2,): np.ones(5)})
    assert oddkit.bandwidth(b) == 3


def test_multiply_identity_and_single_diagonals():
    a = random_matrix(2, 3)
    eye = LatticeMatrix.identity(1, 3)
    assert oddkit.multiply(eye, a).allclose(a)
    u = single_diagonal(3, 1)
    v = single_diagonal(3, 2)
    prod = oddkit.multiply(u, v)
    assert prod.offsets() == [(3,)]
    assert np.allclose(prod.side_diagonal(3), 1.0)


def test_multiply_matches_dense():
    for dim, w in ((1, 4), (2, 2)):
        a = random_matrix(10 + dim, w, dim=dim)
        b = random_matrix(20 + dim, w, dim=dim)
        got = oddkit.multiply(a, b).to_dense()
        assert np.allclose(got, a.to_dense() @ b.to_dense(), atol=1e-12)


def test_matmul_operator():
    a = random_matrix(3, 2)
    b = random_matrix(4, 2)
    assert (a @ b).allclose(oddkit.multiply(a, b))


def test_adjoint():
    for dim, w in ((1, 4), (2, 2)):
        a = random_matrix(30 + dim, w, dim=dim)
        assert oddkit.adjoint(oddkit.adjoint(a)) == a
        assert np.allclose(oddkit.adjoint(a).to_dense(), a.to_dense().conj().T)


def test_arithmetic_matches_dense():
    a = random_matrix(5, 3)
    b = random_matrix(6, 3)
    assert np.allclose((a + b).to_dense(), a.to_dense() + b.to_dense())
    assert np.allclose((a - b).to_dense(), a.to_dense() - b.to_dense())
    assert np.allclose((2.5j * a).to_dense(), 2.5j * a.to_dense())
    assert np.allclose((-a).to_dense(), -a.to_dense())
    with pytest.raises(ValueError):
        a + random_matrix(5, 4)


def test_envelope_matches_dense_sup():
    a = random_matrix(7, 3, density=0.6)
    offs, env = a.envelope()
    dense = a.to_dense()
    diff = offset_grid(1, 3)[..., 0]
    for off, e in zip(offs, env):
        mask = diff == off[0]
        assert math.isclose(e, float(np.abs(dense[mask]).max()))
    rows = np.arange(7) >= 5  # rows k = 2, 3 only
    _, env = a.envelope(rows=rows)
    for off, e in zip(offs, env):
        mask = (diff == off[0]) & rows[:, None]
        assert e == (np.abs(dense[mask]).max() if mask.any() else -np.inf)


def test_envelope_is_kept_on_the_matrix():
    a = random_matrix(8, 5, density=0.6)
    offs, env = a.envelope()
    assert a.envelope()[1] is env and not env.flags.writeable
    lens = a.diagonal_lengths()
    fresh = np.maximum.reduceat(np.abs(a.coordinates()[2]), np.cumsum(lens) - lens)
    assert np.array_equal(env, fresh)
    with pytest.raises(ValueError):
        env[0] = 0.0
    # a row mask is evaluated afresh and leaves the kept envelope alone
    rows = np.arange(11) < 3
    _, masked = a.envelope(rows=rows)
    assert masked is not env and masked.flags.writeable
    assert (masked <= env).all() and a.envelope()[1] is env
    assert np.array_equal(a.envelope(rows=np.ones(11, dtype=bool))[1], env)
    assert LatticeMatrix.zeros(1, 2).envelope()[1].shape == (0,)


def test_modulate_fixed_points():
    a = random_matrix(8, 3)
    assert oddkit.modulate(a, 0.0) == a
    assert oddkit.modulate(a, 1.0) == a  # periodicity, bit exact
    d2 = random_matrix(9, 2, dim=2)
    assert oddkit.modulate(d2, (0.0, 1.0)) == d2
    # a non-finite t would turn every factor into NaN
    for call, t in ((oddkit.modulate, math.nan), (oddkit.difference, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            call(a, t)
    with pytest.raises(ValueError, match="finite"):
        oddkit.modulate(d2, (0.5, -math.inf))


def test_modulate_single_diagonal_quarter_turn():
    u = single_diagonal(3, 1, value=1.0)
    got = oddkit.modulate(u, 0.25).side_diagonal(1)
    assert np.allclose(got, 1j)


def test_modulate_matches_dense():
    for dim, w in ((1, 4), (2, 2)):
        a = random_matrix(40 + dim, w, dim=dim)
        diff = offset_grid(dim, w)
        for t in ([0.3] if dim == 1 else [(0.3, -0.2)]):
            got = oddkit.modulate(a, t).to_dense()
            assert np.allclose(got, dense_modulate(a.to_dense(), diff, t), atol=1e-13)


def test_modulate_group_law():
    a = random_matrix(11, 3)
    lhs = oddkit.modulate(oddkit.modulate(a, 0.37), -0.18)
    assert lhs.allclose(oddkit.modulate(a, 0.19), rtol=1e-12, atol=1e-14)


def test_difference_trivial_cases():
    a = random_matrix(12, 3)
    assert oddkit.difference(a, 0.0) == LatticeMatrix.zeros(1, 3)
    d = LatticeMatrix(1, 3, {(0,): np.ones(7)})
    assert oddkit.difference(d, 0.41, 2) == LatticeMatrix.zeros(1, 3)


def test_difference_single_diagonal_half_turn():
    u = single_diagonal(3, 1)
    got = oddkit.difference(u, 0.5).side_diagonal(1)
    assert np.allclose(got, -2.0)  # e^{i pi} - 1


def test_difference_matches_dense():
    for dim, w in ((1, 4), (2, 2)):
        a = random_matrix(50 + dim, w, dim=dim)
        diff = offset_grid(dim, w)
        t = 0.23 if dim == 1 else (0.23, 0.11)
        for order in (1, 2, 3):
            got = oddkit.difference(a, t, order).to_dense()
            want = dense_difference(a.to_dense(), diff, t, order)
            assert np.allclose(got, want, atol=1e-12)


def test_difference_binomial_identity():
    a = random_matrix(13, 3)
    t = 0.29
    for k in (1, 2, 3):
        acc = LatticeMatrix.zeros(1, 3)
        for j in range(k + 1):
            acc = acc + ((-1.0) ** (k - j) * math.comb(k, j)) * oddkit.modulate(a, j * t)
        assert oddkit.difference(a, t, k).allclose(acc, rtol=1e-12, atol=1e-13)


def test_derivation_trivial_cases():
    a = random_matrix(14, 3)
    assert oddkit.derivation(a, 0) == a
    d = LatticeMatrix(1, 3, {(0,): np.ones(7)})
    assert oddkit.derivation(d, 2) == LatticeMatrix.zeros(1, 3)


def test_derivation_single_diagonal():
    u = single_diagonal(3, 2)
    got = oddkit.derivation(u, 1).side_diagonal(2)
    assert np.allclose(got, 4j * np.pi)


def test_derivation_matches_dense():
    a1 = random_matrix(15, 4)
    diff1 = offset_grid(1, 4)
    assert np.allclose(
        oddkit.derivation(a1, 2).to_dense(),
        dense_derivation(a1.to_dense(), diff1, 2),
        atol=1e-10,
    )
    a2 = random_matrix(16, 2, dim=2)
    diff2 = offset_grid(2, 2)
    assert np.allclose(
        oddkit.derivation(a2, (1, 1)).to_dense(),
        dense_derivation(a2.to_dense(), diff2, (1, 1)),
        atol=1e-10,
    )


def test_leibniz_identity_small():
    a = random_matrix(17, 3)
    b = random_matrix(18, 3)
    t = 0.41
    lhs = oddkit.difference(a @ b, t)
    rhs = oddkit.modulate(a, t) @ oddkit.difference(b, t) + oddkit.difference(a, t) @ b
    assert lhs.allclose(rhs, rtol=1e-11, atol=1e-12)


def test_dense_round_trip():
    for dim, w in ((1, 4), (2, 2)):
        a = random_matrix(60 + dim, w, dim=dim, density=0.5)
        assert LatticeMatrix.from_dense(a.to_dense(), dim=dim, window=w) == a


def _scattered_dense(matrix):
    """Dense window matrix placed diagonal by diagonal from lattice rows."""
    n = 2 * matrix.window + 1
    shape = (n,) * matrix.dim
    dense = np.zeros((n**matrix.dim,) * 2, dtype=complex)
    for off, arr in matrix.diagonals():
        axes = [np.arange(max(m, 0), n + min(m, 0)) for m in off]
        rows = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, matrix.dim)
        cols = rows - np.asarray(off)
        dense[np.ravel_multi_index(rows.T, shape), np.ravel_multi_index(cols.T, shape)] = arr.ravel()
    return dense


def test_coordinates_and_dense_on_windows_past_the_cached_layout():
    # 1201^2 and 1089^2 dense entries: more than the cached full layouts
    # hold, so partial offset tables go through coordinates() alone
    for dim, w, band in ((1, 600, 3), (2, 16, 2)):
        a = oddkit.generate(oddkit.DecayModel("phase", 2.0, seed=dim), w, dim=dim, band=band)
        thinned = a.select(a.offset_array().sum(axis=1) % 2 == 0)
        for m in (a, thinned):
            dense = _scattered_dense(m)
            rows, cols, vals = m.coordinates()
            assert rows.dtype == cols.dtype == np.int32
            assert np.array_equal(dense[rows, cols], vals)
            assert np.count_nonzero(dense) == vals.size
            assert np.array_equal(m.to_dense(), dense)
            assert LatticeMatrix.from_dense(dense, dim=dim, window=w) == m


@pytest.mark.parametrize("width", [1, 2])
def test_block_walks_match_dense_oracles(monkeypatch, width):
    # blocks of one or two diagonals, and no cached layout, so every pass
    # walks the buffer part by part: the dense matrix, the envelope with and
    # without a row mask and the power sums keep the bits of the oracles
    cases = [random_matrix(210 + dim, w, dim=dim, density=0.7) for dim, w in ((1, 4), (2, 2))]
    cases.append(cases[1].select(cases[1].offset_array().sum(axis=1) % 3 != 1))
    cases.append(LatticeMatrix.zeros(2, 2))
    whole = [(m.to_dense(), m.diagonal_power_sums(1.5)) for m in cases]
    monkeypatch.setattr(oddkit.lattice, "_CACHED_LAYOUT_ENTRIES", 0)
    for m, (dense_want, sums_want) in zip(cases, whole):
        monkeypatch.setattr(oddkit.lattice, "_BLOCK_BYTES", 8 * m.n_rows * width)
        parts = m.diagonal_blocks()
        assert len(parts) == max(1, -(-m.offset_array().shape[0] // width))
        dense = m.to_dense()
        assert np.array_equal(dense, _scattered_dense(m)) and np.array_equal(dense, dense_want)
        diff = offset_grid(m.dim, m.window)
        offs = m.offset_array()
        rows = np.arange(m.n_rows) % 3 == 0
        assert np.array_equal(m.envelope()[1], dense_envelope(dense, diff, offs))
        assert np.array_equal(m.envelope(rows=rows)[1], dense_envelope(dense, diff, offs, rows))
        assert np.array_equal(m.diagonal_power_sums(1.5), sums_want)


@pytest.mark.parametrize("width", [1, 2])
def test_drop_zero_blocks_match_whole_buffer(monkeypatch, width):
    # zero diagonals in several blocks of one or two diagonals, next to a
    # diagonal that is zero but for one entry: the per-block reduction drops
    # what a whole-buffer test drops, through the constructor, from_dense,
    # sums and scalar multiples alike
    for dim, w in ((1, 4), (2, 2)):
        full = random_matrix(320 + dim, w, dim=dim)
        offs, buf, lens = full._offs, full._buf.copy(), full._lens
        starts = np.cumsum(lens) - lens
        count = lens.size
        zero = np.zeros(count, dtype=bool)
        zero[[0, 2, 3, count // 2, count - 1]] = True
        for i in np.flatnonzero(zero):
            buf[starts[i] : starts[i] + lens[i]] = 0
        buf[starts[1] + 1 : starts[1] + lens[1]] = 0  # one nonzero entry kept
        keep = np.array([buf[s : s + n].any() for s, n in zip(starts, lens)])
        assert np.array_equal(keep, ~zero)
        diags = {tuple(o): buf[s : s + n] for o, s, n in zip(offs.tolist(), starts, lens)}
        want = LatticeMatrix(dim, w, {o: d for o, d in diags.items() if d.any()})
        monkeypatch.setattr(oddkit.lattice, "_BLOCK_BYTES", 8 * full.n_rows * width)
        blocks = oddkit.lattice._blocks(full.n_rows, count)
        stops = [hi for _, hi in blocks]
        assert len({np.searchsorted(stops, i, side="right") for i in np.flatnonzero(zero)}) > 1
        got_offs, got_buf, got_lens = oddkit.lattice._drop_zero(full.n_rows, offs, buf, lens)
        assert np.array_equal(got_offs, offs[keep]) and np.array_equal(got_lens, lens[keep])
        kept = [diags[tuple(o)] for o in offs[keep].tolist()]
        assert np.array_equal(got_buf, np.concatenate(kept))
        a = LatticeMatrix(dim, w, diags)
        assert a == want and a.offsets() == want.offsets()
        assert LatticeMatrix.from_dense(a.to_dense(), dim=dim) == want
        # full - a is zero exactly on the diagonals a leaves as they were
        changed = zero.copy()
        changed[1] = True
        assert np.array_equal((full - a).offset_array(), offs[changed])
        assert (a * 2.0).offsets() == want.offsets()
        # every diagonal zero: every block drops all of its diagonals
        assert LatticeMatrix(dim, w, {o: 0 * d for o, d in diags.items()}).is_zero()


@pytest.mark.memory
def test_to_dense_memory_past_the_cached_layout_d2():
    import tracemalloc

    # d=2 W=24: 2401 rows, past the cached layout.  The scatter runs block by
    # block into the preallocated section, so the call holds the 88 MB
    # section and one block's coordinates; the coordinates of the whole
    # buffer took 22 MB more.
    a = oddkit.generate(oddkit.DecayModel("mag", 2.5, seed=7), 24, dim=2)
    tracemalloc.start()
    try:
        dense = a.to_dense()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= dense.nbytes + 2 * oddkit.lattice._BLOCK_BYTES, (peak - dense.nbytes) / 2**20


@pytest.mark.memory
def test_first_envelope_memory_d2():
    import tracemalloc

    # |entries| of one block at a time: the first envelope of an 88 MB
    # buffer stays within the block budget, where |entries| of the whole
    # buffer took 44 MB
    a = oddkit.generate(oddkit.DecayModel("mag", 2.5, seed=7), 24, dim=2)
    tracemalloc.start()
    try:
        a.envelope()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * oddkit.lattice._BLOCK_BYTES, peak / 2**20


def test_json_round_trip_bit_exact(tmp_path):
    for dim, w in ((1, 5), (2, 2)):
        a = random_matrix(70 + dim, w, dim=dim, density=0.7)
        path = tmp_path / f"m{dim}.json"
        oddkit.save_json(a, path)
        assert oddkit.load_json(path) == a  # == is bit-exact equality
    d = oddkit.to_json_dict(a)
    assert d["dim"] == 2 and d["window"] == 2
    assert oddkit.from_json_dict(d) == a


def test_csv_import(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# k, l, re, im\n0,0,1.0,0.0\n1,0,0.5,-0.5\n-2,1,0.0,2.0\n")
    a = oddkit.load_csv(path)
    assert a.window == 2
    dense = a.to_dense()
    assert dense[2, 2] == 1.0
    assert dense[3, 2] == 0.5 - 0.5j
    assert dense[0, 3] == 2.0j


def test_equality_and_hash():
    a = random_matrix(19, 2)
    b = LatticeMatrix(1, 2, dict(a.diagonals()))
    assert a == b and hash(a) == hash(b)
    assert a != LatticeMatrix.identity(1, 2)
    assert a != "not a matrix"


def test_constructor_refuses_non_finite_and_duplicates():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        vals = np.ones(4, dtype=complex)
        vals[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            LatticeMatrix(1, 2, {(0,): np.ones(5), (1,): vals})
    with pytest.raises(ValueError, match="duplicate"):
        LatticeMatrix(1, 2, [((1,), np.ones(4)), ((0,), np.ones(5)), ((1,), np.ones(4))])
    with pytest.raises(ValueError, match="duplicate"):
        LatticeMatrix(1, 2, [(0, np.ones(5)), ((0,), np.ones(5))])  # bare int and tuple
    with pytest.raises(ValueError, match="duplicate"):
        LatticeMatrix(2, 1, [((0, 1), np.ones((3, 2))), ((0, 1), np.zeros((3, 2)))])
    dense = np.eye(5, dtype=complex)
    dense[0, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        LatticeMatrix.from_dense(dense)


def test_non_finite_multipliers_refused():
    # a NaN or infinite factor or scalar is refused, not stored; the
    # derivation overflows to inf at alpha = 400
    a = random_matrix(81, 3, density=0.8)
    for call in (
        lambda: oddkit.bessel_convolve(a, np.nan),
        lambda: oddkit.bessel_convolve(a, -np.inf),
        lambda: np.nan * a,
        lambda: a * np.inf,
        lambda: a.scale_diagonals(lambda o: np.full(len(o), np.nan)),
        lambda: oddkit.derivation(a, (400,)),
    ):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                call()


def test_json_refuses_non_finite_and_duplicates():
    a = random_matrix(80, 2, density=0.8)
    payload = oddkit.to_json_dict(a)
    bad = json.loads(json.dumps(payload))
    bad["diagonals"][1]["re"][0] = float("nan")
    with pytest.raises(ValueError, match="non-finite"):
        oddkit.from_json_dict(bad)
    dup = json.loads(json.dumps(payload))
    dup["diagonals"].append(dict(dup["diagonals"][0]))
    with pytest.raises(ValueError, match="duplicate"):
        oddkit.from_json_dict(dup)
    assert oddkit.from_json_dict(payload) == a


def test_csv_refuses_non_finite_and_duplicates(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0,0,1.0,0.0\n1,0,nan,0.0\n")
    with pytest.raises(ValueError, match="non-finite"):
        oddkit.load_csv(path)
    path.write_text("0,0,1.0,0.0\n1,0,0.5,0.0\n1,0,0.25,0.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        oddkit.load_csv(path)


def test_diagonal_primitives_match_dense():
    a = random_matrix(81, 3, density=0.5)
    dense = a.to_dense()
    diff = offset_grid(1, 3)[..., 0]
    offs = a.offset_array()
    assert not a.is_zero() and LatticeMatrix.zeros(1, 3).is_zero()
    rows, cols, vals = a.coordinates()
    assert np.array_equal(dense[rows, cols], vals)
    assert a.diagonal_lengths().tolist() == [arr.size for _, arr in a.diagonals()]
    # a run of consecutive diagonals is a view on the same buffer
    part = a.diagonal_slice(3, 9)
    assert part.offsets() == [tuple(o) for o in offs[3:9]]
    assert np.shares_memory(part.coordinates()[2], vals)
    assert np.array_equal(part.to_dense(), np.where(np.isin(diff, offs[3:9, 0]), dense, 0.0))
    sums = a.diagonal_power_sums(2.0)
    for off, s in zip(offs, sums):
        assert math.isclose(s, float((np.abs(dense[diff == off[0]]) ** 2).sum()), rel_tol=1e-13)
    mask = offs[:, 0] % 2 == 0
    sub = a.select(mask)
    assert sub.offsets() == [tuple(o) for o in offs[mask]]
    assert np.array_equal(sub.to_dense(), np.where(diff % 2 == 0, dense, 0.0))
    b = random_matrix(82, 3, density=0.5)
    assert a.max_abs_diff(b) == float(np.abs(dense - b.to_dense()).max())
    assert a.max_abs_diff(a) == 0.0

