"""Property tests: the packed diagonal layout against the dense oracles.

Each example draws a lattice dimension, a window, a band and a set of
diagonals to zero out, fills the rest from a seeded generator (with some
entrywise zeros), and compares every diagonal-layout operation with the
same operation done entrywise on the dense window matrix.
"""

import json
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oddkit
from oddkit import LatticeMatrix
from oddkit.norms import _diag_matvec

from conftest import (
    coo_operator,
    dense_cpr,
    dense_difference,
    dense_modulate,
    dense_schur,
    offset_grid,
)

SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def dense_cases(draw):
    """(dim, window, dense matrix, row-minus-column offset grid)."""
    dim = draw(st.sampled_from((1, 2)))
    window = draw(st.integers(1, 6))
    band = draw(st.integers(0, 2 * window))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    diff = offset_grid(dim, window)
    n = diff.shape[0]
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense[rng.random((n, n)) < draw(st.sampled_from((0.0, 0.3)))] = 0.0
    dense[np.abs(diff).max(axis=-1) > band] = 0.0
    # zero out a random set of whole diagonals
    side = 4 * window + 1
    killed = rng.random((side,) * dim) < draw(st.sampled_from((0.0, 0.5)))
    dense[killed[tuple(np.moveaxis(diff + 2 * window, -1, 0))]] = 0.0
    return dim, window, dense, diff


def stored_offsets(dense, diff):
    nonzero = diff[dense != 0]
    return sorted({tuple(int(v) for v in m) for m in nonzero})


@SETTINGS
@given(dense_cases())
def test_dense_round_trip_and_canonical_offsets(case):
    dim, window, dense, diff = case
    a = LatticeMatrix.from_dense(dense, dim=dim, window=window)
    assert np.array_equal(a.to_dense(), dense)
    assert a.offsets() == stored_offsets(dense, diff)
    assert a.is_zero() == (not dense.any())
    assert LatticeMatrix(dim, window, dict(a.diagonals())) == a


@SETTINGS
@given(dense_cases())
def test_coordinates_scatter_and_sparse_products_match_dense(case):
    dim, window, dense, _ = case
    a = LatticeMatrix.from_dense(dense, dim=dim, window=window)
    rows, cols, vals = a.coordinates()
    assert rows.dtype == cols.dtype == np.int32
    stored = sum(arr.size for _, arr in a.diagonals())
    assert rows.size == cols.size == vals.size == stored
    scattered = np.zeros_like(dense)
    scattered[rows, cols] = vals
    assert np.array_equal(scattered, dense)
    n = dense.shape[0]
    assert np.unique(rows.astype(np.int64) * n + cols).size == rows.size
    op = coo_operator(a)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.allclose(_diag_matvec(op, x), dense @ x, rtol=1e-12, atol=1e-12)
    assert np.allclose(
        _diag_matvec(op.T, x, conj=True), dense.conj().T @ x, rtol=1e-12, atol=1e-12
    )


@SETTINGS
@given(dense_cases())
def test_envelope_is_dense_sup_per_offset(case):
    dim, window, dense, diff = case
    a = LatticeMatrix.from_dense(dense, dim=dim, window=window)
    offs, env = a.envelope()
    assert env.shape == (offs.shape[0],)
    for off, e in zip(offs, env):
        mask = (diff == off).all(axis=-1)
        assert e == np.abs(dense[mask]).max()


@SETTINGS
@given(dense_cases(), st.floats(-1.0, 1.0), st.integers(1, 3))
def test_multipliers_match_dense(case, s, order):
    dim, window, dense, diff = case
    a = LatticeMatrix.from_dense(dense, dim=dim, window=window)
    t = (s,) * dim if dim == 1 else (s, 0.5 - s)
    assert np.allclose(
        oddkit.modulate(a, t).to_dense(), dense_modulate(dense, diff, t), rtol=1e-12, atol=1e-12
    )
    assert np.allclose(
        oddkit.difference(a, t, order).to_dense(),
        dense_difference(dense, diff, t, order),
        rtol=1e-12,
        atol=1e-12,
    )
    # an integer multiplier with zeros: the zeroed diagonals are dropped
    factor = lambda m: (m.sum(axis=-1) % 3) - 1.0  # noqa: E731
    scaled = a.scale_diagonals(factor)
    assert np.array_equal(scaled.to_dense(), dense * factor(diff))
    assert scaled.offsets() == stored_offsets(dense * factor(diff), diff)


@SETTINGS
@given(dense_cases())
def test_adjoint_is_conjugate_transpose(case):
    dim, window, dense, _ = case
    a = LatticeMatrix.from_dense(dense, dim=dim, window=window)
    adj = oddkit.adjoint(a)
    assert np.array_equal(adj.to_dense(), dense.conj().T)
    assert adj == LatticeMatrix.from_dense(dense.conj().T, dim=dim, window=window)


@SETTINGS
@given(dense_cases(), st.integers(0, 13))
def test_band_truncate_masks_dense(case, n):
    dim, window, dense, diff = case
    a = LatticeMatrix.from_dense(dense, dim=dim, window=window)
    masked = np.where(np.abs(diff).max(axis=-1) < n, dense, 0.0)
    assert oddkit.band_truncate(a, n) == LatticeMatrix.from_dense(masked, dim=dim, window=window)


@SETTINGS
@given(dense_cases(), st.sampled_from((1.0, 2.0, 3.5, math.inf)), st.sampled_from((0.0, 1.5)))
def test_schur_and_literal_cpr_match_dense(case, p, r):
    dim, window, dense, diff = case
    a = LatticeMatrix.from_dense(dense, dim=dim, window=window)
    with warnings.catch_warnings():
        # (p, r) outside the algebra range only warns
        warnings.simplefilter("ignore", oddkit.ParameterDomainWarning)
        schur = oddkit.schur_norm(a, p, r)
        cpr = oddkit.cpr_norm(a, p, r, literal=True)
    assert math.isclose(schur, dense_schur(dense, diff, p, r), rel_tol=1e-12)
    assert math.isclose(cpr, dense_cpr(a, p, r, literal=True), rel_tol=1e-12)


@SETTINGS
@given(dense_cases())
def test_json_round_trip_is_bit_exact(case):
    dim, window, dense, _ = case
    a = LatticeMatrix.from_dense(dense, dim=dim, window=window)
    text = json.dumps(oddkit.to_json_dict(a))
    b = oddkit.from_json_dict(json.loads(text))
    assert b == a
    assert json.dumps(oddkit.to_json_dict(b)) == text
