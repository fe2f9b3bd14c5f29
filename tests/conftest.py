"""Shared dense-matrix oracles.

Everything here works entrywise on the dense window matrix, deliberately
ignoring the package's diagonal-major layout, so agreement between the two
is a real cross-check rather than the same code run twice.  The one
exception is ``coo_operator``, which builds the sparse operator under test.
"""

import math

import numpy as np
import pytest

from oddkit import LatticeMatrix


def offset_grid(dim, window):
    """(R, R, dim) array of row-minus-column lattice offsets for the dense
    layout used by LatticeMatrix.to_dense."""
    idx = np.arange(-window, window + 1)
    if dim == 1:
        return (idx[:, None] - idx[None, :])[..., None]
    k1, k2 = np.meshgrid(idx, idx, indexing="ij")
    flat = np.stack([k1.ravel(), k2.ravel()], axis=1)
    return flat[:, None, :] - flat[None, :, :]


def dense_poly_weight(diff, r):
    return (1.0 + np.sqrt((diff.astype(float) ** 2).sum(axis=-1))) ** r


def dense_jaffard(dense, diff, r):
    return float((dense_poly_weight(diff, r) * np.abs(dense)).max())


def dense_schur(dense, diff, p, r):
    w = dense_poly_weight(diff, r)
    mags = np.abs(dense)
    if math.isinf(p):
        rows = (w * mags).max(axis=1)
        cols = (w * mags).max(axis=0)
    else:
        rows = ((w * mags) ** p).sum(axis=1) ** (1.0 / p)
        cols = ((w * mags) ** p).sum(axis=0) ** (1.0 / p)
    return float(max(rows.max(), cols.max()))


def dense_cpr(matrix, p, r, literal=False):
    """Diagonal-sup (or literal p-sum) version computed straight from the
    stored diagonals with scalar loops."""
    terms = []
    for off, arr in matrix.diagonals():
        w = (1.0 + math.sqrt(sum(m * m for m in off))) ** r
        if literal and not math.isinf(p):
            terms.append(sum((w * abs(v)) ** p for v in arr.ravel()))
        elif math.isinf(p):
            terms.append(w * max(abs(v) for v in arr.ravel()))
        else:
            terms.append((w * max(abs(v) for v in arr.ravel())) ** p)
    if math.isinf(p):
        return max(terms) if terms else 0.0
    return sum(terms) ** (1.0 / p)


def dense_modulate(dense, diff, t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return dense * np.exp(2j * np.pi * (diff * t).sum(axis=-1))


def dense_difference(dense, diff, t, order=1):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return dense * (np.exp(2j * np.pi * (diff * t).sum(axis=-1)) - 1.0) ** order


def dense_derivation(dense, diff, alpha):
    alpha = np.atleast_1d(np.asarray(alpha))
    factor = np.ones(diff.shape[:2], dtype=np.complex128)
    for axis, a in enumerate(alpha):
        factor = factor * (2j * np.pi * diff[..., axis]) ** int(a)
    return dense * factor


def dense_envelope(dense, diff, offsets, rows=None):
    """Per-offset sup of |entries| of the dense matrix over the entries
    whose row-minus-column offset is that offset, restricted to the rows of
    the boolean mask ``rows`` when given (-inf where none is left)."""
    mags = np.abs(dense)
    if rows is not None:
        mags[~np.asarray(rows)] = -np.inf
    return np.array([mags[(diff == off).all(axis=-1)].max() for off in offsets])


def whole_buffer_generate(model, window, dim=1, band=None):
    """``lab.generate`` with one envelope and one draw for the whole buffer:
    the expressions of a single pass over every diagonal in sorted offset
    order, the oracle of the block-by-block fill."""
    band = 2 * window if band is None else band
    axis = np.arange(-band, band + 1)
    offs = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    shapes = [tuple(2 * window + 1 - abs(m) for m in off) for off in offs.tolist()]
    lens = [math.prod(shape) for shape in shapes]
    env = [(1.0 + math.sqrt(sum(m * m for m in off))) ** -model.exponent for off in offs.tolist()]
    env = np.repeat(model.amplitude * np.array(env), lens)
    rng = np.random.default_rng(model.seed)
    if model.kind == "det":
        buf = env.astype(np.complex128)
    elif model.kind == "phase":
        buf = env * np.exp(2j * np.pi * rng.random(env.size))
    else:
        buf = (env * rng.random(env.size)).astype(np.complex128)
    stops = np.cumsum(lens).tolist()
    diags = {
        tuple(off): buf[stop - size : stop].reshape(shape)
        for off, shape, size, stop in zip(offs.tolist(), shapes, lens, stops)
    }
    return LatticeMatrix(dim, window, diags)


def random_matrix(seed, window, dim=1, density=1.0, scale=1.0):
    """Small dense-random test matrix with every diagonal populated."""
    rng = np.random.default_rng(seed)
    n = (2 * window + 1) ** dim
    dense = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    if density < 1.0:
        dense[rng.random((n, n)) >= density] = 0.0
    return LatticeMatrix.from_dense(dense, dim=dim, window=window)


def coo_operator(matrix):
    """The window matrix as a complex scipy COO array on
    ``matrix.coordinates()``: the operator ``op_norm_l2`` multiplies through
    for a complex section past the dense switch with fewer than rows^2 / 2
    stored entries (real sections take float64, fuller ones the dense
    section)."""
    from scipy.sparse import coo_array

    rows, cols, vals = matrix.coordinates()
    return coo_array((vals, (rows, cols)), shape=(matrix.n_rows,) * 2)


def single_diagonal(window, offset, value=1.0, dim=1):
    if dim == 1 and np.isscalar(offset):
        offset = (int(offset),)
    shape = tuple(2 * window + 1 - abs(m) for m in offset)
    return LatticeMatrix(dim, window, {offset: np.full(shape, value, dtype=complex)})


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
