"""Diagonal-major complex matrices on finite windows of the integer lattice.

A matrix lives on the index window [-W, W]^d (d = 1 or 2) and is stored by
side diagonals: for each offset m with \\|m\\|_inf <= 2W the entries A(k, k-m)
are kept as a d-dimensional array over the rows k for which both k and k-m
lie in the window.  The matrix is the sum of its side diagonals, and every
translation-covariant operation (modulation, finite differences, the
derivation) acts as a scalar multiplier on each diagonal, which is why this
layout is the native one throughout the package.

Row order inside a diagonal is ascending in k (per axis for d = 2), so the
array for offset m has shape ``(2W+1-|m_1|, ..., 2W+1-|m_d|)``.

All stored diagonals share one packed, read-only complex128 buffer: an
(M, d) offset table in lexicographic order, and for each diagonal its start
index and length in the buffer, its rows flattened in C order.  A multiplier
on the diagonals is then one vector operation on the buffer (``buf *
np.repeat(f, lengths)``), a per-diagonal reduction is a ``reduceat`` over
the start indices, and the dense row and column of every entry come in
O(stored entries).  The dense window matrix is one scatter through a flat
map cached per (d, W) up to 2^20 dense entries.

Six passes walk the buffer in blocks of consecutive diagonals
(:meth:`LatticeMatrix.diagonal_blocks`), each of at most ``_BLOCK_BYTES //
(8 n_rows)`` diagonals: the dense matrix past the cached layout, the
envelope and the per-diagonal power sums here, the Schur line sums and the
dense op-norm operator of ``norms``, and the buffer that ``lab.generate``
fills.  No diagonal is longer than n_rows, so the float64 temporaries of a
block stay under the one byte budget ``_BLOCK_BYTES`` (4 MB) however large
the window.  A window whose diagonals all fit in one block is its own one
block and takes the whole buffer at once.  Only this module reads the
layout; the rest of the package goes through :class:`LatticeMatrix`.

Lattice indices are plain tuples of ints; offsets may be given as bare ints
when d = 1.
"""

from __future__ import annotations

import csv
import functools
import json
import math

import numpy as np

__all__ = [
    "LatticeMatrix",
    "adjoint",
    "band_truncate",
    "bandwidth",
    "derivation",
    "difference",
    "from_json_dict",
    "load_csv",
    "load_json",
    "modulate",
    "multiply",
    "save_json",
    "to_json_dict",
]


def _as_offset(offset, dim):
    if np.isscalar(offset):
        if dim != 1:
            raise ValueError("scalar offset only valid for dim=1")
        return (int(offset),)
    offset = tuple(int(v) for v in offset)
    if len(offset) != dim:
        raise ValueError(f"offset {offset} has wrong length for dim={dim}")
    return offset


def _lengths(window, offs):
    """Number of entries of each diagonal of an (M, d) offset table."""
    return np.prod(2 * window + 1 - np.abs(offs), axis=1)


def _ranges(starts, lens):
    """Concatenation of arange(s, s + l) over the pairs (s, l)."""
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.intp)
    shift = starts - (np.cumsum(lens) - lens)
    return np.repeat(shift, lens) + np.arange(total)


def _keys(window, offs):
    """Rank of each offset among all offsets of the window, lexicographically."""
    side = 4 * window + 1
    keys = np.zeros(offs.shape[0], dtype=np.int64)
    for j in range(offs.shape[1]):
        keys = keys * side + (offs[:, j] + 2 * window)
    return keys


def _coordinates(window, offs, lens):
    """Dense row and column (int32 where that fits) of every entry of a
    buffer laid out on the sorted offset table ``offs``."""
    dim = offs.shape[1]
    n = 2 * window + 1
    extent = n - np.abs(offs)
    powers = n ** np.arange(dim - 1, -1, -1)
    # The buffer is a run of lines along the last axis, and along a line
    # both the row and the column step by one: each line needs only its
    # first row minus its buffer position, and col = row - m . powers.
    per_diag = extent[:, :-1].prod(axis=1)
    diag = np.repeat(np.arange(offs.shape[0]), per_diag)
    line = np.arange(diag.size) - np.repeat(np.cumsum(per_diag) - per_diag, per_diag)
    line_len = extent[diag, -1]
    shift = np.maximum(offs, 0) @ powers - (np.cumsum(lens) - lens)
    shift = shift[diag] + line * (powers[0] - line_len)
    total = int(lens.sum())
    dtype = np.int32 if max(total, n**dim) < 2**31 else np.intp
    rows = np.repeat(shift.astype(dtype), line_len)
    rows += np.arange(total, dtype=dtype)
    cols = np.repeat(-(offs @ powers).astype(dtype), lens)
    cols += rows
    return rows, cols


# Full layouts of at most this many entries (4 MB of int32 index map) are
# cached.  Past that, to_dense maps only the stored entries and from_dense
# rebuilds the layout per call, a few passes over the map against the
# O(n^3) dense work that windows of that size go with.
_CACHED_LAYOUT_ENTRIES = 2**20


# Bytes of the float64 temporaries of one block of diagonals, and of one
# stack of multiplier products in norms: the one budget of every pass that
# walks a buffer or a stack in pieces.
_BLOCK_BYTES = 2**22


def _blocks(n_rows, count):
    """``(start, stop)`` of the runs of consecutive diagonals, out of
    ``count``, that make one block each: at most ``_BLOCK_BYTES // (8
    n_rows)`` diagonals, whose entries then take at most ``_BLOCK_BYTES``
    as float64.  Diagonals that all fit make the one run (0, count)."""
    step = max(1, _BLOCK_BYTES // (8 * n_rows))
    return [(i, min(i + step, count)) for i in range(0, max(count, 1), step)]


def _small_layout(dim, window):
    """The cached full layout of a window of at most _CACHED_LAYOUT_ENTRIES
    dense entries, None for a larger window."""
    if (2 * window + 1) ** (2 * dim) <= _CACHED_LAYOUT_ENTRIES:
        return _cached_layout(dim, window)
    return None


def _offset_table(dim, window, band):
    """Every offset with |m|_inf <= band in sorted order, and the length of
    each diagonal in the window."""
    axis = np.arange(-band, band + 1, dtype=np.int64)
    offs = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    return offs, _lengths(window, offs)


def _build_layout(dim, window):
    """Every offset of the window in sorted order, the buffer start and
    length of each diagonal and, for each entry of the full buffer, its
    index in the flattened dense window matrix (int32 where that fits)."""
    offs, lens = _offset_table(dim, window, 2 * window)
    rows, cols = _coordinates(window, offs, lens)
    flat = _flat_index((2 * window + 1) ** dim, rows, cols)
    layout = (offs, np.cumsum(lens) - lens, lens, flat)
    for arr in layout:
        arr.setflags(write=False)
    return layout


_cached_layout = functools.lru_cache(maxsize=8)(_build_layout)


def _flat_index(n, rows, cols):
    """rows * n + cols, the flat positions in an n x n matrix, formed in
    ``rows`` in place where n^2 fits its dtype (int32 up to 46340 rows)."""
    flat = rows if n * n <= np.iinfo(rows.dtype).max else rows.astype(np.intp)
    flat *= n
    flat += cols
    return flat


class LatticeMatrix:
    """Finite-window matrix over Z^d stored diagonal by diagonal.

    Parameters
    ----------
    dim : int
        Lattice dimension, 1 or 2.
    window : int
        Half-width W of the index window [-W, W]^d.
    diagonals : mapping or iterable of (offset, array)
        Entries A(k, k-m) per offset m.  Arrays are converted to complex128
        and must have the admissible-row shape (or size) for their offset.
        Offsets must be distinct and entries finite.  Diagonals that are
        identically zero are dropped, so the stored representation is
        canonical and ``==`` means entrywise equality.

    Instances are immutable; the packed buffer is marked read-only, and so
    is every diagonal view handed out.
    """

    __slots__ = ("dim", "window", "_offs", "_buf", "_starts", "_lens", "_env")

    def __init__(self, dim, window, diagonals=()):
        dim = int(dim)
        window = int(window)
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if window < 1:
            raise ValueError("window must be >= 1")
        items = list(diagonals.items() if hasattr(diagonals, "items") else diagonals)
        offs = np.array([_as_offset(off, dim) for off, _ in items], dtype=np.int64)
        offs = offs.reshape(len(items), dim)
        outside = np.abs(offs).max(axis=1, initial=0) > 2 * window
        if outside.any():
            off = tuple(offs[np.argmax(outside)].tolist())
            raise IndexError(f"offset {off} outside window of half-width {window}")
        lens = _lengths(window, offs)
        arrays = []
        for (_, arr), off, size in zip(items, offs.tolist(), lens.tolist()):
            arr = np.asarray(arr, dtype=np.complex128)
            if arr.size != size:
                shape = tuple(2 * window + 1 - abs(m) for m in off)
                raise ValueError(
                    f"diagonal {tuple(off)}: expected shape {shape}, got {arr.shape}"
                )
            arrays.append(arr.ravel())
        order = np.lexsort(offs.T[::-1])
        offs, lens = offs[order], lens[order]
        same = (offs[1:] == offs[:-1]).all(axis=1)
        if same.any():
            raise ValueError(f"duplicate offset {tuple(offs[np.argmax(same)].tolist())}")
        if arrays:
            buf = np.concatenate([arrays[i] for i in order])
        else:
            buf = np.zeros(0, dtype=np.complex128)
        finite = np.isfinite(buf)
        if not finite.all():
            pos = int(np.argmin(finite))
            diag = int(np.searchsorted(np.cumsum(lens), pos, side="right"))
            raise ValueError(f"diagonal {tuple(offs[diag].tolist())}: non-finite entry")
        self._init(dim, window, *_drop_zero((2 * window + 1) ** dim, offs, buf, lens))

    def _init(self, dim, window, offs, buf, lens):
        for arr in (offs, buf, lens):
            arr.setflags(write=False)
        starts = np.cumsum(lens) - lens
        starts.setflags(write=False)
        for name, value in (
            ("dim", dim),
            ("window", window),
            ("_offs", offs),
            ("_buf", buf),
            ("_starts", starts),
            ("_lens", lens),
            ("_env", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("LatticeMatrix is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _raw(cls, dim, window, offs, buf, lens):
        """Internal: wrap an already-canonical layout without checks or copies."""
        obj = object.__new__(cls)
        obj._init(dim, window, offs, buf, lens)
        return obj

    @classmethod
    def zeros(cls, dim, window):
        return cls(dim, window)

    @classmethod
    def identity(cls, dim, window):
        shape = (2 * window + 1,) * dim
        return cls(dim, window, {(0,) * dim: np.ones(shape)})

    @classmethod
    def from_dense(cls, dense, dim=1, window=None):
        """Build from a dense window matrix.

        For d = 1 ``dense`` is (2W+1) x (2W+1) with row index k + W.  For
        d = 2 it is (2W+1)^2 x (2W+1)^2 with rows flattened in C order,
        i.e. index (k1 + W) * (2W+1) + (k2 + W).  Non-finite entries are
        refused.
        """
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("dense window matrix must be square")
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        n_rows = dense.shape[0]
        side = math.isqrt(n_rows) if dim == 2 else n_rows
        if side**dim != n_rows:
            raise ValueError("dense size is not a perfect square for dim=2")
        if window is None:
            window = (side - 1) // 2
        if side != 2 * window + 1 or window < 1:
            raise ValueError("dense size does not match window")
        offs, _, lens, flat = _small_layout(dim, window) or _build_layout(dim, window)
        # gather before widening: no complex copy of a real matrix
        buf = dense.ravel()[flat].astype(np.complex128, copy=False)
        if not np.isfinite(buf).all():
            raise ValueError("dense matrix has non-finite entries")
        return cls._raw(dim, window, *_drop_zero(n_rows, offs, buf, lens))

    # -- basic queries --------------------------------------------------------

    @property
    def n_rows(self):
        return (2 * self.window + 1) ** self.dim

    def offsets(self):
        """Sorted list of stored diagonal offsets."""
        return [tuple(off) for off in self._offs.tolist()]

    def offset_array(self):
        """Stored offsets as a read-only (M, dim) int array, lexicographically
        sorted."""
        return self._offs

    def is_zero(self):
        """True when no diagonal is stored, i.e. the matrix is zero."""
        return self._buf.size == 0

    def diagonals(self):
        """Iterate over (offset, read-only array) in sorted offset order."""
        shapes = (2 * self.window + 1 - np.abs(self._offs)).tolist()
        stops = np.cumsum(self._lens).tolist()
        for off, shape, start, stop in zip(
            self._offs.tolist(), shapes, self._starts.tolist(), stops
        ):
            yield tuple(off), self._buf[start:stop].reshape(shape)

    def side_diagonal(self, offset):
        """Entries A(k, k-m) for the given offset, zeros if not stored."""
        offset = _as_offset(offset, self.dim)
        if max(abs(m) for m in offset) > 2 * self.window:
            raise IndexError(f"offset {offset} outside window of half-width {self.window}")
        shape = tuple(2 * self.window + 1 - abs(m) for m in offset)
        keys = _keys(self.window, self._offs)
        key = _keys(self.window, np.asarray([offset]))[0]
        i = int(np.searchsorted(keys, key))
        if i == keys.size or keys[i] != key:
            return np.zeros(shape, dtype=np.complex128)
        start = int(self._starts[i])
        return self._buf[start : start + int(self._lens[i])].reshape(shape)

    def envelope(self, rows=None):
        """Per-diagonal sup of |entries|, aligned with :meth:`offset_array`;
        computed once and kept on the matrix, read-only.

        With ``rows``, a boolean mask over the rows of :meth:`to_dense`, the
        sup runs over the entries in those rows, and is -inf for a diagonal
        that has none; that result is computed afresh and not kept.
        """
        if rows is None and self._env is not None:
            return self._offs, self._env

        def mags(part):
            out = np.abs(part._buf)
            if rows is not None:
                out[~np.asarray(rows)[part.coordinates()[0]]] = -np.inf
            return out

        env = self._reduce_blocks(np.maximum, mags)
        if rows is None:
            env.setflags(write=False)
            object.__setattr__(self, "_env", env)
        return self._offs, env

    def diagonal_power_sums(self, p):
        """Per-diagonal sum of |entries|^p, aligned with :meth:`offset_array`."""
        return self._reduce_blocks(np.add, lambda part: np.abs(part._buf) ** p)

    def _reduce_blocks(self, ufunc, entries):
        """``ufunc.reduceat`` over every stored diagonal of ``entries(part)``,
        the per-entry values of each part of :meth:`diagonal_blocks`: one
        number per diagonal, aligned with :meth:`offset_array`."""
        return np.concatenate(
            [ufunc.reduceat(entries(part), part._starts) for _, part in self.diagonal_blocks()]
        )

    def coordinates(self):
        """``(rows, cols, values)``: the :meth:`to_dense` row and column
        (int32) of every buffer entry in buffer order, and the read-only
        buffer; computed from the stored offsets in O(stored entries)."""
        rows, cols = _coordinates(self.window, self._offs, self._lens)
        return rows, cols, self._buf

    def diagonal_lengths(self):
        """Number of stored entries of each diagonal, aligned with
        :meth:`offset_array` (read-only)."""
        return self._lens

    def diagonal_slice(self, start, stop):
        """The matrix made of the stored diagonals start..stop-1, in
        :meth:`offset_array` order (0 <= start < number of diagonals): a view
        on this one's buffer, no copy."""
        lens = self._lens[start:stop]
        at = int(self._starts[start])
        buf = self._buf[at : at + int(lens.sum())]
        return LatticeMatrix._raw(self.dim, self.window, self._offs[start:stop], buf, lens)

    def diagonal_blocks(self):
        """``(start, part)`` for each block of consecutive stored diagonals:
        ``part`` is :meth:`diagonal_slice` (start, stop), a view holding at
        most ``_BLOCK_BYTES // (8 n_rows)`` diagonals.  A matrix whose
        diagonals all fit is its own one part."""
        count = self._offs.shape[0]
        return [
            (start, self if stop - start == count else self.diagonal_slice(start, stop))
            for start, stop in _blocks(self.n_rows, count)
        ]

    def to_dense(self):
        return self._dense(np.complex128)

    def _dense(self, dtype):
        """The dense window matrix in ``dtype``, float64 taking the real
        parts: one scatter through the cached layout, else one per part of
        :meth:`diagonal_blocks` into the preallocated section."""
        n = self.n_rows
        dense = np.zeros(n * n, dtype=dtype)
        real = dense.dtype != self._buf.dtype
        layout = _small_layout(self.dim, self.window)
        if layout is not None:
            full_offs, full_starts, _, flat = layout
            if self._offs.shape[0] < full_offs.shape[0]:
                flat = flat[_ranges(full_starts[_keys(self.window, self._offs)], self._lens)]
            dense[flat] = self._buf.real if real else self._buf
            return dense.reshape(n, n)
        for _, part in self.diagonal_blocks():
            rows, cols, vals = part.coordinates()  # no window-sized map
            dense[_flat_index(n, rows, cols)] = vals.real if real else vals
        return dense.reshape(n, n)

    # -- algebra --------------------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, LatticeMatrix):
            raise TypeError("expected a LatticeMatrix")
        if self.dim != other.dim or self.window != other.window:
            raise ValueError(
                f"window mismatch: (dim={self.dim}, W={self.window}) vs "
                f"(dim={other.dim}, W={other.window})"
            )

    def _aligned(self, other):
        """Both buffers on the union of the two offset tables (zero-filled):
        (offsets, lengths, self's buffer, other's buffer)."""
        if np.array_equal(self._offs, other._offs):
            return self._offs, self._lens, self._buf, other._buf
        mine = _keys(self.window, self._offs)
        theirs = _keys(self.window, other._offs)
        union = np.union1d(mine, theirs)
        at_mine = np.searchsorted(union, mine)
        at_theirs = np.searchsorted(union, theirs)
        offs = np.empty((union.size, self.dim), dtype=np.int64)
        offs[at_mine] = self._offs
        offs[at_theirs] = other._offs
        lens = _lengths(self.window, offs)
        starts = np.cumsum(lens) - lens
        out = []
        for src, at in ((self, at_mine), (other, at_theirs)):
            if at.size == union.size:
                out.append(src._buf)  # already on the union
                continue
            buf = np.zeros(int(lens.sum()), dtype=np.complex128)
            buf[_ranges(starts[at], src._lens)] = src._buf
            out.append(buf)
        return offs, lens, out[0], out[1]

    def __add__(self, other):
        self._check_compatible(other)
        offs, lens, a, b = self._aligned(other)
        return LatticeMatrix._raw(
            self.dim, self.window, *_drop_zero(self.n_rows, offs, a + b, lens)
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        scalar = complex(scalar)
        if not np.isfinite(scalar):
            raise ValueError(f"non-finite scalar {scalar}")
        if scalar == 0:
            return LatticeMatrix(self.dim, self.window)
        return LatticeMatrix._raw(
            self.dim,
            self.window,
            *_drop_zero(self.n_rows, self._offs, self._buf * scalar, self._lens),
        )

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __matmul__(self, other):
        return multiply(self, other)

    def __eq__(self, other):
        if not isinstance(other, LatticeMatrix):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.window == other.window
            and np.array_equal(self._offs, other._offs)
            and np.array_equal(self._buf, other._buf)
        )

    def __hash__(self):
        return hash((self.dim, self.window, self._offs.tobytes()))

    def allclose(self, other, rtol=1e-12, atol=1e-14):
        if self.dim != other.dim or self.window != other.window:
            return False
        _, _, a, b = self._aligned(other)
        return bool(np.allclose(a, b, rtol=rtol, atol=atol))

    def max_abs_diff(self, other):
        """Largest |A(k, l) - B(k, l)| over the window (0 when both are zero)."""
        self._check_compatible(other)
        _, _, a, b = self._aligned(other)
        return float(np.abs(a - b).max(initial=0.0))

    def select(self, mask):
        """The matrix made of the diagonals whose entry of ``mask`` (aligned
        with :meth:`offset_array`) is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.all():
            return self
        return LatticeMatrix._raw(
            self.dim,
            self.window,
            self._offs[mask],
            self._buf[np.repeat(mask, self._lens)],
            self._lens[mask],
        )

    def scale_diagonals(self, factor_fn):
        """New matrix with diagonal m multiplied by factor_fn(offsets).

        ``factor_fn`` receives the read-only (M, dim) offset array and must
        return M complex factors, all finite.  Diagonals whose factor is
        exactly zero are dropped.
        """
        if self.is_zero():
            return self
        factors = np.asarray(factor_fn(self._offs))
        if not np.isfinite(factors).all():
            raise ValueError("non-finite diagonal factor")
        scaled = LatticeMatrix._raw(
            self.dim, self.window, self._offs, self._buf * np.repeat(factors, self._lens),
            self._lens,
        )
        return scaled.select(factors != 0)

    def __repr__(self):
        return (
            f"LatticeMatrix(dim={self.dim}, window={self.window}, "
            f"diagonals={self._offs.shape[0]})"
        )


def _drop_zero(n_rows, offs, buf, lens):
    """The layout without its identically zero diagonals, tested one block
    of :func:`_blocks` at a time (no boolean the size of the buffer)."""
    if buf.size == 0:
        return offs, buf, lens
    starts = np.cumsum(lens) - lens
    keep = np.empty(lens.size, dtype=bool)
    for lo, hi in _blocks(n_rows, lens.size):
        at, stop = starts[lo], starts[hi - 1] + lens[hi - 1]
        keep[lo:hi] = np.logical_or.reduceat(buf[at:stop] != 0, starts[lo:hi] - at)
    if keep.all():
        return offs, buf, lens
    return offs[keep], buf[np.repeat(keep, lens)], lens[keep]


# -- free-function interface ------------------------------------------------


def bandwidth(matrix):
    """Smallest N such that every stored offset has \\|m\\|_inf < N (0 for zero)."""
    offs = matrix.offset_array()
    if offs.shape[0] == 0:
        return 0
    return int(np.abs(offs).max()) + 1


def band_truncate(matrix, n):
    """Keep the diagonals with \\|m\\|_inf strictly below n.

    n = 0 yields the zero matrix; n = 1 keeps only the main diagonal.
    """
    n = _as_bandwidth(n)
    return matrix.select(np.abs(matrix.offset_array()).max(axis=1, initial=0) < n)


def multiply(a, b):
    """Finite-section product: (AB)(k, l) = sum_j A(k, j) B(j, l), j in window."""
    a._check_compatible(b)
    return LatticeMatrix.from_dense(a.to_dense() @ b.to_dense(), a.dim, a.window)


def adjoint(matrix):
    """Conjugate transpose on the window: A*(k, l) = conj(A(l, k)).

    In diagonal-major storage the m diagonal of A* is the conjugate of the
    -m diagonal of A taken in the same row order; negating a sorted offset
    table reverses its order.
    """
    order = _ranges(matrix._starts[::-1], matrix._lens[::-1])
    return LatticeMatrix._raw(
        matrix.dim,
        matrix.window,
        -matrix._offs[::-1],
        np.conj(matrix._buf[order]),
        matrix._lens[::-1].copy(),
    )


def _reduced_t(t, dim):
    if np.isscalar(t):
        t = (float(t),)
    t = np.asarray(t, dtype=float)
    if t.shape != (dim,):
        raise ValueError(f"t must have {dim} components")
    if not np.isfinite(t).all():
        raise ValueError("t must be finite")
    return np.mod(t, 1.0)


def _phase_fractions(offsets, t):
    # frac(m . t) with t already reduced mod 1; keeps the phase argument in
    # [0, 1) so exp stays accurate for large offsets
    return np.mod(offsets @ t, 1.0)


def modulate(matrix, t):
    """Conjugation by the modulation of frequency t: diagonal m picks up
    the phase e^{2 pi i m.t}.  Periodic in each component of t with period 1.
    """
    t = _reduced_t(t, matrix.dim)
    if not t.any():
        return matrix
    return matrix.scale_diagonals(
        lambda offs: np.exp(2j * np.pi * _phase_fractions(offs, t))
    )


def _as_order(order):
    """A difference order as an int >= 1; a non-integer order is refused."""
    if not float(order).is_integer():
        raise ValueError(f"difference order must be an integer, got {order!r}")
    if order < 1:
        raise ValueError("order must be >= 1")
    return int(order)


def _as_bandwidth(n, name="bandwidth"):
    """A bandwidth as an int >= 0; a non-integral, NaN or negative one is
    refused, and an integral float such as 2.0 is taken as 2."""
    if not float(n).is_integer():
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"{name} must be >= 0")
    return int(n)


def difference(matrix, t, order=1):
    """Iterated modulation difference: diagonal m is scaled by
    (e^{2 pi i m.t} - 1)^order.
    """
    order = _as_order(order)
    t = _reduced_t(t, matrix.dim)
    if not t.any():
        return LatticeMatrix.zeros(matrix.dim, matrix.window)

    def factors(offs):
        ph = np.exp(2j * np.pi * _phase_fractions(offs, t)) - 1.0
        return ph ** order

    return matrix.scale_diagonals(factors)


_I_POW = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


def derivation(matrix, alpha):
    """Mixed derivation: diagonal m is scaled by prod_j (2 pi i m_j)^{alpha_j}."""
    if np.isscalar(alpha):
        alpha = (int(alpha),)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != matrix.dim:
        raise ValueError(f"alpha must have {matrix.dim} components")
    if any(a < 0 for a in alpha):
        raise ValueError("alpha components must be >= 0")

    def factors(offs):
        out = np.ones(offs.shape[0], dtype=np.complex128)
        for j, a in enumerate(alpha):
            if a == 0:
                continue
            # (2 pi i m)^a split into magnitude and an exact power of i so the
            # factor is exactly real/imaginary when it should be
            out = out * (2.0 * np.pi * offs[:, j]) ** a * _I_POW[a % 4]
        return out

    return matrix.scale_diagonals(factors)


# -- serialization ------------------------------------------------------------


def to_json_dict(matrix):
    """JSON-ready dict: offsets sorted, entries split into re/im lists.

    For d = 2 the entry arrays are flattened in C (row-major) order.
    """
    diags = []
    for off, arr in matrix.diagonals():
        flat = arr.ravel(order="C")
        diags.append(
            {
                "offset": list(off),
                "re": flat.real.tolist(),
                "im": flat.imag.tolist(),
            }
        )
    return {"dim": matrix.dim, "window": matrix.window, "diagonals": diags}


def from_json_dict(payload):
    """Inverse of :func:`to_json_dict`; refuses duplicate offsets and
    non-finite entries like the constructor does."""
    diags = []
    try:
        dim = int(payload["dim"])
        window = int(payload["window"])
        for item in payload["diagonals"]:
            off = _as_offset(item["offset"], dim)
            re = np.asarray(item["re"], dtype=float)
            im = np.asarray(item["im"], dtype=float)
            if re.shape != im.shape:
                raise ValueError(f"diagonal {off}: re/im length mismatch")
            vals = re.astype(np.complex128)
            vals.imag = im
            diags.append((off, vals))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix payload: {exc}") from exc
    return LatticeMatrix(dim, window, diags)


def save_json(matrix, path):
    with open(path, "w") as fh:
        json.dump(to_json_dict(matrix), fh)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return from_json_dict(json.load(fh))


def load_csv(path):
    """Import a dense matrix from (row, col, re, im) records, d = 1 only.

    Indices are lattice positions in [-W, W]; absent entries are zero.  The
    window W is the largest |index| (at least 1).  A repeated (row, col)
    pair is refused, and so is a non-finite value.
    """
    entries = {}
    with open(path) as fh:
        for rec in csv.reader(fh):
            if not rec or rec[0].lstrip().startswith("#"):
                continue
            if len(rec) != 4:
                raise ValueError(f"expected 4 fields per record, got {rec}")
            pos = (int(rec[0]), int(rec[1]))
            if pos in entries:
                raise ValueError(f"duplicate entry for (row, col) = {pos}")
            entries[pos] = complex(float(rec[2]), float(rec[3]))
    if not entries:
        raise ValueError("empty matrix file")
    window = max(1, max(max(abs(r), abs(c)) for r, c in entries))
    n = 2 * window + 1
    dense = np.zeros((n, n), dtype=np.complex128)
    for (r, c), value in entries.items():
        dense[r + window, c + window] = value
    return LatticeMatrix.from_dense(dense, 1, window)
