"""Smoothness of lattice matrices under the modulation action.

Three interchangeable evaluators of the same smoothness scale (smoothness
r > 0, summability p in [1, inf], over a chosen base norm):

* ``besov_norm_modulus``: base norm plus a dyadic sum over scales of the
  modulus of smoothness of order k > floor(r), each modulus the max over a
  uniform grid of modulation parameters of the base norm of the difference;
* ``besov_norm_solid_lp``: weighted l^p sum of base norms of dyadic
  side-diagonal blocks floor(2^k) <= |m|_inf < 2^(k+1) (k = -1 is the main
  diagonal);
* ``besov_norm_phi_lp``: the same with the hard blocks replaced by a smooth
  dyadic partition of unity sampled on the offset lattice.

The evaluators agree up to equivalence constants; the ``verify`` module
measures those constants empirically.

Every evaluator applies a stack of per-diagonal multipliers to the matrix:
difference rows over the modulation grid, dyadic block masks, or smooth
partition bands, and hands it to :func:`~oddkit.norms._stack_values`, which
alone decides how each base evaluates a stack.  The modulus takes every
base, ``op`` and callables included, on the real rows (2 sin(pi m.t))^k of
``_difference_factors``; a callable base is trusted to be
modulation-invariant, as every norm of the framework is.  A sup-type base
(jaffard, or any diagonal-separable solid norm at p = inf) reads a stack
only through its column max, which depends on (d, W, grid, h) and not on
the matrix: it reads the one row max_t |2 sin(pi m.t)| of
``_grid_sup_row`` to the power k, formed in blocks of grid points and kept
read-only in one bounded process-wide cache, so no (T, M) table is formed
for it.  The modulus evaluator is one grid sup (``_grid_sup``, one level's
grid) inside one dyadic level sum (``_level_sum``); reiteration nests the
level sum, handing each outer level's rows to the same stack evaluator as
outer rows, which keeps iterated norms affordable.  For a sup-type base at
summability p = inf the inner level sum is a max over levels of a max over
diagonals, so its levels fold into one row max_l 2^{r l} |F_l| and each
inner sum takes two stacks; at p < inf the levels enter an l^p sum, and
Schur and cpr at p < inf do not read a stack through its column max, so
there every inner level stays a stack of its own.  The partition bands
depend on an offset only through |m|_inf, and are evaluated once per band
on the distinct radii.

Smoothness norms are addressed through :class:`BesovSpec` and the string
grammar ``besov:base=...,r=...,p=...``, whose keys the norm grammar's
tokenizer reads, so both grammars refuse the same malformed input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lattice as _lattice
from . import norms as _norms
from .lattice import _as_order

__all__ = [
    "BesovSpec",
    "ContinuityDefect",
    "DyadicPartition",
    "besov_norm",
    "besov_norm_modulus",
    "besov_norm_phi_lp",
    "besov_norm_solid_lp",
    "continuity_defect",
    "evaluate",
    "format_besov_spec",
    "modulus",
    "parse_besov_spec",
    "reiteration_ratio",
    "t_grid",
]


def _default_grid(dim):
    return 64 if dim == 1 else 32


def _default_level_max(window):
    return int(math.ceil(math.log2(2 * window))) + 2


def _default_order(r):
    return int(math.floor(r)) + 1


def t_grid(h, dim, grid):
    """Uniform modulation grid at dim 1 or 2: ``grid`` points per axis
    spanning [-h, h], restricted to |t|_2 <= h.  Endpoints are included."""
    if not 0 < h < math.inf:
        raise ValueError("h must be finite and > 0")
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if grid < 8:
        raise ValueError("grid must have at least 8 points per axis")
    axis = np.linspace(-h, h, grid)
    if dim == 1:
        return axis.reshape(-1, 1)
    tx, ty = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([tx.ravel(), ty.ravel()])
    keep = (pts**2).sum(axis=1) <= h * h * (1.0 + 1e-12)
    return pts[keep]


def _difference_factors(offsets, pts, order):
    """(2 sin(pi m.t))^order as a (T, M) array of real multiplier rows.

    e^{2 pi i m.t} - 1 = 2i sin(pi m.t) e^{pi i m.t}, so the order-k
    difference at t is i^k times the modulation by kt/2 of the row at t
    applied to A; the modulation is an isometry of ``op`` and of every solid
    norm, so each row gives the base norm of the difference."""
    theta = pts @ offsets.T.astype(float)  # (T, M)
    # (2 sin(pi theta))^order in place: one (T, M) buffer, not three
    np.multiply(theta, np.pi, out=theta)
    np.sin(theta, out=theta)
    theta *= 2.0
    theta **= order
    return theta


# Sup rows kept process-wide; a row is 8 (4W+1)^d bytes.  The Besov
# evaluators, reiteration and the grid check read 23 (grid, h) keys on a
# W = 64 window and 15 on a W = 4 one.
_SUP_ROWS = 64


@functools.lru_cache(maxsize=_SUP_ROWS)
def _grid_sup_row(dim, window, grid, h):
    """max over the points t of ``t_grid(h, dim, grid)`` of |2 sin(pi m.t)|
    for every offset m of the window, in the order of ``lattice._keys``.

    The points are taken in blocks whose (points x offsets) table stays
    under ``lattice._BLOCK_BYTES``; the row is read-only and shared by
    every matrix of the window."""
    offs = _lattice._offset_table(dim, window, 2 * window)[0].T.astype(float)
    pts = t_grid(h, dim, grid)
    row = np.zeros(offs.shape[1])
    step = max(1, _lattice._BLOCK_BYTES // (8 * offs.shape[1]))
    for i in range(0, len(pts), step):
        # the same theta, and so the same bits, as _difference_factors
        theta = pts[i : i + step] @ offs
        np.multiply(theta, np.pi, out=theta)
        np.sin(theta, out=theta)
        np.abs(theta, out=theta)
        np.maximum(row, theta.max(axis=0), out=row)
        del theta  # else it is alive while the next block is formed
    row *= 2.0
    row.setflags(write=False)
    return row


def _grid_factors(matrix, spec, h, grid, order):
    """The difference rows of the grid of radius h as a multiplier stack.

    A sup-type base (:func:`~oddkit.norms._sup_type`) reads a stack only
    through its column max, which depends on (d, W, grid, h) alone: its
    stack is the one row ``_grid_sup_row ** order`` on the offsets of the
    matrix.  Every other base takes the (T, M) rows of
    :func:`_difference_factors`."""
    offs = matrix.offset_array()
    if _norms._sup_type(spec):
        row = _grid_sup_row(matrix.dim, matrix.window, grid, h)
        return (row[_lattice._keys(matrix.window, offs)] ** order)[None]
    return _difference_factors(offs, t_grid(h, matrix.dim, grid), order)


def _grid_sup(matrix, spec, h, grid, order):
    """max over the points t of ``t_grid(h, d, grid)`` of the base norm of
    the order-fold difference at t: the stack of :func:`_grid_factors`,
    whose max :func:`~oddkit.norms._stack_values` takes under the single
    outer row g = 1.  A sup-type base reads one shared row, so no (T, M)
    table is formed for it."""
    factors = _grid_factors(matrix, spec, h, grid, order)
    return _norms._stack_values(matrix, spec, factors, np.ones(factors.shape[1]))


def _level_sum(sup, base, r, p, level_max):
    """``base + ( sum_l (2^{r l} sup(l))^p )^{1/p}`` over l = 0..level_max,
    where ``sup(l)`` is a value or an array for the modulation grid of radius
    2^-l.  Only those results are kept, so a ``sup`` that builds its level's
    (T, M) multipliers holds one level's at a time."""
    vals = [2.0 ** (r * l) * sup(l) for l in range(level_max + 1)]
    return base + _norms._lp_combine(np.stack(vals, axis=-1), p)


def modulus(matrix, base, h, order=1, grid=None):
    """Modulus of smoothness: max over the grid with |t| <= h of the base
    norm of the order-fold modulation difference of the matrix; a callable
    base is trusted to be modulation-invariant."""
    order = _as_order(order)
    grid = _default_grid(matrix.dim) if grid is None else grid
    return float(_grid_sup(matrix, _norms._coerce_spec(base), h, grid, order))


def besov_norm_modulus(
    matrix,
    base,
    r,
    p=math.inf,
    order=None,
    grid=None,
    level_max=None,
):
    """Base norm plus the dyadic modulus sum
    ``( sum_l (2^{r l} w_k(2^{-l}))^p )^{1/p}`` over l = 0..level_max, each
    w_k the grid sup of :func:`modulus` on one stack of difference rows.

    The difference order defaults to floor(r) + 1 and must exceed floor(r);
    level_max defaults to ceil(log2(2W)) + 2.
    """
    BesovSpec(base, r, p, order, grid=grid, level_max=level_max)  # refuses what a spec refuses
    order = _default_order(r) if order is None else int(order)
    if level_max is None:
        level_max = _default_level_max(matrix.window)
    if grid is None:
        grid = _default_grid(matrix.dim)
    spec = _norms._coerce_spec(base)

    def sup(l):
        return _grid_sup(matrix, spec, 2.0**-l, grid, order)

    return float(_level_sum(sup, _norms.matrix_norm(matrix, spec), r, p, level_max))


def besov_norm_solid_lp(matrix, base, r, p=math.inf):
    """Weighted l^p sum of base norms of the dyadic diagonal blocks
    floor(2^k) <= |m|_inf < 2^{k+1}, k >= -1 (k = -1 is the main diagonal,
    entering with weight 2^{-r})."""
    _norms._check_smoothness(r, p)
    base = _norms._require_solid(base)
    offs = matrix.offset_array()
    # block k of offset m: floor(2^k) <= |m|_inf < 2^(k+1), -1 for m = 0
    block = np.frexp(np.abs(offs).max(axis=1))[1] - 1
    ks = np.unique(block)
    vals = _norms._stack_values(matrix, base, block == ks[:, None])
    return float(_norms._lp_combine([2.0 ** (k * r) * v for k, v in zip(ks.tolist(), vals)], p))


@dataclass(frozen=True)
class DyadicPartition:
    """Smooth dyadic partition of unity on the frequency lattice.

    The profile is a C^inf bump in s = log2(|omega|_inf), supported on the
    annulus 1/2 <= |omega|_inf <= 2 and strictly positive inside, normalized
    by telescoping (dividing by the sum of its own dyadic dilates), so
    ``sum_k band(k, m) + low_pass(m) = 1`` holds to round-off at every
    lattice offset.

    A band depends on an offset only through its radius |m|_inf, so
    :meth:`low_pass` and :func:`besov_norm_phi_lp` read every row from
    ``_bands``, which evaluates the profile once per band on the distinct
    radii; :meth:`band` evaluates one band on the offsets themselves.
    """

    @staticmethod
    def _bump(s):
        out = np.zeros_like(s, dtype=float)
        inside = np.abs(s) < 1.0
        v = s[inside]
        out[inside] = np.exp(-1.0 / (1.0 - v * v))
        return out

    def profile(self, x):
        """phi_hat at radius x = |omega|_inf (vectorized, x >= 0)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        if not pos.any():
            return out
        s = np.log2(x[pos])
        num = self._bump(s)
        den = np.zeros_like(s)
        j0 = np.floor(s)
        for dj in (-1.0, 0.0, 1.0):
            den += self._bump(s - (j0 + dj))
        out[pos] = num / den
        return out

    def band(self, k, offsets):
        """phi_hat_k(m) = profile(2^-k |m|_inf) for an (M, d) offset array."""
        offsets = np.asarray(offsets)
        sup = np.abs(offsets).max(axis=1).astype(float)
        return self.profile(sup * 2.0 ** (-k))

    def low_pass(self, offsets):
        """phi_hat_{-1}(m) = 1 - sum_{k >= 0} phi_hat_k(m); equals 1 at m = 0."""
        bands, inverse = self._bands(offsets)
        return bands[0].take(inverse)

    def _bands(self, offsets):
        """``(rows, inverse)``: the rows [low_pass, band_0, ..., band_K],
        K = ceil(log2 max(max |m|_inf, 1)) + 1, on the distinct radii
        |m|_inf of an (M, d) offset array, and the index of each offset's
        radius: ``rows.take(inverse, axis=1)`` are the rows on the offsets.
        The low-pass is 1 minus the bands, subtracted in the order k = 0..K.
        """
        radii, inverse = np.unique(np.abs(np.asarray(offsets)).max(axis=1), return_inverse=True)
        sup = radii.astype(float)
        top = int(math.ceil(math.log2(max(sup.max(initial=0.0), 1.0)))) + 1
        rows = np.empty((top + 2, len(sup)))
        rows[0] = 1.0
        for k in range(top + 1):
            rows[k + 1] = self.profile(sup * 2.0 ** (-k))
            rows[0] -= rows[k + 1]
        return rows, inverse


def besov_norm_phi_lp(matrix, base, r, p=math.inf):
    """Like :func:`besov_norm_solid_lp` but with the hard dyadic blocks
    replaced by the smooth partition bands (k = -1 uses the low-pass), each
    band evaluated once on the distinct radii of the offsets."""
    _norms._check_smoothness(r, p)
    base = _norms._require_solid(base)
    bands, inverse = DyadicPartition()._bands(matrix.offset_array())
    keep = (bands != 0).any(axis=1)
    ks = np.arange(-1, len(bands) - 1)[keep]
    # take() keeps the stack C-ordered, as the rows were: a cpr stack at
    # p < inf is one matrix product, whose sum order follows the layout
    vals = _norms._stack_values(matrix, base, bands[keep].take(inverse, axis=1))
    return float(_norms._lp_combine([2.0 ** (k * r) * v for k, v in zip(ks.tolist(), vals)], p))


# -- spec plumbing ------------------------------------------------------------

_METHODS = ("modulus", "solidlp", "philp")


@dataclass(frozen=True)
class BesovSpec:
    """Parameters of a smoothness norm: base norm, smoothness r > 0,
    summability p, difference order (default floor(r) + 1), evaluator
    method, and the modulus grid and top dyadic level."""

    base: object
    r: float
    p: float = math.inf
    order: int | None = None
    method: str = "modulus"
    grid: int | None = None
    level_max: int | None = None

    def __post_init__(self):
        _norms._check_smoothness(self.r, self.p)
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.order is not None and _as_order(self.order) <= math.floor(self.r):
            raise ValueError(f"difference order {self.order} must exceed floor({self.r})")
        if self.grid is not None and self.grid < 8:
            raise ValueError("grid must have at least 8 points per axis")
        if self.level_max is not None and self.level_max < 0:
            raise ValueError("level_max must be >= 0")


def besov_norm(matrix, spec):
    """Evaluate a BesovSpec (or its grammar string) on a matrix."""
    if isinstance(spec, str):
        spec = parse_besov_spec(spec)
    if spec.method == "modulus":
        return besov_norm_modulus(
            matrix,
            spec.base,
            spec.r,
            spec.p,
            order=spec.order,
            grid=spec.grid,
            level_max=spec.level_max,
        )
    if spec.method == "solidlp":
        return besov_norm_solid_lp(matrix, spec.base, spec.r, spec.p)
    return besov_norm_phi_lp(matrix, spec.base, spec.r, spec.p)


def evaluate(matrix, spec):
    """Evaluate any norm description: NormSpec, BesovSpec, grammar string,
    or a bare callable."""
    if isinstance(spec, str):
        spec = parse_any_spec(spec)
    if isinstance(spec, BesovSpec):
        return besov_norm(matrix, spec)
    return _norms.matrix_norm(matrix, spec)


def parse_any_spec(text):
    text = text.strip()
    if text.startswith("besov:"):
        return parse_besov_spec(text)
    return _norms.parse_norm_spec(text)


def _read_base(text):
    """A base norm spec, brackets around one that contains commas dropped."""
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    return _norms.parse_norm_spec(text)


# grammar key -> (BesovSpec field, reader), in canonical order
_BESOV_KEYS = {
    "base": ("base", _read_base),
    "r": ("r", float),
    "p": ("p", float),
    "method": ("method", str),
    "k": ("order", int),
    "grid": ("grid", int),
    "lmax": ("level_max", int),
}


def parse_besov_spec(text):
    """Parse ``besov:base=...,r=...[,p=...,method=...,k=...,grid=...,lmax=...]``.

    A base that itself contains commas (e.g. a schur norm) must be wrapped
    in brackets: ``base=[schur:p=1,r=0]``.  Keys are read by the norm
    grammar's tokenizer, so empty, unknown and repeated keys are refused.
    """
    text = text.strip()
    if not text.startswith("besov:"):
        raise ValueError(f"not a besov spec: {text!r}")
    fields = _norms._fields(text[len("besov:") :], _BESOV_KEYS)
    if "base" not in fields or "r" not in fields:
        raise ValueError("besov spec needs at least base=... and r=...")
    return BesovSpec(**{_BESOV_KEYS[k][0]: _BESOV_KEYS[k][1](v) for k, v in fields.items()})


def format_besov_spec(spec):
    """Canonical string for a BesovSpec; parse(format(s)) == s for NormSpec bases."""
    base = _norms.format_norm_spec(spec.base)
    if "," in base:
        base = f"[{base}]"
    fmt = _norms._fmt_float
    out = f"besov:base={base},r={fmt(spec.r)},p={fmt(spec.p)},method={spec.method}"
    for key, value in (("k", spec.order), ("grid", spec.grid), ("lmax", spec.level_max)):
        if value is not None:
            out += f",{key}={value}"
    return out


# -- reiteration --------------------------------------------------------------


def reiteration_ratio(matrix, base, r, s, p=math.inf, grid=None):
    """Ratio of the iterated smoothness norm (outer smoothness s over the
    inner (base, r) norm) to the direct (base, r + s) norm, all via the
    modulus evaluator.  The two are equivalent; the ratio measures the
    constants.  For every base the iterated norm is the level sum of level
    sums on stacks: the difference rows g of each outer level are the outer
    rows of the inner level sum's stacks, which are those of
    :func:`_grid_factors` (one shared row per level for a sup-type base).

    For a sup-type base at p = inf the inner level sum is a max over levels
    of a max over diagonals, so its levels fold into the one row
    H(m) = max_l 2^{r l} max_k |F_{l,k}(m)|, and each inner sum is two
    stacks, the base row and H, instead of level_max + 2.  At p < inf a
    level enters an l^p sum, and Schur and cpr at p < inf do not read a
    stack through its column max, so every other case keeps one stack per
    level.  Rejects the zero matrix."""
    _norms._check_smoothness(r, p)
    _norms._check_smoothness(s, p)
    spec = _norms._coerce_spec(base)
    if matrix.is_zero():
        raise ValueError("reiteration ratio undefined for the zero matrix")
    if grid is None:
        grid = _default_grid(matrix.dim)
    direct = besov_norm_modulus(matrix, spec, r + s, p, grid=grid)
    offs = matrix.offset_array()
    level_max = _default_level_max(matrix.window)
    inner_factors = [
        _grid_factors(matrix, spec, 2.0**-l, grid, _default_order(r)) for l in range(level_max + 1)
    ]
    ones = np.ones((1, offs.shape[0]))
    stack = functools.partial(_norms._stack_values, matrix, spec)
    if _norms._sup_type(spec) and math.isinf(p):
        # one level of weight 2^0 = 1: the max over levels of their column
        # maxima, each times its weight
        levels = [2.0 ** (r * l) * np.abs(f).max(axis=0) for l, f in enumerate(inner_factors)]
        inner_factors = [np.max(levels, axis=0, keepdims=True)]

    def inner(g):
        return _level_sum(
            lambda l: stack(inner_factors[l], g), stack(ones, g), r, p, len(inner_factors) - 1
        )

    def outer(l):
        pts = t_grid(2.0**-l, matrix.dim, grid)
        return inner(_difference_factors(offs, pts, _default_order(s))).max(-1)

    iterated = _level_sum(outer, inner(ones[0]), s, p, level_max)
    if direct == 0.0:
        raise ValueError("direct smoothness norm vanished; ratio undefined")
    return float(iterated / direct)


# -- continuity diagnostics ----------------------------------------------------


@dataclass(frozen=True)
class ContinuityDefect:
    """Moduli of continuity on a set of scales plus the weighted tail profile
    sup_{|m|_inf > N} v_r(m) * sup|diagonal| as a function of N.  ``order``
    is the difference order of the moduli, always 1."""

    h: tuple
    modulus: tuple
    tail_n: tuple
    tail: tuple
    order: int
    tail_exponent: float


def continuity_defect(matrix, base, h_values):
    """First-order moduli of ``base`` at each h (on the default grid of
    :func:`modulus`), and the tail profile with the weight
    exponent of a solid NormSpec base (0 for ``op`` and callables): the
    jaffard band-approximation errors E_1, ..., E_N, N = max |m|_inf."""
    spec = _norms._coerce_spec(base)
    h_values = tuple(float(h) for h in h_values)
    mods = tuple(modulus(matrix, spec, h) for h in h_values)
    tail_exponent = spec.r if isinstance(spec, _norms.NormSpec) and spec.is_solid else 0.0
    from .approx import approx_errors  # approx imports this module

    n_max = int(np.abs(matrix.offset_array()).max(initial=0))
    tail = approx_errors(matrix, _norms.NormSpec("jaffard", r=tail_exponent), n_max)[1:]
    return ContinuityDefect(
        h_values, mods, tuple(range(n_max)), tuple(tail.tolist()), 1, tail_exponent
    )
