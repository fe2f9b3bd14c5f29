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
difference magnitudes over the modulation grid, dyadic block masks, or
smooth partition bands, and hands it to
:func:`~oddkit.norms._stack_values`, which alone decides how each base
evaluates a stack.  Solid norms read magnitudes only, so the modulus takes
every solid base on the magnitude rows |e^{2 pi i m.t} - 1|^k, and only
``op`` and callables take one complex ``difference`` matrix per grid point;
that loop is also the tests' oracle.  The modulus evaluator is one grid sup
(``_grid_sup``, one level's grid) inside one dyadic level sum
(``_level_sum``); reiteration nests the level sum, handing each outer
level's magnitude rows to the same stack evaluator as outer rows, which
keeps iterated norms affordable.

Smoothness norms are addressed through :class:`BesovSpec` and the string
grammar ``besov:base=...,r=...,p=...``, whose keys the norm grammar's
tokenizer reads, so both grammars refuse the same malformed input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import norms as _norms
from .lattice import _as_order, difference

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
    """Uniform modulation grid: ``grid`` points per axis spanning [-h, h],
    restricted to |t|_2 <= h.  Endpoints are always included."""
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
    """|e^{2 pi i m.t} - 1|^order as a (T, M) array of magnitudes."""
    theta = pts @ offsets.T.astype(float)  # (T, M)
    # (2 |sin(pi theta)|)^order in place: one (T, M) buffer, not three
    np.multiply(theta, np.pi, out=theta)
    np.sin(theta, out=theta)
    np.abs(theta, out=theta)
    theta *= 2.0
    theta **= order
    return theta


def _grid_sup(matrix, spec, pts, order):
    """max over the points t of ``pts`` of base(|e^{2 pi i m.t} - 1|^order . A).

    Solid NormSpec bases read magnitudes only, so the (T, M) magnitude rows
    are one multiplier stack, whose max :func:`~oddkit.norms._stack_values`
    takes under the single outer row g = 1.  ``op`` and callables take one
    ``difference`` matrix per point.
    """
    if not (isinstance(spec, _norms.NormSpec) and spec.is_solid):
        return max(_norms.matrix_norm(difference(matrix, t, order), spec) for t in pts)
    factors = _difference_factors(matrix.offset_array(), pts, order)
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
    norm of the order-fold modulation difference of the matrix."""
    order = _as_order(order)
    if not 0 < h < math.inf:
        raise ValueError("h must be finite and > 0")
    pts = t_grid(h, matrix.dim, _default_grid(matrix.dim) if grid is None else grid)
    return float(_grid_sup(matrix, _norms._coerce_spec(base), pts, order))


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
    ``( sum_l (2^{r l} w_k(2^{-l}))^p )^{1/p}`` over l = 0..level_max.

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
        return _grid_sup(matrix, spec, t_grid(2.0**-l, matrix.dim, grid), order)

    return float(_level_sum(sup, _norms.matrix_norm(matrix, spec), r, p, level_max))


def _require_solid(base):
    """The base coerced once; an ``op`` spec is refused."""
    spec = _norms._coerce_spec(base)
    if isinstance(spec, _norms.NormSpec) and not spec.is_solid:
        raise ValueError("this evaluator requires a solid base norm")
    return spec


def besov_norm_solid_lp(matrix, base, r, p=math.inf):
    """Weighted l^p sum of base norms of the dyadic diagonal blocks
    floor(2^k) <= |m|_inf < 2^{k+1}, k >= -1 (k = -1 is the main diagonal,
    entering with weight 2^{-r})."""
    _norms._check_smoothness(r, p)
    base = _require_solid(base)
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
        offsets = np.asarray(offsets)
        sup = np.abs(offsets).max(axis=1).astype(float)
        out = np.ones(len(sup))
        mx = sup.max() if len(sup) else 0.0
        if mx > 0:
            k_top = int(math.ceil(math.log2(max(mx, 1.0)))) + 1
            for k in range(0, k_top + 1):
                out -= self.profile(sup * 2.0 ** (-k))
        return out


def besov_norm_phi_lp(matrix, base, r, p=math.inf):
    """Like :func:`besov_norm_solid_lp` but with the hard dyadic blocks
    replaced by the smooth partition bands (k = -1 uses the low-pass)."""
    _norms._check_smoothness(r, p)
    base = _require_solid(base)
    partition = DyadicPartition()
    offs = matrix.offset_array()
    max_abs = int(np.abs(offs).max(initial=0))
    ks = np.arange(-1, int(math.ceil(math.log2(max(max_abs, 1)))) + 2)
    bands = np.array(
        [partition.low_pass(offs)] + [partition.band(k, offs) for k in ks[1:]]
    )
    keep = (bands != 0).any(axis=1)
    vals = _norms._stack_values(matrix, base, bands[keep])
    return float(
        _norms._lp_combine([2.0 ** (k * r) * v for k, v in zip(ks[keep].tolist(), vals)], p)
    )


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
    constants.  Rejects the zero matrix."""
    _norms._check_smoothness(r, p)
    _norms._check_smoothness(s, p)
    spec = _norms._coerce_spec(base)
    if matrix.is_zero():
        raise ValueError("reiteration ratio undefined for the zero matrix")
    if grid is None:
        grid = _default_grid(matrix.dim)
    direct = besov_norm_modulus(matrix, spec, r + s, p, grid=grid)
    if isinstance(spec, _norms.NormSpec) and spec.is_solid:
        # the level sum of level sums on stacks of multipliers: each outer
        # level is a (T, M) stack of magnitude rows g, and the inner level
        # sum takes max_k base(g F_k . A) over its stacks F for every row of
        # g at once
        offs = matrix.offset_array()
        level_max = _default_level_max(matrix.window)
        grids = [t_grid(2.0**-l, matrix.dim, grid) for l in range(level_max + 1)]
        inner_factors = [_difference_factors(offs, pts, _default_order(r)) for pts in grids]
        ones = np.ones((1, offs.shape[0]))
        stack = functools.partial(_norms._stack_values, matrix, spec)

        def inner(g):
            return _level_sum(lambda l: stack(inner_factors[l], g), stack(ones, g), r, p, level_max)

        def outer(l):
            return inner(_difference_factors(offs, grids[l], _default_order(s))).max(-1)

        iterated = _level_sum(outer, inner(ones[0]), s, p, level_max)
    else:
        iterated = besov_norm_modulus(
            matrix, lambda x: besov_norm_modulus(x, spec, r, p, grid=grid), s, p, grid=grid
        )
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
