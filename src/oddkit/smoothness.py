"""Smoothness of lattice matrices under the modulation action.

Three interchangeable evaluators of the same smoothness scale (smoothness
r > 0, summability p in [1, inf], over a chosen base norm):

* ``besov_norm_modulus``: base norm plus a dyadic sum over scales of the
  modulus of smoothness of order k > floor(r), each modulus taken as a max
  of ``difference`` norms over a uniform grid of modulation parameters;
* ``besov_norm_solid_lp``: weighted l^p sum of base norms of dyadic
  side-diagonal blocks floor(2^k) <= |m|_inf < 2^(k+1) (k = -1 is the main
  diagonal);
* ``besov_norm_phi_lp``: the same with the hard blocks replaced by a smooth
  dyadic partition of unity sampled on the offset lattice.

The evaluators agree up to equivalence constants; the ``verify`` module
measures those constants empirically.

Every evaluator applies a stack of per-diagonal multipliers to the matrix:
difference magnitudes over the modulation grid, dyadic block masks, or
smooth partition bands.  Base norms that read one number per diagonal
(:func:`~oddkit.norms.diagonal_values`; every solid base except Schur at
p < inf) evaluate the whole stack at once through
:func:`~oddkit.norms.stack_norm`, which also makes iterated (reiteration)
norms affordable.  Schur at p < inf, ``op`` and callables take one scaled
matrix per multiplier; that generic loop is also the tests' oracle.

Smoothness norms are addressed through :class:`BesovSpec` and the string
grammar ``besov:base=...,r=...,p=...``, whose keys the norm grammar's
tokenizer reads, so both grammars refuse the same malformed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import norms as _norms
from .lattice import difference

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


def _lp_combine(values, p):
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        return 0.0
    if math.isinf(p):
        return float(vals.max())
    return float((vals**p).sum() ** (1.0 / p))


def _check_smoothness(r, p):
    """Refuse a smoothness r outside (0, inf) or a summability p outside
    [1, inf]; NaN fails both comparisons."""
    if not 0 < r < math.inf:
        raise ValueError(f"smoothness r must be finite and > 0, got {r}")
    if not p >= 1:
        raise ValueError(f"p must be in [1, inf], got {p}")


def _stack_values(matrix, base, factors):
    """base(F_k . A) for every row of a (K, M) multiplier stack aligned with
    the offsets of the matrix: one stack evaluation for diagonal-separable
    bases, one scaled matrix per row for the rest."""
    spec = _norms._coerce_spec(base)
    if _norms.diagonal_separable(spec):
        return _norms.stack_norm(spec, *_norms.diagonal_values(matrix, spec), factors)
    return np.array(
        [_norms.matrix_norm(matrix.scale_diagonals(lambda _o, f=f: f), spec) for f in factors]
    )


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
    return (2.0 * np.abs(np.sin(np.pi * theta))) ** order


def modulus(matrix, base, h, order=1, grid=None):
    """Modulus of smoothness: max over the grid with |t| <= h of the base
    norm of the order-fold modulation difference of the matrix."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0 < h < math.inf:
        raise ValueError("h must be finite and > 0")
    if grid is None:
        grid = _default_grid(matrix.dim)
    spec = _norms._coerce_spec(base)
    offs = matrix.offset_array()
    if offs.shape[0] == 0:
        return 0.0
    pts = t_grid(h, matrix.dim, grid)
    if _norms.diagonal_separable(spec):
        _, values = _norms.diagonal_values(matrix, spec)
        factors = _difference_factors(offs, pts, order)
        return float(_norms.stack_norm(spec, offs, values, factors, sup=True))
    return max(_norms.matrix_norm(difference(matrix, t, order), spec) for t in pts)


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
    _check_smoothness(r, p)
    if order is None:
        order = _default_order(r)
    if order <= math.floor(r):
        raise ValueError(f"difference order {order} must exceed floor(r)={math.floor(r)}")
    if level_max is None:
        level_max = _default_level_max(matrix.window)
    if level_max < 0:
        raise ValueError("level_max must be >= 0")
    base = _norms._coerce_spec(base)
    vals = [
        2.0 ** (r * l) * modulus(matrix, base, 2.0**-l, order=order, grid=grid)
        for l in range(level_max + 1)
    ]
    return float(_norms.matrix_norm(matrix, base) + _lp_combine(vals, p))


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
    _check_smoothness(r, p)
    base = _require_solid(base)
    offs = matrix.offset_array()
    if offs.shape[0] == 0:
        return 0.0
    # block k of offset m: floor(2^k) <= |m|_inf < 2^(k+1), -1 for m = 0
    block = np.frexp(np.abs(offs).max(axis=1))[1] - 1
    ks = np.unique(block)
    vals = _stack_values(matrix, base, block == ks[:, None])
    return _lp_combine([2.0 ** (k * r) * v for k, v in zip(ks.tolist(), vals)], p)


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
    _check_smoothness(r, p)
    base = _require_solid(base)
    partition = DyadicPartition()
    offs = matrix.offset_array()
    if offs.shape[0] == 0:
        return 0.0
    max_abs = int(np.abs(offs).max())
    ks = np.arange(-1, int(math.ceil(math.log2(max(max_abs, 1)))) + 2)
    bands = np.array(
        [partition.low_pass(offs)] + [partition.band(k, offs) for k in ks[1:]]
    )
    keep = (bands != 0).any(axis=1)
    vals = _stack_values(matrix, base, bands[keep])
    return _lp_combine([2.0 ** (k * r) * v for k, v in zip(ks[keep].tolist(), vals)], p)


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
        _check_smoothness(self.r, self.p)
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.order is not None and self.order <= math.floor(self.r):
            raise ValueError("difference order must exceed floor(r)")


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


def _iterated_modulus_norm(spec, matrix, r, s, p, grid):
    """The (s, p) modulus norm of the (spec, r, p) modulus norm, from the
    diagonal values alone.

    The outer grid scales the diagonal values into a (T, M) stack, and every inner
    level is one :func:`~oddkit.norms.stack_norm` call on that stack, so no
    (T, T, M) array is formed: sup-type bases take O(T M) per level pair and
    cpr at p < inf one (T, M) @ (M, T) product.
    """
    offs, values = _norms.diagonal_values(matrix, spec)
    levels = range(0, _default_level_max(matrix.window) + 1)
    ones = np.ones((1, offs.shape[0]))

    def stacks(order):
        return [
            (l, _difference_factors(offs, t_grid(2.0**-l, matrix.dim, grid), order))
            for l in levels
        ]

    def besov(norm_max, e, smooth, level_stacks):
        # norm_max(e, F): max over the rows of F of the norm of F_k . e
        vals = np.stack(
            [2.0 ** (smooth * l) * norm_max(e, F) for l, F in level_stacks], axis=-1
        )
        mod = vals.max(axis=-1) if math.isinf(p) else (vals**p).sum(axis=-1) ** (1.0 / p)
        return norm_max(e, ones) + mod

    inner_stacks = stacks(_default_order(r))

    def base_max(e, F):
        return _norms.stack_norm(spec, offs, e, F, sup=True)

    def inner_max(e, F):
        return besov(base_max, e[..., None, :] * F, r, inner_stacks).max(axis=-1)

    return float(besov(inner_max, values, s, stacks(_default_order(s))))


def reiteration_ratio(matrix, base, r, s, p=math.inf, grid=None):
    """Ratio of the iterated smoothness norm (outer smoothness s over the
    inner (base, r) norm) to the direct (base, r + s) norm, all via the
    modulus evaluator.  The two are equivalent; the ratio measures the
    constants.  Rejects the zero matrix."""
    _check_smoothness(r, p)
    _check_smoothness(s, p)
    spec = _norms._coerce_spec(base)
    if matrix.is_zero():
        raise ValueError("reiteration ratio undefined for the zero matrix")
    if grid is None:
        grid = _default_grid(matrix.dim)
    direct = besov_norm_modulus(matrix, spec, r + s, p, grid=grid)
    if _norms.diagonal_separable(spec):
        iterated = _iterated_modulus_norm(spec, matrix, r, s, p, grid)
    else:
        def inner_fn(x):
            return besov_norm_modulus(x, spec, r, p, grid=grid)

        iterated = besov_norm_modulus(matrix, inner_fn, s, p, grid=grid)
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
    offs = matrix.offset_array()
    if offs.shape[0] == 0:
        return ContinuityDefect(h_values, mods, (), (), 1, tail_exponent)
    from .approx import approx_errors  # approx imports this module

    n_max = int(np.abs(offs).max())
    tail = approx_errors(matrix, _norms.NormSpec("jaffard", r=tail_exponent), n_max)[1:]
    return ContinuityDefect(
        h_values, mods, tuple(range(n_max)), tuple(tail.tolist()), 1, tail_exponent
    )
