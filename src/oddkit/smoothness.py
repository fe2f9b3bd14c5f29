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
smooth partition bands.  Base norms that depend only on the per-diagonal
envelope evaluate the whole stack at once through
:func:`~oddkit.norms.stack_norm`, which also makes iterated (reiteration)
norms affordable; other bases take one scaled matrix per multiplier.
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


def _norm_fn(base):
    """Turn a base (NormSpec, grammar string or callable) into a callable."""
    if isinstance(base, str):
        base = _norms.parse_norm_spec(base)
    if isinstance(base, _norms.NormSpec):
        return lambda m: _norms.matrix_norm(m, base), base
    if callable(base):
        return base, None
    raise TypeError(f"unsupported base norm {base!r}")


def _stack_values(matrix, base, factors):
    """base(F_k . A) for every row of a (K, M) multiplier stack aligned with
    the offsets of the matrix: one stack evaluation for envelope-separable
    bases, one scaled matrix per row for the rest."""
    fn, spec = _norm_fn(base)
    if _norms.envelope_separable(spec):
        offs, env = matrix.envelope()
        return _norms.stack_norm(spec, offs, env, factors)
    return np.array([fn(matrix.scale_diagonals(lambda _o, f=f: f)) for f in factors])


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
    if h <= 0:
        raise ValueError("h must be > 0")
    if grid is None:
        grid = _default_grid(matrix.dim)
    fn, spec = _norm_fn(base)
    offs = matrix.offset_array()
    if offs.shape[0] == 0:
        return 0.0
    pts = t_grid(h, matrix.dim, grid)
    if _norms.envelope_separable(spec):
        _, env = matrix.envelope()
        factors = _difference_factors(offs, pts, order)
        return float(_norms.stack_norm(spec, offs, env, factors, sup=True))
    return max(fn(difference(matrix, t, order)) for t in pts)


def besov_norm_modulus(
    matrix,
    base,
    r,
    p=math.inf,
    order=None,
    grid=None,
    level_min=0,
    level_max=None,
):
    """Base norm plus the dyadic modulus sum
    ``( sum_l (2^{r l} w_k(2^{-l}))^p )^{1/p}`` over l = level_min..level_max.

    The difference order defaults to floor(r) + 1 and must exceed floor(r);
    level_max defaults to ceil(log2(2W)) + 2.
    """
    if r <= 0:
        raise ValueError("smoothness r must be > 0")
    if order is None:
        order = _default_order(r)
    if order <= math.floor(r):
        raise ValueError(f"difference order {order} must exceed floor(r)={math.floor(r)}")
    if level_max is None:
        level_max = _default_level_max(matrix.window)
    if level_max < level_min:
        raise ValueError("level_max must be >= level_min")
    fn, _ = _norm_fn(base)
    vals = [
        2.0 ** (r * l) * modulus(matrix, base, 2.0**-l, order=order, grid=grid)
        for l in range(level_min, level_max + 1)
    ]
    return float(fn(matrix) + _lp_combine(vals, p))


def _require_solid(spec):
    if isinstance(spec, _norms.NormSpec) and not spec.is_solid:
        raise ValueError("this evaluator requires a solid base norm")


def besov_norm_solid_lp(matrix, base, r, p=math.inf):
    """Weighted l^p sum of base norms of the dyadic diagonal blocks
    floor(2^k) <= |m|_inf < 2^{k+1}, k >= -1 (k = -1 is the main diagonal,
    entering with weight 2^{-r})."""
    if r <= 0:
        raise ValueError("smoothness r must be > 0")
    _require_solid(_norm_fn(base)[1])
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


def besov_norm_phi_lp(matrix, base, r, p=math.inf, partition=None):
    """Like :func:`besov_norm_solid_lp` but with the hard dyadic blocks
    replaced by the smooth partition bands (k = -1 uses the low-pass)."""
    if r <= 0:
        raise ValueError("smoothness r must be > 0")
    _require_solid(_norm_fn(base)[1])
    if partition is None:
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
    method, and the modulus grid/levels."""

    base: object
    r: float
    p: float = math.inf
    order: int | None = None
    method: str = "modulus"
    grid: int | None = None
    level_min: int = 0
    level_max: int | None = None

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("smoothness r must be > 0")
        if not (self.p >= 1):
            raise ValueError("p must be in [1, inf]")
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
            level_min=spec.level_min,
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


def _split_top_level(text):
    """Split on commas, honoring one level of [...] brackets."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced brackets in {text!r}")
    parts.append("".join(cur))
    return [p for p in parts if p]


def parse_besov_spec(text):
    """Parse ``besov:base=...,r=...,p=...,method=...[,k=...,grid=...]``.

    A base that itself contains commas (e.g. a schur norm) must be wrapped
    in brackets: ``base=[schur:p=1,r=0]``.
    """
    text = text.strip()
    if not text.startswith("besov:"):
        raise ValueError(f"not a besov spec: {text!r}")
    body = text[len("besov:") :]
    kwargs = {}
    seen = set()
    for tok in _split_top_level(body):
        if "=" not in tok:
            raise ValueError(f"malformed parameter {tok!r}")
        key, val = tok.split("=", 1)
        key, val = key.strip(), val.strip()
        if key in seen:
            raise ValueError(f"duplicate besov parameter {key!r}")
        seen.add(key)
        if key == "base":
            if val.startswith("[") and val.endswith("]"):
                val = val[1:-1]
            kwargs["base"] = _norms.parse_norm_spec(val)
        elif key == "r":
            kwargs["r"] = float(val)
        elif key == "p":
            kwargs["p"] = math.inf if val.lower() == "inf" else float(val)
        elif key == "k":
            kwargs["order"] = int(val)
        elif key == "method":
            kwargs["method"] = val
        elif key == "grid":
            kwargs["grid"] = int(val)
        elif key == "lmin":
            kwargs["level_min"] = int(val)
        elif key == "lmax":
            kwargs["level_max"] = int(val)
        else:
            raise ValueError(f"unknown besov parameter {key!r}")
    if "base" not in kwargs or "r" not in kwargs:
        raise ValueError("besov spec needs at least base=... and r=...")
    return BesovSpec(**kwargs)


def format_besov_spec(spec):
    """Canonical string for a BesovSpec; parse(format(s)) == s for NormSpec bases."""
    base = _norms.format_norm_spec(spec.base)
    if "," in base:
        base = f"[{base}]"
    if math.isinf(spec.p):
        p_txt = "inf"
    else:
        p_txt = repr(float(spec.p))
    out = f"besov:base={base},r={repr(float(spec.r))},p={p_txt},method={spec.method}"
    if spec.order is not None:
        out += f",k={spec.order}"
    if spec.grid is not None:
        out += f",grid={spec.grid}"
    if spec.level_min != 0:
        out += f",lmin={spec.level_min}"
    if spec.level_max is not None:
        out += f",lmax={spec.level_max}"
    return out


# -- reiteration --------------------------------------------------------------


def _iterated_modulus_norm(spec, matrix, r, s, p, grid):
    """The (s, p) modulus norm of the (spec, r, p) modulus norm, from the
    envelope alone.

    The outer grid scales the envelope into a (T, M) stack, and every inner
    level is one :func:`~oddkit.norms.stack_norm` call on that stack, so no
    (T, T, M) array is formed: sup-type bases take O(T M) per level pair and
    cpr at p < inf one (T, M) @ (M, T) product.
    """
    offs, env = matrix.envelope()
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

    return float(besov(inner_max, env, s, stacks(_default_order(s))))


def reiteration_ratio(matrix, base, r, s, p=math.inf, grid=None):
    """Ratio of the iterated smoothness norm (outer smoothness s over the
    inner (base, r) norm) to the direct (base, r + s) norm, all via the
    modulus evaluator.  The two are equivalent; the ratio measures the
    constants.  Rejects the zero matrix."""
    if r <= 0 or s <= 0:
        raise ValueError("smoothness parameters must be > 0")
    _, spec = _norm_fn(base)
    if matrix.is_zero():
        raise ValueError("reiteration ratio undefined for the zero matrix")
    if grid is None:
        grid = _default_grid(matrix.dim)
    direct = besov_norm_modulus(matrix, base, r + s, p, grid=grid)
    if _norms.envelope_separable(spec):
        iterated = _iterated_modulus_norm(spec, matrix, r, s, p, grid)
    else:
        def inner_fn(x):
            return besov_norm_modulus(x, base, r, p, grid=grid)

        iterated = besov_norm_modulus(matrix, inner_fn, s, p, grid=grid)
    if direct == 0.0:
        raise ValueError("direct smoothness norm vanished; ratio undefined")
    return float(iterated / direct)


# -- continuity diagnostics ----------------------------------------------------


@dataclass(frozen=True)
class ContinuityDefect:
    """Moduli of continuity on a set of scales plus the weighted tail profile
    sup_{|m|_inf > N} v_r(m) * sup|diagonal| as a function of N."""

    h: tuple
    modulus: tuple
    tail_n: tuple
    tail: tuple
    order: int
    tail_exponent: float


def continuity_defect(matrix, base, h_values, order=1, grid=None, tail_exponent=None):
    fn, spec = _norm_fn(base)
    h_values = tuple(float(h) for h in h_values)
    mods = tuple(modulus(matrix, base, h, order=order, grid=grid) for h in h_values)
    if tail_exponent is None:
        tail_exponent = spec.r if isinstance(spec, _norms.NormSpec) and spec.is_solid else 0.0
    offs, env = matrix.envelope()
    if offs.shape[0] == 0:
        return ContinuityDefect(h_values, mods, (), (), order, tail_exponent)
    sup = np.abs(offs).max(axis=1)
    w = _norms.polynomial_weight(offs, tail_exponent) * env
    n_max = int(sup.max())
    tail_n = tuple(range(0, n_max))
    tail = tuple(
        float(w[sup > n].max()) if (sup > n).any() else 0.0 for n in tail_n
    )
    return ContinuityDefect(h_values, mods, tail_n, tail, order, tail_exponent)
