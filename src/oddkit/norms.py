"""Off-diagonal decay norms on windowed lattice matrices.

The solid norms here depend only on entry magnitudes and are organized per
side diagonal, which keeps every weight a per-diagonal multiplier:

* ``jaffard_norm``: weighted sup of the diagonal envelope,
* ``schur_norm``: weighted row/column l^p sums,
* ``cpr_norm``: l^p sum over diagonals of the weighted envelope
  (with a ``literal`` variant that sums entry powers inside each diagonal),
* ``weighted_norm``: any solid base norm after a diagonal weight.

``op_norm_l2`` is the one non-solid norm (largest singular value on the
window).  Norms are addressed programmatically through :class:`NormSpec`
and a small string grammar, e.g. ``jaffard:r=2`` or
``w[bessel:r=1]jaffard:r=0``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .lattice import LatticeMatrix

__all__ = [
    "NormSpec",
    "ParameterDomainWarning",
    "Weight",
    "bessel_weight",
    "cpr_norm",
    "envelope_separable",
    "format_norm_spec",
    "is_solid",
    "jaffard_norm",
    "matrix_norm",
    "op_norm_l2",
    "parse_norm_spec",
    "polynomial_weight",
    "schur_norm",
    "stack_norm",
    "weighted_norm",
]


class ParameterDomainWarning(UserWarning):
    """Raised (as a warning) when norm parameters leave the algebra range."""


def polynomial_weight(offsets, r):
    """v_r(m) = (1 + |m|_2)^r on an (M, d) offset array."""
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    return (1.0 + np.sqrt((offsets**2).sum(axis=1))) ** r


def bessel_weight(offsets, r):
    """v*_r(m) = (1 + |2 pi m|_2^2)^(r/2) on an (M, d) offset array."""
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    return (1.0 + (2.0 * np.pi) ** 2 * (offsets**2).sum(axis=1)) ** (r / 2.0)


@dataclass(frozen=True)
class Weight:
    """Diagonal weight, ``kind`` is "poly" or "bessel"."""

    kind: str
    r: float

    def __post_init__(self):
        if self.kind not in ("poly", "bessel"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not math.isfinite(self.r):
            raise ValueError("weight r must be finite")

    def __call__(self, offsets):
        if self.kind == "poly":
            return polynomial_weight(offsets, self.r)
        return bessel_weight(offsets, self.r)


@dataclass(frozen=True)
class NormSpec:
    """Description of a matrix norm.

    kind is one of "op", "jaffard", "schur", "cpr"; ``p`` and ``r`` apply to
    the solid kinds, ``weight`` pre-scales the diagonals (solid kinds only)
    and ``literal`` switches ``cpr`` to the per-entry double sum.
    """

    kind: str
    p: float = math.inf
    r: float = 0.0
    weight: Weight | None = None
    literal: bool = False

    def __post_init__(self):
        if self.kind not in ("op", "jaffard", "schur", "cpr"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "op" and self.weight is not None:
            raise ValueError("operator norm is not solid; weights not allowed")
        if not (self.r >= 0):
            raise ValueError("r must be >= 0")
        if not (self.p >= 1):
            raise ValueError("p must be in [1, inf]")

    @property
    def is_solid(self):
        return self.kind != "op"


def is_solid(spec):
    return spec.is_solid if isinstance(spec, NormSpec) else False


# -- the norms ---------------------------------------------------------------


@functools.lru_cache(maxsize=2)
def _coupled_slices(dim, window, offsets_bytes):
    """Per stored offset m: the slices of the window grid holding the rows
    k and the columns k - m that diagonal m couples."""
    n = 2 * window + 1
    offsets = np.frombuffer(offsets_bytes, dtype=np.int64).reshape(-1, dim)
    return [
        (
            tuple(slice(max(0, m), n + min(0, m)) for m in off),
            tuple(slice(max(0, -m), n + min(0, -m)) for m in off),
        )
        for off in offsets.tolist()
    ]


def _diag_matvec(matrix, x, conj=False):
    """A @ x (or A* @ x) straight from diagonal storage; x is flat."""
    shape = (2 * matrix.window + 1,) * matrix.dim
    xg = np.asarray(x).reshape(shape)
    out = np.zeros(shape, dtype=np.complex128)
    slices = _coupled_slices(matrix.dim, matrix.window, matrix.offset_array().tobytes())
    for (_, arr), (row_sl, col_sl) in zip(matrix.diagonals(), slices):
        if conj:
            out[col_sl] += arr.conj() * xg[row_sl]
        else:
            out[row_sl] += arr * xg[col_sl]
    return out.ravel()


def op_norm_l2(matrix, tol=1e-10):
    """Operator norm on l^2 of the window (largest singular value).

    Windows up to 2048 rows go through a dense SVD; larger ones stay in
    diagonal storage and use ARPACK on the implicit matrix (svds, k=1).
    """
    if matrix.is_zero():
        return 0.0
    n = matrix.n_rows
    if n <= 2048:
        return float(np.linalg.svd(matrix.to_dense(), compute_uv=False)[0])
    from scipy.sparse.linalg import (
        ArpackError,
        ArpackNoConvergence,
        LinearOperator,
        svds,
    )

    op = LinearOperator(
        (n, n),
        matvec=lambda x: _diag_matvec(matrix, x),
        rmatvec=lambda x: _diag_matvec(matrix, x, conj=True),
        dtype=np.complex128,
    )
    rng = np.random.default_rng(0x5EED)
    v0 = rng.standard_normal(n)
    try:
        return float(svds(op, k=1, tol=tol, v0=v0, return_singular_vectors=False)[0])
    except (ArpackNoConvergence, ArpackError):
        # ARPACK cannot restart on (near-)projection spectra; power iteration
        # on A*A with a Rayleigh residual stop handles exactly those
        pass
    best = 0.0
    for _ in range(2):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(10_000):
            w = _diag_matvec(matrix, _diag_matvec(matrix, v), conj=True)
            lam = float(np.real(np.vdot(v, w)))
            # |lam - lam_true| <= ||B v - lam v|| for Hermitian B = A*A
            if np.linalg.norm(w - lam * v) <= 1e-9 * max(lam, 1e-300):
                break
            s = np.linalg.norm(w)
            if s == 0.0:
                break
            v = w / s
        best = max(best, math.sqrt(max(lam, 0.0)))
    return float(best)


def _diagonal_weights(offsets, r, weight=None):
    """v_r(m), times weight(m) when given, on an (M, d) offset array."""
    w = polynomial_weight(offsets, r)
    return w if weight is None else w * weight(offsets)


def _weighted_envelope(matrix, r, weight=None):
    offs, env = matrix.envelope()
    if offs.shape[0] == 0:
        return offs, env
    return offs, env * _diagonal_weights(offs, r, weight)


def jaffard_norm(matrix, r):
    """sup over diagonals m of (1 + |m|_2)^r * sup_k |A(k, k-m)|."""
    _, wenv = _weighted_envelope(matrix, r)
    return float(wenv.max()) if wenv.size else 0.0


def _check_algebra_range(name, p, r, dim):
    # r > d(1 - 1/p) (r >= 0 when p = 1) is where these scale into algebras;
    # outside it the value is still a norm, so only warn
    ok = r >= 0 if p == 1 else r > dim * (1.0 - 1.0 / p)
    if not ok:
        warnings.warn(
            f"{name}: r={r} is outside the algebra range for p={p}, d={dim}",
            ParameterDomainWarning,
            stacklevel=3,
        )


def schur_norm(matrix, p, r, weight=None):
    """Weighted Schur norm: max of the worst row and worst column l^p sum.

    Row k contributes (sum_l |A(k, l)|^p v_r(k-l)^p)^(1/p), columns the same
    with roles swapped; p = inf degenerates to the weighted sup norm.
    """
    _check_algebra_range("schur_norm", p, r, matrix.dim)
    if math.isinf(p):
        _, wenv = _weighted_envelope(matrix, r, weight)
        return float(wenv.max()) if wenv.size else 0.0
    offs = matrix.offset_array()
    if offs.shape[0] == 0:
        return 0.0
    w = _diagonal_weights(offs, r, weight)
    row_sums, col_sums = matrix.line_power_sums(p, w)
    return float(max(row_sums.max(), col_sums.max()) ** (1.0 / p))


def cpr_norm(matrix, p, r, weight=None, literal=False):
    """l^p over diagonals of the weighted envelope.

    The default aggregates each diagonal by its sup; ``literal=True`` uses
    the per-entry double sum (sum of |entry|^p within the diagonal) instead.
    p = inf coincides with :func:`jaffard_norm` in both variants.
    """
    _check_algebra_range("cpr_norm", p, r, matrix.dim)
    offs = matrix.offset_array()
    if offs.shape[0] == 0:
        return 0.0
    w = _diagonal_weights(offs, r, weight)
    if math.isinf(p):
        _, env = matrix.envelope()
        return float((env * w).max())
    if literal:
        sums = matrix.diagonal_power_sums(p)
        return float((sums * w**p).sum() ** (1.0 / p))
    _, env = matrix.envelope()
    return float(((env * w) ** p).sum() ** (1.0 / p))


def weighted_norm(matrix, base, weight):
    """Base norm of the matrix with diagonal m scaled by weight(m).

    Only solid bases qualify: for those, scaling the diagonals by |w| is the
    same as weighting the norm, which is what makes the composition a norm.
    """
    base = _coerce_spec(base)
    if isinstance(base, NormSpec):
        if not base.is_solid:
            raise ValueError("weighted_norm requires a solid base norm")
        combined = weight if base.weight is None else _product_weight(base.weight, weight)
        return matrix_norm(matrix, replace(base, weight=combined))
    # callable base: scale the diagonals explicitly and trust the caller
    scaled = matrix.scale_diagonals(lambda offs: np.asarray(weight(offs), dtype=complex))
    return float(base(scaled))


class _ProductWeight:
    def __init__(self, first, second):
        self.first, self.second = first, second

    def __call__(self, offsets):
        return self.first(offsets) * self.second(offsets)


def _product_weight(a, b):
    return _ProductWeight(a, b)


def matrix_norm(matrix, spec):
    """Evaluate a norm given a NormSpec, a grammar string, or a callable."""
    spec = _coerce_spec(spec)
    if callable(spec) and not isinstance(spec, NormSpec):
        return float(spec(matrix))
    if spec.kind == "op":
        return op_norm_l2(matrix)
    if spec.kind == "jaffard":
        if spec.weight is None:
            return jaffard_norm(matrix, spec.r)
        _, wenv = _weighted_envelope(matrix, spec.r, spec.weight)
        return float(wenv.max()) if wenv.size else 0.0
    if spec.kind == "schur":
        return schur_norm(matrix, spec.p, spec.r, weight=spec.weight)
    return cpr_norm(matrix, spec.p, spec.r, weight=spec.weight, literal=spec.literal)


def _coerce_spec(spec):
    if isinstance(spec, str):
        return parse_norm_spec(spec)
    return spec


# -- multiplier stacks -------------------------------------------------------


def envelope_separable(spec):
    """Whether ``matrix_norm(spec)`` depends on a matrix only through its
    per-diagonal envelope: jaffard, cpr without ``literal`` and every solid
    kind at p = inf."""
    if not isinstance(spec, NormSpec) or not spec.is_solid:
        return False
    return spec.kind == "jaffard" or math.isinf(spec.p) or (spec.kind == "cpr" and not spec.literal)


def stack_norm(spec, offsets, env, factors, sup=False):
    """``matrix_norm(F_k . A, spec)`` for every row F_k of a (K, M) stack of
    per-diagonal multipliers, from the envelope ``env`` of A on ``offsets``.

    ``env`` may also be a (..., M) stack of envelopes; the result has shape
    (..., K), or (...) with ``sup=True``, which takes the max over the rows.
    Sup-type bases evaluate ``((env * |F|) * w).max(-1)``; because rounding
    is monotone, the max over rows commutes with the max over diagonals, so
    ``sup=True`` reduces |F| to its column max first and gives the same bits
    in O(M) instead of O(K M) per envelope.  cpr at p < inf is
    ``((env * w)^p @ |F|^p.T)^(1/p)``, one matrix product also for a stack
    of envelopes.  Specs that are not :func:`envelope_separable` raise.
    """
    if not envelope_separable(spec):
        raise ValueError(f"{spec!r} is not envelope-separable")
    w = _diagonal_weights(offsets, spec.r, spec.weight)
    env = np.asarray(env, dtype=float)
    mult = np.abs(np.asarray(factors)).astype(float, copy=False)
    if spec.kind == "jaffard" or math.isinf(spec.p):
        if sup:
            mult = mult.max(axis=0, keepdims=True)
        out = ((env[..., None, :] * mult) * w).max(axis=-1, initial=0.0)
        return out[..., 0] if sup else out
    out = ((env * w) ** spec.p) @ (mult**spec.p).T
    if sup:
        out = out.max(axis=-1)
    return out ** (1.0 / spec.p)


# -- string grammar -----------------------------------------------------------


def _parse_params(text, allowed):
    params = {}
    if not text:
        return params
    for tok in text.split(","):
        if "=" not in tok:
            raise ValueError(f"malformed parameter {tok!r}")
        key, val = tok.split("=", 1)
        key = key.strip()
        if key not in allowed:
            raise ValueError(f"unknown parameter {key!r}")
        params[key] = val.strip()
    return params


def _parse_p(text):
    if text in ("inf", "Inf", "INF"):
        return math.inf
    return float(text)


_WEIGHT_ALIASES = {"poly": "poly", "polynomial": "poly", "bessel": "bessel"}


def parse_norm_spec(text):
    """Parse strings like ``op``, ``jaffard:r=2``, ``schur:p=1,r=0``,
    ``cpr:p=2,r=1.5,literal=true`` or ``w[bessel:r=1]jaffard:r=0``."""
    text = text.strip()
    weight = None
    if text.startswith("w["):
        end = text.find("]")
        if end < 0:
            raise ValueError(f"unterminated weight in {text!r}")
        wtext = text[2:end]
        text = text[end + 1 :]
        if ":" in wtext:
            wkind, wparams = wtext.split(":", 1)
        else:
            wkind, wparams = wtext, ""
        wkind = _WEIGHT_ALIASES.get(wkind.strip())
        if wkind is None:
            raise ValueError(f"unknown weight kind in {wtext!r}")
        params = _parse_params(wparams, {"r"})
        weight = Weight(wkind, float(params.get("r", 0.0)))
    if ":" in text:
        kind, rest = text.split(":", 1)
    else:
        kind, rest = text, ""
    kind = kind.strip()
    if kind == "op":
        if rest or weight is not None:
            raise ValueError("operator norm takes no parameters or weights")
        return NormSpec("op")
    if kind == "jaffard":
        params = _parse_params(rest, {"r"})
        return NormSpec("jaffard", r=float(params.get("r", 0.0)), weight=weight)
    if kind == "schur":
        params = _parse_params(rest, {"p", "r"})
        return NormSpec(
            "schur",
            p=_parse_p(params.get("p", "inf")),
            r=float(params.get("r", 0.0)),
            weight=weight,
        )
    if kind == "cpr":
        params = _parse_params(rest, {"p", "r", "literal"})
        literal = params.get("literal", "false").lower() in ("1", "true", "yes")
        return NormSpec(
            "cpr",
            p=_parse_p(params.get("p", "inf")),
            r=float(params.get("r", 0.0)),
            weight=weight,
            literal=literal,
        )
    raise ValueError(f"unknown norm kind {kind!r}")


def _fmt_float(x):
    if math.isinf(x):
        return "inf"
    return repr(float(x))


def format_norm_spec(spec):
    """Canonical string for a NormSpec; parse(format(s)) == s."""
    prefix = ""
    if spec.weight is not None:
        prefix = f"w[{spec.weight.kind}:r={_fmt_float(spec.weight.r)}]"
    if spec.kind == "op":
        return "op"
    if spec.kind == "jaffard":
        return f"{prefix}jaffard:r={_fmt_float(spec.r)}"
    body = f"{spec.kind}:p={_fmt_float(spec.p)},r={_fmt_float(spec.r)}"
    if spec.kind == "cpr" and spec.literal:
        body += ",literal=true"
    return prefix + body
