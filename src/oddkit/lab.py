"""Matrix generators and finite-section inversion experiments.

Decay models produce matrices whose entries obey the envelope
|A(k, l)| <= c (1 + |k - l|_2)^(-r) exactly:

* ``det``   - every entry equals the envelope (real, positive),
* ``phase`` - envelope magnitude with an independent uniform phase,
* ``mag``   - envelope magnitude scaled by an independent uniform [0, 1).

``make_invertible`` shifts a matrix to margin * ||A|| * I + A, which bounds
the condition number by (margin + 1) / (margin - 1); the finite-section
inverse is then profiled for off-diagonal decay.  The spectral-invariance
experiment repeats this over a sequence of windows and tabulates norms of
the matrix and its inverse.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import smoothness as _smoothness
from .lattice import LatticeMatrix, _as_bandwidth, _blocks, _drop_zero, _offset_table
from .norms import _dense_singular_extremes, _real_if_exact, op_norm_l2

__all__ = [
    "DecayModel",
    "DecayProfile",
    "InvarianceCell",
    "InvarianceReport",
    "SingularSectionError",
    "corpus",
    "decay_profile",
    "generate",
    "invert_finite_section",
    "make_invertible",
    "spectral_invariance_report",
]

_KIND_ALIASES = {
    "det": "det",
    "deterministic-envelope": "det",
    "phase": "phase",
    "random-phase": "phase",
    "mag": "mag",
    "random-magnitude": "mag",
}

SV_GATE = 1e-10  # smallest singular value / largest below which a section is singular
RESIDUAL_GATE = 1e-8  # largest ||B B^-1 - I||_op an accepted inverse may leave
_FIT_MIN_POINTS = 8  # diagonals that the decay_profile fit window must hold


class SingularSectionError(RuntimeError):
    """The finite section is numerically singular (or its inverse failed
    the residual check)."""


@dataclass(frozen=True)
class DecayModel:
    """Envelope-decay generator: kind in {det, phase, mag}, decay exponent,
    amplitude c and a 64-bit RNG seed."""

    kind: str
    exponent: float
    amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        kind = _KIND_ALIASES.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown decay model kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if not self.exponent >= 0:
            raise ValueError("exponent must be >= 0")
        if not 0 < self.amplitude < math.inf:
            raise ValueError("amplitude must be finite and > 0")


def generate(model, window, dim=1, band=None):
    """Draw a matrix from a decay model on the window [-W, W]^d.

    ``band`` caps the populated offsets at |m|_inf <= band (default: the
    full window, band = 2W).  Same model and geometry always reproduce the
    same matrix bit for bit.  The buffer is filled one block of diagonals
    at a time, so its temporaries stay under the block budget of
    ``lattice``.
    """
    dim, window = int(dim), int(window)
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if window < 1:
        raise ValueError("window must be >= 1")
    if band is None:
        band = 2 * window
    band = _as_bandwidth(band, "band")
    if not band <= 2 * window:
        raise ValueError("band must lie in [0, 2W]")
    offs, lens = _offset_table(dim, window, band)
    # scalar Python powers: numpy's ** differs from them in the last bit
    env = [(1.0 + math.sqrt(sum(m * m for m in off))) ** -model.exponent for off in offs.tolist()]
    env = model.amplitude * np.array(env)
    buf = np.empty(int(lens.sum()), dtype=np.complex128)
    # draws block by block in buffer order are the stream of one draw for
    # the whole buffer, and that of one draw per diagonal
    rng = np.random.default_rng(model.seed)
    at = 0
    for lo, hi in _blocks((2 * window + 1) ** dim, lens.size):
        part = np.repeat(env[lo:hi], lens[lo:hi])
        out = buf[at : at + part.size]
        at += part.size
        if model.kind == "det":
            out[:] = part
        elif model.kind == "phase":
            np.exp(2j * np.pi * rng.random(part.size), out=out)
            out *= part
        else:
            np.multiply(part, rng.random(part.size), out=out)
    return LatticeMatrix._raw(dim, window, *_drop_zero((2 * window + 1) ** dim, offs, buf, lens))


def corpus(seed, window, count=100, dim=1):
    """Deterministic mixed corpus: model kinds cycle through det/phase/mag
    and the decay exponents sweep [2.5, 4.0]."""
    kinds = ("det", "phase", "mag")
    out = []
    for i in range(count):
        model = DecayModel(
            kind=kinds[i % 3],
            exponent=2.5 + 1.5 * (i % 8) / 7.0,
            amplitude=1.0,
            seed=(seed * 1_000_003 + i) % 2**63,
        )
        out.append(generate(model, window, dim=dim))
    return out


def make_invertible(matrix, margin=2.0):
    """margin * ||A||_op * I + A; margin > 1 keeps the condition number
    at most (margin + 1) / (margin - 1).  Rejects the zero matrix."""
    if not 1.0 < margin < math.inf:
        raise ValueError(f"margin must be finite and > 1, got {margin}")
    nrm = op_norm_l2(matrix)
    if nrm == 0.0:
        raise ValueError("cannot shift the zero matrix into invertibility")
    return margin * nrm * LatticeMatrix.identity(matrix.dim, matrix.window) + matrix


def _norm_bound(x):
    """sqrt(||x||_1 ||x||_inf) >= ||x||_2 in O(n^2) (Higham 2002, section 6.3)."""
    return math.sqrt(np.linalg.norm(x, 1) * np.linalg.norm(x, np.inf))


def _singular_value_gate(s_max, s_min):
    if s_min < SV_GATE * s_max:
        ratio = s_min / s_max
        raise SingularSectionError(f"section numerically singular: s_min/s_max = {ratio:.3e}")


def invert_finite_section(matrix):
    """Dense inverse of the window section, with safety checks.

    Raises :class:`SingularSectionError` when the smallest singular value
    falls below ``SV_GATE`` times the largest, or when the inverse fails the
    residual check ||B B^-1 - I||_op <= ``RESIDUAL_GATE``.

    Each gate is decided first in O(n^2) from beta(X) = sqrt(||X||_1 ||X||_inf)
    >= ||X||_2, and by its exact O(n^3) test only when that is inconclusive:
    with X = inv(B) and a passing residual R, ||B^-1||_2 <= beta(X) / (1 -
    ||R||_2), so 2 (1 + RESIDUAL_GATE) beta(B) beta(X) < 1/SV_GATE passes it.
    A real section is inverted in real arithmetic.
    """
    dense = _real_if_exact(matrix.to_dense())
    if matrix.is_zero():
        raise SingularSectionError("zero matrix has no inverse")
    try:
        inv = np.linalg.inv(dense)
    except np.linalg.LinAlgError:
        # exactly singular: the complex SVD, so that the reported ratio does
        # not depend on whether the section narrowed to real
        svals = np.linalg.svd(matrix.to_dense(), compute_uv=False)
        _singular_value_gate(svals[0], svals[-1])
        raise
    certified = 2 * (1 + RESIDUAL_GATE) * SV_GATE * _norm_bound(dense) * _norm_bound(inv) < 1
    if not certified:
        _singular_value_gate(*_dense_singular_extremes(dense))
    resid = dense @ inv
    np.fill_diagonal(resid, resid.diagonal() - 1.0)
    if not _norm_bound(resid) <= RESIDUAL_GATE:
        resid_norm = np.linalg.norm(resid, 2)
        if resid_norm > RESIDUAL_GATE:
            if certified:  # the certificate assumed a passing residual
                _singular_value_gate(*_dense_singular_extremes(dense))
            raise SingularSectionError(f"inverse failed the residual check: {resid_norm:.3e}")
    del dense, resid  # only the inverse stays alive while it is packed
    return LatticeMatrix.from_dense(inv, matrix.dim, matrix.window)


@dataclass(frozen=True)
class DecayProfile:
    """Interior-row decay envelope and its log-log power fit.

    ``exponent`` is minus the fitted slope of log d(m) against
    log(1 + |m|_2); ``exponent_inner``/``exponent_outer`` refit the two
    halves of the fit window, and ``superpolynomial`` flags decay clearly
    faster than any power law (outer-half exponent running away from the
    inner half)."""

    distances: tuple
    envelope: tuple
    exponent: float
    intercept: float
    residual: float
    n_fit: int
    fit_lo: float
    fit_hi: float
    exponent_inner: float
    exponent_outer: float
    superpolynomial: bool


def _interior_envelope(matrix):
    """|m|_2 and the sup of |entries| over the central 50% of rows
    (|k|_inf <= W // 2) of every diagonal m that has such rows."""
    k = np.indices((2 * matrix.window + 1,) * matrix.dim).reshape(matrix.dim, -1)
    interior = (np.abs(k - matrix.window) <= matrix.window // 2).all(axis=0)
    offs, sups = matrix.envelope(rows=interior)
    keep = sups >= 0
    return np.sqrt((offs[keep] ** 2).sum(axis=1)), sups[keep]


def decay_profile(matrix):
    """Fit the interior decay envelope to a power law.

    The fit window is 1 <= |m|_2 <= 0.75 * max |m|_2 (the main diagonal and
    the outer quarter are edge-dominated and excluded) and must contain at
    least ``_FIT_MIN_POINTS`` diagonals.
    """
    dists, vals = _interior_envelope(matrix)
    if dists.size == 0:
        raise ValueError("decay profile of the zero matrix is undefined")
    fit_lo = 1.0
    fit_hi = 0.75 * float(dists.max())
    sel = (dists >= fit_lo) & (dists <= fit_hi)
    if int(sel.sum()) < _FIT_MIN_POINTS:
        raise ValueError(
            f"only {int(sel.sum())} diagonals inside the fit window "
            f"[{fit_lo}, {fit_hi}]; need at least {_FIT_MIN_POINTS}"
        )
    x = np.log1p(dists[sel])
    y = np.log(np.maximum(vals[sel], 1e-300))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    order = np.argsort(x)
    half = order.size // 2
    lo_idx, hi_idx = order[:half], order[half:]

    def _fit(idx):
        if idx.size < 2 or np.ptp(x[idx]) == 0:
            return -slope
        s, _ = np.polyfit(x[idx], y[idx], 1)
        return -s

    exp_inner = float(_fit(lo_idx))
    exp_outer = float(_fit(hi_idx))
    super_poly = exp_outer > exp_inner + max(1.0, 0.25 * abs(exp_inner))
    srt = np.argsort(dists)
    return DecayProfile(
        distances=tuple(float(d) for d in dists[srt]),
        envelope=tuple(float(v) for v in vals[srt]),
        exponent=float(-slope),
        intercept=float(intercept),
        residual=resid,
        n_fit=int(sel.sum()),
        fit_lo=float(fit_lo),
        fit_hi=float(fit_hi),
        exponent_inner=exp_inner,
        exponent_outer=exp_outer,
        superpolynomial=bool(super_poly),
    )


@dataclass(frozen=True)
class InvarianceCell:
    window: int
    condition: float
    op_norm_forward: float
    profile_forward: DecayProfile
    profile_inverse: DecayProfile
    norms: dict  # spec string -> {"forward": float, "inverse": float}


@dataclass(frozen=True)
class InvarianceReport:
    model: DecayModel
    margin: float
    dim: int
    windows: tuple
    norm_specs: tuple
    cells: tuple
    stability: dict  # spec string -> tuple of |delta|/value between windows

    def to_dict(self):
        return {
            "model": asdict(self.model),
            "margin": self.margin,
            "dim": self.dim,
            "windows": list(self.windows),
            "norms": list(self.norm_specs),
            "cells": [
                {
                    "window": c.window,
                    "condition": c.condition,
                    "op_norm_forward": c.op_norm_forward,
                    "exponent_forward": c.profile_forward.exponent,
                    "exponent_inverse": c.profile_inverse.exponent,
                    "residual_forward": c.profile_forward.residual,
                    "residual_inverse": c.profile_inverse.residual,
                    "superpolynomial_inverse": c.profile_inverse.superpolynomial,
                    "norms": c.norms,
                }
                for c in self.cells
            ],
            "stability": {k: list(v) for k, v in self.stability.items()},
        }


def _libc_malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _libc_malloc_trim()


def _release_freed_memory():
    """Hand the free pages of the C heap back to the OS (a no-op without
    glibc).  glibc serves a section smaller than the largest mapping freed
    so far from its heap and returns only the heap's top, so one small
    long-lived allocation that lands above a freed section keeps all of it
    resident.  Without this, the peak RSS of a W = 512 report moved by
    about 29 MB from one process to the next with its address layout."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _default_report_norms(model):
    return (
        f"jaffard:r={repr(float(model.exponent))}",
        "w[bessel:r=1]jaffard:r=0",
        "besov:base=jaffard:r=0,r=0.5,p=inf,method=solidlp",
    )


def spectral_invariance_report(model, windows, norms=None, margin=2.0, dim=1):
    """Generate/shift/invert the model at each window and tabulate decay
    exponents and norms of the matrix and of its finite-section inverse.

    Windows below 16 are refused: the interior-row profile needs room.
    ``stability`` reports the relative change of every inverse norm between
    consecutive windows.
    """
    windows = tuple(int(w) for w in windows)
    if not windows:
        raise ValueError("need at least one window")
    if any(w < 16 for w in windows):
        raise ValueError("windows below 16 are too small for decay profiling")
    if norms is None:
        norms = _default_report_norms(model)
    norms = tuple(norms)
    parsed = [_smoothness.parse_any_spec(s) if isinstance(s, str) else s for s in norms]

    def cell(window):
        # one dense section alive at a time: the extremes' is freed before
        # invert_finite_section makes its own, `a` is not kept, and the
        # pages freed so far go back to the OS before the inverse is formed
        b = make_invertible(generate(model, window, dim=dim), margin=margin)
        s_max, s_min = _dense_singular_extremes(b.to_dense())
        _release_freed_memory()
        b_inv = invert_finite_section(b)
        norm_table = {
            text: {
                "forward": _smoothness.evaluate(b, spec),
                "inverse": _smoothness.evaluate(b_inv, spec),
            }
            for text, spec in zip(norms, parsed)
        }
        return InvarianceCell(
            window=window,
            condition=s_max / s_min,
            op_norm_forward=s_max,
            profile_forward=decay_profile(b),
            profile_inverse=decay_profile(b_inv),
            norms=norm_table,
        )

    cells = tuple(cell(w) for w in windows)
    stability = {}
    for text in norms:
        vals = [c.norms[text]["inverse"] for c in cells]
        deltas = tuple(
            abs(b - a) / abs(a) if a else math.inf for a, b in zip(vals, vals[1:])
        )
        stability[text] = deltas
    return InvarianceReport(
        model=model,
        margin=margin,
        dim=dim,
        windows=windows,
        norm_specs=norms,
        cells=cells,
        stability=stability,
    )


def report_csv_rows(report):
    """Flatten a report into (window, spec, forward, inverse) rows."""
    rows = [("window", "spec", "forward", "inverse")]
    for cell in report.cells:
        for spec, vals in cell.norms.items():
            rows.append((cell.window, spec, vals["forward"], vals["inverse"]))
    return rows
