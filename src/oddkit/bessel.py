"""Bessel-type diagonal multipliers and the hypersingular seminorm.

``bessel_convolve`` damps diagonal m by (1 + |2 pi m|_2^2)^(-r/2); the
matching weighted norm (``bessel_norm``) inverts that damping, so the two
compose to the identity at multiplier level.  For 0 < r < 2 the same scale
of norms has a hypersingular description: the base norm plus the supremum
over a cutoff grid of the base norm of the matrix whose diagonal m is
multiplied by

    mu_eps(m) = int_{eps <= |t|_2 <= 1} (e^{2 pi i m.t} - 1) |t|_2^{-r} dt / |t|_2^d.

In polar coordinates t = rho * omega the angular average is exact:
2 (cos z - 1) for d = 1 and 2 pi (J_0(z) - 1) for d = 2 (DLMF 10.9.1), with
z = 2 pi |m|_2 rho, so the multipliers are real and both dimensions share
one radial rule: panel Gauss-Legendre quadrature with panels split at the
phase half-periods and at the dyadic cutoffs, refined until successive
values agree to ``REL_TOL``.  Non-convergence raises
:class:`QuadratureError` rather than returning a value.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import norms as _norms
from .lattice import LatticeMatrix
from .smoothness import besov_norm_solid_lp

__all__ = [
    "EmbeddingReport",
    "HypersingularQuadrature",
    "QuadratureError",
    "StabilizationWarning",
    "bessel_convolve",
    "bessel_norm",
    "embedding_check",
    "hypersingular_norm",
    "hypersingular_profile",
    "write_multiplier_csv",
]

LEVELS = 12  # cutoff grid eps = 2^-1, ..., 2^-LEVELS
REL_TOL = 5e-3  # refinement stop, and the stabilization threshold of the sweep
MAX_NODES = 256  # Gauss-Legendre nodes per panel at the last refinement pass
SHIFT_ORDER = 0.5  # smoothness order s of the embedding_check shift


class QuadratureError(RuntimeError):
    """The multiplier quadrature failed to meet its refinement tolerance."""


class StabilizationWarning(UserWarning):
    """The cutoff sweep has not stabilized at the smallest epsilon."""


def bessel_convolve(matrix, r):
    """Scale diagonal m by (1 + |2 pi m|_2^2)^(-r/2).

    r may be negative (which sharpens instead of damps); r = 0 is the
    identity.  Multipliers for +r and -r compose to 1 up to round-off, and
    consecutive applications satisfy the semigroup law at multiplier level.
    """
    if r == 0:
        return matrix
    return matrix.scale_diagonals(
        lambda offs: _norms.bessel_weight(offs, -r).astype(complex)
    )


def bessel_norm(matrix, r, base):
    """Base norm with the diagonal weight (1 + |2 pi m|_2^2)^(r/2)."""
    return _norms.weighted_norm(matrix, base, _norms.Weight("bessel", r))


class HypersingularQuadrature:
    """Cutoff-multiplier table mu_eps(m) for a fixed exponent r in (0, 2).

    A row holds mu_eps(m) across the cutoff grid eps = 2^-1, ..., 2^-LEVELS.
    It depends on (r, dim, |m|_2^2) only, so each row is computed once per
    process and kept read-only in the class-level ``_ROWS`` table, which
    every quadrature of the same (r, dim) shares.  Node-doubling passes stop
    when successive values agree to ``REL_TOL`` relative for every cutoff.
    """

    _GL_CACHE = {}
    # (r, dim, |m|^2, LEVELS, REL_TOL, MAX_NODES) -> read-only mu_eps row;
    # the module constants are part of the key because the row depends on them
    _ROWS = {}

    def __init__(self, r, dim=1):
        if not (0.0 < r < 2.0):
            raise ValueError("hypersingular exponent requires 0 < r < 2")
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        self.r = float(r)
        self.dim = int(dim)

    @property
    def eps_grid(self):
        return tuple(2.0**-j for j in range(1, LEVELS + 1))

    @classmethod
    def _gauss(cls, n):
        if n not in cls._GL_CACHE:
            cls._GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
        return cls._GL_CACHE[n]

    def _edges(self, freq):
        """Panel edges on [2^-LEVELS, 1]: dyadic cutoffs plus phase
        half-periods k / (2 freq)."""
        lo = 2.0**-LEVELS
        edges = [1.0, *self.eps_grid]
        if freq > 0:
            half = 0.5 / freq
            k = np.arange(max(1, math.ceil(lo / half)), math.floor(1.0 / half) + 1)
            edges = np.concatenate([edges, k * half])
        edges = np.unique(edges)
        return edges[(edges >= lo - 1e-18) & (edges <= 1.0 + 1e-18)]

    def _panel_values(self, freq, edges, nodes):
        """Per-panel integrals of the radial integrand between consecutive
        ``edges`` at the given node count."""
        lo, hi = edges[:-1], edges[1:]
        x_gl, w_gl = self._gauss(nodes)
        half = 0.5 * (hi - lo)
        x = lo[:, None] + half[:, None] * (x_gl[None, :] + 1.0)  # (P, n)
        w = half[:, None] * w_gl[None, :]
        z = 2.0 * np.pi * freq * x
        if self.dim == 1:
            ang = 2.0 * np.cos(z) - 2.0
        else:
            # deferred so that importing oddkit loads no scipy
            from scipy.special import j0

            ang = (j0(z) - 1.0) * 2.0 * np.pi
        vals = ang * x ** (-1.0 - self.r)
        return (vals * w).sum(axis=1)

    def _mu_row(self, freq):
        """mu_eps for one |m|_2, over the full cutoff grid (decreasing eps)."""
        if freq == 0.0:
            return np.zeros(LEVELS)
        edges = self._edges(freq)
        # panels are bounded by the dyadic edges, so each cutoff lands
        # exactly on a panel boundary
        idx = np.searchsorted(edges, np.asarray(self.eps_grid), side="left")
        prev = None
        nodes = 16
        while nodes <= MAX_NODES:
            panels = self._panel_values(freq, edges, nodes)
            csum = np.concatenate([[0.0], np.cumsum(panels[::-1])])[::-1]
            row = csum[idx]
            if prev is not None:
                scale = np.maximum(np.abs(row), 1e-12)
                if np.max(np.abs(row - prev) / scale) < REL_TOL:
                    return row
            prev = row
            nodes *= 2
        raise QuadratureError(
            f"multiplier quadrature did not converge for |m|={freq} "
            f"(r={self.r}, d={self.dim})"
        )

    def multipliers(self, offsets):
        """mu_eps(m) table for an (M, d) offset array, shape (M, levels).

        Values are real; mu_eps(0) = 0 and mu_eps(-m) = mu_eps(m).  A 1-d
        input is read as (M, 1).  Offsets must be integers with
        |m_j| < 2^31, one column per lattice dimension.  The returned array
        is a fresh copy of the shared rows.
        """
        offsets = np.asarray(offsets)
        if offsets.ndim == 1:
            offsets = offsets.reshape(-1, 1)
        if offsets.ndim != 2 or offsets.shape[1] != self.dim:
            raise ValueError(
                f"offsets must have shape (M, {self.dim}), got {offsets.shape}"
            )
        real = offsets.astype(float) if offsets.dtype.kind in "biuf" else np.nan
        if not (np.all(np.abs(real) < 2.0**31) and np.all(real == np.trunc(real))):
            raise ValueError("offsets must be integers with |m_j| < 2^31")
        # |m_j| < 2^31 keeps |m|^2 within int64 at d <= 2
        sq = (real.astype(np.int64) ** 2).sum(axis=1)
        keys, inverse = np.unique(sq, return_inverse=True)
        rows = []
        for k in keys.tolist():
            key = (self.r, self.dim, k, LEVELS, REL_TOL, MAX_NODES)
            row = self._ROWS.get(key)
            if row is None:
                row = self._mu_row(math.sqrt(k))
                row.flags.writeable = False
                self._ROWS[key] = row
            rows.append(row)
        return np.array(rows).reshape(-1, LEVELS)[inverse]


def hypersingular_profile(matrix, r, base, quad=None):
    """Seminorm values base(mu_eps . A) over the cutoff grid.

    Returns (eps_grid, values) with eps decreasing.  ``quad`` is an
    optional :class:`HypersingularQuadrature`; it must carry the same
    (r, dim) as the call.  Its rows come from the process-wide row table
    either way, so passing one saves no quadrature work.
    """
    if quad is None:
        quad = HypersingularQuadrature(r, matrix.dim)
    if quad.dim != matrix.dim or quad.r != r:
        raise ValueError("quadrature object does not match (r, dim)")
    eps = np.asarray(quad.eps_grid)
    mu = quad.multipliers(matrix.offset_array())  # (M, E)
    return eps, _norms._stack_values(matrix, base, mu.T)


def hypersingular_norm(matrix, r, base, quad=None):
    """base(A) + sup over the cutoff grid of base(mu_eps . A), 0 < r < 2.

    The seminorm sweep should be monotone and settle at the smallest
    cutoffs; if the last three grid points still move by more than the
    quadrature tolerance a :class:`StabilizationWarning` is emitted (typical
    for r close to 2, where the cutoff integral converges very slowly).
    ``quad`` is passed on to :func:`hypersingular_profile`.
    """
    if not (0.0 < r < 2.0):
        raise ValueError("hypersingular exponent requires 0 < r < 2")
    base_val = _norms.matrix_norm(matrix, base)
    eps, vals = hypersingular_profile(matrix, r, base, quad=quad)
    if len(vals) == 0 or vals.max() == 0.0:
        return float(base_val)
    tail = vals[-3:]
    if tail.size == 3 and tail.max() > 0:
        spread = (tail.max() - tail.min()) / tail.max()
        if spread > REL_TOL:
            warnings.warn(
                f"hypersingular seminorm not stabilized at eps=2^-{len(vals)} "
                f"(last-three spread {spread:.2%})",
                StabilizationWarning,
                stacklevel=2,
            )
    return float(base_val + vals.max())


@dataclass(frozen=True)
class EmbeddingReport:
    """Constants of the embedding chain between the block smoothness norms
    (p = 1 and p = inf) and the Bessel-weighted norm, plus the smoothness
    shift under bessel_convolve and the hypersingular comparison."""

    besov_p1: float
    bessel: float
    besov_pinf: float
    lower_ratio: float  # bessel / besov_p1 (bounded above)
    upper_ratio: float  # besov_pinf / bessel (bounded above)
    shift_lhs: float
    shift_rhs: float
    shift_ratio: float
    hypersingular: float | None
    hyp_ratio: float | None


def embedding_check(matrix, r, base, quad=None):
    """Measure the norm chain p=1 block norm >~ Bessel norm >~ p=inf block
    norm at smoothness r, the smoothness shift of bessel_convolve (order
    ``SHIFT_ORDER``, summability inf), and for 0 < r < 2 the
    hypersingular/Bessel ratio.  ``quad`` is passed on to
    :func:`hypersingular_norm`."""
    if matrix.is_zero():
        raise ValueError("embedding check undefined for the zero matrix")
    b1 = besov_norm_solid_lp(matrix, base, r, 1.0)
    binf = besov_norm_solid_lp(matrix, base, r, math.inf)
    bes = bessel_norm(matrix, r, base)
    lhs = besov_norm_solid_lp(bessel_convolve(matrix, r), base, SHIFT_ORDER)
    rhs = besov_norm_solid_lp(matrix, base, r + SHIFT_ORDER)
    hyp_val = None
    hyp_ratio = None
    if 0.0 < r < 2.0:
        hyp_val = hypersingular_norm(matrix, r, base, quad=quad)
        hyp_ratio = hyp_val / bes if bes else math.inf
    return EmbeddingReport(
        besov_p1=b1,
        bessel=bes,
        besov_pinf=binf,
        lower_ratio=bes / b1 if b1 else math.inf,
        upper_ratio=binf / bes if bes else math.inf,
        shift_lhs=lhs,
        shift_rhs=rhs,
        shift_ratio=lhs / rhs if rhs else math.inf,
        hypersingular=hyp_val,
        hyp_ratio=hyp_ratio,
    )


def write_multiplier_csv(quad, offsets, path):
    """Dump the mu_eps(m) table as (offset components..., eps, re, im)."""
    table = quad.multipliers(offsets)  # refuses malformed offsets
    offsets = np.asarray(offsets, dtype=np.int64).reshape(len(table), quad.dim)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"m{j+1}" for j in range(offsets.shape[1])] + ["eps", "re", "im"]
        )
        for off, row in zip(offsets, table):
            for eps, val in zip(quad.eps_grid, row):
                writer.writerow([*map(int, off), repr(eps), repr(float(val)), "0.0"])
