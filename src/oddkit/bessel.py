"""Bessel-type diagonal multipliers and the hypersingular seminorm.

``bessel_convolve`` damps diagonal m by (1 + |2 pi m|_2^2)^(-r/2); the
matching weighted norm (``bessel_norm``) inverts that damping, so the two
compose to the identity at multiplier level.  For 0 < r < 2 the same scale
of norms has a hypersingular description: the base norm plus the supremum
over a cutoff grid of the base norm of the matrix whose diagonal m is
multiplied by

    mu_eps(m) = int_{eps <= |t|_2 <= 1} (e^{2 pi i m.t} - 1) |t|_2^{-r} dt / |t|_2^d.

The multipliers are real (the imaginary part cancels by symmetry) and are
computed by panel Gauss-Legendre quadrature with panels split at the phase
half-periods and at the dyadic cutoffs, refined until successive values
agree to 0.5%; for d = 2 the angular integral uses the periodic trapezoid
rule.  Non-convergence raises :class:`QuadratureError` rather than returning
a value.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import norms as _norms
from .lattice import LatticeMatrix
from .smoothness import _norm_fn, _stack_values, besov_norm_solid_lp

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

    Values are cached per diagonal (they depend on |m|_2 only) across the
    cutoff grid eps = 2^-1, ..., 2^-levels.  ``rel_tol`` is the refinement
    stop: successive node-doubling passes must agree to this relative
    tolerance for every cutoff.
    """

    _GL_CACHE = {}

    def __init__(self, r, dim=1, levels=12, rel_tol=5e-3, max_nodes=256):
        if not (0.0 < r < 2.0):
            raise ValueError("hypersingular exponent requires 0 < r < 2")
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        self.r = float(r)
        self.dim = int(dim)
        self.levels = int(levels)
        self.rel_tol = float(rel_tol)
        self.max_nodes = int(max_nodes)
        self._cache = {}

    @property
    def eps_grid(self):
        return tuple(2.0**-j for j in range(1, self.levels + 1))

    @classmethod
    def _gauss(cls, n):
        if n not in cls._GL_CACHE:
            cls._GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
        return cls._GL_CACHE[n]

    def _edges(self, freq):
        """Panel edges on [2^-levels, 1]: dyadic cutoffs plus phase
        half-periods k / (2 freq)."""
        lo = 2.0**-self.levels
        edges = {1.0}
        edges.update(2.0**-j for j in range(1, self.levels + 1))
        if freq > 0:
            half = 0.5 / freq
            k0 = max(1, int(math.ceil(lo / half)))
            edges.update(
                k * half for k in range(k0, int(math.floor(1.0 / half)) + 1)
            )
        arr = np.array(sorted(edges))
        return arr[(arr >= lo - 1e-18) & (arr <= 1.0 + 1e-18)]

    def _panel_values(self, freq, nodes, n_theta):
        """Per-panel integrals of the radial integrand at the given node
        count, as (edges, panel_integrals)."""
        edges = self._edges(freq)
        lo, hi = edges[:-1], edges[1:]
        x_gl, w_gl = self._gauss(nodes)
        half = 0.5 * (hi - lo)
        x = lo[:, None] + half[:, None] * (x_gl[None, :] + 1.0)  # (P, n)
        w = half[:, None] * w_gl[None, :]
        if self.dim == 1:
            vals = (2.0 * np.cos(2.0 * np.pi * freq * x) - 2.0) * x ** (-1.0 - self.r)
        else:
            theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
            phase = 2.0 * np.pi * freq * x[..., None] * np.cos(theta)  # (P, n, T)
            ang = (np.cos(phase) - 1.0).mean(axis=-1) * 2.0 * np.pi
            vals = ang * x ** (-1.0 - self.r)
        return edges, (vals * w).sum(axis=1)

    def _mu_row(self, freq):
        """mu_eps for one |m|_2, over the full cutoff grid (decreasing eps)."""
        if freq == 0.0:
            return np.zeros(self.levels)
        prev = None
        nodes, n_theta = 16, 64
        while nodes <= self.max_nodes:
            edges, panels = self._panel_values(freq, nodes, n_theta)
            csum = np.concatenate([[0.0], np.cumsum(panels[::-1])])[::-1]
            # panels are bounded by the dyadic edges, so each cutoff lands
            # exactly on a panel boundary
            idx = np.searchsorted(edges, np.asarray(self.eps_grid), side="left")
            row = csum[np.minimum(idx, len(csum) - 1)]
            if prev is not None:
                scale = np.maximum(np.abs(row), 1e-12)
                if np.max(np.abs(row - prev) / scale) < self.rel_tol:
                    return row
            prev = row
            nodes *= 2
            n_theta *= 2
        raise QuadratureError(
            f"multiplier quadrature did not converge for |m|={freq} "
            f"(r={self.r}, d={self.dim})"
        )

    def multipliers(self, offsets):
        """mu_eps(m) table for an (M, d) offset array, shape (M, levels).

        Values are real; mu_eps(0) = 0 and mu_eps(-m) = mu_eps(m).
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim == 1:
            offsets = offsets.reshape(-1, 1)
        out = np.empty((offsets.shape[0], self.levels))
        for i, off in enumerate(offsets):
            key = int((off.astype(np.int64) ** 2).sum())
            row = self._cache.get(key)
            if row is None:
                row = self._mu_row(math.sqrt(key))
                self._cache[key] = row
            out[i] = row
        return out


def hypersingular_profile(matrix, r, base, quad=None):
    """Seminorm values base(mu_eps . A) over the cutoff grid.

    Returns (eps_grid, values) with eps decreasing.
    """
    if quad is None:
        quad = HypersingularQuadrature(r, matrix.dim)
    if quad.dim != matrix.dim or quad.r != r:
        raise ValueError("quadrature object does not match (r, dim)")
    offs = matrix.offset_array()
    eps = np.asarray(quad.eps_grid)
    if offs.shape[0] == 0:
        return eps, np.zeros(len(eps))
    mu = quad.multipliers(offs)  # (M, E)
    return eps, _stack_values(matrix, base, mu.T)


def hypersingular_norm(matrix, r, base, quad=None):
    """base(A) + sup over the cutoff grid of base(mu_eps . A), 0 < r < 2.

    The seminorm sweep should be monotone and settle at the smallest
    cutoffs; if the last three grid points still move by more than the
    quadrature tolerance a :class:`StabilizationWarning` is emitted (typical
    for r close to 2, where the cutoff integral converges very slowly).
    """
    if not (0.0 < r < 2.0):
        raise ValueError("hypersingular exponent requires 0 < r < 2")
    fn, _ = _norm_fn(base)
    base_val = fn(matrix)
    eps, vals = hypersingular_profile(matrix, r, base, quad=quad)
    if len(vals) == 0 or vals.max() == 0.0:
        return float(base_val)
    tail = vals[-3:]
    if tail.size == 3 and tail.max() > 0:
        spread = (tail.max() - tail.min()) / tail.max()
        if spread > 5e-3:
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


def embedding_check(matrix, r, base, s=0.5, p=math.inf, quad=None, hyp=True):
    """Measure the norm chain p=1 block norm >~ Bessel norm >~ p=inf block
    norm at smoothness r, the smoothness shift of bessel_convolve (order s,
    summability p), and optionally the hypersingular/Bessel ratio."""
    if matrix.is_zero():
        raise ValueError("embedding check undefined for the zero matrix")
    b1 = besov_norm_solid_lp(matrix, base, r, 1.0)
    binf = besov_norm_solid_lp(matrix, base, r, math.inf)
    bes = bessel_norm(matrix, r, base)
    lhs = besov_norm_solid_lp(bessel_convolve(matrix, r), base, s, p)
    rhs = besov_norm_solid_lp(matrix, base, r + s, p)
    hyp_val = None
    hyp_ratio = None
    if hyp and 0.0 < r < 2.0:
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
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim == 1:
        offsets = offsets.reshape(-1, 1)
    table = quad.multipliers(offsets)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"m{j+1}" for j in range(offsets.shape[1])] + ["eps", "re", "im"]
        )
        for off, row in zip(offsets, table):
            for eps, val in zip(quad.eps_grid, row):
                writer.writerow([*map(int, off), repr(eps), repr(float(val)), "0.0"])
