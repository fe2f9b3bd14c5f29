"""Approximation by banded matrices and the resulting smoothness scale.

The approximants of bandwidth n are the matrices whose offsets satisfy
|m|_inf < n (so bandwidth 0 is the zero matrix and bandwidth 1 the main
diagonal).  For solid norms that decompose over diagonals, truncation is the
best approximant, so the approximation error is simply the norm of the
discarded tail, read as the multiplier row of the mask |m|_inf >= n: one
stack row per bandwidth n, with no truncated or subtracted matrix formed.

``approx_space_norm`` aggregates the error sequence E_n into a norm, either
as the discretized integral sum_{n=0}^{2W} E_n^p (n+1)^{rp-1} or as the
dyadic sum over n = 2^j (the dyadic form carries an extra E_0 term so it
stays a norm for band-limited matrices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import norms as _norms
from .lattice import _as_bandwidth
from .smoothness import besov_norm_solid_lp

__all__ = [
    "CprShiftReport",
    "approx_error",
    "approx_errors",
    "approx_space_norm",
    "cpr_shift_identity_check",
    "jackson_bernstein_ratio",
]

_FORMS = ("sum", "dyadic")


def _tail_errors(matrix, base, ns):
    """E_n for every bandwidth n of ``ns``: the base norm of the tail mask
    |m|_inf >= n applied to the matrix, one multiplier-stack row per n."""
    sup = np.abs(matrix.offset_array()).max(axis=1)
    return _norms._stack_values(matrix, base, sup[None, :] >= ns[:, None])


def approx_error(matrix, n, base):
    """E_n: base norm of the matrix minus its bandwidth-n truncation."""
    return float(_tail_errors(matrix, base, np.array([_as_bandwidth(n)]))[0])


def approx_errors(matrix, base, n_max=None):
    """The error sequence (E_0, ..., E_{n_max}) as an array."""
    if n_max is None:
        n_max = 2 * matrix.window
    return _tail_errors(matrix, base, np.arange(_as_bandwidth(n_max, "n_max") + 1))


def approx_space_norm(matrix, base, r, p=math.inf, form="sum"):
    """Aggregate the banded approximation errors into a smoothness norm.

    form="sum":    ( sum_{n=0}^{2W} E_n^p (n+1)^{rp} / (n+1) )^{1/p}
    form="dyadic": ( E_0^p + sum_{2^j <= 2W} (2^{jr} E_{2^j})^p )^{1/p}

    with the max over the same terms when p = inf.
    """
    if form not in _FORMS:
        raise ValueError(f"unknown form {form!r}")
    _norms._check_smoothness(r, p)
    errors = approx_errors(matrix, base)
    n = np.arange(errors.size, dtype=float)
    if form == "sum":
        if math.isinf(p):
            return float((errors * (n + 1.0) ** r).max())
        terms = errors**p * (n + 1.0) ** (r * p - 1.0)
        return float(terms.sum() ** (1.0 / p))
    top = int(math.log2(errors.size - 1)) if errors.size > 1 else -1  # largest 2^top <= 2W
    vals = [errors[0]] + [2.0 ** (j * r) * errors[2**j] for j in range(top + 1)]
    return float(_norms._lp_combine(vals, p))


def jackson_bernstein_ratio(matrix, base, r, p=math.inf):
    """Ratio of the approximation-space norm (integral form) to the dyadic
    block smoothness norm of the same (base, r, p); the two scales coincide,
    so the ratio measures the equivalence constants.  Rejects zero input."""
    if matrix.is_zero():
        raise ValueError("ratio undefined for the zero matrix")
    num = approx_space_norm(matrix, base, r, p, form="sum")
    den = besov_norm_solid_lp(matrix, base, r, p)
    if den == 0.0:
        raise ValueError("block smoothness norm vanished; ratio undefined")
    return float(num / den)


@dataclass(frozen=True)
class CprShiftReport:
    """Both sides of the smoothness shift identity for the diagonal l^p
    scale: approximation spaces over the weighted scale match the unweighted
    scale with shifted smoothness, and (for matching summability) the
    directly weighted norm."""

    lhs: float
    rhs: float
    ratio: float
    direct: float | None
    ratio_direct: float | None
    p: float
    q: float
    r: float
    s: float


def cpr_shift_identity_check(matrix, p, q, r, s):
    """Compare E^q_s over cpr(p, r) with E^q_{s+r} over cpr(p, 0), both in
    the sum form of :func:`approx_space_norm`, and when p == q also with the
    plain cpr(p, r + s) norm."""
    _norms._check_smoothness(s, q)
    if matrix.is_zero():
        raise ValueError("check undefined for the zero matrix")
    base_r = _norms.NormSpec("cpr", p=p, r=r)
    base_0 = _norms.NormSpec("cpr", p=p, r=0.0)
    lhs = approx_space_norm(matrix, base_r, s, q)
    rhs = approx_space_norm(matrix, base_0, s + r, q)
    ratio = lhs / rhs if rhs else math.inf
    direct = None
    ratio_direct = None
    if p == q:
        direct = _norms.cpr_norm(matrix, p, r + s)
        ratio_direct = lhs / direct if direct else math.inf
    return CprShiftReport(lhs, rhs, ratio, direct, ratio_direct, p, q, r, s)
