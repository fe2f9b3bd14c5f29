"""Empirical property checks over seeded corpora.

Each ``measure_*`` routine returns the raw measured quantity (worst residual
or ratio over a corpus) at fixed parameters: the solid norms
``SOLID_SPECS``, the base norm ``BASE``, and the orders, bands, smoothness
parameters and grids written in its body.  The suite table ``_SUITES`` turns
each measurement into a pass/fail verdict and its stats for the command
line.  Identities between library operations are evaluated on dense window
sections, which is exactly what the finite-section product does, so a
nonzero residual means an operation is wrong rather than an approximation
being coarse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import approx as _approx
from . import bessel as _bessel
from . import lab as _lab
from . import lattice as _lattice
from . import norms as _norms
from . import smoothness as _smoothness

__all__ = ["SuiteResult", "all_suites", "run_suites"]

SOLID_SPECS = (
    "jaffard:r=0",
    "jaffard:r=2",
    "schur:p=1,r=0",
    "schur:p=2,r=1",
    "cpr:p=1,r=0",
    "cpr:p=2,r=1.5",
    "w[bessel:r=1]jaffard:r=0",
)
SUBMULTIPLICATIVE_SPECS = ("schur:p=1,r=0", "jaffard:r=2", "cpr:p=1,r=0")
BASE = "jaffard:r=0"
BESOV_COMBOS = ((0.5, math.inf), (1.5, math.inf), (1.0, 1.0))


def t_values(seed, count=32, dim=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, size=(count, dim))


def _pairs(mats):
    # disjoint pairs: every matrix enters one product, no redundant sweeps
    if len(mats) == 1:
        return [(mats[0], mats[0])]
    out = [(mats[i], mats[i + 1]) for i in range(0, len(mats) - 1, 2)]
    if len(mats) % 2:
        out.append((mats[-1], mats[0]))
    return out


def _equivalence(ratios):
    """(C, ratios) with C = max(max r, 1/min r), the least constant that
    bounds every ratio and its reciprocal (inf for no ratios)."""
    c = max(max(ratios), 1.0 / min(ratios)) if ratios else math.inf
    return c, ratios


# -- identities of the modulation calculus ------------------------------------


def measure_leibniz(mats, ts):
    """Worst entrywise residual of the product rule
    D_t(AB) = chi_t(A) D_t(B) + D_t(A) B over all pairs and t."""
    worst = 0.0
    for a, b in _pairs(mats):
        ab = _lattice.multiply(a, b)
        a_d, b_d = a.to_dense(), b.to_dense()
        for t in ts:
            lhs = _lattice.difference(ab, t).to_dense()
            rhs = (
                _lattice.modulate(a, t).to_dense()
                @ _lattice.difference(b, t).to_dense()
                + _lattice.difference(a, t).to_dense() @ b_d
            )
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def measure_quotient(mats, ts):
    """Worst entrywise residual of
    D_t(B^-1) = -chi_t(B^-1) D_t(B) B^-1 for sections shifted into
    invertibility with margin 2."""
    worst = 0.0
    for a in mats:
        b = _lab.make_invertible(a, margin=2.0)
        b_inv = _lab.invert_finite_section(b)
        inv_d = b_inv.to_dense()
        for t in ts:
            lhs = _lattice.difference(b_inv, t).to_dense()
            rhs = -(
                _lattice.modulate(b_inv, t).to_dense()
                @ _lattice.difference(b, t).to_dense()
                @ inv_d
            )
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def measure_group_law(mats, ts):
    worst = 0.0
    for a in mats:
        for s, t in zip(ts[:-1], ts[1:]):
            lhs = _lattice.modulate(_lattice.modulate(a, s), t)
            rhs = _lattice.modulate(a, s + t)
            worst = max(worst, lhs.max_abs_diff(rhs))
    return worst


def measure_binomial(mats, ts):
    """Residual of D^k_t, k = 1, 2, 3, as the alternating binomial sum of
    modulations."""
    worst = 0.0
    for a in mats:
        for t in ts[:4]:
            for k in (1, 2, 3):
                acc = _lattice.LatticeMatrix.zeros(a.dim, a.window)
                for j in range(k + 1):
                    acc = acc + ((-1.0) ** (k - j) * math.comb(k, j)) * _lattice.modulate(
                        a, j * np.asarray(t)
                    )
                worst = max(worst, _lattice.difference(a, t, k).max_abs_diff(acc))
    return worst


def measure_modulate_isometry(mats, ts):
    worst = 0.0
    parsed = [_norms.parse_norm_spec(s) for s in SOLID_SPECS]
    for a in mats:
        ref = [_norms.matrix_norm(a, sp) for sp in parsed]
        for t in ts:
            b = _lattice.modulate(a, t)
            for sp, r0 in zip(parsed, ref):
                v = _norms.matrix_norm(b, sp)
                if r0 > 0:
                    worst = max(worst, abs(v - r0) / r0)
    return worst


def measure_solidity(mats, seed):
    """Largest (signed) violation of norm monotonicity under entrywise
    domination; non-positive means solidity holds."""
    rng = np.random.default_rng(seed)
    parsed = [_norms.parse_norm_spec(s) for s in SOLID_SPECS]
    worst = -math.inf
    for a in mats:
        dominated = _lattice.LatticeMatrix(
            a.dim,
            a.window,
            {off: arr * rng.random(arr.shape) for off, arr in a.diagonals()},
        )
        for sp in parsed:
            worst = max(
                worst,
                _norms.matrix_norm(dominated, sp) - _norms.matrix_norm(a, sp),
            )
    return worst


def measure_bernstein(mats):
    """max over the corpus and N = 4, 8, 16 of
    ||derivation(T_N A)|| / (2 pi N ||T_N A||); at most 1 for every solid
    norm."""
    parsed = [_norms.parse_norm_spec(s) for s in SOLID_SPECS]
    worst = 0.0
    for a in mats:
        for n in (4, 8, 16):
            trunc = _lattice.band_truncate(a, n)
            if trunc.is_zero():
                continue
            for axis in range(a.dim):
                alpha = tuple(1 if j == axis else 0 for j in range(a.dim))
                deriv = _lattice.derivation(trunc, alpha)
                for sp in parsed:
                    denom = _norms.matrix_norm(trunc, sp)
                    if denom == 0:
                        continue
                    ratio = _norms.matrix_norm(deriv, sp) / denom
                    worst = max(worst, ratio / (2.0 * math.pi * n))
    return worst


# -- equivalence constants ------------------------------------------------------


def measure_besov_equivalence(mats, combos=BESOV_COMBOS):
    """All pairwise evaluator ratios; returns (C, ratios) where every ratio
    and its reciprocal is at most C."""
    ratios = []
    for a in mats:
        for r, p in combos:
            m = _smoothness.besov_norm_modulus(a, BASE, r, p)
            s = _smoothness.besov_norm_solid_lp(a, BASE, r, p)
            f = _smoothness.besov_norm_phi_lp(a, BASE, r, p)
            if min(m, s, f) <= 0:
                continue
            ratios.extend((m / s, f / s, m / f))
    return _equivalence(ratios)


def measure_jackson_bernstein(mats, combos=BESOV_COMBOS):
    return _equivalence(
        [_approx.jackson_bernstein_ratio(a, BASE, r, p) for a in mats for r, p in combos]
    )


def measure_reiteration(mats):
    """Two-pass/one-pass ratios at r = s = 1/2, p = inf, as (C, ratios)."""
    return _equivalence(
        [_smoothness.reiteration_ratio(a, BASE, 0.5, 0.5, math.inf) for a in mats]
    )


# -- multiplier identities -------------------------------------------------------


def measure_bessel_exact(mats):
    """Worst relative error of the exact multiplier identities at r = 0.5,
    1.0, 1.9: weighting after damping returns the base norm, and damping
    composes additively."""
    spec = _norms.parse_norm_spec(BASE)
    worst = 0.0
    for a in mats:
        ref = _norms.matrix_norm(a, spec)
        if ref == 0:
            continue
        for r in (0.5, 1.0, 1.9):
            damped = _bessel.bessel_convolve(a, r)
            v = _bessel.bessel_norm(damped, r, spec)
            worst = max(worst, abs(v - ref) / ref)
        two_step = _bessel.bessel_convolve(_bessel.bessel_convolve(a, 0.5), 1.0)
        one_step = _bessel.bessel_convolve(a, 1.5)
        _, env = a.envelope()
        scale = float(env.max())
        worst = max(worst, two_step.max_abs_diff(one_step) / scale)
    return worst


def measure_embedding(mats):
    """Maxima of the embedding-chain ratios at r = 0.5 over the corpus."""
    quad = _bessel.HypersingularQuadrature(0.5, mats[0].dim)
    lower, upper, shift, hyp = [], [], [], []
    for a in mats:
        rep = _bessel.embedding_check(a, 0.5, BASE, quad=quad)
        lower.append(rep.lower_ratio)
        upper.append(rep.upper_ratio)
        shift.append(rep.shift_ratio)
        if rep.hyp_ratio is not None:
            hyp.append(rep.hyp_ratio)
    return {
        "lower_max": max(lower),
        "upper_max": max(upper),
        "shift_max": max(shift),
        "shift_min": min(shift),
        "hyp_max": max(hyp) if hyp else None,
        "hyp_min": min(hyp) if hyp else None,
    }


def measure_grid_convergence(mats):
    """Worst relative gap between the modulus on a 64-point and a 128-point
    grid at h = 1, 1/4, 1/16."""
    worst = 0.0
    for a in mats:
        for h in (1.0, 0.25, 0.0625):
            coarse = _smoothness.modulus(a, BASE, h, grid=64)
            fine = _smoothness.modulus(a, BASE, h, grid=128)
            if fine > 0:
                worst = max(worst, abs(fine - coarse) / fine)
    return worst


def measure_partition():
    """Worst error of the dyadic partition of unity over offsets 0..512."""
    part = _smoothness.DyadicPartition()
    offs = np.arange(0, 513).reshape(-1, 1)
    total = part.low_pass(offs)
    for k in range(11):  # bands through ceil(log2 512) + 1
        total = total + part.band(k, offs)
    err = float(np.abs(total - 1.0).max())
    lp0 = float(part.low_pass(np.array([[0]]))[0])
    return max(err, abs(lp0 - 1.0))


def measure_truncation_optimality(mats, seed):
    """E_n(A) must not exceed ||A - C|| for any banded competitor C (four
    random ones per n = 2, 4, 8); returns the largest signed excess
    (non-positive means truncation is optimal)."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    base = _norms.parse_norm_spec(BASE)
    for a in mats:
        for n in (2, 4, 8):
            e_n = _approx.approx_error(a, n, base)
            trunc = _lattice.band_truncate(a, n)
            for _ in range(4):
                perturb = _lattice.LatticeMatrix(
                    a.dim,
                    a.window,
                    {
                        off: arr * (rng.random(arr.shape) * 0.5)
                        for off, arr in trunc.diagonals()
                    },
                )
                competitor = trunc + perturb if rng.random() < 0.5 else perturb
                worst = max(worst, e_n - _norms.matrix_norm(a - competitor, base))
    return worst


def measure_submultiplicative(mats):
    out = {}
    for text in SUBMULTIPLICATIVE_SPECS:
        spec = _norms.parse_norm_spec(text)
        worst = 0.0
        for a, b in _pairs(mats[: max(2, len(mats) // 4)]):
            na, nb = _norms.matrix_norm(a, spec), _norms.matrix_norm(b, spec)
            if na == 0 or nb == 0:
                continue
            worst = max(worst, _norms.matrix_norm(_lattice.multiply(a, b), spec) / (na * nb))
        out[text] = worst
    return out


# -- suite layer ----------------------------------------------------------------


@dataclass
class SuiteResult:
    name: str
    passed: bool
    stats: dict

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "stats": self.stats}


def _ts(mats, seed, count):
    return t_values(seed, count, mats[0].dim)


def _head(mats, share):
    """The first len(mats) // share matrices, but at least four."""
    return mats[: max(4, len(mats) // share)]


def _below(key, value, gate):
    return value < gate, {key: value}


def _at_most(key, value, bound):
    return value <= bound, {key: value}


def _bounded_equivalence(measured):
    c, ratios = measured
    return c <= 20.0, {"C": c, "min_ratio": min(ratios), "max_ratio": max(ratios)}


def _all_finite_positive(stats):
    return all(v is None or (v > 0 and math.isfinite(v)) for v in stats.values()), stats


def _schur_submultiplicative(stats):
    ok = stats["schur:p=1,r=0"] <= 1.0 + 1e-12 and all(math.isfinite(v) for v in stats.values())
    return ok, stats


# suite name -> (mats, seed) -> (passed, stats)
_SUITES = {
    "leibniz": lambda mats, seed: _below(
        "max_residual", measure_leibniz(mats, _ts(mats, seed, 8)), 1e-10
    ),
    "quotient": lambda mats, seed: _below(
        "max_residual", measure_quotient(_head(mats, 4), _ts(mats, seed, 4)), 1e-10
    ),
    "group-law": lambda mats, seed: _below(
        "max_residual", measure_group_law(mats, _ts(mats, seed, 6)), 1e-12
    ),
    "binomial": lambda mats, seed: _below(
        "max_residual", measure_binomial(mats, _ts(mats, seed, 4)), 1e-12
    ),
    "isometry": lambda mats, seed: _below(
        "max_relative_drift", measure_modulate_isometry(mats, _ts(mats, seed, 8)), 1e-12
    ),
    "solidity": lambda mats, seed: _at_most("max_violation", measure_solidity(mats, seed), 0.0),
    "bernstein": lambda mats, seed: _at_most(
        "max_normalized_ratio", measure_bernstein(mats), 1.0
    ),
    "lp-equivalence": lambda mats, seed: _bounded_equivalence(measure_besov_equivalence(mats)),
    "jackson-bernstein": lambda mats, seed: _bounded_equivalence(
        measure_jackson_bernstein(mats)
    ),
    "reiteration": lambda mats, seed: _bounded_equivalence(measure_reiteration(_head(mats, 2))),
    "bessel-exact": lambda mats, seed: _below(
        "max_relative_error", measure_bessel_exact(mats), 1e-12
    ),
    "embedding": lambda mats, seed: _all_finite_positive(measure_embedding(_head(mats, 4))),
    "grid-convergence": lambda mats, seed: _below(
        "max_relative_gap", measure_grid_convergence(_head(mats, 4)), 0.01
    ),
    "partition": lambda mats, seed: _below("max_identity_error", measure_partition(), 1e-12),
    "truncation-optimal": lambda mats, seed: _at_most(
        "max_excess", measure_truncation_optimality(mats, seed), 1e-12
    ),
    "submultiplicative": lambda mats, seed: _schur_submultiplicative(
        measure_submultiplicative(mats)
    ),
}


def all_suites():
    return tuple(_SUITES)


def run_suites(names=None, seed=20260814, window=32, count=24, dim=1):
    """Run the named suites (default: all) on a fresh corpus.

    Returns (results, all_passed).
    """
    if count < 1:
        raise ValueError("verification needs a non-empty corpus")
    if names is None or not names:
        names = all_suites()
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}")
    mats = _lab.corpus(seed, window, count=count, dim=dim)
    results = [SuiteResult(n, *_SUITES[n](mats, seed)) for n in names]
    return results, all(r.passed for r in results)
