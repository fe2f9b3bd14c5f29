"""Empirical property checks over seeded corpora.

Each ``measure_*`` routine returns the raw measured quantity (worst residual
or ratio over a corpus); the suite layer wraps those in pass/fail verdicts
for the command line.  Identities between library operations are evaluated
on dense window sections, which is exactly what the finite-section product
does, so a nonzero residual means an operation is wrong rather than an
approximation being coarse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import approx as _approx
from . import bessel as _bessel
from . import lab as _lab
from . import lattice as _lattice
from . import norms as _norms
from . import smoothness as _smoothness

__all__ = ["SuiteResult", "all_suites", "run_suites"]

DEFAULT_SOLID_SPECS = (
    "jaffard:r=0",
    "jaffard:r=2",
    "schur:p=1,r=0",
    "schur:p=2,r=1",
    "cpr:p=1,r=0",
    "cpr:p=2,r=1.5",
    "w[bessel:r=1]jaffard:r=0",
)

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


def measure_quotient(mats, ts, margin=2.0):
    """Worst entrywise residual of
    D_t(B^-1) = -chi_t(B^-1) D_t(B) B^-1 for shifted-invertible sections."""
    worst = 0.0
    for a in mats:
        b = _lab.make_invertible(a, margin=margin)
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


def measure_binomial(mats, ts, orders=(1, 2, 3)):
    """Residual of D^k_t as the alternating binomial sum of modulations."""
    worst = 0.0
    for a in mats:
        for t in ts[:4]:
            for k in orders:
                acc = _lattice.LatticeMatrix.zeros(a.dim, a.window)
                for j in range(k + 1):
                    acc = acc + ((-1.0) ** (k - j) * math.comb(k, j)) * _lattice.modulate(
                        a, j * np.asarray(t)
                    )
                worst = max(worst, _lattice.difference(a, t, k).max_abs_diff(acc))
    return worst


def measure_modulate_isometry(mats, ts, specs=DEFAULT_SOLID_SPECS):
    worst = 0.0
    parsed = [_norms.parse_norm_spec(s) for s in specs]
    for a in mats:
        ref = [_norms.matrix_norm(a, sp) for sp in parsed]
        for t in ts:
            b = _lattice.modulate(a, t)
            for sp, r0 in zip(parsed, ref):
                v = _norms.matrix_norm(b, sp)
                if r0 > 0:
                    worst = max(worst, abs(v - r0) / r0)
    return worst


def measure_solidity(mats, seed, specs=DEFAULT_SOLID_SPECS):
    """Largest (signed) violation of norm monotonicity under entrywise
    domination; non-positive means solidity holds."""
    rng = np.random.default_rng(seed)
    parsed = [_norms.parse_norm_spec(s) for s in specs]
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


def measure_bernstein(mats, specs=DEFAULT_SOLID_SPECS, bands=(4, 8, 16)):
    """max over the corpus of ||derivation(T_N A)|| / (2 pi N ||T_N A||);
    at most 1 for every solid norm."""
    parsed = [_norms.parse_norm_spec(s) for s in specs]
    worst = 0.0
    for a in mats:
        for n in bands:
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


def measure_besov_equivalence(mats, base="jaffard:r=0", combos=BESOV_COMBOS):
    """All pairwise evaluator ratios; returns (C, ratios) where every ratio
    and its reciprocal is at most C."""
    ratios = []
    for a in mats:
        for r, p in combos:
            m = _smoothness.besov_norm_modulus(a, base, r, p)
            s = _smoothness.besov_norm_solid_lp(a, base, r, p)
            f = _smoothness.besov_norm_phi_lp(a, base, r, p)
            if min(m, s, f) <= 0:
                continue
            ratios.extend((m / s, f / s, m / f))
    c = max(max(ratios), 1.0 / min(ratios)) if ratios else math.inf
    return c, ratios


def measure_jackson_bernstein(mats, base="jaffard:r=0", combos=BESOV_COMBOS):
    ratios = []
    for a in mats:
        for r, p in combos:
            ratios.append(_approx.jackson_bernstein_ratio(a, base, r, p))
    c = max(max(ratios), 1.0 / min(ratios)) if ratios else math.inf
    return c, ratios


def measure_reiteration(mats, base="jaffard:r=0", r=0.5, s=0.5, p=math.inf):
    ratios = [_smoothness.reiteration_ratio(a, base, r, s, p) for a in mats]
    c = max(max(ratios), 1.0 / min(ratios)) if ratios else math.inf
    return c, ratios


# -- multiplier identities -------------------------------------------------------


def measure_bessel_exact(mats, rs=(0.5, 1.0, 1.9), base="jaffard:r=0"):
    """Worst relative error of the exact multiplier identities: weighting
    after damping returns the base norm, and damping composes additively."""
    spec = _norms.parse_norm_spec(base) if isinstance(base, str) else base
    worst = 0.0
    for a in mats:
        ref = _norms.matrix_norm(a, spec)
        if ref == 0:
            continue
        for r in rs:
            damped = _bessel.bessel_convolve(a, r)
            v = _bessel.bessel_norm(damped, r, spec)
            worst = max(worst, abs(v - ref) / ref)
        two_step = _bessel.bessel_convolve(_bessel.bessel_convolve(a, 0.5), 1.0)
        one_step = _bessel.bessel_convolve(a, 1.5)
        _, env = a.envelope()
        scale = float(env.max())
        worst = max(worst, two_step.max_abs_diff(one_step) / scale)
    return worst


def measure_embedding(mats, r=0.5, base="jaffard:r=0", quad=None):
    """Maxima of the embedding-chain ratios over the corpus."""
    if quad is None and mats:
        quad = _bessel.HypersingularQuadrature(r, mats[0].dim)
    lower, upper, shift, hyp = [], [], [], []
    for a in mats:
        rep = _bessel.embedding_check(a, r, base, quad=quad)
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


def measure_grid_convergence(mats, base="jaffard:r=0", hs=(1.0, 0.25, 0.0625), grid=64):
    worst = 0.0
    for a in mats:
        for h in hs:
            coarse = _smoothness.modulus(a, base, h, grid=grid)
            fine = _smoothness.modulus(a, base, h, grid=2 * grid)
            if fine > 0:
                worst = max(worst, abs(fine - coarse) / fine)
    return worst


def measure_partition(max_offset=512):
    part = _smoothness.DyadicPartition()
    offs = np.arange(0, max_offset + 1).reshape(-1, 1)
    total = part.low_pass(offs)
    k_top = int(math.ceil(math.log2(max_offset))) + 1
    for k in range(0, k_top + 1):
        total = total + part.band(k, offs)
    err = float(np.abs(total - 1.0).max())
    lp0 = float(part.low_pass(np.array([[0]]))[0])
    return max(err, abs(lp0 - 1.0))


def measure_truncation_optimality(mats, base="jaffard:r=0", seed=7, bands=(2, 4, 8), trials=4):
    """E_n(A) must not exceed ||A - C|| for any banded competitor C; returns
    the largest signed excess (non-positive means truncation is optimal)."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    base = _norms._coerce_spec(base)
    for a in mats:
        for n in bands:
            e_n = _approx.approx_error(a, n, base)
            trunc = _lattice.band_truncate(a, n)
            for _ in range(trials):
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


def measure_submultiplicative(mats, specs=("schur:p=1,r=0", "jaffard:r=2", "cpr:p=1,r=0")):
    out = {}
    for text in specs:
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
    stats: dict = field(default_factory=dict)

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "stats": self.stats}


def _suite_leibniz(mats, seed):
    ts = t_values(seed, 8, mats[0].dim)
    worst = measure_leibniz(mats, ts)
    return SuiteResult("leibniz", worst < 1e-10, {"max_residual": worst})


def _suite_quotient(mats, seed):
    ts = t_values(seed, 4, mats[0].dim)
    worst = measure_quotient(mats[: max(4, len(mats) // 4)], ts)
    return SuiteResult("quotient", worst < 1e-10, {"max_residual": worst})


def _suite_group_law(mats, seed):
    worst = measure_group_law(mats, t_values(seed, 6, mats[0].dim))
    return SuiteResult("group-law", worst < 1e-12, {"max_residual": worst})


def _suite_binomial(mats, seed):
    worst = measure_binomial(mats, t_values(seed, 4, mats[0].dim))
    return SuiteResult("binomial", worst < 1e-12, {"max_residual": worst})


def _suite_isometry(mats, seed):
    worst = measure_modulate_isometry(mats, t_values(seed, 8, mats[0].dim))
    return SuiteResult("isometry", worst < 1e-12, {"max_relative_drift": worst})


def _suite_solidity(mats, seed):
    worst = measure_solidity(mats, seed)
    return SuiteResult("solidity", worst <= 0.0, {"max_violation": worst})


def _suite_bernstein(mats, seed):
    worst = measure_bernstein(mats)
    return SuiteResult("bernstein", worst <= 1.0, {"max_normalized_ratio": worst})


def _suite_lp_equivalence(mats, seed):
    c, ratios = measure_besov_equivalence(mats)
    return SuiteResult(
        "lp-equivalence",
        c <= 20.0,
        {"C": c, "min_ratio": min(ratios), "max_ratio": max(ratios)},
    )


def _suite_jackson_bernstein(mats, seed):
    c, ratios = measure_jackson_bernstein(mats)
    return SuiteResult(
        "jackson-bernstein",
        c <= 20.0,
        {"C": c, "min_ratio": min(ratios), "max_ratio": max(ratios)},
    )


def _suite_reiteration(mats, seed):
    c, ratios = measure_reiteration(mats[: max(4, len(mats) // 2)])
    return SuiteResult(
        "reiteration",
        c <= 20.0,
        {"C": c, "min_ratio": min(ratios), "max_ratio": max(ratios)},
    )


def _suite_bessel_exact(mats, seed):
    worst = measure_bessel_exact(mats)
    return SuiteResult("bessel-exact", worst < 1e-12, {"max_relative_error": worst})


def _suite_embedding(mats, seed):
    stats = measure_embedding(mats[: max(4, len(mats) // 4)])
    ok = all(v is None or (v > 0 and math.isfinite(v)) for v in stats.values())
    return SuiteResult("embedding", ok, stats)


def _suite_grid(mats, seed):
    worst = measure_grid_convergence(mats[: max(4, len(mats) // 4)])
    return SuiteResult("grid-convergence", worst < 0.01, {"max_relative_gap": worst})


def _suite_partition(mats, seed):
    err = measure_partition()
    return SuiteResult("partition", err < 1e-12, {"max_identity_error": err})


def _suite_truncation(mats, seed):
    worst = measure_truncation_optimality(mats, seed=seed)
    return SuiteResult("truncation-optimal", worst <= 1e-12, {"max_excess": worst})


def _suite_submultiplicative(mats, seed):
    stats = measure_submultiplicative(mats)
    ok = stats.get("schur:p=1,r=0", 0.0) <= 1.0 + 1e-12 and all(
        math.isfinite(v) for v in stats.values()
    )
    return SuiteResult("submultiplicative", ok, stats)


_SUITES = {
    "leibniz": _suite_leibniz,
    "quotient": _suite_quotient,
    "group-law": _suite_group_law,
    "binomial": _suite_binomial,
    "isometry": _suite_isometry,
    "solidity": _suite_solidity,
    "bernstein": _suite_bernstein,
    "lp-equivalence": _suite_lp_equivalence,
    "jackson-bernstein": _suite_jackson_bernstein,
    "reiteration": _suite_reiteration,
    "bessel-exact": _suite_bessel_exact,
    "embedding": _suite_embedding,
    "grid-convergence": _suite_grid,
    "partition": _suite_partition,
    "truncation-optimal": _suite_truncation,
    "submultiplicative": _suite_submultiplicative,
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
    results = [_SUITES[n](mats, seed) for n in names]
    return results, all(r.passed for r in results)
