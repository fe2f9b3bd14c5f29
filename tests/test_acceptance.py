"""Release acceptance suite.

Nine end-to-end criteria, one test and one printed PASS/FAIL line each,
evaluated on the standard seeded corpus (100 matrices, d = 1).  Identity
residuals use fixed tolerances; equivalence-constant intervals were
calibrated on this corpus at W = 64 and W = 128 and are pinned with enough
headroom that only a genuine regression trips them.
"""

import time
import warnings

import numpy as np
import pytest

from oddkit import (
    DecayModel,
    StabilizationWarning,
    bessel_weight,
    lab,
    spectral_invariance_report,
)
from oddkit import verify as V

SEED = 20260814
CORPUS_N = 100
TOL_IDENTITY = 1e-10  # residual gate for the finite-difference calculus
TOL_EXACT = 1e-12  # gate for exact multiplier/isometry identities
EQUIV_CMAX = 20.0  # three-evaluator equivalence constant
DRIFT_MAX = 0.10  # allowed endpoint drift when W doubles
JB_INTERVAL = (1.0, 4.0)  # truncation-vs-block ratio (measured 1.41..2.83)
REIT_INTERVAL = (1.0, 2.0)  # two-pass/one-pass ratio (measured 1.23..1.42)
EMB_LOWER_MAX = 2.0  # bessel / p=1 block norm (measured max 1.27)
EMB_UPPER_MAX = 1.0  # p=inf block norm / bessel (measured max 0.71)
HYP_INTERVAL = (1.0, 4.0)  # hypersingular / bessel (measured 1.54..2.54)


@pytest.fixture(scope="module")
def corpus64():
    return lab.corpus(SEED, 64, count=CORPUS_N)


@pytest.fixture(scope="module")
def corpus128():
    return lab.corpus(SEED, 128, count=CORPUS_N)


@pytest.fixture(scope="module")
def tvals():
    return V.t_values(SEED, count=32)


def _verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"criterion {num} {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {num} {label}: {detail}"


def test_criterion_1_difference_calculus_identities(corpus64, tvals, capsys):
    t0 = time.perf_counter()
    worst_prod = V.measure_leibniz(corpus64, tvals)
    worst_inv = V.measure_quotient(corpus64, tvals)
    elapsed = time.perf_counter() - t0
    worst = max(worst_prod, worst_inv)
    ok = worst < TOL_IDENTITY and elapsed < 30.0
    _verdict(
        capsys, 1, "product/inverse difference identities", ok,
        f"worst residual {worst:.3e} (< {TOL_IDENTITY:g}), "
        f"runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_inverse_decay_preserved(capsys):
    t0 = time.perf_counter()
    lines = []
    ok = True
    for r in (2.0, 3.0):
        spec = f"jaffard:r={r:g}"
        rep = spectral_invariance_report(
            DecayModel("det", r), (64, 128, 256), norms=(spec,), margin=2.0
        )
        exps = [c.profile_inverse.exponent for c in rep.cells]
        invs = [c.norms[spec]["inverse"] for c in rep.cells]
        drift = abs(invs[2] - invs[1]) / invs[1]
        ok = ok and all(e >= r - 0.25 for e in exps) and drift < 0.10
        lines.append(
            f"r={r:g} inverse exponents {'/'.join(f'{e:.2f}' for e in exps)} "
            f"(>= {r - 0.25:g}), norm drift {drift:.2%}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _verdict(
        capsys, 2, "finite-section inverse keeps polynomial decay", ok,
        "; ".join(lines) + f"; runtime {elapsed:.1f}s (< 120s)",
    )


def test_criterion_3_three_evaluator_equivalence(corpus64, corpus128, capsys):
    all64, all128 = [], []
    for combo in V.BESOV_COMBOS:
        all64.extend(V.measure_besov_equivalence(corpus64, combos=(combo,))[1])
        all128.extend(V.measure_besov_equivalence(corpus128, combos=(combo,))[1])
    lo64, hi64 = min(all64), max(all64)
    lo128, hi128 = min(all128), max(all128)
    c = max(hi64, 1.0 / lo64)
    drift = max(abs(lo128 - lo64) / lo64, abs(hi128 - hi64) / hi64)
    ok = c <= EQUIV_CMAX and drift < DRIFT_MAX
    _verdict(
        capsys, 3, "smoothness evaluators agree up to a constant", ok,
        f"ratios in [{lo64:.3f}, {hi64:.3f}], C={c:.2f} (<= {EQUIV_CMAX:g}), "
        f"endpoint drift {drift:.2%} at W 64->128",
    )


def test_criterion_4_truncation_matches_block_norm(corpus64, corpus128, capsys):
    ok = True
    parts = []
    for combo in V.BESOV_COMBOS:
        _, r64 = V.measure_jackson_bernstein(corpus64, combos=(combo,))
        _, r128 = V.measure_jackson_bernstein(corpus128, combos=(combo,))
        lo, hi = min(r64), max(r64)
        drift = max(
            abs(min(r128) - lo) / lo, abs(max(r128) - hi) / hi
        )
        ok = (
            ok
            and lo >= JB_INTERVAL[0]
            and hi <= JB_INTERVAL[1]
            and min(r128) >= JB_INTERVAL[0]
            and max(r128) <= JB_INTERVAL[1]
            and drift < DRIFT_MAX
        )
        parts.append(f"(r={combo[0]:g},p={combo[1]:g}) [{lo:.3f},{hi:.3f}] drift {drift:.2%}")
    _verdict(
        capsys, 4, "truncation-error norm matches block norm", ok,
        f"pinned interval [{JB_INTERVAL[0]:g},{JB_INTERVAL[1]:g}]; " + "; ".join(parts),
    )


def test_criterion_5_reiteration_stable(corpus64, corpus128, capsys):
    _, r64 = V.measure_reiteration(corpus64)
    _, r128 = V.measure_reiteration(corpus128)
    lo, hi = min(r64), max(r64)
    drift = max(abs(min(r128) - lo) / lo, abs(max(r128) - hi) / hi)
    ok = (
        lo >= REIT_INTERVAL[0]
        and hi <= REIT_INTERVAL[1]
        and min(r128) >= REIT_INTERVAL[0]
        and max(r128) <= REIT_INTERVAL[1]
        and drift < DRIFT_MAX
    )
    _verdict(
        capsys, 5, "two-pass smoothing equals one pass at summed order", ok,
        f"ratios in [{lo:.3f},{hi:.3f}] (pinned [{REIT_INTERVAL[0]:g},{REIT_INTERVAL[1]:g}]), "
        f"drift {drift:.2%} at W 64->128",
    )


def test_criterion_6_potential_weights_exact(corpus64, capsys):
    worst = V.measure_bessel_exact(corpus64)
    offs = corpus64[0].offset_array()
    prod = bessel_weight(offs, 0.5) * bessel_weight(offs, 1.0)
    ref = bessel_weight(offs, 1.5)
    semi = float(np.max(np.abs(prod - ref) / ref))
    ok = worst < TOL_EXACT and semi < TOL_EXACT
    _verdict(
        capsys, 6, "potential damping inverts the weight exactly", ok,
        f"round-trip/semigroup worst {worst:.3e}, multiplier semigroup {semi:.3e} "
        f"(< {TOL_EXACT:g})",
    )


def test_criterion_7_embedding_chain(corpus64, capsys):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        stats = V.measure_embedding(corpus64)
    unstable = [w for w in rec if issubclass(w.category, StabilizationWarning)]
    ok = (
        not unstable
        and stats["lower_max"] <= EMB_LOWER_MAX
        and stats["upper_max"] <= EMB_UPPER_MAX
        and HYP_INTERVAL[0] <= stats["hyp_min"]
        and stats["hyp_max"] <= HYP_INTERVAL[1]
    )
    _verdict(
        capsys, 7, "p=1 block norm >= potential norm >= p=inf block norm", ok,
        f"calibrated constants: lower {stats['lower_max']:.3f} (<= {EMB_LOWER_MAX:g}), "
        f"upper {stats['upper_max']:.3f} (<= {EMB_UPPER_MAX:g}), "
        f"hypersingular/potential in [{stats['hyp_min']:.3f},{stats['hyp_max']:.3f}] "
        f"(pinned [{HYP_INTERVAL[0]:g},{HYP_INTERVAL[1]:g}]), "
        f"quadrature stable at 0.5% ({len(unstable)} warnings)",
    )


def test_criterion_8_solidity_and_modulation_isometry(corpus64, tvals, capsys):
    violation = V.measure_solidity(corpus64, SEED)
    drift = V.measure_modulate_isometry(corpus64, tvals)
    ok = violation <= 0.0 and drift < TOL_EXACT
    _verdict(
        capsys, 8, "solid monotonicity exact, modulation isometric", ok,
        f"worst monotonicity violation {violation:.3e} (<= 0), "
        f"worst norm drift over 32 t {drift:.3e} (< {TOL_EXACT:g})",
    )


def test_criterion_9_derivation_bernstein_bound(corpus64, capsys):
    worst = V.measure_bernstein(corpus64)
    ok = worst <= 1.0
    _verdict(
        capsys, 9, "derivation of an N-banded part grows at most like 2 pi N", ok,
        f"worst ratio/(2 pi N) = {worst:.4f} (<= 1) over bands 4/8/16, all solid norms",
    )
