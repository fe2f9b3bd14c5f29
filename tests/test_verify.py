"""Golden values of every ``oddkit verify`` suite on two small corpora.

The suites run at fixed parameters, so their stats are a fingerprint of the
library: any change to a measured number, a suite's corpus slice or its
fixed parameters shows here.  Values are pinned to 1e-12 relative, and a
norm outside its algebra range (a ``ParameterDomainWarning``) is an error.
"""

import math

import pytest

from oddkit import verify as V

GOLDEN = {
    # (dim, window, count) -> suite name -> stats
    (1, 8, 4): {
        "leibniz": {"max_residual": 2.3714374201337736e-16},
        "quotient": {"max_residual": 4.654751537338637e-17},
        "group-law": {"max_residual": 1.0591761858187546e-16},
        "binomial": {"max_residual": 5.266250202865052e-16},
        "isometry": {"max_relative_drift": 2.7119668275850923e-16},
        "solidity": {"max_violation": -0.016525066773979358},
        "bernstein": {"max_normalized_ratio": 0.3933561381860527},
        "lp-equivalence": {
            "C": 11.039630953220865, "min_ratio": 1.0, "max_ratio": 11.039630953220865,
        },
        "jackson-bernstein": {
            "C": 2.82842712474619, "min_ratio": 1.414213562373095, "max_ratio": 2.82842712474619,
        },
        "reiteration": {
            "C": 1.4142135623730951,
            "min_ratio": 1.3360630698415086,
            "max_ratio": 1.4142135623730951,
        },
        "bessel-exact": {"max_relative_error": 1.788112030672749e-18},
        "embedding": {
            "lower_max": 1.134836752888905,
            "upper_max": 0.7071067811865476,
            "shift_max": 1.4142135623730951,
            "shift_min": 1.4142135623730951,
            "hyp_max": 2.5257379099301946,
            "hyp_min": 1.9771486904491735,
        },
        "grid-convergence": {"max_relative_gap": 0.00023434731210133036},
        "partition": {"max_identity_error": 0.0},
        "truncation-optimal": {"max_excess": -0.306048185861463},
        "submultiplicative": {
            "schur:p=1,r=0": 0.8901056732446222,
            "jaffard:r=2": 1.3668615789800933,
            "cpr:p=1,r=0": 0.9123408188646993,
        },
    },
    (2, 2, 2): {
        "leibniz": {"max_residual": 4.577566798522237e-16},
        "quotient": {"max_residual": 8.329326272577662e-17},
        "group-law": {"max_residual": 2.2334354227515497e-16},
        "binomial": {"max_residual": 7.216449660063518e-16},
        "isometry": {"max_relative_drift": 2.1753460916146114e-16},
        "solidity": {"max_violation": -0.017448812458296326},
        "bernstein": {"max_normalized_ratio": 0.3933561381860527},
        "lp-equivalence": {
            "C": 10.821765404542035, "min_ratio": 1.0, "max_ratio": 10.821765404542035,
        },
        "jackson-bernstein": {
            "C": 2.8284271247461903, "min_ratio": 1.414213562373095, "max_ratio": 2.8284271247461903,
        },
        "reiteration": {
            "C": 1.4145739618880118,
            "min_ratio": 1.3886408032824848,
            "max_ratio": 1.4145739618880118,
        },
        "bessel-exact": {"max_relative_error": 1.9394798072244317e-18},
        "embedding": {
            "lower_max": 1.04545999889523,
            "upper_max": 0.7071067811865476,
            "shift_max": 1.4142135623730951,
            "shift_min": 1.4142135623730951,
            "hyp_max": 4.147679905421877,
            "hyp_min": 3.7132145284589155,
        },
        # the d=2 modulus grid is known to be too coarse: pinned as a value,
        # not as a verdict, so a fix shows up here as a deliberate edit
        "grid-convergence": {"max_relative_gap": 0.01605601637956031},
        "partition": {"max_identity_error": 0.0},
        "truncation-optimal": {"max_excess": -0.3705612415351068},
        "submultiplicative": {
            "schur:p=1,r=0": 0.517369883368976,
            "jaffard:r=2": 1.4546031669658506,
            "cpr:p=1,r=0": 0.5586872337247845,
        },
    },
}


@pytest.mark.parametrize("dim,window,count", sorted(GOLDEN))
@pytest.mark.filterwarnings("error::oddkit.norms.ParameterDomainWarning")
def test_suites_golden(dim, window, count):
    golden = GOLDEN[(dim, window, count)]
    results, ok = V.run_suites(window=window, count=count, dim=dim)
    assert [r.name for r in results] == list(V.all_suites()) == list(golden)
    for r in results:
        want = golden[r.name]
        assert list(r.stats) == list(want), r.name
        for key, value in want.items():
            assert math.isclose(r.stats[key], value, rel_tol=1e-12), (r.name, key, r.stats[key])
    if dim == 1:
        assert ok and all(r.passed for r in results)
