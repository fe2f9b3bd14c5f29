import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddkit
from oddkit import BesovSpec, DyadicPartition, LatticeMatrix, NormSpec, ParameterDomainWarning, Weight
from oddkit.smoothness import _default_level_max

from conftest import random_matrix, single_diagonal


def decay_matrix(seed, window, exponent=2.5, dim=1):
    return oddkit.generate(
        oddkit.DecayModel("phase", exponent, seed=seed), window, dim=dim
    )


def test_t_grid():
    g = oddkit.t_grid(0.5, 1, 16)
    assert g.shape == (16, 1)
    assert g[0, 0] == -0.5 and g[-1, 0] == 0.5
    g2 = oddkit.t_grid(0.25, 2, 8)
    assert g2.shape[1] == 2
    assert (np.sqrt((g2**2).sum(axis=1)) <= 0.25 * (1 + 1e-9)).all()
    with pytest.raises(ValueError):
        oddkit.t_grid(0.5, 1, 4)


def test_modulus_vanishes_on_main_diagonal():
    d = LatticeMatrix(1, 4, {(0,): np.arange(1.0, 10.0)})
    for h in (1.0, 0.25):
        assert oddkit.modulus(d, "jaffard:r=0", h) == 0.0
        assert oddkit.modulus(d, "op", h, order=2) == 0.0


def test_modulus_single_diagonal_closed_form():
    # |e^{2 pi i t} - 1| = 2 sin(pi t) peaks at the endpoint t = h for h <= 1/2
    u = single_diagonal(4, 1)
    for h in (0.5, 0.25, 0.0625):
        want = 2.0 * math.sin(math.pi * h)
        got_op = oddkit.modulus(u, "op", h)  # generic path
        got_solid = oddkit.modulus(u, "jaffard:r=0", h)  # reducer path
        assert math.isclose(got_op, want, rel_tol=1e-12)
        assert math.isclose(got_solid, want, rel_tol=1e-12)


def test_modulus_triangle_bound():
    a = decay_matrix(1, 12)
    base = "schur:p=1,r=0"
    bound = 2.0 * oddkit.matrix_norm(a, base)
    assert oddkit.modulus(a, base, 0.5) <= bound * (1 + 1e-12)


def test_modulus_refuses_non_finite_h():
    a = decay_matrix(1, 8)
    for h in (math.nan, math.inf, 0.0, -0.5):
        with pytest.raises(ValueError, match="h must be finite and > 0"):
            oddkit.modulus(a, "jaffard:r=0", h)
        with pytest.raises(ValueError, match="h must be finite and > 0"):
            oddkit.modulus(a, "op", h)
    with pytest.raises(ValueError, match="h must be finite and > 0"):
        oddkit.continuity_defect(a, "jaffard:r=0", (0.5, math.nan))


def test_modulus_generic_and_reducer_paths_agree():
    a = decay_matrix(2, 10)
    spec = NormSpec("jaffard", r=1.0)
    fast = oddkit.modulus(a, spec, 0.25, order=2)
    slow = oddkit.modulus(a, lambda m: oddkit.jaffard_norm(m, 1.0), 0.25, order=2)
    assert math.isclose(fast, slow, rel_tol=1e-12)


def test_besov_modulus_main_diagonal_only():
    d = LatticeMatrix(1, 4, {(0,): np.full(9, 2.0)})
    assert oddkit.besov_norm_modulus(d, "jaffard:r=0", 0.5) == 2.0


def test_besov_modulus_single_diagonal_formula():
    # all three quantities of the l^inf level sum are available in closed form
    u = single_diagonal(6, 1)
    r = 0.5
    levels = range(0, _default_level_max(6) + 1)
    per_level = []
    for l in levels:
        pts = oddkit.t_grid(2.0**-l, 1, 64)[:, 0]
        per_level.append(2.0 ** (r * l) * np.max(2.0 * np.abs(np.sin(np.pi * pts))))
    want = 1.0 + max(per_level)
    got = oddkit.besov_norm_modulus(u, "jaffard:r=0", r)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_besov_modulus_homogeneity_and_validation():
    a = decay_matrix(3, 8)
    v = oddkit.besov_norm_modulus(a, "jaffard:r=0", 0.75)
    v3 = oddkit.besov_norm_modulus(3.0 * a, "jaffard:r=0", 0.75)
    assert math.isclose(v3, 3.0 * v, rel_tol=1e-12)
    with pytest.raises(ValueError):
        oddkit.besov_norm_modulus(a, "jaffard:r=0", 0.0)
    with pytest.raises(ValueError):
        oddkit.besov_norm_modulus(a, "jaffard:r=0", 1.5, order=1)  # need k > floor(r)


def test_besov_solid_lp_pinned():
    assert oddkit.besov_norm_solid_lp(LatticeMatrix.zeros(1, 4), "jaffard:r=0", 1.0) == 0.0
    d = LatticeMatrix(1, 4, {(0,): np.full(9, 3.0)})
    assert math.isclose(
        oddkit.besov_norm_solid_lp(d, "jaffard:r=0", 0.5), 3.0 * 2.0**-0.5, rel_tol=1e-14
    )
    # single diagonal |m| = 4 sits in block k = 2 alone: weight 2^{2r}
    u = single_diagonal(6, 4)
    assert math.isclose(oddkit.besov_norm_solid_lp(u, "jaffard:r=0", 1.0), 4.0, rel_tol=1e-14)
    assert math.isclose(oddkit.besov_norm_solid_lp(u, "jaffard:r=0", 1.0, p=1), 4.0, rel_tol=1e-14)
    with pytest.raises(ValueError):
        oddkit.besov_norm_solid_lp(u, "op", 1.0)


def test_besov_solid_lp_p_monotone():
    # l^p block sums decrease in p, exactly
    a = decay_matrix(4, 12)
    n1 = oddkit.besov_norm_solid_lp(a, "jaffard:r=0", 0.5, p=1)
    n2 = oddkit.besov_norm_solid_lp(a, "jaffard:r=0", 0.5, p=2)
    ninf = oddkit.besov_norm_solid_lp(a, "jaffard:r=0", 0.5)
    assert n1 >= n2 >= ninf > 0


def test_besov_solid_lp_smoothness_monotone():
    # term by term, 2^{ks} >= 2^{-(s-r)} 2^{kr} for k >= -1
    a = decay_matrix(5, 12)
    r, s = 0.5, 1.25
    lo = 2.0 ** -(s - r) * oddkit.besov_norm_solid_lp(a, "jaffard:r=0", r)
    assert oddkit.besov_norm_solid_lp(a, "jaffard:r=0", s) >= lo * (1 - 1e-12)


def test_partition_identity():
    part = DyadicPartition()
    offs = np.arange(0, 4097).reshape(-1, 1)
    total = part.low_pass(offs)
    for k in range(0, 14):
        total = total + part.band(k, offs)
    assert np.abs(total - 1.0).max() < 1e-12
    assert part.low_pass(np.array([[0]]))[0] == 1.0


def test_partition_band_support():
    part = DyadicPartition()
    x = np.array([0.0, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0])
    vals = part.profile(x)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[5] == 0.0 and vals[6] == 0.0
    assert (vals[2:5] > 0).all()
    # |m| = 3 is split between bands 1 and 2 only, and they telescope to 1
    m3 = np.array([[3]])
    b = [float(part.band(k, m3)[0]) for k in range(0, 5)]
    assert b[0] == 0.0 and b[3] == 0.0 and b[4] == 0.0
    assert math.isclose(b[1] + b[2], 1.0, rel_tol=1e-14)


def test_partition_reconstruction():
    a = decay_matrix(6, 10)
    offs = a.offset_array()
    part = DyadicPartition()
    acc = a.scale_diagonals(lambda o: part.low_pass(o))
    for k in range(0, int(math.ceil(math.log2(20))) + 2):
        acc = acc + a.scale_diagonals(lambda o, k=k: part.band(k, o))
    assert acc.allclose(a, rtol=1e-12, atol=1e-13)


def test_besov_phi_lp_pinned():
    eye = LatticeMatrix.identity(1, 6)
    assert math.isclose(
        oddkit.besov_norm_phi_lp(eye, "jaffard:r=0", 1.0), 0.5, rel_tol=1e-14
    )
    u = single_diagonal(6, 4)
    # |m| = 4 is pure band k = 2 (profile(1) = 1): value 2^{2r}
    assert math.isclose(oddkit.besov_norm_phi_lp(u, "jaffard:r=0", 1.0), 4.0, rel_tol=1e-12)


def test_three_evaluators_within_interval():
    for seed in range(4):
        a = decay_matrix(40 + seed, 12)
        for r, p in ((0.5, math.inf), (1.0, 1.0)):
            m = oddkit.besov_norm_modulus(a, "jaffard:r=0", r, p)
            s = oddkit.besov_norm_solid_lp(a, "jaffard:r=0", r, p)
            f = oddkit.besov_norm_phi_lp(a, "jaffard:r=0", r, p)
            for x, y in ((m, s), (f, s), (m, f)):
                assert 1 / 20 < x / y < 20


def test_order_independence_interval():
    a = decay_matrix(7, 12)
    v1 = oddkit.besov_norm_modulus(a, "jaffard:r=0", 0.5, order=1)
    v2 = oddkit.besov_norm_modulus(a, "jaffard:r=0", 0.5, order=2)
    assert 1 / 8 < v1 / v2 < 8


def test_besov_algebra_inequality_measured():
    # Banach-algebra property holds with a modest constant on the corpus
    worst = 0.0
    for seed in range(3):
        a = decay_matrix(50 + seed, 8)
        b = decay_matrix(60 + seed, 8)
        na = oddkit.besov_norm_modulus(a, "schur:p=1,r=0", 0.5)
        nb = oddkit.besov_norm_modulus(b, "schur:p=1,r=0", 0.5)
        nab = oddkit.besov_norm_modulus(a @ b, "schur:p=1,r=0", 0.5)
        worst = max(worst, nab / (na * nb))
    assert worst < 4.0


def test_besov_spec_validation():
    with pytest.raises(ValueError):
        BesovSpec("jaffard:r=0", r=-1.0)
    with pytest.raises(ValueError):
        BesovSpec("jaffard:r=0", r=0.5, p=0.5)
    with pytest.raises(ValueError):
        BesovSpec("jaffard:r=0", r=1.5, order=1)
    with pytest.raises(ValueError):
        BesovSpec("jaffard:r=0", r=0.5, method="fourier")


def test_besov_norm_dispatch():
    a = decay_matrix(8, 8)
    base = NormSpec("jaffard", r=0.0)
    for method, direct in (
        ("modulus", oddkit.besov_norm_modulus(a, base, 0.5)),
        ("solidlp", oddkit.besov_norm_solid_lp(a, base, 0.5)),
        ("philp", oddkit.besov_norm_phi_lp(a, base, 0.5)),
    ):
        spec = BesovSpec(base, r=0.5, method=method)
        assert math.isclose(oddkit.besov_norm(a, spec), direct, rel_tol=1e-13)


def test_evaluate_universal():
    a = decay_matrix(9, 8)
    assert math.isclose(
        oddkit.evaluate(a, "jaffard:r=2"), oddkit.jaffard_norm(a, 2.0), rel_tol=1e-14
    )
    text = "besov:base=jaffard:r=0,r=0.5,p=inf,method=solidlp"
    assert math.isclose(
        oddkit.evaluate(a, text),
        oddkit.besov_norm_solid_lp(a, "jaffard:r=0", 0.5),
        rel_tol=1e-14,
    )


def test_besov_grammar_round_trip():
    texts = [
        "besov:base=jaffard:r=0.0,r=0.5,p=inf,method=modulus",
        "besov:base=jaffard:r=0.0,r=0.5,p=inf,method=solidlp",
        "besov:base=[schur:p=1.0,r=0.0],r=1.5,p=2.0,method=modulus,k=2",
        "besov:base=[cpr:p=2.0,r=1.5],r=0.75,p=1.0,method=philp",
        "besov:base=jaffard:r=2.0,r=1.0,p=inf,method=modulus,grid=32,lmax=8",
    ]
    for text in texts:
        spec = oddkit.parse_besov_spec(text)
        assert oddkit.format_besov_spec(spec) == text
        assert oddkit.parse_besov_spec(oddkit.format_besov_spec(spec)) == spec


_PS = st.just(math.inf) | st.floats(1.0, 1e6)
_WEIGHTS = st.none() | st.builds(
    Weight, st.sampled_from(("poly", "bessel")), st.floats(-1e3, 1e3, allow_nan=False)
)


@st.composite
def _norm_specs(draw):
    kind = draw(st.sampled_from(("op", "jaffard", "schur", "cpr")))
    if kind == "op":
        return NormSpec("op")
    return NormSpec(
        kind,
        p=math.inf if kind == "jaffard" else draw(_PS),
        r=draw(st.floats(0.0, 1e3)),
        weight=draw(_WEIGHTS),
        literal=kind == "cpr" and draw(st.booleans()),
    )


@st.composite
def _besov_specs(draw):
    r = draw(st.floats(1e-3, 50.0))
    order = st.integers(math.floor(r) + 1, math.floor(r) + 4)
    return BesovSpec(
        draw(_norm_specs()),
        r,
        draw(_PS),
        order=draw(st.none() | order),
        method=draw(st.sampled_from(("modulus", "solidlp", "philp"))),
        grid=draw(st.none() | st.integers(8, 128)),
        level_max=draw(st.none() | st.integers(0, 12)),
    )


@settings(max_examples=200, deadline=None)
@given(_norm_specs(), _besov_specs())
def test_grammar_round_trip_property(norm, besov):
    assert oddkit.parse_norm_spec(oddkit.format_norm_spec(norm)) == norm
    assert oddkit.parse_besov_spec(oddkit.format_besov_spec(besov)) == besov
    assert oddkit.parse_any_spec(oddkit.format_besov_spec(besov)) == besov


def test_besov_grammar_bracketed_base():
    spec = oddkit.parse_besov_spec("besov:base=[schur:p=1,r=0],r=0.5,p=inf,method=solidlp")
    assert spec.base == NormSpec("schur", p=1.0, r=0.0)
    for bad in (
        "besov:r=0.5",
        "besov:base=jaffard:r=0",
        "besov:base=[schur:p=1,r=0,r=0.5",
        "besov:base=jaffard:r=0,r=0.5,mode=solidlp",
        "besov:base=jaffard:r=0,r=0.5,r=1.0",
        "besov:base=jaffard:r=0,r=0.5,lmin=1",
        "besov:base=jaffard:r=0,r=0.5,",
        "besov:base=jaffard:r=0,,r=0.5",
        "besov:base=jaffard:r=0,r=0.5]",
        "besov:base=jaffard:r=0,r=0.5,method=philp,method=modulus",
        "besov:base=[schur:p=1,r=0,p=2],r=0.5",
        "besov:base=jaffard:r=0,r=0.5,grid=4",
        "besov:base=jaffard:r=0,r=0.5,lmax=-1",
    ):
        with pytest.raises(ValueError):
            oddkit.parse_besov_spec(bad)


def test_reiteration_single_diagonal_and_zero():
    with pytest.raises(ValueError):
        oddkit.reiteration_ratio(LatticeMatrix.zeros(1, 8), "jaffard:r=0", 0.5, 0.5)
    u = single_diagonal(8, 4)
    ratio = oddkit.reiteration_ratio(u, "jaffard:r=0", 0.5, 0.5)
    assert 1 / 20 < ratio < 20


def test_reiteration_fast_path_matches_generic():
    # the callable oracle makes one difference matrix per grid point and
    # level; 16 points, as in the stack-path tests below, keep it to about
    # a second, and criterion 5 covers the default grid
    a = decay_matrix(10, 8)
    fast = oddkit.reiteration_ratio(a, NormSpec("jaffard", r=0.0), 0.5, 0.5, grid=16)
    slow = oddkit.reiteration_ratio(a, lambda m: oddkit.jaffard_norm(m, 0.0), 0.5, 0.5, grid=16)
    assert math.isclose(fast, slow, rel_tol=1e-10)


def _generic(spec):
    return lambda m: oddkit.matrix_norm(m, spec)


def test_reiteration_stack_paths_match_generic():
    # cpr at p = 2 takes the matrix-product path, jaffard at p = 1 the
    # commuted-max path with an l^1 sum over levels, literal cpr the product
    # path on the per-diagonal l^p norms; r != s tells the inner norm from
    # the outer one
    a = decay_matrix(11, 6)
    cases = (
        (NormSpec("cpr", p=2.0, r=0.0), 2.0, 0.5, 1.5),
        (NormSpec("jaffard", r=0.0), 1.0, 1.5, 0.5),
        (NormSpec("cpr", p=1.5, r=0.5, literal=True), 1.0, 1.5, 0.5),
    )
    for spec, p, r, s in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParameterDomainWarning)
            fast = oddkit.reiteration_ratio(a, spec, r, s, p, grid=16)
            slow = oddkit.reiteration_ratio(a, _generic(spec), r, s, p, grid=16)
        assert math.isclose(fast, slow, rel_tol=1e-10)


def test_reiteration_schur_matches_generic():
    # Schur at p < inf scales the inner stack by each outer row; the
    # callable path nests a whole besov_norm_modulus per outer grid point
    # (2-3 s); a weighted base at p = 1.5, inner order 2 and an l^2
    # level sum, and r != s to tell the inner norm from the outer one
    a = oddkit.corpus(3, 8, count=1)[0]
    spec = NormSpec("schur", p=1.5, r=1.0)
    fast = oddkit.reiteration_ratio(a, spec, 1.5, 0.5, 2.0, grid=16)
    slow = oddkit.reiteration_ratio(a, _generic(spec), 1.5, 0.5, 2.0, grid=16)
    assert math.isclose(fast, slow, rel_tol=1e-10)


def test_reiteration_schur_runtime():
    # nesting the callable path took 2.5 s on this input and grid
    a = oddkit.corpus(3, 16, count=1)[0]
    start = time.perf_counter()
    oddkit.reiteration_ratio(a, "schur:p=1,r=0", 0.5, 0.5, grid=16)
    assert time.perf_counter() - start < 0.1


def test_reiteration_fast_path_matches_generic_d2():
    a = decay_matrix(12, 2, dim=2)
    specs = (
        NormSpec("jaffard", r=0.0),
        NormSpec("cpr", p=1.0, r=0.0),
        NormSpec("cpr", p=2.0, r=1.5, literal=True),
    )
    for spec in specs:
        fast = oddkit.reiteration_ratio(a, spec, 0.5, 0.5, grid=8)
        slow = oddkit.reiteration_ratio(a, _generic(spec), 0.5, 0.5, grid=8)
        assert math.isclose(fast, slow, rel_tol=1e-10)


def test_literal_cpr_stack_evaluators_match_generic():
    # literal cpr reads one l^p norm per diagonal, Schur at p < inf the
    # line sums of the whole stack; every evaluator on the stack path
    # agrees with the callable path, whose modulus takes one complex
    # difference matrix per grid point
    for dim, window in ((1, 6), (2, 2)):
        a = decay_matrix(13, window, dim=dim)
        for spec in (NormSpec("cpr", p=1.0, r=0.0, literal=True),
                     NormSpec("cpr", p=3.5, r=1.5, literal=True, weight=oddkit.Weight("poly", 1.0)),
                     NormSpec("schur", p=1.0, r=0.0),
                     NormSpec("schur", p=2.0, r=1.5)):
            slow = _generic(spec)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ParameterDomainWarning)
                pairs = [
                    (oddkit.modulus(a, spec, 0.25, order=2, grid=16),
                     oddkit.modulus(a, slow, 0.25, order=2, grid=16)),
                    (oddkit.besov_norm_modulus(a, spec, 0.5, 2.0, grid=16, level_max=3),
                     oddkit.besov_norm_modulus(a, slow, 0.5, 2.0, grid=16, level_max=3)),
                    (oddkit.besov_norm_solid_lp(a, spec, 0.5, 2.0),
                     oddkit.besov_norm_solid_lp(a, slow, 0.5, 2.0)),
                    (oddkit.besov_norm_phi_lp(a, spec, 1.5, 1.0),
                     oddkit.besov_norm_phi_lp(a, slow, 1.5, 1.0)),
                ]
            for fast, want in pairs:
                assert want > 0 and math.isclose(fast, want, rel_tol=1e-12)


def test_smoothness_parameters_refused():
    a = decay_matrix(14, 4)
    bad = ((0.0, math.inf), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
           (0.5, 0.5), (0.5, -1.0), (0.5, math.nan))
    for r, p in bad:
        with pytest.raises(ValueError):
            BesovSpec("jaffard:r=0", r=r, p=p)
        for evaluator in (oddkit.besov_norm_modulus, oddkit.besov_norm_solid_lp, oddkit.besov_norm_phi_lp):
            with pytest.raises(ValueError):
                evaluator(a, "jaffard:r=0", r, p)
        with pytest.raises(ValueError):
            oddkit.reiteration_ratio(a, "jaffard:r=0", r, 0.5, p, grid=8)
        with pytest.raises(ValueError):
            oddkit.reiteration_ratio(a, "jaffard:r=0", 0.5, r, p, grid=8)


def test_reiteration_memory_bounded_d2():
    # the nested levels never form a (T, T, M) array: at d=2 W=2 on the
    # default grid that array alone is about 350 MB
    a = oddkit.generate(oddkit.DecayModel("det", 2.0), 2, dim=2)
    for base in ("jaffard:r=0", "cpr:p=2,r=1.5"):
        tracemalloc.start()
        try:
            oddkit.reiteration_ratio(a, base, 0.5, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def test_besov_modulus_memory_bounded_d2():
    # the level sum holds one level's (T, M) multipliers at a time: at d=2
    # W=8 on the default grid each is 6.4 MB (T = 740 points, M = 1089
    # offsets), and all seven levels together would be 45 MB
    a = oddkit.corpus(5, 8, count=1, dim=2)[0]
    tracemalloc.start()
    try:
        oddkit.besov_norm_modulus(a, "jaffard:r=0", 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_difference_factors_memory_bounded_d2():
    # the (T, M) factors (6.4 MB per level here) are formed in place: the
    # call peaks at 12.3 MB, and would reach 18.5 MB with two temporaries
    a = oddkit.corpus(5, 8, count=1, dim=2)[0]
    tracemalloc.start()
    try:
        oddkit.besov_norm_modulus(a, "jaffard:r=0", 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20


def test_continuity_defect():
    eye = LatticeMatrix.identity(1, 6)
    rep = oddkit.continuity_defect(eye, "jaffard:r=0", (1.0, 0.5, 0.25))
    assert rep.modulus == (0.0, 0.0, 0.0)
    u = single_diagonal(6, 1)
    rep = oddkit.continuity_defect(u, "jaffard:r=0", (0.25, 0.125))
    for h, m in zip(rep.h, rep.modulus):
        assert math.isclose(m, 2.0 * math.sin(math.pi * h), rel_tol=1e-12)
    # envelope matched to the weight: every tail sup is exactly 1
    w = 6
    dense = np.fromfunction(
        lambda i, j: (1.0 + np.abs(i - j)) ** -1.5, (13, 13)
    )
    a = LatticeMatrix.from_dense(dense, window=w)
    rep = oddkit.continuity_defect(a, "jaffard:r=1.5", (0.5,))
    assert rep.tail_exponent == 1.5
    assert all(math.isclose(t, 1.0, rel_tol=1e-12) for t in rep.tail)
