import math

import numpy as np
import pytest

import oddkit
from oddkit import DecayModel, LatticeMatrix, SingularSectionError, lab
from oddkit.lab import _interior_envelope, corpus, report_csv_rows
from oddkit.norms import _dense_singular_extremes

from conftest import offset_grid, random_matrix, single_diagonal


def test_model_validation_and_aliases():
    m = DecayModel("deterministic-envelope", 2.0)
    assert m.kind == "det"
    assert DecayModel("random-phase", 1.0).kind == "phase"
    assert DecayModel("random-magnitude", 1.0).kind == "mag"
    with pytest.raises(ValueError):
        DecayModel("gauss", 1.0)
    with pytest.raises(ValueError):
        DecayModel("det", -1.0)
    with pytest.raises(ValueError):
        DecayModel("det", 1.0, amplitude=0.0)
    # refused at the model, not as a non-finite entry of the drawn matrix
    with pytest.raises(ValueError, match="exponent"):
        DecayModel("det", math.nan)
    with pytest.raises(ValueError, match="amplitude"):
        DecayModel("mag", 1.0, amplitude=math.inf)


def test_generate_det_exact_formula():
    # deterministic envelope, c=1, r=2, W=4: A(k,l) = (1+|k-l|)^{-2}
    a = oddkit.generate(DecayModel("det", 2.0), 4)
    diff = offset_grid(1, 4)[..., 0]
    want = (1.0 + np.abs(diff)) ** -2.0
    assert np.allclose(a.to_dense(), want, rtol=0, atol=0)
    assert np.array_equal(a.side_diagonal(0), np.ones(9))


def test_generate_flat_envelope():
    a = oddkit.generate(DecayModel("det", 0.0, amplitude=0.7), 8)
    assert all(np.allclose(np.abs(arr), 0.7) for _, arr in a.diagonals())


def test_generate_envelope_bound_random_kinds():
    for kind in ("phase", "mag"):
        a = oddkit.generate(DecayModel(kind, 2.5, seed=3), 8)
        offs = a.offset_array()
        _, env = a.envelope()
        bound = (1.0 + np.sqrt((offs.astype(float) ** 2).sum(axis=1))) ** -2.5
        assert (env <= bound * (1 + 1e-12)).all()
        if kind == "phase":  # phases leave the magnitude exactly on the envelope
            for off, arr in a.diagonals():
                d = math.sqrt(sum(x * x for x in off))
                assert np.allclose(np.abs(arr), (1.0 + d) ** -2.5, rtol=1e-12)


def _generate_by_diagonal(model, window, dim, band):
    """Reference generator: one RNG draw per diagonal into a dict."""
    rng = np.random.default_rng(model.seed)
    axis = range(-band, band + 1)
    offsets = [(m,) for m in axis] if dim == 1 else [(m1, m2) for m1 in axis for m2 in axis]
    diags = {}
    for off in offsets:
        env = model.amplitude * (1.0 + math.sqrt(sum(m * m for m in off))) ** (-model.exponent)
        shape = tuple(2 * window + 1 - abs(m) for m in off)
        if model.kind == "det":
            diags[off] = np.full(shape, env, dtype=np.complex128)
        elif model.kind == "phase":
            diags[off] = env * np.exp(2j * np.pi * rng.random(shape))
        else:
            diags[off] = (env * rng.random(shape)).astype(np.complex128)
    return LatticeMatrix(dim, window, diags)


@pytest.mark.parametrize("kind", ["det", "phase", "mag"])
@pytest.mark.parametrize("dim,window", [(1, 9), (2, 4)])
@pytest.mark.parametrize("band", [None, 0, 3])
def test_generate_matches_per_diagonal_reference(kind, dim, window, band):
    model = DecayModel(kind, 2.7, amplitude=1.3, seed=2**40 + 11)
    got = oddkit.generate(model, window, dim=dim, band=band)
    want = _generate_by_diagonal(model, window, dim, 2 * window if band is None else band)
    assert got.offsets() == want.offsets()
    assert got == want


def test_generate_determinism_and_band():
    m = DecayModel("phase", 2.0, seed=7)
    assert oddkit.generate(m, 6) == oddkit.generate(m, 6)
    full = oddkit.generate(m, 6)
    assert oddkit.bandwidth(full) == 13  # band defaults to 2W
    narrow = oddkit.generate(m, 6, band=2)
    assert oddkit.bandwidth(narrow) == 3
    assert len(oddkit.generate(DecayModel("det", 2.0), 64, band=64).offsets()) == 129
    with pytest.raises(ValueError):
        oddkit.generate(m, 0)
    with pytest.raises(ValueError):
        oddkit.generate(m, 6, band=20)


def test_generate_d2():
    a = oddkit.generate(DecayModel("det", 1.5), 3, dim=2)
    assert a.dim == 2
    got = a.side_diagonal((1, 2))
    want = (1.0 + math.sqrt(5.0)) ** -1.5
    assert np.allclose(got, want)


def test_corpus():
    mats = corpus(11, 8, count=9)
    assert len(mats) == 9
    kinds = {m.window for m in mats}
    assert kinds == {8}
    again = corpus(11, 8, count=9)
    assert all(x == y for x, y in zip(mats, again))
    assert any(not np.allclose(x.to_dense(), mats[0].to_dense()) for x in mats[1:])


def test_make_invertible():
    u = single_diagonal(6, 1)  # op norm exactly 1
    b = oddkit.make_invertible(u, margin=2.0)
    assert (b - 2.0 * LatticeMatrix.identity(1, 6)).allclose(u)
    smin = np.linalg.svd(b.to_dense(), compute_uv=False)[-1]
    assert smin >= 1.0 - 1e-12
    with pytest.raises(ValueError):
        oddkit.make_invertible(LatticeMatrix.zeros(1, 6))
    for margin in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            oddkit.make_invertible(u, margin=margin)


def test_invert_finite_section_basics():
    eye = LatticeMatrix.identity(1, 5)
    assert oddkit.invert_finite_section(eye).allclose(eye)
    d2 = 2.0 * eye
    assert oddkit.invert_finite_section(d2).allclose(0.5 * eye)
    with pytest.raises(SingularSectionError):
        oddkit.invert_finite_section(single_diagonal(5, 1))  # nilpotent shift


def _exact_gates(dense, sv_gate, residual_gate):
    """The finite-section gates decided by the exact tests alone: the dense
    SVD first, then the exact 2-norm of the residual of the same inverse."""
    svals = np.linalg.svd(dense, compute_uv=False)
    if svals[-1] < sv_gate * svals[0]:
        return "section numerically singular"
    inv = np.linalg.inv(dense)
    resid = dense @ inv
    np.fill_diagonal(resid, resid.diagonal() - 1.0)
    if np.linalg.norm(resid, 2) > residual_gate:
        return "inverse failed the residual check"
    return inv


def _section_with_ratio(ratio, seed=0, w=8):
    """A d=1 section (n = 2w + 1 = 17 rows) with s_min/s_max = ratio."""
    n = 2 * w + 1
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    svals = np.geomspace(1.0, ratio, n) if ratio > 0 else np.r_[np.geomspace(1.0, 1e-3, n - 1), 0.0]
    return LatticeMatrix.from_dense((u * svals) @ v.conj().T, window=w)


GATE_LADDER = (1e-3, 1e-8, 5e-10, 1.01e-10, 0.99e-10, 1e-11, 0.0)


@pytest.mark.parametrize(
    "sv_gate,residual_gate,reached",
    # gates on either side of the 1e-3 rung, and a residual gate nothing passes
    [(1e-10, 1e-8, 3), (1e-4, 1e-8, 2), (0.99e-3, 1e-8, 2), (1.01e-3, 1e-8, 1), (1e-10, -1.0, 2)],
)
def test_invert_finite_section_gates_match_exact_tests(
    monkeypatch, sv_gate, residual_gate, reached
):
    monkeypatch.setattr(lab, "SV_GATE", sv_gate)
    monkeypatch.setattr(lab, "RESIDUAL_GATE", residual_gate)
    sections = [_section_with_ratio(ratio) for ratio in GATE_LADDER]
    sections.append(LatticeMatrix.from_dense(np.ones((17, 17)), window=8))  # rank one
    outcomes = set()
    for b in sections:
        dense = b.to_dense()
        want = _exact_gates(dense, sv_gate, residual_gate)
        if isinstance(want, str):
            outcomes.add(want)
            with pytest.raises(SingularSectionError, match=f"^{want}"):
                oddkit.invert_finite_section(b)
        else:
            outcomes.add("accepted")
            got = oddkit.invert_finite_section(b)
            assert np.array_equal(got.to_dense(), want)
    assert len(outcomes) == reached


def test_invert_finite_section_exact_singularity(monkeypatch):
    ones = LatticeMatrix.from_dense(np.ones((17, 17)), window=8)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(ones.to_dense())
    # the ladder covers the SVD gate raising first; a gate that never fails
    # lets inv's error through, as when the SVD ran before inv
    monkeypatch.setattr(lab, "SV_GATE", 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        oddkit.invert_finite_section(ones)


def _count_exact_tests(monkeypatch):
    """Count the O(n^3) spectral calls: SVDs, eigvalsh and exact 2-norms."""
    calls = {"svd": 0, "norm2": 0}
    svd, eigvalsh, norm = np.linalg.svd, np.linalg.eigvalsh, np.linalg.norm

    def counting_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def counting_eigvalsh(*args, **kwargs):
        calls["svd"] += 1
        return eigvalsh(*args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        calls["norm2"] += ord == 2
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    return calls


def test_invert_finite_section_residual_fallback(monkeypatch):
    b = oddkit.make_invertible(oddkit.generate(DecayModel("phase", 2.5, seed=1), 8))
    dense = b.to_dense()
    inv = np.linalg.inv(dense)
    resid = dense @ inv
    np.fill_diagonal(resid, resid.diagonal() - 1.0)
    exact = np.linalg.norm(resid, 2)
    beta = math.sqrt(np.linalg.norm(resid, 1) * np.linalg.norm(resid, np.inf))
    assert 0 < exact < beta
    calls = _count_exact_tests(monkeypatch)
    monkeypatch.setattr(lab, "RESIDUAL_GATE", math.sqrt(exact * beta))
    got = oddkit.invert_finite_section(b)
    assert np.array_equal(got.to_dense(), inv)
    assert calls["norm2"] == 1  # the bound could not decide; the exact norm did
    monkeypatch.setattr(lab, "RESIDUAL_GATE", 0.999 * exact)
    with pytest.raises(SingularSectionError, match="^inverse failed the residual check"):
        oddkit.invert_finite_section(b)


def test_invert_finite_section_certified_without_exact_tests(monkeypatch):
    b = oddkit.make_invertible(oddkit.generate(DecayModel("det", 2.0), 64))
    calls = _count_exact_tests(monkeypatch)
    got = oddkit.invert_finite_section(b)
    assert calls == {"svd": 0, "norm2": 0}
    # a real section is inverted in real arithmetic
    assert np.array_equal(got.to_dense(), np.linalg.inv(b.to_dense().real))
    assert np.allclose(got.to_dense(), np.linalg.inv(b.to_dense()), rtol=1e-13, atol=0)


def test_invert_neumann_closed_form():
    w = 8
    b = 2.0 * LatticeMatrix.identity(1, w) + single_diagonal(w, 1)
    inv = oddkit.invert_finite_section(b)
    want = {}
    for m in range(0, 2 * w + 1):
        want[(m,)] = np.full(2 * w + 1 - m, (-1.0) ** m * 2.0 ** -(m + 1))
    assert inv.allclose(LatticeMatrix(1, w, want), rtol=1e-12, atol=1e-15)


def test_decay_profile_exact_power_law():
    a = oddkit.generate(DecayModel("det", 2.0), 32)
    prof = oddkit.decay_profile(a)
    assert abs(prof.exponent - 2.0) < 0.05
    assert prof.residual < 1e-10
    assert not prof.superpolynomial
    assert prof.n_fit >= 8
    assert len(prof.distances) == len(prof.envelope)


def test_decay_profile_rejects_degenerate():
    with pytest.raises(ValueError):
        oddkit.decay_profile(LatticeMatrix.identity(1, 8))
    with pytest.raises(ValueError):
        oddkit.decay_profile(LatticeMatrix.zeros(1, 8))


def test_decay_profile_flags_superpolynomial():
    w = 64
    b = 2.0 * LatticeMatrix.identity(1, w) + single_diagonal(w, 1)
    inv = oddkit.invert_finite_section(b)
    prof = oddkit.decay_profile(inv)
    assert prof.superpolynomial
    assert prof.exponent_outer > prof.exponent_inner


def test_spectral_invariance_report_schema():
    model = DecayModel("det", 2.0, seed=1)
    with pytest.raises(ValueError):
        oddkit.spectral_invariance_report(model, (8, 16))
    rep = oddkit.spectral_invariance_report(model, (16, 24))
    assert rep.windows == (16, 24)
    assert len(rep.cells) == 2
    assert len(rep.norm_specs) == 3  # default panel
    for cell in rep.cells:
        assert set(cell.norms) == set(rep.norm_specs)
        assert cell.condition <= 3.0 + 1e-9  # margin 2 bounds the condition
        assert cell.profile_inverse.exponent > 0
    assert set(rep.stability) == set(rep.norm_specs)
    assert all(len(v) == 1 for v in rep.stability.values())
    d = rep.to_dict()
    assert d["model"]["kind"] == "det"
    assert len(d["cells"]) == 2
    assert "exponent_inverse" in d["cells"][0]
    rows = report_csv_rows(rep)
    assert rows[0] == ("window", "spec", "forward", "inverse")
    assert len(rows) == 1 + 2 * 3


def test_interior_envelope_matches_dense():
    for dim, w in ((1, 9), (2, 4)):
        full = random_matrix(40 + dim, w, dim=dim, density=0.7)
        for a in (full, oddkit.band_truncate(full, w), full.select(full.offset_array()[:, 0] != 1)):
            dense = np.abs(a.to_dense())
            diff = offset_grid(dim, w)
            k = np.stack(np.unravel_index(np.arange(dense.shape[0]), (2 * w + 1,) * dim)) - w
            interior = (np.abs(k) <= w // 2).all(axis=0)
            want_d, want_v = [], []
            for off in a.offset_array():
                mask = (diff == off).all(axis=-1) & interior[:, None]
                if mask.any():
                    want_d.append(math.sqrt(float((off**2).sum())))
                    want_v.append(dense[mask].max())
            dists, vals = _interior_envelope(a)
            assert np.array_equal(dists, want_d)
            assert np.array_equal(vals, want_v)


def test_report_cell_matches_dense_inversion():
    model = DecayModel("mag", 2.5, seed=4)
    rep = oddkit.spectral_invariance_report(model, (16,), norms=("jaffard:r=2.5",))
    b = oddkit.make_invertible(oddkit.generate(model, 16))
    # the mag section is real and not symmetric: the dense kernel's Gram route
    s_max, s_min = _dense_singular_extremes(b.to_dense())
    cell = rep.cells[0]
    assert cell.op_norm_forward == s_max
    assert cell.condition == s_max / s_min
    complex_svals = np.linalg.svd(b.to_dense(), compute_uv=False)
    assert math.isclose(cell.op_norm_forward, complex_svals[0], rel_tol=1e-13)
    assert math.isclose(cell.condition, complex_svals[0] / complex_svals[-1], rel_tol=1e-13)
    b_inv = oddkit.invert_finite_section(b)
    assert cell.norms["jaffard:r=2.5"]["inverse"] == oddkit.matrix_norm(b_inv, "jaffard:r=2.5")
    assert cell.profile_inverse == oddkit.decay_profile(b_inv)
