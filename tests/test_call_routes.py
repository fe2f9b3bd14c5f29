"""Entry points that must keep calling named module functions.

The benchmark's tracer and self-test (``perfbench/tracing.py``,
``perfbench/test_quick.py``) replace these functions in every oddkit
namespace that holds them, to count grid points and ARPACK products and to
check that a perturbed result is caught.  An entry point that computed the
same value without calling them would hide from both, so each row wraps the
names with counters and checks that one call of the entry point reaches
every one of them.
"""

import sys
from collections import Counter

import numpy as np
import pytest

import oddkit
from oddkit import lab, norms, smoothness

A = oddkit.corpus(3, 6, count=1)[0]


def _banded_past_dense_limit():
    # 2049 rows: op_norm_l2 leaves the dense kernel for ARPACK
    diag = np.ones(2049)
    diag[0] = 3.0
    return oddkit.LatticeMatrix(1, 1024, {(0,): diag, (1,): np.full(2048, 0.1)})


def _phase_report():
    return oddkit.spectral_invariance_report(oddkit.DecayModel("phase", 2.5), (16,))


ROUTES = [
    # (label, entry point, (module, name) pairs it must reach)
    ("matrix_norm",
     lambda: [oddkit.matrix_norm(A, s) for s in ("jaffard:r=1", "schur:p=1,r=0", "cpr:p=2,r=1")],
     [(norms, "jaffard_norm"), (norms, "schur_norm"), (norms, "cpr_norm")]),
    ("report W=16",
     lambda: oddkit.spectral_invariance_report(oddkit.DecayModel("det", 2.0), (16,)),
     [(lab, "invert_finite_section"), (norms, "op_norm_l2"), (norms, "jaffard_norm")]),
    ("report phase W=16", _phase_report, [(norms, "_dense_singular_extremes")]),
    ("modulus", lambda: oddkit.modulus(A, "jaffard:r=0", 0.25), [(smoothness, "t_grid")]),
    ("besov_norm_modulus", lambda: oddkit.besov_norm_modulus(A, "schur:p=1,r=0", 0.5),
     [(smoothness, "t_grid")]),
    ("reiteration_ratio", lambda: oddkit.reiteration_ratio(A, "jaffard:r=0", 0.5, 0.5, grid=16),
     [(smoothness, "t_grid")]),
    ("op_norm_l2 past 2048 rows", lambda: oddkit.op_norm_l2(_banded_past_dense_limit()),
     [(norms, "_diag_matvec")]),
]


@pytest.mark.parametrize("label,call,names", ROUTES, ids=[row[0] for row in ROUTES])
def test_entry_point_reaches_named_functions(label, call, names, monkeypatch):
    counts = Counter()
    for module, name in names:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            oddkit_module = getattr(mod, "__name__", "").startswith("oddkit")
            if oddkit_module and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    call()
    missing = [name for _, name in names if not counts[name]]
    assert not missing, f"{label} no longer calls {missing}"


SKIPPED = [
    # (label, entry point, (owner, name) pairs it must not call)
    # the shifted phase section has kappa <= 3: the Gram eigenvalues certify
    # both singular-value extremes, and the op norm needs s_max only
    ("phase report svd", _phase_report, [(np.linalg, "svd")]),
    # Schur at p < inf takes whole multiplier stacks: no scaled matrix per
    # stack row, no difference matrix per grid point
    ("besov_norm_modulus schur",
     lambda: oddkit.besov_norm_modulus(A, "schur:p=1,r=0", 0.5),
     [(oddkit.LatticeMatrix, "scale_diagonals")]),
    ("reiteration_ratio schur",
     lambda: oddkit.reiteration_ratio(A, "schur:p=2,r=1", 0.5, 0.5, grid=16),
     [(oddkit.LatticeMatrix, "scale_diagonals"), (smoothness, "difference")]),
    # jaffard reads the envelope: its stacks scale the diagonal values
    ("besov_norm_modulus jaffard",
     lambda: oddkit.besov_norm_modulus(A, "jaffard:r=0", 0.5),
     [(oddkit.LatticeMatrix, "scale_diagonals"), (smoothness, "difference")]),
    ("reiteration_ratio jaffard",
     lambda: oddkit.reiteration_ratio(A, "jaffard:r=0", 0.5, 0.5, grid=16),
     [(oddkit.LatticeMatrix, "scale_diagonals"), (smoothness, "difference")]),
]


@pytest.mark.parametrize("label,call,names", SKIPPED, ids=[row[0] for row in SKIPPED])
def test_entry_point_skips_named_functions(label, call, names, monkeypatch):
    counts = Counter()
    for owner, name in names:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    call()
    assert not counts, f"{label} calls {dict(counts)}"
