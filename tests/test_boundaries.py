"""Refusals at the library and command-line boundaries.

Every row hands one entry point an input it must refuse and names the
message of the check that refuses it, so a row fails if that check is
removed or another one answers first.  Matrix and config files go through
``cli.main``, which turns the refusal into exit code 2.
"""

import json
import os

import numpy as np
import pytest

import oddkit
from oddkit import DecayModel, LatticeMatrix, NormSpec, Weight
from oddkit import verify as V
from oddkit.cli import main

from conftest import single_diagonal

A1 = single_diagonal(4, 1)
A2 = A1 + LatticeMatrix.identity(1, 4)  # two stored diagonals

LIBRARY = [
    # (label, call, exception, message)
    ("from_dense non-square", lambda: LatticeMatrix.from_dense(np.ones((3, 4))),
     ValueError, "must be square"),
    ("from_dense dim 3", lambda: LatticeMatrix.from_dense(np.eye(3), dim=3),
     ValueError, "dim must be 1 or 2"),
    ("from_dense d=2 size not a square", lambda: LatticeMatrix.from_dense(np.eye(8), dim=2),
     ValueError, "not a perfect square"),
    ("from_dense size against window", lambda: LatticeMatrix.from_dense(np.eye(5), window=3),
     ValueError, "does not match window"),
    ("scalar offset at d=2", lambda: LatticeMatrix(2, 1, [(0, np.ones((3, 3)))]),
     ValueError, "scalar offset only valid for dim=1"),
    ("offset of the wrong length", lambda: LatticeMatrix(1, 2, [((0, 0), np.ones(5))]),
     ValueError, "wrong length"),
    ("derivation alpha length", lambda: oddkit.derivation(A1, (1, 1)),
     ValueError, "alpha must have 1 components"),
    ("derivation negative alpha", lambda: oddkit.derivation(A1, (-1,)),
     ValueError, "alpha components must be >= 0"),
    ("difference order 0", lambda: oddkit.difference(A1, 0.25, order=0),
     ValueError, "order must be >= 1"),
    ("difference order 1.5", lambda: oddkit.difference(A1, 0.25, order=1.5),
     ValueError, "order must be an integer"),
    ("modulate t length", lambda: oddkit.modulate(A1, (0.1, 0.2)),
     ValueError, "t must have 1 components"),
    ("band_truncate n < 0", lambda: oddkit.band_truncate(A1, -1),
     ValueError, "bandwidth must be >= 0"),
    ("band_truncate n 1.5", lambda: oddkit.band_truncate(A1, 1.5),
     ValueError, "bandwidth must be an integer"),
    ("band_truncate n nan", lambda: oddkit.band_truncate(A1, np.nan),
     ValueError, "bandwidth must be an integer"),
    ("approx_error n < 0", lambda: oddkit.approx_error(A1, -1, "jaffard:r=0"),
     ValueError, "bandwidth must be >= 0"),
    ("approx_error n 1.5", lambda: oddkit.approx_error(A1, 1.5, "jaffard:r=0"),
     ValueError, "bandwidth must be an integer"),
    ("approx_error n nan", lambda: oddkit.approx_error(A1, np.nan, "jaffard:r=0"),
     ValueError, "bandwidth must be an integer"),
    ("approx_errors n_max 2.5", lambda: oddkit.approx_errors(A1, "jaffard:r=0", n_max=2.5),
     ValueError, "n_max must be an integer"),
    ("approx_errors n_max inf", lambda: oddkit.approx_errors(A1, "jaffard:r=0", n_max=np.inf),
     ValueError, "n_max must be an integer"),
    ("generate band 1.5", lambda: oddkit.generate(DecayModel("det", 2.0), 4, band=1.5),
     ValueError, "band must be an integer"),
    ("weighted_norm scalar weight",
     lambda: oddkit.weighted_norm(A2, "jaffard:r=0", lambda offs: 2.0),
     ValueError, "weight must give 2 factors"),
    ("weighted_norm short weight",
     lambda: oddkit.weighted_norm(A2, "jaffard:r=0", lambda offs: np.ones(1)),
     ValueError, "weight must give 2 factors"),
    ("weighted_norm non-finite weight",
     lambda: oddkit.weighted_norm(A2, "jaffard:r=0", lambda offs: np.full(len(offs), np.inf)),
     ValueError, "non-finite"),
    ("weighted_norm op base", lambda: oddkit.weighted_norm(A2, "op", Weight("poly", 1.0)),
     ValueError, "requires a solid base norm"),
    ("NormSpec unknown kind", lambda: NormSpec("frobenius"),
     ValueError, "unknown norm kind"),
    ("NormSpec weighted op", lambda: NormSpec("op", weight=Weight("poly", 1.0)),
     ValueError, "weights not allowed"),
    ("modulus order 0", lambda: oddkit.modulus(A1, "jaffard:r=0", 0.25, order=0),
     ValueError, "order must be >= 1"),
    ("modulus order 1.5", lambda: oddkit.modulus(A1, "jaffard:r=0", 0.25, order=1.5),
     ValueError, "order must be an integer"),
    ("t_grid h nan", lambda: oddkit.t_grid(np.nan, 1, 16),
     ValueError, "h must be finite and > 0"),
    ("t_grid h inf", lambda: oddkit.t_grid(np.inf, 1, 16),
     ValueError, "h must be finite and > 0"),
    ("t_grid h < 0", lambda: oddkit.t_grid(-0.25, 1, 16),
     ValueError, "h must be finite and > 0"),
    ("t_grid dim 3", lambda: oddkit.t_grid(0.25, 3, 16),
     ValueError, "dim must be 1 or 2"),
    ("BesovSpec order 1.5", lambda: oddkit.BesovSpec("jaffard:r=0", 0.5, order=1.5),
     ValueError, "order must be an integer"),
    ("besov_norm_modulus level_max < 0",
     lambda: oddkit.besov_norm_modulus(A1, "jaffard:r=0", 0.5, level_max=-1),
     ValueError, "level_max must be >= 0"),
    ("parse_besov_spec without besov:", lambda: oddkit.parse_besov_spec("jaffard:r=0"),
     ValueError, "not a besov spec"),
    ("generate dim 3", lambda: oddkit.generate(DecayModel("det", 2.0), 4, dim=3),
     ValueError, "dim must be 1 or 2"),
    ("report without a window",
     lambda: oddkit.spectral_invariance_report(DecayModel("det", 2.0), ()),
     ValueError, "at least one window"),
    ("invert the zero matrix", lambda: oddkit.invert_finite_section(LatticeMatrix.zeros(1, 4)),
     oddkit.SingularSectionError, "zero matrix has no inverse"),
    ("hypersingular quadrature mismatch",
     lambda: oddkit.hypersingular_profile(
         A1, 0.5, "jaffard:r=0", quad=oddkit.HypersingularQuadrature(1.0, 1)
     ),
     ValueError, "does not match"),
    ("multipliers non-integral offset",
     lambda: oddkit.HypersingularQuadrature(0.5, 1).multipliers([[1.5]]),
     ValueError, "must be integers"),
    ("multipliers nan offset",
     lambda: oddkit.HypersingularQuadrature(0.5, 1).multipliers([[np.nan]]),
     ValueError, "must be integers"),
    ("multipliers complex offset",
     lambda: oddkit.HypersingularQuadrature(0.5, 1).multipliers([[1 + 2j]]),
     ValueError, "must be integers"),
    ("multipliers offset beyond 2^31",
     lambda: oddkit.HypersingularQuadrature(0.5, 1).multipliers([[2**40]]),
     ValueError, "must be integers"),
    ("multipliers d=2 offset at d=1",
     lambda: oddkit.HypersingularQuadrature(0.5, 1).multipliers([[3, 4]]),
     ValueError, r"must have shape \(M, 1\)"),
    ("multipliers d=1 offset at d=2",
     lambda: oddkit.HypersingularQuadrature(0.5, 2).multipliers([[3]]),
     ValueError, r"must have shape \(M, 2\)"),
    ("multiplier csv non-integral offset",
     lambda: oddkit.bessel.write_multiplier_csv(
         oddkit.HypersingularQuadrature(0.5, 1), [[1.5]], os.devnull
     ),
     ValueError, "must be integers"),
    ("run_suites on no matrices", lambda: V.run_suites(count=0),
     ValueError, "non-empty corpus"),
]


@pytest.mark.parametrize("label,call,exc,message", LIBRARY, ids=[row[0] for row in LIBRARY])
def test_library_refuses(label, call, exc, message):
    with pytest.raises(exc, match=message):
        call()


def _payload():
    return oddkit.to_json_dict(single_diagonal(3, 1, value=0.5))


def _without_window():
    payload = _payload()
    del payload["window"]
    return json.dumps(payload)


def _re_im_mismatch():
    payload = _payload()
    payload["diagonals"][0]["im"].pop()
    return json.dumps(payload)


def _with(**fields):
    payload = _payload()
    payload.update(fields)
    return json.dumps(payload)


def _offset_null():
    payload = _payload()
    payload["diagonals"][0]["offset"] = None
    return json.dumps(payload)


FILES = [
    # (label, file name, contents, message)
    ("json without window", "m.json", _without_window(), "malformed matrix payload"),
    ("json diagonal not an object", "m.json", _with(diagonals=[5]), "malformed matrix payload"),
    ("json diagonals not a list", "m.json", _with(diagonals=5), "malformed matrix payload"),
    ("json offset null", "m.json", _offset_null(), "malformed matrix payload"),
    ("json re/im lengths", "m.json", _re_im_mismatch(), "re/im length mismatch"),
    ("csv record of 3 fields", "m.csv", "0,0,1.0,0.0\n1,0,0.5\n", "expected 4 fields"),
    ("csv without records", "m.csv", "# row,col,re,im\n\n", "empty matrix file"),
]


@pytest.mark.parametrize("label,name,text,message", FILES, ids=[row[0] for row in FILES])
def test_bad_matrix_files_exit_2(label, name, text, message, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    assert main(["norm", "--in", str(path), "--spec", "op"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    eye = tmp_path / "eye.json"
    oddkit.save_json(LatticeMatrix.identity(1, 4), str(eye))
    config = tmp_path / "oddkit.conf"
    config.write_text("spec = op\njaffard\n")
    assert main(["norm", "--in", str(eye), "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected key = value" in captured.err
