import json
import math

import numpy as np
import pytest

import oddkit
from oddkit import LatticeMatrix
from oddkit import cli
from oddkit import verify as verify_mod
from oddkit.cli import main

from conftest import single_diagonal


def _save(matrix, tmp_path, name="m.json"):
    path = tmp_path / name
    oddkit.save_json(matrix, str(path))
    return str(path)


def test_no_command_prints_help_and_exits_2(capsys):
    assert main([]) == 2
    assert "usage: oddkit" in capsys.readouterr().out


def test_gen_echo_and_determinism(tmp_path, capsys):
    out = tmp_path / "a.json"
    assert main(["gen", "--W", "64", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "model=det" in text and "diagonals=129" in text
    assert f"wrote {out}" in text

    b1 = tmp_path / "b1.json"
    b2 = tmp_path / "b2.json"
    argv = ["gen", "--model", "phase", "--seed", "7", "--W", "16"]
    assert main(argv + ["--out", str(b1)]) == 0
    assert main(argv + ["--out", str(b2)]) == 0
    assert b1.read_bytes() == b2.read_bytes()
    loaded = oddkit.load_json(str(b1))
    want = oddkit.generate(oddkit.DecayModel("phase", 2.0, seed=7), 16, band=16)
    assert loaded == want


def test_gen_default_filename(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--W", "8", "--r", "1.5"]) == 0
    assert (tmp_path / "det-r1.5-W8.json").exists()


def test_norm_values(tmp_path, capsys):
    eye = _save(LatticeMatrix.identity(1, 8), tmp_path, "eye.json")
    assert main(["norm", "--in", eye, "--spec", "jaffard:r=2"]) == 0
    assert "jaffard:r=2 = 1\n" in capsys.readouterr().out

    zero = _save(LatticeMatrix.zeros(1, 4), tmp_path, "zero.json")
    assert main(["norm", "--in", zero, "--spec", "op"]) == 0
    assert "op = 0\n" in capsys.readouterr().out

    far = _save(single_diagonal(8, 4), tmp_path, "far.json")
    spec = "besov:base=jaffard:r=0,r=1,p=inf,method=solidlp"
    assert main(["norm", "--in", far, "--spec", spec]) == 0
    assert f"{spec} = 4\n" in capsys.readouterr().out


def test_norm_requires_spec(tmp_path):
    eye = _save(LatticeMatrix.identity(1, 4), tmp_path)
    assert main(["norm", "--in", eye]) == 2
    assert main(["norm", "--spec", "op"]) == 2  # no --in


def test_norm_reads_csv(tmp_path, capsys):
    path = tmp_path / "eye.csv"
    path.write_text("".join(f"{k},{k},1.0,0.0\n" for k in range(-2, 3)))
    assert main(["norm", "--in", str(path), "--spec", "jaffard:r=1"]) == 0
    assert "jaffard:r=1 = 1\n" in capsys.readouterr().out


def test_norm_bad_inputs_exit_2(tmp_path, capsys):
    eye = _save(LatticeMatrix.identity(1, 4), tmp_path)
    assert main(["norm", "--in", str(tmp_path / "nope.json"), "--spec", "op"]) == 2
    assert main(["norm", "--in", eye, "--spec", "jaffard:r=bogus"]) == 2
    assert "error:" in capsys.readouterr().err


def test_besov_command(tmp_path, capsys):
    far = _save(single_diagonal(8, 4), tmp_path)
    assert main(["besov", "--in", far, "--r", "1", "--p", "inf"]) == 0
    lines = dict(
        ln.split(" = ") for ln in capsys.readouterr().out.strip().splitlines()
    )
    assert set(lines) == {"modulus", "solidlp", "philp", "spread"}
    assert float(lines["solidlp"]) == 4.0
    assert float(lines["spread"]) >= 1.0


def test_approx_command_with_errors(tmp_path, capsys):
    far = _save(single_diagonal(6, 2), tmp_path)
    assert main(["approx", "--in", far, "--errors"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("approx[sum,r=0.5,p=inf] = ")
    assert out[1] == "window,base,n,error"
    assert out[2] == "6,jaffard:r=0,0,1"
    assert out[-1].endswith(",0")


def test_bessel_command(tmp_path, capsys):
    one = _save(single_diagonal(6, 1), tmp_path)
    assert main(["bessel", "--in", one, "--r", "2"]) == 0
    value = float(capsys.readouterr().out.split(" = ")[1])
    assert math.isclose(value, 1.0 + 4.0 * math.pi**2, rel_tol=1e-10)  # %.12g echo

    dump = tmp_path / "mult.csv"
    rc = main(["bessel", "--in", one, "--r", "0.5", "--hyp", "--dump-multipliers", str(dump)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hypersingular = " in out and "ratio = " in out
    header = dump.read_text().splitlines()[0]
    assert header == "m1,eps,re,im"


def test_profile_command(tmp_path, capsys):
    mat = _save(oddkit.generate(oddkit.DecayModel("det", 2.0), 32), tmp_path)
    plot = tmp_path / "prof.csv"
    assert main(["profile", "--in", mat, "--plot", str(plot)]) == 0
    out = capsys.readouterr().out
    lines = dict(ln.split(" = ") for ln in out.strip().splitlines() if " = " in ln)
    assert abs(float(lines["exponent"]) - 2.0) < 0.05
    assert lines["superpolynomial"] == "false"
    assert plot.read_text().splitlines()[0] == "distance,envelope"


def test_verify_list_and_run(tmp_path, capsys):
    assert main(["verify", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert list(names) == list(verify_mod.all_suites())

    out_json = tmp_path / "v.json"
    rc = main([
        "verify", "--suite", "leibniz", "--suite", "partition",
        "--W", "12", "--n", "4", "--json", str(out_json),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "PASS leibniz" in text and "PASS partition" in text
    payload = json.loads(out_json.read_text())
    assert payload["passed"] is True
    assert payload["window"] == 12 and payload["count"] == 4
    assert [s["name"] for s in payload["suites"]] == ["leibniz", "partition"]


def test_verify_bad_args_exit_2():
    assert main(["verify", "--n", "0"]) == 2
    assert main(["verify", "--suite", "no-such-suite", "--n", "2"]) == 2


def test_verify_failure_exit_1(monkeypatch, capsys):
    def failing(mats, seed):
        return verify_mod.SuiteResult("alwaysfail", False, {"worst": 1.0})

    monkeypatch.setitem(verify_mod._SUITES, "alwaysfail", failing)
    assert main(["verify", "--suite", "alwaysfail", "--W", "8", "--n", "1"]) == 1
    assert "FAIL alwaysfail" in capsys.readouterr().out


def test_config_defaults_and_flag_priority(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("r = 3\nW = 8  # window half-width\n")
    assert main(["gen", "--config", str(cfg)]) == 0
    assert (tmp_path / "det-r3-W8.json").exists()
    assert main(["gen", "--config", str(cfg), "--r", "2.5"]) == 0
    assert (tmp_path / "det-r2.5-W8.json").exists()


def test_config_boolean_and_unknown_key(tmp_path, capsys):
    one = _save(single_diagonal(4, 1), tmp_path)
    cfg = tmp_path / "b.cfg"
    cfg.write_text("hyp = yes\nr = 0.5\n")
    assert main(["bessel", "--in", one, "--config", str(cfg)]) == 0
    assert "hypersingular = " in capsys.readouterr().out

    bad = tmp_path / "bad.cfg"
    bad.write_text("window = 8\n")  # gen spells it W
    assert main(["gen", "--config", str(bad)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_numerical_failure_exit_3(tmp_path, monkeypatch, capsys):
    one = _save(single_diagonal(4, 1), tmp_path)

    def blow_up(*a, **k):
        raise oddkit.QuadratureError("did not stabilize")

    monkeypatch.setattr(cli._bessel, "bessel_norm", blow_up)
    assert main(["bessel", "--in", one, "--r", "0.5"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_report_outputs(tmp_path, capsys):
    out_dir = tmp_path / "rep"
    rc = main([
        "report", "--model", "det", "--r", "2", "--W", "16,20",
        "--norm", "jaffard:r=2", "--out", str(out_dir), "--format", "csv",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    rows = captured.out.strip().splitlines()
    assert rows[0] == "window,spec,forward,inverse"
    assert len(rows) == 1 + 2  # one norm column, two windows

    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["config"]["windows"] == [16, 20]
    assert payload["config"]["norms"] == ["jaffard:r=2"]
    assert len(payload["cells"]) == 2
    assert (out_dir / "report.csv").exists()
    for w in (16, 20):
        assert (out_dir / f"profile-W{w}-forward.csv").exists()
        assert (out_dir / f"profile-W{w}-inverse.csv").exists()
    assert "wrote" in captured.err

    assert main(["report", "--W", " ", "--out", str(out_dir)]) == 2


def test_threads_env_default(monkeypatch):
    monkeypatch.setenv("ODD_THREADS", "4")
    assert cli._default_threads() == 4
    monkeypatch.setenv("ODD_THREADS", "zero")
    assert cli._default_threads() == 1
    monkeypatch.delenv("ODD_THREADS")
    assert cli._default_threads() == 1


def test_threads_only_on_report(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--threads", "2", "--list"])
    assert exc.value.code == 2
    out_dir = tmp_path / "rep"
    assert main(["report", "--W", "16,20", "--threads", "2", "--out", str(out_dir)]) == 0
    assert json.loads((out_dir / "report.json").read_text())["config"]["threads"] == 2


def test_norm_refuses_bad_matrix_files_exit_2(tmp_path, capsys):
    payload = oddkit.to_json_dict(single_diagonal(3, 1, value=0.5))
    nan_entry = json.loads(json.dumps(payload))
    nan_entry["diagonals"][0]["re"][2] = float("nan")
    dup = json.loads(json.dumps(payload))
    dup["diagonals"].append(dict(dup["diagonals"][0]))
    for name, data in (("nan.json", nan_entry), ("dup.json", dup)):
        path = tmp_path / name
        path.write_text(json.dumps(data))  # json writes NaN as a bare literal
        assert main(["norm", "--in", str(path), "--spec", "op"]) == 2
        assert "error:" in capsys.readouterr().err


def test_norm_refuses_nan_parameter_exit_2(tmp_path, capsys):
    eye = _save(LatticeMatrix.identity(1, 4), tmp_path)
    assert main(["norm", "--in", eye, "--spec", "jaffard:r=nan"]) == 2
    assert "error:" in capsys.readouterr().err
