"""Quick self-test of the benchmark (about a minute).

    python3 -m pytest perfbench/test_quick.py -q

Runs every workload at reduced size through the real command line, checks
the shape of the result line and the attempted/failed counts, checks that
the traced run reports every per-layer metric of ``BENCHMARK.json`` and sees
calls made between modules, and checks that a deliberately perturbed
library result, or a library call that raises, is caught by each
workload's checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run as bench  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(*extra, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *extra],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return out


def _result(workload, trace=0, seed=3):
    out = _run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--quick")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_counts_and_metrics(workload):
    res = _result(workload)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    ops = len(workloads.build(workload, 3, quick=True).ops)
    assert res["attempted"] % ops == 0, "runs attempt whole rounds"
    # only the seed-independent d = 2 closed-form modulus checks fail
    known = 2 if workload == "lattice-d2" else 0
    assert res["failed"] * ops == known * res["attempted"]
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_layer_and_nested_calls():
    res = _result("calculus-d1", trace=1)
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert res["metrics"]["lattice.dense_calls"]["value"] > 0
    assert res["metrics"]["verify.self_s"]["value"] > 0
    spans_path = os.path.join(bench.RESULTS, "calculus-d1-seed3-trace1-quick.spans.jsonl")
    with open(spans_path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    pairs = {(spans[p][0] if p >= 0 else None, name) for name, _, _, p in spans}
    assert ("lattice.multiply", "lattice.to_dense") in pairs
    assert ("lattice.multiply", "lattice.from_dense") in pairs
    assert ("lab.make_invertible", "norms.op_dense") in pairs
    smooth = _result("smoothness-d1", trace=1)
    assert smooth["metrics"]["smoothness.grid_points"]["value"] > 0
    assert smooth["metrics"]["bessel.mu_rows"]["value"] > 0


def _scaled(module, name, factor):
    original = getattr(module, name)
    return lambda *a, **k: original(*a, **k) * factor


def _shifted_inverse(lab):
    original = lab.invert_finite_section

    def shifted(matrix, *a, **k):
        inv = original(matrix, *a, **k)
        return inv + 1e-6 * type(inv).identity(inv.dim, inv.window)

    return shifted


def _raising(lab):
    def singular(*a, **k):
        raise lab.SingularSectionError("perturbed: section reported singular")

    return singular


def _perturbations():
    from oddkit import lab, norms, smoothness

    return [
        ("calculus-d1", lab, "invert_finite_section", _raising(lab)),
        ("invariance-d1", lab, "invert_finite_section", _raising(lab)),
        ("calculus-d1", norms, "jaffard_norm", _scaled(norms, "jaffard_norm", 1 + 1e-6)),
        ("calculus-d1", lab, "invert_finite_section", _shifted_inverse(lab)),
        ("smoothness-d1", smoothness, "reiteration_ratio",
         _scaled(smoothness, "reiteration_ratio", 1 + 1e-6)),
        ("smoothness-d1", smoothness, "besov_norm_phi_lp",
         _scaled(smoothness, "besov_norm_phi_lp", 1 + 1e-6)),
        ("invariance-d1", norms, "op_norm_l2", _scaled(norms, "op_norm_l2", 1.01)),
        ("lattice-d2", norms, "op_norm_l2", _scaled(norms, "op_norm_l2", 1 + 1e-6)),
    ]


@pytest.mark.parametrize("case", range(8))
def test_perturbed_result_is_caught(case, monkeypatch):
    workload, module, name, fake = _perturbations()[case]
    wl = workloads.build(workload, 3, quick=True)
    clean = bench._measure(wl, 0)
    assert clean["correct"], clean["failures"]
    # patch every module namespace that imported the function by name
    from oddkit import cli, lab, norms, smoothness, verify  # noqa: F401
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("oddkit") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, fake)
    try:
        bad = bench._measure(wl, 0)
    finally:
        if wl.cleanup:
            wl.cleanup()
    assert not bad["correct"], f"{workload}: perturbed {name} was not caught"
    # a raising operation is timed too
    assert len(bad["latencies"]) == bad["attempted"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calculus-d1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
