"""The four benchmark workloads.

``build(name, seed, quick)`` returns a :class:`Workload`: the operations of
one round and a warm-up.  Every operation takes one input (a corpus matrix
or one report cell) through the workload's full list of library calls; its
``run`` is what gets timed and its ``check`` compares the outputs with
:mod:`oracles` or with a property the mathematics guarantees.  Inputs depend
on the seed only through the corpus draws; sizes and call lists are fixed,
so every run attempts whole rounds of the same operations.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

import oracles as O
from oddkit import approx as A
from oddkit import bessel as B
from oddkit import cli
from oddkit import lab
from oddkit import lattice as L
from oddkit import norms as N
from oddkit import smoothness as S
from oddkit import verify as V

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

JAFFARD0 = "jaffard:r=0"
SOLID_SPECS = ("jaffard:r=2", "schur:p=1,r=0", "cpr:p=2,r=1.5")
GENERIC_BASES = ("schur:p=1,r=0", "cpr:p=1,r=0,literal=true")
BESOV_COMBOS = ((0.5, math.inf), (1.5, math.inf), (1.0, 1.0))


@dataclass
class Op:
    """One timed operation.  ``check(result)`` returns failure messages.
    ``known_fault`` marks an operation that fails because of a recorded
    fault in the library: it counts as failed, not as incorrect."""

    name: str
    run: object
    check: object
    known_fault: bool = False


@dataclass
class Workload:
    ops: list
    warmup: object
    cleanup: object = None


def _expect(fails, label, ok, detail):
    if not ok:
        fails.append(f"{label}: {detail}")


def _close(fails, label, value, ref, rtol):
    err = O.rel_err(value, ref)
    _expect(fails, label, err <= rtol, f"{value!r} vs reference {ref!r} (rel {err:.2e} > {rtol:g})")


def _closed(label, value, ref, rtol):
    fails = []
    _close(fails, label, value, ref, rtol)
    return fails


class Reference:
    """Dense form, offset grid and envelope of one input, built once per run
    by the oracle code and shared by the checks of every round."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.dense = O.dense(matrix)
        self.diff = O.offsets(matrix.dim, matrix.window)
        self.env = O.envelope(self.dense, self.diff)

    def sup(self, x):
        return float(np.abs(x).max())

    def schur1(self, x):
        return O.schur(x, self.diff, 1.0, 0.0)

    def literal1(self, x):
        return float(np.abs(x).sum())

    def solid(self, spec):
        kind, _, rest = spec.partition(":")
        params = dict(kv.split("=") for kv in rest.split(","))
        r = float(params.get("r", 0))
        if kind == "jaffard":
            return O.jaffard(self.dense, self.diff, r)
        if kind == "schur":
            return O.schur(self.dense, self.diff, float(params["p"]), r)
        return O.cpr(self.env, float(params["p"]), r)


def _reference(cache, matrix):
    ref = cache.get(id(matrix))
    if ref is None:
        ref = cache[id(matrix)] = Reference(matrix)
    return ref


# -- calculus (d = 1 and the d = 2 corpus) ----------------------------------------


def calculus_run(a, b, ts, seed):
    """The modulation-calculus identities and solid-norm properties of
    ``oddkit verify`` for one matrix (``b`` is its product partner)."""
    out = {
        "leibniz": V.measure_leibniz([a, b], ts),
        "group": V.measure_group_law([a], ts[:6]),
        "binomial": V.measure_binomial([a], ts[:2]),
        "isometry": V.measure_modulate_isometry([a], ts),
        "solidity": V.measure_solidity([a], seed),
        "bernstein": V.measure_bernstein([a]),
        "submult": V.measure_submultiplicative([a, b]),
        "norms": {spec: N.matrix_norm(a, spec) for spec in SOLID_SPECS},
    }
    shifted = lab.make_invertible(a, margin=2.0)
    inverse = lab.invert_finite_section(shifted)
    quotient = []
    for t in ts[:4]:
        lhs = L.difference(inverse, t)
        rhs = -1.0 * L.multiply(
            L.multiply(L.modulate(inverse, t), L.difference(shifted, t)), inverse
        )
        quotient.append((lhs, rhs))
    out.update(shifted=shifted, inverse=inverse, quotient=quotient)
    return out


def calculus_check(ref, res):
    fails = []
    _expect(fails, "leibniz", res["leibniz"] < 1e-10, f"residual {res['leibniz']:.3e}")
    _expect(fails, "group law", res["group"] < 1e-12, f"residual {res['group']:.3e}")
    _expect(fails, "binomial", res["binomial"] < 1e-12, f"residual {res['binomial']:.3e}")
    _expect(fails, "isometry", res["isometry"] < 1e-12, f"drift {res['isometry']:.3e}")
    _expect(fails, "solidity", res["solidity"] <= 0.0, f"violation {res['solidity']:.3e}")
    _expect(fails, "bernstein", res["bernstein"] <= 1.0, f"ratio {res['bernstein']:.6f}")
    schur1 = res["submult"]["schur:p=1,r=0"]
    _expect(fails, "submultiplicative", schur1 <= 1.0 + 1e-12, f"schur ratio {schur1:.6f}")
    for spec, value in res["norms"].items():
        _close(fails, spec, value, ref.solid(spec), 1e-12)
    b = O.dense(res["shifted"])
    b_inv = O.dense(res["inverse"])
    eye = np.eye(b.shape[0])
    resid = float(np.abs(b @ b_inv - eye).max())
    _expect(fails, "inverse residual", resid < 1e-10, f"{resid:.3e}")
    svals = np.linalg.svd(b, compute_uv=False)
    cond = float(svals[0] / svals[-1])
    _expect(fails, "condition", cond <= 3.0 * (1 + 1e-9), f"{cond:.6f} > (margin+1)/(margin-1) = 3")
    worst = max(float(np.abs(O.dense(l) - O.dense(r)).max()) for l, r in res["quotient"])
    _expect(fails, "quotient", worst < 1e-10, f"residual {worst:.3e}")
    return fails


def _corpus_ops(mats, run, check, cache, prefix):
    """One operation per corpus matrix; ``run(a, b)`` pairs each matrix with
    the next one for the products."""
    ops = []
    for i, a in enumerate(mats):
        b = mats[(i + 1) % len(mats)]
        ops.append(
            Op(
                f"{prefix}[{i}]",
                lambda a=a, b=b: run(a, b),
                lambda res, a=a: check(_reference(cache, a), res),
            )
        )
    return ops


def calculus_d1(seed, quick):
    window, count = (16, 3) if quick else (64, 6)
    mats = lab.corpus(seed, window, count=count)
    ts = V.t_values(seed, count=8)
    cache = {}
    ops = _corpus_ops(mats, lambda a, b: calculus_run(a, b, ts, seed), calculus_check, cache, "calculus")
    tiny = lab.corpus(seed, 4, count=2)
    return Workload(ops, lambda: calculus_run(tiny[0], tiny[1], ts, seed))


# -- smoothness evaluators -----------------------------------------------------------


GENERIC_GRID, GENERIC_LMAX = 16, 3
REIT_GRID = 32


def smoothness_run(a):
    out = {"jaffard": {}, "generic": {}}
    for r, p in BESOV_COMBOS:
        out["jaffard"][(r, p)] = (
            S.besov_norm_modulus(a, JAFFARD0, r, p),
            S.besov_norm_solid_lp(a, JAFFARD0, r, p),
            S.besov_norm_phi_lp(a, JAFFARD0, r, p),
        )
    for base in GENERIC_BASES:
        out["generic"][base] = (
            S.besov_norm_modulus(a, base, 0.5, grid=GENERIC_GRID, level_max=GENERIC_LMAX),
            S.besov_norm_solid_lp(a, base, 0.5),
            S.besov_norm_phi_lp(a, base, 0.5),
        )
    out["approx_sum"] = A.approx_space_norm(a, JAFFARD0, 0.5, math.inf, form="sum")
    out["approx_dyadic"] = A.approx_space_norm(a, JAFFARD0, 0.5, math.inf, form="dyadic")
    out["jackson"] = A.jackson_bernstein_ratio(a, JAFFARD0, 1.0, 1.0)
    out["reiteration"] = S.reiteration_ratio(a, JAFFARD0, 0.5, 0.5, grid=REIT_GRID)
    quad = B.HypersingularQuadrature(0.5, a.dim)
    out["embedding"] = B.embedding_check(a, 0.5, JAFFARD0, quad=quad)
    out["grid_gap"] = V.measure_grid_convergence([a])
    out["modulus"] = {h: S.modulus(a, JAFFARD0, h) for h in (1.0, 0.25, 0.0625)}
    return out


def smoothness_check(ref, res):
    fails = []
    levels = O.default_levels(ref.matrix.window)
    for (r, p), (mod, solid, phi) in res["jaffard"].items():
        order = int(math.floor(r)) + 1
        _close(fails, f"modulus r={r} p={p}", mod,
               O.besov_modulus_sup(ref.env, r, p, order, 64, levels), 1e-12)
        _close(fails, f"solidlp r={r} p={p}", solid, O.solid_lp(ref.dense, ref.diff, ref.sup, r, p), 1e-12)
        _close(fails, f"philp r={r} p={p}", phi, O.phi_lp(ref.dense, ref.diff, ref.sup, r, p), 1e-12)
    norms = {"schur:p=1,r=0": ref.schur1, "cpr:p=1,r=0,literal=true": ref.literal1}
    for base, (mod, solid, phi) in res["generic"].items():
        norm = norms[base]
        want = O.besov_modulus(ref.dense, ref.diff, norm, 0.5, math.inf, 1,
                               GENERIC_GRID, range(0, GENERIC_LMAX + 1))
        _close(fails, f"modulus {base}", mod, want, 1e-10)
        _close(fails, f"solidlp {base}", solid, O.solid_lp(ref.dense, ref.diff, norm, 0.5, math.inf), 1e-12)
        _close(fails, f"philp {base}", phi, O.phi_lp(ref.dense, ref.diff, norm, 0.5, math.inf), 1e-12)
    errors = O.approx_errors_sup(ref.dense, ref.diff)
    n = np.arange(errors.size, dtype=float)
    approx_sum = float((errors * (n + 1.0) ** 0.5).max())
    dyadic = [errors[0]] + [2.0 ** (0.5 * j) * errors[2**j] for j in range(int(math.log2(errors.size - 1)) + 1)]
    _close(fails, "approx sum", res["approx_sum"], approx_sum, 1e-12)
    _close(fails, "approx dyadic", res["approx_dyadic"], max(dyadic), 1e-12)
    # r = 1, p = 1: the sum form weighs E_n by (n+1)^(rp-1) = 1
    jackson = float(errors.sum()) / O.solid_lp(ref.dense, ref.diff, ref.sup, 1.0, 1.0)
    _close(fails, "jackson-bernstein", res["jackson"], jackson, 1e-12)
    want = O.reiteration_ratio_sup(ref.env, ref.matrix.window, 0.5, 0.5, points=REIT_GRID)
    _close(fails, "reiteration", res["reiteration"], want, 1e-10)
    fails += _embedding_check(ref, res["embedding"], 0.5, 0.5, math.inf)
    _expect(fails, "grid convergence", res["grid_gap"] < 0.01, f"gap {res['grid_gap']:.4f}")
    for h, value in res["modulus"].items():
        _close(fails, f"closed-form modulus h={h}", value, O.exact_sup_modulus(ref.env, h, 1), 0.01)
    return fails


def _embedding_check(ref, rep, r, s, p):
    fails = []
    offs, vals = O.env_arrays(ref.env)
    _close(fails, "bessel norm", rep.bessel, float((vals * O.bessel_factor(offs, r)).max()), 1e-12)
    _close(fails, "besov p=1", rep.besov_p1, O.solid_lp(ref.dense, ref.diff, ref.sup, r, 1.0), 1e-12)
    _close(fails, "besov p=inf", rep.besov_pinf, O.solid_lp(ref.dense, ref.diff, ref.sup, r, math.inf), 1e-12)
    damped = ref.dense * O.bessel_factor(ref.diff, -r)
    _close(fails, "shift lhs", rep.shift_lhs, O.solid_lp(damped, ref.diff, ref.sup, s, p), 1e-12)
    _close(fails, "shift rhs", rep.shift_rhs, O.solid_lp(ref.dense, ref.diff, ref.sup, r + s, p), 1e-12)
    _close(fails, "hypersingular", rep.hypersingular, O.hypersingular_sup(ref.env, r), 0.01)
    return fails


def smoothness_d1(seed, quick):
    window, count = (16, 2) if quick else (64, 4)
    mats = lab.corpus(seed, window, count=count)
    cache = {}
    ops = [
        Op(
            f"smoothness[{i}]",
            lambda a=a: smoothness_run(a),
            lambda res, a=a: smoothness_check(_reference(cache, a), res),
        )
        for i, a in enumerate(mats)
    ]
    tiny = lab.corpus(seed, 4, count=1)[0]
    return Workload(ops, lambda: smoothness_run(tiny))


# -- the invariance report through the command line ------------------------------------


# two W = 512 cells carry most of the time, as in a user's window sweep
INVARIANCE_CELLS = (("det", 2.0, (64, 256, 512)), ("det", 3.0, (128, 256)), ("phase", 2.5, (64, 512)))
INVARIANCE_QUICK = (("det", 2.0, (16, 32)), ("phase", 2.5, (16,)))


def report_run(kind, r, window, seed, out_dir):
    argv = ["report", "--model", kind, "--r", repr(r), "--seed", str(seed),
            "--W", str(window), "--out", out_dir, "--format", "json"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


_DET_SPECTRUM = {}


def _det_spectrum(r, window):
    key = (r, window)
    if key not in _DET_SPECTRUM:
        _DET_SPECTRUM[key] = np.linalg.eigvalsh(O.det_dense_1d(r, window))
    return _DET_SPECTRUM[key]


def report_check(kind, r, window, out_dir, res):
    code, stdout, stderr = res
    fails = []
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-200:]}"]
    payload = json.loads(stdout)
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        _expect(fails, "report.json", json.load(fh) == payload, "differs from stdout")
    cell = payload["cells"][0]
    margin = payload["margin"]
    bound = (margin + 1) / (margin - 1)
    _expect(fails, "condition", cell["condition"] <= bound * (1 + 1e-9),
            f"{cell['condition']:.6f} > (margin+1)/(margin-1) = {bound:g}")
    _expect(fails, "inverse exponent", cell["exponent_inverse"] >= r - 0.25,
            f"{cell['exponent_inverse']:.4f} < r - 0.25 = {r - 0.25:g}")
    _close(fails, "forward exponent", cell["exponent_forward"], r, 1e-9)
    for spec, vals in cell["norms"].items():
        ok = all(math.isfinite(v) and v > 0 for v in vals.values())
        _expect(fails, f"norms {spec}", ok, f"{vals}")
    if kind == "det":
        lam = _det_spectrum(r, window)
        s = float(np.abs(lam).max())
        shift = margin * s
        _close(fails, "op norm", cell["op_norm_forward"], shift + lam.max(), 1e-10)
        _close(fails, "condition", cell["condition"], (shift + lam.max()) / (shift + lam.min()), 1e-8)
        norms = cell["norms"]
        _close(fails, "forward jaffard", norms[f"jaffard:r={r!r}"]["forward"], shift + 1.0, 1e-12)
        m = np.arange(1, 2 * window + 1, dtype=float)
        off_diag = float(((1.0 + m) ** -r * np.sqrt(1.0 + (2 * np.pi * m) ** 2)).max())
        _close(fails, "forward bessel", norms["w[bessel:r=1]jaffard:r=0"]["forward"],
               max(shift + 1.0, off_diag), 1e-12)
    return fails


def invariance_d1(seed, quick):
    os.makedirs(RESULTS, exist_ok=True)
    root = tempfile.mkdtemp(prefix="invariance-", dir=RESULTS)
    ops = []
    for kind, r, windows in INVARIANCE_QUICK if quick else INVARIANCE_CELLS:
        for window in windows:
            out_dir = os.path.join(root, f"{kind}-r{r:g}-W{window}")
            ops.append(
                Op(
                    f"report[{kind},r={r:g},W={window}]",
                    lambda k=kind, r=r, w=window, d=out_dir: report_run(k, r, w, seed, d),
                    lambda res, k=kind, r=r, w=window, d=out_dir: report_check(k, r, w, d, res),
                )
            )
    warm_dir = os.path.join(root, "warmup")
    return Workload(
        ops,
        lambda: report_run("det", 2.0, 16, seed, warm_dir),
        cleanup=lambda: shutil.rmtree(root, ignore_errors=True),
    )


# -- d = 2 -----------------------------------------------------------------------------


def d2_corpus_run(a, b, ts, seed):
    out = calculus_run(a, b, ts, seed)
    out["modulus"] = S.besov_norm_modulus(a, JAFFARD0, 0.5)
    out["solidlp"] = S.besov_norm_solid_lp(a, JAFFARD0, 0.5)
    out["philp"] = S.besov_norm_phi_lp(a, JAFFARD0, 0.5)
    return out


def d2_corpus_check(ref, res):
    fails = calculus_check(ref, res)
    levels = O.default_levels(ref.matrix.window)
    want = O.besov_modulus_sup(ref.env, 0.5, math.inf, 1, O.default_points(2), levels)
    _close(fails, "modulus", res["modulus"], want, 1e-12)
    _close(fails, "solidlp", res["solidlp"], O.solid_lp(ref.dense, ref.diff, ref.sup, 0.5, math.inf), 1e-12)
    _close(fails, "philp", res["philp"], O.phi_lp(ref.dense, ref.diff, ref.sup, 0.5, math.inf), 1e-12)
    return fails


def norms_run(m):
    return {spec: N.matrix_norm(m, spec) for spec in ("op",) + SOLID_SPECS}


class NormsReference:
    """Reference norms of one large matrix.  Only the numbers are kept, so
    the dense arrays do not stay resident for the rest of the run."""

    def __init__(self, matrix):
        ref = Reference(matrix)
        self.values = {spec: ref.solid(spec) for spec in SOLID_SPECS}
        self.values["op"] = O.op_norm(ref.dense)


def norms_check(ref, res):
    fails = []
    _close(fails, "op (ARPACK vs dense eigensolver)", res["op"], ref.values["op"], 1e-8)
    for spec in SOLID_SPECS:
        _close(fails, spec, res[spec], ref.values[spec], 1e-12)
    return fails


def closed_form_check(ref, h, value):
    exact = O.exact_sup_modulus(ref.env, h, 1)
    err = O.rel_err(value, exact)
    if err <= 0.01:
        return []
    return [f"modulus {value!r} is {err:.2%} off the exact sup over the disc {exact!r}"]


def lattice_d2(seed, quick):
    # W = 24 is past the 2048-row switch of op_norm_l2, so 'op' runs ARPACK
    corpus_w, reit_w, norms_w = (3, 1, 8) if quick else (4, 2, 24)
    mats = lab.corpus(seed, corpus_w, count=5, dim=2)
    ts = V.t_values(seed, count=8, dim=2)
    cache = {}
    corpus_ops = _corpus_ops(
        mats, lambda a, b: d2_corpus_run(a, b, ts, seed), d2_corpus_check, cache, "d2-corpus"
    )
    small = lab.corpus(seed, reit_w, count=1, dim=2)[0]
    reiteration = Op(
        f"d2-reiteration[W={reit_w}]",
        lambda: S.reiteration_ratio(small, JAFFARD0, 0.5, 0.5),
        lambda res: _closed(
            "reiteration", res,
            O.reiteration_ratio_sup(_reference(cache, small).env, reit_w, 0.5, 0.5), 1e-10),
    )
    # 'mag' entries are real: the dense reference runs in real arithmetic
    big = lab.generate(lab.DecayModel("mag", 2.5, seed=seed), norms_w, dim=2)
    big_ref = []

    def check_big(res):
        if not big_ref:
            big_ref.append(NormsReference(big))
        return norms_check(big_ref[0], res)

    big_norms = Op(f"d2-norms[W={norms_w}]", lambda: norms_run(big), check_big)
    # seed-independent input on which the d = 2 modulus grid misses the
    # boundary circle of |t|_2 <= h (README: "Known failure")
    fixed = lab.generate(lab.DecayModel("det", 2.0), 4, dim=2)
    closed_form = [
        Op(
            f"d2-closed-form-modulus[h={h}]",
            lambda h=h: S.modulus(fixed, JAFFARD0, h),
            lambda res, h=h: closed_form_check(_reference(cache, fixed), h, res),
            known_fault=True,
        )
        for h in (0.25, 0.0625)
    ]
    # corpus operations alternate with the others, so that their latencies,
    # whose median is op_p50_ms, are sampled across the whole round
    ops = [corpus_ops[0]]
    for other, corpus_op in zip([reiteration, closed_form[0], big_norms, closed_form[1]], corpus_ops[1:]):
        ops += [other, corpus_op]
    tiny = lab.corpus(seed, 2, count=2, dim=2)

    def warmup():
        importlib.import_module("scipy.sparse.linalg")  # op_norm_l2 imports it on first ARPACK use
        d2_corpus_run(tiny[0], tiny[1], ts[:2], seed)

    return Workload(ops, warmup)


WORKLOADS = {
    "calculus-d1": calculus_d1,
    "smoothness-d1": smoothness_d1,
    "invariance-d1": invariance_d1,
    "lattice-d2": lattice_d2,
}


def build(name, seed, quick=False):
    return WORKLOADS[name](seed, quick)
