"""Layer sweep: median time and tracemalloc peak of single public calls.

    python3 perfbench/sweep.py

Times each public layer call on one corpus matrix at d = 1, W in
{32, 64, 128, 256}, and at small d = 2 windows, one BLAS thread.  The
median is over ``REPEATS`` calls on corpus seed ``SEED``; the peak is the
tracemalloc peak of one more call (numpy reports its buffers to
tracemalloc), so it counts the temporaries a call allocates, not the
process's resident set.  Prints a
markdown table and writes the rows to ``perfbench/results/sweep.json``.
The generic Schur-base modulus is swept only up to W = 64 and d = 2
reiteration only up to W = 2, where it already needs about 0.7 GB; W = 3
would need about 1.5 GB.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from oddkit import approx as A  # noqa: E402
from oddkit import bessel as B  # noqa: E402
from oddkit import lab  # noqa: E402
from oddkit import lattice as L  # noqa: E402
from oddkit import norms as N  # noqa: E402
from oddkit import smoothness as S  # noqa: E402

J0 = "jaffard:r=0"
REPEATS = 3
SEED = 1


def layer_calls(a, b, dim, window):
    """(layer, call) pairs for one matrix; b is a second matrix of the same shape."""
    dense = a.to_dense()
    shifted = lab.make_invertible(a)
    t = (0.1234,) * dim
    calls = [
        ("lattice.to_dense", lambda: a.to_dense()),
        ("lattice.from_dense", lambda: L.LatticeMatrix.from_dense(dense, dim, window)),
        ("lattice.multiply", lambda: L.multiply(a, b)),
        ("lattice.envelope", lambda: a.envelope()),
        ("lattice.modulate", lambda: L.modulate(a, t)),
        ("lattice.difference", lambda: L.difference(a, t)),
        ("norms.jaffard", lambda: N.matrix_norm(a, "jaffard:r=2")),
        ("norms.schur p=1", lambda: N.matrix_norm(a, "schur:p=1,r=0")),
        ("norms.cpr p=2", lambda: N.matrix_norm(a, "cpr:p=2,r=1.5")),
        ("norms.cpr literal p=1", lambda: N.matrix_norm(a, "cpr:p=1,r=0,literal=true")),
        ("norms.op (dense SVD)", lambda: N.op_norm_l2(a)),
        ("smoothness.modulus jaffard", lambda: S.modulus(a, J0, 0.25)),
        ("smoothness.besov modulus jaffard", lambda: S.besov_norm_modulus(a, J0, 0.5)),
        ("smoothness.besov solidlp jaffard", lambda: S.besov_norm_solid_lp(a, J0, 0.5)),
        ("smoothness.besov philp jaffard", lambda: S.besov_norm_phi_lp(a, J0, 0.5)),
        ("approx.approx_errors jaffard", lambda: A.approx_errors(a, J0)),
        ("bessel.multipliers r=0.5", lambda: B.HypersingularQuadrature(0.5, dim).multipliers(a.offset_array())),
        ("bessel.embedding_check", lambda: B.embedding_check(a, 0.5, J0, quad=B.HypersingularQuadrature(0.5, dim))),
        ("lab.make_invertible", lambda: lab.make_invertible(a)),
        ("lab.invert_finite_section", lambda: lab.invert_finite_section(shifted)),
    ]
    if window >= 16:
        calls.append(("lab.decay_profile", lambda: lab.decay_profile(a)))
    if dim == 1 or window <= 2:
        calls.append(("smoothness.reiteration jaffard", lambda: S.reiteration_ratio(a, J0, 0.5, 0.5)))
    if dim == 1 and window <= 64:
        calls.append(("smoothness.besov modulus schur (generic)",
                      lambda: S.besov_norm_modulus(a, "schur:p=1,r=0", 0.5)))
    return calls


def measure(call):
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    tracemalloc.start()
    call()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return statistics.median(times), peak / 2**20


def main():
    sizes = [(1, w) for w in (32, 64, 128, 256)] + [(2, w) for w in (2, 4, 6)]
    rows = {}
    for dim, window in sizes:
        a, b = lab.corpus(SEED, window, count=2, dim=dim)
        gen = lambda: lab.generate(lab.DecayModel("phase", 2.5, seed=SEED), window, dim=dim)  # noqa: E731
        for layer, call in [("lab.generate", gen)] + layer_calls(a, b, dim, window):
            rows.setdefault(layer, {})[f"d={dim} W={window}"] = measure(call)
            print(f"# {layer} d={dim} W={window}: {rows[layer][f'd={dim} W={window}']}", file=sys.stderr)
    cols = [f"d={d} W={w}" for d, w in sizes]
    print("| layer call | " + " | ".join(cols) + " |")
    print("|---|" + "---|" * len(cols))
    for layer, cells in rows.items():
        txt = [
            f"{1000 * cells[c][0]:.3g} ms / {cells[c][1]:.3g} MB" if c in cells else "-"
            for c in cols
        ]
        print(f"| {layer} | " + " | ".join(txt) + " |")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump({k: {c: {"median_s": t, "peak_mb": m} for c, (t, m) in v.items()} for k, v in rows.items()}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
