"""oddkit benchmark: one workload, timed from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The process imports oddkit from ``src/`` of the checkout it lives in, sets
up the workload (corpus, warm-up) and then runs whole rounds of the
workload's operations until ``--seconds`` have passed.  Every operation's
output is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` the library is wrapped by :mod:`tracing` and the metrics are the
per-layer figures for one set-up plus one round.  A JSON record of the run
(environment, samples, failures, spans) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 4  # extra fresh processes that only set up, for the setup_s median
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="reduced input sizes (self-test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _prepare_imports():
    # one BLAS thread: steady timings on a shared box, and never more than nproc
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "oddkit", "__init__.py")):
        raise SystemExit(f"run.py: no oddkit sources under {src}")
    sys.path[:0] = [src, HERE]


def _environment():
    import numpy as np
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def _setup(args):
    """Import oddkit, build the workload and warm it up."""
    import workloads

    wl = workloads.build(args.workload, args.seed, quick=args.quick)
    wl.warmup()
    return wl


def _probe_setups(argv):
    """Set-up times of fresh processes that stop after set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), *argv, "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _measure(wl, seconds, tracer=None):
    """Whole rounds of the workload's operations until ``seconds`` have passed.

    A round runs every operation first and checks their outputs after, so
    that ``peak_rss_mb``, read after the first round's operations, holds the
    library's memory and none of the oracles the checks build.  An operation
    that raises is timed up to the raise and fails like a wrong output."""
    start = time.perf_counter()
    first_round_rss = None
    latencies, rounds, failures = [], [], []
    attempted = failed = 0
    correct = True
    covered = 0.0
    while True:
        round_time = 0.0
        outputs = []
        for op in wl.ops:
            attempted += 1
            first = len(tracer.spans) if tracer else 0
            t = time.perf_counter()
            try:
                outputs.append((op, op.run(), None))
            except Exception as exc:  # a raising operation is counted, not fatal
                outputs.append((op, None, exc))
            dt = time.perf_counter() - t
            if tracer:
                covered += tracer.top_level_time(first, len(tracer.spans))
            latencies.append(dt)
            round_time += dt
        rounds.append(round_time)
        if first_round_rss is None:
            # later rounds repeat the same work; only allocator drift would add
            first_round_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for op, result, exc in outputs:
            if exc is not None:
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                try:
                    problems = op.check(result)
                except Exception as exc:  # output the check cannot read is wrong output
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                failures.append(f"{op.name}: " + "; ".join(problems))
                correct = correct and op.known_fault
        if time.perf_counter() - start >= seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "latencies": latencies,
        "rounds": rounds,
        "failures": failures,
        "covered": covered,
        "peak_rss_mb": first_round_rss,
    }


def _record(args, payload, spans=None):
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-quick" if args.quick else "")
    with open(os.path.join(RESULTS, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
    if spans is not None:
        with open(os.path.join(RESULTS, stem + ".spans.jsonl"), "w", encoding="utf-8") as fh:
            for name, start, end, parent in spans:
                fh.write(f'["{name}",{start!r},{end!r},{parent}]\n')


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    _prepare_imports()
    probes = [] if (args.setup_only or args.trace) else _probe_setups(argv)

    start = time.perf_counter()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer().install()
    wl = _setup(args)
    setup_s = time.perf_counter() - start
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_totals = tracer.totals() if tracer else None
        run = _measure(wl, args.seconds, tracer)
    finally:
        if wl.cleanup:
            wl.cleanup()
    n_rounds = len(run["rounds"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "environment": _environment(),
        "rounds": n_rounds,
        "ops_per_round": len(wl.ops),
        "latencies_s": run["latencies"],
        "round_s": run["rounds"],
        "failures": run["failures"],
    }
    if tracer:
        tracer.uninstall()
        totals = tracer.totals()
        layers = tracing.layer_metrics(setup_totals, totals, n_rounds)
        layers["trace.wall_s"] = (statistics.median(run["rounds"]), "s")
        op_time = sum(run["latencies"])
        layers["trace.span_coverage"] = (run["covered"] / op_time if op_time else 0.0, "share")
        layers["trace.spans"] = (totals["spans"] / n_rounds, "count")
        record["span_totals"] = totals
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        setups = sorted(probes + [setup_s])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(run["rounds"]), "unit": "s"},
            "op_p50_ms": {"value": 1000.0 * statistics.median(run["latencies"]), "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        record["setup_samples_s"] = setups
    record["metrics"] = metrics
    _record(args, record, tracer.spans if tracer else None)
    print(
        f"# {args.workload} seed={args.seed}: {n_rounds} rounds x {len(wl.ops)} ops, "
        f"{len(run['latencies'])} latency samples, {run['failed']} failed",
    )
    for line in run["failures"][: len(wl.ops)]:
        print(f"# failed: {line}")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
