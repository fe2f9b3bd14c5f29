"""Command-line front end.

Exit codes: 0 success, 1 verification-property failure, 2 configuration or
parse error, 3 numerical non-convergence.  A ``key = value`` config file can
preload any subcommand flag; explicit flags win, and a repeatable flag
(``--spec``, ``--suite``, ``--norm``) given on the command line replaces the
config's value instead of adding to it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import approx as _approx
from . import bessel as _bessel
from . import lab as _lab
from . import lattice as _lattice
from . import norms as _norms
from . import smoothness as _smoothness
from . import verify as _verify

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="oddkit",
        description="Off-diagonal-decay matrix norms, smoothness scales, and "
        "finite-section inversion experiments.",
    )
    subs = parser.add_subparsers(dest="command", metavar="command")
    registry = {}

    def sub(name, help_text):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key = value defaults file")
        registry[name] = p
        return p

    p = sub("gen", "generate a decay-model matrix and write it as JSON")
    p.add_argument("--model", default="det", help="det | phase | mag (long aliases accepted)")
    p.add_argument("--r", type=float, default=2.0, help="envelope decay exponent")
    p.add_argument("--amp", type=float, default=1.0, help="envelope amplitude")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--W", type=int, default=64, help="window half-width")
    p.add_argument("--dim", type=int, default=1, choices=(1, 2))
    p.add_argument("--band", type=int, default=None, help="max |offset|_inf kept (default W)")
    p.add_argument("--out", "-o", default=None, help="output path (default derived from parameters)")

    p = sub("norm", "evaluate norm specs against a matrix file")
    p.add_argument("--in", dest="path", default=None, help="matrix JSON (or CSV for d=1)")
    p.add_argument("--spec", action="append", default=None, help="norm or besov spec string (repeatable)")

    p = sub("besov", "evaluate one smoothness norm with all three evaluators")
    p.add_argument("--in", dest="path", default=None)
    p.add_argument("--base", default="jaffard:r=0")
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--p", default="inf")
    p.add_argument("--order", type=int, default=None, help="difference order (default floor(r)+1)")
    p.add_argument("--grid", type=int, default=None, help="modulus grid points per axis")

    p = sub("approx", "band-truncation errors and approximation-space norms")
    p.add_argument("--in", dest="path", default=None)
    p.add_argument("--base", default="jaffard:r=0")
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--p", default="inf")
    p.add_argument("--form", default="sum", choices=("sum", "dyadic"))
    p.add_argument("--errors", action="store_true", help="also print per-n error rows as CSV")
    p.add_argument("--n-max", type=int, default=None)

    p = sub("bessel", "potential-weight norms and the hypersingular cross-check")
    p.add_argument("--in", dest="path", default=None)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--base", default="jaffard:r=0")
    p.add_argument("--hyp", action="store_true", help="also run the hypersingular evaluator")
    p.add_argument("--dump-multipliers", default=None, help="write the multiplier table CSV here")

    p = sub("profile", "fit the off-diagonal decay exponent of a matrix file")
    p.add_argument("--in", dest="path", default=None)
    p.add_argument("--plot", default=None, help="write (distance, envelope) CSV here")

    p = sub("verify", "run empirical property suites over a seeded corpus")
    p.add_argument("--suite", action="append", default=None, help="suite name (repeatable; default all)")
    p.add_argument("--seed", type=int, default=20260814)
    p.add_argument("--W", type=int, default=32)
    p.add_argument("--n", type=int, default=24, help="corpus size")
    p.add_argument("--dim", type=int, default=1, choices=(1, 2))
    p.add_argument("--json", dest="json_out", default=None, help="write machine-readable results here")
    p.add_argument("--list", action="store_true", help="list suite names and exit")

    p = sub("report", "finite-section spectral-invariance experiment")
    p.add_argument("--model", default="det")
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--amp", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=2.0)
    p.add_argument("--W", default="64,128,256", help="comma-separated window list")
    p.add_argument("--dim", type=int, default=1, choices=(1, 2))
    p.add_argument("--norm", action="append", default=None, help="norm spec column (repeatable)")
    p.add_argument("--out", "-o", default=".", help="output directory")
    p.add_argument("--format", default="json", choices=("json", "csv"), help="what to echo on stdout")

    return parser, registry


def _read_config(path):
    pairs, lines = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, raw = text.partition("=")
            key = key.strip().replace("-", "_")
            if key in pairs:
                raise ValueError(f"{path}:{lineno}: config key {key!r} repeats line {lines[key]}")
            pairs[key], lines[key] = raw.strip(), lineno
    return pairs


def _convert(action, raw):
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        try:
            return _norms._read_bool(raw)
        except ValueError as exc:
            raise ValueError(f"config key {action.dest!r}: {exc}") from None
    value = action.type(raw) if action.type is not None else raw
    if isinstance(action, argparse._AppendAction):
        return [value]
    return value


def _apply_config(subparser, pairs, explicit):
    """Config values become the subcommand's defaults, except for repeatable
    flags given on the command line (``explicit``, parsed without the
    config), which argparse would otherwise append to the config list."""
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, raw in pairs.items():
        if key not in actions:
            raise ValueError(f"unknown config key {key!r}")
        value = _convert(actions[key], raw)
        if not (isinstance(actions[key], argparse._AppendAction) and getattr(explicit, key)):
            defaults[key] = value
    subparser.set_defaults(**defaults)


def _load_matrix(path):
    if path is None:
        raise ValueError("--in is required")
    if path.endswith(".csv"):
        return _lattice.load_csv(path)
    return _lattice.load_json(path)


def _fmt(value):
    return f"{value:.12g}"


# -- subcommand bodies ---------------------------------------------------------


def _cmd_gen(args):
    model = _lab.DecayModel(args.model, args.r, amplitude=args.amp, seed=args.seed)
    band = args.W if args.band is None else args.band
    matrix = _lab.generate(model, args.W, dim=args.dim, band=band)
    out = args.out or f"{model.kind}-r{args.r:g}-W{args.W}.json"
    _lattice.save_json(matrix, out)
    print(
        f"model={model.kind} exponent={args.r:g} amplitude={args.amp:g} "
        f"seed={args.seed} dim={args.dim} window={args.W} band={band} "
        f"diagonals={len(matrix.offsets())}"
    )
    print(f"wrote {out}")
    return 0


def _cmd_norm(args):
    if not args.spec:
        raise ValueError("at least one --spec is required")
    matrix = _load_matrix(args.path)
    for text in args.spec:
        value = _smoothness.evaluate(matrix, text)
        print(f"{text} = {_fmt(value)}")
    return 0


def _cmd_besov(args):
    matrix = _load_matrix(args.path)
    p = float(args.p)
    kwargs = {"order": args.order, "grid": args.grid}
    values = {
        "modulus": _smoothness.besov_norm_modulus(matrix, args.base, args.r, p, **kwargs),
        "solidlp": _smoothness.besov_norm_solid_lp(matrix, args.base, args.r, p),
        "philp": _smoothness.besov_norm_phi_lp(matrix, args.base, args.r, p),
    }
    for name, value in values.items():
        print(f"{name} = {_fmt(value)}")
    finite = [v for v in values.values() if v > 0]
    if len(finite) == len(values):
        print(f"spread = {_fmt(max(finite) / min(finite))}")
    return 0


def _cmd_approx(args):
    matrix = _load_matrix(args.path)
    p = float(args.p)
    value = _approx.approx_space_norm(matrix, args.base, args.r, p, form=args.form)
    errors = _approx.approx_errors(matrix, args.base, n_max=args.n_max) if args.errors else None
    print(f"approx[{args.form},r={args.r:g},p={args.p}] = {_fmt(value)}")
    if errors is not None:
        print("window,base,n,error")
        for n, err in enumerate(errors):
            print(f"{matrix.window},{args.base},{n},{_fmt(err)}")
    return 0


def _cmd_bessel(args):
    matrix = _load_matrix(args.path)
    value = _bessel.bessel_norm(matrix, args.r, args.base)
    print(f"bessel[r={args.r:g},base={args.base}] = {_fmt(value)}")
    quad = None
    if args.hyp or args.dump_multipliers:
        quad = _bessel.HypersingularQuadrature(args.r, matrix.dim)
    if args.hyp:
        hyp = _bessel.hypersingular_norm(matrix, args.r, args.base, quad=quad)
        print(f"hypersingular = {_fmt(hyp)}")
        if value > 0:
            print(f"ratio = {_fmt(hyp / value)}")
    if args.dump_multipliers:
        offs = matrix.offset_array()
        _bessel.write_multiplier_csv(quad, offs, args.dump_multipliers)
        print(f"wrote {args.dump_multipliers}")
    return 0


def _cmd_profile(args):
    matrix = _load_matrix(args.path)
    prof = _lab.decay_profile(matrix)
    print(f"exponent = {_fmt(prof.exponent)}")
    print(f"intercept = {_fmt(prof.intercept)}")
    print(f"residual = {_fmt(prof.residual)}")
    print(f"points = {prof.n_fit}")
    print(f"exponent_inner = {_fmt(prof.exponent_inner)}")
    print(f"exponent_outer = {_fmt(prof.exponent_outer)}")
    print(f"superpolynomial = {str(prof.superpolynomial).lower()}")
    if args.plot:
        _write_profile_csv(prof, args.plot)
        print(f"wrote {args.plot}")
    return 0


def _write_profile_csv(prof, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("distance", "envelope"))
        for d, v in zip(prof.distances, prof.envelope):
            writer.writerow((f"{d:.12g}", f"{v:.12g}"))


def _cmd_verify(args):
    if args.list:
        for name in _verify.all_suites():
            print(name)
        return 0
    if args.n < 1:
        raise ValueError("corpus size must be at least 1")
    results, ok = _verify.run_suites(
        args.suite, seed=args.seed, window=args.W, count=args.n, dim=args.dim
    )
    for res in results:
        stats = " ".join(f"{k}={v:.6g}" for k, v in res.stats.items() if isinstance(v, float))
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name} {stats}".rstrip())
    if args.json_out:
        payload = {
            "seed": args.seed,
            "window": args.W,
            "count": args.n,
            "dim": args.dim,
            "suites": [r.to_dict() for r in results],
            "passed": ok,
        }
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json_out}")
    return 0 if ok else 1


def _cmd_report(args):
    windows = tuple(int(w.strip()) for w in str(args.W).split(",") if w.strip())
    if not windows:
        raise ValueError("--W must list at least one window")
    model = _lab.DecayModel(args.model, args.r, amplitude=args.amp, seed=args.seed)
    report = _lab.spectral_invariance_report(
        model,
        windows,
        norms=args.norm,
        margin=args.margin,
        dim=args.dim,
    )
    os.makedirs(args.out, exist_ok=True)
    payload = report.to_dict()
    payload["config"] = {
        "model": model.kind,
        "r": args.r,
        "amp": args.amp,
        "seed": args.seed,
        "margin": args.margin,
        "windows": list(windows),
        "dim": args.dim,
        "norms": list(report.norm_specs),
    }
    json_path = os.path.join(args.out, "report.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    rows = _lab.report_csv_rows(report)
    csv_path = os.path.join(args.out, "report.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    written = [json_path, csv_path]
    for cell in report.cells:
        for tag, prof in (("forward", cell.profile_forward), ("inverse", cell.profile_inverse)):
            path = os.path.join(args.out, f"profile-W{cell.window}-{tag}.csv")
            _write_profile_csv(prof, path)
            written.append(path)
    if args.format == "csv":
        for row in rows:
            print(",".join(str(x) for x in row))
    else:
        print(json.dumps(payload, indent=2))
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "norm": _cmd_norm,
    "besov": _cmd_besov,
    "approx": _cmd_approx,
    "bessel": _cmd_bessel,
    "profile": _cmd_profile,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 2
        if getattr(args, "config", None):
            _apply_config(registry[args.command], _read_config(args.config), args)
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_bessel.QuadratureError, _lab.SingularSectionError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
