"""Span tracing of the oddkit layers from outside the library.

``Tracer.install()`` replaces every public function of the oddkit modules
(every name without a leading underscore, whether or not ``__all__`` lists
it, and the public methods of their public classes) with a wrapper that records
a span: name, start, end and the index of the enclosing span.  Each wrapper
is written into every module namespace that holds the original object, so
calls made between modules (``lab`` calling ``norms.op_norm_l2`` through its
own import, ``multiply`` calling ``to_dense``) are caught as well as calls
made by the benchmark.  A few private hooks add counters that the public
boundary cannot see: the ARPACK matvec, the quadrature row and the dense
LAPACK calls made under ``lab``.  Nothing is written to disk here; the
harness turns the in-memory spans into per-layer figures when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict

MODULES = ("lattice", "norms", "smoothness", "approx", "bessel", "lab", "cli", "verify")

# Per-layer metric -> span names whose self time it sums.
SELF_TIME_GROUPS = {
    "lattice.to_dense.self_s": ("lattice.to_dense",),
    "lattice.from_dense.self_s": ("lattice.from_dense",),
    "lattice.multiply.self_s": ("lattice.multiply",),
    "lattice.scale_diagonals.self_s": ("lattice.scale_diagonals",),
    "lattice.envelope.self_s": ("lattice.envelope",),
    "norms.solid.self_s": (
        "norms.matrix_norm",
        "norms.jaffard_norm",
        "norms.schur_norm",
        "norms.cpr_norm",
        "norms.weighted_norm",
    ),
    "norms.op_dense.self_s": ("norms.op_dense",),
    "norms.op_arpack.self_s": ("norms.op_arpack",),
    "smoothness.modulus.self_s": ("smoothness.modulus",),
    "smoothness.besov_modulus.self_s": ("smoothness.besov_norm_modulus",),
    "smoothness.besov_solidlp.self_s": ("smoothness.besov_norm_solid_lp",),
    "smoothness.besov_philp.self_s": ("smoothness.besov_norm_phi_lp",),
    "smoothness.reiteration.self_s": ("smoothness.reiteration_ratio",),
    "approx.approx_errors.self_s": ("approx.approx_errors",),
    "approx.approx_space_norm.self_s": ("approx.approx_space_norm",),
    "bessel.multipliers.self_s": ("bessel.multipliers",),
    "bessel.embedding_check.self_s": ("bessel.embedding_check",),
    "lab.generate.self_s": ("lab.generate",),
    "lab.make_invertible.self_s": ("lab.make_invertible",),
    "lab.invert_finite_section.self_s": ("lab.invert_finite_section",),
    "lab.decay_profile.self_s": ("lab.decay_profile",),
    "cli.report.self_s": ("cli.main",),
    "verify.self_s": ("verify.*",),
}

# Per-layer metric -> tracer counter.
COUNT_METRICS = {
    "lattice.dense_calls": "dense_calls",
    "lattice.dense_bytes": "dense_bytes",
    "lattice.envelope.calls": "calls:lattice.envelope",
    "norms.op_dense.calls": "calls:norms.op_dense",
    "norms.op_arpack.matvecs": "arpack_matvecs",
    "norms.op_power_fallbacks": "power_fallbacks",
    "smoothness.grid_points": "grid_points",
    "bessel.mu_rows": "mu_rows",
    "lab.dense_factorizations": "lab_dense_factorizations",
}

PEAK_METRICS = {"smoothness.reiteration.peak_mb": "reiteration_peak_mb"}


class Tracer:
    """In-memory span and counter collector; install/uninstall patch oddkit."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.counts = Counter()
        self.peaks = defaultdict(float)
        self._stack = []
        self._lab_depth = 0
        self._patches = []  # (owner, attribute, original)

    # -- span recording --------------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        if name.startswith("lab."):
            self._lab_depth += 1
        return idx

    def _exit(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[0].startswith("lab."):
            self._lab_depth -= 1
        self.counts["calls:" + span[0]] += 1

    def _wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(idx, fn, args, kwargs)
            finally:
                tracer._exit(idx)

        return wrapper

    # -- hooks for the counters the public boundary does not show -------------

    def _dense_to(self, idx, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.counts["dense_calls"] += 1
        self.counts["dense_bytes"] += 16 * out.shape[0] ** 2
        return out

    def _dense_from(self, idx, fn, args, kwargs):
        dense = args[1] if len(args) > 1 else kwargs["dense"]  # args[0] is the class
        n = len(dense)
        self.counts["dense_calls"] += 1
        self.counts["dense_bytes"] += 16 * n * n
        return fn(*args, **kwargs)

    def _op_norm(self, idx, fn, args, kwargs):
        before = self.counts["svds_calls"]
        try:
            return fn(*args, **kwargs)
        finally:
            arpack = self.counts["svds_calls"] != before
            self.spans[idx][0] = "norms.op_arpack" if arpack else "norms.op_dense"

    def _t_grid(self, idx, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.counts["grid_points"] += len(out)
        return out

    def _reiteration(self, idx, fn, args, kwargs):
        if tracemalloc.is_tracing():
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            key = "reiteration_peak_mb"
            self.peaks[key] = max(self.peaks[key], peak / 2**20)

    def _counting(self, counter, fn, when=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is None or when(args, kwargs):
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _lab_counting(self, fn, when=None):
        return self._counting(
            "lab_dense_factorizations",
            fn,
            lambda a, k: self._lab_depth > 0 and (when is None or when(a, k)),
        )

    def _svds(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts["svds_calls"] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                # op_norm_l2 falls back to power iteration on any failure
                tracer.counts["power_fallbacks"] += 1
                raise

        return wrapper

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr, value):
        # vars() keeps a class's classmethod/staticmethod wrapper for the restore
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Patch oddkit in place (undo with :meth:`uninstall`); returns self."""
        import numpy as np
        import scipy.sparse.linalg as spla

        import oddkit

        mods = {name: importlib.import_module(f"oddkit.{name}") for name in MODULES}
        namespaces = [oddkit, *mods.values()]
        hooks = {
            "lattice.to_dense": self._dense_to,
            "lattice.from_dense": self._dense_from,
            "norms.op_norm_l2": self._op_norm,
            "smoothness.t_grid": self._t_grid,
            "smoothness.reiteration_ratio": self._reiteration,
        }
        replaced = {}  # id(original) -> wrapper
        for modname, mod in mods.items():
            for public, obj in list(vars(mod).items()):
                if public.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue  # private, or imported from elsewhere
                if inspect.isclass(obj):
                    self._wrap_class(modname, obj, hooks)
                elif inspect.isfunction(obj):
                    name = f"{modname}.{public}"
                    replaced[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(ns, attr, hit[1])

        norms = mods["norms"]
        self._set(norms, "_diag_matvec", self._counting("arpack_matvecs", norms._diag_matvec))
        quad = mods["bessel"].HypersingularQuadrature
        self._set(quad, "_mu_row", self._counting("mu_rows", quad.__dict__["_mu_row"]))
        self._set(spla, "svds", self._svds(spla.svds))
        self._set(np.linalg, "svd", self._lab_counting(np.linalg.svd))
        self._set(np.linalg, "inv", self._lab_counting(np.linalg.inv))
        self._set(
            np.linalg,
            "norm",
            self._lab_counting(
                np.linalg.norm,
                lambda a, k: (a[1] if len(a) > 1 else k.get("ord")) == 2,
            ),
        )
        return self

    def _wrap_class(self, modname, cls, hooks):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue  # properties, dataclass fields, constants
            if inspect.isgeneratorfunction(fn):
                continue  # a span would close before the generator runs
            name = f"{modname}.{attr}"
            wrapped = self._wrap(name, fn, hooks.get(name))
            self._set(cls, attr, type(raw)(wrapped) if fn is not raw else wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- figures -------------------------------------------------------------------

    def totals(self):
        """Self time per span name, the counters and the peaks, as one dict."""
        self_time = defaultdict(float)
        child = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[i]
            if end == 0.0:
                continue  # still open
            dur = end - start
            self_time[name] += dur - child[i]
            if parent >= 0:
                child[parent] += dur
        return {
            "self": dict(self_time),
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "spans": len(self.spans),
        }

    def top_level_time(self, first, stop):
        """Seconds covered by spans with no traced parent among spans[first:stop]."""
        return sum(
            end - start
            for _, start, end, parent in self.spans[first:stop]
            if parent < 0 and end
        )


def layer_metrics(setup, run, rounds):
    """Per-layer figures for one set-up plus one round of operations.

    ``setup`` and ``run`` are :meth:`Tracer.totals` snapshots taken at the end
    of set-up and at the end of the run; work done while measuring is divided
    by the number of rounds, so the figures do not depend on run length.
    """

    def per_unit(section, key):
        first = setup[section].get(key, 0.0)
        return first + (run[section].get(key, 0.0) - first) / rounds

    out = {}
    for metric, names in SELF_TIME_GROUPS.items():
        value = 0.0
        for name in names:
            keys = (
                [k for k in run["self"] if k.startswith(name[:-1])]
                if name.endswith("*")
                else [name]
            )
            value += sum(per_unit("self", k) for k in keys)
        out[metric] = (value, "s")
    for metric, key in COUNT_METRICS.items():
        unit = "B" if metric.endswith("bytes") else "count"
        out[metric] = (per_unit("counts", key), unit)
    for metric, key in PEAK_METRICS.items():
        out[metric] = (run["peaks"].get(key, 0.0), "MB")
    return out
