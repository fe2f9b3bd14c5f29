"""Reference values computed apart from oddkit.

Everything here reads a matrix only through ``LatticeMatrix.diagonals()``
(or builds it straight from a decay model) and works on dense arrays or on
the closed forms of the theory, with its own index arithmetic.  None of it
calls an oddkit norm, evaluator or conversion, so agreement with the
library is a cross-check, not the same code run twice.
"""

from __future__ import annotations

import math

import numpy as np

# scipy is imported inside the functions that need it, so that its import
# time is paid by the first check and not by the benchmark's set-up


def rel_err(value, ref):
    return abs(value - ref) / max(abs(ref), 1e-300)


# -- dense layout ----------------------------------------------------------------


def dense(matrix):
    """Dense window matrix from the stored diagonals.

    Entry A(k, k - m) lands at row k + W, column k - m + W; for d = 2 the
    lattice points are flattened in C order.
    """
    w, dim = matrix.window, matrix.dim
    side = 2 * w + 1
    out = np.zeros((side,) * (2 * dim), dtype=np.complex128)
    for off, arr in matrix.diagonals():
        rows = [np.arange(-w + max(0, m), w + min(0, m) + 1) + w for m in off]
        if dim == 1:
            out[rows[0], rows[0] - off[0]] = arr
        else:
            r1, r2 = np.meshgrid(rows[0], rows[1], indexing="ij")
            out[r1, r2, r1 - off[0], r2 - off[1]] = arr
    n = side**dim
    return out.reshape(n, n)


def offsets(dim, window):
    """(n, n, dim) array of row-minus-column lattice offsets."""
    idx = np.arange(-window, window + 1)
    if dim == 1:
        pts = idx[:, None]
    else:
        pts = np.stack(np.meshgrid(idx, idx, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts[:, None, :] - pts[None, :, :]


def envelope(a, diff):
    """{offset tuple: sup |entries|} over the nonzero diagonals of dense a."""
    dim = diff.shape[-1]
    span = int(np.abs(diff).max())
    width = 2 * span + 1
    keys = np.zeros(diff.shape[:2], dtype=np.int64)
    for axis in range(dim):
        keys = keys * width + (diff[..., axis] + span)
    best = np.zeros(width**dim)
    np.maximum.at(best, keys.ravel(), np.abs(a).ravel())
    env = {}
    for key in np.flatnonzero(best):
        off, rest = [], int(key)
        for _ in range(dim):
            rest, v = divmod(rest, width)
            off.append(v - span)
        env[tuple(reversed(off))] = float(best[key])
    return env


def env_arrays(env):
    offs = np.array(sorted(env), dtype=float)
    return offs, np.array([env[tuple(int(x) for x in o)] for o in offs])


# -- solid norms -------------------------------------------------------------------


def weight(diff, r):
    return (1.0 + np.sqrt((diff.astype(float) ** 2).sum(axis=-1))) ** r


def jaffard(a, diff, r):
    return float((np.abs(a) * weight(diff, r)).max())


def schur(a, diff, p, r):
    w = (np.abs(a) * weight(diff, r)) ** p
    return float(max(w.sum(axis=0).max(), w.sum(axis=1).max()) ** (1.0 / p))


def cpr(env, p, r):
    offs, vals = env_arrays(env)
    w = (1.0 + np.sqrt((offs**2).sum(axis=1))) ** r * vals
    return float(w.max()) if math.isinf(p) else float((w**p).sum() ** (1.0 / p))


def op_norm(a):
    """Largest singular value as the root of the top eigenvalue of the Gram
    matrix A*A, from a dense symmetric eigensolver (real arithmetic when the
    entries are real, which is four times cheaper than a complex SVD)."""
    from scipy import linalg

    if not np.iscomplexobj(a) or not a.imag.any():
        a = np.ascontiguousarray(a.real)
    gram = a.conj().T @ a
    n = gram.shape[0]
    top = linalg.eigh(gram, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0]
    return float(math.sqrt(top))


def blocks(diff):
    """Dyadic block index per entry: -1 on the main diagonal, k when
    floor(2^k) <= |m|_inf < 2^(k+1)."""
    sup = np.abs(diff).max(axis=-1)
    out = np.full(sup.shape, -1)
    pos = sup > 0
    out[pos] = np.floor(np.log2(sup[pos])).astype(int)
    return out


def solid_lp(a, diff, norm, r, p):
    """Block smoothness norm: l^p over k of 2^(kr) norm(block k of a)."""
    idx = blocks(diff)
    terms = [
        2.0 ** (k * r) * norm(np.where(idx == k, a, 0.0))
        for k in range(-1, int(idx.max()) + 1)
        if (idx == k).any() and np.abs(a[idx == k]).max() > 0
    ]
    terms = np.array(terms)
    return float(terms.max()) if math.isinf(p) else float((terms**p).sum() ** (1.0 / p))


def approx_errors_sup(a, diff):
    """E_n for the plain sup norm: largest |entry| with |m|_inf >= n."""
    sup = np.abs(diff).max(axis=-1)
    mags = np.abs(a)
    return np.array([mags[sup >= n].max(initial=0.0) for n in range(int(sup.max()) + 1)])


# -- modulation grids and moduli -----------------------------------------------------


def grid(h, dim, points):
    """The uniform grid ``points`` per axis over [-h, h], cut to |t|_2 <= h."""
    axis = np.linspace(-h, h, points)
    if dim == 1:
        return axis[:, None]
    t = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    return t[(t**2).sum(axis=1) <= h * h * (1.0 + 1e-12)]


def diff_factor(offs, t, order):
    return (2.0 * np.abs(np.sin(np.pi * (t @ offs.T)))) ** order


def exact_sup_modulus(env, h, order):
    """Closed form of the sup-base modulus over the whole disc |t|_2 <= h:
    max_m env(m) (2 sin(pi min(|m|_2 h, 1/2)))^k."""
    offs, vals = env_arrays(env)
    arg = np.minimum(np.sqrt((offs**2).sum(axis=1)) * h, 0.5)
    return float((vals * (2.0 * np.sin(np.pi * arg)) ** order).max())


def besov_modulus(a, diff, norm, r, p, order, points, levels):
    """base + l^p over levels l of 2^(rl) max over the grid of norm(D^k_t a)."""
    dim = diff.shape[-1]
    vals = []
    for l in levels:
        best = 0.0
        for t in grid(2.0**-l, dim, points):
            phase = 2.0 * np.pi * (diff @ t)
            best = max(best, norm((np.exp(1j * phase) - 1.0) ** order * a))
        vals.append(2.0 ** (r * l) * best)
    vals = np.array(vals)
    agg = vals.max() if math.isinf(p) else (vals**p).sum() ** (1.0 / p)
    return float(norm(a) + agg)


def besov_modulus_sup(env, r, p, order, points, levels):
    """besov_modulus for the plain sup base, from the envelope alone: the
    sup of |e^{2 pi i m.t} - 1|^k A over entries is max_m env(m) |2 sin(pi m.t)|^k."""
    offs, vals = env_arrays(env)
    dim = offs.shape[1]
    terms = np.array(
        [
            2.0 ** (r * l) * float((vals * diff_factor(offs, grid(2.0**-l, dim, points), order)).max())
            for l in levels
        ]
    )
    agg = terms.max() if math.isinf(p) else (terms**p).sum() ** (1.0 / p)
    return float(vals.max() + agg)


def phi_lp(a, diff, norm, r, p):
    """Smooth-partition block norm from the partition's definition: bump
    b(s) = exp(-1/(1-s^2)) on |s| < 1 in s = log2 |m|_inf, normalised by
    its three neighbouring dyadic translates; band k at 2^-k |m|_inf and a
    low-pass (weight 2^-r) that completes the sum to one."""

    def bump(s):
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
        return out

    def profile(x):
        out = np.zeros_like(x)
        pos = x > 0
        s = np.log2(x[pos])
        j0 = np.floor(s)
        den = sum(bump(s - (j0 + dj)) for dj in (-1.0, 0.0, 1.0))
        out[pos] = bump(s) / den
        return out

    sup = np.abs(diff).max(axis=-1).astype(float)
    stored = np.abs(a) > 0
    k_top = int(math.ceil(math.log2(max(int(sup[stored].max()), 1)))) + 1
    bands = [profile(sup * 2.0**-k) for k in range(0, k_top + 1)]
    low = 1.0 - sum(bands)
    low[sup == 0] = 1.0
    weighted = [(2.0**-r, low)] + [(2.0 ** (k * r), band) for k, band in enumerate(bands)]
    terms = np.array([w * norm(a * band) for w, band in weighted if (band[stored] != 0).any()])
    return float(terms.max()) if math.isinf(p) else float((terms**p).sum() ** (1.0 / p))


def default_points(dim):
    return 64 if dim == 1 else 32


def default_levels(window):
    return range(0, int(math.ceil(math.log2(2 * window))) + 3)


def sup_gain(offs, r, order, points, levels):
    """G(m) = max_l 2^(rl) max_t |2 sin(pi m.t)|^k, so that for a sup-type
    base at p = inf the modulus sum of x is max_m x(m) G(m)."""
    dim = offs.shape[1]
    gain = np.zeros(offs.shape[0])
    for l in levels:
        fac = diff_factor(offs, grid(2.0**-l, dim, points), order).max(axis=0)
        gain = np.maximum(gain, 2.0 ** (r * l) * fac)
    return gain


def reiteration_ratio_sup(env, window, r, s, points=None):
    """Iterated over direct smoothness norm for the plain sup base at p = inf.

    With N_r(x) = max x + max(x G_r), the iterated norm is
    N_r(env) + max_l' 2^(s l') max_t' N_r(env |2 sin(pi m.t')|^k'); no
    (T, T, M) intermediate is needed because every stage is a maximum.
    """
    offs, vals = env_arrays(env)
    dim = offs.shape[1]
    points = points or default_points(dim)
    levels = default_levels(window)
    k_in, k_out, k_dir = (int(math.floor(x)) + 1 for x in (r, s, r + s))
    g_in = sup_gain(offs, r, k_in, points, levels)

    def inner(x):  # rows of x are envelopes
        return x.max(axis=-1) + (x * g_in).max(axis=-1)

    outer = 0.0
    for l in levels:
        fac = diff_factor(offs, grid(2.0**-l, dim, points), k_out)
        outer = max(outer, 2.0 ** (s * l) * float(inner(vals * fac).max()))
    iterated = float(inner(vals)) + outer
    direct = vals.max() + (vals * sup_gain(offs, r + s, k_dir, points, levels)).max()
    return iterated / direct


# -- potential weights -------------------------------------------------------------------


def bessel_factor(offs, r):
    return (1.0 + (2.0 * np.pi) ** 2 * (offs.astype(float) ** 2).sum(axis=-1)) ** (r / 2.0)


_MU_CACHE = {}


def hypersingular_mu_1d(freq, r, levels=12):
    """mu_eps(m) = 2 int_eps^1 (cos(2 pi m t) - 1) t^(-1-r) dt for d = 1 on
    eps = 2^-1 .. 2^-levels, by adaptive QUADPACK with a cosine weight."""
    from scipy import integrate

    key = (freq, r, levels)
    if key not in _MU_CACHE:
        edges = [1.0] + [2.0**-j for j in range(1, levels + 1)]
        acc, row = 0.0, []
        for hi, lo in zip(edges[:-1], edges[1:]):
            cos_part, _ = integrate.quad(
                lambda t: t ** (-1.0 - r), lo, hi, weight="cos", wvar=2 * np.pi * freq,
                limit=200,
            )
            plain = (lo**-r - hi**-r) / r
            acc += 2.0 * (cos_part - plain)
            row.append(acc)
        _MU_CACHE[key] = np.array(row)
    return _MU_CACHE[key]


def hypersingular_sup(env, r):
    """base + sup over eps of the sup norm of mu_eps . A, d = 1, sup base."""
    offs, vals = env_arrays(env)
    best = 0.0
    for m, v in zip(offs[:, 0], vals):
        if m != 0:
            best = max(best, v * float(np.abs(hypersingular_mu_1d(abs(m), r)).max()))
    return float(vals.max() + best)


# -- decay models ---------------------------------------------------------------------------


def det_dense_1d(exponent, window):
    """Dense d = 1 'det' model: every entry equals (1 + |k - l|)^-r."""
    idx = np.arange(-window, window + 1)
    return (1.0 + np.abs(idx[:, None] - idx[None, :]).astype(float)) ** (-exponent)
