"""Off-diagonal decay norms on windowed lattice matrices.

The solid norms here depend only on entry magnitudes and are organized per
side diagonal, which keeps every weight a per-diagonal multiplier:

* ``jaffard_norm``: weighted sup of the diagonal envelope,
* ``schur_norm``: weighted row/column l^p sums,
* ``cpr_norm``: l^p sum over diagonals of the weighted envelope
  (with a ``literal`` variant that sums entry powers inside each diagonal),
* ``weighted_norm``: any solid base norm after a diagonal weight, read as
  the one stack row weight(offsets).

Every solid norm except Schur at p < inf reads one number per diagonal
(the envelope, stored once per matrix, or the l^p norm of the diagonal for
literal cpr), and a per-diagonal multiplier F scales that number by |F_m|;
their one formula ``_stack_norm`` evaluates a whole (K, M) stack of
multipliers at once.  Schur at p < inf mixes the diagonals in its row and
column sums; its one formula is ``_line_sums``, which sums
|A(k, l)|^p (w_m |F_m|)^p along every line for a whole stack at once.
``_stack_values`` is the one multiplier-stack evaluator: it picks the
formula of the base, and given a stack of outer rows g it returns
max_k base(g F_k . A) for every g, which is how the smoothness evaluators
take a modulus grid and reiteration takes its nested grids, for every base
on the same real difference rows; only ``op`` and callables take one scaled
matrix per row.  Every solid family function is its single row F = 1, and
``weighted_norm`` (so ``bessel_norm``) the single row of its weight;
``_require_solid`` is the one refusal of ``op`` as a base.

``op_norm_l2`` is the one non-solid norm (largest singular value on the
window).  Its dense kernel, which also serves the finite-section gates and
condition numbers of ``lab``, takes the singular-value extremes from one
``eigvalsh``: of a real section that equals its transpose, else of the Gram
matrix A*A, whose smallest eigenvalue gives s_min only inside ``GRAM_GATE``
(kappa <= 10); the values-only SVD serves s_min outside it.  Norms are
addressed programmatically through :class:`NormSpec` and a small string
grammar, e.g. ``jaffard:r=2`` or ``w[bessel:r=1]jaffard:r=0``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import lattice
from .lattice import LatticeMatrix

# relative tolerance on sigma^2 of op_norm_l2 past 2048 rows: ARPACK on A*A
# stops at it (svds squares its tol, so it is handed sqrt(OP_TOL)), and so
# does the power-iteration fallback
OP_TOL = 1e-10
GRAM_GATE = 1e-2  # lambda_min / lambda_max of A*A from which s_min = sqrt(lambda_min) (kappa <= 10)
_GRAM_SLAB = 128  # rows of A*A formed per product

__all__ = [
    "NormSpec",
    "ParameterDomainWarning",
    "Weight",
    "bessel_weight",
    "cpr_norm",
    "format_norm_spec",
    "jaffard_norm",
    "matrix_norm",
    "op_norm_l2",
    "parse_norm_spec",
    "polynomial_weight",
    "schur_norm",
    "weighted_norm",
]


class ParameterDomainWarning(UserWarning):
    """Raised (as a warning) when norm parameters leave the algebra range."""


def _polynomial_weight(offsets, r):
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    return (1.0 + np.sqrt((offsets**2).sum(axis=1))) ** r


def polynomial_weight(offsets, r):
    """v_r(m) = (1 + |m|_2)^r on an (M, d) offset array."""
    return _polynomial_weight(offsets, r)


def bessel_weight(offsets, r):
    """v*_r(m) = (1 + |2 pi m|_2^2)^(r/2) on an (M, d) offset array."""
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    return (1.0 + (2.0 * np.pi) ** 2 * (offsets**2).sum(axis=1)) ** (r / 2.0)


@dataclass(frozen=True)
class Weight:
    """Diagonal weight, ``kind`` is "poly" or "bessel"."""

    kind: str
    r: float

    def __post_init__(self):
        if self.kind not in ("poly", "bessel"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not math.isfinite(self.r):
            raise ValueError("weight r must be finite")

    def __call__(self, offsets):
        if self.kind == "poly":
            return _polynomial_weight(offsets, self.r)
        return bessel_weight(offsets, self.r)


@dataclass(frozen=True)
class NormSpec:
    """Description of a matrix norm.

    kind is one of "op", "jaffard", "schur", "cpr"; ``p`` and ``r`` apply to
    the solid kinds, ``weight`` pre-scales the diagonals (solid kinds only)
    and ``literal`` switches ``cpr`` to the per-entry double sum.
    """

    kind: str
    p: float = math.inf
    r: float = 0.0
    weight: Weight | None = None
    literal: bool = False

    def __post_init__(self):
        if self.kind not in ("op", "jaffard", "schur", "cpr"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "op" and self.weight is not None:
            raise ValueError("operator norm is not solid; weights not allowed")
        if not 0 <= self.r < math.inf:
            raise ValueError("r must be finite and >= 0")
        if not (self.p >= 1):
            raise ValueError("p must be in [1, inf]")

    @property
    def is_solid(self):
        return self.kind != "op"


# -- the norms ---------------------------------------------------------------


def _diag_matvec(op, x, conj=False):
    """op @ x, or conj(op) @ x without a conjugated copy of op; every product
    of the ARPACK and power-iteration paths goes through here."""
    if conj:
        return (op @ np.conj(x)).conj()
    return op @ x


def _real_if_exact(dense):
    """``dense`` as float64 when its imaginary part is all zero."""
    if np.iscomplexobj(dense) and not dense.imag.any():
        return np.ascontiguousarray(dense.real)
    return dense


def _gram(dense):
    """A*A of a square section as its lower triangle, the part ``eigvalsh``
    reads (zeros above it), formed in slabs of ``_GRAM_SLAB`` rows: half the
    products of the full matrix, and no conjugated copy of the section."""
    n = dense.shape[1]
    gram = np.zeros((n, n), dtype=dense.dtype)
    for i in range(0, n, _GRAM_SLAB):
        j = min(i + _GRAM_SLAB, n)
        np.matmul(dense[:, i:j].conj().T, dense[:, :j], out=gram[i:j, :j])
    return gram


def _dense_eigenvalues(dense):
    """``(eigenvalues, gram)`` from one ``eigvalsh``, in float64 when the
    imaginary part is all zero: of the section itself when it is real and
    equals its transpose exactly (gram=False, the singular values are
    |eigenvalues|), else of its Gram matrix A*A (gram=True, the singular
    values are their square roots)."""
    dense = _real_if_exact(dense)
    if not np.iscomplexobj(dense) and np.array_equal(dense, dense.T):
        return np.linalg.eigvalsh(dense), False
    return np.linalg.eigvalsh(_gram(dense)), True


def _dense_singular_extremes(dense):
    """(s_max, s_min) of a dense square matrix from
    :func:`_dense_eigenvalues`.  s_max of the Gram route is sqrt(lambda_max);
    s_min is sqrt(lambda_min) when lambda_min >= ``GRAM_GATE`` lambda_max,
    where its relative error, of order eps kappa^2, stays near rounding.  A
    section outside that gate takes s_min from the values-only SVD."""
    dense = _real_if_exact(dense)
    lam, gram = _dense_eigenvalues(dense)
    if not gram:
        svals = np.abs(lam)
        return float(svals.max()), float(svals.min())
    s_max = math.sqrt(lam[-1])
    if lam[0] >= GRAM_GATE * lam[-1]:
        return s_max, math.sqrt(lam[0])
    return s_max, float(np.linalg.svd(dense, compute_uv=False)[-1])


def _product_operator(matrix):
    """The window as the operand of the iterative op-norm products, in the
    section's own arithmetic (float64 when its imaginary part is all zero)
    and storage: the dense matrix when at least half of the entries are
    stored (BLAS gemv), scattered block by block as in
    :meth:`LatticeMatrix.to_dense`, else a COO array on
    :meth:`LatticeMatrix.coordinates` (O(stored entries))."""
    n = matrix.n_rows
    buf = matrix._buf
    dtype = np.complex128 if buf.imag.any() else np.float64
    if 2 * buf.size >= n * n:
        return matrix._dense(dtype)
    from scipy.sparse import coo_array

    rows, cols, vals = matrix.coordinates()
    # a sparse product would copy strided data on every call
    vals = np.ascontiguousarray(vals if dtype == np.complex128 else vals.real)
    return coo_array((vals, (rows, cols)), shape=(n, n))


def op_norm_l2(matrix):
    """Operator norm on l^2 of the window (largest singular value).

    Windows up to 2048 rows take s_max from one ``eigvalsh`` of
    :func:`_dense_eigenvalues`, of the section or of its Gram matrix, and
    never the SVD.  Larger ones run ARPACK (svds, k=1), or
    power iteration on A*A where ARPACK fails, over
    :func:`_product_operator`, built per call and dropped on return.  Both
    stop at the relative tolerance ``OP_TOL`` on sigma^2: svds hands ARPACK
    the square of its tol, so it is given sqrt(OP_TOL).
    A section whose imaginary part is all zero runs real ARPACK and real
    start vectors.  A section with at least rows^2 / 2 stored entries
    multiplies as the dense matrix in its own dtype (at most twice the
    buffer's bytes), any other one as a COO array in O(stored entries)
    memory.
    """
    if matrix.is_zero():
        return 0.0
    n = matrix.n_rows
    if n <= 2048:
        lam, gram = _dense_eigenvalues(matrix.to_dense())
        return math.sqrt(lam[-1]) if gram else float(np.abs(lam).max())
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, svds

    a = _product_operator(matrix)
    a_t = a.T  # A* x = conj(A.T conj(x)); one transposed view, not one per product
    op = LinearOperator(
        (n, n),
        matvec=lambda x: _diag_matvec(a, x),
        rmatvec=lambda x: _diag_matvec(a_t, x, conj=True),
        dtype=a.dtype,
    )
    rng = np.random.default_rng(0x5EED)
    v0 = rng.standard_normal(n)
    try:
        return float(
            svds(op, k=1, tol=math.sqrt(OP_TOL), v0=v0, return_singular_vectors=False)[0]
        )
    except (ArpackNoConvergence, ArpackError):
        # ARPACK cannot restart on (near-)projection spectra; power iteration
        # on A*A with a Rayleigh residual stop handles exactly those
        pass
    best = 0.0
    for _ in range(2):
        v = rng.standard_normal(n)
        if np.iscomplexobj(a):
            v = v + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(10_000):
            w = _diag_matvec(a_t, _diag_matvec(a, v), conj=True)
            lam = float(np.real(np.vdot(v, w)))
            # |lam - lam_true| <= ||B v - lam v|| for Hermitian B = A*A
            if np.linalg.norm(w - lam * v) <= OP_TOL * max(lam, 1e-300):
                break
            s = np.linalg.norm(w)
            if s == 0.0:
                break
            v = w / s
        best = max(best, math.sqrt(max(lam, 0.0)))
    return float(best)


def _diagonal_weights(offsets, r, weight=None):
    """v_r(m), times weight(m) when given, on an (M, d) offset array."""
    w = _polynomial_weight(offsets, r)
    return w if weight is None else w * weight(offsets)


def _one_row(matrix, spec):
    """``matrix_norm(matrix, spec)`` of a solid spec as the stack F = 1."""
    ones = np.ones((1, matrix.offset_array().shape[0]))
    return float(_stack_values(matrix, spec, ones)[0])


def jaffard_norm(matrix, r):
    """sup over diagonals m of (1 + |m|_2)^r * sup_k |A(k, k-m)|."""
    return _one_row(matrix, NormSpec("jaffard", r=r))


def _check_algebra_range(name, p, r, dim):
    # r > d(1 - 1/p) (r >= 0 when p = 1) is where these scale into algebras;
    # outside it the value is still a norm, so only warn
    ok = r >= 0 if p == 1 else r > dim * (1.0 - 1.0 / p)
    if not ok:
        warnings.warn(
            f"{name}: r={r} is outside the algebra range for p={p}, d={dim}",
            ParameterDomainWarning,
            stacklevel=3,
        )


def schur_norm(matrix, p, r, weight=None):
    """Weighted Schur norm: max of the worst row and worst column l^p sum.

    Row k contributes (sum_l |A(k, l)|^p v_r(k-l)^p)^(1/p), columns the same
    with roles swapped; p = inf degenerates to the weighted sup norm.
    """
    spec = NormSpec("schur", p, r, weight)
    _check_algebra_range("schur_norm", p, r, matrix.dim)
    return _one_row(matrix, spec)


def cpr_norm(matrix, p, r, weight=None, literal=False):
    """l^p over diagonals of the weighted envelope.

    The default aggregates each diagonal by its sup; ``literal=True`` uses
    the per-entry double sum (sum of |entry|^p within the diagonal) instead.
    p = inf coincides with :func:`jaffard_norm` in both variants.
    """
    spec = NormSpec("cpr", p, r, weight, literal)
    _check_algebra_range("cpr_norm", p, r, matrix.dim)
    return _one_row(matrix, spec)


def _require_solid(base):
    """The base coerced once; an ``op`` spec is refused."""
    spec = _coerce_spec(base)
    if isinstance(spec, NormSpec) and not spec.is_solid:
        raise ValueError("this evaluator requires a solid base norm")
    return spec


def weighted_norm(matrix, base, weight):
    """Base norm of the matrix with diagonal m scaled by weight(m), read as
    the one multiplier-stack row weight(offsets).

    Only solid bases qualify: for those, scaling the diagonals by |w| is the
    same as weighting the norm, which is what makes the composition a norm.
    A callable base is trusted to be solid.
    """
    base = _require_solid(base)
    offs = matrix.offset_array()
    row = np.asarray(weight(offs))
    if row.shape != (len(offs),):
        raise ValueError(f"weight must give {len(offs)} factors, one per stored diagonal")
    if not np.isfinite(row).all():
        raise ValueError("non-finite diagonal factor")
    return float(_stack_values(matrix, base, row[None])[0])


def matrix_norm(matrix, spec):
    """Evaluate a norm given a NormSpec, a grammar string, or a callable."""
    spec = _coerce_spec(spec)
    if callable(spec) and not isinstance(spec, NormSpec):
        return float(spec(matrix))
    if spec.kind == "op":
        return op_norm_l2(matrix)
    if spec.kind == "jaffard":
        if spec.weight is None:
            return jaffard_norm(matrix, spec.r)
        return _one_row(matrix, spec)
    if spec.kind == "schur":
        return schur_norm(matrix, spec.p, spec.r, weight=spec.weight)
    return cpr_norm(matrix, spec.p, spec.r, weight=spec.weight, literal=spec.literal)


def _coerce_spec(spec):
    """A grammar string parsed; a NormSpec or a callable as given."""
    if isinstance(spec, str):
        return parse_norm_spec(spec)
    if isinstance(spec, NormSpec) or callable(spec):
        return spec
    raise TypeError(f"unsupported base norm {spec!r}")


# -- multiplier stacks -------------------------------------------------------


def _diagonal_separable(spec):
    """Whether ``matrix_norm(spec)`` depends on a matrix only through one
    number per diagonal (:func:`_diagonal_values`): every solid spec except
    Schur at p < inf, whose row and column sums mix the diagonals."""
    if not isinstance(spec, NormSpec) or not spec.is_solid:
        return False
    return spec.kind != "schur" or math.isinf(spec.p)


def _sup_type(spec):
    """Whether ``spec`` is :func:`_diagonal_separable` and reads the sup
    over diagonals (jaffard, or any such spec at p = inf): its norm of a
    stack's rows then depends on the rows only through max_k |F_k|."""
    return _diagonal_separable(spec) and (spec.kind == "jaffard" or math.isinf(spec.p))


def _diagonal_values(matrix, spec):
    """``(offsets, values)``: the number per stored diagonal that a
    :func:`_diagonal_separable` spec reads, the l^p norm of the diagonal for
    literal cpr at p < inf and its sup (the envelope, stored on the matrix)
    otherwise.  Both scale by |F_m| under a per-diagonal multiplier F."""
    if spec.kind == "cpr" and spec.literal and not math.isinf(spec.p):
        return matrix.offset_array(), matrix.diagonal_power_sums(spec.p) ** (1.0 / spec.p)
    return matrix.envelope()


def _stack_norm(spec, offsets, values, factors):
    """``matrix_norm(F_k . A, spec)`` for every row F_k of a (K, M) stack of
    per-diagonal multipliers, from the :func:`_diagonal_values` of A on
    ``offsets``; the one formula of every :func:`_diagonal_separable` spec.

    ``values`` may also be a (..., M) stack; the result has shape (..., K).
    Sup-type bases evaluate ``((values * |F|) * w).max(-1)``; cpr at p < inf
    is ``((values * w)^p @ |F|^p.T)^(1/p)``, one matrix product also for a
    stack of values.  Specs that are not diagonal-separable raise.
    """
    if not _diagonal_separable(spec):
        raise ValueError(f"{spec!r} is not diagonal-separable")
    w = _diagonal_weights(offsets, spec.r, spec.weight)
    values = np.asarray(values, dtype=float)
    mult = np.abs(np.asarray(factors)).astype(float, copy=False)
    if _sup_type(spec):
        return ((values[..., None, :] * mult) * w).max(axis=-1, initial=0.0)
    return (((values * w) ** spec.p) @ (mult**spec.p).T) ** (1.0 / spec.p)


def _line_sums(matrix, spec, factors):
    """The worst weighted row or column sum
    sum_l |A(k, l)|^p (w_m |F_m|)^p, m = k - l, for every row F of a (K, M)
    multiplier stack aligned with the offsets of the matrix, w the weight
    of ``spec`` (Schur at p < inf): the p-th powers of the Schur norms of
    the F . A, as a length-K array.

    The sums run over the parts of :meth:`LatticeMatrix.diagonal_blocks`.
    One row adds each entry of a part, times its weight, into its row and
    its column (``bincount`` over :meth:`LatticeMatrix.coordinates`).  More
    rows take a part's (diagonals x lines) table of |A|^p, whose product
    with the part's columns of (w |F|)^p gives the line sums of every row at
    once.  Either way a part's temporaries stay under the block budget.
    """
    offs = matrix.offset_array()
    g = (_diagonal_weights(offs, spec.r, spec.weight) * np.abs(factors)) ** spec.p
    n = matrix.n_rows
    sums = np.zeros((2, g.shape[0], n))
    for start, part in matrix.diagonal_blocks():
        rows, cols, vals = part.coordinates()
        lens = part.diagonal_lengths()
        cols_g = g[:, start : start + lens.size]
        powed = np.abs(vals)
        powed **= spec.p
        if g.shape[0] == 1:
            powed *= np.repeat(cols_g[0], lens)
            for line, out in zip((rows, cols), sums):
                out[0] += np.bincount(line, powed, minlength=n)
            continue
        at = np.repeat(np.arange(0, lens.size * n, n), lens)
        for line, out in zip((rows, cols), sums):
            table = np.zeros(lens.size * n)
            table[at + line] = powed
            out += cols_g @ table.reshape(lens.size, n)
    return sums.max(axis=(0, 2))


def _stack_values(matrix, spec, factors, outer=None):
    """``matrix_norm(F_k . A, spec)`` for every row F_k of a (K, M)
    multiplier stack aligned with the offsets of the matrix; given a (..., M)
    stack ``outer`` of rows g, ``max_k matrix_norm(g F_k . A, spec)`` for
    every g, with shape (...) (``outer=np.ones(M)`` is the plain max).

    Rows may be signed; solid specs read |F| and |g|.  A diagonal-separable
    spec scales its diagonal values by |g| for one :func:`_stack_norm` call,
    forming no (..., K, M) array; a sup-type one first reduces |F| to its
    column max, the same bits (rounding is monotone, so the max over rows
    commutes with the max over diagonals) in O(M) instead of O(K M) per g.
    Every other base takes the products g F_k of as many rows g at a time as
    keep them under the block budget ``lattice._BLOCK_BYTES``: Schur at
    p < inf as one :func:`_line_sums` stack, ``op`` and callables as one
    scaled matrix per (g, F_k), the tests' oracle."""
    spec = _coerce_spec(spec)
    if _diagonal_separable(spec):
        offs, values = _diagonal_values(matrix, spec)
        if outer is None:
            return _stack_norm(spec, offs, values, factors)
        if _sup_type(spec):
            factors = np.abs(factors).max(axis=0, keepdims=True)
        return _stack_norm(spec, offs, values * np.abs(outer), factors).max(axis=-1)
    if outer is None:
        if isinstance(spec, NormSpec) and spec.is_solid:
            return _line_sums(matrix, spec, factors) ** (1.0 / spec.p)
        scaled = (matrix.scale_diagonals(lambda _o, f=f: f) for f in factors)
        return np.array([matrix_norm(x, spec) for x in scaled])
    k, m = np.shape(factors)
    lead = np.shape(outer)[:-1]
    rows = np.reshape(outer, (math.prod(lead), m))
    step = max(1, lattice._BLOCK_BYTES // (8 * max(1, k * m)))
    out = np.zeros(len(rows))
    for i in range(0, len(rows), step):
        chunk = rows[i : i + step]
        stack = (chunk[:, None] * factors).reshape(len(chunk) * k, m)
        out[i : i + step] = _stack_values(matrix, spec, stack).reshape(len(chunk), k).max(-1)
    return out.reshape(lead)


def _lp_combine(values, p):
    """l^p norm over the last axis of non-negative values (their max at
    p = inf); 0 for no values."""
    vals = np.asarray(values, dtype=float)
    if math.isinf(p):
        return vals.max(axis=-1, initial=0.0)
    return (vals**p).sum(axis=-1) ** (1.0 / p)


def _check_smoothness(r, p):
    """Refuse a smoothness r outside (0, inf) or a summability p outside
    [1, inf]; NaN fails both comparisons."""
    if not 0 < r < math.inf:
        raise ValueError(f"smoothness r must be finite and > 0, got {r}")
    if not p >= 1:
        raise ValueError(f"p must be in [1, inf], got {p}")


# -- string grammar -----------------------------------------------------------


def _fields(text, allowed):
    """``{key: value text}`` of ``key=value`` fields split on the commas that
    lie outside [...] brackets.  Empty, malformed, unknown and repeated keys
    and unbalanced brackets are refused; both spec grammars read their
    parameters through here."""
    fields = {}
    if not text:
        return fields
    depth = start = 0
    for i, ch in enumerate(text + ","):
        depth += (ch == "[") - (ch == "]")
        if depth < 0:
            raise ValueError(f"unbalanced brackets in {text!r}")
        if ch != "," or depth:
            continue
        key, eq, value = text[start:i].partition("=")
        key = key.strip()
        if not eq or not key:
            raise ValueError(f"expected key=value, got {text[start:i]!r} in {text!r}")
        if key not in allowed:
            raise ValueError(f"unknown parameter {key!r}")
        if key in fields:
            raise ValueError(f"repeated parameter {key!r}")
        fields[key] = value.strip()
        start = i + 1
    if depth:
        raise ValueError(f"unbalanced brackets in {text!r}")
    return fields


_BOOLS = {
    **dict.fromkeys(("true", "yes", "on", "1"), True),
    **dict.fromkeys(("false", "no", "off", "0"), False),
}


def _read_bool(text):
    value = _BOOLS.get(text.lower())
    if value is None:
        raise ValueError(f"{text!r} is not a boolean")
    return value


# the parameters each norm kind takes, in canonical order, and their readers
_KIND_KEYS = {"op": (), "jaffard": ("r",), "schur": ("p", "r"), "cpr": ("p", "r", "literal")}
_READERS = {"p": float, "r": float, "literal": _read_bool}
_WEIGHT_ALIASES = {"poly": "poly", "polynomial": "poly", "bessel": "bessel"}


def parse_norm_spec(text):
    """Parse strings like ``op``, ``jaffard:r=2``, ``schur:p=1,r=0``,
    ``cpr:p=2,r=1.5,literal=true`` or ``w[bessel:r=1]jaffard:r=0``."""
    text = text.strip()
    weight = None
    if text.startswith("w["):
        end = text.find("]")
        if end < 0:
            raise ValueError(f"unterminated weight in {text!r}")
        wkind, _, wparams = text[2:end].partition(":")
        wkind = _WEIGHT_ALIASES.get(wkind.strip())
        if wkind is None:
            raise ValueError(f"unknown weight kind in {text[:end + 1]!r}")
        weight = Weight(wkind, float(_fields(wparams, ("r",)).get("r", 0.0)))
        text = text[end + 1 :]
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in _KIND_KEYS:
        raise ValueError(f"unknown norm kind {kind!r}")
    params = {k: _READERS[k](v) for k, v in _fields(rest, _KIND_KEYS[kind]).items()}
    return NormSpec(kind, weight=weight, **params)


def _fmt_float(x):
    if math.isinf(x):
        return "inf"
    return repr(float(x))


def format_norm_spec(spec):
    """Canonical string for a NormSpec; parse(format(s)) == s."""
    prefix = "" if spec.weight is None else f"w[{spec.weight.kind}:r={_fmt_float(spec.weight.r)}]"
    keys = _KIND_KEYS[spec.kind]
    params = [f"{k}={_fmt_float(getattr(spec, k))}" for k in keys if k != "literal"]
    if "literal" in keys and spec.literal:
        params.append("literal=true")
    return f"{prefix}{spec.kind}:{','.join(params)}" if params else spec.kind
