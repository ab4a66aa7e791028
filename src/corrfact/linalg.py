"""Dense complex linear-algebra primitives with explicit tolerance policies."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import MemoryBudgetError, NotHermitianError, ShapeError


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used across the package.

    eq_tol bounds entrywise equality, psd_tol bounds how negative an
    eigenvalue may be before a matrix stops counting as psd, and rank_tol
    is the relative singular-value cutoff for rank decisions.
    """

    eq_tol: float = 1e-10
    psd_tol: float = 1e-9
    rank_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("eq_tol", "psd_tol", "rank_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(m, what: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D ndarray and reject non-finite entries."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise ShapeError(f"{what} must be 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")
    return a


def as_stack(mats, what: str, d: int | None = None) -> np.ndarray:
    """A family of square matrices as a complex (k, d, d) array.

    With `d` given the members must be d x d, and an empty family of any
    shape is (0, d, d).  Raises ShapeError otherwise.
    """
    try:
        arr = np.asarray(mats, dtype=complex)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"{what} must be square matrices of equal size") from exc
    if d is not None and arr.size == 0:
        return arr.reshape(0, d, d)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or d not in (None, arr.shape[1]):
        want = "(k, d, d)" if d is None else f"(k, {d}, {d})"
        raise ShapeError(f"{what} must form a {want} stack, got {arr.shape}")
    return arr


def vec(m) -> np.ndarray:
    """Row-major vectorization of a square matrix.

    The basis matrix e_i e_j^* maps to e_i (x) e_j, so entry (i, j) lands at
    position i*d + j.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"vec needs a square matrix, got shape {a.shape}")
    return a.reshape(-1).copy()


def vec_inv(v, d: int | None = None) -> np.ndarray:
    """Inverse of vec: reshape a length-d^2 vector to the d x d matrix."""
    a = np.asarray(v).reshape(-1)
    if d is None:
        d = math.isqrt(a.size)
    if d * d != a.size:
        raise ShapeError(f"vector of length {a.size} does not encode a {d} x {d} matrix")
    return a.reshape(d, d).copy()


def hs_inner(x, y) -> complex:
    """Hilbert-Schmidt inner product Tr(x y^*)."""
    a = as_matrix(x)
    b = as_matrix(y)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.sum(a * np.conj(b)))


CHUNK_BYTES = 1 << 20
"""Size cap of one temporary in the batched verifiers (1 MiB).

Batched checks work through their (k, d, d) stacks in slices of about this
many bytes, so a verifier's extra memory stays a small multiple of this
constant instead of growing with the family.  At 256 KiB the chain-support
projection and the batched squares run slower at r = 12, so it stays 1 MiB.
"""

BATCH_BYTES = 1 << 18
"""Size of one batch of the matrix-file codec in ``matio`` (256 KiB).

The writer encodes about this many bytes of matrix data in one pass, and the
reader parses about this many bytes of file text in one pass.  Larger batches
are no faster and raise the peak memory of a bundle save or load.
"""


def _physical_memory() -> int | None:
    """Bytes of physical memory, from os.sysconf; None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


MEMORY_BUDGET = (_physical_memory() or 1 << 62) // 2
"""The most bytes one array may take (half of physical memory): require_budget refuses more.

Checked before the Pauli tables are built, before a family's chain-support
values are allocated, before a dense stack is built from them and before a
bundle's family is read from its files (matio), each size computed from
(k, d) before anything is allocated.
"""


def _size_text(nbytes: int) -> str:
    return f"{nbytes / 2**30:.3g} GiB" if nbytes >= 2**30 else f"{nbytes / 2**20:.3g} MiB"


def require_budget(nbytes: int, what: str) -> None:
    """Raise MemoryBudgetError, naming both sizes, when `what` would take more than MEMORY_BUDGET bytes."""
    if nbytes > MEMORY_BUDGET:
        raise MemoryBudgetError(f"{what} would take {_size_text(nbytes)}, over the memory budget of {_size_text(MEMORY_BUDGET)}")


def chunks(count: int, item_bytes: int) -> list[slice]:
    """Consecutive slices of range(count), each holding about CHUNK_BYTES of items."""
    step = max(1, CHUNK_BYTES // max(item_bytes, 1))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def hs_gram(left, right=None) -> np.ndarray:
    """Hilbert-Schmidt Gram matrix G[p, q] = Tr(L_p R_q^*) of two (k, d, d) stacks.

    One GEMM of the row-vectorized stacks, G = vec(L) vec(R)^*.  R is
    conjugated a chunk of rows at a time, so no conjugate copy of the whole
    stack is made.  R defaults to L; G is then Hermitian, so only the blocks
    on and above the diagonal are multiplied and the rest is mirrored.
    """
    width = math.prod(left.shape[1:])
    lf = left.reshape(left.shape[0], width)
    rf = lf if right is None else right.reshape(right.shape[0], width)
    out = np.empty((lf.shape[0], rf.shape[0]), dtype=np.result_type(lf, rf))
    for cols in chunks(rf.shape[0], rf.shape[1] * rf.itemsize):
        rows = slice(0, cols.stop) if right is None else slice(None)
        out[rows, cols] = lf[rows] @ rf[cols].conj().T
    if right is None:
        lower = np.tril_indices(out.shape[0], -1)
        out[lower] = out.T[lower].conj()
    return out


def identity_deviations(stack: np.ndarray, shift) -> np.ndarray:
    """max|S_p - shift_p I| per matrix of a (k, d, d) stack.

    The shift is subtracted on the diagonal in place, so `stack` is
    overwritten; off-diagonal entries are compared with zero as they are.
    """
    idx = np.arange(stack.shape[-1])
    stack[:, idx, idx] -= shift
    return np.max(np.abs(stack), axis=(1, 2), initial=0.0)


def hermitian_deviations(stack: np.ndarray) -> np.ndarray:
    """max|M_p - M_p^*| for each matrix of a (k, d, d) stack.

    Real input is compared with its transpose in its own dtype.  One chunk
    of the stack at a time; a non-finite matrix gives a non-finite deviation.
    """
    out = np.zeros(stack.shape[0])
    for part in chunks(stack.shape[0], stack[0:1].nbytes):
        block = stack[part]
        out[part] = np.abs(block - block.conj().swapaxes(-1, -2)).max(axis=(1, 2), initial=0.0)
    return out


def eigenvalue_bounds(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least and largest eigenvalue of (M_p + M_p^*)/2 for each matrix of a (k, d, d) stack.

    One batched eigvalsh per chunk of the stack.  A 0 x 0 matrix has the
    bounds (inf, -inf) of an empty spectrum, and a matrix with a non-finite
    entry the bounds (-inf, inf): nothing bounds its spectrum.
    """
    bounds = np.full((2, stack.shape[0]), [[np.inf], [-np.inf]])
    if stack.shape[-1]:
        for part in chunks(stack.shape[0], stack[0:1].nbytes):
            block = stack[part]
            herm = (block + block.conj().swapaxes(-1, -2)) / 2.0
            if np.isfinite(herm.sum()):  # a finite sum has finite terms
                w = np.linalg.eigvalsh(herm)
                bounds[0, part], bounds[1, part] = w[:, 0], w[:, -1]
                continue
            finite = np.isfinite(herm).all(axis=(1, 2))
            w = np.linalg.eigvalsh(herm[finite])
            lo, hi = bounds[0, part], bounds[1, part]
            lo[finite], hi[finite] = w[:, 0], w[:, -1]
            lo[~finite], hi[~finite] = -np.inf, np.inf
    return bounds[0], bounds[1]


def square_deviations(mats: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """max|M_p^2 - scale I| for each matrix of a (k, d, d) stack.

    Chunked batched products: each slice of the stack is squared by one
    batched matmul.
    """
    out = np.zeros(mats.shape[0])
    for part in chunks(mats.shape[0], mats[0:1].nbytes):
        out[part] = identity_deviations(mats[part] @ mats[part], scale)
    return out


def anticommutator_deviations(mats: np.ndarray, rows, cols, coeffs) -> np.ndarray:
    """max|M_i M_j + M_j M_i - c_p I| for each pair p = (rows[p], cols[p]).

    Chunked batched products: each slice of pairs gathers its left and
    right factors and forms both products by batched matmul, so the full
    k^2 d^2 pair tensor is never held.
    """
    out = np.zeros(len(rows))
    for part in chunks(len(rows), 2 * mats[0:1].nbytes):
        left, right = mats[rows[part]], mats[cols[part]]
        anti = left @ right
        anti += right @ left
        out[part] = identity_deviations(anti, coeffs[part, None])
    return out


GATHER_MIN_DIM = 16
"""Least matrix size d at which structure is used: sandwich (through gather_steps) gathers
monomial factors, clifford.chain_family keeps a built family as its Pauli coordinates, and
cpsd._held_diagonal extracts such a family from its d diagonal places.

Below it a batched matmul costs less than telling whether a factor is
monomial: W^* M W with a diagonal W takes 15 us by matmul and 29 us by
gather for 10 matrices at d = 8, 51 us against 45 us for 18 at d = 16, and
599 us against 100 us for 27 at d = 32 (numpy 2.4, one OpenBLAS thread,
2-core x86 VM).
"""


def scatter_columns(out: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
    """out[:, cols] = values for a C-ordered (k, m) out, by one scatter into its flat view.

    numpy assigns through a slice and an index array several times slower
    than through one flat index (2.2 ms against 0.4 ms for 156 rows of 448
    of 4096 complex entries; numpy 2.4, 2-core x86 VM).
    """
    flat_idx = (np.arange(out.shape[0]) * out.shape[1])[:, None] + cols
    out.reshape(-1)[flat_idx] = values


def identity_multiple(m: np.ndarray):
    """c when a square matrix is exactly c I (its diagonal all c, every other entry zero), else None."""
    diag = np.diagonal(m)
    if m.ndim != 2 or not diag.size or m.shape[0] != m.shape[1] or not (diag == diag[0]).all():
        return None
    return diag[0] if np.count_nonzero(m) == np.count_nonzero(diag) else None


def _monomial(m) -> tuple[np.ndarray | None, np.ndarray] | None:
    """Where the nonzeros of a (rectangular) monomial matrix with real entries sit, and their values.

    For m of shape (p, q), p <= q, with exactly one nonzero in each row, no
    two in one column, every one finite with zero imaginary part, returns
    (cols, vals): row i holds vals[i] in column cols[i], and cols is None
    when m is square and diagonal.  Square, that is one nonzero in each row
    and each column; wide, a selection of rows of such a matrix.  None for
    any other matrix.
    """
    a = np.asarray(m)
    if a.ndim != 2:
        return None
    p, q = a.shape
    if p > q or np.count_nonzero(a) != p:
        return None
    if p == q and np.count_nonzero(a.diagonal()) == p:
        cols, vals = None, a.diagonal()
    else:
        rows, cols = np.nonzero(a)
        if not (np.array_equal(rows, np.arange(p)) and np.count_nonzero(a.any(axis=0)) == p):
            return None
        vals = a[rows, cols]
    if np.iscomplexobj(vals):
        if vals.imag.any():
            return None
        vals = vals.real
    return (cols, vals) if np.isfinite(vals).all() else None


def gather_steps(left, right, d: int) -> list[tuple] | None:
    """What sandwich(left, mats, right) does to a stack of d x d matrices when every given factor
    is monomial with real entries, left (p, d) and right (d, q) for p, q <= d: the gathers and
    scalings it applies, in order, as (axis, source indices or None, scale or None); an empty
    list when nothing is left to do.  None when some factor is multiplied in: it is not such a
    matrix, or d < GATHER_MIN_DIM."""
    small = d < GATHER_MIN_DIM
    lf = None if left is None or small else _monomial(left)
    # column j of the product is column src[j] of the stack, scaled by right[src[j], j]
    rf = None if right is None or small else _monomial(np.asarray(right).T)
    if (left is not None and lf is None) or (right is not None and rf is None):
        return None
    steps = [] if lf is None else [(-2, lf[0], lf[1][:, None])]
    if rf is not None:
        steps.append((-1, rf[0], rf[1]))
    steps = [(axis, src, None if (scale == 1.0).all() else scale) for axis, src, scale in steps]
    return [(axis, src, scale) for axis, src, scale in steps if src is not None or scale is not None]


def sandwich(left, mats: np.ndarray, right=None, out: np.ndarray | None = None) -> np.ndarray:
    """left @ mats @ right for a (k, d, d) stack; a factor given as None is left out.

    When every given factor is monomial (one nonzero per row and per column)
    with real entries, or a selection of rows (left) or columns (right) of
    such a matrix, as a column selection of I is, the product is a gather of
    rows and columns and a real scaling (gather_steps): each entry is one
    entry of the stack times the same factors, in the matmul's order.  For
    finite input that equals the matmul but for the sign of a zero: a sum
    x + 0 * y + ... gives +0.0 where x is -0.0.  A diagonal factor gathers nothing
    and a factor of ones scales nothing; when nothing is left to do and no
    `out` is given, the result is a read-only view of `mats`, not a copy.
    Any other factor, and every factor of matrices smaller than
    GATHER_MIN_DIM, is multiplied in.
    """
    steps = gather_steps(left, right, mats.shape[-1])
    if steps is None:
        prod = mats if left is None else np.matmul(left, mats, out=out if right is None else None)
        return prod if right is None else np.matmul(prod, right, out=out)
    prod = mats
    for axis, src, scale in steps:
        if src is not None:
            prod = np.take(prod, src, axis=axis)
        if scale is not None:
            prod = np.multiply(prod, scale, out=out if prod is mats else prod)
    if out is None:
        if prod is mats:
            prod = mats.view()
            prod.flags.writeable = False
        return prod
    if prod is not out:
        out[...] = prod
    return out


def gram(vectors) -> np.ndarray:
    """Real Gram matrix of a family of equal-length real vectors (rows)."""
    try:
        v = np.asarray(vectors, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ShapeError("vectors must be real and of equal dimension") from exc
    if v.ndim != 2 or v.shape[0] == 0:
        raise ShapeError(f"need a nonempty 2-D family of vectors, got shape {v.shape}")
    return v @ v.T


def rank_mask(values: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Which values of a descending spectrum lie above rank_tol times the largest: the one
    rank cutoff.  None do when the spectrum is empty or its largest value is not positive."""
    if values.size == 0 or values[0] <= 0.0:
        return np.zeros(values.shape, dtype=bool)
    return values > tol.rank_tol * values[0]


def numerical_rank(m, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of singular values above rank_tol times the largest one."""
    return int(np.count_nonzero(rank_mask(np.linalg.svd(as_matrix(m), compute_uv=False), tol)))


def require_hermitian(m, tol: ToleranceConfig = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    a = as_matrix(m, what)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {a.shape}")
    dev = float(hermitian_deviations(a[None])[0])
    if dev > tol.eq_tol:
        raise NotHermitianError(f"{what} deviates from Hermitian by {dev:.3e}")
    return a


def sorted_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with a deterministic output convention.

    Eigenvalues come out descending; each eigenvector is rotated so its
    largest-magnitude component (the first one, among equals) is real
    positive, making repeated calls reproduce identical factors.  All
    columns are rotated at once; a zero column is left as it is.
    """
    a = as_matrix(m)
    w, u = np.linalg.eigh((a + a.conj().T) / 2.0)
    # stable sort keeps the routine's own order among tied eigenvalues
    order = np.argsort(-w, kind="stable")
    w = w[order].copy()
    u = u[:, order].copy()
    if u.size:
        pivot = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        nonzero = np.flatnonzero(pivot)
        pivot = pivot[nonzero]
        if np.iscomplexobj(pivot):
            # numpy's scalar abs and division, whose bits its array loops do
            # not reproduce in every version
            phase = np.array([abs(p) / p for p in pivot], dtype=complex)
        else:
            phase = np.abs(pivot) / pivot
        u[:, nonzero] *= phase
    if not np.iscomplexobj(a):
        u = u.real
    return w, u


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt form of a bipartite vector: psi = sum_k c_k y_k (x) x_k.

    Coefficients are positive and descending; left and right vector rows are
    each orthonormal.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        d = self.left_vectors.shape[1]
        out = np.zeros(d * d, dtype=complex)
        for c, y, x in zip(self.coefficients, self.left_vectors, self.right_vectors):
            out += c * np.kron(y, x)
        return out


def schmidt(psi, d: int, tol: ToleranceConfig = DEFAULT_TOL) -> SchmidtDecomposition:
    """Schmidt decomposition of psi in C^d (x) C^d via the SVD of vec_inv(psi).

    Coefficients below rank_tol times the largest are dropped.  Each left
    vector is rotated so its first nonvanishing component is real positive,
    with the compensating phase pushed onto the right vector.  When
    vec_inv(psi) is exactly c I, as for the maximally entangled state, no SVD
    is taken: u = I, vh = (c / |c|) I and every singular value |c|, rounded
    as LAPACK's bidiagonal solver rounds it, and the same rotation follows.
    For a positive c these are the bits the SVD gives.
    """
    a = np.asarray(psi, dtype=complex).reshape(-1)
    if a.size != d * d:
        raise ShapeError(f"expected a vector of length {d * d}, got {a.size}")
    c = identity_multiple(a.reshape(d, d)) if d else None
    if c is not None and c != 0:
        size = abs(c)
        if d > 25:  # dbdsdc's divide and conquer scales the diagonal by 1/|c| and back
            size = (size * (1.0 / size)) * size
        u, s, vh = np.eye(d, dtype=complex), np.full(d, size), np.eye(d, dtype=complex)
        if c != abs(c):
            vh *= c / abs(c)
    else:
        u, s, vh = np.linalg.svd(a.reshape(d, d))
    keep = rank_mask(s, tol)
    coeffs = s[keep].copy()
    lefts = u[:, keep].T.copy()
    # The right Schmidt vector x_k has components vh[k, :] (no conjugation):
    # vec(u v^*) = u (x) conj(v) and rows of vh are conj(v_k).
    rights = vh[keep, :].copy()
    found = np.abs(lefts) > 1e-12
    rows = np.flatnonzero(found.any(axis=1))
    if rows.size:
        pivot = lefts[rows, np.argmax(found[rows], axis=1)]
        # numpy's scalar abs and division, as sorted_eigh takes them; the rows rotate at once
        phase = np.array([p / abs(p) for p in pivot], dtype=complex)[:, None]
        if rows.size == lefts.shape[0]:
            lefts /= phase
            rights *= phase
        else:
            lefts[rows] /= phase
            rights[rows] *= phase
    return SchmidtDecomposition(coeffs, lefts, rights)
