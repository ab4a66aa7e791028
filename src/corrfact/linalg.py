"""Dense complex linear-algebra primitives with explicit tolerance policies."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError, ShapeError


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
constant instead of growing with the family.
"""


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
"""Least matrix size d at which sandwich looks for monomial factors, and at which
recover_correlation and the outcome-sum checks of cpsd look for the places
where a family is zero.

Below it a batched matmul costs less than telling whether a factor is
monomial: W^* M W with a diagonal W takes 15 us by matmul and 29 us by
gather for 10 matrices at d = 8, 51 us against 45 us for 18 at d = 16, and
599 us against 100 us for 27 at d = 32 (numpy 2.4, one OpenBLAS thread,
2-core x86 VM).
"""


def _monomial(m) -> tuple[np.ndarray | None, np.ndarray] | None:
    """Where the nonzeros of a monomial matrix with real entries sit, and their values.

    For m square with exactly one nonzero in each row and each column, every
    one finite with zero imaginary part, returns (cols, vals): row i holds
    vals[i] in column cols[i], and cols is None when m is diagonal.  None for
    any other matrix.
    """
    a = np.asarray(m)
    d = a.shape[0]
    if a.ndim != 2 or a.shape[1] != d or np.count_nonzero(a) != d:
        return None
    if np.count_nonzero(a.diagonal()) == d:
        cols, vals = None, a.diagonal()
    else:
        rows, cols = np.nonzero(a)
        if not (np.array_equal(rows, np.arange(d)) and a.any(axis=0).all()):
            return None
        vals = a[rows, cols]
    if np.iscomplexobj(vals):
        if vals.imag.any():
            return None
        vals = vals.real
    return (cols, vals) if np.isfinite(vals).all() else None


def sandwich(left, mats: np.ndarray, right=None, out: np.ndarray | None = None) -> np.ndarray:
    """left @ mats @ right for a (k, d, d) stack; a factor given as None is left out.

    When every given factor is monomial (one nonzero per row and per column)
    with real entries, the product is a gather of rows and columns and a
    real scaling: each entry is one entry of the stack times the same
    factors, in the matmul's order.  For finite input that equals the matmul
    but for the sign of a zero.  A diagonal factor gathers nothing and a
    factor of ones scales nothing.  Any other factor, and every factor of
    matrices smaller than GATHER_MIN_DIM, is multiplied in.
    """
    small = mats.shape[-1] < GATHER_MIN_DIM
    lf = None if left is None or small else _monomial(left)
    rf = None if right is None or small else _monomial(right)
    if (left is not None and lf is None) or (right is not None and rf is None):
        prod = mats if left is None else np.matmul(left, mats, out=out if right is None else None)
        return prod if right is None else np.matmul(prod, right, out=out)
    steps = [] if lf is None else [(-2, lf[0], lf[1][:, None])]
    if rf is not None:
        # column j of the product is column src[j] of the stack, scaled by that row's value
        src = None if rf[0] is None else np.argsort(rf[0])
        steps.append((-1, src, rf[1] if src is None else rf[1][src]))
    prod = mats
    for axis, src, scale in steps:
        if src is not None:
            prod = np.take(prod, src, axis=axis)
        if not (scale == 1.0).all():
            prod = np.multiply(prod, scale, out=out if prod is mats else prod)
    if out is None:
        return prod.copy() if prod is mats else prod
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


def numerical_rank(m, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of singular values above rank_tol times the largest one."""
    a = as_matrix(m)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_tol * s[0]))


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
    with the compensating phase pushed onto the right vector.
    """
    a = np.asarray(psi, dtype=complex).reshape(-1)
    if a.size != d * d:
        raise ShapeError(f"expected a vector of length {d * d}, got {a.size}")
    u, s, vh = np.linalg.svd(a.reshape(d, d))
    if s.size == 0 or s[0] <= 0.0:
        empty = np.zeros((0, d), dtype=complex)
        return SchmidtDecomposition(np.zeros(0), empty, empty.copy())
    keep = s > tol.rank_tol * s[0]
    coeffs = s[keep].copy()
    lefts = u[:, keep].T.copy()
    # The right Schmidt vector x_k has components vh[k, :] (no conjugation):
    # vec(u v^*) = u (x) conj(v) and rows of vh are conj(v_k).
    rights = vh[keep, :].copy()
    for k in range(lefts.shape[0]):
        row = lefts[k]
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        if nz.size:
            phase = row[nz[0]] / abs(row[nz[0]])
            lefts[k] = row / phase
            rights[k] = rights[k] * phase
    return SchmidtDecomposition(coeffs, lefts, rights)
