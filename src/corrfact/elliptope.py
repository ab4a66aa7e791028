"""Correlation matrices: membership, Gram factors, extremality, projections,
vector systems for bipartite blocks, and completions.

A correlation matrix is a real symmetric psd matrix with unit diagonal.
Extremality is decided by the rank criterion: E is extreme iff the
entrywise square E o E has rank exactly binomial(rank(E) + 1, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvariantViolationError,
    NonUnitVectorError,
    NotPsdError,
    NotSymmetricError,
    ShapeError,
    SingularMatrixError,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, as_matrix, eigenvalue_bounds, gram, hermitian_deviations, sorted_eigh
from .report import CheckResult, VerificationReport


def _require_symmetric(m, tol: ToleranceConfig, what: str = "matrix") -> np.ndarray:
    a = as_matrix(m, what)
    if a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"{what} must be square, got shape {a.shape}")
    if np.iscomplexobj(a):
        if a.size and float(np.max(np.abs(a.imag))) > tol.eq_tol:
            raise NotSymmetricError(f"{what} must be real symmetric, has complex entries")
        a = a.real
    dev = float(hermitian_deviations(a[None])[0])
    if dev > tol.eq_tol:
        raise NotSymmetricError(f"{what} deviates from symmetric by {dev:.3e}")
    return a


def check_membership(e, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff e has unit diagonal within eq_tol and is psd within psd_tol."""
    try:
        require_correlation(e, tol)
    except (InvariantViolationError, NotPsdError):
        return False
    return True


def require_correlation(e, tol: ToleranceConfig = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    """Validated copy of a correlation matrix; raises on any violation."""
    a = _require_symmetric(e, tol, what)
    diag_dev = float(np.max(np.abs(np.diag(a) - 1.0)))
    if diag_dev > tol.eq_tol:
        raise InvariantViolationError(f"{what} diagonal deviates from one by {diag_dev:.3e}")
    least = eigenvalue_bounds(a[None])[0][0]
    if least < -tol.psd_tol:
        raise NotPsdError(f"{what} has eigenvalue {least:.3e}")
    return a.copy()


def gram_factors(e, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Deterministic Gram factors of a symmetric psd matrix.

    Returns an (n, r) array whose rows reproduce e as their Gram matrix,
    with r the numerical rank.  Factors are rows of U_r diag(sqrt(w)) for
    the descending eigendecomposition, eigenvector signs fixed by making
    the largest-magnitude component positive, so output is reproducible.
    """
    a = _require_symmetric(e, tol)
    w, u = sorted_eigh(a)
    if w.size and w[-1] < -tol.psd_tol:
        raise NotPsdError(f"matrix has eigenvalue {w[-1]:.3e}")
    if w.size == 0 or w[0] <= 0.0:
        return np.zeros((a.shape[0], 0))
    keep = w > tol.rank_tol * w[0]
    return u[:, keep] * np.sqrt(w[keep])


def resolve_gram_factors(
    a: np.ndarray,
    factors=None,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    unit: bool = False,
) -> np.ndarray:
    """Gram factors of a validated correlation matrix, one row per index.

    Without `factors` these are the deterministic gram_factors of a;
    supplied factors must have one row per index and reproduce a within
    max(eq_tol, 1e-12).  With `unit` the rows must also be unit vectors
    within eq_tol.  The column count is the rank the generator
    constructions are built at.
    """
    if factors is None:
        u = gram_factors(a, tol)
    else:
        u = np.asarray(factors, dtype=float)
        if u.ndim != 2 or u.shape[0] != a.shape[0]:
            raise ShapeError(f"expected {a.shape[0]} factor rows, got shape {u.shape}")
        dev = float(np.max(np.abs(gram(u) - a)))
        if dev > max(tol.eq_tol, 1e-12):
            raise InvariantViolationError(f"supplied factors miss the matrix by {dev:.3e}")
    if unit:
        norm_dev = float(np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)))
        if norm_dev > tol.eq_tol:
            raise NonUnitVectorError(f"factor rows must be unit vectors, worst deviation {norm_dev:.3e}")
    return u


def _rank_with_gap(m, tol: ToleranceConfig) -> tuple[int, float]:
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0, math.inf
    r = int(np.count_nonzero(s > tol.rank_tol * s[0]))
    if r == s.size or s[r] <= 0.0:
        return r, math.inf
    return r, float(s[r - 1] / s[r])


@dataclass(frozen=True)
class ExtremalityReport:
    """Extremality decision with singular-value gap diagnostics.

    The gaps (last kept over first dropped singular value) make borderline
    rank decisions visible; they are inf when nothing was dropped.
    """

    rank: int
    hadamard_rank: int
    required_rank: int
    is_extreme: bool
    sv_gap: float
    hadamard_sv_gap: float


def check_extreme(e, tol: ToleranceConfig = DEFAULT_TOL) -> ExtremalityReport:
    """Rank test for extremality of a correlation matrix.

    Computes rank(E) and rank(E o E) with the shared relative cutoff and
    compares the latter against binomial(rank(E) + 1, 2).
    """
    a = require_correlation(e, tol)
    rank, gap = _rank_with_gap(a, tol)
    had_rank, had_gap = _rank_with_gap(a * a, tol)
    required = rank * (rank + 1) // 2
    return ExtremalityReport(rank, had_rank, required, had_rank == required, gap, had_gap)


def gen_extreme_lex(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Extreme correlation matrix of rank r and size binomial(r+1, 2).

    Generating vectors are indexed by pairs (i, j) with i <= j in
    lexicographic order: the pair (i, i) maps to e_i and (i, j) with i < j
    maps to (e_i + e_j) / sqrt(2).  Returns (matrix, vectors).
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    pairs = [(i, j) for i in range(r) for j in range(i, r)]
    vectors = np.zeros((len(pairs), r))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for row, (i, j) in enumerate(pairs):
        if i == j:
            vectors[row, i] = 1.0
        else:
            vectors[row, i] = inv_sqrt2
            vectors[row, j] = inv_sqrt2
    return gram(vectors), vectors


def r_max(n: int) -> int:
    """Largest integer r with r(r+1)/2 <= n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (math.isqrt(8 * n + 1) - 1) // 2


def project_bipartite(e, n: int, m: int) -> np.ndarray:
    """Top-right n x m block of an (n+m) x (n+m) matrix."""
    a = as_matrix(e)
    if a.shape != (n + m, n + m):
        raise ShapeError(f"expected shape {(n + m, n + m)}, got {a.shape}")
    return a[:n, n:].copy()


@dataclass(frozen=True)
class CSystem:
    """Vector families realizing a bipartite correlation entrywise.

    Entry (i, j) of the realized block is <row_vectors[i], col_vectors[j]>;
    all vectors are required to have norm at most one.
    """

    row_vectors: np.ndarray
    col_vectors: np.ndarray

    def __post_init__(self) -> None:
        rows = np.atleast_2d(np.asarray(self.row_vectors, dtype=float))
        cols = np.atleast_2d(np.asarray(self.col_vectors, dtype=float))
        if rows.shape[1] != cols.shape[1]:
            raise ShapeError(
                f"row and column vectors must share a dimension, got {rows.shape[1]} and {cols.shape[1]}"
            )
        object.__setattr__(self, "row_vectors", rows)
        object.__setattr__(self, "col_vectors", cols)


def verify_c_system(c, sys: CSystem, tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    """Check that a vector system realizes the bipartite block c.

    Passes iff every entry matches the corresponding inner product within
    eq_tol and all vector norms are at most 1 + eq_tol.  The norm check
    records the minimum vector norm: extreme blocks force unit norms, so a
    minimum below one flags a non-extreme realization.
    """
    a = as_matrix(c)
    rows, cols = sys.row_vectors, sys.col_vectors
    if a.shape != (rows.shape[0], cols.shape[0]):
        raise ShapeError(f"block shape {a.shape} does not match system {(rows.shape[0], cols.shape[0])}")
    norms = np.concatenate([np.linalg.norm(rows, axis=1), np.linalg.norm(cols, axis=1)])
    norm_excess = float(max(0.0, np.max(norms) - 1.0))
    min_norm = float(np.min(norms))
    entry_dev = float(np.max(np.abs(a - rows @ cols.T), initial=0.0))
    checks = (
        CheckResult(
            "norms_at_most_one",
            norm_excess <= tol.eq_tol,
            norm_excess,
            note=f"min vector norm {min_norm:.6g}",
            value=min_norm,
        ),
        CheckResult("entries_match_inner_products", entry_dev <= tol.eq_tol, entry_dev),
    )
    return VerificationReport(checks)


def complete(sys: CSystem, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Correlation matrix completing the block realized by a unit-vector system.

    The Gram matrix of (row vectors, column vectors) is a correlation matrix
    whose top-right block is the realized bipartite correlation.  Sub-unit
    vectors are rejected rather than renormalized: for extreme blocks every
    realization consists of unit vectors, so a short vector signals a
    modeling error.
    """
    stacked = np.vstack([sys.row_vectors, sys.col_vectors])
    norms = np.linalg.norm(stacked, axis=1)
    dev = float(np.max(np.abs(norms - 1.0), initial=0.0))
    if dev > tol.eq_tol:
        raise NonUnitVectorError(f"completion needs unit vectors; worst norm deviation {dev:.3e}")
    return gram(stacked)


def solve_lambda(a, c, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, VerificationReport]:
    """Solve A L = C for a full-rank symmetric psd block A.

    Returns (L, report); the report records the residual max |A L - C|.
    The complementary condition B = L^T A L is the caller's check.
    """
    mat_a = _require_symmetric(a, tol, "block")
    mat_c = as_matrix(c, "target block")
    if mat_c.shape[0] != mat_a.shape[0]:
        raise ShapeError(f"row count mismatch: {mat_a.shape[0]} vs {mat_c.shape[0]}")
    (least,), (largest,) = eigenvalue_bounds(mat_a[None])
    if least < -tol.psd_tol:
        raise NotPsdError(f"block has eigenvalue {least:.3e}")
    if least <= tol.rank_tol * max(largest, 0.0):
        raise SingularMatrixError("block is numerically singular")
    lam = np.linalg.solve(mat_a, mat_c)
    residual = float(np.max(np.abs(mat_a @ lam - mat_c), initial=0.0))
    report = VerificationReport(
        (CheckResult("linear_system_residual", residual <= tol.eq_tol, residual),)
    )
    return lam, report


def random_correlation(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Gram matrix of n unit vectors drawn uniformly from the sphere in R^dim."""
    v = rng.standard_normal((n, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return gram(v)
