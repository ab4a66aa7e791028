"""Correlation matrices: membership, Gram factors, extremality, projections,
vector systems for bipartite blocks, and completions.

A correlation matrix is a real symmetric psd matrix with unit diagonal.
Extremality is decided by the rank criterion: E is extreme iff the
entrywise square E o E has rank exactly binomial(rank(E) + 1, 2).  Every
rank of E is cut from its descending sorted_eigh spectrum, the one
gram_factors cuts, so the rank a check reports is the rank a construction is
built at.  The spectra of the last matrix decomposed are kept (_spectra), so
the checks and builders that take the same E decompose it once between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyRankError,
    InvariantViolationError,
    NonUnitVectorError,
    NotPsdError,
    NotSymmetricError,
    ShapeError,
    SingularMatrixError,
)
from .linalg import (
    DEFAULT_TOL, ToleranceConfig, as_matrix, eigenvalue_bounds, gram, hermitian_deviations, rank_mask, sorted_eigh
)
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


def _require_unit_diagonal(e, tol: ToleranceConfig, what: str) -> np.ndarray:
    a = _require_symmetric(e, tol, what)
    diag_dev = float(np.max(np.abs(np.diag(a) - 1.0)))
    if diag_dev > tol.eq_tol:
        raise InvariantViolationError(f"{what} diagonal deviates from one by {diag_dev:.3e}")
    return a


def _require_psd(least: float, tol: ToleranceConfig, what: str) -> None:
    if least < -tol.psd_tol:
        raise NotPsdError(f"{what} has eigenvalue {least:.3e}")


def require_correlation(e, tol: ToleranceConfig = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    """Validated copy of a correlation matrix; raises on any violation."""
    a = _require_unit_diagonal(e, tol, what)
    _require_psd(eigenvalue_bounds(a[None])[0][0], tol, what)
    return a.copy()


_LAST_SPECTRA = None
"""(key, w, u, hadamard) of the last matrix _spectra decomposed, or None: one entry, replaced
whole and never mutated, so a reader that takes it once pairs a key with its own spectra."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _spectra(a: np.ndarray, hadamard: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The descending sorted_eigh pair (w, u) of a symmetric matrix and, with `hadamard`, the
    descending magnitudes of eigvalsh(a o a); None in their place when not asked for and not kept.

    The spectra of the last matrix are kept, keyed by its dtype, shape and bytes, so a repeated
    matrix is decomposed once and a different one, or the same array edited in place, is
    decomposed anew.  One entry only: a pipeline takes one E through every check and builder,
    and spectra of other matrices are not reused.  The arrays are read-only, since every
    caller that hits the entry gets the same ones.
    """
    global _LAST_SPECTRA
    key = (a.dtype.str, a.shape, a.tobytes())
    entry = _LAST_SPECTRA
    if entry is None or entry[0] != key:
        entry = (key, *map(_frozen, sorted_eigh(a)), None)
    if hadamard and entry[3] is None:
        entry = entry[:3] + (_frozen(np.sort(np.abs(np.linalg.eigvalsh(a * a)))[::-1]),)
    _LAST_SPECTRA = entry
    return entry[1:]


def _psd_spectrum(a: np.ndarray, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The kept sorted_eigh pair of a symmetric matrix (_spectra), refused when an eigenvalue lies
    below -psd_tol."""
    w, u, _ = _spectra(a)
    if w.size:
        _require_psd(w[-1], tol, "matrix")
    return w, u


def _cut(w: np.ndarray, u: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """The Gram factors U_r diag(sqrt(w_r)) of the eigenpairs rank_mask keeps."""
    keep = rank_mask(w, tol)
    return u[:, keep] * np.sqrt(w[keep])


def gram_factors(e, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Deterministic Gram factors of a symmetric psd matrix.

    Returns an (n, r) array whose rows reproduce e as their Gram matrix,
    with r the numerical rank.  Factors are rows of U_r diag(sqrt(w)) for
    the descending eigendecomposition, eigenvector signs fixed by making
    the largest-magnitude component positive, so output is reproducible.
    """
    return _cut(*_psd_spectrum(_require_symmetric(e, tol), tol), tol)


def factored_correlation(e, factors=None, tol: ToleranceConfig = DEFAULT_TOL, *, unit: bool = False):
    """A validated copy of a correlation matrix and its Gram factors, one row per index.

    Without `factors` these are the deterministic gram_factors, and one
    sorted_eigh (the kept one, _spectra) serves the psd check, the rank cut
    and the factors.  Supplied factors must have one row per index and reproduce the matrix
    within max(eq_tol, 1e-12).  With `unit` the rows must also be unit
    vectors within eq_tol.  The column count is the rank the generator
    constructions are built at; a rank cutoff that keeps no eigenvalue
    raises EmptyRankError.
    """
    a = _require_unit_diagonal(e, tol, "matrix").copy()
    if factors is None:
        u = _cut(*_psd_spectrum(a, tol), tol)
        if u.shape[1] == 0:
            raise EmptyRankError(f"rank_tol {tol.rank_tol:g} keeps no eigenvalue of the matrix")
    else:
        _require_psd(eigenvalue_bounds(a[None])[0][0], tol, "matrix")
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
    return a, u


def _magnitude_gap(values: np.ndarray, rank: int) -> float:
    """Last kept over first dropped of descending magnitudes (singular values); inf when no
    positive one was dropped."""
    if rank == values.size or values[rank] <= 0.0:
        return math.inf
    return float(values[rank - 1] / values[rank])


@dataclass(frozen=True)
class ExtremalityReport:
    """Extremality decision with singular-value gap diagnostics.

    The gaps (last kept over first dropped singular value, the magnitudes of
    the eigenvalues of the symmetric matrices E and E o E) make borderline
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
    compares the latter against binomial(rank(E) + 1, 2).  rank(E) is cut
    from the sorted_eigh spectrum that also decides psd-ness, the one
    gram_factors cuts; E o E is psd (Schur product theorem), so its singular
    values are the magnitudes of one eigvalsh.
    """
    return extremality(_require_unit_diagonal(e, tol, "matrix"), tol)


def extremality(a: np.ndarray, tol: ToleranceConfig) -> ExtremalityReport:
    """check_extreme of a validated correlation matrix a, from its kept spectra (_spectra)."""
    w = _psd_spectrum(a, tol)[0]
    rank = int(np.count_nonzero(rank_mask(w, tol)))
    had = _spectra(a, hadamard=True)[2]
    had_rank = int(np.count_nonzero(rank_mask(had, tol)))
    required = rank * (rank + 1) // 2
    gap = _magnitude_gap(np.sort(np.abs(w))[::-1], rank)
    return ExtremalityReport(rank, had_rank, required, had_rank == required, gap, _magnitude_gap(had, had_rank))


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
