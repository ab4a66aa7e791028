"""Matrix factorizations of correlation matrices and their verification.

A correlation matrix E of rank r factors through the rank-r generator
family: with unit Gram factors u_i, the matrices G(u_i)/sqrt(d) reproduce
E under the Hilbert-Schmidt inner product (form b).  Scaling by sqrt(d)
and introducing the weight K = I/sqrt(d) gives form c,
E = Gram(K X_1, ..., X_n, Y_1 K, ..., Y_m K), with Hermitian involutions
X_i, Y_j and a positive-definite K with Tr(K^2) = 1.  For extreme E with a
full-rank leading block A, the X family of any form-c factorization obeys
(sum_i mu_i X_i)^2 = (mu^T A mu) I, i.e. it generates the rank-n
anticommutation relations after rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import gamma_generators, gamma_of_rows
from .elliptope import _require_symmetric, require_correlation, resolve_gram_factors
from .errors import (
    InvariantViolationError,
    NotPsdError,
    ShapeError,
    SingularMatrixError,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    anticommutator_deviations,
    as_matrix,
    as_stack,
    chunks,
    eigenvalue_bounds,
    gram,
    hermitian_deviations,
    hs_gram,
    identity_deviations,
    sorted_eigh,
    square_deviations,
)
from .report import CheckResult, VerificationReport


@dataclass(frozen=True)
class FormBFactorization:
    """Hermitian families with A_i^2 = B_j^2 = I/d whose HS Gram matrix is the source."""

    a_mats: np.ndarray
    b_mats: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.a_mats.shape[-1])

    @property
    def sizes(self) -> tuple[int, int]:
        return int(self.a_mats.shape[0]), int(self.b_mats.shape[0])


@dataclass(frozen=True)
class MatrixFactorization:
    """Hermitian involutions X_i, Y_j with a positive-definite weight K, Tr(K^2) = 1."""

    x_mats: np.ndarray
    y_mats: np.ndarray
    k: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.k.shape[-1])

    @property
    def sizes(self) -> tuple[int, int]:
        return int(self.x_mats.shape[0]), int(self.y_mats.shape[0])


def factorize_clifford(
    e,
    split: int | None = None,
    *,
    factors=None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> FormBFactorization:
    """Factor a correlation matrix through the rank-r generator family.

    `split` assigns the first `split` rows to the A family and the rest to
    the B family (default: all rows to A).  `factors` optionally supplies
    precomputed unit Gram factors; by default the deterministic
    eigendecomposition factors are used.  The output dimension is
    2^floor(r/2) for rank r >= 2 and 2 for rank 1.
    """
    a = require_correlation(e, tol)
    n = a.shape[0]
    if split is None:
        split = n
    if not 0 <= split <= n:
        raise ShapeError(f"split must lie in [0, {n}], got {split}")
    u = resolve_gram_factors(a, factors, tol)
    rep = gamma_generators(u.shape[1])
    mats = gamma_of_rows(rep, u)
    mats *= 1.0 / math.sqrt(rep.rep_dim)
    return FormBFactorization(mats[:split], mats[split:])


def to_form_c(fb: FormBFactorization) -> MatrixFactorization:
    """Rescale a form-b factorization to involutions plus the weight I/sqrt(d)."""
    d = fb.dim
    scale = math.sqrt(d)
    k = np.eye(d, dtype=complex) / scale
    return MatrixFactorization(fb.a_mats * scale, fb.b_mats * scale, k)


def recover_correlation(mf: MatrixFactorization, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Correlation matrix realized by a factorization.

    Each K X_i (and Y_j K) is vectorized and split into real and imaginary
    parts, giving real unit vectors whose Gram matrix is returned.  The
    family is formed by two batched matmuls into one stack, whose complex
    rows viewed as interleaved real vectors go through one real GEMM.
    """
    k = as_matrix(mf.k)
    d = k.shape[0]
    x, y = as_stack(mf.x_mats, "X family", d), as_stack(mf.y_mats, "Y family", d)
    n = x.shape[0]
    family = np.empty((n + y.shape[0], d, d), dtype=complex)
    np.matmul(k, x, out=family[:n])
    np.matmul(y, k, out=family[n:])
    g = gram(family.reshape(family.shape[0], d * d).view(float))
    diag_dev = float(np.max(np.abs(np.diag(g) - 1.0)))
    if diag_dev > tol.eq_tol:
        raise InvariantViolationError(
            f"recovered diagonal deviates from one by {diag_dev:.3e}; weight or involutions invalid"
        )
    return g


def _hs_gram_deviation(first: np.ndarray, second: np.ndarray, e: np.ndarray) -> float:
    """Worst |Tr(F_p F_q^*) - e_pq| over p <= q, F being `first` then `second`.

    The Gram matrix is built block by block, each block one GEMM of the
    vectorized stacks (linalg.hs_gram), so the families are never joined.
    """
    n = first.shape[0]
    blocks = (
        np.triu(hs_gram(first) - e[:n, :n]),
        hs_gram(first, second) - e[:n, n:],
        np.triu(hs_gram(second) - e[n:, n:]),
    )
    return max(float(np.max(np.abs(b), initial=0.0)) for b in blocks)


def verify_factorization(
    e,
    fact,
    tol: ToleranceConfig = DEFAULT_TOL,
    mode: str = "i",
) -> VerificationReport:
    """Verify a factorization against its target correlation matrix.

    Modes select which Gram family is checked: "i" uses (K X_i, Y_j K),
    "i-prime" uses (K X_i, K Y_j), and "b-form" checks a form-b
    factorization (families A_i, B_j with A_i^2 = I/d).  Involution and
    weight conditions are verified alongside the Gram reconstruction.

    The Gram family is formed by batched matmuls (K X, Y K or K Y over the
    stacks) and compared with e over p <= q through one GEMM per block of
    the vectorized stacks; the involution checks square each stack in
    chunked batched products.
    """
    a = _require_symmetric(e, tol, "target")
    if mode not in ("i", "i-prime", "b-form"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "b-form":
        if not isinstance(fact, FormBFactorization):
            raise ShapeError("mode 'b-form' verifies a form-b factorization")
        n, m = fact.sizes
        if a.shape[0] != n + m:
            raise ShapeError(f"target size {a.shape[0]} does not match family size {n + m}")
        d = fact.dim
        a_mats, b_mats = as_stack(fact.a_mats, "A family", d), as_stack(fact.b_mats, "B family", d)
        gram_dev = _hs_gram_deviation(a_mats, b_mats, a)
        inv_dev = max(float(np.max(square_deviations(f, 1.0 / d), initial=0.0)) for f in (a_mats, b_mats))
        checks = (
            CheckResult("gram_reconstruction", gram_dev <= tol.eq_tol, gram_dev),
            CheckResult("scaled_involutions", inv_dev <= tol.eq_tol, inv_dev),
        )
        return VerificationReport(checks)

    if not isinstance(fact, MatrixFactorization):
        raise ShapeError(f"mode {mode!r} verifies a weighted factorization")
    n, m = fact.sizes
    if a.shape[0] != n + m:
        raise ShapeError(f"target size {a.shape[0]} does not match family size {n + m}")
    k = as_matrix(fact.k)
    x, y = as_stack(fact.x_mats, "X family", fact.dim), as_stack(fact.y_mats, "Y family", fact.dim)
    gram_dev = _hs_gram_deviation(k @ x, y @ k if mode == "i" else k @ y, a)

    inv_dev = max(float(np.max(square_deviations(f), initial=0.0)) for f in (x, y))

    herm_dev = float(hermitian_deviations(k[None])[0])
    min_eig = float(eigenvalue_bounds(k[None])[0][0])
    trace_dev = abs(float(np.trace(k @ k).real) - 1.0)
    checks = (
        CheckResult("gram_reconstruction", gram_dev <= tol.eq_tol, gram_dev),
        CheckResult("involutions", inv_dev <= tol.eq_tol, inv_dev),
        CheckResult("weight_hermitian", herm_dev <= tol.eq_tol, herm_dev),
        CheckResult(
            "weight_positive_definite",
            min_eig > tol.psd_tol,
            max(0.0, tol.psd_tol - min_eig),
            note=f"min eigenvalue {min_eig:.6g}",
            value=min_eig,
        ),
        CheckResult("weight_trace_normalized", trace_dev <= tol.eq_tol, trace_dev),
    )
    return VerificationReport(checks)


def verify_clifford_identity(
    a,
    x_mats,
    trials: int = 100,
    seed: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> VerificationReport:
    """Check (sum_i mu_i X_i)^2 = (mu^T A mu) I for random directions mu.

    Draws `trials` standard-normal direction vectors from a seeded
    generator and also runs the exhaustive pairwise check
    X_i X_j + X_j X_i = 2 A_ij I, which covers the identity exactly.  All
    directions are drawn at once (the same stream as one draw per trial);
    the sums sum_i mu_i X_i are one tensordot per chunk of trials and the
    pairs i <= j are formed in chunked batched products.
    """
    block = _require_symmetric(a, tol, "block")
    mats = as_stack(x_mats, "involutions")
    if mats.shape[0] != block.shape[0]:
        raise ShapeError(f"block size {block.shape[0]} does not match family size {mats.shape[0]}")
    k = mats.shape[0]
    rng = np.random.default_rng(seed)
    mus = rng.standard_normal((max(trials, 0), k))
    dev_rand = 0.0
    for part in chunks(len(mus), mats[0:1].nbytes):
        s = np.tensordot(mus[part], mats, axes=1)
        shift = np.einsum("ti,ij,tj->t", mus[part], block, mus[part])
        dev_rand = max(dev_rand, float(np.max(identity_deviations(s @ s, shift[:, None]), initial=0.0)))
    rows, cols = np.triu_indices(k)
    pair_devs = anticommutator_deviations(mats, rows, cols, 2.0 * block[rows, cols])
    dev_pair = float(np.max(pair_devs, initial=0.0))
    checks = (
        CheckResult(
            "random_direction_identity",
            dev_rand <= tol.eq_tol,
            dev_rand,
            note=f"{trials} trials",
        ),
        CheckResult("pairwise_anticommutators", dev_pair <= tol.eq_tol, dev_pair),
    )
    return VerificationReport(checks)


def orthonormalize_generators(a, x_mats, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Transform involutions with anticommutators 2 A_ij I to canonical generators.

    With A = sum_k w_k u_k u_k^T positive definite, the combinations
    X'_k = w_k^{-1/2} sum_i u_k(i) X_i anticommute exactly pairwise.
    """
    block = _require_symmetric(a, tol, "block")
    mats = as_stack(x_mats, "involutions")
    if mats.shape[0] != block.shape[0]:
        raise ShapeError(f"block size {block.shape[0]} does not match family size {mats.shape[0]}")
    w, u = sorted_eigh(block)
    if w.size and w[-1] < -tol.psd_tol:
        raise NotPsdError(f"block has eigenvalue {w[-1]:.3e}")
    if w.size == 0 or w[0] <= 0.0 or w[-1] <= tol.rank_tol * w[0]:
        raise SingularMatrixError("block is numerically singular")
    out = []
    for k in range(w.size):
        out.append(np.tensordot(u[:, k], mats, axes=1) / math.sqrt(w[k]))
    return np.stack(out)
