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

from .clifford import (
    pauli_anticommutators,
    pauli_coordinates,
    pauli_gram,
    pauli_square_bounds,
    rep_dim,
    write_combinations,
)
from .elliptope import _require_symmetric, require_correlation, resolve_gram_factors
from .errors import (
    InvariantViolationError,
    NotPsdError,
    ShapeError,
    SingularMatrixError,
)
from .linalg import (
    DEFAULT_TOL,
    GATHER_MIN_DIM,
    ToleranceConfig,
    _monomial,
    anticommutator_deviations,
    as_matrix,
    as_stack,
    chunks,
    eigenvalue_bounds,
    gram,
    hermitian_deviations,
    hs_gram,
    identity_deviations,
    sandwich,
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
    2^floor(r/2) for rank r >= 2 and 2 for rank 1.  Each matrix is written
    on the chain support alone (clifford.write_combinations).
    """
    a = require_correlation(e, tol)
    n = a.shape[0]
    if split is None:
        split = n
    if not 0 <= split <= n:
        raise ShapeError(f"split must lie in [0, {n}], got {split}")
    u = resolve_gram_factors(a, factors, tol)
    d = rep_dim(u.shape[1])
    mats = np.zeros((n, d, d), dtype=complex)
    write_combinations(u, mats, scale=1.0 / math.sqrt(d))
    return FormBFactorization(mats[:split], mats[split:])


def to_form_c(fb: FormBFactorization) -> MatrixFactorization:
    """Rescale a form-b factorization to involutions plus the weight I/sqrt(d)."""
    d = fb.dim
    scale = math.sqrt(d)
    k = np.eye(d, dtype=complex) / scale
    return MatrixFactorization(fb.a_mats * scale, fb.b_mats * scale, k)


def _weigh(k: np.ndarray, mats: np.ndarray, right: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """K M (M K with `right`) for each M of a (m, d, d) stack.

    A monomial K with real entries, such as a diagonal one, gathers and
    scales rows (columns) of each M (linalg.sandwich); any other K is
    multiplied in.
    """
    return sandwich(None, mats, k, out=out) if right else sandwich(k, mats, None, out=out)


def recover_correlation(mf: MatrixFactorization, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Correlation matrix realized by a factorization.

    Each K X_i (and Y_j K) is vectorized and split into real and imaginary
    parts, giving real unit vectors whose Gram matrix is returned.  The
    family is formed by two batched matmuls (row or column scalings when K
    is diagonal) into one stack, whose complex rows viewed as interleaved
    real vectors go through one real GEMM.  Zero columns add nothing to it:
    from d = GATHER_MIN_DIM, when at most half of the columns hold a nonzero
    (a family on the chain support keeps (L+1)/d of them), the GEMM runs
    over those columns alone.  A diagonal K then scales the places where
    some X_i or Y_j is nonzero alone, as linalg.sandwich would, and the rest
    of the family is never formed.
    """
    k = as_matrix(mf.k)
    d = k.shape[0]
    x, y = as_stack(mf.x_mats, "X family", d), as_stack(mf.y_mats, "Y family", d)
    n = x.shape[0]
    flat = None
    weight = _monomial(k) if d >= GATHER_MIN_DIM else None
    if weight is not None and weight[0] is None:
        xf, yf = x.reshape(n, d * d), y.reshape(len(y), d * d)
        places = np.flatnonzero(xf.any(axis=0) | yf.any(axis=0))
        if 2 * places.size <= d * d:
            rows, cols = np.divmod(places, d)
            scaled = (np.take(xf, places, axis=1) * weight[1][rows], np.take(yf, places, axis=1) * weight[1][cols])
            flat = np.concatenate(scaled).view(float)
    if flat is None:
        family = np.empty((n + y.shape[0], d, d), dtype=complex)
        _weigh(k, x, out=family[:n])
        _weigh(k, y, right=True, out=family[n:])
        flat = family.reshape(family.shape[0], d * d).view(float)
    if d >= GATHER_MIN_DIM:
        cols = np.flatnonzero(flat.any(axis=0))
        if cols.size <= d * d:
            flat = flat[:, cols]
    g = gram(flat)
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


def _pauli_deviations(
    first: np.ndarray, second: np.ndarray, e: np.ndarray, weight: float, square: float
) -> tuple[float, float] | None:
    """Upper bounds on the Gram deviation of (w F_p) against e over p <= q, F being
    `first` then `second`, and on max|F_p^2 - square I|, from Pauli coordinates.

    The Gram bound is clifford.pauli_gram scaled by w^2, the square bound
    clifford.pauli_square_bounds.  None when d is not a power of two >= 2.
    """
    fits = [pauli_coordinates(f) for f in (first, second)]
    if None in fits:
        return None
    coords, delta, _ = (np.concatenate(parts) for parts in zip(*fits))
    gram, slack = pauli_gram(coords, delta, first.shape[-1])
    gram_dev = float(np.max(np.triu(np.abs(weight**2 * gram - e) + weight**2 * slack), initial=0.0))
    return gram_dev, float(np.max(pauli_square_bounds(coords, delta, square), initial=0.0))


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

    The Gram and involution checks are first judged from bounds taken in
    Pauli coordinates (_pauli_deviations), when K is a multiple w I of the
    identity (always in mode "b-form", with w = 1).  That report stands only
    when every check passes; otherwise the dense checks decide, so a pass is
    a proof and a failure is the dense report.  Densely, the Gram family is
    formed by batched matmuls (K X, Y K or K Y over the stacks; gathers and
    scalings for a monomial K, see _weigh) and compared with e over p <= q
    through one GEMM per block of the vectorized stacks; the involution
    checks square each stack in chunked batched products.
    """
    a = _require_symmetric(e, tol, "target")
    if mode not in ("i", "i-prime", "b-form"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "b-form" and not isinstance(fact, FormBFactorization):
        raise ShapeError("mode 'b-form' verifies a form-b factorization")
    if mode != "b-form" and not isinstance(fact, MatrixFactorization):
        raise ShapeError(f"mode {mode!r} verifies a weighted factorization")
    n, m = fact.sizes
    if a.shape[0] != n + m:
        raise ShapeError(f"target size {a.shape[0]} does not match family size {n + m}")
    if mode == "b-form":
        d = fact.dim
        first, second = as_stack(fact.a_mats, "A family", d), as_stack(fact.b_mats, "B family", d)
        weight, square, inv_name, checks = 1.0, 1.0 / d, "scaled_involutions", ()
    else:
        k = as_matrix(fact.k)
        first, second = as_stack(fact.x_mats, "X family", fact.dim), as_stack(fact.y_mats, "Y family", fact.dim)
        scalar = k.size and np.array_equal(k, k[0, 0] * np.eye(k.shape[0]))
        weight, square, inv_name = (abs(complex(k[0, 0])) if scalar else None), 1.0, "involutions"
        herm_dev = float(hermitian_deviations(k[None])[0])
        min_eig = float(eigenvalue_bounds(k[None])[0][0])
        trace_dev = abs(float(np.trace(k @ k).real) - 1.0)
        checks = (
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

    def report(gram_dev: float, inv_dev: float) -> VerificationReport:
        return VerificationReport(
            (
                CheckResult("gram_reconstruction", gram_dev <= tol.eq_tol, gram_dev),
                CheckResult(inv_name, inv_dev <= tol.eq_tol, inv_dev),
            )
            + checks
        )

    bounds = None if weight is None else _pauli_deviations(first, second, a, weight, square)
    fast = None if bounds is None else report(*bounds)
    if fast is not None and fast.passed:
        return fast
    if mode == "b-form":
        gram_dev = _hs_gram_deviation(first, second, a)
    else:
        gram_dev = _hs_gram_deviation(_weigh(k, first), _weigh(k, second, right=mode == "i"), a)
    inv_dev = max(float(np.max(square_deviations(f, square), initial=0.0)) for f in (first, second))
    return report(gram_dev, inv_dev)


def _pauli_identity_deviations(
    mats: np.ndarray, block: np.ndarray, mus: np.ndarray, rows, cols
) -> tuple[float, float] | None:
    """Upper bounds on the two identity checks from the Pauli coordinates of the family.

    S = sum_i mu_i M_i has the coordinates sum_i mu_i c_i, and its residual
    sum_i mu_i R_i has entries at most sum_i |mu_i| max|R_i| and Frobenius
    norm at most sum_i |mu_i| delta_i; clifford.pauli_anticommutators bounds
    max|S^2 - (mu^T A mu) I| (as the pair (S, S)) and each
    max|M_i M_j + M_j M_i - 2 A_ij I|.  None when d is not a power of two >= 2.
    """
    fit = pauli_coordinates(mats)
    if fit is None:
        return None
    coords, delta, resid = fit
    # each sum S_t joins the family after its k members and is paired with itself
    k, weights = len(coords), np.abs(mus)
    trial = np.arange(k, k + len(mus))
    bounds = pauli_anticommutators(
        np.concatenate([coords, mus @ coords]),
        np.concatenate([delta, weights @ delta]),
        np.concatenate([resid, weights @ resid]),
        np.concatenate([rows, trial]),
        np.concatenate([cols, trial]),
        2.0 * np.concatenate([block[rows, cols], np.einsum("ti,ij,tj->t", mus, block, mus)]),
    )
    return float(np.max(bounds[rows.size :], initial=0.0)) / 2.0, float(np.max(bounds[: rows.size], initial=0.0))


def _dense_identity_deviations(
    mats: np.ndarray, block: np.ndarray, mus: np.ndarray, rows, cols
) -> tuple[float, float]:
    """The two identity checks by batched products: the sums sum_i mu_i M_i are one
    tensordot per chunk of trials, and the pairs are formed in chunked batched products.
    The worst deviation is one np.max over all of them, so a NaN is reported, not dropped."""
    rand_devs = np.zeros(len(mus))
    for part in chunks(len(mus), mats[0:1].nbytes):
        s = np.tensordot(mus[part], mats, axes=1)
        shift = np.einsum("ti,ij,tj->t", mus[part], block, mus[part])
        rand_devs[part] = identity_deviations(s @ s, shift[:, None])
    pair_devs = anticommutator_deviations(mats, rows, cols, 2.0 * block[rows, cols])
    return float(np.max(rand_devs, initial=0.0)), float(np.max(pair_devs, initial=0.0))


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
    directions are drawn at once (the same stream as one draw per trial).
    Both checks are first judged from bounds taken in Pauli coordinates
    (_pauli_identity_deviations); that report stands only when both pass,
    and otherwise the batched products decide (_dense_identity_deviations),
    so a pass is a proof and a failure is the dense report.
    """
    block = _require_symmetric(a, tol, "block")
    mats = as_stack(x_mats, "involutions")
    if mats.shape[0] != block.shape[0]:
        raise ShapeError(f"block size {block.shape[0]} does not match family size {mats.shape[0]}")
    k = mats.shape[0]
    rng = np.random.default_rng(seed)
    mus = rng.standard_normal((max(trials, 0), k))
    rows, cols = np.triu_indices(k)

    def report(dev_rand: float, dev_pair: float) -> VerificationReport:
        return VerificationReport(
            (
                CheckResult(
                    "random_direction_identity",
                    dev_rand <= tol.eq_tol,
                    dev_rand,
                    note=f"{trials} trials",
                ),
                CheckResult("pairwise_anticommutators", dev_pair <= tol.eq_tol, dev_pair),
            )
        )

    bounds = _pauli_identity_deviations(mats, block, mus, rows, cols)
    fast = None if bounds is None else report(*bounds)
    if fast is not None and fast.passed:
        return fast
    return report(*_dense_identity_deviations(mats, block, mus, rows, cols))


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
