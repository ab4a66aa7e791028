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
    Family,
    PauliFamily,
    as_dense,
    as_family,
    chain_family,
    family_fit,
    held,
    pauli_anticommutators,
    pauli_gram,
    pauli_square_bounds,
    rep_dim,
    unspent,
)
from .elliptope import _require_symmetric, factored_correlation
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
    chunks,
    eigenvalue_bounds,
    gram,
    hermitian_deviations,
    hs_gram,
    identity_deviations,
    identity_multiple,
    rank_mask,
    require_budget,
    sandwich,
    sorted_eigh,
    square_deviations,
)
from .report import CheckResult, VerificationReport, decide


@dataclass(frozen=True)
class FormBFactorization:
    """Hermitian families with A_i^2 = B_j^2 = I/d whose HS Gram matrix is the source.

    A built family holds a clifford.PauliFamily, made dense on the first read
    of a_mats or b_mats (clifford.Family).
    """

    a_mats: np.ndarray = Family()
    b_mats: np.ndarray = Family()

    @property
    def dim(self) -> int:
        return int(np.shape(held(self, "a_mats"))[-1])

    @property
    def sizes(self) -> tuple[int, int]:
        return int(np.shape(held(self, "a_mats"))[0]), int(np.shape(held(self, "b_mats"))[0])


@dataclass(frozen=True)
class MatrixFactorization:
    """Hermitian involutions X_i, Y_j with a positive-definite weight K, Tr(K^2) = 1.

    A built family holds a clifford.PauliFamily, made dense on the first read
    of x_mats or y_mats (clifford.Family); X and Y may be one holder, and then
    read as one array.
    """

    x_mats: np.ndarray = Family()
    y_mats: np.ndarray = Family()
    k: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.k.shape[-1])

    @property
    def sizes(self) -> tuple[int, int]:
        return int(np.shape(held(self, "x_mats"))[0]), int(np.shape(held(self, "y_mats"))[0])


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
    2^floor(r/2) for rank r >= 2 and 2 for rank 1.  From d = GATHER_MIN_DIM
    on, each family is kept as its Pauli coordinates (clifford.chain_family).
    """
    a, u = factored_correlation(e, factors, tol)
    n = a.shape[0]
    if split is None:
        split = n
    if not 0 <= split <= n:
        raise ShapeError(f"split must lie in [0, {n}], got {split}")
    mats = chain_family(u, (n,), scale=1.0 / math.sqrt(rep_dim(u.shape[1])))
    return FormBFactorization(mats[:split], mats[split:])


def to_form_c(fb: FormBFactorization) -> MatrixFactorization:
    """Rescale a form-b factorization to involutions plus the weight I/sqrt(d).

    An unspent PauliFamily of coordinates takes the scale as one more factor
    of its values: every other entry is +0.0, which the positive scale keeps,
    so its dense stack has the bits of the rescaled dense one.
    """
    d = fb.dim
    scale = math.sqrt(d)
    require_budget(16 * d * d, f"a weight of size {d}")
    k = np.eye(d, dtype=complex) / scale

    def rescaled(mats):
        if unspent(mats):
            return PauliFamily(mats.coords, d, mats.lead, mats.scales + (scale,))
        return as_dense(mats) * scale

    return MatrixFactorization(rescaled(held(fb, "a_mats")), rescaled(held(fb, "b_mats")), k)


def recover_correlation(mf: MatrixFactorization, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Correlation matrix realized by a factorization.

    Each K X_i (and Y_j K) is vectorized and split into real and imaginary
    parts, giving real unit vectors whose Gram matrix is returned.  When K is
    a multiple k I of the identity and both X and Y are unspent
    clifford.PauliFamily holders, that Gram matrix is |k|^2 d C C^T for C
    their coordinates (Tr(M'_p M'_q) = d c_p . c_q), and no value is formed;
    its entries may differ from the GEMM of the values in the last bits.
    Otherwise the family is dense, and is formed by two batched matmuls (row
    or column scalings when K is diagonal, linalg.sandwich) into one stack,
    whose complex rows viewed as interleaved real vectors, all d^2 entries
    of each, go through one real GEMM.
    """
    k = as_matrix(mf.k)
    d = k.shape[0]
    x, y = as_family(held(mf, "x_mats"), "X family", d), as_family(held(mf, "y_mats"), "Y family", d)
    n = x.shape[0]
    scalar = identity_multiple(k) if unspent(x) and unspent(y) else None
    if scalar is not None:
        coords = x.coordinates()
        g = gram(np.concatenate((coords, coords if y is x else y.coordinates()))) * (abs(scalar) ** 2 * d)
        return _unit_diagonal(g, tol)
    x, y = as_dense(x), as_dense(y)
    family = np.empty((n + y.shape[0], d, d), dtype=complex)
    sandwich(k, x, out=family[:n])
    sandwich(None, y, k, out=family[n:])
    return _unit_diagonal(gram(family.reshape(family.shape[0], d * d).view(float)), tol)


def _unit_diagonal(g: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """A recovered Gram matrix, refused when its diagonal misses one by more than eq_tol."""
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
    `first` then `second`, and on max|F_p^2 - square I|, from Pauli coordinates
    (clifford.family_fit).

    The Gram bound is clifford.pauli_gram scaled by w^2, the square bound
    clifford.pauli_square_bounds.  None when d is not a power of two >= 2.
    """
    fits = [family_fit(f) for f in (first, second)]
    if None in fits:
        return None
    coords, delta, _ = (np.concatenate(parts) for parts in zip(*fits))
    gram, slack = pauli_gram(coords, delta, first.shape[-1])
    gram_dev = float(np.max(np.triu(np.abs(weight**2 * gram - e) + weight**2 * slack), initial=0.0))
    return gram_dev, float(np.max(pauli_square_bounds(coords, delta, square), initial=0.0))


def _weight_deviations(k: np.ndarray, scalar) -> tuple[float, float, float]:
    """max|K - K^*|, the least eigenvalue of (K + K^*)/2 and |Tr(K^2) - 1| of a weight K.

    When K is a float64 or complex128 c I for a real c (identity_multiple) of moderate size,
    these are 0, c and |d fl(c^2) - 1|, with the bits of the dense checks: (K + K^*)/2 is
    c I, whose eigenvalue LAPACK returns as it is (it rescales a matrix only when its norm
    lies outside about [1e-146, 1e146]); each diagonal entry of K^2 is the one product c c,
    and the d of them are summed as np.trace sums a diagonal.  Otherwise one Hermitian
    deviation pass, one eigvalsh and one product K K.
    """
    real = scalar is not None and k.dtype in (np.float64, np.complex128) and np.isreal(scalar)
    if real and 1e-100 <= abs(scalar) <= 1e100:
        c = float(np.real(scalar))
        return 0.0, c, abs(float(np.full(k.shape[0], c * c, dtype=k.dtype).sum().real) - 1.0)
    herm_dev = float(hermitian_deviations(k[None])[0])
    min_eig = float(eigenvalue_bounds(k[None])[0][0])
    return herm_dev, min_eig, abs(float(np.trace(k @ k).real) - 1.0)


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
    scalings for a monomial K, see linalg.sandwich) and compared with e over
    p <= q through one GEMM per block of the vectorized stacks; the
    involution checks square each stack in chunked batched products.  The
    weight checks of a K = c I take no eigensolve (_weight_deviations).
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
        first, second = as_family(held(fact, "a_mats"), "A family", d), as_family(held(fact, "b_mats"), "B family", d)
        k, weight, square, inv_name, checks = None, 1.0, 1.0 / d, "scaled_involutions", ()
    else:
        k = as_matrix(fact.k)
        d = fact.dim
        first, second = as_family(held(fact, "x_mats"), "X family", d), as_family(held(fact, "y_mats"), "Y family", d)
        scalar = identity_multiple(k)
        weight, square, inv_name = (None if scalar is None else abs(complex(scalar))), 1.0, "involutions"
        herm_dev, min_eig, trace_dev = _weight_deviations(k, scalar)
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

    def dense() -> tuple[float, float]:
        left, right = (None, k) if mode == "i" else (k, None)
        x, y = as_dense(first), as_dense(second)
        gram_dev = _hs_gram_deviation(sandwich(k, x), sandwich(left, y, right), a)
        inv_dev = max(float(np.max(square_deviations(f, square), initial=0.0)) for f in (x, y))
        return gram_dev, inv_dev

    bounds = None if weight is None else _pauli_deviations(first, second, a, weight, square)
    return decide(report, bounds, dense)


def _pauli_identity_deviations(
    mats: np.ndarray, block: np.ndarray, mus: np.ndarray, rows, cols
) -> tuple[float, float] | None:
    """Upper bounds on the two identity checks from the Pauli coordinates of the family
    (clifford.family_fit).

    S = sum_i mu_i M_i has the coordinates sum_i mu_i c_i, and its residual
    sum_i mu_i R_i has entries at most sum_i |mu_i| max|R_i| and Frobenius
    norm at most sum_i |mu_i| delta_i; clifford.pauli_anticommutators bounds
    max|S^2 - (mu^T A mu) I| (as the pair (S, S)) and each
    max|M_i M_j + M_j M_i - 2 A_ij I|.  None when d is not a power of two >= 2.
    """
    fit = family_fit(mats)
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


def _require_block_family(a, x_mats, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric block A and the (k, d, d) family of involutions it describes, k being its size:
    a held clifford.PauliFamily as it is (clifford.as_family), anything else as a complex stack."""
    block = _require_symmetric(a, tol, "block")
    mats = as_family(x_mats, "involutions")
    if mats.shape[0] != block.shape[0]:
        raise ShapeError(f"block size {block.shape[0]} does not match family size {mats.shape[0]}")
    return block, mats


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
    The family may be a held clifford.PauliFamily, such as a leading slice
    held(mf, "x_mats")[:r] of a built one; its dense stack is built only when
    the bounds do not decide.  Both checks are first judged from bounds taken
    in Pauli coordinates (_pauli_identity_deviations); that report stands
    only when both pass, and otherwise the batched products decide
    (_dense_identity_deviations), so a pass is a proof and a failure is the
    dense report.  A negative
    `trials` raises ShapeError: the directions form a (trials, k) array.
    """
    if trials < 0:
        raise ShapeError(f"trials must be a non-negative number of directions, got {trials}")
    block, mats = _require_block_family(a, x_mats, tol)
    k = mats.shape[0]
    rng = np.random.default_rng(seed)
    mus = rng.standard_normal((trials, k))
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

    return decide(
        report,
        _pauli_identity_deviations(mats, block, mus, rows, cols),
        lambda: _dense_identity_deviations(as_dense(mats), block, mus, rows, cols),
    )


def orthonormalize_generators(a, x_mats, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Transform involutions with anticommutators 2 A_ij I to canonical generators.

    With A = sum_k w_k u_k u_k^T positive definite, the combinations
    X'_k = w_k^{-1/2} sum_i u_k(i) X_i anticommute exactly pairwise.
    """
    block, mats = _require_block_family(a, x_mats, tol)
    mats = as_dense(mats)
    w, u = sorted_eigh(block)
    if w.size and w[-1] < -tol.psd_tol:
        raise NotPsdError(f"block has eigenvalue {w[-1]:.3e}")
    if not (w.size and rank_mask(w, tol).all()):
        raise SingularMatrixError("block is numerically singular")
    out = []
    for k in range(w.size):
        out.append(np.tensordot(u[:, k], mats, axes=1) / math.sqrt(w[k]))
    return np.stack(out)
