"""Witness matrices with 2x2 outcome blocks, their psd-factor families, and
dimension lower-bound certificates.

A correlation matrix C of size n induces a 2n x 2n witness: block (i, j)
equals [[1+c_ij, 1-c_ij], [1-c_ij, 1+c_ij]] / 4 with rows inside each
block indexed by outcomes +1 then -1.  Unit Gram factors u_i of C give the
explicit factor family (I + a G(u_i)) / (2 sqrt(d)), a in {+1, -1}, which
realizes every witness entry as a trace inner product.  When C is extreme
of rank r, every psd-factor family for the witness must have size at least
2^floor(r/2); the construction attains that bound for r >= 2 (rank 1 uses
size 2 while the bound is 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import (
    irreducible_dim,
    pauli_coordinates,
    pauli_gram,
    pauli_square_bounds,
    rep_dim,
    write_combinations,
)
from .elliptope import check_extreme, require_correlation, resolve_gram_factors
from .errors import InconsistentSumsError, ShapeError, ZeroSumError
from .factorization import MatrixFactorization
from .linalg import (
    DEFAULT_TOL,
    GATHER_MIN_DIM,
    ToleranceConfig,
    as_matrix,
    chunks,
    eigenvalue_bounds,
    hermitian_deviations,
    hs_gram,
    sorted_eigh,
    square_deviations,
)
from .report import CheckResult, VerificationReport


@dataclass(frozen=True)
class CpsdFactorization:
    """Hermitian psd factors indexed by (row index, outcome).

    mats has shape (n, 2, d, d); outcome +1 is stored at [:, 0] and outcome
    -1 at [:, 1], matching the witness row convention.
    """

    mats: np.ndarray

    @property
    def n(self) -> int:
        return int(self.mats.shape[0])

    @property
    def dim(self) -> int:
        return int(self.mats.shape[-1])

    def factor(self, i: int, outcome: int) -> np.ndarray:
        if outcome not in (1, -1):
            raise ValueError(f"outcome must be +1 or -1, got {outcome}")
        return self.mats[i, 0 if outcome == 1 else 1]

    def outcome_sums(self) -> np.ndarray:
        return self.mats[:, 0] + self.mats[:, 1]


@dataclass(frozen=True)
class CpsdRankCertificate:
    """Dimension lower bound for psd-factor families of a witness.

    The bound 2^floor(rank/2) applies only when the source correlation
    matrix is extreme; otherwise lower_bound is None.  construction_dim is
    the size of the generator-based factorization actually built, which
    attains the bound for rank >= 2 and is 2 at rank 1.
    """

    rank: int
    is_extreme: bool
    lower_bound: int | None
    construction_dim: int


def build_pc(c, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Assemble the 2n x 2n outcome-block witness of a correlation matrix.

    Row (i, a) maps to index 2i + (0 if a = +1 else 1), zero-based i.  The
    four entries of every block sum to one exactly: the block holds
    (1 + c)/4 and its complement to 1/2, and the complement subtraction is
    exact because the larger of the two lies in [1/4, 1/2].
    """
    a = require_correlation(c, tol)
    plus = (1.0 + a) / 4.0
    minus = (1.0 - a) / 4.0
    hi = np.maximum(plus, minus)
    lo = 0.5 - hi
    plus = np.where(a >= 0.0, hi, lo)
    minus = np.where(a >= 0.0, lo, hi)
    return np.kron(plus, np.eye(2)) + np.kron(minus, np.array([[0.0, 1.0], [1.0, 0.0]]))


def build_cpsd_factorization(
    c,
    *,
    factors=None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CpsdFactorization:
    """Generator-based psd-factor family for the witness of c.

    With unit Gram factors u_i of rank r, the factors are
    (I + a G(u_i)) / (2 sqrt(d)) at d = 2^floor(r/2) (d = 2 for r = 1); their
    trace inner products equal (1 + a b c_ij) / 4 entrywise.  Each factor is
    written on the chain support alone (clifford.write_combinations), the
    outcome -1 from the coefficients -u_i.
    """
    a = require_correlation(c, tol)
    u = resolve_gram_factors(a, factors, tol, unit=True)
    d = rep_dim(u.shape[1])
    mats = np.zeros((a.shape[0], 2, d, d), dtype=complex)
    scale = 1.0 / (2.0 * math.sqrt(d))
    write_combinations(u, mats[:, 0], c0=1.0, scale=scale)
    write_combinations(-u, mats[:, 1], c0=1.0, scale=scale)
    return CpsdFactorization(mats)


def _outcome_sum_check(mats: np.ndarray, mirror: np.ndarray | None) -> tuple[np.ndarray, float]:
    """Mean outcome sum K = mean_i (P^i_+ + P^i_-) and max_i |P^i_+ + P^i_- - K| of an (n, 2, m)
    family of flattened factors: the m = d^2 entries of each, or the places _flat_family keeps.

    With `mirror`, the place of each place's transpose, K is Hermitized first,
    (K + K^*)/2.  No (n, m) stack of sums is built: each chunk of sums is
    added up in index order by np.add.reduce, its first member having taken
    the running total, so K is bit-identical to sums.mean(axis=0) for d >= 2.
    (numpy reduces the leading axis of a C-ordered array member by member; in
    another layout it may sum pairwise, so the chunk is made C-ordered.)  The
    deviation takes a second pass, a chunk of indices at a time.
    """
    parts = chunks(len(mats), mats[0:1, 0].nbytes)
    total = None
    for p in parts:
        sums = np.add(mats[p, 0], mats[p, 1], order="C")
        if total is not None:
            sums[0] += total
        total = np.add.reduce(sums, axis=0)
    mean_sum = total / len(mats)
    if mirror is not None:
        mean_sum = (mean_sum + mean_sum[mirror].conj()) / 2.0
    devs = [np.max(np.abs(mats[p, 0] + mats[p, 1] - mean_sum), initial=0.0) for p in parts]
    return mean_sum, float(np.max(devs))


def _flat_family(f: CpsdFactorization) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The factors flattened to an (n, 2, m) array, the places a*d + b they keep (None: all d^2)
    and the position within them of each place's transpose.

    From d = GATHER_MIN_DIM, when at most half of the d^2 places hold a
    nonzero bit in some factor (so -0.0 counts) or are the transpose of one
    that does, only those places are kept: every factor is +0.0 at every
    other place, and so are its sums, means, scaled differences and
    Hermitian parts, so work on the places alone loses nothing.  A
    chain-built family keeps the (L+1) d places of clifford._pauli_tables.
    """
    n, d = f.n, f.dim
    flat = f.mats.reshape(n, 2, d * d)
    mirror = np.arange(d * d).reshape(d, d).T.ravel()
    if d < GATHER_MIN_DIM:
        return flat, None, mirror
    words = np.ascontiguousarray(flat).reshape(-1, d * d)
    hit = words.view(np.int64).any(axis=0).reshape(d, d, -1).any(axis=2)
    places = np.flatnonzero(hit | hit.T)
    if 2 * places.size > d * d:
        return flat, None, mirror
    index = np.empty(d * d, dtype=np.intp)
    index[places] = np.arange(places.size)
    return np.take(flat, places, axis=2), places, index[mirror[places]]


def _unflatten(values: np.ndarray, places: np.ndarray | None, d: int) -> np.ndarray:
    """The d x d matrix holding a flattened one's entries at its places (None: all d^2), +0.0 elsewhere."""
    if places is None:
        return values.reshape(d, d)
    out = np.zeros(d * d, dtype=values.dtype)
    out[places] = values
    return out.reshape(d, d)


def _dense_deviations(stack: np.ndarray, mat: np.ndarray) -> tuple[float, float, float]:
    """Hermitian deviation, least eigenvalue and entry deviation of a (2n, d, d) factor stack, densely.

    The entry check is max|F F^* - p| for F the vectorized factors, one GEMM
    (linalg.hs_gram); hermiticity and positivity are chunked passes
    (linalg.hermitian_deviations, linalg.eigenvalue_bounds).
    """
    herm_dev = float(np.max(hermitian_deviations(stack), initial=0.0))
    min_eig = float(np.min(eigenvalue_bounds(stack)[0], initial=math.inf))
    entry_dev = float(np.max(np.abs(hs_gram(stack) - mat), initial=0.0))
    return herm_dev, min_eig, entry_dev


def _pauli_deviations(stack: np.ndarray, mat: np.ndarray) -> tuple[float, float, float] | None:
    """Upper bounds on the Hermitian and entry deviations and a lower bound on the least
    eigenvalue, from the Pauli coordinates of the factors (clifford.pauli_coordinates).

    Each factor is M = M' + R with M' Hermitian, ||R||_F = delta and
    max|R| = resid: max|M - M^*| <= 2 resid; by Weyl's inequality the least
    eigenvalue of (M + M^*)/2 is at least c_0 - ||c|| - delta; entries are
    bounded by clifford.pauli_gram.  None when d is not a power of two >= 2.
    """
    fit = pauli_coordinates(stack)
    if fit is None:
        return None
    coords, delta, resid = fit
    gram, slack = pauli_gram(coords, delta, stack.shape[-1])
    herm_dev = 2.0 * float(np.max(resid, initial=0.0))
    min_eig = float(np.min(coords[:, 0] - np.linalg.norm(coords[:, 1:], axis=1) - delta, initial=math.inf))
    entry_dev = float(np.max(np.abs(gram - mat) + slack, initial=0.0))
    return herm_dev, min_eig, entry_dev


def verify_cpsd_factorization(
    p,
    f: CpsdFactorization,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> VerificationReport:
    """Check a psd-factor family against a 2n x 2n witness entrywise.

    Verifies hermiticity and positivity of every factor, the entry identity
    p[(i,a),(j,b)] = Tr(P^i_a P^j_b), consistency of the per-index outcome
    sums, and the normalization Tr(K^2) = 1 of the common sum K.

    Hermiticity, positivity and the entries are first judged from bounds
    taken in Pauli coordinates (_pauli_deviations), which hold for every
    family and are tight for a generator-built one.  That report stands only
    when every check passes; otherwise the dense checks (_dense_deviations)
    decide, so a pass is a proof and a failure is the dense report.  The
    outcome sums are compared a chunk at a time, at the places _flat_family
    keeps, so each temporary stays near linalg.CHUNK_BYTES.
    """
    mat = as_matrix(p, "witness")
    n = f.n
    if mat.shape != (2 * n, 2 * n):
        raise ShapeError(f"witness shape {mat.shape} does not match family size {(2 * n, 2 * n)}")

    d = f.dim
    stack = f.mats.reshape(2 * n, d, d)
    work, places, _ = _flat_family(f)
    with np.errstate(invalid="ignore"):  # a non-finite factor fails the report, quietly
        mean_sum, sum_dev = _outcome_sum_check(work, None)
        mean_sum = _unflatten(mean_sum, places, d)
        trace_dev = abs(float(np.trace(mean_sum @ mean_sum).real) - 1.0)

    def report(herm_dev: float, min_eig: float, entry_dev: float) -> VerificationReport:
        return VerificationReport(
            (
                CheckResult("factors_hermitian", herm_dev <= tol.eq_tol, herm_dev),
                CheckResult(
                    "factors_psd",
                    min_eig >= -tol.psd_tol,
                    max(0.0, -min_eig),
                    note=f"min eigenvalue {min_eig:.6g}",
                ),
                CheckResult("entry_reconstruction", entry_dev <= tol.eq_tol, float(entry_dev)),
                CheckResult("outcome_sums_consistent", sum_dev <= tol.eq_tol, sum_dev),
                CheckResult("sum_trace_normalized", trace_dev <= tol.eq_tol, trace_dev),
            )
        )

    with np.errstate(invalid="ignore"):
        bounds = _pauli_deviations(stack, mat)
        fast = None if bounds is None else report(*bounds)
        return fast if fast is not None and fast.passed else report(*_dense_deviations(stack, mat))


def certify_lower_bound(c, tol: ToleranceConfig = DEFAULT_TOL) -> CpsdRankCertificate:
    """Dimension lower-bound certificate for the witness of c.

    Runs the extremality rank test; when it passes, every psd-factor family
    of the witness has size at least 2^floor(rank/2).  The certificate also
    records the dimension of the generator construction, which attains the
    bound for rank >= 2.  For non-extreme input no bound is claimed.

    The construction is not built: its dimension follows from the column
    count of the factors build_cpsd_factorization would use, validated the
    same way (same errors), so memory stays O(n^2).
    """
    ext = check_extreme(c, tol)
    u = resolve_gram_factors(require_correlation(c, tol), tol=tol, unit=True)
    lower = irreducible_dim(ext.rank) if ext.is_extreme else None
    return CpsdRankCertificate(ext.rank, ext.is_extreme, lower, rep_dim(u.shape[1]))


def extract_matrix_factorization(
    f: CpsdFactorization,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[MatrixFactorization, VerificationReport]:
    """Turn a psd-factor family into a weighted factorization of the doubled completion.

    Procedure: form the common outcome sum K and check it is independent of
    the row index; diagonalize K and restrict every factor to its support
    (this is the size-optimality reduction, applied unconditionally); then
    conjugate by K^{-1/2} and take signed differences
    X_i = P~^i_{+1} - P~^i_{-1}.  Returns the X family used on both sides
    (one array serves as X and as Y) together with the restricted diagonal
    weight, plus diagnostics: each X_i^2 is at most I, with equality exactly
    when the source correlation matrix forces unit factor norms (extreme
    sources do).  The restriction and conjugation are batched matmuls over
    chunks of the factor stack; when K is already diagonal the support basis
    is a column selection of I and the restriction is a gather instead, or
    nothing at all when the selection keeps every column in place.  K and
    its check take the places _flat_family keeps alone (a chain-built family
    keeps (L+1)/d of them), and so does X when the restriction is the
    identity: the result has the same bits.  The involutions check is
    decided by the bound clifford.pauli_square_bounds when that passes;
    otherwise, or when the size is not a power of two >= 2, the batched
    squares (linalg.square_deviations) decide.
    """
    n, d = f.n, f.dim
    work, places, mirror = _flat_family(f)
    with np.errstate(invalid="ignore"):  # a non-finite factor raises below, without warnings
        mean_sum, sum_dev = _outcome_sum_check(work, mirror)
    if not sum_dev <= tol.eq_tol:  # a non-finite factor gives a non-finite deviation
        raise InconsistentSumsError(f"outcome sums differ across indices by {sum_dev:.3e}")
    mean_sum = _unflatten(mean_sum, places, d)

    diag = np.diag(mean_sum)
    if float(np.max(np.abs(mean_sum - np.diag(diag)), initial=0.0)) <= tol.eq_tol:
        # already diagonal, so finite: keep the coordinate basis, where the
        # support basis is a column selection of I and restriction a gather
        # that literally strips padded rows and columns
        order = np.argsort(-diag.real, kind="stable")
        w = diag.real[order]
    else:
        order = None
        w, u = sorted_eigh(mean_sum)
    if w.size == 0 or w[0] <= 0.0:
        raise ZeroSumError("common outcome sum is numerically zero")
    keep = w > tol.rank_tol * w[0]
    lam = w[keep]
    inv_sqrt = 1.0 / np.sqrt(lam)
    scaling = np.outer(inv_sqrt, inv_sqrt)
    s = lam.size
    in_place = order is not None and np.array_equal(order[keep], np.arange(d))

    if in_place and places is not None:
        # every coordinate stays in place: X is formed at the kept places alone, into an
        # output allocated before the temporaries, so that they are freed above it
        x_mats = np.zeros((n, d, d), dtype=complex)
        x_flat = x_mats.reshape(n, d * d)
        scale = scaling.ravel()[places]
        for part in chunks(n, work[0:1, 0].nbytes):
            x = work[part, 0] * scale
            x -= work[part, 1] * scale
            hermitian = x[:, mirror]
            np.conjugate(hermitian, out=hermitian)
            hermitian += x
            hermitian /= 2.0
            x_flat[part, places] = hermitian
    else:
        if order is None:
            basis = u[:, keep]
            bh = basis.conj().T

            def restrict(m: np.ndarray) -> np.ndarray:
                return bh @ m @ basis

        elif in_place:

            def restrict(m: np.ndarray) -> np.ndarray:
                return m

        else:
            idx = order[keep]

            def restrict(m: np.ndarray) -> np.ndarray:
                return m[:, idx[:, None], idx]

        x_mats = np.empty((n, s, s), dtype=complex)
        for part in chunks(n, f.mats[0:1, 0].nbytes):
            x = restrict(f.mats[part, 0]) * scaling
            x -= restrict(f.mats[part, 1]) * scaling
            np.add(x, x.conj().swapaxes(-1, -2), out=x_mats[part])
            x_mats[part] /= 2.0
    fit = pauli_coordinates(x_mats)
    inv_dev = math.nan if fit is None else float(np.max(pauli_square_bounds(fit[0], fit[1], 1.0), initial=0.0))
    if not inv_dev <= tol.eq_tol:
        inv_dev = float(np.max(square_deviations(x_mats), initial=0.0))

    k_restricted = np.diag(lam.astype(complex))
    trace_dev = abs(float(np.sum(lam**2)) - 1.0)
    checks = (
        CheckResult(
            "involutions",
            inv_dev <= tol.eq_tol,
            inv_dev,
            note="squares strictly below identity indicate a sub-unit factor system",
        ),
        CheckResult("weight_trace_normalized", trace_dev <= tol.eq_tol, trace_dev),
        CheckResult("outcome_sums_consistent", True, sum_dev),
        CheckResult(
            "support_dimension",
            True,
            0.0,
            note=f"restricted {f.dim} -> {s}",
            value=s,
        ),
    )
    mf = MatrixFactorization(x_mats, x_mats, k_restricted)
    return mf, VerificationReport(checks)
