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
    Family,
    PauliFamily,
    chain_family,
    family_fit,
    held,
    irreducible_dim,
    pauli_gram,
    pauli_square_bounds,
    rep_dim,
    unspent,
)
from .elliptope import _psd_spectrum, _require_unit_diagonal, extremality, factored_correlation
from .errors import InconsistentSumsError, ShapeError, ZeroSumError
from .factorization import MatrixFactorization
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    chunks,
    eigenvalue_bounds,
    hermitian_deviations,
    hs_gram,
    rank_mask,
    require_budget,
    sandwich,
    sorted_eigh,
    square_deviations,
)
from .report import CheckResult, VerificationReport, decide


@dataclass(frozen=True)
class CpsdFactorization:
    """Hermitian psd factors indexed by (row index, outcome).

    mats has shape (n, 2, d, d); outcome +1 is stored at [:, 0] and outcome
    -1 at [:, 1], matching the witness row convention.  A built family holds
    a clifford.PauliFamily, made dense on the first read of mats
    (clifford.Family).
    """

    mats: np.ndarray = Family()

    @property
    def n(self) -> int:
        return int(np.shape(held(self, "mats"))[0])

    @property
    def dim(self) -> int:
        return int(np.shape(held(self, "mats"))[-1])

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
    attains the bound for rank >= 2 and is 2 at rank 1.  hadamard_rank is
    rank(C o C), which the rank test compares with binomial(rank + 1, 2).
    """

    rank: int
    is_extreme: bool
    lower_bound: int | None
    construction_dim: int
    hadamard_rank: int


def build_pc(c, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Assemble the 2n x 2n outcome-block witness of a correlation matrix.

    Row (i, a) maps to index 2i + (0 if a = +1 else 1), zero-based i.  The
    four entries of every block sum to one exactly: the block holds
    (1 + c)/4 and its complement to 1/2, and the complement subtraction is
    exact because the larger of the two lies in [1/4, 1/2].  The psd check
    reads the kept sorted_eigh spectrum of c (elliptope._psd_spectrum), the
    one its other checks and builders cut.  The witness is written as the
    four strided blocks of an (n, 2, n, 2) array.
    """
    a = _require_unit_diagonal(c, tol, "matrix")
    _psd_spectrum(a, tol)
    plus = (1.0 + a) / 4.0
    minus = (1.0 - a) / 4.0
    hi = np.maximum(plus, minus)
    lo = 0.5 - hi
    n = a.shape[0]
    out = np.empty((n, 2, n, 2))
    out[:, 0, :, 0] = out[:, 1, :, 1] = np.where(a >= 0.0, hi, lo)
    out[:, 0, :, 1] = out[:, 1, :, 0] = np.where(a >= 0.0, lo, hi)
    return out.reshape(2 * n, 2 * n)


def build_cpsd_factorization(
    c,
    *,
    factors=None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CpsdFactorization:
    """Generator-based psd-factor family for the witness of c.

    With unit Gram factors u_i of rank r, the factors are
    (I + a G(u_i)) / (2 sqrt(d)) at d = 2^floor(r/2) (d = 2 for r = 1); their
    trace inner products equal (1 + a b c_ij) / 4 entrywise.  The factors are
    the interleaved rows (u_i, -u_i) of clifford.chain_family, kept as their
    Pauli coordinates from d = GATHER_MIN_DIM on.
    """
    a, u = factored_correlation(c, factors, tol, unit=True)
    n, d = a.shape[0], rep_dim(u.shape[1])
    rows = np.empty((2 * n, u.shape[1]))
    rows[0::2], rows[1::2] = u, -u
    return CpsdFactorization(chain_family(rows, (n, 2), c0=1.0, scale=1.0 / (2.0 * math.sqrt(d))))


def _outcome_sum_check(mats: np.ndarray, mirror: np.ndarray | None) -> tuple[np.ndarray, float]:
    """Mean outcome sum K = mean_i (P^i_+ + P^i_-) and max_i |P^i_+ + P^i_- - K| of an (n, 2, m)
    family of flattened factors: the m = d^2 entries of each (_flat_factors), or the two diagonal
    values of each held factor (_held_diagonal), K then being the two values of its diagonal.

    With `mirror`, the place of each place's transpose, K is Hermitized first,
    (K + K^*)/2.  No (n, m) stack of sums is built: each chunk of sums is
    added up in index order by np.add.reduce, its first member having taken
    the running total, so K is bit-identical to sums.mean(axis=0) for m >= 2.
    (numpy reduces the leading axis of a C-ordered array member by member; in
    another layout it may sum pairwise, so the chunk is C-ordered.)  The
    deviation takes a second pass, a chunk of indices at a time, K subtracted
    in place: both passes form their sums in one C-ordered chunk buffer.
    """
    parts = chunks(len(mats), mats[0:1, 0].nbytes)
    buf = np.empty((parts[0].stop if parts else 0,) + mats.shape[2:], dtype=mats.dtype)
    total = None
    for p in parts:
        sums = np.add(mats[p, 0], mats[p, 1], out=buf[: p.stop - p.start])
        if total is not None:
            sums[0] += total
        total = np.add.reduce(sums, axis=0)
    mean_sum = total / len(mats)
    if mirror is not None:
        mean_sum = (mean_sum + mean_sum[mirror].conj()) / 2.0
    devs = []
    for p in parts:
        sums = np.add(mats[p, 0], mats[p, 1], out=buf[: p.stop - p.start])
        sums = np.subtract(sums, mean_sum, out=sums if sums.dtype == mean_sum.dtype else None)
        devs.append(np.max(np.abs(sums), initial=0.0))
    return mean_sum, float(np.max(devs))


def _flat_factors(f: CpsdFactorization) -> np.ndarray:
    """The factors flattened to an (n, 2, d^2) array of all their entries.  Raises ShapeError on
    an empty family, whose outcome sums have no mean."""
    n, d = f.n, f.dim
    if n == 0:
        raise ShapeError(f"cpsd family must be a nonempty (n, 2, d, d) stack, got {np.shape(held(f, 'mats'))}")
    return f.mats.reshape(n, 2, d * d)


def _transposed(flat: np.ndarray, d: int) -> np.ndarray:
    """The flat index b*d + a of the transpose of each place a*d + b."""
    return flat % d * d + flat // d


def _z_parity(d: int) -> np.ndarray:
    """For each index a < d, 0 where the diagonal of the Z chain, (-1)^popcount(a), is +1 and 1
    where it is -1."""
    parity = np.zeros(1, dtype=np.intp)
    for _ in range(d.bit_length() - 1):
        parity = np.concatenate([parity, 1 - parity])
    return parity


def _held_diagonal(family, n: int) -> np.ndarray | None:
    """The (n, 2, 2) diagonal values of a nonempty family of factors held as coordinates whose
    outcome sums are exact zeros off the diagonal, at a place where the Z chain is +1 and at one
    where it is -1, with the bits chain_products gives them there; None otherwise.

    That is an unspent PauliFamily of shape (n, 2, d, d) with finite coordinates and finite
    scaled X and Y terms, and whose sums c_i+ + c_i- are exactly zero off the I and Z columns,
    as build_cpsd_factorization makes them.  Off the diagonal only the X and Y chains of one
    slot are nonzero, with entries +-1 and +-i, so each part of a value is one exact product
    +-c, and every scale rounds c and -c alike: the two factors of a pair are negatives there,
    and their sum is zero.  On the diagonal only I and the Z chain are nonzero, Z's entry at
    (a, a) being (-1)^popcount(a): a factor takes two values there, each one rounding of
    c_0 +- c_Z, then one per scale.  So the outcome sums and their mean are read from these two
    values per factor, in O(n) at any d, and spread to the d diagonal places by _z_parity.
    """
    if not (n and unspent(family) and family.lead == (n, 2)):
        return None
    coords = family.coords
    top = float(np.max(np.abs(coords[:, 1:-1]), initial=0.0))
    for scale in family.scales:
        top *= abs(float(scale))
    if not (np.isfinite(coords).all() and math.isfinite(top)) or (coords[0::2, 1:-1] + coords[1::2, 1:-1]).any():
        return None
    values = np.zeros((2 * n, 2), dtype=complex)
    values.real = coords[:, :1] + coords[:, -1:] * np.array([1.0, -1.0])
    for scale in family.scales:
        values *= scale
    return values.reshape(n, 2, 2)


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


def _pauli_deviations(family, mat: np.ndarray) -> tuple[float, float, float] | None:
    """Upper bounds on the Hermitian and entry deviations and a lower bound on the least
    eigenvalue of a (..., d, d) family of factors, from their Pauli coordinates
    (clifford.family_fit).

    Each factor is M = M' + R with M' Hermitian, ||R||_F = delta and
    max|R| = resid: max|M - M^*| <= 2 resid; by Weyl's inequality the least
    eigenvalue of (M + M^*)/2 is at least c_0 - ||c|| - delta; entries are
    bounded by clifford.pauli_gram.  None when d is not a power of two >= 2.
    """
    fit = family_fit(family)
    if fit is None:
        return None
    coords, delta, resid = fit
    gram, slack = pauli_gram(coords, delta, family.shape[-1])
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
    family and are tight for a generator-built one: a family held as its
    coordinates (an unspent clifford.PauliFamily) is fitted from them alone,
    any other from its stack (clifford.pauli_coordinates).  That report
    stands only when every check passes; otherwise the dense checks
    (_dense_deviations) decide, so a pass is a proof and a failure is the
    dense report.  The outcome sums and Tr(K^2) are measured once, and both
    reports take them: a held family whose sums are exact zeros off the
    diagonal (_held_diagonal) from its two diagonal values per factor, with
    its dense copy's bits, and any other family over all d^2 entries a chunk
    at a time, so each temporary stays near linalg.CHUNK_BYTES.
    """
    mat = as_matrix(p, "witness")
    n = f.n
    if mat.shape != (2 * n, 2 * n):
        raise ShapeError(f"witness shape {mat.shape} does not match family size {(2 * n, 2 * n)}")

    def report(herm_dev, min_eig, entry_dev, sum_dev, trace_dev) -> VerificationReport:
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

    def stack() -> np.ndarray:
        return f.mats.reshape(2 * n, f.dim, f.dim)

    mats = held(f, "mats")
    with np.errstate(invalid="ignore"):  # a non-finite factor fails the report, quietly
        # first, so that a held family is fitted from its coordinates even when its sums read it densely
        fast = _pauli_deviations(mats, mat)
        diagonal = _held_diagonal(mats, n)
        mean_sum, sum_dev = _outcome_sum_check(_flat_factors(f) if diagonal is None else diagonal, None)
        if diagonal is None:
            k = mean_sum.reshape(f.dim, f.dim)
            trace = np.trace(k @ k)
        else:  # K is diagonal: its two values spread to the d places, summed as np.trace sums them
            k = mean_sum[_z_parity(f.dim)]
            trace = np.sum(k * k)
        checks = (sum_dev, abs(float(trace.real) - 1.0))
        return decide(report, None if fast is None else fast + checks, lambda: _dense_deviations(stack(), mat) + checks)


def certify_lower_bound(c, tol: ToleranceConfig = DEFAULT_TOL) -> CpsdRankCertificate:
    """Dimension lower-bound certificate for the witness of c.

    Runs the extremality rank test; when it passes, every psd-factor family
    of the witness has size at least 2^floor(rank/2).  The certificate also
    records the dimension of the generator construction, which attains the
    bound for rank >= 2.  For non-extreme input no bound is claimed.

    The construction is not built: its dimension follows from the column
    count of the factors build_cpsd_factorization would use, validated the
    same way (same errors), so memory stays O(n^2).  One sorted_eigh of c
    gives the psd check, rank(c) and those factors, so lower_bound and
    construction_dim stand on one rank; one eigvalsh gives rank(c o c).
    Both are the spectra the other checks and builders of c share
    (elliptope._spectra).
    """
    a, u = factored_correlation(c, tol=tol, unit=True)
    ext = extremality(a, tol)
    lower = irreducible_dim(ext.rank) if ext.is_extreme else None
    return CpsdRankCertificate(ext.rank, ext.is_extreme, lower, rep_dim(u.shape[1]), ext.hadamard_rank)


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
    sources do).  The restriction and conjugation run over chunks of the
    factor stack, each one call of linalg.sandwich with the support basis:
    when K is already diagonal the basis is a column selection of I, which
    sandwich gathers when it is a square permutation, and no basis at all
    when the selection keeps every column in place; any other basis is
    multiplied in.  A family held as its coordinates (an unspent
    clifford.PauliFamily) whose outcome sums are exact zeros off the
    diagonal, as build_cpsd_factorization makes them (_held_diagonal), takes
    K and its check from the two diagonal values of each factor, as
    verify_cpsd_factorization does, with a dense copy's bits and no (n, d)
    array, K spread to the d places by the Z chain's parity; when K is then a
    multiple k I, X is the PauliFamily of the coordinates (c+ - c-)/k, c the
    factors' scaled coordinates, with the fit and values every held family
    has (PauliFamily.fit, chain_products): no chain value of the factors is
    formed and no Pauli table is built.  Any
    other family is dense: K and its check take all d^2 entries of every
    factor, X is formed by the restriction above, and X's Pauli coordinates
    are measured from its stack (clifford.pauli_coordinates).
    The report is report.decide's: its involutions deviation is the bound
    clifford.pauli_square_bounds when the report then passes; otherwise, or
    when the size is not a power of two >= 2, it is the batched squares'
    (linalg.square_deviations).
    """
    n, d = f.n, f.dim
    family = held(f, "mats")
    diagonal = _held_diagonal(family, n)
    if diagonal is None:
        work, mirror = _flat_factors(f), _transposed(np.arange(d * d), d)
    else:  # every outcome sum is an exact zero off the diagonal, and so is K
        work, mirror = diagonal, np.arange(2)
    with np.errstate(invalid="ignore"):  # a non-finite factor raises below, without warnings
        mean_sum, sum_dev = _outcome_sum_check(work, mirror)
    if not sum_dev <= tol.eq_tol:  # a non-finite factor gives a non-finite deviation
        raise InconsistentSumsError(f"outcome sums differ across indices by {sum_dev:.3e}")
    if diagonal is None:
        mean_sum = mean_sum.reshape(d, d)
        diag = np.diag(mean_sum)
        off_diagonal = float(np.max(np.abs(mean_sum - np.diag(diag)), initial=0.0))
    else:
        diag, off_diagonal = mean_sum[_z_parity(d)], 0.0

    if off_diagonal <= tol.eq_tol:
        # already diagonal, so finite: keep the coordinate basis, where the
        # support basis is a column selection of I that literally strips
        # padded rows and columns
        order = np.argsort(-diag.real, kind="stable")
        w, u = diag.real[order], None
    else:
        order = None
        w, u = sorted_eigh(mean_sum)
    if w.size == 0 or w[0] <= 0.0:
        raise ZeroSumError("common outcome sum is numerically zero")
    keep = rank_mask(w, tol)
    lam = w[keep]
    inv_sqrt = 1.0 / np.sqrt(lam)
    s = lam.size
    require_budget(16 * s * s, f"a weight of size {s}")
    in_place = order is not None and np.array_equal(order[keep], np.arange(d))

    if in_place and diagonal is not None:
        # K = k I: its diagonal takes one value where the Z chain is +1 and one where it is -1,
        # which lie in descending order only when equal.  X = (P+ - P-)/k, held as its coordinates.
        c = family.coordinates()
        x_mats = PauliFamily(inv_sqrt[0] * inv_sqrt[0] * (c[0::2] - c[1::2]), d, (n,))
        fit = x_mats.fit()
    else:
        scaling = np.outer(inv_sqrt, inv_sqrt)
        basis = None if in_place else (np.eye(d, dtype=complex)[:, order[keep]] if u is None else u[:, keep])
        bh = None if in_place else basis.conj().T
        x_mats = np.zeros((n, s, s), dtype=complex)
        for part in chunks(n, f.mats[0:1, 0].nbytes):
            plus = sandwich(bh, f.mats[part, 0], basis)
            # X accumulates in place, in the products' own arithmetic: a real product in X's real
            # part, whose imaginary part stays zero
            x = x_mats[part] if np.iscomplexobj(plus) else x_mats[part].real
            np.multiply(plus, scaling, out=x)
            del plus  # before the minus product: one chunk-sized temporary at a time
            x -= sandwich(bh, f.mats[part, 1], basis) * scaling
            x += np.conjugate(x.swapaxes(-1, -2))
            x_mats[part] /= 2.0
        fit = family_fit(x_mats)
    trace_dev = abs(float(np.sum(lam**2)) - 1.0)

    def report(inv_dev: float) -> VerificationReport:
        return VerificationReport(
            (
                CheckResult(
                    "involutions",
                    inv_dev <= tol.eq_tol,
                    inv_dev,
                    note="squares strictly below identity indicate a sub-unit factor system",
                ),
                CheckResult("weight_trace_normalized", trace_dev <= tol.eq_tol, trace_dev),
                CheckResult("outcome_sums_consistent", True, sum_dev),
                CheckResult("support_dimension", True, 0.0, note=f"restricted {f.dim} -> {s}", value=s),
            )
        )

    bound = None if fit is None else (float(np.max(pauli_square_bounds(fit[0], fit[1], 1.0), initial=0.0)),)
    mf = MatrixFactorization(x_mats, x_mats, np.diag(lam.astype(complex)))
    return mf, decide(report, bound, lambda: (float(np.max(square_deviations(mf.x_mats), initial=0.0)),))
