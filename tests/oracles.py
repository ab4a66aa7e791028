"""Loop reference implementations of the batched verifiers and constructions.

Each function here is the per-entry or per-matrix loop that the library
replaced with array expressions (one GEMM of the vectorized stacks, one
batched eigensolve, chunked batched products).  They are kept verbatim in
behaviour: same checks, notes, tolerances and random draws.  Tests compare
the library against them; nothing in ``corrfact`` imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from corrfact.clifford import gamma_generators, gamma_of_vector
from corrfact.cpsd import CpsdFactorization
from corrfact.elliptope import _require_symmetric, gram_factors, require_correlation
from corrfact.errors import (
    InconsistentSumsError,
    InvariantViolationError,
    NonUnitVectorError,
    ShapeError,
    ZeroSumError,
)
from corrfact.factorization import FormBFactorization, MatrixFactorization, _mat_stack
from corrfact.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    gram,
    hs_inner,
    require_hermitian,
    sorted_eigh,
    vec,
    vec_inv,
)
from corrfact.quantum import TensorProductRep, maximally_entangled
from corrfact.report import CheckResult, VerificationReport


def build_cpsd_factorization(c, *, factors=None, tol: ToleranceConfig = DEFAULT_TOL) -> CpsdFactorization:
    a = require_correlation(c, tol)
    if factors is None:
        u = gram_factors(a, tol)
    else:
        u = np.asarray(factors, dtype=float)
        if u.ndim != 2 or u.shape[0] != a.shape[0]:
            raise ShapeError(f"expected {a.shape[0]} factor rows, got shape {u.shape}")
        dev = float(np.max(np.abs(gram(u) - a)))
        if dev > max(tol.eq_tol, 1e-12):
            raise InvariantViolationError(f"supplied factors miss the matrix by {dev:.3e}")
    norm_dev = float(np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)))
    if norm_dev > tol.eq_tol:
        raise NonUnitVectorError(f"factor rows must be unit vectors, worst deviation {norm_dev:.3e}")
    rep = gamma_generators(u.shape[1])
    d = rep.rep_dim
    eye = np.eye(d, dtype=complex)
    scale = 1.0 / (2.0 * math.sqrt(d))
    mats = np.empty((a.shape[0], 2, d, d), dtype=complex)
    for i, row in enumerate(u):
        g = gamma_of_vector(rep, row)
        mats[i, 0] = (eye + g) * scale
        mats[i, 1] = (eye - g) * scale
    return CpsdFactorization(mats)


def verify_cpsd_factorization(p, f: CpsdFactorization, tol: ToleranceConfig = DEFAULT_TOL):
    mat = as_matrix(p, "witness")
    n = f.n
    if mat.shape != (2 * n, 2 * n):
        raise ShapeError(f"witness shape {mat.shape} does not match family size {(2 * n, 2 * n)}")

    herm_dev = 0.0
    min_eig = math.inf
    for i in range(n):
        for o in range(2):
            factor = f.mats[i, o]
            herm_dev = max(herm_dev, float(np.max(np.abs(factor - factor.conj().T))))
            w = np.linalg.eigvalsh((factor + factor.conj().T) / 2.0)
            min_eig = min(min_eig, float(w[0]))

    entry_dev = 0.0
    for i in range(n):
        for oa in range(2):
            for j in range(n):
                for ob in range(2):
                    target = mat[2 * i + oa, 2 * j + ob]
                    entry_dev = max(entry_dev, abs(hs_inner(f.mats[i, oa], f.mats[j, ob]) - target))

    sums = f.outcome_sums()
    mean_sum = sums.mean(axis=0)
    sum_dev = float(np.max(np.abs(sums - mean_sum), initial=0.0))
    trace_dev = abs(float(np.trace(mean_sum @ mean_sum).real) - 1.0)

    checks = (
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
    return VerificationReport(checks)


def extract_matrix_factorization(f: CpsdFactorization, tol: ToleranceConfig = DEFAULT_TOL):
    sums = f.outcome_sums()
    mean_sum = sums.mean(axis=0)
    mean_sum = (mean_sum + mean_sum.conj().T) / 2.0
    sum_dev = float(np.max(np.abs(sums - mean_sum), initial=0.0))
    if sum_dev > tol.eq_tol:
        raise InconsistentSumsError(f"outcome sums differ across indices by {sum_dev:.3e}")

    diag = np.diag(mean_sum)
    if float(np.max(np.abs(mean_sum - np.diag(diag)), initial=0.0)) <= tol.eq_tol:
        w = diag.real.copy()
        u = np.eye(mean_sum.shape[0], dtype=complex)
        order = np.argsort(-w, kind="stable")
        w = w[order]
        u = u[:, order]
    else:
        w, u = sorted_eigh(mean_sum)
    if w.size == 0 or w[0] <= 0.0:
        raise ZeroSumError("common outcome sum is numerically zero")
    keep = w > tol.rank_tol * w[0]
    lam = w[keep]
    basis = u[:, keep]
    inv_sqrt = 1.0 / np.sqrt(lam)
    scaling = np.outer(inv_sqrt, inv_sqrt)

    n = f.n
    s = lam.size
    eye = np.eye(s)
    x_mats = np.empty((n, s, s), dtype=complex)
    inv_dev = 0.0
    for i in range(n):
        plus = basis.conj().T @ f.mats[i, 0] @ basis * scaling
        minus = basis.conj().T @ f.mats[i, 1] @ basis * scaling
        x = plus - minus
        x = (x + x.conj().T) / 2.0
        x_mats[i] = x
        inv_dev = max(inv_dev, float(np.max(np.abs(x @ x - eye))))

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
        CheckResult("support_dimension", True, 0.0, note=f"restricted {f.dim} -> {s}", value=s),
    )
    return MatrixFactorization(x_mats, x_mats.copy(), k_restricted), VerificationReport(checks)


def factorize_clifford(e, split: int | None = None, *, factors=None, tol: ToleranceConfig = DEFAULT_TOL):
    a = require_correlation(e, tol)
    n = a.shape[0]
    if split is None:
        split = n
    if factors is None:
        u = gram_factors(a, tol)
    else:
        u = np.asarray(factors, dtype=float)
    rep = gamma_generators(u.shape[1])
    scale = 1.0 / math.sqrt(rep.rep_dim)
    mats = np.stack([gamma_of_vector(rep, row) * scale for row in u])
    return FormBFactorization(mats[:split], mats[split:])


def recover_correlation(mf: MatrixFactorization, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    k = as_matrix(mf.k)
    vecs = []
    for x in mf.x_mats:
        t = vec(k @ x)
        vecs.append(np.concatenate([t.real, t.imag]))
    for y in mf.y_mats:
        t = vec(y @ k)
        vecs.append(np.concatenate([t.real, t.imag]))
    g = gram(np.vstack(vecs))
    diag_dev = float(np.max(np.abs(np.diag(g) - 1.0)))
    if diag_dev > tol.eq_tol:
        raise InvariantViolationError(
            f"recovered diagonal deviates from one by {diag_dev:.3e}; weight or involutions invalid"
        )
    return g


def _hs_gram_deviation(family: list[np.ndarray], e: np.ndarray) -> float:
    dev = 0.0
    for p, fp in enumerate(family):
        for q in range(p, len(family)):
            dev = max(dev, abs(hs_inner(fp, family[q]) - e[p, q]))
    return float(dev)


def verify_factorization(e, fact, tol: ToleranceConfig = DEFAULT_TOL, mode: str = "i") -> VerificationReport:
    a = _require_symmetric(e, tol, "target")
    if mode == "b-form":
        n, m = fact.sizes
        family = [fact.a_mats[i] for i in range(n)] + [fact.b_mats[j] for j in range(m)]
        gram_dev = _hs_gram_deviation(family, a)
        d = fact.dim
        eye_over_d = np.eye(d) / d
        inv_dev = max((float(np.max(np.abs(f @ f - eye_over_d))) for f in family), default=0.0)
        checks = (
            CheckResult("gram_reconstruction", gram_dev <= tol.eq_tol, gram_dev),
            CheckResult("scaled_involutions", inv_dev <= tol.eq_tol, inv_dev),
        )
        return VerificationReport(checks)

    n, m = fact.sizes
    k = as_matrix(fact.k)
    if mode == "i":
        family = [k @ fact.x_mats[i] for i in range(n)] + [fact.y_mats[j] @ k for j in range(m)]
    else:
        family = [k @ fact.x_mats[i] for i in range(n)] + [k @ fact.y_mats[j] for j in range(m)]
    gram_dev = _hs_gram_deviation(family, a)

    eye = np.eye(fact.dim)
    inv_dev = 0.0
    for mat in list(fact.x_mats) + list(fact.y_mats):
        inv_dev = max(inv_dev, float(np.max(np.abs(mat @ mat - eye))))

    herm_dev = float(np.max(np.abs(k - k.conj().T), initial=0.0))
    w = np.linalg.eigvalsh((k + k.conj().T) / 2.0)
    min_eig = float(w[0])
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


def verify_clifford_identity(a, x_mats, trials: int = 100, seed=None, tol: ToleranceConfig = DEFAULT_TOL):
    block = _require_symmetric(a, tol, "block")
    mats = _mat_stack(x_mats, "involutions")
    d = mats.shape[-1]
    eye = np.eye(d)
    rng = np.random.default_rng(seed)
    dev_rand = 0.0
    for _ in range(trials):
        mu = rng.standard_normal(block.shape[0])
        s = np.tensordot(mu, mats, axes=1)
        dev_rand = max(dev_rand, float(np.max(np.abs(s @ s - float(mu @ block @ mu) * eye))))
    dev_pair = 0.0
    for i in range(mats.shape[0]):
        for j in range(i, mats.shape[0]):
            anti = mats[i] @ mats[j] + mats[j] @ mats[i]
            dev_pair = max(dev_pair, float(np.max(np.abs(anti - 2.0 * block[i, j] * eye))))
    checks = (
        CheckResult("random_direction_identity", dev_rand <= tol.eq_tol, dev_rand, note=f"{trials} trials"),
        CheckResult("pairwise_anticommutators", dev_pair <= tol.eq_tol, dev_pair),
    )
    return VerificationReport(checks)


def verify_clifford_relations(mats, tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    arr = np.asarray(mats, dtype=complex)
    for idx in range(arr.shape[0]):
        require_hermitian(arr[idx], tol, what=f"generator {idx + 1}")
    k, d = arr.shape[0], arr.shape[1]
    eye = np.eye(d)

    dev_sq = 0.0
    worst_sq = 0
    for i in range(k):
        dev = float(np.max(np.abs(arr[i] @ arr[i] - eye)))
        if dev > dev_sq:
            dev_sq, worst_sq = dev, i
    dev_anti = 0.0
    worst_pair = None
    for i in range(k):
        for j in range(i + 1, k):
            dev = float(np.max(np.abs(arr[i] @ arr[j] + arr[j] @ arr[i])))
            if dev > dev_anti:
                dev_anti, worst_pair = dev, (i + 1, j + 1)
    checks = (
        CheckResult(
            "generators_square_to_identity",
            dev_sq <= tol.eq_tol,
            dev_sq,
            note=f"worst generator {worst_sq + 1}",
        ),
        CheckResult(
            "distinct_pairs_anticommute",
            dev_anti <= tol.eq_tol,
            dev_anti,
            note=f"worst pair {worst_pair}" if worst_pair else "no distinct pairs",
        ),
    )
    return VerificationReport(checks)


def eval_correlations(rep: TensorProductRep, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    n, m = rep.sizes
    out = np.empty((n, m))
    residue = 0.0
    if rep.psi is not None:
        w = vec_inv(rep.psi, rep.local_dim)
        wc = w.conj().T
        for i in range(n):
            left = rep.alice_obs[i] @ w
            for j in range(m):
                val = complex(np.trace(left @ rep.bob_obs[j].T @ wc))
                residue = max(residue, abs(val.imag))
                out[i, j] = val.real
    else:
        rho = rep.rho
        for i in range(n):
            for j in range(m):
                val = complex(np.trace(np.kron(rep.alice_obs[i], rep.bob_obs[j]) @ rho))
                residue = max(residue, abs(val.imag))
                out[i, j] = val.real
    if residue > tol.eq_tol:
        raise InvariantViolationError(f"imaginary residue {residue:.3e} exceeds eq_tol")
    return out


def build_tensor_rep(c, sys, tol: ToleranceConfig = DEFAULT_TOL) -> TensorProductRep:
    rows, cols = sys.row_vectors, sys.col_vectors
    stacked = np.vstack([rows, cols])
    _, svals, vh = np.linalg.svd(stacked)
    r = int(np.count_nonzero(svals > tol.rank_tol * svals[0]))
    basis = vh[:r]
    row_coords = rows @ basis.T
    col_coords = cols @ basis.T

    rep = gamma_generators(r)
    alice = np.stack([gamma_of_vector(rep, u) for u in row_coords])
    bob = np.stack([gamma_of_vector(rep, v).T for v in col_coords])
    return TensorProductRep(alice, bob, psi=maximally_entangled(rep.rep_dim))
