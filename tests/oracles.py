"""Loop reference implementations of the batched verifiers and constructions,
and of the matrix and bundle file codec.

Each function here is the per-entry or per-matrix loop that the library
replaced with array expressions (one GEMM of the vectorized stacks, one
batched eigensolve, chunked batched products).  They are kept verbatim in
behaviour: same checks, notes, tolerances and random draws.  The matio
section is the per-entry JSON codec and the five hand-written save/load
pairs that ``matio.BUNDLES`` replaced; the files it writes are the format's
reference bytes.  The contract section holds the inline Hermitian and
eigenvalue checks, the stack coercions and the validators that the
``linalg`` contract helpers replaced.  The dense sections hold the batched
dense verifiers, extraction and Clifford checks that the Pauli-coordinate
fast paths now precede.  The tensordot section holds the builders that formed
every generator combination densely before they were written on the chain
support, with the loops of ``sorted_eigh`` and of the mean outcome sum, and
the Pauli projection with a residual pass over every entry.  The last
section but six holds the one-product-at-a-time chain build, the Pauli-table
product that bounded anticommutators and the dense weight checks; the last
but five holds extraction on the values of every factor and the row-by-row
Schmidt phases; the last but four holds the readers that took a dense family
proven zero off the chain support from its values there, with the scan and the
compact fit of the Pauli projection; the last but three holds extraction as it
formed X and compared the outcome sums in chunk temporaries of their own; the
last but two holds the holder that gave a held extraction's X values replayed
from the factors' values, with the helpers that formed them; the last but one
holds the distance of chain values from their coordinates and their Gram
matrix in exact arithmetic, with the Gram slack that took no underflow; the
last holds the verifier that bounded a held family's outcome sums by hand, and
the d diagonal values a held extraction formed per factor.
Tests compare the library against them; nothing in ``corrfact`` imports
this module.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import partial, reduce
from pathlib import Path

import numpy as np

from corrfact.clifford import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    UNIT_ROUNDOFF,
    CliffordRep,
    PauliFamily,
    _pauli_tables,
    _support_fit,
    as_dense,
    as_family,
    chain_products,
    family_fit,
    gamma_generators,
    gamma_of_vector,
    held,
    max_entries,
    pauli_gram,
    pauli_square_bounds,
    rep_dim,
    unspent,
)
from corrfact.cpsd import (
    CpsdFactorization,
    _dense_deviations,
    _flat_factors,
    _outcome_sum_check,
    _transposed,
)
from corrfact.elliptope import factored_correlation, gram_factors, require_correlation
from corrfact.errors import (
    InconsistentSumsError,
    InvariantViolationError,
    MatrixFormatError,
    NonUnitVectorError,
    NotHermitianError,
    NotSymmetricError,
    ShapeError,
    ZeroSumError,
)
from corrfact.factorization import FormBFactorization, MatrixFactorization
from corrfact.linalg import (
    DEFAULT_TOL,
    GATHER_MIN_DIM,
    SchmidtDecomposition,
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
    hs_inner,
    identity_deviations,
    identity_multiple,
    rank_mask,
    require_budget,
    sandwich,
    scatter_columns,
    sorted_eigh,
    square_deviations,
    vec,
    vec_inv,
)
from corrfact.quantum import TensorProductRep, maximally_entangled
from corrfact.report import CheckResult, VerificationReport, decide


# ------------------------------------------------------------ contracts


def hermitian_deviation(a) -> float:
    """The inline max|A - A^*| (max|A - A^T| for real A) of the validators."""
    return float(np.max(np.abs(a - a.conj().T), initial=0.0))


def eigenvalue_extremes(a) -> tuple[float, float]:
    """The inline least and largest eigenvalue of (A + A^*)/2."""
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return float(w[0]), float(w[-1])


def require_hermitian(m, tol: ToleranceConfig = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    a = as_matrix(m, what)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {a.shape}")
    dev = float(np.max(np.abs(a - a.conj().T), initial=0.0))
    if dev > tol.eq_tol:
        raise NotHermitianError(f"{what} deviates from Hermitian by {dev:.3e}")
    return a


def is_psd(m, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    a = require_hermitian(m, tol)
    if a.size == 0:
        return True
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return bool(w[0] >= -tol.psd_tol)


def check_observable(h, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, float]:
    a = require_hermitian(h, tol, what="observable")
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    top = float(np.max(np.abs(w))) if w.size else 0.0
    return top <= 1.0 + tol.psd_tol, top


def check_membership(e, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    a = _require_symmetric(e, tol)
    if float(np.max(np.abs(np.diag(a) - 1.0))) > tol.eq_tol:
        return False
    w = np.linalg.eigvalsh((a + a.T) / 2.0)
    return bool(w[0] >= -tol.psd_tol)


def _hermitian_psd_deviation(stack: np.ndarray) -> tuple[float, float]:
    herm_dev = 0.0
    min_eig = math.inf
    for block in stack:
        adj = block.conj().T
        herm_dev = max(herm_dev, float(np.max(np.abs(block - adj))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh((block + adj) / 2.0)[0]))
    return herm_dev, min_eig


def _as_stack(mats, d: int) -> np.ndarray:
    arr = np.asarray(mats, dtype=complex)
    return arr.reshape(0, d, d) if arr.size == 0 else arr


def _require_symmetric(m, tol: ToleranceConfig, what: str = "matrix") -> np.ndarray:
    a = as_matrix(m, what)
    if a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"{what} must be square, got shape {a.shape}")
    if np.iscomplexobj(a):
        if a.size and float(np.max(np.abs(a.imag))) > tol.eq_tol:
            raise NotSymmetricError(f"{what} must be real symmetric, has complex entries")
        a = a.real
    dev = float(np.max(np.abs(a - a.T), initial=0.0))
    if dev > tol.eq_tol:
        raise NotSymmetricError(f"{what} deviates from symmetric by {dev:.3e}")
    return a


def _mat_stack(mats, what: str) -> np.ndarray:
    try:
        arr = np.asarray(mats, dtype=complex)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"{what} must be square matrices of equal size") from exc
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ShapeError(f"{what} must form a (k, d, d) stack, got {arr.shape}")
    return arr


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


# ---------------------------------------------------------------- matio

MANIFEST_NAME = "manifest.json"
BLOCK_ORDER_NOTE = "row of pair (i, a) is 2*(i-1) + (0 if a == +1 else 1), 1-based i"


def matrix_to_obj(m) -> dict:
    a = np.asarray(m)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise MatrixFormatError(f"matrix must be 1-D or 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise MatrixFormatError("matrix contains non-finite entries")
    is_complex = bool(np.iscomplexobj(a))
    if is_complex:
        data = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    else:
        data = [float(x) for x in a.reshape(-1)]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "complex": is_complex, "data": data}


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise MatrixFormatError("matrix object must be a JSON object")
    for key in ("rows", "cols", "complex", "data"):
        if key not in obj:
            raise MatrixFormatError(f"matrix object missing key {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0):
        raise MatrixFormatError(f"rows/cols must be positive integers, got {rows!r}, {cols!r}")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise MatrixFormatError(f"data must hold {rows * cols} entries, got {len(data) if isinstance(data, list) else type(data).__name__}")
    if obj["complex"]:
        out = np.empty(rows * cols, dtype=complex)
        for idx, entry in enumerate(data):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in entry)
            ):
                raise MatrixFormatError(f"data[{idx}] must be a [re, im] pair, got {entry!r}")
            if not all(math.isfinite(part) for part in entry):
                raise MatrixFormatError(f"data[{idx}] is non-finite")
            out[idx] = complex(entry[0], entry[1])
    else:
        out = np.empty(rows * cols, dtype=float)
        for idx, entry in enumerate(data):
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise MatrixFormatError(f"data[{idx}] must be a number, got {entry!r}")
            if not math.isfinite(entry):
                raise MatrixFormatError(f"data[{idx}] is non-finite")
            out[idx] = float(entry)
    return out.reshape(rows, cols)


def write_matrix(path, m) -> None:
    Path(path).write_text(json.dumps(matrix_to_obj(m), allow_nan=False) + "\n", encoding="utf-8")


def read_matrix(path) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8")
    return matrix_from_obj(json.loads(text))


def _write_bundle(dirpath, kind: str, meta: dict, entries: list[tuple[dict, np.ndarray]]) -> None:
    directory = Path(dirpath)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_entries = []
    for info, matrix in entries:
        info = dict(info)
        write_matrix(directory / info["file"], matrix)
        manifest_entries.append(info)
    manifest = {"kind": kind, **meta, "entries": manifest_entries}
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, allow_nan=False) + "\n", encoding="utf-8"
    )


def _read_bundle(dirpath, expected_kind: str | None = None) -> tuple[dict, list[tuple[dict, np.ndarray]]]:
    directory = Path(dirpath)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise MatrixFormatError(f"no {MANIFEST_NAME} in {directory}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict) or "kind" not in manifest or "entries" not in manifest:
        raise MatrixFormatError("manifest must carry 'kind' and 'entries'")
    if expected_kind is not None and manifest["kind"] != expected_kind:
        raise MatrixFormatError(f"expected a {expected_kind} directory, found kind {manifest['kind']!r}")
    loaded = []
    for entry in manifest["entries"]:
        if not isinstance(entry, dict) or "role" not in entry or "file" not in entry:
            raise MatrixFormatError(f"manifest entry missing role/file: {entry!r}")
        loaded.append((entry, read_matrix(directory / entry["file"])))
    return manifest, loaded


def _indexed(entries: list[tuple[dict, np.ndarray]], role: str, count: int, what: str) -> np.ndarray:
    found: dict[int, np.ndarray] = {}
    for info, matrix in entries:
        if info["role"] == role:
            idx = info.get("index")
            if not isinstance(idx, int):
                raise MatrixFormatError(f"{what} entry needs an integer index: {info!r}")
            found[idx] = matrix
    if set(found) != set(range(1, count + 1)):
        raise MatrixFormatError(f"{what} entries must cover indices 1..{count}, got {sorted(found)}")
    return np.stack([found[i] for i in range(1, count + 1)]) if count else np.zeros((0, 0, 0))


def _single(entries: list[tuple[dict, np.ndarray]], role: str, what: str) -> np.ndarray:
    mats = [matrix for info, matrix in entries if info["role"] == role]
    if len(mats) != 1:
        raise MatrixFormatError(f"expected exactly one {what} entry, found {len(mats)}")
    return mats[0]


def save_generators(dirpath, generators: np.ndarray, rank: int) -> None:
    entries = [
        ({"role": "generator", "index": i + 1, "file": f"generator_{i + 1:02d}.json"}, g)
        for i, g in enumerate(generators)
    ]
    _write_bundle(dirpath, "clifford_generators", {"rank": rank, "dim": int(generators.shape[-1])}, entries)


def load_generators(dirpath) -> np.ndarray:
    manifest, entries = _read_bundle(dirpath, "clifford_generators")
    count = sum(1 for info, _ in entries if info["role"] == "generator")
    return _indexed(entries, "generator", count, "generator")


def save_matrix_factorization(dirpath, mf: MatrixFactorization) -> None:
    n, m = mf.sizes
    entries: list[tuple[dict, np.ndarray]] = []
    for i in range(n):
        entries.append(({"role": "x", "index": i + 1, "file": f"x_{i + 1:02d}.json"}, mf.x_mats[i]))
    for j in range(m):
        entries.append(({"role": "y", "index": j + 1, "file": f"y_{j + 1:02d}.json"}, mf.y_mats[j]))
    entries.append(({"role": "k", "file": "k.json"}, mf.k))
    _write_bundle(dirpath, "matrix_factorization", {"dim": mf.dim, "n_x": n, "n_y": m}, entries)


def load_matrix_factorization(dirpath) -> MatrixFactorization:
    manifest, entries = _read_bundle(dirpath, "matrix_factorization")
    n = int(manifest.get("n_x", 0))
    m = int(manifest.get("n_y", 0))
    k = _single(entries, "k", "weight")
    x = _indexed(entries, "x", n, "x")
    y = _indexed(entries, "y", m, "y")
    if m == 0:
        y = np.zeros((0,) + k.shape, dtype=complex)
    return MatrixFactorization(x, y, k)


def save_form_b(dirpath, fb: FormBFactorization) -> None:
    n, m = fb.sizes
    entries: list[tuple[dict, np.ndarray]] = []
    for i in range(n):
        entries.append(({"role": "a", "index": i + 1, "file": f"a_{i + 1:02d}.json"}, fb.a_mats[i]))
    for j in range(m):
        entries.append(({"role": "b", "index": j + 1, "file": f"b_{j + 1:02d}.json"}, fb.b_mats[j]))
    _write_bundle(dirpath, "form_b_factorization", {"dim": fb.dim, "n_a": n, "n_b": m}, entries)


def load_form_b(dirpath) -> FormBFactorization:
    manifest, entries = _read_bundle(dirpath, "form_b_factorization")
    n = int(manifest.get("n_a", 0))
    m = int(manifest.get("n_b", 0))
    a = _indexed(entries, "a", n, "a")
    b = _indexed(entries, "b", m, "b")
    if m == 0:
        b = np.zeros((0,) + a.shape[1:], dtype=complex)
    return FormBFactorization(a, b)


def save_cpsd_factorization(dirpath, f: CpsdFactorization) -> None:
    entries: list[tuple[dict, np.ndarray]] = []
    for i in range(f.n):
        for outcome, tag, slot in ((1, "p", 0), (-1, "m", 1)):
            entries.append(
                (
                    {
                        "role": "psd_factor",
                        "index": i + 1,
                        "outcome": outcome,
                        "file": f"factor_{i + 1:02d}_{tag}.json",
                    },
                    f.mats[i, slot],
                )
            )
    meta = {"n": f.n, "dim": f.dim, "block_order": BLOCK_ORDER_NOTE}
    _write_bundle(dirpath, "cpsd_factorization", meta, entries)


def load_cpsd_factorization(dirpath) -> CpsdFactorization:
    manifest, entries = _read_bundle(dirpath, "cpsd_factorization")
    n = int(manifest.get("n", 0))
    if n < 1:
        raise MatrixFormatError("cpsd manifest must declare n >= 1")
    found: dict[tuple[int, int], np.ndarray] = {}
    for info, matrix in entries:
        if info["role"] != "psd_factor":
            continue
        idx, outcome = info.get("index"), info.get("outcome")
        if not isinstance(idx, int) or outcome not in (1, -1):
            raise MatrixFormatError(f"psd_factor entry needs index and outcome +-1: {info!r}")
        found[(idx, outcome)] = matrix
    expected = {(i, o) for i in range(1, n + 1) for o in (1, -1)}
    if set(found) != expected:
        raise MatrixFormatError("psd_factor entries must cover every (index, outcome) pair")
    d = found[(1, 1)].shape[0]
    mats = np.empty((n, 2, d, d), dtype=complex)
    for i in range(1, n + 1):
        mats[i - 1, 0] = found[(i, 1)]
        mats[i - 1, 1] = found[(i, -1)]
    return CpsdFactorization(mats)


def save_tensor_rep(dirpath, rep: TensorProductRep) -> None:
    n, m = rep.sizes
    entries: list[tuple[dict, np.ndarray]] = []
    for i in range(n):
        entries.append(
            ({"role": "alice_obs", "index": i + 1, "file": f"alice_obs_{i + 1:02d}.json"}, rep.alice_obs[i])
        )
    for j in range(m):
        entries.append(
            ({"role": "bob_obs", "index": j + 1, "file": f"bob_obs_{j + 1:02d}.json"}, rep.bob_obs[j])
        )
    if rep.psi is not None:
        entries.append(({"role": "state_vector", "file": "state.json"}, rep.psi.reshape(-1, 1)))
    else:
        entries.append(({"role": "density", "file": "state.json"}, rep.rho))
    meta = {"local_dim": rep.local_dim, "n_alice": n, "n_bob": m}
    _write_bundle(dirpath, "tensor_product_rep", meta, entries)


def load_tensor_rep(dirpath) -> TensorProductRep:
    manifest, entries = _read_bundle(dirpath, "tensor_product_rep")
    n = int(manifest.get("n_alice", 0))
    m = int(manifest.get("n_bob", 0))
    alice = _indexed(entries, "alice_obs", n, "alice_obs")
    bob = _indexed(entries, "bob_obs", m, "bob_obs")
    if m == 0:
        bob = np.zeros((0,) + alice.shape[1:], dtype=complex)
    vectors = [matrix for info, matrix in entries if info["role"] == "state_vector"]
    densities = [matrix for info, matrix in entries if info["role"] == "density"]
    if len(vectors) + len(densities) != 1:
        raise MatrixFormatError("expected exactly one state entry")
    if vectors:
        return TensorProductRep(alice, bob, psi=vectors[0].reshape(-1))
    return TensorProductRep(alice, bob, rho=densities[0])


# ------------------------------------------------------------ tensordot builders
#
# The builders that formed each generator combination by one tensordot of the
# coefficient rows with the r dense generators, the per-column phase loop of
# sorted_eigh, the index loop of the mean outcome sum and the Pauli projection
# whose residual took every entry of the stack, verbatim but for their names.
# The library writes combinations on the chain support, rotates all
# eigenvectors at once, sums outcome sums a chunk at a time and projects a
# family proven zero off the chain support from its values there, to the same
# bits (the residual norm delta within 1e-15: it is summed over fewer terms).


def _gamma_of_rows(rep: CliffordRep, rows) -> np.ndarray:
    coeffs = np.asarray(rows, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[1] != rep.rank:
        raise ShapeError(f"expected rows of length {rep.rank}, got shape {coeffs.shape}")
    return np.tensordot(coeffs, rep.generators, axes=1)


def tensordot_factorize_clifford(e, split: int | None = None, *, factors=None, tol: ToleranceConfig = DEFAULT_TOL):
    a = require_correlation(e, tol)
    n = a.shape[0]
    if split is None:
        split = n
    if not 0 <= split <= n:
        raise ShapeError(f"split must lie in [0, {n}], got {split}")
    u = factored_correlation(a, factors, tol)[1]
    rep = gamma_generators(u.shape[1])
    mats = _gamma_of_rows(rep, u)
    mats *= 1.0 / math.sqrt(rep.rep_dim)
    return FormBFactorization(mats[:split], mats[split:])


def tensordot_build_cpsd_factorization(c, *, factors=None, tol: ToleranceConfig = DEFAULT_TOL) -> CpsdFactorization:
    a = require_correlation(c, tol)
    u = factored_correlation(a, factors, tol, unit=True)[1]
    rep = gamma_generators(u.shape[1])
    d = rep.rep_dim
    eye = np.eye(d, dtype=complex)
    mats = np.empty((a.shape[0], 2, d, d), dtype=complex)
    for part in chunks(a.shape[0], eye.nbytes):
        g = _gamma_of_rows(rep, u[part])
        np.add(eye, g, out=mats[part, 0])
        np.subtract(eye, g, out=mats[part, 1])
    mats *= 1.0 / (2.0 * math.sqrt(d))
    return CpsdFactorization(mats)


def tensordot_build_tensor_rep(c, sys, tol: ToleranceConfig = DEFAULT_TOL) -> TensorProductRep:
    rows, cols = sys.row_vectors, sys.col_vectors
    stacked = np.vstack([rows, cols])
    _, svals, vh = np.linalg.svd(stacked)
    r = int(np.count_nonzero(svals > tol.rank_tol * svals[0]))
    basis = vh[:r]
    row_coords = rows @ basis.T
    col_coords = cols @ basis.T
    rep = gamma_generators(r)
    alice = _gamma_of_rows(rep, row_coords)
    bob = _gamma_of_rows(rep, col_coords).transpose(0, 2, 1).copy()
    return TensorProductRep(alice, bob, psi=maximally_entangled(rep.rep_dim))


def _full_chain_entries(ell: int) -> tuple[np.ndarray, np.ndarray]:
    pos, table = _pauli_tables(ell)
    where = np.nonzero(table)[1].reshape(table.shape[0], -1)
    conj = np.take_along_axis(table, where, axis=1).conj()
    idx = 2 * pos[where] + (conj.imag != 0)
    sign = conj.real - conj.imag
    return idx, sign


def dense_pauli_coordinates(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    k, d = stack.shape[0], stack.shape[-1]
    ell = d.bit_length() - 1
    if d < 2 or d != 1 << ell:
        return None
    pos, table = _pauli_tables(ell)
    idx, sign = _full_chain_entries(ell)
    flat = stack.reshape(k, d * d)
    coords = np.empty((k, table.shape[0]))
    delta, resid = np.empty(k), np.empty(k)
    for part in chunks(k, d * d * 16):
        block = np.ascontiguousarray(flat[part], dtype=complex)
        terms = block.view(float)[:, idx] * sign
        while terms.shape[-1] > 1:
            half = terms.shape[-1] // 2
            terms = terms[..., :half] + terms[..., half:]
        coords[part] = terms[..., 0] / d
        mags = np.abs(block)
        mags[:, pos] = np.abs(block[:, pos] - coords[part] @ table)
        delta[part] = np.sqrt(np.einsum("ij,ij->i", mags, mags))
        resid[part] = np.max(mags, axis=1, initial=0.0)
    return coords, delta, resid


def sorted_eigh_loop(m) -> tuple[np.ndarray, np.ndarray]:
    a = as_matrix(m)
    w, u = np.linalg.eigh((a + a.conj().T) / 2.0)
    order = np.argsort(-w, kind="stable")
    w = w[order].copy()
    u = u[:, order].copy()
    for k in range(u.shape[1]):
        col = u[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0.0:
            u[:, k] = col * (abs(pivot) / pivot)
    if not np.iscomplexobj(a):
        u = u.real
    return w, u


def outcome_sum_check(mats: np.ndarray, hermitize: bool) -> tuple[np.ndarray, float]:
    total = mats[0, 0] + mats[0, 1]
    for pair in mats[1:]:
        total += pair[0] + pair[1]
    mean_sum = total / len(mats)
    if hermitize:
        mean_sum = (mean_sum + mean_sum.conj().T) / 2.0
    parts = chunks(len(mats), mats[0:1, 0].nbytes)
    return mean_sum, max(float(np.max(np.abs(mats[p, 0] + mats[p, 1] - mean_sum), initial=0.0)) for p in parts)


# ------------------------------------------------------------ dense verifiers
#
# The dense verify_cpsd_factorization, verify_factorization and
# extract_matrix_factorization that judged every family before the Pauli
# coordinate bounds were added, verbatim but for their names, with the Gram helper they share: one GEMM of the
# vectorized stacks, one batched eigensolve and the GEMM restriction.  The
# library still falls back to this arithmetic; these copies pin it.


def dense_verify_cpsd_factorization(
    p,
    f: CpsdFactorization,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> VerificationReport:
    """Check a psd-factor family against a 2n x 2n witness entrywise.

    Verifies hermiticity and positivity of every factor, the entry identity
    p[(i,a),(j,b)] = Tr(P^i_a P^j_b), consistency of the per-index outcome
    sums, and the normalization Tr(K^2) = 1 of the common sum K.

    With F = mats.reshape(2n, d*d) the vectorized factors in witness row
    order, the entry check is max|F F^* - p|, one GEMM (linalg.hs_gram).
    Hermiticity and positivity are chunked passes over the (2n, d, d) stack
    (linalg.hermitian_deviations, linalg.eigenvalue_bounds), and the outcome
    sums are compared a chunk at a time, so each temporary stays near
    linalg.CHUNK_BYTES.
    """
    mat = as_matrix(p, "witness")
    n = f.n
    if mat.shape != (2 * n, 2 * n):
        raise ShapeError(f"witness shape {mat.shape} does not match family size {(2 * n, 2 * n)}")

    d = f.dim
    stack = f.mats.reshape(2 * n, d, d)
    herm_dev = float(np.max(hermitian_deviations(stack), initial=0.0))
    min_eig = float(np.min(eigenvalue_bounds(stack)[0], initial=math.inf))
    entry_dev = float(np.max(np.abs(hs_gram(stack) - mat), initial=0.0))

    mean_sum, sum_dev = outcome_sum_check(f.mats, hermitize=False)
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


def dense_extract_matrix_factorization(
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
    chunks of the factor stack.
    """
    mean_sum, sum_dev = outcome_sum_check(f.mats, hermitize=True)
    if sum_dev > tol.eq_tol:
        raise InconsistentSumsError(f"outcome sums differ across indices by {sum_dev:.3e}")

    diag = np.diag(mean_sum)
    if float(np.max(np.abs(mean_sum - np.diag(diag)), initial=0.0)) <= tol.eq_tol:
        # already diagonal: keep the coordinate basis so support restriction
        # literally strips padded rows and columns
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
    bh = basis.conj().T
    x_mats = np.empty((n, s, s), dtype=complex)
    for part in chunks(n, f.mats[0:1, 0].nbytes):
        x = bh @ f.mats[part, 0] @ basis * scaling
        x -= bh @ f.mats[part, 1] @ basis * scaling
        np.add(x, x.conj().swapaxes(-1, -2), out=x_mats[part])
        x_mats[part] /= 2.0
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


def _dense_hs_gram_deviation(first: np.ndarray, second: np.ndarray, e: np.ndarray) -> float:
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


def dense_verify_factorization(
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
        gram_dev = _dense_hs_gram_deviation(a_mats, b_mats, a)
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
    gram_dev = _dense_hs_gram_deviation(k @ x, y @ k if mode == "i" else k @ y, a)

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


# ------------------------------------------------------------ dense Clifford checks
#
# The batched verify_clifford_identity and verify_clifford_relations that
# judged every family before the Pauli-coordinate closed forms were added,
# verbatim but for their names.  The library still falls back to this
# arithmetic; these copies pin it.


def dense_verify_clifford_identity(
    a,
    x_mats,
    trials: int = 100,
    seed: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> VerificationReport:
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


def dense_verify_clifford_relations(mats, tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    arr = as_stack(mats, "generators")
    k = arr.shape[0]
    if k == 0:
        raise ShapeError(f"generators must form a nonempty (k, d, d) stack, got {arr.shape}")
    bad = np.flatnonzero(~(hermitian_deviations(arr) <= tol.eq_tol))
    if bad.size:  # the first failing generator raises as its own check would
        require_hermitian(arr[bad[0]], tol, what=f"generator {bad[0] + 1}")
    sq_devs = square_deviations(arr)
    worst_sq = int(np.argmax(sq_devs))
    dev_sq = float(sq_devs[worst_sq])
    rows, cols = np.triu_indices(k, 1)
    anti_devs = anticommutator_deviations(arr, rows, cols, np.zeros(rows.size))
    dev_anti = float(np.max(anti_devs, initial=0.0))
    worst_pair = None
    if dev_anti > 0.0:
        p = int(np.argmax(anti_devs))
        worst_pair = (int(rows[p]) + 1, int(cols[p]) + 1)
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


# ------------------------------------------------------------ table products and loops
#
# The constructions that closed forms and batched products replaced: the
# chains built one two-matrix Kronecker product at a time, the largest entry
# of a Pauli combination as the product of its coordinates with the Pauli
# table, and the weight checks of verify_factorization on the dense K.


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def _chain(*factors: np.ndarray) -> np.ndarray:
    return reduce(_kron, factors)


def gamma_generators_loop(r: int) -> CliffordRep:
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if r == 1:
        return CliffordRep(1, 2, PAULI_Z[np.newaxis].copy())
    ell = r // 2
    gens = []
    for i in range(ell):
        gens.append(_chain(*([PAULI_Z] * i), PAULI_X, *([PAULI_I] * (ell - 1 - i))))
    for i in range(ell):
        gens.append(_chain(*([PAULI_Z] * i), PAULI_Y, *([PAULI_I] * (ell - 1 - i))))
    if r % 2:
        gens.append(_chain(*([PAULI_Z] * ell)))
    return CliffordRep(r, rep_dim(r), np.stack(gens))


def pauli_table_by_chain(ell: int) -> np.ndarray:
    """The table of _pauli_tables(ell), I and the 2L+1 chains at their common nonzero places,
    each chain built densely when it is needed, so one chain of size d is held at a time."""
    d = 2**ell

    def chains():
        yield np.eye(d, dtype=complex)
        for p in (PAULI_X, PAULI_Y):
            for i in range(ell):
                yield _chain(*([PAULI_Z] * i), p, *([PAULI_I] * (ell - 1 - i)))
        yield _chain(*([PAULI_Z] * ell))

    hit = np.zeros(d * d, dtype=bool)
    for chain in chains():
        hit |= chain.reshape(-1) != 0
    pos = np.flatnonzero(hit)
    return np.stack([chain.reshape(-1)[pos] for chain in chains()])


def largest_entries_gemm(coords: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
    """max|b @ table| per row of Pauli coordinates, a chunk of rows at a time."""
    if table is None:
        table = _pauli_tables((coords.shape[1] - 2) // 2)[1]
    out = np.empty(len(coords))
    for part in chunks(len(coords), table.shape[1] * 16):
        out[part] = np.abs(coords[part] @ table).max(axis=1, initial=0.0)
    return out


def dense_weight_checks(k: np.ndarray) -> tuple[float, float, float]:
    """(max|K - K^*|, least eigenvalue of (K + K^*)/2, |Tr(K^2) - 1|) of verify_factorization."""
    herm_dev = float(hermitian_deviations(k[None])[0])
    min_eig = float(eigenvalue_bounds(k[None])[0][0])
    trace_dev = abs(float(np.trace(k @ k).real) - 1.0)
    return herm_dev, min_eig, trace_dev


# ------------------------------------------------------------ extraction values, Schmidt phases
#
# Extraction as it formed the chain values of every factor, K from all of their
# places and X's values at once, before a held family was extracted from its
# diagonal places with X's values formed on read; and the Schmidt step that
# rotated one row at a time.


def values_extract_matrix_factorization(
    f: CpsdFactorization,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[MatrixFactorization, VerificationReport]:
    """extract_matrix_factorization on the places flat_family keeps, X's values formed at once."""
    n, d = f.n, f.dim
    work, places, mirror = flat_family(f)
    with np.errstate(invalid="ignore"):
        mean_sum, sum_dev = _outcome_sum_check(work, mirror)
    if not sum_dev <= tol.eq_tol:
        raise InconsistentSumsError(f"outcome sums differ across indices by {sum_dev:.3e}")
    mean_sum = unflatten(mean_sum, places, d)

    diag = np.diag(mean_sum)
    if float(np.max(np.abs(mean_sum - np.diag(diag)), initial=0.0)) <= tol.eq_tol:
        order = np.argsort(-diag.real, kind="stable")
        w, u = diag.real[order], np.eye(d, dtype=complex)[:, order]
    else:
        order = None
        w, u = sorted_eigh(mean_sum)
    if w.size == 0 or w[0] <= 0.0:
        raise ZeroSumError("common outcome sum is numerically zero")
    keep = rank_mask(w, tol)
    lam = w[keep]
    inv_sqrt = 1.0 / np.sqrt(lam)
    scaling = np.outer(inv_sqrt, inv_sqrt)
    s = lam.size
    in_place = order is not None and np.array_equal(order[keep], np.arange(d))

    if in_place and places is not None:
        scale = scaling.ravel()[places]
        values = np.empty((n, places.size), dtype=np.result_type(work, scale))
        for part in chunks(n, work[0:1, 0].nbytes):
            x = work[part, 0] * scale
            x -= work[part, 1] * scale
            hermitian = np.take(x, mirror, axis=1, out=values[part])
            np.conjugate(hermitian, out=hermitian)
            hermitian += x
            hermitian /= 2.0
        values = values.astype(complex, copy=False)
        held_mats = held(f, "mats")
        if unspent(held_mats) and np.all(scale == scale[0]):
            c = held_mats.coordinates()
            x_mats = ReplayedFamily(
                scale[0] * (c[0::2] - c[1::2]), d, (n,), values=values,
                magnitudes=scale[0] * (np.abs(c[0::2]) + np.abs(c[1::2])), kappa=_kappa(held_mats) + 7,
            )
            fit = x_mats.fit()
        else:
            fit = support_coordinates(values, d)
            x_mats = np.zeros((n, d, d), dtype=complex)
            scatter_columns(x_mats.reshape(n, d * d), places, values)
    else:
        basis = None if in_place else u[:, keep]
        bh = None if in_place else basis.conj().T
        x_mats = np.empty((n, s, s), dtype=complex)
        for part in chunks(n, f.mats[0:1, 0].nbytes):
            x = sandwich(bh, f.mats[part, 0], basis) * scaling
            x -= sandwich(bh, f.mats[part, 1], basis) * scaling
            np.add(x, x.conj().swapaxes(-1, -2), out=x_mats[part])
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


def schmidt_loop(psi, d: int, tol: ToleranceConfig = DEFAULT_TOL) -> SchmidtDecomposition:
    """linalg.schmidt with the phase of each left vector taken and applied one row at a time."""
    a = np.asarray(psi, dtype=complex).reshape(-1)
    if a.size != d * d:
        raise ShapeError(f"expected a vector of length {d * d}, got {a.size}")
    c = identity_multiple(a.reshape(d, d)) if d else None
    if c is not None and c != 0:
        size = abs(c)
        if d > 25:
            size = (size * (1.0 / size)) * size
        u, s, vh = np.eye(d, dtype=complex), np.full(d, size), np.eye(d, dtype=complex)
        if c != abs(c):
            vh *= c / abs(c)
    else:
        u, s, vh = np.linalg.svd(a.reshape(d, d))
    keep = rank_mask(s, tol)
    coeffs = s[keep].copy()
    lefts = u[:, keep].T.copy()
    rights = vh[keep, :].copy()
    for k in range(lefts.shape[0]):
        row = lefts[k]
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        if nz.size:
            phase = row[nz[0]] / abs(row[nz[0]])
            lefts[k] = row / phase
            rights[k] = rights[k] * phase
    return SchmidtDecomposition(coeffs, lefts, rights)


# ------------------------------------------------------------ chain-support values
#
# The readers as they took a family at the (L+1) d places of the chain support,
# when it was held as its coordinates or one bitwise-OR scan proved its dense
# stack +0.0 everywhere else, before a dense family was read at all d^2 entries;
# with the scan and the compact fit that pauli_coordinates took on such a stack
# before every dense family was fitted in one pass over its entries.


def nonzero_places(flat: np.ndarray) -> np.ndarray:
    """Which of the m columns of a (k, m) array hold a set bit in some row, so that -0.0 and a
    NaN count as nonzero: one bitwise-OR pass over the array's 64-bit words
    (bytes for an item size that is not a multiple of 8).

    Rows may be strided; a column stride other than the item size takes a copy.
    """
    if flat.strides[-1] != flat.itemsize:
        flat = np.ascontiguousarray(flat)
    unit = np.int64 if flat.itemsize % 8 == 0 else np.uint8
    words = np.bitwise_or.reduce(flat.view(unit), axis=0)
    return words.reshape(flat.shape[1], -1).any(axis=1)


def support_values(stack: np.ndarray) -> np.ndarray | None:
    """The entries of a (k, d, d) stack at the (L+1) d places of _pauli_tables, as a
    (k, (L+1) d) array of the stack's dtype, when one bitwise-OR pass over the
    stack's 64-bit words (nonzero_places) proves every other entry +0.0.  None when some
    other entry holds a set bit (-0.0, a NaN or a nonzero), when d is not a power of two
    >= GATHER_MIN_DIM or when the stack is neither float64 nor complex128.
    """
    k, d = stack.shape[0], stack.shape[-1]
    ell = d.bit_length() - 1
    if d < GATHER_MIN_DIM or d != 1 << ell or stack.dtype not in (np.float64, np.complex128):
        return None
    flat = stack.reshape(k, d * d)
    hit = nonzero_places(flat)
    pos = _pauli_tables(ell)[0]
    return np.take(flat, pos, axis=1) if np.count_nonzero(hit) == np.count_nonzero(hit[pos]) else None


def support_coordinates(values: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """pauli_coordinates of a stack that is +0.0 off the chain support, from its (k, (L+1) d)
    values there (support_values): the same coords and resid, and delta summed
    over the support alone, a quarter of linalg.CHUNK_BYTES of values at a time."""
    ell = d.bit_length() - 1
    values = np.ascontiguousarray(values, dtype=complex)
    k = len(values)
    coords = np.empty((k, 2 * ell + 2))
    delta, resid = np.empty(k), np.empty(k)
    for part in chunks(k, 4 * values[0:1].nbytes):
        coords[part], mags = _support_fit(values[part], ell)
        delta[part] = np.sqrt(np.einsum("ij,ij->i", mags, mags))
        resid[part] = np.max(mags, axis=1, initial=0.0)
    return coords, delta, resid


def scan_pauli_coordinates(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """clifford.pauli_coordinates with the scan: a stack that support_values proves +0.0 off the
    chain support is fitted from its values there (support_coordinates), any other by the
    pass over every entry."""
    k, d = stack.shape[0], stack.shape[-1]
    ell = d.bit_length() - 1
    if d < 2 or d != 1 << ell:
        return None
    values = support_values(stack)
    if values is not None:
        return support_coordinates(values, d)
    pos = _pauli_tables(ell)[0]
    flat = stack.reshape(k, d * d)
    coords = np.empty((k, 2 * ell + 2))
    delta, resid = np.empty(k), np.empty(k)
    for part in chunks(k, d * d * 16):
        block = np.ascontiguousarray(flat[part], dtype=complex)
        mags = np.abs(block)
        coords[part], mags[:, pos] = _support_fit(np.take(block, pos, axis=1), ell)
        delta[part] = np.sqrt(np.einsum("ij,ij->i", mags, mags))
        resid[part] = np.max(mags, axis=1, initial=0.0)
    return coords, delta, resid


def chain_values(family) -> np.ndarray | None:
    """The (k, (L+1) d) values of a (..., d, d) family at the places of _pauli_tables(L), k being
    the product of its leading axes: an unspent ReplayedFamily's (ReplayedFamily.chain_values), an
    unspent PauliFamily's chain_products, else support_values of the dense stack (None when it is
    not +0.0 off them)."""
    if isinstance(family, ReplayedFamily) and not family.spent:
        return family.chain_values()
    if unspent(family):
        return chain_products(family.coords, family.scales)
    stack = as_dense(family)
    d = stack.shape[-1]
    return support_values(stack.reshape(-1, d, d)) if d else None


def flat_family(f: CpsdFactorization) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The factors flattened to an (n, 2, m) array, the places a*d + b they keep (None: all d^2),
    and the position within them of each place's transpose."""
    n, d = f.n, f.dim
    mats = held(f, "mats")
    if n == 0:
        raise ShapeError(f"cpsd family must be a nonempty (n, 2, d, d) stack, got {np.shape(mats)}")
    values = chain_values(mats)
    if values is None:
        return f.mats.reshape(n, 2, d * d), None, _transposed(np.arange(d * d), d)
    places = _pauli_tables(d.bit_length() - 1)[0]
    return values.reshape(n, 2, places.size), places, place_mirror(places, d)


def unflatten(values: np.ndarray, places: np.ndarray | None, d: int) -> np.ndarray:
    """The d x d matrix holding a flattened one's entries at its places (None: all d^2), +0.0 elsewhere."""
    if places is None:
        return values.reshape(d, d)
    out = np.zeros(d * d, dtype=values.dtype)
    out[places] = values
    return out.reshape(d, d)


def values_verify_cpsd_factorization(p, f: CpsdFactorization, tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    """verify_cpsd_factorization with the outcome sums at the places flat_family keeps, and the
    Pauli fit of their values when those are the chain support."""
    mat = as_matrix(p, "witness")
    n = f.n
    if mat.shape != (2 * n, 2 * n):
        raise ShapeError(f"witness shape {mat.shape} does not match family size {(2 * n, 2 * n)}")

    def report(herm_dev, min_eig, entry_dev, sum_dev, trace_dev) -> VerificationReport:
        return VerificationReport(
            (
                CheckResult("factors_hermitian", herm_dev <= tol.eq_tol, herm_dev),
                CheckResult("factors_psd", min_eig >= -tol.psd_tol, max(0.0, -min_eig), note=f"min eigenvalue {min_eig:.6g}"),
                CheckResult("entry_reconstruction", entry_dev <= tol.eq_tol, float(entry_dev)),
                CheckResult("outcome_sums_consistent", sum_dev <= tol.eq_tol, sum_dev),
                CheckResult("sum_trace_normalized", trace_dev <= tol.eq_tol, trace_dev),
            )
        )

    def stack() -> np.ndarray:
        return f.mats.reshape(2 * n, f.dim, f.dim)

    def sums():
        work, places, _ = flat_family(f)
        mean_sum, sum_dev = _outcome_sum_check(work, None)
        mean_sum = unflatten(mean_sum, places, f.dim)
        trace_dev = abs(float(np.trace(mean_sum @ mean_sum).real) - 1.0)
        fit = None if places is None else support_coordinates(work.reshape(2 * n, -1), f.dim)
        return (sum_dev, trace_dev), fit

    mats = held(f, "mats")
    with np.errstate(invalid="ignore"):
        if n and unspent(mats):
            fast = coordinate_deviations(mats, mat)
            return decide(report, fast, lambda: _dense_deviations(stack(), mat) + sums()[0])
        checks, fit = sums()
        fast = pauli_deviations(stack() if fit is None else mats, mat, fit)
        return decide(report, None if fast is None else fast + checks, lambda: _dense_deviations(stack(), mat) + checks)


def values_recover_correlation(mf: MatrixFactorization, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """recover_correlation with the GEMM over the nonzero columns of the chain values of X and Y,
    when both have them and K is diagonal."""
    k = as_matrix(mf.k)
    d = k.shape[0]
    x, y = as_family(held(mf, "x_mats"), "X family", d), as_family(held(mf, "y_mats"), "Y family", d)
    n = x.shape[0]
    scalar = identity_multiple(k)
    if scalar is not None and unspent(x) and unspent(y):
        coords = x.coordinates()
        g = gram(np.concatenate((coords, coords if y is x else y.coordinates()))) * (abs(scalar) ** 2 * d)
    else:
        xs = chain_values(x)
        ys = xs if y is x else chain_values(y)
        weight = None if xs is None or ys is None else _monomial(k)
        if weight is not None and weight[0] is None:
            rows, cols = np.divmod(_pauli_tables(d.bit_length() - 1)[0], d)
            flat = np.concatenate((xs * weight[1][rows], ys * weight[1][cols])).view(float)
            flat = flat[:, flat.any(axis=0)]
        else:
            x, y = as_dense(x), as_dense(y)
            family = np.empty((n + y.shape[0], d, d), dtype=complex)
            sandwich(k, x, out=family[:n])
            sandwich(None, y, k, out=family[n:])
            flat = family.reshape(family.shape[0], d * d).view(float)
        g = gram(flat)
    diag_dev = float(np.max(np.abs(np.diag(g) - 1.0)))
    if diag_dev > tol.eq_tol:
        raise InvariantViolationError(
            f"recovered diagonal deviates from one by {diag_dev:.3e}; weight or involutions invalid"
        )
    return g


def values_eval_correlations(rep: TensorProductRep) -> np.ndarray | None:
    """The block eval_correlations gave for a vector state W = c I when both families have chain
    values: one GEMM of those values, scaled by |c|^2; None otherwise."""
    d = rep.local_dim
    scalar = identity_multiple(rep.psi.reshape(d, d))
    alice_values = None if scalar is None else chain_values(held(rep, "alice_obs"))
    bob_values = None if alice_values is None else chain_values(held(rep, "bob_obs"))
    return None if bob_values is None else ((alice_values @ bob_values.T) * abs(scalar) ** 2).real.copy()


# ------------------------------------------------------------ chunk temporaries
#
# Extraction as it formed each chunk of X in temporaries of its own (the plus
# product, the minus product and the conjugate transpose) and compared the
# outcome sums with K in two more, with X's fit taken by the scan, before X was
# accumulated in place and K subtracted in place.


def temporaries_outcome_sum_check(mats: np.ndarray, mirror: np.ndarray | None) -> tuple[np.ndarray, float]:
    """cpsd._outcome_sum_check with a new array for every chunk of sums and for their deviation."""
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


def temporaries_extract_matrix_factorization(
    f: CpsdFactorization,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[MatrixFactorization, VerificationReport]:
    """extract_matrix_factorization with each chunk of X formed in temporaries and X fitted with the scan."""
    n, d = f.n, f.dim
    family = held(f, "mats")
    diagonal = held_diagonal(family, n)
    if diagonal is None:
        work, mirror = _flat_factors(f), _transposed(np.arange(d * d), d)
    else:
        work, mirror = diagonal, np.arange(d)
    with np.errstate(invalid="ignore"):
        mean_sum, sum_dev = temporaries_outcome_sum_check(work, mirror)
    if not sum_dev <= tol.eq_tol:
        raise InconsistentSumsError(f"outcome sums differ across indices by {sum_dev:.3e}")
    if diagonal is None:
        mean_sum = mean_sum.reshape(d, d)
        diag = np.diag(mean_sum)
        off_diagonal = float(np.max(np.abs(mean_sum - np.diag(diag)), initial=0.0))
    else:
        diag, off_diagonal = mean_sum, 0.0

    if off_diagonal <= tol.eq_tol:
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
    in_place = order is not None and np.array_equal(order[keep], np.arange(d))

    if in_place and diagonal is not None:
        x_mats = difference_family(family, inv_sqrt[0] * inv_sqrt[0])
        fit = x_mats.fit()
    else:
        scaling = np.outer(inv_sqrt, inv_sqrt)
        basis = None if in_place else (np.eye(d, dtype=complex)[:, order[keep]] if u is None else u[:, keep])
        bh = None if in_place else basis.conj().T
        x_mats = np.empty((n, s, s), dtype=complex)
        for part in chunks(n, f.mats[0:1, 0].nbytes):
            x = sandwich(bh, f.mats[part, 0], basis) * scaling
            x -= sandwich(bh, f.mats[part, 1], basis) * scaling
            np.add(x, x.conj().swapaxes(-1, -2), out=x_mats[part])
            x_mats[part] /= 2.0
        fit = scan_pauli_coordinates(x_mats)
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


# ------------------------------------------------------------ replayed values
#
# The holder a held extraction gave X before X was held by its own coordinates:
# values replayed from the factors' chain values when first read, with the
# coordinatewise magnitudes of the terms they were formed from and a rounding
# count of their own, and the cpsd helpers that formed them.


def _kappa(family: PauliFamily) -> int:
    """The rounding count of a holder: its own, or 2 (#scales) + 2 for a plain PauliFamily."""
    return family.kappa if isinstance(family, ReplayedFamily) else 2 * len(family.scales) + 2


class ReplayedFamily(PauliFamily):
    """PauliFamily with `values` of its own (or a function of a leading slice that forms them),
    `magnitudes` in place of |coords| and a `kappa` in place of 2 (#scales) + 2."""

    __slots__ = ("values", "magnitudes", "kappa")

    def __init__(self, coords, d, lead, scales=(), *, values=None, magnitudes=None, kappa=None, base=None):
        self.coords, self.d, self.lead, self.scales = coords, d, tuple(lead), tuple(scales)
        self.values, self.magnitudes = values, magnitudes
        self.kappa = 2 * len(self.scales) + 2 if kappa is None else kappa
        self._dense, self._base = None, base

    def chain_values(self) -> np.ndarray:
        """The (k, (L+1) d) values at the places of _pauli_tables(L)."""
        if callable(self.values):
            self.values = self.values(slice(None))
        return chain_products(self.coords, self.scales) if self.values is None else self.values

    def fit(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """delta <= kappa u sqrt(2 d) ||m|| and resid <= kappa u sqrt(2) max_entries(m), m the
        magnitudes (|c| unless given)."""
        coords = self.coordinates()
        mags = np.abs(coords) if self.magnitudes is None else self.magnitudes
        err = self.kappa * UNIT_ROUNDOFF
        delta = err * math.sqrt(2 * self.d) * np.sqrt(np.einsum("ij,ij->i", mags, mags))
        return coords, delta, err * math.sqrt(2.0) * max_entries(mags)

    def dense(self) -> np.ndarray:
        if self._dense is None:
            if self._base is None:
                k, d = math.prod(self.lead), self.d
                require_budget(k * 16 * d * d, f"a dense stack of {k} matrices of size {d}")
                out = np.zeros(self.shape, dtype=complex)
                scatter_columns(out.reshape(k, d * d), _pauli_tables(d.bit_length() - 1)[0], self.chain_values())
            else:
                out = self._base.dense().view()
                out.flags.writeable = False
            self._dense = out
        return self._dense

    def view(self) -> ReplayedFamily:
        base = self if self._base is None else self._base
        return ReplayedFamily(self.coords, self.d, self.lead, self.scales, values=self.values,
                              magnitudes=self.magnitudes, kappa=self.kappa, base=base)

    def __getitem__(self, key):
        if self.spent or len(self.lead) != 1 or not isinstance(key, slice):
            return self.dense()[key]
        coords = self.coords[key]
        values = self.values(key) if callable(self.values) else None if self.values is None else self.values[key]
        mags = None if self.magnitudes is None else self.magnitudes[key]
        return ReplayedFamily(
            coords, self.d, coords.shape[:1], self.scales, values=values, magnitudes=mags, kappa=self.kappa
        )


def place_mirror(places: np.ndarray, d: int) -> np.ndarray:
    """The position within the ascending `places` of each place's transpose, which they hold."""
    return np.searchsorted(places, _transposed(places, d))


def scaled_differences(work: np.ndarray, scale: np.ndarray, mirror: np.ndarray) -> np.ndarray:
    """The Hermitian parts of the scaled differences P+ scale - P- scale of an (m, 2, p) family
    of flattened factor pairs, `mirror` giving the position of each place's transpose.

    The (m, p) result is allocated before the temporaries, so that they are freed above it.
    """
    values = np.empty((len(work), work.shape[-1]), dtype=np.result_type(work, scale))
    for part in chunks(len(work), work[0:1, 0].nbytes):
        x = work[part, 0] * scale
        x -= work[part, 1] * scale
        hermitian = np.take(x, mirror, axis=1, out=values[part])
        np.conjugate(hermitian, out=hermitian)
        hermitian += x
        hermitian /= 2.0
    return values.astype(complex, copy=False)


def difference_family(family: PauliFamily, scale) -> ReplayedFamily:
    """X = scale (P+ - P-) of an unspent PauliFamily of factor pairs, up to rounding: coordinates
    scale (c+ - c-), and each value formed from terms of coordinates at most
    scale (|c+| + |c-|), with kappa + 7 roundings in all.

    Its values are formed from the chain values of the factors when first read
    (replayed_differences).
    """
    c = family.coordinates()
    return ReplayedFamily(
        scale * (c[0::2] - c[1::2]), family.d, (len(c) // 2,),
        values=partial(replayed_differences, family.coords, family.scales, family.d, scale),
        magnitudes=scale * (np.abs(c[0::2]) + np.abs(c[1::2])), kappa=_kappa(family) + 7,
    )


def replayed_differences(coords, scales, d: int, scale, rows: slice) -> np.ndarray:
    """The values of difference_family for the factor pairs `rows`, from their coordinates."""
    pairs = coords.reshape(-1, 2, coords.shape[1])[rows]
    work = chain_products(pairs.reshape(-1, coords.shape[1]), scales).reshape(len(pairs), 2, -1)
    places = _pauli_tables(d.bit_length() - 1)[0]
    return scaled_differences(work, np.full(places.size, scale), place_mirror(places, d))


# ------------------------------------------------------------ exact residuals
#
# The distance of chain values from the matrices their coordinates describe,
# and the Gram matrix of those values, in exact rational arithmetic: every
# finite float is a rational, and every entry of a chain is 0, +-1 or +-i.  And
# the Gram slack of clifford.pauli_gram as it was before it covered products
# that underflow.


def exact_chain_residuals(coords: np.ndarray, values: np.ndarray) -> list[tuple[Fraction, Fraction]]:
    """For each row c of an (m, 2L+2) coordinate array and its row of (L+1) d finite chain values
    at the places of _pauli_tables(L): ||V - M'||_F^2 and max|V - M'|^2, exactly, for M' =
    c_0 I + G(c) and V the matrix holding the values there (both are zero at every other place)."""
    table = _pauli_tables((coords.shape[1] - 2) // 2)[1]
    terms = [
        [(p, int(table[p, j].real), int(table[p, j].imag)) for p in np.flatnonzero(table[:, j])]
        for j in range(table.shape[1])
    ]
    out = []
    for c, v in zip(coords.tolist(), values.tolist()):
        exact = [Fraction(x) for x in c]
        total = largest = Fraction(0)
        for place, value in zip(terms, v):
            re = Fraction(value.real) - sum(exact[p] * a for p, a, _ in place)
            im = Fraction(value.imag) - sum(exact[p] * b for p, _, b in place)
            square = re * re + im * im
            total += square
            largest = max(largest, square)
        out.append((total, largest))
    return out



def exact_gram(values: np.ndarray) -> list[list[tuple[Fraction, Fraction]]]:
    """The Gram matrix Tr(V_p V_q^*) of the matrices holding an (m, (L+1) d) array of finite chain
    values at the places of _pauli_tables(L), exactly: (real part, imaginary part) of each entry."""
    rows = [[(Fraction(v.real), Fraction(v.imag)) for v in row] for row in values.tolist()]
    return [
        [
            (sum(x * u + y * v for (x, y), (u, v) in zip(a, b)), sum(y * u - x * v for (x, y), (u, v) in zip(a, b)))
            for b in rows
        ]
        for a in rows
    ]


def unfloored_pauli_gram(coords: np.ndarray, delta: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """clifford.pauli_gram without the terms for products that underflow."""
    norms = math.sqrt(d) * np.linalg.norm(coords, axis=1)
    return d * (coords @ coords.T), np.outer(delta, norms + delta) + np.outer(norms, delta)

# ------------------------------------------------------------ outcome-sum bounds
#
# The verifier as it bounded a held family's outcome sums, their mean and Tr(K^2)
# from its coordinates with a rounding analysis of its own, and took the Pauli
# bounds of a given fit; and the (n, 2, d) diagonal values a held extraction
# formed, before both read the two diagonal values of each factor.


def pauli_deviations(stack, mat: np.ndarray, fit=None) -> tuple[float, float, float] | None:
    """cpsd._pauli_deviations of a given fit (then `stack` only gives the size d)."""
    if fit is None:
        fit = family_fit(stack)
    if fit is None:
        return None
    coords, delta, resid = fit
    gram, slack = pauli_gram(coords, delta, stack.shape[-1])
    herm_dev = 2.0 * float(np.max(resid, initial=0.0))
    min_eig = float(np.min(coords[:, 0] - np.linalg.norm(coords[:, 1:], axis=1) - delta, initial=math.inf))
    entry_dev = float(np.max(np.abs(gram - mat) + slack, initial=0.0))
    return herm_dev, min_eig, entry_dev


def coordinate_deviations(family: PauliFamily, mat: np.ndarray) -> tuple[float, float, float, float, float]:
    """The five deviations verify_cpsd_factorization checks, bounded from the coordinates of an
    unspent PauliFamily of shape (n, 2, d, d) alone (PauliFamily.fit): no value is formed.

    The outcome sum S_i = P^i_+ + P^i_- has the coordinates s_i = c_i+ + c_i-, and each computed
    sum lies within e' = R + u (E + R) of it entrywise, R being the largest sum of the two
    residuals and E the largest max_entries(s_i).  Their mean K, exact, lies within
    e = e' + 4 u E of K' rebuilt from the mean m of the s_i (math.fsum, then one division).
    So max_i |S_i - K| <= max_entries(s_i - m) + 2 e, and Tr(K^2) lies within
    2 e ||K'||_1 + (L+1) d e^2 of Tr(K'^2) = d ||m||^2, with ||K'||_1 <= d sum_p |m_p|.
    """
    coords, _, resid = fit = family.fit()
    n, d = family.lead[0], family.d
    herm_dev, min_eig, entry_dev = pauli_deviations(family, mat, fit)
    sums = coords[0::2] + coords[1::2]
    mean = np.array([math.fsum(column) for column in sums.T]) / n
    big_r, big_e = float(np.max(resid[0::2] + resid[1::2])), float(np.max(max_entries(sums)))
    err = big_r + UNIT_ROUNDOFF * (5.0 * big_e + big_r)
    sum_dev = float(np.max(max_entries(sums - mean))) + 2.0 * err + UNIT_ROUNDOFF * big_e
    trace = d * float(mean @ mean)
    # err * err, not err**2: a float's ** raises OverflowError where * gives inf, and the check fails
    slack = 2.0 * err * d * float(np.sum(np.abs(mean))) + coords.shape[1] // 2 * d * (err * err)
    trace_dev = abs(trace - 1.0) + slack + coords.shape[1] * UNIT_ROUNDOFF * trace
    return herm_dev, min_eig, entry_dev, sum_dev, trace_dev


def bounds_verify_cpsd_factorization(p, f: CpsdFactorization, tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    """verify_cpsd_factorization with a held family's outcome sums and Tr(K^2) bounded from its
    coordinates (coordinate_deviations), and the dense sums taken again by the dense path."""
    mat = as_matrix(p, "witness")
    n = f.n
    if mat.shape != (2 * n, 2 * n):
        raise ShapeError(f"witness shape {mat.shape} does not match family size {(2 * n, 2 * n)}")

    def report(herm_dev, min_eig, entry_dev, sum_dev, trace_dev) -> VerificationReport:
        return VerificationReport(
            (
                CheckResult("factors_hermitian", herm_dev <= tol.eq_tol, herm_dev),
                CheckResult("factors_psd", min_eig >= -tol.psd_tol, max(0.0, -min_eig), note=f"min eigenvalue {min_eig:.6g}"),
                CheckResult("entry_reconstruction", entry_dev <= tol.eq_tol, float(entry_dev)),
                CheckResult("outcome_sums_consistent", sum_dev <= tol.eq_tol, sum_dev),
                CheckResult("sum_trace_normalized", trace_dev <= tol.eq_tol, trace_dev),
            )
        )

    def stack() -> np.ndarray:
        return f.mats.reshape(2 * n, f.dim, f.dim)

    def sums() -> tuple[float, float]:
        mean_sum, sum_dev = _outcome_sum_check(_flat_factors(f), None)
        mean_sum = mean_sum.reshape(f.dim, f.dim)
        return sum_dev, abs(float(np.trace(mean_sum @ mean_sum).real) - 1.0)

    mats = held(f, "mats")
    with np.errstate(invalid="ignore"):
        if n and unspent(mats):
            fast = coordinate_deviations(mats, mat)
            return decide(report, fast, lambda: _dense_deviations(stack(), mat) + sums())
        checks = sums()
        fast = pauli_deviations(stack(), mat)
        return decide(report, None if fast is None else fast + checks, lambda: _dense_deviations(stack(), mat) + checks)


def held_diagonal(family, n: int) -> np.ndarray | None:
    """cpsd._held_diagonal as the (n, 2, d) diagonal values, every place of the Z chain formed, for
    a family of size d >= GATHER_MIN_DIM alone."""
    if not (unspent(family) and family.lead == (n, 2) and family.d >= GATHER_MIN_DIM):
        return None
    coords, d = family.coords, family.d
    top = float(np.max(np.abs(coords[:, 1:-1]), initial=0.0))
    for scale in family.scales:
        top *= abs(float(scale))
    if not (np.isfinite(coords).all() and math.isfinite(top)) or (coords[0::2, 1:-1] + coords[1::2, 1:-1]).any():
        return None
    z = np.ones(1)
    for _ in range(d.bit_length() - 1):
        z = np.concatenate([z, -z])  # the diagonal of Z (x) ... (x) Z
    values = np.zeros((2 * n, d), dtype=complex)
    values.real = coords[:, :1] + coords[:, -1:] * z
    for scale in family.scales:
        values *= scale
    return values.reshape(n, 2, d)
