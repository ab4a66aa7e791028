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
support, with the loops of ``sorted_eigh`` and of the mean outcome sum.
Tests compare the library against them; nothing in ``corrfact`` imports
this module.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from corrfact.clifford import CliffordRep, gamma_generators, gamma_of_vector
from corrfact.cpsd import CpsdFactorization
from corrfact.elliptope import gram_factors, require_correlation, resolve_gram_factors
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
    ToleranceConfig,
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
    sorted_eigh,
    square_deviations,
    vec,
    vec_inv,
)
from corrfact.quantum import TensorProductRep, maximally_entangled
from corrfact.report import CheckResult, VerificationReport


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
# sorted_eigh and the index loop of the mean outcome sum, verbatim but for
# their names.  The library writes combinations on the chain support, rotates
# all eigenvectors at once and sums outcome sums a chunk at a time, to the
# same bits.


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
    u = resolve_gram_factors(a, factors, tol)
    rep = gamma_generators(u.shape[1])
    mats = _gamma_of_rows(rep, u)
    mats *= 1.0 / math.sqrt(rep.rep_dim)
    return FormBFactorization(mats[:split], mats[split:])


def tensordot_build_cpsd_factorization(c, *, factors=None, tol: ToleranceConfig = DEFAULT_TOL) -> CpsdFactorization:
    a = require_correlation(c, tol)
    u = resolve_gram_factors(a, factors, tol, unit=True)
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
