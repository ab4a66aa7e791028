"""Tensor-product representations of bipartite correlations.

A representation consists of Hermitian observables M_i, N_j with spectra
in [-1, 1] and a state (unit vector psi in C^{d^2}, or a unit-trace psd
density matrix); the realized block has entries Tr((M_i (x) N_j) rho).
Any unit-vector system for a bipartite block yields a representation on
the maximally entangled state with local dimension 2^floor(r/2), r the
span dimension of the system, and rank-one representations reduce to a
diagonal Schmidt state without changing the correlations or growing the
local dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import Family, as_dense, as_family, chain_family, held, unspent
from .elliptope import CSystem
from .errors import (
    CSystemMismatchError,
    EmptyRankError,
    InvariantViolationError,
    NonUnitVectorError,
    NotPsdError,
    NotRankOneError,
    ShapeError,
)
from .factorization import MatrixFactorization
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    chunks,
    eigenvalue_bounds,
    gather_steps,
    identity_multiple,
    numerical_rank,
    rank_mask,
    require_budget,
    require_hermitian,
    sandwich,
    schmidt,
    sorted_eigh,
    vec_inv,
)


@dataclass(frozen=True)
class TensorProductRep:
    """Observables plus a shared state; exactly one of psi or rho is set.

    alice_obs has shape (n, d, d) and bob_obs (m, d, d); psi is a vector of
    length d^2, rho a d^2 x d^2 density matrix.  States are kept as vectors
    whenever possible; the density matrix is materialized on demand.  Built
    observables are held as a clifford.PauliFamily, made dense on the first
    read of alice_obs or bob_obs (clifford.Family).
    """

    alice_obs: np.ndarray = Family()
    bob_obs: np.ndarray = Family()
    psi: np.ndarray | None = None
    rho: np.ndarray | None = None

    def __post_init__(self) -> None:
        alice = as_family(held(self, "alice_obs"), "Alice's observables")
        d = alice.shape[1]
        bob = as_family(held(self, "bob_obs"), "Bob's observables", d)
        if (self.psi is None) == (self.rho is None):
            raise ShapeError("exactly one of psi or rho must be provided")
        object.__setattr__(self, "alice_obs", alice)
        object.__setattr__(self, "bob_obs", bob)
        if self.psi is not None:
            psi = np.asarray(self.psi, dtype=complex).reshape(-1)
            if psi.size != d * d:
                raise ShapeError(f"state vector length {psi.size} does not match d^2 = {d * d}")
            object.__setattr__(self, "psi", psi)
        else:
            rho = np.asarray(self.rho, dtype=complex)
            if rho.shape != (d * d, d * d):
                raise ShapeError(f"density shape {rho.shape} does not match {(d * d, d * d)}")
            object.__setattr__(self, "rho", rho)

    @property
    def local_dim(self) -> int:
        return int(held(self, "alice_obs").shape[1])

    @property
    def sizes(self) -> tuple[int, int]:
        return int(held(self, "alice_obs").shape[0]), int(held(self, "bob_obs").shape[0])

    def density(self) -> np.ndarray:
        if self.rho is not None:
            return self.rho
        return np.outer(self.psi, self.psi.conj())


def maximally_entangled(d: int) -> np.ndarray:
    """Unit vector d^{-1/2} sum_i e_i (x) e_i; all Schmidt coefficients equal.

    Satisfies psi^* (A (x) B) psi = Tr(A B^T) / d for all d x d matrices.
    Its d^2 entries are checked against the memory budget before they are made.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    require_budget(16 * d * d, f"the maximally entangled state of size {d}")
    return np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)


def build_tensor_rep(c, sys: CSystem, tol: ToleranceConfig = DEFAULT_TOL) -> TensorProductRep:
    """Representation of a bipartite block from a unit-vector system.

    The system's vectors are expressed in an orthonormal basis of their
    common span (dimension r); the observables are G(u_i) and G(v_j)^T for
    the rank-r generator family, and the state is the maximally entangled
    vector at local dimension 2^floor(r/2).  The observables are kept as
    their Pauli coordinates from d = GATHER_MIN_DIM on (clifford.chain_family),
    Bob's G(v_j)^T as G(v'_j) with the Y-type coordinates of v_j negated.  A rank cutoff that keeps no
    singular value raises EmptyRankError.
    """
    block = as_matrix(c, "bipartite block")
    rows, cols = sys.row_vectors, sys.col_vectors
    if block.shape != (rows.shape[0], cols.shape[0]):
        raise ShapeError(
            f"block shape {block.shape} does not match system {(rows.shape[0], cols.shape[0])}"
        )
    stacked = np.vstack([rows, cols])
    norm_dev = float(np.max(np.abs(np.linalg.norm(stacked, axis=1) - 1.0)))
    if norm_dev > tol.eq_tol:
        raise NonUnitVectorError(f"system vectors must be unit, worst deviation {norm_dev:.3e}")
    entry_dev = float(np.max(np.abs(block - rows @ cols.T), initial=0.0))
    if entry_dev > tol.eq_tol:
        raise CSystemMismatchError(f"system misses the block by {entry_dev:.3e}")

    _, svals, vh = np.linalg.svd(stacked)
    r = int(np.count_nonzero(rank_mask(svals, tol)))
    if r == 0:
        raise EmptyRankError(f"rank_tol {tol.rank_tol:g} keeps no singular value of the system vectors")
    basis = vh[:r]
    row_coords = rows @ basis.T
    col_coords = cols @ basis.T

    alice = chain_family(row_coords, row_coords.shape[:1])
    bob = chain_family(col_coords, col_coords.shape[:1], transpose=True)
    return TensorProductRep(alice, bob, psi=maximally_entangled(alice.shape[-1]))


def eval_correlations(rep: TensorProductRep, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Realized block: entry (i, j) is Tr((M_i (x) N_j) rho).

    For vector states the entry is Tr(M_i W N_j^T W^*) with W = vec_inv(psi).
    When both families are held as their Pauli coordinates (unspent
    clifford.PauliFamily holders) and W is a multiple c I of the identity,
    as for the maximally entangled state, that is
    |c|^2 sum_cb M_i[c, b] N_j[c, b] = |c|^2 d sum_p a_p b_p t_p,
    t_p = -1 for the Y-type chains (Y^T = -Y) and 1 for the others: no value
    is formed, and the entries may differ from a GEMM of the values in the
    last bits.  The test of W reads a read-only view of psi, and W is copied
    only for the dense path below.  Otherwise the families are dense, and
    the entry equals sum_cb Z_i[c, b] N_j[c, b] for
    Z_i = W^* M_i W: the Z_i are batched matmuls over chunks of Alice's
    observables (a gather and real scalings when W is monomial, as a
    diagonal W is: linalg.sandwich) and the block is one GEMM per chunk
    against the vectorized N stack, vec(Z) vec(N)^T, so no d^2 x d^2 product
    is formed.  For a density matrix the entry is
    sum M_i[c, a] N_j[e, b] rho[(a, b), (c, e)]: two tensordots over
    rho.reshape(d, d, d, d).  The real part is returned; an imaginary residue
    above eq_tol raises, since Hermitian observables against a Hermitian
    state give real values analytically.
    """
    n, m = rep.sizes
    d = rep.local_dim
    if rep.psi is not None:
        norm_dev = abs(float(np.linalg.norm(rep.psi)) - 1.0)
        if norm_dev > tol.eq_tol:
            raise InvariantViolationError(f"state norm deviates from one by {norm_dev:.3e}")
        w = rep.psi.reshape(d, d)
        w.flags.writeable = False
        alice, bob = held(rep, "alice_obs"), held(rep, "bob_obs")
        scalar = identity_multiple(w) if unspent(alice) and unspent(bob) else None
        if scalar is not None:
            a = alice.coordinates().copy()
            a[:, alice.d.bit_length() : -1] *= -1.0  # Y^T = -Y: the Y-type coordinates, slots 1..L
            vals = (a @ bob.coordinates().T) * (abs(scalar) ** 2 * d)
        else:
            w = vec_inv(rep.psi, d)
            wh = w.conj().T
            alice, bob = as_dense(alice), as_dense(bob).reshape(m, d * d)
            vals = np.empty((n, m), dtype=complex)
            for part in chunks(n, w.nbytes):
                vals[part] = sandwich(wh, alice[part], w).reshape(-1, d * d) @ bob.T
    else:
        rho = rep.rho
        trace_dev = abs(complex(np.trace(rho)).real - 1.0)
        if trace_dev > tol.eq_tol:
            raise InvariantViolationError(f"state trace deviates from one by {trace_dev:.3e}")
        half = np.tensordot(rep.alice_obs, rho.reshape(d, d, d, d), axes=([1, 2], [2, 0]))
        vals = np.tensordot(half, rep.bob_obs, axes=([1, 2], [2, 1]))
    residue = float(np.max(np.abs(vals.imag), initial=0.0))
    if residue > tol.eq_tol:
        raise InvariantViolationError(f"imaginary residue {residue:.3e} exceeds eq_tol")
    return vals.real.copy()


def _rank_one_vector(rep: TensorProductRep, tol: ToleranceConfig) -> np.ndarray:
    if rep.psi is not None:
        return rep.psi
    rho = require_hermitian(rep.rho, tol, what="state")
    if numerical_rank(rho, tol) != 1:
        raise NotRankOneError("state has numerical rank above one")
    w, u = sorted_eigh(rho)
    return u[:, 0] * np.sqrt(max(w[0], 0.0))


def reduce_rank_one_rep(rep: TensorProductRep, tol: ToleranceConfig = DEFAULT_TOL) -> TensorProductRep:
    """Compress a rank-one representation to its diagonal Schmidt form.

    The state becomes sum_k c_k e_k (x) e_k with descending positive c_k and
    the observables are conjugated by the isometries onto the Schmidt bases
    (linalg.sandwich: a gather when they are monomial, as the identity
    isometries of the maximally entangled state are).  Correlations are
    unchanged and the local dimension never grows; spectra stay within
    [-1, 1] because compressions of contractions are contractions.  When an
    isometry is the identity, its side's observables are not copied: the
    result holds a read-only view of the input's stack, with the same bits
    (of its PauliFamily, while that holder is unspent).
    """
    phi = _rank_one_vector(rep, tol)
    d_in = rep.local_dim
    sd = schmidt(phi, d_in, tol)
    if sd.coefficients.size == 0:
        raise NotRankOneError("state vector is numerically zero")
    left_iso = sd.left_vectors.conj()
    right_iso = sd.right_vectors.conj()
    alice = _compress(held(rep, "alice_obs"), left_iso)
    bob = _compress(held(rep, "bob_obs"), right_iso)
    psi = np.diag(sd.coefficients.astype(complex)).reshape(-1)
    return TensorProductRep(alice, bob, psi=psi)


def _compress(family, iso: np.ndarray):
    """iso @ M @ iso^* for each observable (linalg.sandwich).  When that leaves an unspent
    PauliFamily as it is, a read-only view of the holder (PauliFamily.view)."""
    if unspent(family) and gather_steps(iso, iso.conj().T, family.d) == []:
        return family.view()
    return sandwich(iso, as_dense(family), iso.conj().T)


def check_observable(h, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether all eigenvalues lie in [-1, 1] up to psd_tol; also returns the
    largest eigenvalue magnitude."""
    a = require_hermitian(h, tol, what="observable")
    (least,), (largest,) = eigenvalue_bounds(a[None])
    top = max(0.0, float(largest), -float(least))
    return top <= 1.0 + tol.psd_tol, top


def to_matrix_factorization(rep: TensorProductRep, tol: ToleranceConfig = DEFAULT_TOL) -> MatrixFactorization:
    """Bridge a rank-one representation to a weighted factorization.

    With W = vec_inv(psi) Hermitian positive definite, the triple
    (X_i = M_i, Y_j = N_j^T, K = W) satisfies
    c_ij = <K X_i, Y_j K>, so the factorization verifiers apply directly.
    Representations produced by build_tensor_rep or reduce_rank_one_rep have
    this form.
    """
    if rep.psi is None:
        raise NotRankOneError("bridge needs a vector state; reduce the representation first")
    w = vec_inv(rep.psi, rep.local_dim)
    k = require_hermitian(w, tol, what="weight")
    least = eigenvalue_bounds(k[None])[0][0]
    if least <= tol.psd_tol:
        raise NotPsdError(f"weight must be positive definite, min eigenvalue {least:.3e}")
    trace_dev = abs(float(np.trace(k @ k).real) - 1.0)
    if trace_dev > tol.eq_tol:
        raise InvariantViolationError(f"weight trace norm deviates from one by {trace_dev:.3e}")
    y_mats = np.stack([nmat.T for nmat in rep.bob_obs]) if rep.bob_obs.shape[0] else rep.bob_obs
    return MatrixFactorization(rep.alice_obs.copy(), y_mats, k)
