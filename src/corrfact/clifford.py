"""Anticommuting Hermitian generator families built from Pauli tensor chains.

A rank-r family consists of Hermitian matrices G_1, ..., G_r satisfying
G_i G_j + G_j G_i = 2 delta_ij I.  For even rank 2L the construction lives
in dimension 2^L: generators 1..L carry an X factor at slot i preceded by
Z factors, generators L+1..2L carry a Y factor in the same pattern.  Odd
rank 2L+1 appends the all-Z chain.  Rank 1 is special-cased to the single
generator Z in dimension 2 so that every family is traceless and the trace
identity d <x, y> = Tr(G(x) G(y)) holds uniformly; the irreducible
dimension for rank 1 is still 2^0 = 1 and is reported separately by the
certificate layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ShapeError
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    anticommutator_deviations,
    as_stack,
    chunks,
    hermitian_deviations,
    require_hermitian,
    square_deviations,
)
from .report import CheckResult, VerificationReport

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class CliffordRep:
    """Concrete generator family; generators has shape (rank, rep_dim, rep_dim)."""

    rank: int
    rep_dim: int
    generators: np.ndarray


def irreducible_dim(r: int) -> int:
    """Least possible size 2^floor(r/2) of a rank-r generator family."""
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    return 2 ** (r // 2)


def rep_dim(r: int) -> int:
    """Size of the matrices gamma_generators(r) builds: 2^floor(r/2), and 2 at rank 1."""
    return 2 if r == 1 else irreducible_dim(r)


def _chain(*factors: np.ndarray) -> np.ndarray:
    return reduce(np.kron, factors)


def gamma_generators(r: int) -> CliffordRep:
    """Construct r anticommuting Hermitian involutions.

    For r >= 2 the matrices have size 2^floor(r/2); rank 1 uses Z in
    dimension 2 (see module docstring).  Ordering: the X-type chains for
    slots 1..L, then the Y-type chains for slots 1..L, then the all-Z chain
    when r is odd.
    """
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


@lru_cache(maxsize=None)
def _pauli_tables(ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Where I and the 2L+1 chains of gamma_generators(2L+1) are nonzero, and their entries there.

    Returns the flat indices a*d + b (d = 2^L, ascending) at which some chain
    is nonzero and a (2L+2, len) table of each chain's entries at them, the
    identity first.  Each chain is monomial and chains of one slot share
    their positions, so there are (L+1) d indices.  Read-only: the cache
    hands the same arrays to every caller.
    """
    d = 2**ell
    basis = np.concatenate([np.eye(d, dtype=complex)[None], gamma_generators(2 * ell + 1).generators])
    basis = basis.reshape(2 * ell + 2, d * d)
    pos = np.flatnonzero(np.any(basis, axis=0))
    table = basis[:, pos]
    pos.setflags(write=False)
    table.setflags(write=False)
    return pos, table


def pauli_coordinates(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Pauli coordinates of each matrix of a (k, d, d) stack, and how far the matrix lies from them.

    For d = 2^L >= 2, with G_1..G_{2L+1} the chains of gamma_generators(2L+1),
    returns three arrays over the stack:

    - c, shape (k, 2L+2): the real parts of c_0 = Tr(M)/d and
      c_j = Tr(G_j M)/d, each a gather of d entries;
    - delta: ||M - M'||_F, where M' = c_0 I + sum_j c_j G_j is rebuilt from
      the real parts, so imaginary parts count towards delta;
    - resid: max|M - M'|.

    I and the G_j are orthogonal with Tr(G_j G_l) = d delta_jl and
    G(c)^2 = ||c||^2 I, so M' has the eigenvalues c_0 +- ||c|| and
    Tr(M'_p M'_q) = d c_p . c_q.  The residual pass works a chunk of the
    stack at a time.  Returns None when d is not a power of two >= 2.
    """
    k, d = stack.shape[0], stack.shape[-1]
    ell = d.bit_length() - 1
    if d < 2 or d != 1 << ell:
        return None
    pos, table = _pauli_tables(ell)
    flat = stack.reshape(k, d * d)
    coords = np.empty((k, table.shape[0]))
    delta, resid = np.empty(k), np.empty(k)
    for part in chunks(k, d * d * 16):
        block = np.array(flat[part], dtype=complex)
        coords[part] = (block[:, pos] @ table.conj().T).real / d
        block[:, pos] -= coords[part] @ table
        mags = np.abs(block)
        delta[part] = np.sqrt(np.einsum("ij,ij->i", mags, mags))
        resid[part] = np.max(mags, axis=1, initial=0.0)
    return coords, delta, resid


def pauli_gram(coords: np.ndarray, delta: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix Tr(M'_p M'_q) = d c_p . c_q of the rebuilt matrices, and how far the
    Gram matrix Tr(M_p M_q^*) of the matrices themselves may lie from it, entrywise.

    With M = M' + R and ||R||_F = delta, |Tr(M_p M_q^*) - Tr(M'_p M'_q)| is at
    most delta_p ||M_q||_F + ||M'_p||_F delta_q, and ||M_q||_F is at most
    ||M'_q||_F + delta_q.
    """
    norms = math.sqrt(d) * np.linalg.norm(coords, axis=1)
    return d * (coords @ coords.T), np.outer(delta, norms + delta) + np.outer(norms, delta)


def gamma_of_vector(rep: CliffordRep, x) -> np.ndarray:
    """Evaluate the linear map x -> sum_i x_i G_i.

    The result squares to ||x||^2 I and satisfies
    rep_dim * <x, y> = Tr(G(x) G(y)).
    """
    coeffs = np.asarray(x, dtype=float).reshape(-1)
    if coeffs.size != rep.rank:
        raise ShapeError(f"expected a vector of length {rep.rank}, got {coeffs.size}")
    return np.tensordot(coeffs, rep.generators, axes=1)


def gamma_of_rows(rep: CliffordRep, rows) -> np.ndarray:
    """Evaluate x -> sum_i x_i G_i on every row of an (m, rank) array.

    One tensordot of the rows with the generator stack; returns (m, d, d).
    """
    coeffs = np.asarray(rows, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[1] != rep.rank:
        raise ShapeError(f"expected rows of length {rep.rank}, got shape {coeffs.shape}")
    return np.tensordot(coeffs, rep.generators, axes=1)


def verify_clifford_relations(mats, tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    """Check that a family of Hermitian matrices anticommutes pairwise.

    Reports the worst deviation of M_i M_j + M_j M_i - 2 delta_ij I over all
    pairs; passes iff every deviation is within eq_tol.  The squares are one
    batched matmul over the stack and the k(k-1)/2 distinct pairs are formed
    in chunked batched products; the notes name the first generator and the
    first pair, in (i, j) order, that attain the worst deviation.
    """
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
