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

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ShapeError
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    anticommutator_deviations,
    as_stack,
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
