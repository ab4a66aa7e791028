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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices: the same products a_ij b_kl, without its n-d bookkeeping."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def _chain(*factors: np.ndarray) -> np.ndarray:
    return reduce(_kron, factors)


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


@lru_cache(maxsize=None)
def _chain_entries(ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Where Re(M_ab conj(G_ab)) sits for the d nonzeros of I and each chain G of _pauli_tables(ell).

    Every entry of a chain is +-1 or +-i, so that real part is one signed
    component of M: returns its index in the float view of the flattened
    matrix (twice the flat index, plus one for an imaginary part) and its
    sign, each of shape (2L+2, d), rows ascending; read-only.
    """
    pos, table = _pauli_tables(ell)
    where = np.nonzero(table)[1].reshape(table.shape[0], -1)
    conj = np.take_along_axis(table, where, axis=1).conj()
    idx = 2 * pos[where] + (conj.imag != 0)
    sign = conj.real - conj.imag
    idx.setflags(write=False)
    sign.setflags(write=False)
    return idx, sign


def pauli_coordinates(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Pauli coordinates of each matrix of a (k, d, d) stack, and how far the matrix lies from them.

    For d = 2^L >= 2, with G_1..G_{2L+1} the chains of gamma_generators(2L+1),
    returns three arrays over the stack:

    - c, shape (k, 2L+2): the real parts of c_0 = Tr(M)/d and
      c_j = Tr(G_j M)/d, each a gather of d entries summed in halves, so
      that d terms equal up to sign add up exactly;
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
    idx, sign = _chain_entries(ell)
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


def write_combinations(rows, out: np.ndarray, c0: float = 0.0, scale: float = 1.0) -> None:
    """Write scale (c0 I + sum_i u_i G_i) for each row u of an (m, r) array into out, a zeroed
    (m, d, d) stack, G_1..G_r being gamma_generators(r) at d = rep_dim(r).

    The inverse of pauli_coordinates: the rows are laid out as coordinates
    over I and the chains of gamma_generators(2L+1) (rank 1 is the Z chain
    at d = 2), and only the (L+1) d places where those are nonzero are
    written, with the values c @ table of _pauli_tables.  X_i and Y_i share
    their places and every other chain is zero there, so each value off the
    diagonal is one signed product; the rest of out stays zero.  out may be
    any view, such as a transposed one.
    """
    coeffs = np.asarray(rows, dtype=float)
    r = coeffs.shape[1]
    ell = max(r // 2, 1)
    d = 2**ell
    if out.shape != (len(coeffs), d, d):
        raise ShapeError(f"expected a ({len(coeffs)}, {d}, {d}) stack, got {out.shape}")
    pos, table = _pauli_tables(ell)
    coords = np.zeros((len(coeffs), table.shape[0]))
    coords[:, 0] = c0
    if r == 1:
        coords[:, 3] = coeffs[:, 0]
    else:
        coords[:, 1 : r + 1] = coeffs
    values = coords @ table
    if scale != 1.0:
        values *= scale
    out[:, pos // d, pos % d] = values


def pauli_gram(coords: np.ndarray, delta: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix Tr(M'_p M'_q) = d c_p . c_q of the rebuilt matrices, and how far the
    Gram matrix Tr(M_p M_q^*) of the matrices themselves may lie from it, entrywise.

    With M = M' + R and ||R||_F = delta, |Tr(M_p M_q^*) - Tr(M'_p M'_q)| is at
    most delta_p ||M_q||_F + ||M'_p||_F delta_q, and ||M_q||_F is at most
    ||M'_q||_F + delta_q.
    """
    norms = math.sqrt(d) * np.linalg.norm(coords, axis=1)
    return d * (coords @ coords.T), np.outer(delta, norms + delta) + np.outer(norms, delta)


def pauli_square_bounds(coords: np.ndarray, delta: np.ndarray, square: float) -> np.ndarray:
    """Upper bounds on max|M^2 - square I| for each matrix, from its Pauli coordinates and residual.

    With M = M' + R, M' = c_0 I + G(c) and ||R||_F = delta, M'^2 is
    (c_0^2 + ||c||^2) I + 2 c_0 G(c) and ||M'||_2 = |c_0| + ||c||, so
    max|M^2 - s I| <= |c_0^2 + ||c||^2 - s| + 2|c_0| ||c|| + 2 ||M'||_2 delta + delta^2.
    """
    c0, radius = np.abs(coords[:, 0]), np.linalg.norm(coords[:, 1:], axis=1)
    return np.abs(c0**2 + radius**2 - square) + 2.0 * c0 * radius + 2.0 * (c0 + radius) * delta + delta**2


def pauli_anticommutators(
    coords: np.ndarray, delta: np.ndarray, resid: np.ndarray, rows, cols, shifts
) -> np.ndarray:
    """Upper bounds on max|M_i M_j + M_j M_i - s_p I| for each pair p = (rows[p], cols[p]) of
    a family given by its Pauli coordinates (pauli_coordinates), without a matrix product.

    With M = M' + R and M' = c_0 I + G(c), the closed form
    M'_i M'_j + M'_j M'_i = 2 (c_0i c_0j + c_i . c_j) I + 2 c_0i G(c_j) + 2 c_0j G(c_i)
    is evaluated at the (L+1) d places where I and the chains are nonzero
    (every other entry is zero), and its largest entry is taken.  A row or
    column of M' has at most L+1 nonzeros, so its l1 norm is at most
    l = |c_0| + sqrt(L+1) ||c||, and every entry of M' R is at most
    l max|R|.  The bound adds 2 (l_i max|R_j| + l_j max|R_i|) + 2 delta_i delta_j
    for the terms that hold R.  A pair (i, i) bounds 2 M_i^2 - s I, twice the
    deviation of M_i^2 from (s/2) I.
    """
    ell = (coords.shape[1] - 2) // 2
    table = _pauli_tables(ell)[1]
    vec = coords[:, 1:]
    l1 = np.abs(coords[:, 0]) + math.sqrt(ell + 1) * np.sqrt(np.einsum("pk,pk->p", vec, vec))
    ci, cj = coords[rows], coords[cols]
    closed = 2.0 * (ci[:, :1] * cj + cj[:, :1] * ci)
    closed[:, 0] = 2.0 * np.einsum("pk,pk->p", ci, cj) - shifts
    out = np.empty(len(closed))
    for part in chunks(len(closed), table.shape[1] * 16):
        out[part] = np.abs(closed[part] @ table).max(axis=1, initial=0.0)
    return out + 2.0 * (l1[rows] * resid[cols] + l1[cols] * resid[rows] + delta[rows] * delta[cols])


def gamma_of_vector(rep: CliffordRep, x) -> np.ndarray:
    """Evaluate the linear map x -> sum_i x_i G_i.

    The result squares to ||x||^2 I and satisfies
    rep_dim * <x, y> = Tr(G(x) G(y)).
    """
    coeffs = np.asarray(x, dtype=float).reshape(-1)
    if coeffs.size != rep.rank:
        raise ShapeError(f"expected a vector of length {rep.rank}, got {coeffs.size}")
    return np.tensordot(coeffs, rep.generators, axes=1)


def _relations_report(sq_devs, anti_devs, rows, cols, tol: ToleranceConfig) -> VerificationReport:
    """The two relation checks from the deviation of each square and each distinct pair."""
    worst_sq = int(np.argmax(sq_devs))
    dev_sq = float(sq_devs[worst_sq])
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


def _signed_chains(arr: np.ndarray) -> bool:
    """Whether each matrix is + or - a distinct chain, or the family is the single matrix +-I.

    Then its Pauli coordinates are integers without a residual and form
    orthonormal rows, with no I component unless the family has one matrix.
    By the closed form M_i M_j + M_j M_i = 2 (c_0i c_0j + c_i . c_j) I
    + 2 c_0i G(c_j) + 2 c_0j G(c_i) every square is I and every distinct
    pair anticommutes, exactly; the entries being 0, +-1 and +-i, the
    batched products come out exactly zero too.
    """
    fit = pauli_coordinates(arr)
    if fit is None:
        return False
    coords, _, resid = fit
    if resid.any() or not np.array_equal(coords, np.round(coords)):
        return False
    if coords[:, 0].any() and len(coords) > 1:
        return False
    return np.array_equal(coords @ coords.T, np.eye(len(coords)))


def _dense_relation_deviations(arr: np.ndarray, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """max|M_i^2 - I| per generator and max|M_i M_j + M_j M_i| per pair, by batched products."""
    return square_deviations(arr), anticommutator_deviations(arr, rows, cols, np.zeros(rows.size))


def verify_clifford_relations(mats, tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    """Check that a family of Hermitian matrices anticommutes pairwise.

    Reports the worst deviation of M_i M_j + M_j M_i - 2 delta_ij I over all
    pairs; passes iff every deviation is within eq_tol.  The notes name the
    first generator and the first pair, in (i, j) order, that attain the
    worst deviation.  A family of signed chains (_signed_chains), such as
    the output of gamma_generators, is decided from its Pauli coordinates:
    every deviation is exactly zero, as the batched products find.  Any
    other family's worst generator and pair come from rounding that no
    bound predicts, so its squares are one batched matmul over the stack
    and the k(k-1)/2 distinct pairs are formed in chunked batched products.
    """
    arr = as_stack(mats, "generators")
    k = arr.shape[0]
    if k == 0:
        raise ShapeError(f"generators must form a nonempty (k, d, d) stack, got {arr.shape}")
    bad = np.flatnonzero(~(hermitian_deviations(arr) <= tol.eq_tol))
    if bad.size:  # the first failing generator raises as its own check would
        require_hermitian(arr[bad[0]], tol, what=f"generator {bad[0] + 1}")
    rows, cols = np.triu_indices(k, 1)
    if _signed_chains(arr):
        return _relations_report(np.zeros(k), np.zeros(rows.size), rows, cols, tol)
    return _relations_report(*_dense_relation_deviations(arr, rows, cols), rows, cols, tol)
