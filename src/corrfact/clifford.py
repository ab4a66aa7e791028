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

Every family the builders make is c_0 I + G(c), nonzero only at the (L+1) d
places of _pauli_tables; from d = GATHER_MIN_DIM on it is kept as its Pauli
coordinates (PauliFamily), which decide its checks (family_fit), and its dense
stack is built when a dataclass field holding it is first read (Family).  Any
other family is dense, and its fit (pauli_coordinates) takes all d^2 entries
of every matrix in one chunked pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ShapeError
from .linalg import (
    DEFAULT_TOL,
    GATHER_MIN_DIM,
    ToleranceConfig,
    anticommutator_deviations,
    as_stack,
    chunks,
    hermitian_deviations,
    require_budget,
    require_hermitian,
    scatter_columns,
    square_deviations,
)
from .report import CheckResult, VerificationReport, decide

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


PAULI_STACK = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])
"""I, X, Y and Z, indexed by the codes 0..3 of a chain's slots."""


def _chain_codes(r: int) -> np.ndarray:
    """The (r, L) slot codes of the chains of gamma_generators(r), r >= 2: chain i of either type
    has Z before slot i, its X (or Y) at slot i and I after it; the odd chain is Z throughout."""
    ell = r // 2
    slot = np.arange(ell)
    steps = np.where(slot < slot[:, None], 3, np.where(slot == slot[:, None], 1, 0))
    return np.concatenate([steps, steps + (steps == 1), np.full((r % 2, ell), 3)])


def gamma_generators(r: int) -> CliffordRep:
    """Construct r anticommuting Hermitian involutions.

    For r >= 2 the matrices have size 2^floor(r/2); rank 1 uses Z in
    dimension 2 (see module docstring).  Ordering: the X-type chains for
    slots 1..L, then the Y-type chains for slots 1..L, then the all-Z chain
    when r is odd.  Every chain is the Kronecker product of its slots' Pauli
    matrices, formed left to right for the whole stack at once: one batched
    product per slot, each entry the products np.kron would form.
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if r == 1:
        return CliffordRep(1, 2, PAULI_Z[np.newaxis].copy())
    ell = r // 2
    require_budget(r * 16 << 2 * ell, f"{r} generators of size {2**ell}")
    codes = _chain_codes(r)
    gens = PAULI_STACK[codes[:, 0]]
    for code in codes[:, 1:].T:
        m = gens.shape[-1]
        gens = (gens[:, :, None, :, None] * PAULI_STACK[code][:, None, :, None, :]).reshape(r, 2 * m, 2 * m)
    return CliffordRep(r, rep_dim(r), gens)


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
    require_budget((2 * ell + 2) * 16 << 2 * ell, f"the Pauli tables of size {d}")
    basis = np.concatenate([np.eye(d, dtype=complex)[None], gamma_generators(2 * ell + 1).generators])
    basis = basis.reshape(2 * ell + 2, d * d)
    pos = np.flatnonzero(np.any(basis, axis=0))
    table = basis[:, pos]
    pos.setflags(write=False)
    table.setflags(write=False)
    return pos, table


@lru_cache(maxsize=None)
def _support_tables(ell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float tables over the row of a matrix's values at the places of _pauli_tables(ell).

    Every entry of a chain is +-1 or +-i, so Re(M_ab conj(G_ab)) is one
    signed component of M: returns, for the d nonzeros of I and each chain
    G, that component's index in the float view of the row (twice the
    place's position, plus one for an imaginary part) and its sign, each of
    shape (2L+2, d), rows ascending; and the float view of the table, whose
    product with real coordinates is the float view of the rebuilt row.
    Read-only.
    """
    table = np.ascontiguousarray(_pauli_tables(ell)[1])
    where = np.nonzero(table)[1].reshape(table.shape[0], -1)
    conj = np.take_along_axis(table, where, axis=1).conj()
    idx = 2 * where + (conj.imag != 0)
    sign = conj.real - conj.imag
    floats = table.view(float)
    for a in (idx, sign, floats):
        a.setflags(write=False)
    return idx, sign, floats


def _support_fit(values: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Pauli coordinates of matrices from their C-ordered complex values at the places of
    _pauli_tables(ell), and |M - M'| there, with M' rebuilt from the coordinates.

    Each coordinate gathers d signed components of the float view and sums
    them in halves; M' is one real GEMM of the coordinates with the float
    view of the table.  At most two chains are nonzero at a place, so each
    rebuilt value is one rounding of exact products, as in the complex GEMM.
    """
    idx, sign, table = _support_tables(ell)
    floats = values.view(float)
    terms = floats[:, idx] * sign
    while terms.shape[-1] > 1:
        half = terms.shape[-1] // 2
        terms = terms[..., :half] + terms[..., half:]
    coords = terms[..., 0] / 2**ell
    rest = floats - coords @ table
    return coords, np.abs(rest.view(complex))


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
    Tr(M'_p M'_q) = d c_p . c_q.  One pass over every entry, a chunk of the
    stack at a time: the coordinates and the rebuilt values come from the
    (L+1) d places of the chains (_support_fit), and the residual takes all
    d^2 entries, so delta sums over the whole matrix.  Only the values at
    those places are copied to complex: the magnitudes of a real stack are
    taken in its own arithmetic (an integer one's as floats), so no chunk is
    copied whole.  Returns None when d is not a power of two >= 2.  (A held
    PauliFamily has its own fit: family_fit.)
    """
    k, d = stack.shape[0], stack.shape[-1]
    ell = d.bit_length() - 1
    if d < 2 or d != 1 << ell:
        return None
    pos = _pauli_tables(ell)[0]
    flat = stack.reshape(k, d * d)
    coords = np.empty((k, 2 * ell + 2))
    delta, resid = np.empty(k), np.empty(k)
    for part in chunks(k, d * d * 16):
        block = flat[part]
        mags = np.abs(block.astype(complex if np.iscomplexobj(block) else float, copy=False))
        values = np.take(block, pos, axis=1).astype(complex, copy=False)
        coords[part], mags[:, pos] = _support_fit(values, ell)
        delta[part] = np.sqrt(np.einsum("ij,ij->i", mags, mags))
        resid[part] = np.max(mags, axis=1, initial=0.0)
    return coords, delta, resid


def chain_coordinates(rows, c0: float = 0.0, transpose: bool = False) -> np.ndarray:
    """The Pauli coordinates of c0 I + sum_i u_i G_i for each row u of an (m, r) array, G_1..G_r
    being gamma_generators(r): an (m, 2L+2) array over I and the chains of gamma_generators(2L+1),
    L = max(floor(r/2), 1) (rank 1 is the Z chain at d = 2).  With `transpose`, those of the
    transposes: Y^T = -Y, and the X-type and Z chains are symmetric, so the Y-type coordinates
    are negated.
    """
    coeffs = np.asarray(rows, dtype=float)
    r = coeffs.shape[1]
    ell = max(r // 2, 1)
    coords = np.zeros((len(coeffs), 2 * ell + 2))
    coords[:, 0] = c0
    if r == 1:
        coords[:, 3] = coeffs[:, 0]
    else:
        coords[:, 1 : r + 1] = coeffs
        if transpose:
            coords[:, ell + 1 : 2 * ell + 1] *= -1.0
    return coords


def chain_products(coords: np.ndarray, scales: tuple[float, ...] = ()) -> np.ndarray:
    """The values of the matrices with Pauli coordinates `coords` at the (L+1) d places of
    _pauli_tables(L), multiplied by each of `scales` in turn: an (m, (L+1) d) complex array,
    c @ table a chunk of rows at a time (a quarter of linalg.CHUNK_BYTES of values).

    The inverse of pauli_coordinates.  X_i and Y_i share their places and every other chain is
    zero there, so each value off the diagonal is one signed product, and each diagonal value
    one rounding of c_0 +- c_Z; each scale rounds once more.
    """
    ell = (coords.shape[1] - 2) // 2
    pos, table = _pauli_tables(ell)
    require_budget(len(coords) * table[0].nbytes, f"the chain values of {len(coords)} matrices of size {2**ell}")
    values = np.empty((len(coords), pos.size), dtype=complex)
    for part in chunks(len(coords), 4 * table[0].nbytes):
        np.matmul(coords[part], table, out=values[part])
        for scale in scales:
            values[part] *= scale
    return values


def max_entries(coords: np.ndarray) -> np.ndarray:
    """max_ab |M'_ab| of M' = c_0 I + G(c) for each row c of Pauli coordinates: |c_0| + |c_Z| on
    the diagonal, where the Z chain takes both signs, and |c_X_i + i c_Y_i| at the other places
    of slot i."""
    ell = (coords.shape[1] - 2) // 2
    diagonal = np.abs(coords[:, 0]) + np.abs(coords[:, -1])
    return np.maximum(diagonal, np.hypot(coords[:, 1 : ell + 1], coords[:, ell + 1 : -1]).max(axis=1, initial=0.0))


UNIT_ROUNDOFF = 2.0**-53
UNDERFLOW = 2.0**-1074
"""The least positive subnormal: a rounding near zero errs by up to half of it, whatever its
relative error, and a square below it may vanish."""


class PauliFamily:
    """A complex family of shape lead + (d, d), each matrix c_0 I + G(c) up to rounding, held as
    its Pauli coordinates (the paper's central fact: the matrices of a built family generate a
    Clifford algebra, so (2L+2) reals describe each of them).

    `coords` is the (k, 2L+2) array of chain_coordinates, k the product of `lead`, and the
    values are chain_products(coords, scales), the bits every builder has always made.  fit()
    gives the coordinates and a bound on how far the values lie from them, without forming a
    value.

    dense() scatters the values into a writable C-ordered zero stack on its first call and
    keeps it; from then on the holder is spent, and every reader takes that stack, so an edit
    made through it is seen by every later check.  A view (view()) shares the coordinates and
    the dense stack of its base, and gives that stack read-only.  A leading slice of an unspent
    family with one leading axis is a family over those rows, with a dense stack of its own.
    """

    __slots__ = ("coords", "d", "lead", "scales", "_dense", "_base")

    def __init__(self, coords, d, lead, scales=(), *, base=None):
        self.coords, self.d, self.lead, self.scales = coords, d, tuple(lead), tuple(scales)
        self._dense, self._base = None, base

    @property
    def shape(self) -> tuple[int, ...]:
        return self.lead + (self.d, self.d)

    @property
    def spent(self) -> bool:
        return (self if self._base is None else self._base)._dense is not None

    def coordinates(self) -> np.ndarray:
        """The (k, 2L+2) coordinates of the matrices, the scales applied."""
        out = self.coords
        for scale in self.scales:
            out = out * scale
        return out

    def fit(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """pauli_coordinates of the matrices, from the coordinates: (c, delta, resid) with the
        rounding bound in place of the measured residual.

        A value is one rounding of at most two exact chain terms and one more per scale, and a
        scaled coordinate one per scale: kappa = 2 (#scales) + 1 roundings, and one unit to
        spare for the second-order terms.  Each rounding errs by at most u |x| + eta/2
        (u = 2^-53, eta = UNDERFLOW), and a later scale s carries an earlier error on, so
        entry (a, b) of a matrix lies within kappa (u A_ab + eta S) of c_0 I + G(c) in each
        part, where A = sum_p |c_p| |G_p| and S = prod max(1, |s|).  With (L+1) d places, that
        gives delta <= kappa (u sqrt(2 d) ||c|| + eta S sqrt(2 (L+1) d)) and
        resid <= kappa sqrt(2) (u max_entries(c) + eta S); ||c||^2 takes (2L+2) eta more, for
        squares that underflow.  A non-finite bound proves nothing: its check fails, and the
        dense path decides.
        """
        coords = self.coordinates()
        mags = np.abs(coords)
        kappa = 2 * len(self.scales) + 2
        err = kappa * UNIT_ROUNDOFF
        floor = kappa * UNDERFLOW * math.prod(max(1.0, abs(float(s))) for s in self.scales)
        places = coords.shape[1] // 2 * self.d
        norms = np.sqrt(np.einsum("ij,ij->i", mags, mags) + coords.shape[1] * UNDERFLOW)
        delta = err * math.sqrt(2 * self.d) * norms + floor * math.sqrt(2 * places)
        return coords, delta, math.sqrt(2.0) * (err * max_entries(mags) + floor)

    def dense(self) -> np.ndarray:
        if self._dense is None:
            if self._base is None:
                k, d = math.prod(self.lead), self.d
                require_budget(k * 16 * d * d, f"a dense stack of {k} matrices of size {d}")
                out = np.zeros(self.shape, dtype=complex)
                places = _pauli_tables(d.bit_length() - 1)[0]
                scatter_columns(out.reshape(k, d * d), places, chain_products(self.coords, self.scales))
            else:
                out = self._base.dense().view()
                out.flags.writeable = False
            self._dense = out
        return self._dense

    def view(self) -> PauliFamily:
        base = self if self._base is None else self._base
        return PauliFamily(self.coords, self.d, self.lead, self.scales, base=base)

    def __getitem__(self, key):
        if self.spent or len(self.lead) != 1 or not isinstance(key, slice):
            return self.dense()[key]
        coords = self.coords[key]
        return PauliFamily(coords, self.d, coords.shape[:1], self.scales)


def chain_family(rows, lead: tuple[int, ...], c0: float = 0.0, scale: float = 1.0, transpose: bool = False):
    """The matrices scale (c0 I + sum_i u_i G_i) of chain_coordinates, shaped lead + (d, d): a
    PauliFamily when d is at least GATHER_MIN_DIM, else its dense stack (PauliFamily.dense)."""
    coords = chain_coordinates(rows, c0, transpose)
    family = PauliFamily(coords, 2 ** ((coords.shape[1] - 2) // 2), lead, () if scale == 1.0 else (scale,))
    return family if family.d >= GATHER_MIN_DIM else family.dense()


def unspent(family) -> bool:
    """Whether a family is an unspent PauliFamily, whose coordinates decide its checks."""
    return isinstance(family, PauliFamily) and not family.spent


def as_dense(family):
    """The dense stack of a PauliFamily (PauliFamily.dense); anything else as it is."""
    return family.dense() if isinstance(family, PauliFamily) else family


def family_fit(family) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(coords, delta, resid) of a (..., d, d) family over its leading axes, as pauli_coordinates
    gives them: an unspent PauliFamily's own (PauliFamily.fit, the analytic rounding bound),
    else pauli_coordinates of its dense stack.  The one fit every Pauli-coordinate check takes."""
    if unspent(family):
        return family.fit()
    stack = as_dense(family)
    return pauli_coordinates(stack.reshape((-1,) + stack.shape[-2:]))


class Family:
    """A dataclass field that holds a stack of matrices, given as an array or as a PauliFamily.

    Reading the field gives an array, as it always has: a PauliFamily's dense
    stack (PauliFamily.dense), built on that first read.  held() gives what
    the field holds without building it.  Without a default: the class
    attribute raises AttributeError, so the dataclass finds none.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        return as_dense(obj.__dict__[self.name])

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value


def as_family(family, what: str, d: int | None = None):
    """A (k, d, d) family checked as linalg.as_stack checks it: a PauliFamily with one leading axis
    (of size d, when d is given) as it is, anything else as a complex array (its dense stack)."""
    if isinstance(family, PauliFamily) and len(family.lead) == 1 and d in (None, family.d):
        return family
    return as_stack(as_dense(family), what, d)


def held(obj, name: str):
    """What the Family field `name` of obj holds: a PauliFamily, or the array it was given."""
    return vars(obj)[name]


def pauli_gram(coords: np.ndarray, delta: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix Tr(M'_p M'_q) = d c_p . c_q of the rebuilt matrices, and how far the
    Gram matrix Tr(M_p M_q^*) of the matrices themselves may lie from it, entrywise.

    With M = M' + R and ||R||_F = delta, |Tr(M_p M_q^*) - Tr(M'_p M'_q)| is at
    most delta_p ||M_q||_F + ||M'_p||_F delta_q, and ||M_q||_F is at most
    ||M'_q||_F + delta_q.  Near zero a product errs by up to UNDERFLOW / 2, whatever its relative
    error, as in PauliFamily.fit: ||c||^2 takes (2L+2) UNDERFLOW, for squares that underflow,
    and a pair with a row whose norm lies below sqrt(2^-1022 / u), so that the Gram entry's and
    the slack's own products may fall below the normal range, takes d (2L+2) UNDERFLOW more.
    Rows whose norms and squared norms lie above these bounds keep the bits of the slack
    without these terms, and when every row does, no further (k, k) array is formed.
    """
    terms = coords.shape[1] * UNDERFLOW
    norms = math.sqrt(d) * np.sqrt(np.add.reduce(coords * coords, axis=1) + terms)
    slack = np.outer(delta, norms + delta) + np.outer(norms, delta)
    small = norms < math.sqrt(np.finfo(float).tiny / UNIT_ROUNDOFF)
    if small.any():
        slack[small[:, None] | small] += d * terms
    return d * (coords @ coords.T), slack


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
    is a Pauli combination, whose largest entry is taken from its
    coordinates (_largest_entries), with no table and no entry formed.  A row
    or column of M' has at most L+1 nonzeros, so its l1 norm is at most
    l = |c_0| + sqrt(L+1) ||c||, and every entry of M' R is at most
    l max|R|.  The bound adds 2 (l_i max|R_j| + l_j max|R_i|) + 2 delta_i delta_j
    for the terms that hold R.  A pair (i, i) bounds 2 M_i^2 - s I, twice the
    deviation of M_i^2 from (s/2) I.
    """
    ell = (coords.shape[1] - 2) // 2
    vec = coords[:, 1:]
    l1 = np.abs(coords[:, 0]) + math.sqrt(ell + 1) * np.sqrt(np.einsum("pk,pk->p", vec, vec))
    ci, cj = coords[rows], coords[cols]
    closed = 2.0 * (ci[:, :1] * cj + cj[:, :1] * ci)
    closed[:, 0] = 2.0 * np.einsum("pk,pk->p", ci, cj) - shifts
    return _largest_entries(closed) + 2.0 * (l1[rows] * resid[cols] + l1[cols] * resid[rows] + delta[rows] * delta[cols])


def _largest_entries(coords: np.ndarray) -> np.ndarray:
    """max_ab |M_ab| of M = b_0 I + G(b) for each row b of Pauli coordinates, with the bits of
    the largest magnitude of b @ table over the places of _pauli_tables(L), without the table.

    The diagonal holds b_0 +- b_Z, each one rounding as in the product, and the two places of
    slot i off it hold +-(b_X_i +- i b_Y_i), whose magnitude is one complex abs (numpy's, which
    np.hypot does not always reproduce).  A row with a non-finite coordinate meets a zero of
    the table in the product, so it gives NaN, as the product does.  (max_entries gives the
    same in exact arithmetic, through np.hypot, for the rounding bounds of PauliFamily.fit.)
    """
    ell = (coords.shape[1] - 2) // 2
    slots = np.empty((len(coords), ell), dtype=complex)
    slots.real, slots.imag = coords[:, 1 : ell + 1], coords[:, ell + 1 : -1]
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal; the row is NaN below anyway
        diagonal = np.maximum(np.abs(coords[:, 0] + coords[:, -1]), np.abs(coords[:, 0] - coords[:, -1]))
    out = np.maximum(diagonal, np.abs(slots).max(axis=1, initial=0.0))
    out[~np.isfinite(coords).all(axis=1)] = np.nan
    return out


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
    orthonormal rows, with no I component unless the family has one matrix,
    and each matrix is exactly its signed chain, so exactly Hermitian.
    By the closed form M_i M_j + M_j M_i = 2 (c_0i c_0j + c_i . c_j) I
    + 2 c_0i G(c_j) + 2 c_0j G(c_i) every square is I and every distinct
    pair anticommutes, exactly; the entries being 0, +-1 and +-i, the
    batched products come out exactly zero too.
    """
    with np.errstate(invalid="ignore"):  # a non-finite entry gives a non-finite residual, quietly
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
    every deviation is exactly zero, as the batched products find, and the
    family is exactly Hermitian, so it takes no Hermitian pass.  Any other
    family takes that pass first, so the first non-Hermitian generator
    raises; its worst generator and pair come from rounding that no bound
    predicts, so its squares are one batched matmul over the stack and the
    k(k-1)/2 distinct pairs are formed in chunked batched products.
    """
    arr = as_stack(mats, "generators")
    k = arr.shape[0]
    if k == 0:
        raise ShapeError(f"generators must form a nonempty (k, d, d) stack, got {arr.shape}")
    chains = _signed_chains(arr)
    if not chains:
        bad = np.flatnonzero(~(hermitian_deviations(arr) <= tol.eq_tol))
        if bad.size:  # the first failing generator raises as its own check would
            require_hermitian(arr[bad[0]], tol, what=f"generator {bad[0] + 1}")
    rows, cols = np.triu_indices(k, 1)
    return decide(
        partial(_relations_report, rows=rows, cols=cols, tol=tol),
        (np.zeros(k), np.zeros(rows.size)) if chains else None,
        lambda: _dense_relation_deviations(arr, rows, cols),
    )
