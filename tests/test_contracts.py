"""The linalg contract helpers against the inline checks they replaced.

hermitian_deviations, eigenvalue_bounds and as_stack took over expressions
that used to be written out in each module; ``oracles.py`` keeps those
expressions and the validators built from them.  The helpers must agree
with them exactly, on real and complex input, on empty stacks and single
matrices, and across chunk boundaries.
"""

import math

import numpy as np
import pytest

from corrfact import linalg
from corrfact.clifford import gamma_generators, verify_clifford_relations
from corrfact.cpsd import CpsdFactorization, build_cpsd_factorization
from corrfact.elliptope import _require_symmetric, check_membership, gen_extreme_lex, random_correlation
from corrfact.errors import ShapeError
from corrfact.linalg import DEFAULT_TOL, as_stack, eigenvalue_bounds, hermitian_deviations, require_hermitian
from corrfact.quantum import check_observable

import oracles
from conftest import is_psd

D = 4
# one matrix per chunk, a boundary inside the third complex matrix, one chunk
CHUNK_SIZES = [1, 2 * D * D * 16 + 5, linalg.CHUNK_BYTES]


def _stack(rng, k, kind, d=D):
    """k matrices near Hermitian (deviations about 1e-11) with spectra around [-2, 2]."""
    a = rng.standard_normal((k, d, d))
    if kind == "complex":
        a = a + 1j * rng.standard_normal((k, d, d))
    herm = (a + a.conj().swapaxes(-1, -2)) / 2.0
    return herm + 1e-11 * rng.standard_normal((k, d, d))


@pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("k", [0, 1, 7])
def test_hermitian_deviations_equal_the_inline_form(monkeypatch, rng, chunk_bytes, kind, k):
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    stack = _stack(rng, k, kind)
    got = hermitian_deviations(stack)
    assert got.shape == (k,)
    assert got.tolist() == [oracles.hermitian_deviation(m) for m in stack]


@pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("k", [0, 1, 7])
def test_eigenvalue_bounds_equal_the_inline_form(monkeypatch, rng, chunk_bytes, kind, k):
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    stack = _stack(rng, k, kind)
    lo, hi = eigenvalue_bounds(stack)
    assert lo.shape == hi.shape == (k,)
    assert list(zip(lo.tolist(), hi.tolist())) == [oracles.eigenvalue_extremes(m) for m in stack]


def test_real_input_keeps_its_dtype(rng):
    stack = _stack(rng, 5, "real").astype(np.float32)
    assert hermitian_deviations(stack).tolist() == [oracles.hermitian_deviation(m) for m in stack]
    ints = np.array([[[2, 1], [1, 2]], [[0, 3], [1, 0]]])
    assert hermitian_deviations(ints).tolist() == [0.0, 2.0]
    assert [b.tolist() for b in eigenvalue_bounds(ints)] == [[1.0, -2.0], [3.0, 2.0]]
    assert check_membership(np.eye(3, dtype=int))


@pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
@pytest.mark.parametrize("r", [1, 2, 5])
def test_cpsd_factor_checks_equal_the_per_factor_loop(monkeypatch, rng, chunk_bytes, r):
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    mats = build_cpsd_factorization(gen_extreme_lex(r)[0]).mats.copy()
    mats[-1, 1] += 1e-9 * (rng.standard_normal(mats.shape[-2:]) + 1j * rng.standard_normal(mats.shape[-2:]))
    stack = CpsdFactorization(mats).mats.reshape(-1, *mats.shape[-2:])
    got = (float(np.max(hermitian_deviations(stack), initial=0.0)), float(np.min(eigenvalue_bounds(stack)[0])))
    assert got == oracles._hermitian_psd_deviation(stack)


def test_empty_matrices():
    assert hermitian_deviations(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]
    lo, hi = eigenvalue_bounds(np.zeros((2, 0, 0), dtype=complex))
    assert lo.tolist() == [math.inf] * 2 and hi.tolist() == [-math.inf] * 2
    empty = np.zeros((0, 0))
    assert check_observable(empty) == oracles.check_observable(empty) == (True, 0.0)
    assert is_psd(empty) is oracles.is_psd(empty) is True


def test_former_is_psd_and_check_observable_agree_with_the_inline_forms(rng):
    cases = list(_stack(rng, 20, "complex")) + list(_stack(rng, 20, "real"))
    cases += [np.zeros((3, 3)), -np.zeros((2, 2)), np.eye(3), np.diag([1.0, -1e-10]), np.diag([1.0, -1e-8])]
    for m in cases:
        assert is_psd(m) is oracles.is_psd(m)
        assert check_observable(m) == oracles.check_observable(m)
        assert check_observable(m / 2.0) == oracles.check_observable(m / 2.0)


def test_membership_agrees_with_the_inline_form(rng):
    cases = [random_correlation(6, 3, rng) for _ in range(10)]
    cases += [np.eye(4), np.array([[1.0, 2.0], [2.0, 1.0]]), np.diag([1.0, 1.0 + 1e-9])]
    cases += [gen_extreme_lex(r)[0] for r in (1, 2, 5)]
    for e in cases:
        assert check_membership(e) is oracles.check_membership(e)


@pytest.mark.parametrize(
    "m",
    [
        np.array([[1.0, 0.5], [0.5, 1.0]]),
        np.array([[1.0, 0.5], [0.5 + 1e-11, 1.0]]),
        np.array([[1.0, 0.5], [0.6, 1.0]]),
        np.array([[1.0, 0.5 + 0j], [0.5, 1.0]]),
        np.array([[1.0, 0.5 + 1e-3j], [0.5, 1.0]]),
        np.ones((2, 3)),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.zeros((0, 0)),
    ],
    ids=["symmetric", "within_tol", "asymmetric", "complex_real", "complex_imag", "non_square", "nan", "empty"],
)
def test_require_symmetric_matches_the_parent(m):
    try:
        want = oracles._require_symmetric(m, DEFAULT_TOL)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            _require_symmetric(m, DEFAULT_TOL)
        assert str(got.value) == str(exc)
    else:
        got = _require_symmetric(m, DEFAULT_TOL)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize(
    "mats",
    [
        [np.eye(2), np.eye(2)],
        np.zeros((3, 4, 4)),
        np.zeros((0, 2, 2)),
        [[[1.0, 0.0], [0.0]]],
        np.eye(2),
        np.zeros((2, 2, 3)),
        "not a matrix",
    ],
    ids=["list", "array", "empty", "ragged", "two_d", "non_square", "string"],
)
def test_as_stack_matches_the_parent_coercion(mats):
    try:
        want = oracles._mat_stack(mats, "involutions")
    except ShapeError as exc:
        with pytest.raises(ShapeError) as got:
            as_stack(mats, "involutions")
        assert str(got.value) == str(exc)
    else:
        got = as_stack(mats, "involutions")
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("empty", [[], np.zeros(0), np.zeros((0, 3, 3)), np.zeros((0, 0, 0))])
def test_as_stack_gives_an_empty_family_its_size(empty):
    got = as_stack(empty, "Y family", 2)
    assert got.shape == (0, 2, 2) and got.dtype == complex
    assert np.array_equal(got, oracles._as_stack(empty, 2))


def test_as_stack_rejects_members_of_another_size():
    with pytest.raises(ShapeError, match=r"Y family must form a \(k, 2, 2\) stack, got \(1, 3, 3\)"):
        as_stack(np.zeros((1, 3, 3)), "Y family", 2)


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_non_finite_entries_give_non_finite_deviations():
    stack = np.zeros((3, 2, 2))
    stack[1, 0, 1] = np.nan
    stack[2, 1, 1] = np.inf
    devs = hermitian_deviations(stack)
    assert devs[0] == 0.0 and np.isnan(devs[1]) and not np.isfinite(devs[2])
    for m in stack[1:]:
        with pytest.raises(ValueError, match="non-finite") as got:
            require_hermitian(m)
        with pytest.raises(ValueError) as want:
            oracles.require_hermitian(m)
        assert str(got.value) == str(want.value)


def _generators_with(edits):
    gens = gamma_generators(5).generators.copy()
    for idx, value in edits:
        gens[idx, 0, 1] = value
    return gens


@pytest.mark.parametrize(
    "edits",
    [
        [(1, np.nan)],
        [(0, np.inf)],
        [(2, 1e-3), (4, np.nan)],
        [(3, np.nan), (4, 1e-3)],
        [(4, 1e-3)],
        [(0, 1e-11)],
    ],
    ids=["nan", "inf", "non_hermitian_first", "nan_first", "last", "within_tol"],
)
def test_generator_checks_name_the_same_first_bad_generator(edits):
    gens = _generators_with(edits)
    try:
        want = oracles.verify_clifford_relations(gens)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            verify_clifford_relations(gens)
        assert str(got.value) == str(exc)
    else:
        got = verify_clifford_relations(gens)
        assert [(c.name, c.passed, c.note) for c in got.checks] == [(c.name, c.passed, c.note) for c in want.checks]
