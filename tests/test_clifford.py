from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from corrfact.clifford import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    gamma_generators,
    gamma_of_vector,
    irreducible_dim,
    verify_clifford_relations,
)
from corrfact.errors import NotHermitianError, ShapeError
from corrfact.linalg import hs_inner


def test_rank_one_uses_z_in_dimension_two():
    rep = gamma_generators(1)
    assert rep.rep_dim == 2
    assert_allclose(rep.generators[0], PAULI_Z)


def test_rank_two_generators():
    rep = gamma_generators(2)
    assert rep.rep_dim == 2
    assert_allclose(rep.generators, [PAULI_X, PAULI_Y])


def test_rank_three_generators():
    rep = gamma_generators(3)
    assert rep.rep_dim == 2
    assert_allclose(rep.generators, [PAULI_X, PAULI_Y, PAULI_Z])


def test_rank_four_generators_literal():
    rep = gamma_generators(4)
    eye = np.eye(2)
    expected = [np.kron(PAULI_X, eye), np.kron(PAULI_Z, PAULI_X), np.kron(PAULI_Y, eye), np.kron(PAULI_Z, PAULI_Y)]
    assert rep.rep_dim == 4
    assert_allclose(rep.generators, expected)


def test_relations_hold_for_all_small_ranks():
    for r in range(1, 11):
        rep = gamma_generators(r)
        if r >= 2:
            assert rep.rep_dim == irreducible_dim(r) == 2 ** (r // 2)
        report = verify_clifford_relations(rep.generators)
        assert report.passed
        assert report.max_deviation < 1e-12


def test_generators_traceless():
    for r in range(1, 9):
        rep = gamma_generators(r)
        for g in rep.generators:
            assert abs(np.trace(g)) < 1e-14


def test_rejects_rank_zero():
    with pytest.raises(ValueError):
        gamma_generators(0)


def test_gamma_vector_basis():
    rep = gamma_generators(2)
    assert_allclose(gamma_of_vector(rep, [1.0, 0.0]), PAULI_X)


def test_gamma_vector_diagonal_direction_squares_to_identity():
    rep = gamma_generators(2)
    g = gamma_of_vector(rep, np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert_allclose(g, (PAULI_X + PAULI_Y) / np.sqrt(2.0))
    assert_allclose(g @ g, np.eye(2), atol=1e-15)


def test_gamma_trace_identity(rng):
    rep = gamma_generators(3)
    for _ in range(50):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        lhs = rep.rep_dim * float(x @ y)
        rhs = hs_inner(gamma_of_vector(rep, x), gamma_of_vector(rep, y))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_gamma_square_norm_identity(rng):
    for r in (1, 2, 5):
        rep = gamma_generators(r)
        x = rng.standard_normal(r)
        g = gamma_of_vector(rep, x)
        assert np.max(np.abs(g @ g - float(x @ x) * np.eye(rep.rep_dim))) < 1e-12


def test_gamma_vector_length_mismatch():
    rep = gamma_generators(3)
    with pytest.raises(ShapeError):
        gamma_of_vector(rep, [1.0, 2.0])


@settings(max_examples=50)
@given(
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
    st.integers(0, 2**31 - 1),
)
def test_gamma_of_vector_is_linear(alpha, beta, seed):
    rep = gamma_generators(4)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    combined = gamma_of_vector(rep, alpha * x + beta * y)
    separate = alpha * gamma_of_vector(rep, x) + beta * gamma_of_vector(rep, y)
    assert np.max(np.abs(combined - separate)) < 1e-12


def test_verify_relations_pauli_triple():
    report = verify_clifford_relations([PAULI_X, PAULI_Y, PAULI_Z])
    assert report.passed
    assert report.max_deviation == 0.0


def test_verify_relations_repeated_generator_fails():
    # X anticommuting with itself would need 2 X^2 = 0, but 2 X^2 = 2 I.
    report = verify_clifford_relations([PAULI_X, PAULI_X])
    assert not report.passed
    assert report.check("distinct_pairs_anticommute").deviation == pytest.approx(2.0)


def test_verify_relations_generated_family():
    rep = gamma_generators(6)
    assert rep.rep_dim == 8
    assert verify_clifford_relations(rep.generators).passed


def test_verify_relations_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        verify_clifford_relations([np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_verify_relations_rejects_mixed_sizes():
    with pytest.raises(ShapeError):
        verify_clifford_relations([np.eye(2), np.eye(3)])


@pytest.mark.parametrize("r", range(1, 15))
def test_generators_equal_the_np_kron_chains_bit_for_bit(r):
    """The chains are built with a two-matrix kron; they keep np.kron's bits, signed zeros included."""
    ell = r // 2
    chains = [[PAULI_Z] * i + [PAULI_X] + [np.eye(2, dtype=complex)] * (ell - 1 - i) for i in range(ell)]
    chains += [[PAULI_Z] * i + [PAULI_Y] + [np.eye(2, dtype=complex)] * (ell - 1 - i) for i in range(ell)]
    chains += [[PAULI_Z] * ell] if r % 2 else []
    want = PAULI_Z[None] if r == 1 else np.stack([reduce(np.kron, c) for c in chains])
    assert gamma_generators(r).generators.tobytes() == want.tobytes()
