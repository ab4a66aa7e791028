import numpy as np
import pytest
from numpy.testing import assert_allclose

from corrfact.clifford import PAULI_X, PAULI_Y, PAULI_Z, verify_clifford_relations
from corrfact.elliptope import gen_extreme_lex, random_correlation
from corrfact.errors import InvariantViolationError, ShapeError, SingularMatrixError
from corrfact.factorization import (
    MatrixFactorization,
    factorize_clifford,
    orthonormalize_generators,
    recover_correlation,
    to_form_c,
    verify_clifford_identity,
    verify_factorization,
)
from corrfact.linalg import hs_inner

from conftest import E3, E3_FACTORS, S

SQRT2 = np.sqrt(2.0)


def test_factorize_e3_with_canonical_factors():
    fb = factorize_clifford(E3, factors=E3_FACTORS)
    assert fb.dim == 2
    assert_allclose(fb.a_mats[0], PAULI_X / SQRT2)
    assert_allclose(fb.a_mats[1], PAULI_Y / SQRT2)
    assert_allclose(fb.a_mats[2], (PAULI_X + PAULI_Y) / 2.0)
    got = np.array([[hs_inner(a, b).real for b in fb.a_mats] for a in fb.a_mats])
    assert np.max(np.abs(got - E3)) < 1e-14


def test_factorize_trivial_matrix_uses_dimension_two():
    fb = factorize_clifford(np.eye(1))
    assert fb.dim == 2
    assert_allclose(fb.a_mats[0], PAULI_Z / SQRT2)
    assert hs_inner(fb.a_mats[0], fb.a_mats[0]).real == pytest.approx(1.0)


def test_factorize_identity_gives_orthogonal_family():
    fb = factorize_clifford(np.eye(2))
    assert abs(hs_inner(fb.a_mats[0], fb.a_mats[1])) < 1e-14


def test_factorize_split_assigns_families():
    fb = factorize_clifford(E3, split=2)
    assert fb.sizes == (2, 1)


def test_factorize_rejects_bad_factors():
    with pytest.raises(InvariantViolationError):
        factorize_clifford(E3, factors=np.eye(3))


def test_to_form_c_literals():
    mf = to_form_c(factorize_clifford(E3, factors=E3_FACTORS))
    assert_allclose(mf.k, np.eye(2) / SQRT2)
    assert_allclose(mf.x_mats[0], PAULI_X)
    assert_allclose(mf.x_mats[1], PAULI_Y)
    assert np.trace(mf.k @ mf.k).real == pytest.approx(1.0)


def test_to_form_c_trivial_case():
    mf = to_form_c(factorize_clifford(np.eye(1)))
    assert_allclose(mf.k, np.eye(2) / SQRT2)
    assert_allclose(mf.x_mats[0], PAULI_Z)


def test_recover_correlation_literals():
    k = np.eye(2, dtype=complex) / SQRT2
    ones = recover_correlation(
        MatrixFactorization(PAULI_Z[np.newaxis], PAULI_Z[np.newaxis], k)
    )
    assert_allclose(ones, np.ones((2, 2)), atol=1e-14)
    eye = recover_correlation(
        MatrixFactorization(PAULI_X[np.newaxis], PAULI_Y[np.newaxis], k)
    )
    assert_allclose(eye, np.eye(2), atol=1e-14)


def test_recover_rejects_invalid_weight():
    with pytest.raises(InvariantViolationError):
        recover_correlation(
            MatrixFactorization(PAULI_X[np.newaxis], PAULI_Y[np.newaxis], np.eye(2, dtype=complex))
        )


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_roundtrip_on_lexicographic_extreme_points(r):
    e, _ = gen_extreme_lex(r)
    mf = to_form_c(factorize_clifford(e))
    assert mf.dim == 2 ** (r // 2)
    assert np.max(np.abs(recover_correlation(mf) - e)) < 1e-9


def test_roundtrip_on_random_points(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 5))
        e = random_correlation(n, dim, rng)
        rec = recover_correlation(to_form_c(factorize_clifford(e)))
        assert np.max(np.abs(rec - e)) < 1e-9


def test_verify_factorization_roundtrip_passes():
    mf = to_form_c(factorize_clifford(E3))
    report = verify_factorization(E3, mf)
    assert report.passed
    assert report.max_deviation < 1e-10


def test_verify_factorization_mode_i_prime():
    # K is a multiple of the identity here, so both weighted modes agree.
    mf = to_form_c(factorize_clifford(E3, split=2))
    assert verify_factorization(E3, mf, mode="i").passed
    assert verify_factorization(E3, mf, mode="i-prime").passed


def test_verify_factorization_b_form():
    fb = factorize_clifford(E3, split=2)
    report = verify_factorization(E3, fb, mode="b-form")
    assert report.passed


def test_verify_factorization_detects_broken_involution():
    mf = to_form_c(factorize_clifford(E3))
    x = mf.x_mats.copy()
    x[0] = x[0] / 2.0
    report = verify_factorization(E3, MatrixFactorization(x, mf.y_mats, mf.k))
    assert not report.passed
    assert not report.check("involutions").passed


def test_verify_factorization_wrong_target_fails():
    mf = to_form_c(factorize_clifford(E3))
    report = verify_factorization(np.eye(3), mf)
    assert not report.check("gram_reconstruction").passed


def test_verify_factorization_size_mismatch():
    mf = to_form_c(factorize_clifford(E3))
    with pytest.raises(ShapeError):
        verify_factorization(np.eye(2), mf)


def test_clifford_identity_pauli_pair():
    report = verify_clifford_identity(np.eye(2), [PAULI_X, PAULI_Y], trials=50, seed=3)
    assert report.passed
    assert report.max_deviation < 1e-12


def test_clifford_identity_repeated_generator_fails():
    report = verify_clifford_identity(np.eye(2), [PAULI_X, PAULI_X], trials=10, seed=3)
    assert not report.passed


def test_clifford_identity_correlated_block():
    a = np.array([[1.0, S], [S, 1.0]])
    mats = [PAULI_X, (PAULI_X + PAULI_Y) / SQRT2]
    report = verify_clifford_identity(a, mats, trials=50, seed=5)
    assert report.passed


def test_clifford_identity_shape_mismatch():
    with pytest.raises(ShapeError):
        verify_clifford_identity(np.eye(3), [PAULI_X, PAULI_Y], seed=0)


def test_clifford_identity_refuses_a_negative_trial_count():
    """r = 3 lex point: the count is refused, where max(trials, 0) directions used to pass as "-2 trials"."""
    e = gen_extreme_lex(3)[0]
    mf = to_form_c(factorize_clifford(e))
    assert verify_clifford_identity(e[:3, :3], mf.x_mats[:3], trials=0, seed=1).passed
    with pytest.raises(ShapeError, match="trials must be a non-negative number of directions, got -2"):
        verify_clifford_identity(e[:3, :3], mf.x_mats[:3], trials=-2, seed=1)


def test_clifford_identity_seeded_reproducible():
    a = np.array([[1.0, S], [S, 1.0]])
    mats = [PAULI_X, (PAULI_X + PAULI_Y) / SQRT2]
    first = verify_clifford_identity(a, mats, trials=20, seed=11)
    second = verify_clifford_identity(a, mats, trials=20, seed=11)
    assert first == second


def test_orthonormalize_identity_block_is_noop_up_to_signs():
    out = orthonormalize_generators(np.eye(2), [PAULI_X, PAULI_Y])
    assert verify_clifford_relations(out).passed


def test_orthonormalize_correlated_block():
    a = np.array([[1.0, S], [S, 1.0]])
    mats = [PAULI_X, (PAULI_X + PAULI_Y) / SQRT2]
    out = orthonormalize_generators(a, mats)
    report = verify_clifford_relations(out)
    assert report.passed
    assert report.max_deviation < 1e-12


def test_orthonormalize_trivial_block():
    out = orthonormalize_generators(np.eye(1), [PAULI_Z])
    assert_allclose(out[0], PAULI_Z)


def test_orthonormalize_rejects_singular_block():
    with pytest.raises(SingularMatrixError):
        orthonormalize_generators(np.ones((2, 2)), [PAULI_X, PAULI_Y])


@pytest.mark.parametrize("mode", ["i", "i-prime"])
def test_verify_rejects_a_weight_of_another_size(mode):
    mf = to_form_c(factorize_clifford(E3))
    bad = MatrixFactorization(mf.x_mats, mf.y_mats, np.eye(3) / np.sqrt(3.0))
    with pytest.raises(ShapeError, match=r"X family must form a \(k, 3, 3\) stack"):
        verify_factorization(E3, bad, mode=mode)
    with pytest.raises(ShapeError):
        recover_correlation(bad)
