import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from corrfact.clifford import PAULI_X, PAULI_Y, PAULI_Z
from corrfact import linalg
from corrfact.errors import NotHermitianError, ShapeError
from corrfact.linalg import (
    ToleranceConfig,
    gram,
    hs_inner,
    numerical_rank,
    schmidt,
    vec,
    vec_inv,
)

from conftest import is_psd

S = 1.0 / np.sqrt(2.0)


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_tolerance_defaults_positive():
    tol = ToleranceConfig()
    assert tol.eq_tol > 0 and tol.psd_tol > 0 and tol.rank_tol > 0


@pytest.mark.parametrize("bad", [{"eq_tol": -1.0}, {"psd_tol": float("nan")}, {"rank_tol": float("inf")}])
def test_tolerance_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        ToleranceConfig(**bad)


def test_kron_identity():
    assert_allclose(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_z_x_literal():
    expected = np.array(
        [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, -1, 0],
        ],
        dtype=complex,
    )
    assert_allclose(np.kron(PAULI_Z, PAULI_X), expected)


def test_kron_x_y_squares_to_identity():
    xy = np.kron(PAULI_X, PAULI_Y)
    assert_allclose(xy @ xy, np.eye(4), atol=1e-15)


def test_vec_basis_matrix():
    m = np.zeros((2, 2))
    m[0, 1] = 1.0  # e1 e2^*
    assert_allclose(vec(m), np.array([0.0, 1.0, 0.0, 0.0]))


def test_vec_identity():
    assert_allclose(vec(np.eye(2)), np.array([1.0, 0.0, 0.0, 1.0]))


def test_vec_rejects_nonsquare():
    with pytest.raises(ShapeError):
        vec(np.zeros((2, 3)))


def test_vec_inv_roundtrip(rng):
    m = _random_complex(rng, 4, 4)
    assert_allclose(vec_inv(vec(m)), m)
    with pytest.raises(ShapeError):
        vec_inv(np.zeros(5))


def test_vec_is_isometry(rng):
    # <X, Y> = <vec(Y), vec(X)> for Hermitian matrices up to size 8.
    for d in range(1, 9):
        a = _random_complex(rng, d, d)
        b = _random_complex(rng, d, d)
        x = a + a.conj().T
        y = b + b.conj().T
        lhs = hs_inner(x, y)
        rhs = np.vdot(vec(y), vec(x))
        assert abs(lhs - rhs) < 1e-12


def test_vec_kron_product_rule(rng):
    # vec(W)^* (X kron Y) vec(Z) equals Tr(X Z Y^T W^*) entrywise.
    for _ in range(100):
        w, x, y, z = (_random_complex(rng, 3, 3) for _ in range(4))
        lhs = np.vdot(vec(w), np.kron(x, y) @ vec(z))
        rhs = np.trace(x @ z @ y.T @ w.conj().T)
        assert abs(lhs - rhs) < 1e-10


def test_schmidt_product_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0  # e1 (x) e1
    sd = schmidt(psi, 2)
    assert_allclose(sd.coefficients, [1.0])
    assert_allclose(sd.left_vectors[0], [1.0, 0.0])
    assert_allclose(sd.right_vectors[0], [1.0, 0.0])


def test_schmidt_bell_state():
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    sd = schmidt(psi, 2)
    assert_allclose(sd.coefficients, [S, S])
    assert_allclose(sd.reconstruct(), psi, atol=1e-14)


def test_schmidt_norm_identity(rng):
    for _ in range(20):
        psi = _random_complex(rng, 4)
        psi /= np.linalg.norm(psi)
        sd = schmidt(psi, 2)
        assert abs(np.sum(sd.coefficients**2) - 1.0) < 1e-12


def test_schmidt_roundtrip_and_orthonormality(rng):
    for _ in range(100):
        d = int(rng.integers(1, 9))
        psi = _random_complex(rng, d * d)
        sd = schmidt(psi, d)
        assert np.max(np.abs(sd.reconstruct() - psi)) < 1e-10
        for vecs in (sd.left_vectors, sd.right_vectors):
            overlaps = vecs.conj() @ vecs.T
            assert_allclose(overlaps, np.eye(vecs.shape[0]), atol=1e-10)
        assert np.all(np.diff(sd.coefficients) <= 1e-12)


def test_schmidt_sign_convention_deterministic(rng):
    psi = _random_complex(rng, 9)
    first = schmidt(psi, 3)
    second = schmidt(psi.copy(), 3)
    assert_allclose(first.left_vectors, second.left_vectors)
    for row in first.left_vectors:
        nz = row[np.flatnonzero(np.abs(row) > 1e-12)[0]]
        assert abs(nz.imag) < 1e-12 and nz.real > 0


def test_schmidt_rejects_bad_length():
    with pytest.raises(ShapeError):
        schmidt(np.zeros(5), 2)


def test_gram_orthonormal():
    assert_allclose(gram(np.eye(2)), np.eye(2))


def test_gram_three_vectors_literal():
    vecs = np.array([[1.0, 0.0], [0.0, 1.0], [S, S]])
    expected = np.array([[1.0, 0.0, S], [0.0, 1.0, S], [S, S, 1.0]])
    assert_allclose(gram(vecs), expected)


def test_gram_repeated_vector():
    v = np.array([0.6, 0.8])
    assert_allclose(gram([v, v]), np.ones((2, 2)))


def test_gram_rejects_ragged():
    with pytest.raises(ShapeError):
        gram([[1.0, 0.0], [1.0]])


def test_hs_inner_identity():
    assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)


def test_hs_inner_pauli_orthogonal():
    assert abs(hs_inner(PAULI_X, PAULI_Y)) < 1e-15
    assert hs_inner(PAULI_Z, PAULI_Z) == pytest.approx(2.0)


def test_hs_inner_shape_mismatch():
    with pytest.raises(ShapeError):
        hs_inner(np.eye(2), np.eye(3))


def test_numerical_rank_cases():
    assert numerical_rank(np.eye(5)) == 5
    assert numerical_rank(np.zeros((3, 3))) == 0
    e3 = np.array([[1.0, 0.0, S], [0.0, 1.0, S], [S, S, 1.0]])
    assert numerical_rank(e3) == 2


def test_is_psd_cases():
    assert is_psd(np.eye(3))
    assert not is_psd(np.diag([1.0, -1.0]))
    with pytest.raises(NotHermitianError):
        is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=50)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**31 - 1),
)
def test_gram_is_psd_with_span_rank(n, dim, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, dim))
    g = gram(vecs)
    assert is_psd(g)
    assert numerical_rank(g) == np.linalg.matrix_rank(vecs)


# ------------------------------------------------------------ monomial gathers


def _monomials(d, rng):
    """Identity, a permutation, a signed permutation with real scales, and a positive diagonal."""
    perm = np.eye(d)[rng.permutation(d)]
    signed = perm * rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], d)[:, None]
    return {
        "identity": np.eye(d, dtype=complex),
        "permutation": perm.astype(complex),
        "signed_permutation": signed.astype(complex),
        "diagonal": np.diag(rng.uniform(0.5, 1.5, d)),
    }


@pytest.mark.parametrize("d", [1, 3, 16, 32])
def test_sandwich_gathers_equal_the_matmul(monkeypatch, d):
    """Every side and both: np.array_equal with the matmul, and the same bits when no entry is zero."""
    monkeypatch.setattr(linalg, "GATHER_MIN_DIM", 1)
    rng = np.random.default_rng(d)
    mats = _random_complex(rng, 5, d, d)
    sparse = mats.copy()
    sparse[rng.random(mats.shape) < 0.3] = 0.0
    for name, m in _monomials(d, rng).items():
        assert linalg._monomial(m) is not None, name
        for stack in (mats, sparse):
            for left, right, want in ((m, None, m @ stack), (None, m, stack @ m), (m, m.conj().T, m @ stack @ m.conj().T)):
                got = linalg.sandwich(left, stack, right)
                assert np.array_equal(got, want), name
                if stack is mats:
                    assert got.tobytes() == want.tobytes(), name
                out = np.empty_like(want)
                assert linalg.sandwich(left, stack, right, out=out) is out and np.array_equal(out, want)
                assert got is not stack


@pytest.mark.parametrize("d", [2, 16])
def test_sandwich_multiplies_phases_and_non_monomial_factors(monkeypatch, d):
    monkeypatch.setattr(linalg, "GATHER_MIN_DIM", 1)
    rng = np.random.default_rng(d)
    mats = _random_complex(rng, 4, d, d)
    phase = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d)))
    dense = np.eye(d) + 0.1 * rng.standard_normal((d, d))
    zero_row = np.eye(d)
    zero_row[0, 0] = 0.0
    twice = np.eye(d)
    twice[0, -1] = 1.0
    for m in (phase, dense, zero_row, twice, np.eye(d)[:, : d - 1]):
        assert linalg._monomial(m) is None
    for m in (phase, dense, zero_row, twice):
        assert linalg.sandwich(m, mats, m.conj().T).tobytes() == (m @ mats @ m.conj().T).tobytes()
        assert linalg.sandwich(None, mats, m).tobytes() == (mats @ m).tobytes()


def test_sandwich_multiplies_small_matrices_in(monkeypatch):
    """Below GATHER_MIN_DIM even a monomial factor is multiplied in, without looking at it."""

    def refuse(m):
        raise AssertionError("a factor of a small stack was examined")

    monkeypatch.setattr(linalg, "_monomial", refuse)
    d = linalg.GATHER_MIN_DIM - 1
    mats = _random_complex(np.random.default_rng(d), 2, d, d)
    eye = np.eye(d, dtype=complex)
    assert linalg.sandwich(eye, mats, eye).tobytes() == (eye @ mats @ eye).tobytes()
