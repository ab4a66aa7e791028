import numpy as np
import pytest
from numpy.testing import assert_allclose

from corrfact import linalg
from corrfact.clifford import PAULI_X, PAULI_Y, PAULI_Z, _pauli_tables
from corrfact.elliptope import CSystem, complete, gen_extreme_lex, gram_factors
from corrfact.errors import (
    CSystemMismatchError,
    InvariantViolationError,
    NonUnitVectorError,
    NotRankOneError,
    ShapeError,
)
from corrfact.factorization import verify_factorization
from corrfact.linalg import vec_inv
from corrfact.quantum import (
    TensorProductRep,
    build_tensor_rep,
    check_observable,
    eval_correlations,
    maximally_entangled,
    reduce_rank_one_rep,
    to_matrix_factorization,
)

from conftest import CHSH, CHSH_COLS, CHSH_ROWS, S


def _pad_rep(rep, d_new):
    """Embed observables and state of a vector-state rep into dimension d_new."""
    d = rep.local_dim

    def pad(m):
        out = np.zeros((d_new, d_new), dtype=complex)
        out[:d, :d] = m
        return out

    w = vec_inv(rep.psi, d)
    w_pad = np.zeros((d_new, d_new), dtype=complex)
    w_pad[:d, :d] = w
    return TensorProductRep(
        np.stack([pad(m) for m in rep.alice_obs]),
        np.stack([pad(m) for m in rep.bob_obs]),
        psi=w_pad.reshape(-1),
    )


def test_maximally_entangled_trivial():
    assert_allclose(maximally_entangled(1), [1.0])


def test_maximally_entangled_two():
    assert_allclose(maximally_entangled(2), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


def test_maximally_entangled_cross_identity(rng):
    # psi^* (A kron B) psi = Tr(A B^T) / d
    psi = maximally_entangled(2)
    got = psi.conj() @ np.kron(PAULI_X, PAULI_X) @ psi
    assert got == pytest.approx(np.trace(PAULI_X @ PAULI_X.T).real / 2)
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        psi3 = maximally_entangled(3)
        lhs = psi3.conj() @ np.kron(a, b) @ psi3
        assert abs(lhs - np.trace(a @ b.T) / 3) < 1e-12


def test_build_tensor_rep_chsh():
    rep = build_tensor_rep(CHSH, CSystem(CHSH_ROWS, CHSH_COLS))
    assert rep.local_dim == 2
    got = eval_correlations(rep)
    assert np.max(np.abs(got - CHSH)) < 1e-12


def test_rep_coerces_observable_stacks():
    rep = TensorProductRep([PAULI_X], [], psi=maximally_entangled(2))
    assert rep.bob_obs.shape == (0, 2, 2) and rep.bob_obs.dtype == complex
    with pytest.raises(ShapeError, match="Bob's observables"):
        TensorProductRep([PAULI_X], np.zeros((1, 3, 3)), psi=maximally_entangled(2))
    with pytest.raises(ShapeError, match="Alice's observables"):
        TensorProductRep([[[1.0, 0.0], [0.0]]], [PAULI_X], psi=maximally_entangled(2))
    with pytest.raises(ShapeError, match="Alice's observables"):
        TensorProductRep(np.zeros((1, 2, 3)), [PAULI_X], psi=maximally_entangled(2))


def test_build_tensor_rep_trivial_cases():
    one = build_tensor_rep(np.array([[1.0]]), CSystem([[1.0]], [[1.0]]))
    assert_allclose(eval_correlations(one), [[1.0]], atol=1e-14)
    zero = build_tensor_rep(np.array([[0.0]]), CSystem([[1.0, 0.0]], [[0.0, 1.0]]))
    assert_allclose(eval_correlations(zero), [[0.0]], atol=1e-14)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_build_tensor_rep_on_lexicographic_projections(r):
    from corrfact.elliptope import gen_extreme_lex, project_bipartite

    e, vectors = gen_extreme_lex(r)
    split = e.shape[0] // 2
    c = project_bipartite(e, split, e.shape[0] - split)
    rep = build_tensor_rep(c, CSystem(vectors[:split], vectors[split:]))
    assert np.max(np.abs(eval_correlations(rep) - c)) < 1e-10


def test_build_tensor_rep_rejects_subunit_system():
    with pytest.raises(NonUnitVectorError):
        build_tensor_rep(np.array([[0.5]]), CSystem([[0.5, 0.0]], [[1.0, 0.0]]))


def test_build_tensor_rep_rejects_mismatched_system():
    with pytest.raises(CSystemMismatchError):
        build_tensor_rep(np.array([[0.9]]), CSystem([[1.0, 0.0]], [[1.0, 0.0]]))


def test_eval_literals():
    psi = maximally_entangled(2)
    rep = TensorProductRep(PAULI_Z[np.newaxis], PAULI_Z[np.newaxis], psi=psi)
    assert_allclose(eval_correlations(rep), [[1.0]], atol=1e-14)
    rep = TensorProductRep(PAULI_X[np.newaxis], PAULI_Z[np.newaxis], psi=psi)
    assert_allclose(eval_correlations(rep), [[0.0]], atol=1e-14)


def test_eval_density_path_matches_vector_path():
    rep = build_tensor_rep(CHSH, CSystem(CHSH_ROWS, CHSH_COLS))
    dense = TensorProductRep(rep.alice_obs, rep.bob_obs, rho=rep.density())
    assert_allclose(eval_correlations(dense), eval_correlations(rep), atol=1e-12)


def test_eval_rejects_imaginary_residue():
    # A non-Hermitian "observable" leaks an imaginary part:
    # Tr(M Y^T) / 2 = -i for the antisymmetric M below.
    psi = maximally_entangled(2)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    rep = TensorProductRep(skew[np.newaxis], PAULI_Y[np.newaxis], psi=psi)
    with pytest.raises(InvariantViolationError):
        eval_correlations(rep)


def test_reduce_keeps_diagonal_rep():
    rep = build_tensor_rep(CHSH, CSystem(CHSH_ROWS, CHSH_COLS))
    reduced = reduce_rank_one_rep(rep)
    assert reduced.local_dim == 2
    assert_allclose(eval_correlations(reduced), CHSH, atol=1e-12)


def test_reduce_product_state_collapses_to_scalar():
    psi = np.zeros(16, dtype=complex)
    psi[0] = 1.0  # e1 (x) e1 at local dimension 4
    obs = np.zeros((1, 4, 4), dtype=complex)
    obs[0, :2, :2] = PAULI_Z
    rep = TensorProductRep(obs, obs.copy(), psi=psi)
    before = eval_correlations(rep)
    reduced = reduce_rank_one_rep(rep)
    assert reduced.local_dim == 1
    assert_allclose(eval_correlations(reduced), before, atol=1e-12)


def test_reduce_padded_chsh():
    rep = build_tensor_rep(CHSH, CSystem(CHSH_ROWS, CHSH_COLS))
    padded = _pad_rep(rep, 4)
    assert_allclose(eval_correlations(padded), CHSH, atol=1e-12)
    reduced = reduce_rank_one_rep(padded)
    assert reduced.local_dim == 2
    assert np.max(np.abs(eval_correlations(reduced) - CHSH)) < 1e-10
    for m in list(reduced.alice_obs) + list(reduced.bob_obs):
        ok, top = check_observable(m)
        assert ok, top


def test_reduce_rejects_mixed_state():
    rho = np.eye(4, dtype=complex) / 4.0
    rep = TensorProductRep(PAULI_X[np.newaxis], PAULI_X[np.newaxis], rho=rho)
    with pytest.raises(NotRankOneError):
        reduce_rank_one_rep(rep)


def test_reduce_accepts_rank_one_density():
    rep = build_tensor_rep(CHSH, CSystem(CHSH_ROWS, CHSH_COLS))
    dense = TensorProductRep(rep.alice_obs, rep.bob_obs, rho=rep.density())
    reduced = reduce_rank_one_rep(dense)
    assert_allclose(eval_correlations(reduced), CHSH, atol=1e-10)


def test_schmidt_state_profile():
    """The Schmidt profile of a rank-one state is the diagonal of the reduced state."""
    rep = build_tensor_rep(CHSH, CSystem(CHSH_ROWS, CHSH_COLS))
    reduced = reduce_rank_one_rep(rep)
    assert reduced.local_dim == 2
    assert_allclose(np.diag(vec_inv(reduced.psi)), [S, S], atol=1e-14)


def test_check_observable_literals():
    assert check_observable(PAULI_X) == (True, pytest.approx(1.0))
    ok, top = check_observable(2.0 * PAULI_Z)
    assert not ok and top == pytest.approx(2.0)
    ok, top = check_observable((PAULI_X + PAULI_Y) / np.sqrt(2.0))
    assert ok and top == pytest.approx(1.0)


def test_bridge_to_weighted_factorization():
    sys = CSystem(CHSH_ROWS, CHSH_COLS)
    rep = reduce_rank_one_rep(build_tensor_rep(CHSH, sys))
    mf = to_matrix_factorization(rep)
    assert_allclose(mf.k, np.eye(2) / np.sqrt(2.0), atol=1e-12)
    eye = np.eye(2)
    for x in list(mf.x_mats) + list(mf.y_mats):
        assert np.max(np.abs(x @ x - eye)) < 1e-10
    completion = complete(sys)
    report = verify_factorization(completion, mf, mode="i")
    assert report.passed
    assert report.max_deviation < 1e-10


def test_bridge_requires_vector_state():
    rep = build_tensor_rep(CHSH, CSystem(CHSH_ROWS, CHSH_COLS))
    dense = TensorProductRep(rep.alice_obs, rep.bob_obs, rho=rep.density())
    with pytest.raises(NotRankOneError):
        to_matrix_factorization(dense)


@pytest.mark.parametrize("r", [8, 9, 10])
def test_gathered_reduction_and_evaluation_are_bit_identical_to_matmul(r):
    """d >= 16: the Schmidt isometries of the maximally entangled state and its diagonal W are
    applied by gather (linalg.sandwich), writing the bits of the batched matmuls."""
    e = gen_extreme_lex(r)[0]
    h = e.shape[0] // 2
    u = gram_factors(e)
    rep = build_tensor_rep(e[:h, h:], CSystem(u[:h], u[h:]))
    assert rep.local_dim >= linalg.GATHER_MIN_DIM
    sd = linalg.schmidt(rep.psi, rep.local_dim)
    left, right = sd.left_vectors.conj(), sd.right_vectors.conj()
    assert linalg._monomial(left) is not None and linalg._monomial(right) is not None
    reduced = reduce_rank_one_rep(rep)
    assert reduced.alice_obs.tobytes() == (left @ rep.alice_obs @ left.conj().T).tobytes()
    assert reduced.bob_obs.tobytes() == (right @ rep.bob_obs @ right.conj().T).tobytes()
    assert reduced.alice_obs is not rep.alice_obs
    for state in (rep, reduced):
        d = state.local_dim
        # -0.0 off the chain support keeps eval_correlations on the gathered matmul path
        alice = state.alice_obs.copy()
        alice[0].reshape(-1)[np.delete(np.arange(d * d), _pauli_tables(d.bit_length() - 1)[0])[0]] = -0.0
        off = TensorProductRep(alice, state.bob_obs, psi=state.psi)
        w = vec_inv(state.psi, d)
        z = w.conj().T @ alice @ w
        want = (z.reshape(-1, d * d) @ state.bob_obs.reshape(-1, d * d).T).real
        assert eval_correlations(off).tobytes() == want.tobytes()
        # on the chain support W = I/sqrt(d) takes the GEMM of the values there, within 1e-14
        assert np.max(np.abs(eval_correlations(state) - want)) < 1e-14
