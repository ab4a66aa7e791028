import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from corrfact.elliptope import (
    CSystem,
    check_extreme,
    check_membership,
    complete,
    gen_extreme_lex,
    gram_factors,
    project_bipartite,
    r_max,
    random_correlation,
    solve_lambda,
    verify_c_system,
)
from corrfact.errors import (
    NonUnitVectorError,
    NotPsdError,
    NotSymmetricError,
    ShapeError,
    SingularMatrixError,
)
from corrfact.linalg import DEFAULT_TOL, gram

from conftest import CHSH, CHSH_COLS, CHSH_ROWS, E3, S


def test_membership_identity():
    assert check_membership(np.eye(4))


def test_membership_rejects_indefinite():
    assert not check_membership(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_membership_gram_of_unit_vectors(rng):
    assert check_membership(random_correlation(6, 3, rng))


def test_membership_raises_on_asymmetric():
    with pytest.raises(NotSymmetricError):
        check_membership(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_gram_factors_identity():
    assert_allclose(gram_factors(np.eye(2)), np.eye(2))


def test_gram_factors_roundtrip_e3():
    factors = gram_factors(E3)
    assert factors.shape == (3, 2)
    assert np.max(np.abs(gram(factors) - E3)) < 1e-10


def test_gram_factors_rank_one():
    factors = gram_factors(np.ones((2, 2)))
    assert factors.shape == (2, 1)
    assert_allclose(factors, [[1.0], [1.0]])


def test_gram_factors_deterministic(rng):
    e = random_correlation(5, 3, rng)
    assert_allclose(gram_factors(e), gram_factors(e.copy()))


def test_gram_factors_rejects_indefinite():
    with pytest.raises(NotPsdError):
        gram_factors(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_check_extreme_e3():
    report = check_extreme(E3)
    assert (report.rank, report.hadamard_rank, report.required_rank) == (2, 3, 3)
    assert report.is_extreme


def test_check_extreme_identity_not_extreme():
    report = check_extreme(np.eye(3))
    assert (report.rank, report.hadamard_rank, report.required_rank) == (3, 3, 6)
    assert not report.is_extreme


def test_check_extreme_trivial():
    report = check_extreme(np.eye(1))
    assert report.rank == report.hadamard_rank == report.required_rank == 1
    assert report.is_extreme


def test_gen_extreme_lex_rank_one():
    matrix, vectors = gen_extreme_lex(1)
    assert_allclose(matrix, np.eye(1))
    assert_allclose(vectors, np.eye(1))


def test_gen_extreme_lex_rank_two_matches_e3_up_to_order():
    matrix, vectors = gen_extreme_lex(2)
    # Pair order (1,1), (1,2), (2,2); swapping the last two rows/cols gives E3.
    perm = [0, 2, 1]
    assert_allclose(matrix[np.ix_(perm, perm)], E3, atol=1e-15)
    assert_allclose(vectors[1], [S, S])


def test_gen_extreme_lex_families_are_extreme():
    for r in range(1, 6):
        matrix, vectors = gen_extreme_lex(r)
        n = r * (r + 1) // 2
        assert matrix.shape == (n, n)
        report = check_extreme(matrix)
        assert report.is_extreme
        assert report.rank == r
        assert report.hadamard_rank == n
        # extreme points never exceed the maximal rank for their size
        assert report.rank <= r_max(n)


def test_r_max_literals():
    assert r_max(1) == 1
    assert r_max(3) == 2
    assert r_max(10) == 4


@given(st.integers(1, 500))
def test_r_max_agrees_with_loop_oracle(n):
    r = 0
    while (r + 1) * (r + 2) // 2 <= n:
        r += 1
    assert r_max(n) == r


def test_project_bipartite_block_diagonal():
    e = np.eye(4)
    assert_allclose(project_bipartite(e, 2, 2), np.zeros((2, 2)))


def test_project_bipartite_e3():
    col = project_bipartite(E3, 2, 1)
    assert_allclose(col, [[S], [S]])


def test_project_bipartite_reads_inner_products(rng):
    rows = rng.standard_normal((3, 4))
    cols = rng.standard_normal((2, 4))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    cols /= np.linalg.norm(cols, axis=1, keepdims=True)
    e = gram(np.vstack([rows, cols]))
    assert_allclose(project_bipartite(e, 3, 2), rows @ cols.T)


def test_project_bipartite_size_mismatch():
    with pytest.raises(ShapeError):
        project_bipartite(E3, 2, 2)


def test_verify_c_system_chsh():
    report = verify_c_system(CHSH, CSystem(CHSH_ROWS, CHSH_COLS))
    assert report.passed
    assert report.check("norms_at_most_one").value == pytest.approx(1.0)


def test_verify_c_system_scaled_vector_fails():
    scaled = CHSH_COLS.copy()
    scaled[0] *= 0.9
    report = verify_c_system(CHSH, CSystem(CHSH_ROWS, scaled))
    assert not report.passed
    assert not report.check("entries_match_inner_products").passed


def test_verify_c_system_subunit_vectors_allowed():
    sys = CSystem([[0.5, 0.0]], [[0.0, 1.0]])
    report = verify_c_system(np.zeros((1, 1)), sys)
    assert report.passed
    assert report.check("norms_at_most_one").value == pytest.approx(0.5)


def test_complete_chsh_literal():
    e = complete(CSystem(CHSH_ROWS, CHSH_COLS))
    expected = np.array(
        [
            [1.0, 0.0, S, S],
            [0.0, 1.0, S, -S],
            [S, S, 1.0, 0.0],
            [S, -S, 0.0, 1.0],
        ]
    )
    assert_allclose(e, expected, atol=1e-15)
    assert check_membership(e)
    assert_allclose(project_bipartite(e, 2, 2), CHSH, atol=1e-15)


def test_complete_repeated_vector():
    e = complete(CSystem([[1.0]], [[1.0]]))
    assert_allclose(e, np.ones((2, 2)))


def test_complete_rejects_subunit_vectors():
    with pytest.raises(NonUnitVectorError):
        complete(CSystem([[0.5, 0.0]], [[0.0, 1.0]]))


def test_completion_unique_across_rotated_systems(rng):
    # The extreme CHSH block admits a unique completion: any unit system,
    # here an embedded and randomly rotated copy, gives the same matrix.
    base = complete(CSystem(CHSH_ROWS, CHSH_COLS))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rows = np.array([q @ np.append(v, 0.0) for v in CHSH_ROWS])
    cols = np.array([q @ np.append(v, 0.0) for v in CHSH_COLS])
    rotated = complete(CSystem(rows, cols))
    assert np.max(np.abs(rotated - base)) < 1e-9


def test_solve_lambda_identity_block():
    c = np.array([[0.3], [0.4]])
    lam, report = solve_lambda(np.eye(2), c)
    assert_allclose(lam, c)
    assert report.passed


def test_solve_lambda_diagonal_block():
    lam, report = solve_lambda(np.diag([2.0, 1.0]), np.array([[2.0], [1.0]]))
    assert_allclose(lam, [[1.0], [1.0]])
    assert report.passed


def test_solve_lambda_e3_split():
    a = E3[:2, :2]
    c = E3[:2, 2:]
    lam, report = solve_lambda(a, c)
    assert_allclose(lam, [[S], [S]])
    assert report.passed
    b = lam.T @ a @ lam
    assert_allclose(b, E3[2:, 2:], atol=1e-12)


def test_solve_lambda_rejects_singular():
    with pytest.raises(SingularMatrixError):
        solve_lambda(np.ones((2, 2)), np.zeros((2, 1)))


def test_random_correlation_is_member(rng):
    for _ in range(10):
        n = int(rng.integers(1, 8))
        dim = int(rng.integers(1, 5))
        assert check_membership(random_correlation(n, dim, rng))


def _lifted_lex(r, eps):
    """gen_extreme_lex(r) with its Gram vectors tilted by eps into one extra dimension.

    The rows stay unit vectors, so the result is a correlation matrix of rank
    r + 1 whose extra singular value grows like eps^2.
    """
    vectors = gen_extreme_lex(r)[1]
    lifted = np.hstack([vectors, eps * np.linspace(1.0, 2.0, len(vectors))[:, None]])
    lifted /= np.linalg.norm(lifted, axis=1, keepdims=True)
    return gram(lifted)


@pytest.mark.parametrize("r", [3, 4, 6])
def test_rank_decision_flips_at_rank_tol(r):
    cutoff = DEFAULT_TOL.rank_tol
    below, above = _lifted_lex(r, 3e-5), _lifted_lex(r, 1e-4)
    s_below = np.linalg.svd(below, compute_uv=False)
    s_above = np.linalg.svd(above, compute_uv=False)
    # the extra singular value sits a few times under, then over, the relative cutoff
    assert s_below[r] < cutoff * s_below[0] / 3
    assert s_above[r] > cutoff * s_above[0] * 1.5

    exact, near, over = check_extreme(gen_extreme_lex(r)[0]), check_extreme(below), check_extreme(above)
    n = r * (r + 1) // 2
    assert (near.rank, near.hadamard_rank, near.required_rank, near.is_extreme) == (r, n, n, True)
    assert (over.rank, over.hadamard_rank, over.is_extreme) == (r + 1, n, False)
    assert over.required_rank == (r + 1) * (r + 2) // 2

    # Below the cutoff the dropped singular value is the lifted one, so the
    # gap falls from roundoff level to a visible near miss.
    assert exact.sv_gap > 1e14
    assert near.sv_gap < 1e-3 * exact.sv_gap
    assert s_below[r - 1] / near.sv_gap == pytest.approx(s_below[r], rel=1e-6)
    # Over the cutoff the lifted value is kept: the last kept one is above the cutoff.
    assert s_above[over.rank - 1] > cutoff * s_above[0]
    # E o E stays full rank on both sides; the flip is in the required rank.
    assert near.hadamard_sv_gap == over.hadamard_sv_gap == math.inf


def test_one_rank_decision_at_the_adversarial_cutoff():
    """rank_tol set to the computed ratio w[r-1]/w[0] of the eigenvalues, or s[r-1]/s[0] of the
    singular values, sits exactly at the cutoff: check_extreme, gram_factors and
    certify_lower_bound still agree on the rank in all 1200 trials, since all three cut one
    sorted_eigh spectrum (an SVD rank and an eigh rank disagreed in 525 of them)."""
    from corrfact.clifford import rep_dim
    from corrfact.cpsd import certify_lower_bound
    from corrfact.errors import NonUnitVectorError
    from corrfact.linalg import ToleranceConfig, sorted_eigh

    rng = np.random.default_rng(14)
    disagreements = 0
    for trial in range(1200):
        r = 2 + trial % 5
        e = random_correlation(r * (r + 1) // 2, r, rng)
        if trial % 2:
            w = sorted_eigh(e)[0]
            ratio = w[r - 1] / w[0]
        else:
            s = np.linalg.svd(e, compute_uv=False)
            ratio = s[r - 1] / s[0]
        tol = ToleranceConfig(rank_tol=float(ratio))
        rank = check_extreme(e, tol).rank
        factors = gram_factors(e, tol).shape[1]
        try:
            cert = certify_lower_bound(e, tol)
        except NonUnitVectorError:  # the cutoff dropped a true eigenvalue: no construction at all
            cert = None
        if rank != factors or (cert is not None and (cert.rank != rank or cert.construction_dim != rep_dim(rank))):
            disagreements += 1
    assert disagreements == 0
