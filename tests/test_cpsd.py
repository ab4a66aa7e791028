import numpy as np
import pytest
from numpy.testing import assert_allclose

from corrfact.clifford import PAULI_X, PAULI_Y, PAULI_Z
from corrfact.cpsd import (
    CpsdFactorization,
    build_cpsd_factorization,
    build_pc,
    certify_lower_bound,
    extract_matrix_factorization,
    verify_cpsd_factorization,
)
from corrfact.elliptope import check_membership, gen_extreme_lex, random_correlation
from corrfact.errors import InconsistentSumsError, NumericalContractError, ShapeError
from corrfact import matio
from corrfact.factorization import MatrixFactorization, recover_correlation
from corrfact.linalg import hs_inner

from conftest import E3, E3_FACTORS

SQRT2 = np.sqrt(2.0)


def test_build_pc_trivial():
    assert_allclose(build_pc(np.eye(1)), np.diag([0.5, 0.5]))


def test_build_pc_identity_two():
    witness = build_pc(np.eye(2))
    assert_allclose(witness[:2, :2], np.diag([0.5, 0.5]))
    assert_allclose(witness[2:, 2:], np.diag([0.5, 0.5]))
    assert_allclose(witness[:2, 2:], np.full((2, 2), 0.25))


def test_build_pc_blocks_sum_to_one(rng):
    c = random_correlation(4, 3, rng)
    witness = build_pc(c)
    for i in range(4):
        for j in range(4):
            block = witness[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            assert block.sum() == pytest.approx(1.0, abs=0.0)


def test_build_pc_layout_convention():
    c = np.array([[1.0, 0.5], [0.5, 1.0]])
    witness = build_pc(c)
    # row (i=1, a=+1), col (j=2, b=+1) holds (1 + c_12) / 4
    assert witness[0, 2] == pytest.approx((1 + 0.5) / 4)
    # outcome -1 offsets by one row/column
    assert witness[0, 3] == pytest.approx((1 - 0.5) / 4)


def test_build_witness_is_psd(rng):
    c = random_correlation(5, 2, rng)
    witness = build_pc(c)
    assert np.linalg.eigvalsh(witness)[0] > -1e-12


def test_build_factorization_literal_factors():
    f = build_cpsd_factorization(E3, factors=E3_FACTORS)
    assert f.dim == 2
    assert_allclose(f.factor(0, 1), (np.eye(2) + PAULI_X) / (2 * SQRT2))
    assert_allclose(f.factor(1, -1), (np.eye(2) - PAULI_Y) / (2 * SQRT2))
    assert abs(hs_inner(f.factor(0, 1), f.factor(0, -1))) < 1e-14


def test_build_factorization_rank_one_literal():
    f = build_cpsd_factorization(np.eye(1))
    assert f.dim == 2
    assert_allclose(f.factor(0, 1), (np.eye(2) + PAULI_Z) / (2 * SQRT2))
    assert hs_inner(f.factor(0, 1), f.factor(0, 1)).real == pytest.approx(0.5)


def test_build_factorization_entry_identity(rng):
    c = random_correlation(4, 2, rng)
    f = build_cpsd_factorization(c)
    for i in range(4):
        for a in (1, -1):
            for j in range(4):
                for b in (1, -1):
                    expected = (1 + a * b * c[i, j]) / 4
                    got = hs_inner(f.factor(i, a), f.factor(j, b))
                    assert abs(got - expected) < 1e-12


def test_outcome_sums_independent_of_index():
    f = build_cpsd_factorization(E3)
    sums = f.outcome_sums()
    for i in range(1, f.n):
        assert_allclose(sums[i], sums[0], atol=0.0)
    assert_allclose(sums[0], np.eye(2) / SQRT2)


def test_build_factorization_rejects_nonunit_factors():
    bad = E3_FACTORS.copy()
    bad[0] *= 0.5
    with pytest.raises(NumericalContractError):
        build_cpsd_factorization(E3, factors=bad)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_construction_verifies_against_witness(r):
    c, _ = gen_extreme_lex(r)
    witness = build_pc(c)
    f = build_cpsd_factorization(c)
    report = verify_cpsd_factorization(witness, f)
    assert report.passed
    assert report.max_deviation < 1e-10
    assert f.dim == (2 if r == 1 else 2 ** (r // 2))


def test_verify_detects_tampered_factor():
    witness = build_pc(E3)
    f = build_cpsd_factorization(E3)
    mats = f.mats.copy()
    mats[0, 0] = 0.0
    report = verify_cpsd_factorization(witness, CpsdFactorization(mats))
    assert not report.passed


def test_verify_size_mismatch():
    f = build_cpsd_factorization(E3)
    with pytest.raises(ShapeError):
        verify_cpsd_factorization(np.eye(4), f)


def test_certify_e3():
    cert = certify_lower_bound(E3)
    assert cert.rank == 2
    assert cert.is_extreme
    assert cert.lower_bound == 2
    assert cert.construction_dim == 2


def test_certify_rank_four_family():
    c, _ = gen_extreme_lex(4)
    cert = certify_lower_bound(c)
    assert (cert.rank, cert.lower_bound, cert.construction_dim) == (4, 4, 4)


def test_certify_rank_one_reports_dims_separately():
    cert = certify_lower_bound(np.eye(1))
    assert cert.rank == 1
    assert cert.lower_bound == 1
    assert cert.construction_dim == 2


def test_certify_non_extreme_claims_no_bound():
    cert = certify_lower_bound(np.eye(3))
    assert not cert.is_extreme
    assert cert.lower_bound is None


def test_extract_from_e3_construction():
    f = build_cpsd_factorization(E3, factors=E3_FACTORS)
    mf, report = extract_matrix_factorization(f)
    assert report.passed
    assert_allclose(mf.k, np.eye(2) / SQRT2, atol=1e-14)
    assert_allclose(mf.x_mats[0], PAULI_X, atol=1e-12)
    assert_allclose(mf.x_mats[1], PAULI_Y, atol=1e-12)
    assert_allclose(mf.x_mats[2], (PAULI_X + PAULI_Y) / SQRT2, atol=1e-12)


def test_extract_recovers_doubled_completion():
    f = build_cpsd_factorization(E3)
    mf, report = extract_matrix_factorization(f)
    assert report.passed
    doubled = np.block([[E3, E3], [E3, E3]])
    assert check_membership(doubled)
    assert np.max(np.abs(recover_correlation(mf) - doubled)) < 1e-9


@pytest.mark.parametrize("r", [1, 4, 7])
def test_extract_shares_one_stack_and_writes_the_same_bundle(tmp_path, r):
    mf, _ = extract_matrix_factorization(build_cpsd_factorization(gen_extreme_lex(r)[0]))
    assert np.shares_memory(mf.x_mats, mf.y_mats)
    matio.save_matrix_factorization(tmp_path / "shared", mf)
    matio.save_matrix_factorization(tmp_path / "copied", MatrixFactorization(mf.x_mats, mf.x_mats.copy(), mf.k))
    names = sorted(path.name for path in (tmp_path / "copied").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "shared").iterdir())
    for name in names:
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "copied" / name).read_bytes()


def test_extract_restricts_zero_padding():
    f = build_cpsd_factorization(E3)
    d = f.dim
    padded = np.zeros((f.n, 2, d + 1, d + 1), dtype=complex)
    padded[:, :, :d, :d] = f.mats
    mf_padded, report = extract_matrix_factorization(CpsdFactorization(padded))
    mf_plain, _ = extract_matrix_factorization(f)
    assert report.passed
    assert report.check("support_dimension").value == d
    assert np.max(np.abs(mf_padded.x_mats - mf_plain.x_mats)) < 1e-10
    assert np.max(np.abs(mf_padded.k - mf_plain.k)) < 1e-12


def test_extract_flags_subunit_system():
    # Shrinking the traceless part keeps the outcome sums intact but makes
    # X_1^2 = t^2 I strictly below the identity.
    f = build_cpsd_factorization(E3, factors=E3_FACTORS)
    mats = f.mats.copy()
    t = 0.9
    mean = (mats[0, 0] + mats[0, 1]) / 2.0
    half_diff = (mats[0, 0] - mats[0, 1]) / 2.0
    mats[0, 0] = mean + t * half_diff
    mats[0, 1] = mean - t * half_diff
    mf, report = extract_matrix_factorization(CpsdFactorization(mats))
    assert not report.passed
    assert report.check("involutions").deviation == pytest.approx(1 - t**2, abs=1e-9)


def test_extract_rejects_inconsistent_sums():
    f = build_cpsd_factorization(E3)
    mats = f.mats.copy()
    mats[0, 0] *= 0.9
    with pytest.raises(InconsistentSumsError):
        extract_matrix_factorization(CpsdFactorization(mats))
