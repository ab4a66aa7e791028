"""One support pass per Clifford family: the Pauli projection read from the chain
support, the verifiers that scan a dense family once, the
builders' bits across write chunks, and the reduction that shares its stacks.

A family proven +0.0 off the (L+1) d places of clifford._pauli_tables by one
bitwise-OR pass is projected from its values there; any set bit off them
sends it to the residual pass over every entry.  Both must give the
coordinates and the largest residual entry of the projection they replaced
(``oracles.dense_pauli_coordinates``) bit for bit, and its residual norm
within 1e-15.
"""

import numpy as np
import pytest

from corrfact import clifford, cpsd, factorization, linalg, quantum
from corrfact.clifford import _pauli_tables, pauli_coordinates, support_values
from corrfact.cpsd import CpsdFactorization, build_cpsd_factorization, extract_matrix_factorization, verify_cpsd_factorization
from corrfact.elliptope import gen_extreme_lex
from corrfact.factorization import factorize_clifford, recover_correlation
from corrfact.quantum import build_tensor_rep, eval_correlations, reduce_rank_one_rep

import oracles
from test_pauli import _same_exactly
from test_support import _bipartite, _points


def _assert_matches_oracle(stack, exact_delta=False):
    got, want = pauli_coordinates(stack), oracles.dense_pauli_coordinates(stack)
    if want is None:
        assert got is None
        return
    (coords, delta, resid), (coords_old, delta_old, resid_old) = got, want
    assert coords.tobytes() == coords_old.tobytes()
    assert resid.tobytes() == resid_old.tobytes()
    if exact_delta:
        assert delta.tobytes() == delta_old.tobytes()
    else:
        assert np.all(np.abs(delta - delta_old) <= 1e-15)


def _built_stacks(r):
    """The psd factors and the form-b matrices of the lex point and two random points of rank r."""
    out = []
    for e in _points(r):
        mats = build_cpsd_factorization(e).mats
        out.append(mats.reshape((-1,) + mats.shape[-2:]))
        out.append(factorize_clifford(e).a_mats)
    return out


@pytest.mark.parametrize("r", range(1, 13))
def test_built_families_match_the_dense_projection(r):
    for stack in _built_stacks(r):
        assert (support_values(stack) is not None) == (stack.shape[-1] >= linalg.GATHER_MIN_DIM)
        _assert_matches_oracle(stack)


def _off_support_place(d):
    return np.delete(np.arange(d * d), _pauli_tables(d.bit_length() - 1)[0])[d // 2 + 1]


@pytest.mark.parametrize("value", [1e-6, -0.0, np.nan, np.inf])
@pytest.mark.parametrize("r", [8, 9, 12])
def test_an_off_support_bit_takes_the_full_pass(value, r):
    """One off-support entry set, even to -0.0, sends the stack to the residual pass over
    every entry, which gives the dense projection's bits, its residual norm included."""
    stack = _built_stacks(r)[2].copy()
    d = stack.shape[-1]
    stack.reshape(len(stack), d * d)[3, _off_support_place(d)] = value
    assert support_values(stack) is None
    _assert_matches_oracle(stack, exact_delta=True)


@pytest.mark.parametrize("r", [8, 11])
def test_non_finite_support_entries_stay_on_the_support(r):
    """A NaN or an inf at a support place sets no bit off the support: the support pass reports it
    as the dense projection does."""
    stack = _built_stacks(r)[0].copy()
    flat = stack.reshape(len(stack), -1)
    pos = _pauli_tables(stack.shape[-1].bit_length() - 1)[0]
    flat[1, pos[5]], flat[4, pos[-1]] = np.nan, np.inf
    assert support_values(stack) is not None
    with np.errstate(invalid="ignore"):
        coords, delta, resid = pauli_coordinates(stack)
        coords_old, delta_old, resid_old = oracles.dense_pauli_coordinates(stack)
    assert np.array_equal(coords, coords_old, equal_nan=True)
    assert np.array_equal(resid, resid_old, equal_nan=True)
    assert np.array_equal(np.isnan(delta), np.isnan(delta_old))


@pytest.mark.parametrize("r", [8, 10])
def test_rotated_family_takes_the_full_pass(r):
    stack = _built_stacks(r)[1]
    d = stack.shape[-1]
    rng = np.random.default_rng(r)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rotated = q @ stack @ q.conj().T
    assert support_values(rotated) is None
    _assert_matches_oracle(rotated, exact_delta=True)


@pytest.mark.parametrize("r", [8, 9])
def test_layouts_and_dtypes(r):
    """Real stacks, strided and transposed views and an empty stack: the dense projection's bits."""
    mats = build_cpsd_factorization(_points(r)[1]).mats
    stack = mats.reshape((-1,) + mats.shape[-2:])
    cases = {
        "real": stack.real.copy(),
        "strided": mats[:, 0],
        "transposed": stack.transpose(0, 2, 1),
        "real_strided": stack.real,
        "empty": stack[:0],
        "complex64": stack.astype(np.complex64),
    }
    for name, case in cases.items():
        _assert_matches_oracle(case)
        on_support = name not in ("complex64",)
        assert (support_values(case) is not None) == on_support, name
    assert pauli_coordinates(stack[:0])[0].shape == (0, 2 * (r // 2) + 2)


@pytest.mark.parametrize("chunk_bytes", [1, 3 * 1024 + 5, 40_000, linalg.CHUNK_BYTES])
@pytest.mark.parametrize("r", [8, 12])
def test_chunk_borders(monkeypatch, chunk_bytes, r):
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    for stack in _built_stacks(r)[:2]:
        _assert_matches_oracle(stack)
        noisy = stack + 1e-9 * np.random.default_rng(r).standard_normal(stack.shape)
        _assert_matches_oracle(noisy, exact_delta=True)


# ------------------------------------------------------------ one scan per family


@pytest.fixture
def scans(monkeypatch):
    """Count the bitwise-OR scans, which clifford.support_values alone runs."""
    calls = []
    inner = linalg.nonzero_places

    def spy(flat):
        calls.append(flat.shape)
        return inner(flat)

    monkeypatch.setattr(clifford, "nonzero_places", spy)
    return calls


@pytest.mark.parametrize("r", [8, 9, 12])
def test_verifier_and_extraction_scan_the_family_once(scans, r):
    """A dense family (here a copy of a built one) is scanned once, by the verifier's Pauli fit.
    Extraction reads all d^2 entries of the factors unscanned and scans the X it forms once, for
    X's fit; recovery takes the GEMM over all d^2 entries and scans nothing."""
    e = _points(r)[1]
    family = CpsdFactorization(build_cpsd_factorization(e).mats.copy())
    scans.clear()
    n, d = family.n, family.dim
    report = verify_cpsd_factorization(cpsd.build_pc(e), family)
    assert report.passed and scans == [(2 * n, d * d)]
    scans.clear()
    mf, diagnostics = extract_matrix_factorization(family)
    assert diagnostics.passed and scans == [(n, d * d)]
    scans.clear()
    assert mf.y_mats is mf.x_mats
    recover_correlation(mf)
    assert scans == []


@pytest.mark.parametrize("r", [8, 12])
def test_tampered_family_gets_the_dense_report(r):
    """An off-support entry raised by 1e-6 fails the verifier with the dense report."""
    e = _points(r)[0]
    mats = build_cpsd_factorization(e).mats.copy()
    d = mats.shape[-1]
    mats[0, 0].reshape(-1)[_off_support_place(d)] += 1e-6
    family = CpsdFactorization(mats)
    witness = cpsd.build_pc(e)
    report = verify_cpsd_factorization(witness, family)
    assert not report.passed
    _same_exactly(report, oracles.dense_verify_cpsd_factorization(witness, family))


@pytest.mark.parametrize("r", [8, 11, 12])
def test_recovery_of_a_shared_family_matches_the_full_gemm(r):
    e = _points(r)[2]
    mf, _ = extract_matrix_factorization(build_cpsd_factorization(e))
    apart = factorization.MatrixFactorization(mf.x_mats, mf.x_mats.copy(), mf.k)
    family = np.concatenate([mf.k @ mf.x_mats, mf.y_mats @ mf.k])
    full = linalg.gram(family.reshape(len(family), -1).view(float))
    for fact in (mf, apart):
        assert np.max(np.abs(recover_correlation(fact) - full)) < 1e-13


# ------------------------------------------------------------ builders


@pytest.mark.parametrize("chunk_bytes", [1, 5000, linalg.CHUNK_BYTES])
def test_cpsd_builder_bits_across_write_chunks(monkeypatch, chunk_bytes):
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    e = _points(9)[1]
    got, want = build_cpsd_factorization(e), oracles.tensordot_build_cpsd_factorization(e)
    assert got.mats.tobytes() == want.mats.tobytes()


# ------------------------------------------------------------ reduction


@pytest.mark.parametrize("r", [8, 12])
def test_reduction_shares_the_observables(r):
    """The identity isometries of the maximally entangled state leave the stacks as they are:
    the reduced representation holds read-only views of them, not copies."""
    block, system = _bipartite(gen_extreme_lex(r)[0])
    rep = build_tensor_rep(block, system)
    reduced = reduce_rank_one_rep(rep)
    for field in ("alice_obs", "bob_obs"):
        got, mine = getattr(reduced, field), getattr(rep, field)
        assert np.shares_memory(got, mine) and not got.flags.writeable, field
        assert got.tobytes() == mine.tobytes()
    assert np.max(np.abs(eval_correlations(reduced) - block)) < 1e-13
    assert quantum.to_matrix_factorization(reduced).x_mats.flags.writeable
