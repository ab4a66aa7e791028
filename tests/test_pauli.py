"""The Pauli-coordinate fast path of the verifiers against the dense checks it precedes.

The verifiers first judge a family from its Pauli coordinates
(clifford.pauli_coordinates) and keep that report only when every check
passes; otherwise the dense checks decide.  Generator-built families must be
decided by the fast path with the dense path's outcome, and every other
family (tampered, non-finite, of a size that is not a power of two, rotated
out of the Pauli basis) must fall back.  The dense copies are in
``oracles.py``.
"""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from corrfact import cpsd, factorization, linalg
from corrfact.clifford import _pauli_tables, gamma_generators, pauli_coordinates, pauli_gram
from corrfact.cpsd import (
    CpsdFactorization,
    build_cpsd_factorization,
    build_pc,
    extract_matrix_factorization,
    verify_cpsd_factorization,
)
from corrfact.elliptope import gen_extreme_lex, random_correlation
from corrfact.factorization import (
    FormBFactorization,
    MatrixFactorization,
    _weigh,
    factorize_clifford,
    recover_correlation,
    to_form_c,
    verify_factorization,
)

import oracles
from test_oracles import assert_reports_match

CHUNKS = [1, 517, linalg.CHUNK_BYTES]


@pytest.fixture
def dense_calls(monkeypatch):
    """Count the calls of each verifier's dense path."""
    calls = {"cpsd": 0, "factorization": 0}

    def spy(module, name, key):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(cpsd, "_dense_deviations", "cpsd")
    spy(factorization, "_hs_gram_deviation", "factorization")
    return calls


def _random_extreme(r, seed):
    return random_correlation(r * (r + 1) // 2, r, np.random.default_rng(seed))


def _random_unitary(d, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


def _same_exactly(new, old):
    """Identical reports: names, outcomes, notes and values, deviations bit for bit (NaN equal to NaN)."""
    assert [(c.name, c.passed, c.note, c.value) for c in new.checks] == [
        (c.name, c.passed, c.note, c.value) for c in old.checks
    ]
    got, want = [c.deviation for c in new.checks], [c.deviation for c in old.checks]
    assert np.array_equal(got, want, equal_nan=True), (got, want)


@pytest.mark.parametrize("ell", range(1, 7))
def test_tables_rebuild_identity_and_chains(ell):
    d = 2**ell
    pos, table = _pauli_tables(ell)
    assert pos.size == (ell + 1) * d
    basis = np.zeros((2 * ell + 2, d * d), dtype=complex)
    basis[:, pos] = table
    want = np.concatenate([np.eye(d)[None], gamma_generators(2 * ell + 1).generators])
    assert np.array_equal(basis.reshape(want.shape), want)
    assert not (pos.flags.writeable or table.flags.writeable)


@pytest.mark.parametrize("chunk_bytes", CHUNKS)
@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_coordinates_match_dense_projection(monkeypatch, chunk_bytes, d):
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(d)
    ell = d.bit_length() - 1
    basis = np.concatenate([np.eye(d)[None], gamma_generators(2 * ell + 1).generators])
    coeffs = rng.standard_normal((5, 2 * ell + 2))
    noise = 1e-3 * (rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d)))
    noise[0] = 0.0
    stack = np.tensordot(coeffs, basis, axes=1) + noise
    coords, delta, resid = pauli_coordinates(stack)
    want = np.einsum("kab,pba->pk", basis, stack).real / d
    rebuilt = np.tensordot(want, basis, axes=1)
    assert_allclose(coords, want, rtol=0, atol=1e-14)
    assert_allclose(coords[0], coeffs[0], rtol=0, atol=1e-14)
    assert_allclose(delta, np.linalg.norm((stack - rebuilt).reshape(5, -1), axis=1), rtol=0, atol=1e-14)
    assert_allclose(resid, np.abs(stack - rebuilt).max(axis=(1, 2)), rtol=0, atol=1e-14)
    assert delta[0] < 1e-14 and delta[1] > 1e-4
    gram, slack = pauli_gram(coords, delta, d)
    exact = np.einsum("pab,qab->pq", stack, stack.conj())
    assert np.all(np.abs(exact - gram) <= slack + 1e-13)


@pytest.mark.parametrize("scale", [1e-3, 1e-9, 1e-12])
@pytest.mark.parametrize("r", [4, 7])
def test_bounds_hold_off_the_pauli_span(scale, r):
    """Off the span, every fast-path value bounds the dense one from the safe side."""
    rng = np.random.default_rng(r)
    e = gen_extreme_lex(r)[0]
    mats = build_cpsd_factorization(e).mats
    noise = rng.standard_normal(mats.shape) + 1j * rng.standard_normal(mats.shape)
    stack = (mats + scale * noise).reshape((-1,) + mats.shape[-2:])
    witness = build_pc(e)
    herm, min_eig, entry = cpsd._pauli_deviations(stack, witness)
    herm_dense, min_eig_dense, entry_dense = cpsd._dense_deviations(stack, witness)
    assert herm >= herm_dense and min_eig <= min_eig_dense and entry >= entry_dense
    fb = factorize_clifford(e, 3)
    a_mats, b_mats = (m + scale * rng.standard_normal(m.shape) for m in (fb.a_mats, fb.b_mats))
    gram_dev, inv_dev = factorization._pauli_deviations(a_mats, b_mats, e, 1.0, 1.0 / fb.dim)
    dense = oracles.dense_verify_factorization(e, FormBFactorization(a_mats, b_mats), mode="b-form")
    assert gram_dev >= dense.check("gram_reconstruction").deviation
    assert inv_dev >= dense.check("scaled_involutions").deviation


@pytest.mark.parametrize("d", [1, 3, 6, 12])
def test_coordinates_need_a_power_of_two_of_at_least_two(d):
    assert pauli_coordinates(np.zeros((2, d, d), dtype=complex)) is None


@pytest.mark.parametrize("chunk_bytes", CHUNKS)
@pytest.mark.parametrize("r", range(1, 9))
def test_fast_path_decides_like_dense_oracle(monkeypatch, dense_calls, chunk_bytes, r):
    """Random extreme points, odd ranks included: the fast path decides, with the dense outcome."""
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    e = _random_extreme(r, 100 + r)
    n = e.shape[0]
    family = build_cpsd_factorization(e)
    report = verify_cpsd_factorization(build_pc(e), family)
    assert_reports_match(report, oracles.dense_verify_cpsd_factorization(build_pc(e), family))
    assert report.passed
    fb = factorize_clifford(e, n // 2)
    mf = to_form_c(fb)
    for fact, mode in ((fb, "b-form"), (mf, "i"), (mf, "i-prime")):
        report = verify_factorization(e, fact, mode=mode)
        assert_reports_match(report, oracles.dense_verify_factorization(e, fact, mode=mode))
        assert report.passed
    extracted, _ = extract_matrix_factorization(family)
    doubled = np.block([[e, e], [e, e]])
    report = verify_factorization(doubled, extracted)
    assert_reports_match(report, oracles.dense_verify_factorization(doubled, extracted))
    assert report.passed
    assert dense_calls == {"cpsd": 0, "factorization": 0}


def _tamper(mats, kind, rng):
    """A copy of a (k, d, d) or (n, 2, d, d) stack with one defect; `rotate` conjugates every
    member by one unitary, which leaves the Pauli span for d >= 4 (at d = 2 it spans every matrix)."""
    out = mats.copy()
    first = out.reshape((-1,) + out.shape[-2:])
    if kind == "entry":
        first[1, 0, 1] += 1e-6
    elif kind == "sign":
        first[0] *= -1.0
    elif kind == "nan":
        first[1, 1, 0] = np.nan
    elif kind == "rotate":
        u = _random_unitary(out.shape[-1], rng)
        out = u @ out @ u.conj().T
    return out


@pytest.mark.parametrize("chunk_bytes", CHUNKS)
@pytest.mark.parametrize("kind", ["entry", "sign", "nan", "rotate"])
@pytest.mark.parametrize("r", [4, 5])
def test_tampered_cpsd_family_falls_back(monkeypatch, dense_calls, chunk_bytes, kind, r):
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    e = gen_extreme_lex(r)[0]
    witness = build_pc(e)
    family = CpsdFactorization(_tamper(build_cpsd_factorization(e).mats, kind, np.random.default_rng(r)))
    if kind == "nan":  # the dense eigensolve refuses a NaN factor, as it always did
        for verify in (verify_cpsd_factorization, oracles.dense_verify_cpsd_factorization):
            with pytest.raises(np.linalg.LinAlgError):
                verify(witness, family)
        assert dense_calls["cpsd"] == 1
        return
    report = verify_cpsd_factorization(witness, family)
    assert dense_calls["cpsd"] == 1
    _same_exactly(report, oracles.dense_verify_cpsd_factorization(witness, family))
    assert report.passed == (kind == "rotate")


def test_family_of_size_three_falls_back(dense_calls):
    """A 3 x 3 psd family and its own Gram matrix as witness: d is not a power of two."""
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((4, 2, 3, 2)) + 1j * rng.standard_normal((4, 2, 3, 2))
    mats = vecs @ vecs.conj().swapaxes(-1, -2) / 10.0
    family = CpsdFactorization(mats)
    flat = mats.reshape(8, 9)
    witness = (flat @ flat.conj().T).real
    report = verify_cpsd_factorization(witness, family)
    assert dense_calls["cpsd"] == 1
    _same_exactly(report, oracles.dense_verify_cpsd_factorization(witness, family))
    assert report.check("entry_reconstruction").passed and report.check("factors_psd").passed


@pytest.mark.parametrize("kind", ["entry", "sign", "nan", "rotate"])
@pytest.mark.parametrize("mode", ["i", "i-prime", "b-form"])
def test_tampered_factorization_falls_back(dense_calls, kind, mode):
    e = gen_extreme_lex(5)[0]
    n = e.shape[0]
    fb = factorize_clifford(e, n // 2)
    both = _tamper(np.concatenate([fb.a_mats, fb.b_mats]), kind, np.random.default_rng(5))
    fact = FormBFactorization(both[: n // 2], both[n // 2 :])
    if mode != "b-form":
        fact = to_form_c(fact)
    report = verify_factorization(e, fact, mode=mode)
    assert dense_calls["factorization"] == 1
    _same_exactly(report, oracles.dense_verify_factorization(e, fact, mode=mode))
    assert report.passed == (kind == "rotate")


def test_involutions_of_size_three_fall_back(dense_calls):
    x = np.stack([np.diag([1.0, 1.0, -1.0]), np.diag([1.0, -1.0, -1.0])]).astype(complex)
    k = np.eye(3) / np.sqrt(3.0)
    mf = MatrixFactorization(x[:1], x[1:], k)
    target = recover_correlation(mf)
    report = verify_factorization(target, mf)
    assert dense_calls["factorization"] == 1
    _same_exactly(report, oracles.dense_verify_factorization(target, mf))
    assert report.passed


def test_weight_that_is_not_a_multiple_of_identity_falls_back(dense_calls):
    """A valid weight that agrees with I/sqrt(d) in its first entry only: the Gram check fails."""
    e = gen_extreme_lex(4)[0]
    mf = to_form_c(factorize_clifford(e))
    k = np.diag(np.sqrt([0.25, 0.25, 0.3, 0.2])).astype(complex)
    skewed = MatrixFactorization(mf.x_mats, mf.y_mats, k)
    report = verify_factorization(e, skewed)
    assert dense_calls["factorization"] == 1
    _same_exactly(report, oracles.dense_verify_factorization(e, skewed))
    assert [c.name for c in report.checks if not c.passed] == ["gram_reconstruction"]


@pytest.mark.parametrize("r", range(1, 7))
def test_diagonal_weight_scales_like_matmul(r):
    e = gen_extreme_lex(r)[0]
    x = to_form_c(factorize_clifford(e)).x_mats
    d = x.shape[-1]
    rng = np.random.default_rng(r)
    diagonal = np.diag(rng.uniform(0.5, 1.5, d)).astype(complex)
    full = diagonal + 1e-3 * np.ones((d, d))
    for k in (np.eye(d) / math.sqrt(d), diagonal, full):
        assert np.array_equal(_weigh(k, x), np.matmul(k, x))
        assert np.array_equal(_weigh(k, x, right=True), np.matmul(x, k))
    for k in (np.eye(d) / math.sqrt(d), diagonal / np.linalg.norm(diagonal)):
        family = np.concatenate([np.matmul(k, x), np.matmul(x, k)])
        want = linalg.gram(family.reshape(len(family), d * d).view(float))
        assert np.array_equal(recover_correlation(MatrixFactorization(x, x, k), linalg.ToleranceConfig(eq_tol=1.0)), want)


@pytest.mark.parametrize("r", range(1, 9))
def test_extraction_is_bit_identical_to_dense_oracle(r):
    """The gather of a diagonal sum's support writes the GEMM restriction's bits, padded or permuted."""
    mats = build_cpsd_factorization(_random_extreme(r, 200 + r)).mats
    d = mats.shape[-1]
    padded = np.zeros(mats.shape[:2] + (d + 2, d + 2), dtype=complex)
    padded[..., 1:-1, 1:-1] = mats
    order = np.random.default_rng(r).permutation(d)
    for family in (mats, padded, mats[..., order, :][..., order]):
        mf, report = extract_matrix_factorization(CpsdFactorization(family))
        mf_old, report_old = oracles.dense_extract_matrix_factorization(CpsdFactorization(family))
        _same_exactly(report, report_old)
        assert mf.x_mats.tobytes() == mf_old.x_mats.tobytes() and mf.k.tobytes() == mf_old.k.tobytes()


def test_fast_path_residual_pass_stays_chunked():
    """No (2n, d, d) temporary: the peak stays well under the factor stack at r = 12."""
    e = gen_extreme_lex(12)[0]
    family = build_cpsd_factorization(e)
    witness = build_pc(e)
    verify_cpsd_factorization(witness, family)
    tracemalloc.start()
    try:
        assert verify_cpsd_factorization(witness, family).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * linalg.CHUNK_BYTES < family.mats.nbytes / 2, (peak, family.mats.nbytes)
