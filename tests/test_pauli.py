"""The Pauli-coordinate fast path of the verifiers against the dense checks it precedes.

The verifiers first judge a family from its Pauli coordinates
(clifford.pauli_coordinates) and keep that report only when every check
passes; otherwise the dense checks decide.  Generator-built families must be
decided by the fast path with the dense path's outcome, and every other
family (tampered, non-finite, of a size that is not a power of two, rotated
out of the Pauli basis) must fall back.  The dense copies are in
``oracles.py``.
"""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from corrfact import clifford, cpsd, factorization, linalg
from corrfact.clifford import _pauli_tables, gamma_generators, pauli_coordinates, pauli_gram, verify_clifford_relations
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
    verify_clifford_identity,
    verify_factorization,
)
from corrfact.errors import InconsistentSumsError
from corrfact.report import VerificationReport

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


@pytest.mark.parametrize("r", [2, 5, 8, 11])
def test_built_families_have_exact_coordinates(r):
    """Summed in halves, d terms equal up to sign give a coordinate exactly: a built involution,
    and at even rank a built psd factor, is its own rebuilt matrix, with no residual.  (At odd
    rank the diagonal of a psd factor holds c_0 + c_Z and c_0 - c_Z, two values.)"""
    e = _random_extreme(r, 500 + r)
    stacks = [to_form_c(factorize_clifford(e)).x_mats]
    if r % 2 == 0:
        stacks.append(build_cpsd_factorization(e).mats.reshape((-1,) + stacks[0].shape[1:]))
    for stack in stacks:
        coords, delta, resid = pauli_coordinates(stack)
        assert not delta.any() and not resid.any()


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
    report = verify_cpsd_factorization(witness, family)
    assert dense_calls["cpsd"] == 1
    _same_exactly(report, oracles.dense_verify_cpsd_factorization(witness, family))
    assert report.passed == (kind == "rotate")
    if kind == "nan":  # a failed report, not an eigensolver error
        failed = [c.name for c in report.checks if not c.passed]
        assert failed[:3] == ["factors_hermitian", "factors_psd", "entry_reconstruction"]
        assert report.check("factors_psd").deviation == math.inf


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


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 8, 10])
def test_diagonal_weight_scales_like_matmul(r):
    """The recovery Gram is the GEMM over the columns it keeps: every column below d = 16, and
    from there the nonzero ones when they are at most half."""
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
        flat = family.reshape(len(family), d * d).view(float)
        cols = np.flatnonzero(flat.any(axis=0))
        if d < linalg.GATHER_MIN_DIM or 2 * cols.size > flat.shape[1]:
            cols = np.arange(flat.shape[1])
        want = linalg.gram(flat[:, cols])
        assert np.array_equal(recover_correlation(MatrixFactorization(x, x, k), linalg.ToleranceConfig(eq_tol=1.0)), want)


@pytest.mark.parametrize("r", [8, 10])
def test_weight_gathers_write_the_matmul_bits(r):
    """From d = 16 a diagonal or permuted weight is applied by gather (linalg.sandwich)."""
    x = to_form_c(factorize_clifford(gen_extreme_lex(r)[0])).x_mats
    d = x.shape[-1]
    assert d >= linalg.GATHER_MIN_DIM
    rng = np.random.default_rng(r)
    diagonal = np.diag(rng.uniform(0.5, 1.5, d)).astype(complex)
    for k in (np.eye(d) / math.sqrt(d), diagonal, diagonal[rng.permutation(d)]):
        assert linalg._monomial(k) is not None
        assert _weigh(k, x).tobytes() == np.matmul(k, x).tobytes()
        assert _weigh(k, x, right=True).tobytes() == np.matmul(x, k).tobytes()


@pytest.mark.parametrize("r", range(1, 9))
def test_extraction_is_bit_identical_to_dense_oracle(r):
    """The gather of a diagonal sum's support writes the GEMM restriction's bits, padded or permuted.
    The reports are the dense ones bit for bit, but for the involutions deviation of a family in
    the Pauli span, which is the square bound (clifford.pauli_square_bounds) within 1e-13."""
    mats = build_cpsd_factorization(_random_extreme(r, 200 + r)).mats
    d = mats.shape[-1]
    padded = np.zeros(mats.shape[:2] + (d + 2, d + 2), dtype=complex)
    padded[..., 1:-1, 1:-1] = mats
    order = np.random.default_rng(r).permutation(d)
    for family in (mats, padded, mats[..., order, :][..., order]):
        mf, report = extract_matrix_factorization(CpsdFactorization(family))
        mf_old, report_old = oracles.dense_extract_matrix_factorization(CpsdFactorization(family))
        got, want = report.check("involutions").deviation, report_old.check("involutions").deviation
        assert abs(got - want) < 1e-13
        _same_exactly(_with_involutions(report, want), report_old)
        assert mf.x_mats.tobytes() == mf_old.x_mats.tobytes() and mf.k.tobytes() == mf_old.k.tobytes()


def _with_involutions(report, deviation):
    """The report with its involutions deviation replaced."""
    checks = tuple(dataclasses.replace(c, deviation=deviation) if c.name == "involutions" else c for c in report.checks)
    return VerificationReport(checks)


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


# ------------------------------------------------------------ Clifford checks


@pytest.fixture
def dense_clifford_calls(monkeypatch):
    """Count the calls of the two Clifford checks' batched products."""
    calls = {"identity": 0, "relations": 0}

    def spy(module, name, key):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(factorization, "_dense_identity_deviations", "identity")
    spy(clifford, "_dense_relation_deviations", "relations")
    return calls


def _involutions(r, seed):
    """The leading r x r block of a random extreme point and its first r involutions."""
    e = _random_extreme(r, seed)
    return e[:r, :r], to_form_c(factorize_clifford(e)).x_mats[:r]


@pytest.mark.parametrize("chunk_bytes", CHUNKS)
@pytest.mark.parametrize("r", range(1, 9))
def test_clifford_checks_decided_by_closed_forms(monkeypatch, dense_clifford_calls, chunk_bytes, r):
    """Random extreme points and built generators: the closed forms decide, with the dense outcome."""
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    block, x = _involutions(r, 300 + r)
    for trials, seed in ((100, r), (0, 1), (7, 2)):
        report = verify_clifford_identity(block, x, trials=trials, seed=seed)
        assert_reports_match(report, oracles.verify_clifford_identity(block, x, trials=trials, seed=seed))
        assert_reports_match(report, oracles.dense_verify_clifford_identity(block, x, trials=trials, seed=seed))
        assert report.passed
    gens = gamma_generators(r).generators
    report = verify_clifford_relations(gens)
    _same_exactly(report, oracles.dense_verify_clifford_relations(gens))
    assert_reports_match(report, oracles.verify_clifford_relations(gens))
    assert dense_clifford_calls == {"identity": 0, "relations": 0}


@pytest.mark.parametrize("r", [3, 6, 9])
def test_signed_permuted_chains_are_decided_exactly(dense_clifford_calls, r):
    """Signed chains in any order are exact in both paths: the same report bit for bit, notes included."""
    rng = np.random.default_rng(r)
    gens = gamma_generators(r).generators
    family = gens[rng.permutation(r)] * rng.choice([-1.0, 1.0], r)[:, None, None]
    report = verify_clifford_relations(family)
    _same_exactly(report, oracles.dense_verify_clifford_relations(family))
    assert report.passed and report.max_deviation == 0.0
    assert [c.note for c in report.checks] == ["worst generator 1", "no distinct pairs"]
    assert dense_clifford_calls["relations"] == 0


def test_identity_counts_as_a_chain_only_alone(dense_clifford_calls):
    """+-I squares to I: alone it is decided from its coordinates; beside a chain, {I, G} = 2G."""
    eye, x = np.eye(4, dtype=complex), gamma_generators(4).generators[0]
    for family, calls, passed in (([-eye], 0, True), ([eye, x], 1, False)):
        report = verify_clifford_relations(family)
        _same_exactly(report, oracles.dense_verify_clifford_relations(family))
        assert dense_clifford_calls["relations"] == calls and report.passed == passed


def test_exact_family_that_fails_falls_back(dense_clifford_calls):
    """Integer coordinates without a residual, but a repeated and a doubled chain: the dense report."""
    gens = gamma_generators(5).generators.copy()
    gens[3] = gens[1]
    gens[4] = 2.0 * gens[4]
    report = verify_clifford_relations(gens)
    assert dense_clifford_calls["relations"] == 1
    _same_exactly(report, oracles.dense_verify_clifford_relations(gens))
    assert [c.note for c in report.checks] == ["worst generator 5", "worst pair (2, 4)"]


@pytest.mark.parametrize("chunk_bytes", CHUNKS)
@pytest.mark.parametrize("kind", ["entry", "sign", "nan", "rotate"])
@pytest.mark.parametrize("r", [4, 5])
def test_tampered_involutions_fall_back(monkeypatch, dense_clifford_calls, chunk_bytes, kind, r):
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    block, x = _involutions(r, 400 + r)
    tampered = _tamper(x, kind, np.random.default_rng(r))
    report = verify_clifford_identity(block, tampered, trials=30, seed=r)
    assert dense_clifford_calls["identity"] == 1
    dense = oracles.dense_verify_clifford_identity(block, tampered, trials=30, seed=r)
    if kind == "nan":  # the oracle's running max drops the NaN of its directions; both checks fail
        assert [c.passed for c in report.checks] == [False, False]
        assert math.isnan(report.check("random_direction_identity").deviation)
        assert dense.check("random_direction_identity").deviation == 0.0
        _same_exactly(VerificationReport(report.checks[1:]), VerificationReport(dense.checks[1:]))
        return
    _same_exactly(report, dense)
    assert report.passed == (kind == "rotate")


@pytest.mark.parametrize("kind", ["entry", "sign", "nan", "rotate"])
@pytest.mark.parametrize("r", [4, 5])
def test_tampered_generators_fall_back(dense_clifford_calls, kind, r):
    """A Hermitian entry off by 1e-6 or a rotation go to the dense path; a flipped sign stays
    exact and passes; a NaN is refused before either path, as the dense check always did."""
    gens = gamma_generators(r).generators
    if kind == "entry":
        tampered = gens.copy()
        tampered[1, 0, 0] += 1e-6
    else:
        tampered = _tamper(gens, kind, np.random.default_rng(r))
    if kind == "nan":
        with pytest.raises(ValueError) as want:
            oracles.dense_verify_clifford_relations(tampered)
        with pytest.raises(ValueError, match=str(want.value)):
            verify_clifford_relations(tampered)
        return
    report = verify_clifford_relations(tampered)
    assert dense_clifford_calls["relations"] == (kind in ("entry", "rotate"))
    _same_exactly(report, oracles.dense_verify_clifford_relations(tampered))
    assert report.passed == (kind != "entry")


def test_closed_form_bounds_hold_off_the_pauli_span():
    """Noise of every size: each bound is at least the dense deviation it stands for."""
    rng = np.random.default_rng(11)
    block, x = _involutions(6, 11)
    mus = rng.standard_normal((40, 6))
    rows, cols = np.triu_indices(6)
    for scale in (1e-3, 1e-9, 1e-13):
        noisy = x + scale * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
        bound_rand, bound_pair = factorization._pauli_identity_deviations(noisy, block, mus, rows, cols)
        dense_rand, dense_pair = factorization._dense_identity_deviations(noisy, block, mus, rows, cols)
        assert bound_rand >= dense_rand and bound_pair >= dense_pair
        fit = pauli_coordinates(noisy)
        idx = np.arange(6)
        squares = clifford.pauli_anticommutators(*fit, idx, idx, np.full(6, 2.0)) / 2.0
        assert np.all(squares >= linalg.square_deviations(noisy))


def test_identity_bound_stays_within_dev_tol_at_rank_twelve():
    """The max-entry slack keeps the bound near the dense value where a Frobenius slack would not."""
    block, x = _involutions(12, 12)
    report = verify_clifford_identity(block, x, trials=100, seed=12)
    dense = oracles.dense_verify_clifford_identity(block, x, trials=100, seed=12)
    assert report.passed
    for got, want in zip(report.checks, dense.checks):
        assert got.deviation >= 0.0 and abs(got.deviation - want.deviation) < 1e-13


# ------------------------------------------------------------ non-finite factors


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_factor_fails_the_cpsd_report(value):
    """Without a numpy warning: the dense oracle, which warns, writes the same failed report."""
    e = gen_extreme_lex(4)[0]
    mats = build_cpsd_factorization(e).mats.copy()
    mats[2, 1, 1, 1] = value
    report = verify_cpsd_factorization(build_pc(e), CpsdFactorization(mats))
    assert not report.check("factors_hermitian").passed and not report.check("factors_psd").passed
    assert report.check("factors_psd").note == "min eigenvalue -inf"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _same_exactly(report, oracles.dense_verify_cpsd_factorization(build_pc(e), CpsdFactorization(mats)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_factor_raises_inconsistent_sums_on_extraction(value):
    """Without a numpy warning, naming the deviation of the loop oracle, which warns."""
    mats = build_cpsd_factorization(gen_extreme_lex(4)[0]).mats.copy()
    mats[1, 0, 0, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sum_dev = oracles.outcome_sum_check(mats, hermitize=True)[1]
    with pytest.raises(InconsistentSumsError, match=re.escape(f"differ across indices by {sum_dev:.3e}")):
        extract_matrix_factorization(CpsdFactorization(mats))


def test_eigenvalue_bounds_of_a_non_finite_matrix_are_unbounded():
    stack = np.stack([np.eye(3), np.eye(3), 2.0 * np.eye(3)]).astype(complex)
    stack[1, 0, 2] = np.nan
    least, largest = linalg.eigenvalue_bounds(stack)
    assert least.tolist() == [1.0, -np.inf, 2.0] and largest.tolist() == [1.0, np.inf, 2.0]
