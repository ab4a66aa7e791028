"""One fit per dense Clifford family: the Pauli projection in one pass over every entry, the
verifiers that fit a dense family once, the builders' bits across write chunks, and the
reduction that shares its stacks.

A dense stack is fitted in one chunked pass: the coordinates and the rebuilt values at the
(L+1) d places of clifford._pauli_tables, the residual over all d^2 entries.  It must give the
projection it replaced (``oracles.dense_pauli_coordinates``) bit for bit, residual norm
included, and the fit that first scanned for a stack +0.0 off the chain support
(``oracles.scan_pauli_coordinates``) bit for bit but for a residual norm on the support, which
that fit summed over the support alone.  A real stack's magnitudes are taken as floats, and only
its support values are copied to complex.
"""

import tempfile
import tracemalloc

import numpy as np
import pytest

from corrfact import clifford, cpsd, factorization, linalg, matio, quantum
from corrfact.clifford import _pauli_tables, gamma_generators, pauli_coordinates
from corrfact.cpsd import CpsdFactorization, build_cpsd_factorization, extract_matrix_factorization, verify_cpsd_factorization
from corrfact.elliptope import gen_extreme_lex
from corrfact.factorization import factorize_clifford, recover_correlation
from corrfact.quantum import build_tensor_rep, eval_correlations, reduce_rank_one_rep

import oracles
from test_pauli import _same_exactly
from test_support import _bipartite, _points


def _assert_matches_oracle(stack):
    got, want = pauli_coordinates(stack), oracles.dense_pauli_coordinates(stack)
    if want is None:
        assert got is None
        return
    for part, part_old in zip(got, want):
        assert part.tobytes() == part_old.tobytes()


def _assert_matches_scan(stack, ulps=0):
    """The fit that first scanned for a stack +0.0 off the chain support gives the coordinates and
    the largest residual entry bit for bit, and the residual norm within `ulps` units in the last
    place (bit for bit when 0): on such a stack it summed the squares of the support alone."""
    got, want = pauli_coordinates(stack), oracles.scan_pauli_coordinates(stack)
    if want is None:
        assert got is None
        return
    (coords, delta, resid), (coords_old, delta_old, resid_old) = got, want
    assert coords.tobytes() == coords_old.tobytes()
    assert resid.tobytes() == resid_old.tobytes()
    if ulps:
        assert np.all(np.abs(delta - delta_old) <= ulps * np.spacing(delta_old))
    else:
        assert delta.tobytes() == delta_old.tobytes()


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
        _assert_matches_oracle(stack)
        _assert_matches_scan(stack)


def _off_support_place(d):
    return np.delete(np.arange(d * d), _pauli_tables(d.bit_length() - 1)[0])[d // 2 + 1]


@pytest.mark.parametrize("value", [1e-6, -0.0, np.nan, np.inf])
@pytest.mark.parametrize("r", [8, 9, 12])
def test_an_off_support_bit_takes_the_full_pass(value, r):
    """One off-support entry set, even to -0.0, counts in the residual as the dense projection
    counts it, and gives the bits of the fit that scanned for it."""
    stack = _built_stacks(r)[2].copy()
    d = stack.shape[-1]
    stack.reshape(len(stack), d * d)[3, _off_support_place(d)] = value
    assert oracles.support_values(stack) is None
    with np.errstate(invalid="ignore"):
        _assert_matches_oracle(stack)
        _assert_matches_scan(stack)


@pytest.mark.parametrize("r", [8, 11])
def test_non_finite_support_entries_stay_on_the_support(r):
    """A NaN or an inf at a support place: the fit reports it as the dense projection and the
    scanning fit, which took such a stack at its support places, do."""
    stack = _built_stacks(r)[0].copy()
    flat = stack.reshape(len(stack), -1)
    pos = _pauli_tables(stack.shape[-1].bit_length() - 1)[0]
    flat[1, pos[5]], flat[4, pos[-1]] = np.nan, np.inf
    assert oracles.support_values(stack) is not None
    with np.errstate(invalid="ignore"):
        _assert_matches_oracle(stack)
        _assert_matches_scan(stack)


@pytest.mark.parametrize("r", [8, 10])
def test_rotated_family_takes_the_full_pass(r):
    stack = _built_stacks(r)[1]
    d = stack.shape[-1]
    rng = np.random.default_rng(r)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rotated = q @ stack @ q.conj().T
    _assert_matches_oracle(rotated)
    _assert_matches_scan(rotated)


@pytest.mark.parametrize("r", [8, 9])
def test_layouts_and_dtypes(r):
    """Real, single-precision and integer stacks, strided and transposed views and an empty stack:
    the dense projection's bits."""
    mats = build_cpsd_factorization(_points(r)[1]).mats
    stack = mats.reshape((-1,) + mats.shape[-2:])
    cases = {
        "real": stack.real.copy(),
        "strided": mats[:, 0],
        "transposed": stack.transpose(0, 2, 1),
        "real_strided": stack.real,
        "empty": stack[:0],
        "complex64": stack.astype(np.complex64),
        "float32": stack.real.astype(np.float32),
        "int64": np.rint(stack.real * 4).astype(np.int64),
    }
    for case in cases.values():
        _assert_matches_oracle(case)
        _assert_matches_scan(case)
    assert pauli_coordinates(stack[:0])[0].shape == (0, 2 * (r // 2) + 2)


def _traced_peak(fn, *args) -> int:
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_real_stack_is_fitted_without_a_complex_copy():
    """r=10: a real chunk's magnitudes are taken as floats and only its support values are copied
    to complex, so the fit peaks near twice the chunk's magnitudes (1.3x more for the support
    temporaries); copying the chunk to complex first took over four times them."""
    mats = build_cpsd_factorization(gen_extreme_lex(10)[0]).mats
    stack = mats.real.reshape((-1,) + mats.shape[-2:]).copy()
    d = stack.shape[-1]
    rows = linalg.chunks(len(stack), d * d * 16)[0]
    magnitudes = (rows.stop - rows.start) * d * d * 8
    assert _traced_peak(pauli_coordinates, stack) <= 2.5 * magnitudes
    assert _traced_peak(oracles.dense_pauli_coordinates, stack) > 4 * magnitudes


@pytest.mark.parametrize("chunk_bytes", [1, 3 * 1024 + 5, 40_000, linalg.CHUNK_BYTES])
@pytest.mark.parametrize("r", [8, 12])
def test_chunk_borders(monkeypatch, chunk_bytes, r):
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    for stack in _built_stacks(r)[:2]:
        _assert_matches_oracle(stack)
        noisy = stack + 1e-9 * np.random.default_rng(r).standard_normal(stack.shape)
        _assert_matches_oracle(noisy)


def _dense_stacks(r):
    """gamma_generators(r) and, for the lex point and two random points of rank r, dense copies of
    the built psd factors, both form-b families, form c's X and the X extracted from the factors."""
    out = [gamma_generators(r).generators]
    for e in _points(r):
        mats = build_cpsd_factorization(e).mats
        fb = factorize_clifford(e, e.shape[0] // 2)
        out += [mats.reshape((-1,) + mats.shape[-2:]), fb.a_mats, fb.b_mats]
        out.append(factorization.to_form_c(factorize_clifford(e)).x_mats)
        out.append(extract_matrix_factorization(CpsdFactorization(mats.copy()))[0].x_mats)
    return out


@pytest.mark.parametrize("r", range(8, 14))
def test_dense_stacks_are_fitted_as_the_dense_projection_and_the_scan(r):
    for stack in _dense_stacks(r):
        _assert_matches_oracle(stack)
        _assert_matches_scan(stack)


@pytest.mark.parametrize("r", [8, 10])
def test_families_read_from_files_are_fitted_as_the_scan(r):
    e = _points(r)[1]
    with tempfile.TemporaryDirectory() as tmp:
        matio.save_cpsd_factorization(tmp, build_cpsd_factorization(e))
        family = matio.load_cpsd_factorization(tmp)
    mf, _ = extract_matrix_factorization(family)
    for stack in (family.mats.reshape(-1, family.dim, family.dim), mf.x_mats):
        _assert_matches_oracle(stack)
        _assert_matches_scan(stack)


@pytest.mark.parametrize("r", range(8, 14))
def test_a_residual_on_the_support_moves_the_residual_norm_by_ulps(r):
    """Noise of 1e-12 at the support places alone: the fit sums all d^2 squares where the scanning
    fit summed the support's, so delta may differ from it in the last bits (at most 2 units
    in the last place measured here), and nothing else does."""
    rng = np.random.default_rng(700 + r)
    for stack in _dense_stacks(r)[1:]:
        d = stack.shape[-1]
        pos = _pauli_tables(d.bit_length() - 1)[0]
        noisy = stack.reshape(len(stack), d * d).astype(complex)
        noisy[:, pos] += 1e-12 * (rng.standard_normal((len(noisy), pos.size)) + 1j * rng.standard_normal((len(noisy), pos.size)))
        noisy = noisy.reshape(stack.shape)
        _assert_matches_oracle(noisy)
        _assert_matches_scan(noisy, ulps=2)


# ------------------------------------------------------------ one fit per family


@pytest.fixture
def fits(monkeypatch):
    """Count the fits of dense stacks (clifford.pauli_coordinates) and their sizes."""
    calls = []
    inner = clifford.pauli_coordinates

    def spy(stack):
        calls.append(stack.shape)
        return inner(stack)

    monkeypatch.setattr(clifford, "pauli_coordinates", spy)
    return calls


@pytest.mark.parametrize("r", [8, 9, 12])
def test_verifier_and_extraction_fit_the_family_once(fits, r):
    """A dense family (here a copy of a built one) is fitted once, by the verifier's Pauli bounds.
    Extraction reads all d^2 entries of the factors and fits the X it forms once; recovery takes
    the GEMM over all d^2 entries and fits nothing."""
    e = _points(r)[1]
    family = CpsdFactorization(build_cpsd_factorization(e).mats.copy())
    fits.clear()
    n, d = family.n, family.dim
    report = verify_cpsd_factorization(cpsd.build_pc(e), family)
    assert report.passed and fits == [(2 * n, d, d)]
    fits.clear()
    mf, diagnostics = extract_matrix_factorization(family)
    assert diagnostics.passed and fits == [(n, d, d)]
    fits.clear()
    assert mf.y_mats is mf.x_mats
    recover_correlation(mf)
    assert fits == []


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
