"""Extraction from a held psd-factor family (cpsd._held_diagonal), and the readers of a dense family.

A family held as its Pauli coordinates whose outcome sums are exact zeros off
the diagonal, as build_cpsd_factorization makes them, is extracted from the two
diagonal values of each factor, which give K, its check and their bits as the d
diagonal places did (oracles.held_diagonal), with no (n, d) array; and
X = (P+ - P-)/k is held by its own coordinates, whose values
are their chain_products as for every held family.  K, X's coordinates, the
recovered matrix and every report outcome are those of the values path, which
replayed X's values from the factors' values (oracles.values_extract_matrix_factorization);
X's own rounding bound tightens the involutions bound, and X's dense read has the
values path's bits at even rank and moves on the diagonal alone at odd rank.  Any
other held family reports as its dense copy does.  A dense family is read at all
d^2 entries: the verifier's and extraction's reports, K and X are the bytes the
chain-support readers gave (oracles.values_verify_cpsd_factorization and the
values path), and recovered and evaluated entries lie within 1e-14 of theirs.
Extraction forms X in place and compares the outcome sums in one chunk buffer,
with the bytes of the code that formed them in temporaries of their own
(oracles.temporaries_extract_matrix_factorization).  Also here: the witness, the
Schmidt phases, the scalar-state test of eval_correlations and the relation check
of signed chains, each against the code it replaced.
"""

import json
import tracemalloc

import numpy as np
import pytest

import oracles
from corrfact import cpsd, linalg, matio
from corrfact.clifford import (
    PauliFamily,
    _pauli_tables,
    chain_coordinates,
    chain_products,
    gamma_generators,
    held,
    unspent,
    verify_clifford_relations,
)
from corrfact.cpsd import CpsdFactorization, build_cpsd_factorization, build_pc, extract_matrix_factorization, verify_cpsd_factorization
from corrfact.elliptope import factored_correlation, gen_extreme_lex
from corrfact.errors import InconsistentSumsError, MemoryBudgetError, NotHermitianError, NotPsdError, NumericalContractError
from corrfact.factorization import MatrixFactorization, factorize_clifford, recover_correlation, to_form_c
from corrfact.linalg import DEFAULT_TOL, schmidt
from corrfact.quantum import TensorProductRep, build_tensor_rep, eval_correlations, maximally_entangled
from corrfact.report import report_json

from test_support import _bipartite, _points

CASES = [(r, k) for r in range(8, 17) for k in range(3)]


def _text(report) -> str:
    return json.dumps(report_json("cpsd extract", report, DEFAULT_TOL, None))


def _pair(e):
    """The extraction of a held family and the values path's, each from a family of its own."""
    return extract_matrix_factorization(build_cpsd_factorization(e)), oracles.values_extract_matrix_factorization(
        build_cpsd_factorization(e)
    )


def _scattered(family) -> np.ndarray:
    """The chain_products of a holder's coordinates scattered into a zero stack of its shape."""
    k, d = len(family.coords), family.d
    out = np.zeros((k, d * d), dtype=complex)
    out[:, _pauli_tables(d.bit_length() - 1)[0]] = chain_products(family.coords, family.scales)
    return out.reshape(family.shape)


def _same_but_the_diagonal(x, old, r: int) -> None:
    """X's dense read has the bits of the values path's X at even rank.  At odd rank it differs on
    the diagonal alone: X's c_0 is an exact zero, so each diagonal entry is +-c_Z exactly, where the
    values path rounded (c_0 + c_Z) - (c_0 - c_Z); each moves within that X's fit residual."""
    got, want = x.dense(), old.dense()
    if r % 2 == 0:
        assert got.tobytes() == want.tobytes()
        return
    off = ~np.eye(x.d, dtype=bool)
    assert got[:, off].tobytes() == want[:, off].tobytes()
    assert not x.coords[:, 0].any()
    z = np.diagonal(gamma_generators(2 * (x.d.bit_length() - 1) + 1).generators[-1]).real
    diagonal = np.diagonal(got, axis1=1, axis2=2)
    assert diagonal.tobytes() == (x.coords[:, -1:] * z + 0j).tobytes()
    moved = np.abs(diagonal - np.diagonal(want, axis1=1, axis2=2))
    assert np.all(moved <= old.fit()[2][:, None])


# ------------------------------------------------------------ the held path


@pytest.mark.parametrize("r, k", CASES)
def test_held_extraction_is_the_values_path(r, k):
    """X holds the values path's coordinates, with no scale; K, the recovered matrix and every
    outcome, note, payload and deviation are the values path's, save the involutions bound, which
    X's own fit tightens: it lies between the deviation of X's dense squares and the old bound."""
    (mf, report), (mf_old, report_old) = _pair(_points(r)[k])
    x, old = held(mf, "x_mats"), held(mf_old, "x_mats")
    assert type(x) is PauliFamily and unspent(x) and held(mf, "y_mats") is x
    assert isinstance(old, oracles.ReplayedFamily)
    assert x.coords.tobytes() == old.coords.tobytes() and x.scales == () and x.lead == old.lead
    assert mf.k.tobytes() == mf_old.k.tobytes()
    assert recover_correlation(mf).tobytes() == recover_correlation(mf_old).tobytes()
    assert unspent(x)
    assert [(c.name, c.passed, c.note, c.value) for c in report.checks] == [
        (c.name, c.passed, c.note, c.value) for c in report_old.checks
    ]
    for got, want in zip(report.checks, report_old.checks):
        if got.name != "involutions":
            assert got.deviation == want.deviation, got.name
    bound, old_bound = report.check("involutions").deviation, report_old.check("involutions").deviation
    assert float(np.max(linalg.square_deviations(mf.x_mats))) <= bound <= old_bound
    _same_but_the_diagonal(x, old, r)
    assert x.spent and mf.y_mats is mf.x_mats


@pytest.mark.parametrize("r", [8, 11, 16])
def test_chain_values_are_formed_once_and_kept(r):
    """X's dense stack is the scatter of the chain_products of its coordinates, bit for bit,
    formed on the first read and kept."""
    (mf, _), _ = _pair(_points(r)[1])
    x = held(mf, "x_mats")
    want = _scattered(x)
    assert not x.spent
    dense = x.dense()
    assert dense.tobytes() == want.tobytes() and dense.flags.c_contiguous and dense.flags.writeable
    assert x.spent and x.dense() is dense and mf.x_mats is dense


@pytest.mark.parametrize("r, k", [(8, 0), (9, 1), (12, 2), (15, 0)])
def test_held_leading_slices_form_their_own_rows(r, k):
    """A leading slice of the unspent X is a holder of those rows' coordinates, whose dense stack is
    those rows of X's own, and leaves X unspent."""
    (mf, _), (mf_old, _) = _pair(_points(r)[k])
    x, old = held(mf, "x_mats"), held(mf_old, "x_mats")
    whole = _scattered(x)
    n = x.lead[0]
    for key in (slice(None, r), slice(3, n - 2), slice(1, None, 3), slice(None, None, -2)):
        part = x[key]
        assert type(part) is PauliFamily and unspent(part)
        assert part.lead == old[key].lead and part.coords.tobytes() == old[key].coords.tobytes()
        assert part.dense().tobytes() == whole[key].tobytes()
    assert unspent(x)


@pytest.mark.parametrize("r", range(8, 18))
def test_diagonal_values_are_the_chain_products_there(r):
    """The (n, 2, 2) diagonal values of the held path are the real parts chain_products gives at
    the places (0, 0) and (1, 1), where the Z chain is +1 and -1; spread by the Z chain's parity
    they are its values at every place (a, a), and every outcome sum is an exact zero at every
    other place."""
    family = held(build_cpsd_factorization(_points(r)[2]), "mats")
    n, d = family.lead[0], family.d
    diagonal = cpsd._held_diagonal(family, n)
    assert diagonal.shape == (n, 2, 2)
    places = _pauli_tables(d.bit_length() - 1)[0]
    values = chain_products(family.coords, family.scales).reshape(n, 2, -1)
    on = np.searchsorted(places, np.arange(d) * (d + 1))
    assert diagonal.real.tobytes() == values[:, :, on[:2]].real.tobytes()
    assert diagonal[:, :, cpsd._z_parity(d)].real.tobytes() == values[:, :, on].real.tobytes()
    assert not diagonal.imag.any() and not values[:, :, on].imag.any()
    sums = values[:, 0] + values[:, 1]
    assert not np.delete(sums, on, axis=1).any()


def _hand_held(e, edit=None, scales=None):
    """The psd factors of a point held as a PauliFamily at any size, d < GATHER_MIN_DIM included:
    the builder's coordinates, edited, with given scales in place of its one scale 1/(2 sqrt(d))."""
    _, u = factored_correlation(e, unit=True)
    rows = np.empty((2 * len(u), u.shape[1]))
    rows[0::2], rows[1::2] = u, -u
    coords = chain_coordinates(rows, c0=1.0)
    d = 2 ** ((coords.shape[1] - 2) // 2)
    if edit is not None:
        edit(coords)
    if scales is None:
        scales = (1.0 / (2.0 * np.sqrt(d)),)
    return CpsdFactorization(PauliFamily(coords, d, (len(u), 2), scales))


TWO_VALUE_CASES = [(r, k, edit) for r in (4, 5, 6, 7, 8, 9, 12, 13) for k in range(3) for edit in (None, "z")]


@pytest.mark.parametrize("r, k, edit", TWO_VALUE_CASES)
def test_two_diagonal_values_give_the_d_place_route(monkeypatch, r, k, edit):
    """K and the sum deviation from two diagonal values per factor are those of the (n, 2, d)
    diagonal (oracles.held_diagonal, its size gate lowered to d = 2), bit for bit, with and
    without the mirror, at d = 4 and 8 (hand-made holders) and from d = 16 (built ones); with a Z
    part in the sums, so that K takes two values, and with two scales."""
    monkeypatch.setattr(oracles, "GATHER_MIN_DIM", 2)
    for scales in (None, (0.75, -1.25)):
        f = _hand_held(_points(r)[k], _edit_z if edit else None, scales)
        family = held(f, "mats")
        n, d = family.lead[0], family.d
        two, full = cpsd._held_diagonal(family, n), oracles.held_diagonal(family, n)
        assert two.shape == (n, 2, 2) and full.shape == (n, 2, d)
        parity = cpsd._z_parity(d)
        assert two[:, :, parity].tobytes() == full.tobytes()
        for mirror in (None, "mirror"):
            mean, dev = cpsd._outcome_sum_check(two, mirror and np.arange(2))
            want, want_dev = cpsd._outcome_sum_check(full, mirror and np.arange(d))
            assert mean[parity].tobytes() == want.tobytes() and dev == want_dev
        assert (mean[0] != mean[1]) == bool(edit)


@pytest.mark.parametrize("r", [4, 6, 7])
def test_hand_made_held_families_below_the_gather_size_extract_from_two_values(dense_path, r):
    """A held family of size d = 4 or 8 is extracted from its two diagonal values per factor: K,
    the sum check and the weight check are its dense copy's, bit for bit, and X is held."""
    e = _points(r)[1]
    mf, report = extract_matrix_factorization(_hand_held(e))
    assert not dense_path and unspent(held(mf, "x_mats"))
    mf_dense, report_dense = extract_matrix_factorization(_dense_copy(lambda: _hand_held(e)))
    assert mf.k.tobytes() == mf_dense.k.tobytes()
    assert [(c.name, c.passed) for c in report.checks] == [(c.name, c.passed) for c in report_dense.checks]
    for name in ("outcome_sums_consistent", "weight_trace_normalized", "support_dimension"):
        assert report.check(name) == report_dense.check(name), name


def test_held_sum_check_holds_no_n_by_d_array():
    """r=16 (n=136, d=256): the held sum check reads two diagonal values per factor, so its peak
    stays under one real (n, d) array; the d diagonal places of every factor took
    (n, 2, d) complex values and a chunk of their sums."""
    family = held(build_cpsd_factorization(gen_extreme_lex(16)[0]), "mats")
    n, d = family.lead[0], family.d

    def sum_check():
        work = cpsd._held_diagonal(family, n)
        return cpsd._outcome_sum_check(work, np.arange(work.shape[-1]))

    assert _traced_peak(sum_check) < n * d * 8


def test_held_extraction_at_r20_makes_no_pauli_tables():
    """r=20 (n=210, d=1024): extraction of the held family forms no chain value and no Pauli table
    (704 MB at L=10); its report and weight come from two diagonal values per factor, and X stays
    held."""
    family = build_cpsd_factorization(gen_extreme_lex(20)[0])
    info = _pauli_tables.cache_info()
    tracemalloc.start()
    try:
        mf, report = extract_matrix_factorization(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    after = _pauli_tables.cache_info()
    assert report.passed and unspent(held(mf, "x_mats"))
    assert after.hits + after.misses == info.hits + info.misses
    assert peak < 50 << 20


def test_held_extraction_budgets_its_weight(monkeypatch):
    """With no Pauli table to refuse first, the dense (d, d) weight is checked against the budget."""
    family = build_cpsd_factorization(gen_extreme_lex(20)[0])
    monkeypatch.setattr(linalg, "MEMORY_BUDGET", 8 << 20)
    with pytest.raises(MemoryBudgetError, match=r"^a weight of size 1024 would take 16 MiB, over the memory budget of 8 MiB$"):
        extract_matrix_factorization(family)


# ------------------------------------------------------------ other held families


def _family_with(coords_edit, r=9):
    """A held family of the r lex point with its coordinates edited, and a copy for the oracle."""
    family = held(build_cpsd_factorization(gen_extreme_lex(r)[0]), "mats")
    coords = family.coords.copy()
    coords_edit(coords)

    def make():
        return CpsdFactorization(PauliFamily(coords.copy(), family.d, family.lead, family.scales))

    return make


@pytest.fixture
def dense_path(monkeypatch):
    """Count the calls of the flattening of every entry of the factors."""
    calls = []
    inner = cpsd._flat_factors

    def spy(f):
        calls.append(f.n)
        return inner(f)

    monkeypatch.setattr(cpsd, "_flat_factors", spy)
    return calls


def _dense_copy(make) -> CpsdFactorization:
    return CpsdFactorization(make().mats.copy())


def _edit_x(coords):
    coords[1::2, 1] += 1e-13  # the minus factors' first X coordinate: sums nonzero off the diagonal


def _edit_z(coords):
    coords[1::2, -1] += 1e-13  # a Z part in every sum: diagonal, but K is not a multiple of I


def _edit_nan(coords):
    coords[3, 2] = np.nan


@pytest.mark.parametrize("edit, flattened", [(_edit_x, True), (_edit_z, False)])
def test_other_held_families_report_as_their_dense_copies(dense_path, edit, flattened):
    """Sums nonzero off the diagonal fail _held_diagonal, and the factors are read at every entry;
    sums with a Z part take K from the diagonal places, and a K that is not a multiple of I
    restricts the dense factors.  Either way the report, K and X are the dense copy's."""
    make = _family_with(edit)
    mf, report = extract_matrix_factorization(make())
    assert bool(dense_path) == flattened
    mf_old, report_old = extract_matrix_factorization(_dense_copy(make))
    assert _text(report) == _text(report_old) and mf.k.tobytes() == mf_old.k.tobytes()
    assert type(held(mf, "x_mats")) is np.ndarray and type(held(mf_old, "x_mats")) is np.ndarray
    assert mf.x_mats.tobytes() == mf_old.x_mats.tobytes()


def test_a_nan_coordinate_takes_the_dense_path(dense_path):
    make = _family_with(_edit_nan)
    with pytest.raises(InconsistentSumsError) as got:
        extract_matrix_factorization(make())
    assert dense_path
    with pytest.raises(InconsistentSumsError) as want:
        extract_matrix_factorization(_dense_copy(make))
    assert str(got.value) == str(want.value)


def test_dense_and_small_families_take_the_dense_path(dense_path):
    for e in (gen_extreme_lex(7)[0], gen_extreme_lex(9)[0]):
        family = build_cpsd_factorization(e)
        dense = CpsdFactorization(build_cpsd_factorization(e).mats.copy())
        for f in (family, dense):
            dense_path.clear()
            extract_matrix_factorization(f)
            assert dense_path == ([] if f is family and f.dim >= 16 else [f.n])


# ------------------------------------------------------------ dense families


def _outcome(reader, *args):
    """What a reader of a cpsd family gives: its report's JSON, with extraction's K and X bytes,
    or its error."""
    try:
        out = reader(*args)
    except NumericalContractError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):
        mf, report = out
        return _text(report), mf.k.tobytes(), mf.x_mats.tobytes(), mf.y_mats is mf.x_mats
    return json.dumps(report_json("cpsd verify", out, DEFAULT_TOL, None))


def _same_as_chain_support_readers(e, mats):
    """Verification and extraction of a dense family, each on a copy of its own, give the bytes
    of the chain-support readers."""
    witness = build_pc(e)
    for reader, oracle, args in (
        (verify_cpsd_factorization, oracles.values_verify_cpsd_factorization, (witness,)),
        (extract_matrix_factorization, oracles.values_extract_matrix_factorization, ()),
    ):
        got = _outcome(reader, *args, CpsdFactorization(mats.copy()))
        assert got == _outcome(oracle, *args, CpsdFactorization(mats.copy())), reader.__name__


@pytest.mark.parametrize("r", [8, 9, 10, 12, 13])
def test_dense_families_on_the_support_read_as_the_chain_support_readers(r):
    for e in _points(r):
        mats = build_cpsd_factorization(e).mats.copy()
        assert oracles.chain_values(mats) is not None
        _same_as_chain_support_readers(e, mats)


@pytest.mark.parametrize("value", [-0.0, 1e-6])
@pytest.mark.parametrize("r", [8, 10])
def test_dense_families_off_the_support_read_as_the_chain_support_readers(r, value):
    e = _points(r)[1]
    mats = build_cpsd_factorization(e).mats.copy()
    d = mats.shape[-1]
    off = np.delete(np.arange(d * d), _pauli_tables(d.bit_length() - 1)[0])[d + 1]
    mats[2, 1].reshape(-1)[off] = value
    assert oracles.chain_values(mats) is None
    _same_as_chain_support_readers(e, mats)


@pytest.mark.parametrize("r", [8, 9])
def test_a_dense_family_holding_a_nan_reads_as_the_chain_support_readers(r):
    e = _points(r)[2]
    mats = build_cpsd_factorization(e).mats.copy()
    mats[3, 0, 1, 1] = np.nan
    _same_as_chain_support_readers(e, mats)


@pytest.mark.parametrize("r", range(8, 14))
def test_dense_recovery_and_evaluation_are_within_1e14_of_the_chain_support_gemms(r):
    """Dense families on the chain support: the full GEMMs against the GEMMs over their chain values."""
    e = _points(r)[1]
    h = e.shape[0] // 2
    mf = to_form_c(factorize_clifford(e, h))
    extracted, _ = extract_matrix_factorization(build_cpsd_factorization(e))
    for fact in (mf, extracted):
        dense = MatrixFactorization(fact.x_mats.copy(), fact.y_mats.copy(), fact.k)
        assert oracles.chain_values(dense.x_mats) is not None
        assert np.max(np.abs(recover_correlation(dense) - oracles.values_recover_correlation(dense))) <= 1e-14
    rep = build_tensor_rep(*_bipartite(e))
    dense = TensorProductRep(rep.alice_obs.copy(), rep.bob_obs.copy(), psi=rep.psi)
    want = oracles.values_eval_correlations(dense)
    assert want is not None and np.max(np.abs(eval_correlations(dense) - want)) <= 1e-14


# ------------------------------------------------------------ one chunk temporary


def _hand_family(d, complex_entries, shape, seed):
    """Five factor pairs (D/2 + A_i, D/2 - A_i) / ||w||, D = diag(w), A_i Hermitian: K = D/||w||
    lies out of descending order ("unsorted"), has zeros the support restriction strips
    ("restricted"), or is rotated by a random unitary, so that it is not diagonal ("rotated")."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, d)
    if shape == "restricted":
        w[rng.choice(d, d // 4, replace=False)] = 0.0
    a = rng.standard_normal((5, d, d)) + (1j * rng.standard_normal((5, d, d)) if complex_entries else 0.0)
    a = (a + a.conj().transpose(0, 2, 1)) / 200.0 * (np.outer(w, w) > 0.0)
    half = np.diag(w / 2.0).astype(a.dtype)
    mats = np.stack([half + a, half - a], axis=1)
    if shape == "rotated":
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if complex_entries else 0.0))
        mats = q @ mats @ q.conj().T
    return mats / np.linalg.norm(w)


def _families(r):
    """Dense copies of the built psd factors of rank r, complex and real-valued."""
    for e in _points(r):
        mats = build_cpsd_factorization(e).mats
        yield e, mats.copy()
        yield e, mats.real.copy()


@pytest.mark.parametrize("r", [2, 5, 8, 9, 10, 12])
def test_built_families_extract_as_with_chunk_temporaries(monkeypatch, r):
    """X accumulated in place and K subtracted in place give the report, K and X of the X pass that
    formed each chunk in temporaries of its own, for complex and real-valued factors alike; the
    verifier's outcome sums give the report of the sum check with temporaries."""
    for e, mats in _families(r):
        got = _outcome(extract_matrix_factorization, CpsdFactorization(mats.copy()))
        assert got == _outcome(oracles.temporaries_extract_matrix_factorization, CpsdFactorization(mats.copy()))
        witness = build_pc(e)
        got = _outcome(verify_cpsd_factorization, witness, CpsdFactorization(mats))
        with monkeypatch.context() as m:
            m.setattr(cpsd, "_outcome_sum_check", oracles.temporaries_outcome_sum_check)
            assert got == _outcome(verify_cpsd_factorization, witness, CpsdFactorization(mats))


@pytest.mark.parametrize("shape", ["unsorted", "restricted", "rotated"])
@pytest.mark.parametrize("complex_entries", [True, False])
@pytest.mark.parametrize("d", [4, 8, 16, 32])
def test_hand_made_families_extract_as_with_chunk_temporaries(d, complex_entries, shape):
    """Gathered, restricted and multiplied-in bases, below and above GATHER_MIN_DIM."""
    mats = _hand_family(d, complex_entries, shape, seed=d + 2 * complex_entries + len(shape))
    got = _outcome(extract_matrix_factorization, CpsdFactorization(mats))
    assert got == _outcome(oracles.temporaries_extract_matrix_factorization, CpsdFactorization(mats))
    work = mats.reshape(5, 2, d * d)
    for mirror in (None, cpsd._transposed(np.arange(d * d), d)):
        mean_sum, dev = cpsd._outcome_sum_check(work, mirror)
        mean_old, dev_old = oracles.temporaries_outcome_sum_check(work, mirror)
        assert mean_sum.tobytes() == mean_old.tobytes() and dev == dev_old


@pytest.mark.parametrize("chunk_bytes", [1, 5000, 3 * 16 * 16 * 16 + 7])
def test_chunk_temporaries_across_chunk_borders(monkeypatch, chunk_bytes):
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    for _, mats in _families(9):
        got = _outcome(extract_matrix_factorization, CpsdFactorization(mats.copy()))
        assert got == _outcome(oracles.temporaries_extract_matrix_factorization, CpsdFactorization(mats.copy()))


def _traced_peak(fn, *args) -> int:
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_outcome_sum_check_holds_one_chunk_and_its_magnitudes():
    """r=10 (one chunk holds all 55 factor pairs): both passes form their sums in one buffer, and
    the deviation adds the sums' magnitudes, half a chunk; a new array per step took twice that."""
    f = CpsdFactorization(build_cpsd_factorization(gen_extreme_lex(10)[0]).mats.copy())
    work = cpsd._flat_factors(f)
    rows = linalg.chunks(f.n, work[0:1, 0].nbytes)[0]
    chunk = (rows.stop - rows.start) * work[0:1, 0].nbytes
    buffers = 3 * np.getbufsize() * 16
    assert _traced_peak(cpsd._outcome_sum_check, work, None) <= 1.5 * chunk + buffers
    assert _traced_peak(oracles.temporaries_outcome_sum_check, work, None) > 3 * chunk


def test_extraction_from_files_holds_x_and_one_chunk(tmp_path):
    """The r=10 lex family read from files (one chunk holds all 55 factor pairs): extraction peaks
    at X and one chunk-sized temporary, besides numpy's iteration buffers for strided operands
    (np.getbufsize() items each); forming each chunk in temporaries of its own took a chunk more."""
    matio.save_cpsd_factorization(tmp_path, build_cpsd_factorization(gen_extreme_lex(10)[0]))
    f = matio.load_cpsd_factorization(tmp_path)
    rows = linalg.chunks(f.n, f.mats[0:1, 0].nbytes)[0]
    chunk = (rows.stop - rows.start) * f.mats[0:1, 0].nbytes
    buffers = 3 * np.getbufsize() * 16
    mf, report = extract_matrix_factorization(f)
    assert report.passed
    assert _traced_peak(extract_matrix_factorization, f) <= mf.x_mats.nbytes + chunk + buffers
    assert _traced_peak(oracles.temporaries_extract_matrix_factorization, f) > mf.x_mats.nbytes + 2 * chunk


# ------------------------------------------------------------ satellites


@pytest.mark.parametrize("r", range(1, 15))
def test_witness_is_the_kron_sum(r):
    for e in (gen_extreme_lex(r)[0], *(_points(r)[1:] if r >= 2 else ())):
        a = linalg.as_matrix(e)
        plus, minus = (1.0 + a) / 4.0, (1.0 - a) / 4.0
        hi = np.maximum(plus, minus)
        lo = 0.5 - hi
        want = np.kron(np.where(a >= 0.0, hi, lo), np.eye(2)) + np.kron(np.where(a >= 0.0, lo, hi), [[0.0, 1.0], [1.0, 0.0]])
        got = build_pc(e)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_witness_refuses_a_non_psd_matrix():
    e = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    with pytest.raises(NotPsdError, match=r"^matrix has eigenvalue -8\.000e-01$"):
        build_pc(e)


def _same_schmidt(a, b) -> bool:
    pairs = zip((a.coefficients, a.left_vectors, a.right_vectors), (b.coefficients, b.left_vectors, b.right_vectors))
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in pairs)


@pytest.mark.parametrize("d", [2, 3, 7, 16, 25, 26, 64, 100, 299, 512])
def test_schmidt_phases_are_the_loop_on_maximally_entangled_states(d):
    psi = maximally_entangled(d)
    for state in (psi, psi * np.exp(0.7j), -psi):
        assert _same_schmidt(schmidt(state, d), oracles.schmidt_loop(state, d))


def test_schmidt_phases_are_the_loop_on_random_states():
    rng = np.random.default_rng(17)
    for t in range(300):
        d = int(rng.integers(1, 12))
        psi = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        if t % 3 == 0:
            psi = psi.real.astype(complex)
        if t % 5 == 0:  # rank at most 2, so some rows are dropped
            psi = ((rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))) @ rng.standard_normal((2, d))).ravel()
        psi /= np.linalg.norm(psi)
        assert _same_schmidt(schmidt(psi, d), oracles.schmidt_loop(psi, d)), t


@pytest.mark.parametrize("r", [16, 18])
def test_eval_correlations_reads_the_state_without_a_copy(r):
    """W = c I is found on a view of psi: the closed form takes a small fraction of the state."""
    block, system = _bipartite(gen_extreme_lex(r)[0])
    rep = build_tensor_rep(block, system)
    before = rep.psi.copy()
    eval_correlations(rep)
    tracemalloc.start()
    try:
        got = eval_correlations(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(got - block)) < 1e-14 and peak < rep.psi.nbytes // 4
    assert rep.psi.flags.writeable and rep.psi.tobytes() == before.tobytes()


@pytest.mark.parametrize("r", [2, 3, 5, 8, 9])
def test_signed_chains_take_no_hermitian_pass(monkeypatch, r):
    gens = gamma_generators(r).generators
    want = oracles.dense_verify_clifford_relations(gens)
    monkeypatch.setattr("corrfact.clifford.hermitian_deviations", None)
    got = verify_clifford_relations(gens)
    assert got == want


def test_the_first_non_hermitian_generator_still_raises():
    gens = gamma_generators(6).generators.copy()
    gens[2, 0, 1] += 1e-6
    gens[4, 1, 0] += 1e-3
    with pytest.raises(NotHermitianError, match=r"^generator 3 deviates from Hermitian by 1\.000e-06$"):
        verify_clifford_relations(gens)
