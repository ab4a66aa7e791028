"""Built Clifford families held as their Pauli coordinates (clifford.PauliFamily).

From d = GATHER_MIN_DIM on, every builder keeps the Pauli coordinates of its
family, and the dense stack is built on the first read of the public
attribute, with the bits the builders have always made.  The verifiers
decide a held family from its coordinates and the rounding bound of
PauliFamily.fit: every report agrees with its dense copy's in every outcome,
and every bound holds for the dense values.  Once read, the dense stack is
what every later check sees.  The memory budget (linalg.require_budget)
refuses an allocation before it is made.
"""

import dataclasses
import hashlib
import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from corrfact import cli, clifford, cpsd, linalg, matio
from corrfact.clifford import PauliFamily, held
from corrfact.cpsd import CpsdFactorization, build_cpsd_factorization, extract_matrix_factorization, verify_cpsd_factorization
from corrfact.elliptope import gen_extreme_lex, gram_factors
from corrfact.errors import MemoryBudgetError
from corrfact.factorization import (
    FormBFactorization,
    MatrixFactorization,
    factorize_clifford,
    recover_correlation,
    to_form_c,
    verify_clifford_identity,
    verify_factorization,
)
from corrfact.quantum import TensorProductRep, build_tensor_rep, eval_correlations, reduce_rank_one_rep

from test_pauli import _same_exactly
from test_support import _bipartite, _points

RANKS = [8, 10, 12, 14]
CASES = [(r, k) for r in RANKS for k in range(3)]
# with CASES, every rank from 8 to 16 at the lex point and two random points
MORE_CASES = [(r, k) for r in (9, 11, 13, 15, 16) for k in range(3)]


def _point(r, k):
    return _points(r)[k]


def _measured_residual(coords, dense):
    """||M - M'||_F and max|M - M'| for each matrix of a dense stack, M' = c_0 I + G(c) rebuilt
    in extended precision; every entry off the chain support must be +-0.0."""
    k, d = len(coords), dense.shape[-1]
    pos, table = clifford._pauli_tables(d.bit_length() - 1)
    flat = dense.reshape(k, d * d)
    assert not np.delete(flat, pos, axis=1).any()
    c = coords.astype(np.longdouble)
    vals = flat[:, pos]
    diff_re = vals.real.astype(np.longdouble) - c @ table.real.astype(np.longdouble)
    diff_im = vals.imag.astype(np.longdouble) - c @ table.imag.astype(np.longdouble)
    squares = diff_re**2 + diff_im**2
    return np.sqrt(squares.sum(axis=1)), np.sqrt(squares.max(axis=1))


def _holds_its_values(family):
    """An unspent holder's chain values, chain_products of its coordinates and scales, are its dense
    stack's entries at the places of clifford._pauli_tables, bit for bit, with +0.0 at every other
    entry, and its fit bounds how far those values lie from its coordinates."""
    assert isinstance(family, PauliFamily) and not family.spent
    coords, delta, resid = family.fit()
    values = clifford.chain_products(family.coords, family.scales)
    dense = family.dense()
    assert family.spent and dense.flags.c_contiguous and dense.dtype == complex
    d = dense.shape[-1]
    pos = clifford._pauli_tables(d.bit_length() - 1)[0]
    flat = dense.reshape(-1, d * d)
    assert flat[:, pos].tobytes() == values.tobytes()
    assert not np.ascontiguousarray(np.delete(flat, pos, axis=1)).view(np.int64).any()
    frob, top = _measured_residual(coords, dense)
    assert np.all(frob <= delta) and np.all(top <= resid)
    assert np.all(delta > 0.0) and np.all(resid > 0.0)


def _same_array(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_outcome(held_report, dense_report):
    """Reports with the same checks, outcomes and payloads, whose deviations differ in the last bits alone."""
    assert [(c.name, c.passed, c.value) for c in held_report.checks] == [
        (c.name, c.passed, c.value) for c in dense_report.checks
    ]
    for got, want in zip(held_report.checks, dense_report.checks):
        assert abs(got.deviation - want.deviation) <= 1e-12, got.name


def _same_checks(report, other, names):
    """The named checks of two reports, deviations bit for bit."""
    for name in names:
        got, want = report.check(name), other.check(name)
        assert (got.passed, got.note, np.float64(got.deviation).tobytes()) == (
            want.passed, want.note, np.float64(want.deviation).tobytes()
        ), (name, got.deviation, want.deviation)


def _bounds(bound_report, exact_report):
    """Each deviation of a report taken from bounds is at least the deviation the dense products
    find, up to those products' own rounding (1e-14, the entries being at most 1)."""
    for bound, exact in zip(bound_report.checks, exact_report.checks):
        assert bound.name == exact.name and bound.deviation + 1e-14 >= exact.deviation, bound.name


# ------------------------------------------------------------ the carried values


@pytest.mark.parametrize("r, k", CASES)
def test_carried_values_are_the_dense_support_values(r, k):
    e = _point(r, k)
    h = e.shape[0] // 2
    fb = factorize_clifford(e, h)
    mf = to_form_c(factorize_clifford(e, h))
    family = build_cpsd_factorization(e)
    extracted, _ = extract_matrix_factorization(build_cpsd_factorization(e))
    rep = build_tensor_rep(*_bipartite(e))
    reduced = reduce_rank_one_rep(build_tensor_rep(*_bipartite(e)))
    holders = [
        held(fb, "a_mats"),
        held(fb, "b_mats"),
        held(mf, "x_mats"),
        held(mf, "y_mats"),
        held(family, "mats"),
        held(extracted, "x_mats"),
        held(rep, "alice_obs"),
        held(rep, "bob_obs"),
        held(reduced, "alice_obs"),
        held(reduced, "bob_obs"),
    ]
    for holder in holders:
        _holds_its_values(holder)


PARENT_HASHES = {
    # sha256 prefixes of the dense reads fb.a_mats, fb.b_mats, mf.x_mats, mf.y_mats, cpsd mats
    # and extracted x_mats, built from the lex vectors as given factors (no eigensolver), as the
    # families kept as their chain-support values wrote them; the r=13 extracted X, held by its own
    # coordinates, has the diagonal entries +-c_Z where the factors' values gave
    # (c_0 + c_Z) - (c_0 - c_Z) (7f80c1b0ef1bf357 before)
    8: ("2e0b5a9975f5f8cd", "94b79ec5c8e58b33", "b02f36f52b47a47e", "928349bd3516086c", "82c1aba218dc8f4f", "368985724e354af5"),
    9: ("ee9f3e11991ce772", "db39f31705aefe36", "c451926f77ad8a49", "f13660d255826b13", "a8026c89f7432a1a", "af67654663151ccc"),
    12: ("221e422b19d42b9a", "70db5345cb7eaf46", "fcbf1028a045f331", "1b21a14c5b4909b3", "7273913c67b17bee", "04e0761e780c6a34"),
    13: ("c799c46688a793ac", "fd9ffaf0afb446a3", "a2e6676991aaea50", "3361614c2224fc64", "94980f34ed355f8d", "2753ccf436344c30"),
}


@pytest.mark.parametrize("r", sorted(PARENT_HASHES))
def test_dense_reads_keep_the_bits_of_the_chain_value_holders(r):
    e, vectors = gen_extreme_lex(r)
    h = e.shape[0] // 2
    fb = factorize_clifford(e, h, factors=vectors)
    mf = to_form_c(factorize_clifford(e, h, factors=vectors))
    extracted, _ = extract_matrix_factorization(build_cpsd_factorization(e, factors=vectors))
    reads = (fb.a_mats, fb.b_mats, mf.x_mats, mf.y_mats, build_cpsd_factorization(e, factors=vectors).mats, extracted.x_mats)
    got = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16] for a in reads)
    assert got == PARENT_HASHES[r]


@pytest.mark.parametrize("r", range(1, 8))
def test_small_families_are_plain_arrays(r):
    """Below GATHER_MIN_DIM (d <= 8) every builder gives an ndarray, as before."""
    e = _point(r, 0)
    fb = factorize_clifford(e)
    mf = to_form_c(fb)
    extracted, _ = extract_matrix_factorization(build_cpsd_factorization(e))
    rep = build_tensor_rep(*_bipartite(e))
    fields = [(fb, "a_mats"), (fb, "b_mats"), (mf, "x_mats"), (mf, "y_mats"), (extracted, "x_mats")]
    fields += [(build_cpsd_factorization(e), "mats"), (rep, "alice_obs"), (rep, "bob_obs")]
    fields += [(reduce_rank_one_rep(rep), "alice_obs")]
    for obj, name in fields:
        assert type(held(obj, name)) is np.ndarray, (type(obj).__name__, name)


def test_dense_stack_is_built_once_and_kept():
    family = build_cpsd_factorization(gen_extreme_lex(8)[0])
    first = family.mats
    assert family.mats is first and first.flags.writeable and first.shape == (36, 2, 16, 16)
    assert held(family, "mats").spent


# ------------------------------------------------------------ the fit in exact arithmetic

REGIMES = {
    # binary exponents of the coordinates and of the scales
    "subnormal": ((-1074, -1022), (-4, 4)),
    "spread": ((-1063, -963), (-4, 4)),  # 1e-320 .. 1e-290: the squared norm underflows
    "wide": ((-1074, 400), (-40, 40)),
}


def _draw_coordinates(rng, ell, k, exponents):
    """k rows of 2L+2 coordinates, each +-m 2^e with m in [1, 2) and e uniform over `exponents`,
    one in ten a signed zero."""
    shape = (k, 2 * ell + 2)
    mantissas = rng.uniform(1.0, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
    coords = np.ldexp(mantissas, rng.integers(exponents[0], exponents[1] + 1, shape))
    zeros = rng.random(shape) < 0.1
    coords[zeros] = np.copysign(0.0, mantissas[zeros])
    return coords


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("ell", range(1, 6))
def test_the_fit_bounds_the_values_in_exact_arithmetic(ell, regime):
    """d = 2..32, with 0, 1 and 2 scales: each value chain_products forms lies within the fit's
    bounds of the matrix the scaled coordinates describe, checked in fractions.Fraction, for
    subnormal coordinates and for squared norms that underflow alike."""
    exponents, scale_exponents = REGIMES[regime]
    rng = np.random.default_rng([ell, len(regime)])
    for count in range(3):
        coords = _draw_coordinates(rng, ell, 60, exponents)
        signs = rng.choice([-1.0, 1.0], count)
        scales = tuple(np.ldexp(rng.uniform(0.5, 2.0, count) * signs, rng.integers(*scale_exponents, count)).tolist())
        scaled, delta, resid = PauliFamily(coords, 2**ell, (len(coords),), scales).fit()
        assert np.isfinite(delta).all() and np.isfinite(resid).all()
        values = clifford.chain_products(coords, scales)
        for (frobenius, largest), bound, top in zip(oracles.exact_chain_residuals(scaled, values), delta, resid):
            assert frobenius <= Fraction(bound) ** 2 and largest <= Fraction(top) ** 2, (count, scales)


@pytest.mark.parametrize("ell", range(1, 4))
def test_the_gram_slack_bounds_the_values_in_exact_arithmetic(ell):
    """d = 2..8, coordinates over 1e-320 .. 1e-290, 30 rows a draw: each Gram entry Tr(V_p V_q^*)
    of the chain values lies within pauli_gram's slack of d c_p . c_q, checked in
    fractions.Fraction.  There the products and squared norms underflow, and the slack without its
    underflow terms (oracles.unfloored_pauli_gram) is zero."""
    d = 2**ell
    rng = np.random.default_rng([ell, 25])
    for _ in range(3):
        coords = _draw_coordinates(rng, ell, 30, REGIMES["spread"][0])
        scaled, delta, _ = PauliFamily(coords, d, (len(coords),)).fit()
        gram, slack = clifford.pauli_gram(scaled, delta, d)
        exact = oracles.exact_gram(clifford.chain_products(coords))
        for p, row in enumerate(exact):
            for q, (re, im) in enumerate(row):
                miss = re - Fraction(gram[p, q])
                assert miss * miss + im * im <= Fraction(slack[p, q]) ** 2, (p, q)
        assert not oracles.unfloored_pauli_gram(scaled, delta, d)[1].any()


@pytest.mark.parametrize("regime", ["normal", "wide"])
def test_the_gram_slack_keeps_its_bits_at_normal_scales(regime):
    """Between rows whose squared norms lie above the least normal over the unit roundoff, and
    whose norms lie above its square root, the Gram matrix and its slack are those without the
    underflow terms, bit for bit."""
    exponents = (-40, 40) if regime == "normal" else REGIMES["wide"][0]
    rng = np.random.default_rng(len(regime))
    kept = 0
    for ell in range(1, 7):
        for _ in range(5):
            coords = _draw_coordinates(rng, ell, 20, exponents)
            scaled, delta, _ = PauliFamily(coords, 2**ell, (len(coords),), (0.25,)).fit()
            gram, slack = clifford.pauli_gram(scaled, delta, 2**ell)
            old_gram, old_slack = oracles.unfloored_pauli_gram(scaled, delta, 2**ell)
            assert gram.tobytes() == old_gram.tobytes()
            least = np.finfo(float).tiny / clifford.UNIT_ROUNDOFF
            squares = np.add.reduce(scaled * scaled, axis=1)
            norms = np.sqrt(2**ell) * np.sqrt(squares)
            rows = (squares >= least) & (norms >= np.sqrt(least))
            normal = np.outer(rows, rows)
            assert slack[normal].tobytes() == old_slack[normal].tobytes()
            kept += normal.all()
    # every pair of every draw at normal scales; some draws of the wide regime reach below
    assert kept == 30 if regime == "normal" else kept < 30


@pytest.mark.parametrize("value", [1e200, np.inf, np.nan])
def test_a_non_finite_bound_leaves_the_report_to_the_dense_path(value):
    """A coordinate whose square overflows, or that is not finite, gives a bound that proves
    nothing: its check fails, and the verifier reports as the family's dense copy does."""
    e = gen_extreme_lex(8)[0]
    family = held(build_cpsd_factorization(e), "mats")
    coords = family.coords.copy()
    coords[3, 1] = value

    def make():
        return CpsdFactorization(PauliFamily(coords.copy(), family.d, family.lead, family.scales))

    with np.errstate(all="ignore"):
        assert not np.isfinite(held(make(), "mats").fit()[1][3])
        witness = cpsd.build_pc(e)
        report = verify_cpsd_factorization(witness, make())
        assert not report.passed
        _same_exactly(report, verify_cpsd_factorization(witness, CpsdFactorization(make().mats.copy())))


# ------------------------------------------------------------ reports and arrays


def _reports_agree_with_dense_copies(e):
    n = e.shape[0]
    h = n // 2
    doubled = np.block([[e, e], [e, e]])

    fb = factorize_clifford(e, h)
    fb_copy = factorize_clifford(e, h)
    fb_dense = FormBFactorization(fb_copy.a_mats.copy(), fb_copy.b_mats.copy())
    report = verify_factorization(e, fb, mode="b-form")
    _same_outcome(report, verify_factorization(e, fb_dense, mode="b-form"))
    _bounds(report, oracles.dense_verify_factorization(e, fb_dense, mode="b-form"))
    mf, mf_dense = to_form_c(fb), to_form_c(fb_dense)
    assert isinstance(held(mf, "x_mats"), PauliFamily)
    assert np.max(np.abs(recover_correlation(mf) - recover_correlation(mf_dense))) < 1e-14
    for mode in ("i", "i-prime"):
        report = verify_factorization(e, mf, mode=mode)
        _same_outcome(report, verify_factorization(e, mf_dense, mode=mode))
        _bounds(report, oracles.dense_verify_factorization(e, mf_dense, mode=mode))
    r = held(mf, "x_mats").coords.shape[1] - 2
    block = e[:r, :r] if r <= h else e[:h, :h]
    k = block.shape[0]
    report = verify_clifford_identity(block, held(mf, "x_mats")[:k], trials=20, seed=k)
    _same_outcome(report, verify_clifford_identity(block, mf_dense.x_mats[:k], trials=20, seed=k))
    _bounds(report, oracles.dense_verify_clifford_identity(block, mf_dense.x_mats[:k], trials=20, seed=k))

    family = build_cpsd_factorization(e)
    dense = CpsdFactorization(build_cpsd_factorization(e).mats.copy())
    witness = cpsd.build_pc(e)
    report = verify_cpsd_factorization(witness, family)
    report_dense = verify_cpsd_factorization(witness, dense)
    _same_outcome(report, report_dense)
    # the outcome sums and Tr(K^2) are the dense copy's, bit for bit; the Pauli bounds are those
    # the verifier took beside its hand-derived sum bounds
    _same_checks(report, report_dense, ("outcome_sums_consistent", "sum_trace_normalized"))
    bounds = oracles.bounds_verify_cpsd_factorization(witness, build_cpsd_factorization(e))
    _same_checks(report, bounds, ("factors_hermitian", "factors_psd", "entry_reconstruction"))
    exact = oracles.dense_verify_cpsd_factorization(witness, dense)
    _bounds(report, exact)
    assert float(report.check("factors_psd").note.split()[-1]) <= float(exact.check("factors_psd").note.split()[-1])
    (x, report), (x_dense, report_dense) = extract_matrix_factorization(family), extract_matrix_factorization(dense)
    _same_outcome(report, report_dense)
    assert report.check("involutions").deviation >= float(np.max(linalg.square_deviations(x_dense.x_mats)))
    assert np.max(np.abs(recover_correlation(x) - recover_correlation(x_dense))) < 1e-14
    _same_outcome(verify_factorization(doubled, x), verify_factorization(doubled, x_dense))

    rep = build_tensor_rep(*_bipartite(e))
    rep_copy = build_tensor_rep(*_bipartite(e))
    rep_dense = TensorProductRep(rep_copy.alice_obs.copy(), rep_copy.bob_obs.copy(), psi=rep_copy.psi)
    assert np.max(np.abs(eval_correlations(rep) - eval_correlations(rep_dense))) < 1e-14
    reduced, reduced_dense = reduce_rank_one_rep(rep), reduce_rank_one_rep(rep_dense)
    assert np.max(np.abs(eval_correlations(reduced) - eval_correlations(reduced_dense))) < 1e-14

    # no held family was read: every report above came from coordinates
    for obj, name in ((fb, "a_mats"), (mf, "x_mats"), (family, "mats"), (x, "x_mats"), (rep, "alice_obs")):
        assert not held(obj, name).spent, name
    # the dense stacks, read last, are the dense copies' arrays
    pairs = [(fb.a_mats, fb_dense.a_mats), (fb.b_mats, fb_dense.b_mats), (mf.x_mats, mf_dense.x_mats)]
    pairs += [(mf.y_mats, mf_dense.y_mats), (mf.k, mf_dense.k), (family.mats, dense.mats)]
    pairs += [(x.k, x_dense.k), (rep.alice_obs, rep_dense.alice_obs)]
    pairs += [(rep.bob_obs, rep_dense.bob_obs), (reduced.alice_obs, reduced_dense.alice_obs)]
    pairs += [(reduced.bob_obs, reduced_dense.bob_obs), (reduced.psi, reduced_dense.psi)]
    for got, want in pairs:
        _same_array(got, want)
    # the extracted X, held by its own coordinates, is the dense path's X save for the diagonal at
    # odd rank, where its c_0 is an exact zero and the dense path rounds (c_0 + c_Z) - (c_0 - c_Z):
    # each diagonal entry moves within the fit residual of the X whose values replayed that
    if held(family, "mats").coords[:, -1].any():
        off = ~np.eye(x.k.shape[0], dtype=bool)
        _same_array(x.x_mats[:, off], x_dense.x_mats[:, off])
        moved = np.abs(np.diagonal(x.x_mats, axis1=1, axis2=2) - np.diagonal(x_dense.x_mats, axis1=1, axis2=2))
        replayed = held(oracles.values_extract_matrix_factorization(build_cpsd_factorization(e))[0], "x_mats")
        assert np.all(moved <= replayed.fit()[2][:, None])
    else:
        _same_array(x.x_mats, x_dense.x_mats)


@pytest.mark.parametrize("r, k", CASES)
def test_reports_and_arrays_equal_the_dense_copies(r, k):
    """Every report of a held family has the outcomes of its dense copy's, each deviation a bound
    on the dense one; recovered and evaluated entries move in the last bits alone."""
    _reports_agree_with_dense_copies(_point(r, k))


@pytest.mark.parametrize("r, k", MORE_CASES)
def test_reports_agree_with_the_dense_copies_at_odd_rank_and_r16(r, k):
    _reports_agree_with_dense_copies(_point(r, k))


@pytest.mark.parametrize("r", [8, 12])
def test_eval_on_the_chain_values_is_within_1e14_of_the_dense_gemm(r):
    rep = build_tensor_rep(*_bipartite(_point(r, 1)))
    got = eval_correlations(rep)
    d = rep.local_dim
    z = rep.alice_obs / d  # W = I / sqrt(d): W^* M W = M / d
    want = (z.reshape(-1, d * d) @ rep.bob_obs.reshape(-1, d * d).T).real
    assert np.max(np.abs(got - want)) < 1e-14


# ------------------------------------------------------------ spent holders


@pytest.mark.parametrize("r", [8, 12])
def test_an_edit_through_the_dense_stack_is_seen_by_the_verifiers(r):
    e = _point(r, 2)
    witness = cpsd.build_pc(e)
    d = 2 ** (r // 2)
    off = np.delete(np.arange(d * d), clifford._pauli_tables(d.bit_length() - 1)[0])[0]
    for place in (0, off):
        family = build_cpsd_factorization(e)
        family.mats[0, 0].reshape(-1)[place] += 1e-6
        report = verify_cpsd_factorization(witness, family)
        assert not report.passed
        _same_exactly(report, verify_cpsd_factorization(witness, CpsdFactorization(family.mats.copy())))

    mf = to_form_c(factorize_clifford(e))
    mf.x_mats[1].reshape(-1)[off] += 1e-6
    report = verify_factorization(e, mf)
    assert not report.passed
    _same_exactly(report, verify_factorization(e, MatrixFactorization(mf.x_mats.copy(), mf.y_mats.copy(), mf.k)))

    rep = build_tensor_rep(*_bipartite(e))
    before = eval_correlations(rep)
    rep.alice_obs[0] *= -1.0  # which also writes -0.0 off the chain support
    after = eval_correlations(rep)
    _same_array(after, eval_correlations(TensorProductRep(rep.alice_obs.copy(), rep.bob_obs.copy(), psi=rep.psi)))
    assert np.max(np.abs(after[0] + before[0])) < 1e-14 and np.max(np.abs(after[1:] - before[1:])) < 1e-14


@pytest.mark.parametrize("r", [8, 12])
def test_extraction_serves_x_and_y_from_one_holder(r):
    mf, report = extract_matrix_factorization(build_cpsd_factorization(_point(r, 0)))
    assert report.passed
    assert held(mf, "x_mats") is held(mf, "y_mats") and not held(mf, "x_mats").spent
    assert mf.x_mats is mf.y_mats
    assert mf.x_mats is mf.y_mats and held(mf, "x_mats").spent


def test_reduction_view_shares_the_holder_and_reads_read_only():
    rep = build_tensor_rep(*_bipartite(gen_extreme_lex(10)[0]))
    reduced = reduce_rank_one_rep(rep)
    view = held(reduced, "alice_obs")
    assert isinstance(view, PauliFamily) and view.coords is held(rep, "alice_obs").coords
    assert not reduced.alice_obs.flags.writeable and np.shares_memory(reduced.alice_obs, rep.alice_obs)
    assert view.spent and held(rep, "alice_obs").spent
    again = reduce_rank_one_rep(rep)  # a spent holder takes the dense path: a read-only view as well
    assert type(held(again, "alice_obs")) is np.ndarray and not again.alice_obs.flags.writeable


def test_constructors_and_replace_keep_working():
    e = gen_extreme_lex(8)[0]
    mf = to_form_c(factorize_clifford(e))
    by_name = MatrixFactorization(x_mats=mf.x_mats, y_mats=mf.y_mats, k=mf.k)
    assert by_name.x_mats is mf.x_mats and by_name.sizes == mf.sizes == (36, 0)
    swapped = dataclasses.replace(mf, y_mats=mf.x_mats)
    assert swapped.y_mats is mf.x_mats and swapped.k is mf.k
    assert [f.name for f in dataclasses.fields(MatrixFactorization)] == ["x_mats", "y_mats", "k"]
    family = build_cpsd_factorization(e)
    assert CpsdFactorization(family.mats).mats is family.mats
    with pytest.raises(TypeError):
        CpsdFactorization()


# ------------------------------------------------------------ leading slices


@pytest.mark.parametrize("r", [8, 12])
def test_identity_check_on_a_held_slice_builds_no_dense_stack(monkeypatch, r):
    e = gen_extreme_lex(r)[0]
    mf = to_form_c(factorize_clifford(e))
    whole = held(mf, "x_mats")
    head = whole[:r]
    assert isinstance(head, PauliFamily) and head.shape == (r, mf.dim, mf.dim)
    builds = []
    inner = linalg.scatter_columns
    monkeypatch.setattr(clifford, "scatter_columns", lambda *a: builds.append(a[0].shape) or inner(*a))
    report = verify_clifford_identity(e[:r, :r], head, trials=50, seed=r)
    assert report.passed and builds == [] and not whole.spent and not head.spent
    _same_outcome(report, verify_clifford_identity(e[:r, :r], mf.x_mats[:r], trials=50, seed=r))
    # the slice's own dense stack is the first r matrices of the whole one
    _same_array(head.dense(), mf.x_mats[:r])
    # a spent family slices as its dense stack does
    assert type(whole[:r]) is np.ndarray and np.shares_memory(whole[:r], mf.x_mats)


# ------------------------------------------------------------ the memory budget


def test_a_densify_over_budget_is_refused(monkeypatch, tmp_path):
    """At r=12 the coordinates take 20 KB and the dense stack 10 MB: under a 4 MiB budget the family
    is built and verified, and only the dense stack is refused."""
    e = gen_extreme_lex(12)[0]
    monkeypatch.setattr(linalg, "MEMORY_BUDGET", 4 << 20)
    family = build_cpsd_factorization(e)
    assert verify_cpsd_factorization(cpsd.build_pc(e), family).passed
    with pytest.raises(MemoryBudgetError, match=r"a dense stack of 156 matrices of size 64 would take 9.75 MiB, "
                       r"over the memory budget of 4 MiB"):
        family.mats
    with pytest.raises(MemoryBudgetError):
        matio.save_cpsd_factorization(tmp_path / "f", family)


def test_an_r20_build_is_refused_before_its_tables(tmp_path, capsys, monkeypatch):
    """r=20 (n=210, d=1024): under a 32 MiB budget the CLI builds the family as its coordinates and
    exits 3 with one line naming both sizes when the write reads its dense stack, before any
    Pauli table or value is made (the witness and its text take a few MB)."""
    monkeypatch.setattr(linalg, "MEMORY_BUDGET", 32 << 20)
    path = tmp_path / "E20.json"
    matio.write_matrix(path, gen_extreme_lex(20)[0])
    tracemalloc.start()
    try:
        code = cli.run(["cpsd", "build-pc", str(path), "-o", str(tmp_path / "PC.json"), "--factors", str(tmp_path / "f")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3
    assert err == "error: a dense stack of 420 matrices of size 1024 would take 6.56 GiB, over the memory budget of 32 MiB\n"
    assert peak < 16 << 20
    assert not (tmp_path / "f").exists()


def test_rank_tol_zero_build_exits_three(tmp_path, capsys, monkeypatch):
    """Eigenvalue noise kept as rank asks for factors of size 2^15 at the r=10 lex point."""
    monkeypatch.setattr(linalg, "MEMORY_BUDGET", 64 << 20)
    path = tmp_path / "E.json"
    matio.write_matrix(path, gen_extreme_lex(10)[0])
    assert cli.run(["--rank-tol", "0", "factorize", "build", str(path), "-o", str(tmp_path / "f")]) == 3
    err = capsys.readouterr().err
    assert err == "error: a weight of size 32768 would take 16 GiB, over the memory budget of 64 MiB\n"
    assert err.count("\n") == 1


def test_cpsd_check_at_r24_stays_small(tmp_path, capsys):
    """r=24 (n=300, d=4096): the witness check of the built family runs on its coordinates in a
    few MB, where its chain values would take 511 MB and its dense stack 150 GiB; a dense read
    is refused by the budget, and the CLI write exits 3."""
    e = gen_extreme_lex(24)[0]
    witness = cpsd.build_pc(e)
    tracemalloc.start()
    try:
        report = verify_cpsd_factorization(witness, build_cpsd_factorization(e))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and peak < 200 << 20
    with pytest.raises(MemoryBudgetError, match=r"a dense stack of 600 matrices of size 4096 would take 150 GiB"):
        build_cpsd_factorization(e).mats
    path = tmp_path / "E24.json"
    matio.write_matrix(path, e)
    assert cli.run(["cpsd", "build-pc", str(path), "-o", str(tmp_path / "PC.json"), "--factors", str(tmp_path / "f")]) == 3
    assert re.fullmatch(r"error: a dense stack of 600 matrices of size 4096 would take 150 GiB, over the memory "
                        r"budget of [0-9.]+ [GM]iB\n", capsys.readouterr().err)


# ------------------------------------------------------------ the CLI's exit codes


def test_rank_tol_above_one_exits_three(tmp_path, capsys):
    e = gen_extreme_lex(4)[0]
    h = e.shape[0] // 2
    u = gram_factors(e)
    files = {}
    for key, m in (("E", e), ("C", e[:h, h:]), ("U", u[:h]), ("V", u[h:])):
        files[key] = str(tmp_path / f"{key}.json")
        matio.write_matrix(files[key], m)
    commands = {
        "factorize build": ["factorize", "build", files["E"], "-o", str(tmp_path / "f")],
        "quantum rep": ["quantum", "rep", files["C"], "--gram", files["U"], files["V"], "-o", str(tmp_path / "q")],
    }
    messages = {
        "factorize build": "error: rank_tol 2 keeps no eigenvalue of the matrix\n",
        "quantum rep": "error: rank_tol 2 keeps no singular value of the system vectors\n",
    }
    for name, argv in commands.items():
        assert cli.run(["--rank-tol", "2", *argv]) == 3, name
        out, err = capsys.readouterr()
        assert out == "" and err == messages[name], name


def test_complex_input_exits_two(tmp_path, capsys):
    path = tmp_path / "H.json"
    matio.write_matrix(path, np.array([[1.0, 0.5j], [-0.5j, 1.0]]))
    assert cli.run(["elliptope", "check-extreme", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: expected a real matrix\n"
    # a complex file with zero imaginary parts is read as the real matrix it holds
    matio.write_matrix(path, np.eye(2, dtype=complex))
    assert cli.run(["elliptope", "check-extreme", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["command"] == "elliptope check-extreme"
