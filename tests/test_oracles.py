"""Batched verifiers and constructions against their loop oracles.

Every rewritten function must give the same checks, pass/fail outcomes and
notes as the loop it replaced (kept in ``oracles.py``), with deviations
agreeing within 1e-13 and constructed matrices within 1e-14.
"""

import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from corrfact import linalg, matio
from corrfact.cli import run
from corrfact.clifford import gamma_generators, verify_clifford_relations
from corrfact.cpsd import (
    CpsdFactorization,
    _outcome_sum_check,
    build_cpsd_factorization,
    build_pc,
    certify_lower_bound,
    extract_matrix_factorization,
    verify_cpsd_factorization,
)
from corrfact.elliptope import CSystem, gen_extreme_lex, gram_factors, random_correlation
from corrfact.errors import InconsistentSumsError
from corrfact.factorization import (
    FormBFactorization,
    MatrixFactorization,
    factorize_clifford,
    recover_correlation,
    to_form_c,
    verify_clifford_identity,
    verify_factorization,
)
from corrfact.linalg import DEFAULT_TOL, hs_inner
from corrfact.quantum import TensorProductRep, build_tensor_rep, eval_correlations, maximally_entangled
from corrfact.report import report_json

import oracles

DEV_TOL = 1e-13
MAT_TOL = 1e-14
RANKS = range(1, 9)


def notes_agree(got: str, want: str) -> bool:
    """Same words in the same order; a number among them may differ by DEV_TOL, as a
    reported deviation may (a least eigenvalue near 0 is rounding noise)."""
    words = list(zip(got.split(" "), want.split(" ")))
    return len(got.split(" ")) == len(want.split(" ")) and all(g == w or _within(g, w) for g, w in words)


def _within(got: str, want: str) -> bool:
    try:
        return abs(float(got) - float(want)) <= DEV_TOL
    except ValueError:
        return False


def assert_reports_match(new, old):
    assert [c.name for c in new.checks] == [c.name for c in old.checks]
    for got, want in zip(new.checks, old.checks):
        assert got.passed == want.passed, got.name
        assert got.deviation == pytest.approx(want.deviation, abs=DEV_TOL), got.name
        assert notes_agree(got.note, want.note), (got.name, got.note, want.note)
        if want.value is None:
            assert got.value is None
        else:
            assert got.value == pytest.approx(want.value, abs=DEV_TOL), got.name


def same_report(fn, *args, **kwargs):
    """Run a library verifier and its loop oracle on one input; the reports must match."""
    report = fn(*args, **kwargs)
    assert_reports_match(report, getattr(oracles, fn.__name__)(*args, **kwargs))
    return report


def same_block(rep):
    """eval_correlations and its loop oracle agree within DEV_TOL."""
    got = eval_correlations(rep)
    assert_allclose(got, oracles.eval_correlations(rep), rtol=0, atol=DEV_TOL)
    return got


def same_extraction(family):
    """extract_matrix_factorization and its loop oracle agree; returns the factorization."""
    mf, report = extract_matrix_factorization(family)
    mf_old, report_old = oracles.extract_matrix_factorization(family)
    assert_reports_match(report, report_old)
    for got, want in ((mf.x_mats, mf_old.x_mats), (mf.y_mats, mf_old.y_mats), (mf.k, mf_old.k)):
        assert_allclose(got, want, rtol=0, atol=MAT_TOL)
    return mf


def _lex(r):
    return gen_extreme_lex(r)[0]


@pytest.fixture(params=list(RANKS), ids=lambda r: f"r{r}")
def extreme(request):
    return request.param, _lex(request.param)


def test_cpsd_family_and_verifier_match_oracle(extreme):
    r, e = extreme
    family = build_cpsd_factorization(e)
    assert_allclose(family.mats, oracles.build_cpsd_factorization(e).mats, rtol=0, atol=MAT_TOL)
    witness = build_pc(e)
    assert same_report(verify_cpsd_factorization, witness, family).passed


def test_extraction_matches_oracle(extreme):
    r, e = extreme
    mf = same_extraction(build_cpsd_factorization(e))
    assert_allclose(recover_correlation(mf), oracles.recover_correlation(mf), rtol=0, atol=DEV_TOL)


def test_extraction_symmetrizes_like_oracle():
    """A non-Hermitian shift moved between the two outcomes keeps the sums consistent."""
    mats = build_cpsd_factorization(_lex(4)).mats.copy()
    mats[2, 0, 0, 1] += 1e-3
    mats[2, 1, 0, 1] -= 1e-3
    same_extraction(CpsdFactorization(mats))


@pytest.mark.parametrize("where", ["all", "half", "none"])
def test_factorization_verifiers_match_oracle(extreme, where):
    r, e = extreme
    n = e.shape[0]
    split = {"all": n, "half": n // 2, "none": 0}[where]
    fb = factorize_clifford(e, split)
    fb_old = oracles.factorize_clifford(e, split)
    assert_allclose(fb.a_mats, fb_old.a_mats, rtol=0, atol=MAT_TOL)
    assert_allclose(fb.b_mats, fb_old.b_mats, rtol=0, atol=MAT_TOL)
    same_report(verify_factorization, e, fb, mode="b-form")
    mf = to_form_c(fb)
    for mode in ("i", "i-prime"):
        same_report(verify_factorization, e, mf, mode=mode)
    assert_allclose(recover_correlation(mf), oracles.recover_correlation(mf), rtol=0, atol=DEV_TOL)


def test_recovered_correlation_is_exactly_symmetric(extreme):
    _, e = extreme
    g = recover_correlation(to_form_c(factorize_clifford(e, e.shape[0] // 2)))
    assert np.array_equal(g, g.T)


def test_clifford_checks_match_oracle(extreme):
    r, e = extreme
    mf = to_form_c(factorize_clifford(e))
    for seed in (0, 7):
        same_report(verify_clifford_identity, e[:r, :r], mf.x_mats[:r], trials=40, seed=seed)
    gens = gamma_generators(r).generators
    same_report(verify_clifford_relations, gens)


@pytest.mark.parametrize("r", RANKS[1:])
def test_tensor_rep_and_eval_match_oracle(r):
    e = _lex(r)
    h = e.shape[0] // 2
    u = gram_factors(e)
    sys = CSystem(u[:h], u[h:])
    rep = build_tensor_rep(e[:h, h:], sys)
    old = oracles.build_tensor_rep(e[:h, h:], sys)
    assert_allclose(rep.alice_obs, old.alice_obs, rtol=0, atol=MAT_TOL)
    assert_allclose(rep.bob_obs, old.bob_obs, rtol=0, atol=MAT_TOL)
    assert_allclose(rep.psi, old.psi, rtol=0, atol=0)
    same_block(rep)
    dense = TensorProductRep(rep.alice_obs, rep.bob_obs, rho=rep.density())
    same_block(dense)


def test_random_extreme_points_match_oracle(rng):
    for r in (3, 5, 6):
        e = random_correlation(r * (r + 1) // 2, r, rng)
        family = build_cpsd_factorization(e)
        witness = build_pc(e)
        same_report(verify_cpsd_factorization, witness, family)
        mf = to_form_c(factorize_clifford(e, r))
        same_report(verify_factorization, e, mf)
        same_report(verify_clifford_identity, e[:r, :r], mf.x_mats[:r], trials=30, seed=r)


@pytest.mark.parametrize("chunk_bytes", [1, 3 * 1024 + 5])
def test_chunked_paths_match_oracle(monkeypatch, chunk_bytes):
    """Slices of one matrix, or of three at d = 8, cross every chunk boundary."""
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    r = 6
    e = _lex(r)
    h = e.shape[0] // 2
    family = build_cpsd_factorization(e)
    assert_allclose(family.mats, oracles.build_cpsd_factorization(e).mats, rtol=0, atol=MAT_TOL)
    tampered = _tampered(family, "negative_eigenvalue")
    witness = build_pc(e)
    same_report(verify_cpsd_factorization, witness, tampered)
    same_extraction(family)
    fb = factorize_clifford(e, h)
    same_report(verify_factorization, e, fb, mode="b-form")
    mf = to_form_c(fb)
    x = mf.x_mats.copy()
    x[-1] *= 1.01
    broken = MatrixFactorization(x, mf.y_mats, mf.k)
    for mode in ("i", "i-prime"):
        same_report(verify_factorization, e, broken, mode=mode)
    same_report(verify_clifford_identity, e[:r, :r], mf.x_mats[:r], trials=7, seed=2)
    gens = gamma_generators(r).generators.copy()
    gens[4] = gens[2]
    same_report(verify_clifford_relations, gens)
    u = gram_factors(e)
    rep = build_tensor_rep(e[:h, h:], CSystem(u[:h], u[h:]))
    same_block(rep)


@pytest.mark.parametrize("chunk_bytes", [1, 3 * 16 * 16 + 5, linalg.CHUNK_BYTES])
def test_hs_gram_matches_hs_inner_loop(monkeypatch, rng, chunk_bytes):
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    left = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
    right = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    for a, b in ((left, None), (left, right), (left[:0], right), (left, right[:0])):
        other = a if b is None else b
        want = np.array([[hs_inner(x, y) for y in other] for x in a]).reshape(len(a), len(other))
        assert_allclose(linalg.hs_gram(a, b), want, rtol=0, atol=DEV_TOL)


def _tampered(family, kind):
    mats = family.mats.copy()
    d = family.dim
    if kind == "sign_flip":
        mats[0, 0] *= -1.0
    elif kind == "non_hermitian":
        mats[1, 0, 0, 1] += 1e-3
    elif kind == "negative_eigenvalue":
        mats[2, 1] -= 1e-3 * np.eye(d)
    elif kind == "inconsistent_sums":
        mats[1, 0] *= 1.1
    return CpsdFactorization(mats)


@pytest.mark.parametrize(
    "kind, check",
    [
        ("sign_flip", "entry_reconstruction"),
        ("non_hermitian", "factors_hermitian"),
        ("negative_eigenvalue", "factors_psd"),
        ("inconsistent_sums", "outcome_sums_consistent"),
    ],
)
def test_tampered_cpsd_family_fails_like_oracle(kind, check):
    e = _lex(4)
    witness = build_pc(e)
    family = _tampered(build_cpsd_factorization(e), kind)
    assert not same_report(verify_cpsd_factorization, witness, family).check(check).passed


def test_inconsistent_sums_raise_on_extraction_like_oracle():
    family = _tampered(build_cpsd_factorization(_lex(3)), "inconsistent_sums")
    for extract in (extract_matrix_factorization, oracles.extract_matrix_factorization):
        with pytest.raises(InconsistentSumsError):
            extract(family)


def test_non_hermitian_common_sum_raises_on_extraction_like_oracle():
    """Every sum carries the same non-Hermitian shift: the sums agree, but not with the Hermitized mean."""
    mats = build_cpsd_factorization(_lex(3)).mats.copy()
    mats[:, 0, 0, 1] += 1e-3
    for extract in (extract_matrix_factorization, oracles.extract_matrix_factorization):
        with pytest.raises(InconsistentSumsError):
            extract(CpsdFactorization(mats))


def test_wrong_witness_entry_fails_like_oracle():
    e = _lex(4)
    witness = build_pc(e)
    witness[3, 5] += 1e-6
    witness[5, 3] += 1e-6
    family = build_cpsd_factorization(e)
    report = same_report(verify_cpsd_factorization, witness, family)
    assert not report.check("entry_reconstruction").passed


def test_wrong_target_and_broken_involution_fail_like_oracle():
    e = _lex(4)
    mf = to_form_c(factorize_clifford(e, 5))
    target = e.copy()
    target[0, 7] = target[7, 0] = target[0, 7] + 1e-6
    same_report(verify_factorization, target, mf)
    x = mf.x_mats.copy()
    x[2] *= 1.01
    broken = MatrixFactorization(x, mf.y_mats, mf.k)
    report = same_report(verify_factorization, e, broken)
    assert not report.check("involutions").passed


@pytest.mark.parametrize("mode", ["i", "i-prime", "b-form"])
def test_gram_check_reads_only_the_upper_triangle_like_oracle(mode):
    e = _lex(4)
    fb = factorize_clifford(e, 5)
    fact = fb if mode == "b-form" else to_form_c(fb)
    target = e.copy()
    # lower-triangle entries off by less than the symmetry tolerance, in each block
    for p, q in ((3, 1), (7, 2), (9, 6)):
        target[p, q] += 8e-11
    report = same_report(verify_factorization, target, fact, mode=mode)
    assert report.check("gram_reconstruction").deviation < 1e-13


def test_broken_generators_name_the_same_worst_pair():
    gens = gamma_generators(5).generators.copy()
    gens[3] = gens[1]
    gens[4] = 1.5 * gens[4]
    report = same_report(verify_clifford_relations, gens)
    assert not report.passed
    assert report.check("distinct_pairs_anticommute").note == "worst pair (2, 4)"
    assert report.check("generators_square_to_identity").note == "worst generator 5"


def test_exact_generators_report_no_distinct_pairs_like_oracle():
    gens = gamma_generators(6).generators
    report = same_report(verify_clifford_relations, gens)
    assert report.check("distinct_pairs_anticommute").note == "no distinct pairs"


def test_repeated_generator_identity_fails_like_oracle():
    gens = gamma_generators(3).generators
    mats = np.stack([gens[0], gens[0], gens[2]])
    block = np.eye(3)
    report = same_report(verify_clifford_identity, block, mats, trials=20, seed=4)
    assert not report.passed


def test_direction_draws_follow_the_per_trial_stream():
    block = np.eye(2)
    mats = gamma_generators(2).generators
    for trials in (0, 1, 17):
        same_report(verify_clifford_identity, block, mats, trials=trials, seed=11)
    batch = np.random.default_rng(11).standard_normal((17, 2))
    stream = np.random.default_rng(11)
    assert np.array_equal(batch, np.stack([stream.standard_normal(2) for _ in range(17)]))


def test_empty_bob_family_matches_oracle():
    e = _lex(3)
    n = e.shape[0]
    fb = factorize_clifford(e)
    assert fb.sizes == (n, 0)
    same_report(verify_factorization, e, fb, mode="b-form")
    mf = to_form_c(fb)
    for mode in ("i", "i-prime"):
        same_report(verify_factorization, e, mf, mode=mode)
    flat = MatrixFactorization(mf.x_mats, np.zeros((0,)), mf.k)
    same_report(verify_factorization, e, flat)
    assert_allclose(recover_correlation(flat), oracles.recover_correlation(flat), rtol=0, atol=DEV_TOL)
    b_empty = FormBFactorization(fb.a_mats, np.zeros((0,)))
    same_report(verify_factorization, e, b_empty, mode="b-form")


def test_eval_with_empty_bob_family_matches_oracle():
    alice = gamma_generators(3).generators
    for state in ({"psi": maximally_entangled(2)}, {"rho": np.eye(4) / 4.0}):
        rep = TensorProductRep(alice, np.zeros((0, 2, 2)), **state)
        assert same_block(rep).shape == (3, 0)


def test_density_branch_matches_oracle(rng):
    d = 4
    alice = np.stack([_random_hermitian(rng, d) for _ in range(3)])
    bob = np.stack([_random_hermitian(rng, d) for _ in range(5)])
    vecs = rng.standard_normal((3, d * d)) + 1j * rng.standard_normal((3, d * d))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    weights = np.array([0.5, 0.3, 0.2])
    rho = np.einsum("k,ka,kb->ab", weights, vecs, vecs.conj())
    rep = TensorProductRep(alice, bob, rho=rho)
    same_block(rep)
    pure = TensorProductRep(alice, bob, psi=vecs[0])
    same_block(pure)


def _random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (m + m.conj().T) / 2.0
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


@pytest.mark.parametrize("r", list(RANKS))
def test_certificate_dimension_matches_built_family(r):
    e = _lex(r)
    cert = certify_lower_bound(e)
    assert cert.construction_dim == oracles.build_cpsd_factorization(e).dim


def test_certificate_dimension_on_non_extreme_input(rng):
    e = random_correlation(9, 4, rng)
    cert = certify_lower_bound(e)
    assert cert.lower_bound is None
    assert cert.construction_dim == oracles.build_cpsd_factorization(e).dim == 4


def test_certify_memory_stays_quadratic_in_n():
    """The certificate reads no n*2*d^2 factor tensor: its peak stays O(n^2)."""
    for r in (8, 12):
        e = _lex(r)
        n = e.shape[0]
        certify_lower_bound(e)
        tracemalloc.start()
        try:
            certify_lower_bound(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        factor_bytes = n * 2 * (2 ** (r // 2)) ** 2 * 16
        assert peak <= 16 * 8 * n * n, (r, peak)
        if r == 12:
            assert peak < factor_bytes / 20, (peak, factor_bytes)


def _write(tmp_path, name, matrix):
    path = tmp_path / name
    matio.write_matrix(path, matrix)
    return str(path)


def test_clifford_identity_cli_report_is_seeded_and_matches_oracle(tmp_path, capsys):
    r = 4
    e = _lex(r)
    epath = _write(tmp_path, "E.json", e)
    fdir = str(tmp_path / "fact")
    assert run(["factorize", epath, "-o", fdir]) == 0
    apath = _write(tmp_path, "A.json", e[:r, :r])
    capsys.readouterr()
    argv = ["--seed", "23", "factorize", "clifford-identity", apath, fdir, "--trials", "30"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first

    mf = matio.load_matrix_factorization(fdir)
    old = report_json(
        "factorize clifford-identity",
        oracles.verify_clifford_identity(e[:r, :r], mf.x_mats[:r], trials=30, seed=23),
        DEFAULT_TOL,
        seed=23,
    )
    got, got_devs = _without_deviations(json.loads(first))
    want, want_devs = _without_deviations(old)
    assert got == want
    assert got_devs == pytest.approx(want_devs, abs=DEV_TOL)


def _without_deviations(report: dict) -> tuple[dict, list[float]]:
    """A report object minus its deviation fields, and those deviations in order."""
    devs = [report["max_deviation"]] + [d["deviation"] for d in report["details"]]
    rest = {k: v for k, v in report.items() if k != "max_deviation"}
    rest["details"] = [{k: v for k, v in d.items() if k != "deviation"} for d in report["details"]]
    return rest, devs


@pytest.mark.parametrize("chunk_bytes", [1, 3 * 1024 + 5, linalg.CHUNK_BYTES])
@pytest.mark.parametrize("where", [0, -1])
def test_chunked_outcome_sums_match_oracle(monkeypatch, chunk_bytes, where):
    """A drifting outcome sum is caught in any chunk, with the oracle's deviation."""
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    e = _lex(6)
    mats = build_cpsd_factorization(e).mats.copy()
    mats[where, 1] += 1e-6 * np.eye(mats.shape[-1])
    family = CpsdFactorization(mats)
    report = same_report(verify_cpsd_factorization, build_pc(e), family)
    assert not report.check("outcome_sums_consistent").passed
    for extract in (extract_matrix_factorization, oracles.extract_matrix_factorization):
        with pytest.raises(InconsistentSumsError):
            extract(family)


@pytest.mark.parametrize("r", [2, 3, 8, 12])
def test_mean_outcome_sum_is_bit_identical_to_stacked_mean(r):
    """The mean outcome sum is accumulated in index order, as mean(axis=0) does,
    so extraction writes the same bits as when it stacked every sum."""
    mats = build_cpsd_factorization(_lex(r)).mats
    noisy = mats + 1e-3 * np.random.default_rng(r).standard_normal(mats.shape)
    for family in (mats, noisy):
        want = CpsdFactorization(family).outcome_sums().mean(axis=0)
        flat = family.reshape(len(family), 2, -1)
        assert _outcome_sum_check(flat, None)[0].tobytes() == want.tobytes()
