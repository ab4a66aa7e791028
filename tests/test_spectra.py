"""One decomposition per correlation matrix, and the closed forms that replaced table products.

elliptope keeps the spectra of the last matrix it decomposed (elliptope._spectra):
the checks and builders that take the same E decompose it once between them,
and their reports are those of a cold start.  The anticommutator bound, the
chain build and the weight checks of an identity-multiple K are compared
with the table product, the one-product-at-a-time build and the dense checks
they replaced (``oracles.py``), bit for bit.
"""

import contextlib
import io
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from corrfact import cli, clifford, cpsd, elliptope, linalg, matio
from corrfact.clifford import _largest_entries, _pauli_tables, gamma_generators, held
from corrfact.cpsd import build_cpsd_factorization, build_pc, certify_lower_bound
from corrfact.elliptope import check_extreme, gen_extreme_lex, gram_factors
from corrfact.errors import MemoryBudgetError
from corrfact.factorization import _weight_deviations, factorize_clifford, to_form_c, verify_clifford_identity
from corrfact.linalg import identity_multiple
from corrfact.quantum import maximally_entangled

from test_support import _points


@pytest.fixture
def cold(monkeypatch):
    """A fresh spectra entry for the test, and the one that was kept put back after it."""
    monkeypatch.setattr(elliptope, "_LAST_SPECTRA", None)


def _counting(monkeypatch):
    """Count the sorted_eigh calls of elliptope and the eigvalsh calls of numpy."""
    calls = {"eigh": 0, "eigvalsh": 0}
    eigh, eigvalsh = elliptope.sorted_eigh, np.linalg.eigvalsh

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(elliptope, "sorted_eigh", counted("eigh", eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
    return calls


# ------------------------------------------------------------ the kept spectra


def test_a_repeated_matrix_gets_the_same_read_only_arrays(cold):
    e = gen_extreme_lex(5)[0]
    w, u, had = elliptope._spectra(e, hadamard=True)
    again = elliptope._spectra(e.copy(), hadamard=True)
    assert all(a is b for a, b in zip((w, u, had), again))
    for a in (w, u, had):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_a_different_matrix_or_an_edit_in_place_misses(cold, monkeypatch):
    e = gen_extreme_lex(4)[0]
    calls = _counting(monkeypatch)
    first = check_extreme(e)
    assert calls == {"eigh": 1, "eigvalsh": 1}
    assert check_extreme(e) == first and calls == {"eigh": 1, "eigvalsh": 1}
    eye = np.eye(e.shape[0])
    other = (e + eye) / 2.0
    check_extreme(other)
    assert calls == {"eigh": 2, "eigvalsh": 2}
    w_other = elliptope._spectra(other)[0]
    other += eye  # the same array, edited in place
    other /= 2.0
    assert elliptope._spectra(other)[0] is not w_other and calls["eigh"] == 3
    # a copy of the same bits in another layout or dtype
    assert elliptope._spectra(np.asfortranarray(other))[0] is elliptope._spectra(other)[0]
    elliptope._spectra(other.astype(np.float32))
    assert calls["eigh"] == 4


def test_one_matrix_is_kept(cold, monkeypatch):
    a, b = gen_extreme_lex(3)[0], gen_extreme_lex(4)[0]
    calls = _counting(monkeypatch)
    for e in (a, b, a, b):
        gram_factors(e)
    assert calls["eigh"] == 4
    key, *spectra = elliptope._LAST_SPECTRA
    assert key == (b.dtype.str, b.shape, b.tobytes()) and len(spectra) == 3


def test_a_pipeline_decomposes_its_matrix_once(cold, monkeypatch):
    """check_extreme, gram_factors, the builders, the witness and the certificate of one E share one
    sorted_eigh and one eigvalsh of E o E, whichever runs first."""
    e = gen_extreme_lex(8)[0]
    calls = _counting(monkeypatch)
    certify_lower_bound(e)
    check_extreme(e)
    gram_factors(e)
    factorize_clifford(e, 10)
    build_pc(e)
    build_cpsd_factorization(e)
    assert calls == {"eigh": 1, "eigvalsh": 1}


def test_concurrent_readers_pair_each_matrix_with_its_own_spectra(cold):
    mats = [gen_extreme_lex(r)[0] for r in (5, 6)]
    want = [(check_extreme(e), gram_factors(e)) for e in mats]
    bad = []

    def reader(start):
        for i in range(60):
            k = (start + i) % 2
            if check_extreme(mats[k]) != want[k][0] or not np.array_equal(gram_factors(mats[k]), want[k][1]):
                bad.append(k)

    threads = [threading.Thread(target=reader, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert bad == []


def _outputs(e):
    """Every report and construction that takes E whole, as comparable values."""
    fb = factorize_clifford(e)
    held_a = held(fb, "a_mats")
    a_bits = held_a.coordinates() if isinstance(held_a, clifford.PauliFamily) else held_a
    family = held(build_cpsd_factorization(e), "mats")
    f_bits = family.coordinates() if isinstance(family, clifford.PauliFamily) else family
    return (
        check_extreme(e),
        certify_lower_bound(e),
        gram_factors(e).tobytes(),
        a_bits.tobytes(),
        f_bits.tobytes(),
    )


@pytest.mark.parametrize("r", range(1, 17))
def test_reports_equal_with_a_cold_and_a_warm_entry(r, monkeypatch):
    for e in _points(r):
        cold_calls = []
        for fn in (check_extreme, certify_lower_bound, gram_factors):
            monkeypatch.setattr(elliptope, "_LAST_SPECTRA", None)
            cold_calls.append(fn(e))
        monkeypatch.setattr(elliptope, "_LAST_SPECTRA", None)
        cold_out = _outputs(e)
        warm_out = _outputs(e.copy())
        assert cold_out == warm_out
        assert cold_calls[0] == warm_out[0] and cold_calls[1] == warm_out[1]
        assert cold_calls[2].tobytes() == warm_out[2]


def _corpus(tmp_path: Path) -> list[list[str]]:
    """Commands that read E (or its blocks) at r = 3, 6 and 10, each twice in a row."""
    commands = []
    for r in (3, 6, 10):
        e = gen_extreme_lex(r)[0]
        d = tmp_path / f"r{r}"
        d.mkdir()
        files = {"E": d / "E.json", "A": d / "A.json"}
        matio.write_matrix(files["E"], e)
        matio.write_matrix(files["A"], e[:r, :r])
        for rank_tol in ("1e-9", "1e-3"):
            for argv in (
                ["elliptope", "check-extreme", str(files["E"])],
                ["cpsd", "certify", str(files["E"])],
                ["factorize", "build", str(files["E"]), "-o", "{out}/form_c"],
                ["factorize", "verify", str(files["E"]), "{out}/form_c"],
                ["cpsd", "build-pc", str(files["E"]), "-o", "{out}/PC.json", "--factors", "{out}/factors"],
                ["cpsd", "verify", "{out}/PC.json", "{out}/factors"],
                ["elliptope", "check-extreme", str(files["A"])],
            ):
                commands.append(["--rank-tol", rank_tol, *argv])
    return commands


def _run_corpus(commands, out: Path, clear, monkeypatch):
    results = []
    for k, argv in enumerate(commands):
        if clear:
            monkeypatch.setattr(elliptope, "_LAST_SPECTRA", None)
        where = out / f"c{k // 7}"
        where.mkdir(parents=True, exist_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run([a.replace("{out}", str(where)) for a in argv])
        results.append((code, stdout.getvalue().replace(str(out), "{out}"), stderr.getvalue()))
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return results, files


def test_cli_outputs_equal_with_a_cold_and_a_warm_entry(tmp_path, monkeypatch):
    commands = _corpus(tmp_path)
    cold_run = _run_corpus(commands, tmp_path / "cold", True, monkeypatch)
    warm_run = _run_corpus(commands, tmp_path / "warm", False, monkeypatch)
    assert cold_run == warm_run
    assert all(code in (0, 1) for code, _, _ in cold_run[0])


# ------------------------------------------------------------ closed forms against what they replaced


def test_the_chain_by_chain_table_is_the_pauli_table():
    for ell in range(1, 7):
        assert oracles.pauli_table_by_chain(ell).tobytes() == _pauli_tables(ell)[1].tobytes()


@pytest.mark.parametrize("ell", range(1, 11))
def test_largest_entries_equal_the_table_product(ell):
    """Bit for bit, at every scale, with zero, signed-zero, NaN and inf rows (NaN where the
    product meets inf or NaN)."""
    rng = np.random.default_rng(900 + ell)
    rows = 200 if ell <= 8 else 40
    parts = []
    for scale in (1e-300, 1e-3, 1.0, 1e3, 1e300):
        c = rng.standard_normal((rows, 2 * ell + 2)) * scale
        c[::7, 1:] = 0.0
        c[::11] *= -0.0
        c[::13, ell + 1 : -1] = 0.0
        c[::17, 0] = np.inf
        c[::19, -1] = -np.inf
        c[::23, 1] = np.nan
        c[::29] = 0.0
        parts.append(c)
    coords = np.concatenate(parts)
    table = oracles.pauli_table_by_chain(ell) if ell > 6 else None
    with np.errstate(invalid="ignore"):
        want = oracles.largest_entries_gemm(coords, table)
    got = _largest_entries(coords)
    finite = np.isfinite(coords).all(axis=1)
    assert np.isnan(want[~finite]).all() and np.isnan(got[~finite]).all()
    assert got[finite].tobytes() == want[finite].tobytes()


@pytest.mark.parametrize("r", range(1, 17))
def test_generators_equal_the_loop_oracle(r):
    assert gamma_generators(r).generators.tobytes() == oracles.gamma_generators_loop(r).generators.tobytes()


@pytest.mark.parametrize("d", [*range(1, 65), 100, 128, 256, 512, 1024])
def test_weight_checks_of_an_identity_multiple_equal_the_dense_checks(d):
    rng = np.random.default_rng(d)
    values = [1.0 / np.sqrt(d)] + ([rng.standard_normal(), -0.3, 2.5e-7, 3.7e40] if d <= 64 else [])
    for c in values:
        for dtype in (complex, float):
            k = np.eye(d, dtype=dtype) * c
            got = _weight_deviations(k, identity_multiple(k))
            assert np.array(got).tobytes() == np.array(oracles.dense_weight_checks(k)).tobytes(), (c, dtype)


def test_other_weights_take_the_dense_checks():
    d = 8
    for k in (np.eye(d) * (0.5 + 1e-12j), np.diag(np.linspace(0.1, 0.5, d)), np.eye(d) * 1e-120, np.eye(d, dtype=np.float32)):
        got = _weight_deviations(k, identity_multiple(k))
        assert np.array(got).tobytes() == np.array(oracles.dense_weight_checks(k)).tobytes()


def test_held_identity_check_at_r20_makes_no_pauli_tables():
    """r=20 (n=210, d=1024): the identity check of the first 20 involutions of the held form-c family
    is decided from their coordinates, with no Pauli table (704 MB at L=10) and no dense stack."""
    e = gen_extreme_lex(20)[0]
    x = held(to_form_c(factorize_clifford(e)), "x_mats")[:20]
    info = _pauli_tables.cache_info()
    tracemalloc.start()
    try:
        report = verify_clifford_identity(e[:20, :20], x, trials=100, seed=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    after = _pauli_tables.cache_info()
    assert report.passed and not x.spent
    assert after.hits + after.misses == info.hits + info.misses
    assert peak < 50 << 20


# ------------------------------------------------------------ the memory budget


def test_the_maximally_entangled_state_is_budgeted(monkeypatch):
    monkeypatch.setattr(linalg, "MEMORY_BUDGET", 1 << 20)
    assert maximally_entangled(256).shape == (256 * 256,)
    with pytest.raises(MemoryBudgetError, match=r"^the maximally entangled state of size 512 would take 4 MiB, "
                       r"over the memory budget of 1 MiB$"):
        maximally_entangled(512)


def test_quantum_rep_at_r30_exits_three(tmp_path, capsys, monkeypatch):
    """r=30 (n=465, d=32768): the state alone would take 16 GiB."""
    monkeypatch.setattr(linalg, "MEMORY_BUDGET", 64 << 20)
    e = gen_extreme_lex(30)[0]
    h = e.shape[0] // 2
    u = gram_factors(e)
    files = {}
    for key, m in (("C", e[:h, h:]), ("U", u[:h]), ("V", u[h:])):
        files[key] = str(tmp_path / f"{key}.json")
        matio.write_matrix(files[key], m)
    argv = ["quantum", "rep", files["C"], "--gram", files["U"], files["V"], "-o", str(tmp_path / "rep")]
    assert cli.run(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the maximally entangled state of size 32768 would take 16 GiB, over the memory budget of 64 MiB\n"
    assert not (tmp_path / "rep").exists()
