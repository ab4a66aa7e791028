"""Generator combinations written on the chain support, the recovery Gram of a
dense family, the Pauli square bound of extraction, the loops they replaced,
and the exit code of the walkthrough script.

Every family corrfact builds is c_0 I + sum_k c_k G_k over I and the Pauli
chains, nonzero only at the (L+1) d places of clifford._pauli_tables.  The
builders write those places alone and must give the bytes of the tensordot
builders they replaced (kept in ``oracles.py``), signed zeros included.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from corrfact import cpsd, factorization, linalg
from corrfact.clifford import PauliFamily, _pauli_tables, chain_coordinates, gamma_generators, pauli_coordinates
from corrfact.cpsd import (
    CpsdFactorization,
    build_cpsd_factorization,
    extract_matrix_factorization,
    verify_cpsd_factorization,
)
from corrfact.elliptope import CSystem, gen_extreme_lex, gram_factors, random_correlation
from corrfact.factorization import factorize_clifford, recover_correlation, to_form_c
from corrfact.quantum import build_tensor_rep
from corrfact.report import CheckResult, VerificationReport

import oracles
from test_pauli import _same_exactly


def _points(r):
    """The lexicographic extreme point of rank r and two random ones."""
    rngs = [np.random.default_rng(600 + 10 * r + k) for k in range(2)]
    return [gen_extreme_lex(r)[0]] + [random_correlation(r * (r + 1) // 2, r, rng) for rng in rngs]


def _bipartite(e):
    """A block of e and the unit-vector system that realizes it."""
    u = gram_factors(e)
    if e.shape[0] == 1:
        return e, CSystem(u, u)
    h = e.shape[0] // 2
    return e[:h, h:], CSystem(u[:h], u[h:])


def _embedded_system(r):
    """Unit vectors spanning r dimensions of R^(r+2): at r = 1 every vector is +-w."""
    rng = np.random.default_rng(700 + r)
    basis, _ = np.linalg.qr(rng.standard_normal((r + 2, r)))
    m = r + 4
    v = rng.standard_normal((m, r)) if r > 1 else rng.choice([-1.0, 1.0], (m, 1))
    v = (v / np.linalg.norm(v, axis=1, keepdims=True)) @ basis.T
    h = m // 2
    return v[:h] @ v[h:].T, CSystem(v[:h], v[h:])


@pytest.mark.parametrize("r", range(1, 13))
def test_builders_write_the_tensordot_bits(r):
    """Bob's G(v)^T is written as G(v') with the Y-type coordinates of v negated: the transposed
    tensordot bits too, on the split of each point and on a system embedded in r + 2 dimensions."""
    for e in _points(r):
        n = e.shape[0]
        got, want = factorize_clifford(e, n // 2), oracles.tensordot_factorize_clifford(e, n // 2)
        assert got.a_mats.tobytes() == want.a_mats.tobytes() and got.b_mats.tobytes() == want.b_mats.tobytes()
        got, want = build_cpsd_factorization(e), oracles.tensordot_build_cpsd_factorization(e)
        assert got.mats.tobytes() == want.mats.tobytes()
    for block, system in [_bipartite(e) for e in _points(r)] + [_embedded_system(r)]:
        got, want = build_tensor_rep(block, system), oracles.tensordot_build_tensor_rep(block, system)
        assert got.local_dim == (2 if r == 1 else 2 ** (r // 2))
        for field in ("alice_obs", "bob_obs", "psi"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


@pytest.mark.parametrize("ell", range(1, 6))
def test_combinations_invert_pauli_coordinates(ell):
    """Written at full rank 2L+1 with an I part and a scale, a stack has the coordinates it was
    written from, no residual, and nothing off the chain support; with `transpose` it holds the
    transposes, bit for bit."""
    d = 2**ell
    rng = np.random.default_rng(ell)
    rows = rng.standard_normal((5, 2 * ell + 1))
    out = PauliFamily(chain_coordinates(rows, c0=0.75), d, (5,), (0.5,)).dense()
    coords, delta, resid = pauli_coordinates(out)
    assert np.allclose(coords[:, 0], 0.375, rtol=0, atol=1e-15)
    assert np.allclose(coords[:, 1:], 0.5 * rows, rtol=0, atol=1e-15)
    assert np.all(delta < 1e-14) and np.all(resid < 1e-15)
    pos = _pauli_tables(ell)[0]
    assert not np.delete(out.reshape(5, d * d), pos, axis=1).any()
    want = np.tensordot(rows, gamma_generators(2 * ell + 1).generators, axes=1)
    assert np.allclose(out, 0.5 * (0.75 * np.eye(d) + want), rtol=0, atol=1e-15)
    flipped = PauliFamily(chain_coordinates(rows, c0=0.75, transpose=True), d, (5,), (0.5,)).dense()
    assert flipped.tobytes() == out.transpose(0, 2, 1).copy().tobytes()


# ------------------------------------------------------------ recovery


def _dense(mf):
    """A copy of a factorization as plain arrays, which recovery reads at all d^2 entries (a built
    family held as its coordinates takes the closed form instead)."""
    return factorization.MatrixFactorization(mf.x_mats.copy(), mf.y_mats.copy(), mf.k)


def _full_gram(mf):
    """The Gram matrix of the whole vectorized family (K X_i, Y_j K), one GEMM over every column."""
    family = np.concatenate([mf.k @ mf.x_mats, mf.y_mats @ mf.k])
    return linalg.gram(family.reshape(len(family), -1).view(float))


@pytest.mark.parametrize("r", range(8, 13))
def test_column_restricted_gram_matches_full_gemm(monkeypatch, r):
    """A dense family is not restricted to its nonzero columns, even on the chain support: the
    recovery Gram is the full GEMM over its 2 d^2 real columns."""
    widths = []
    inner = linalg.gram

    def spy(vectors):
        widths.append(vectors.shape[1])
        return inner(vectors)

    monkeypatch.setattr(factorization, "gram", spy)
    e = _points(r)[1]
    mf = _dense(to_form_c(factorize_clifford(e)))
    extracted = _dense(extract_matrix_factorization(build_cpsd_factorization(e))[0])
    for fact in (mf, extracted):
        assert np.array_equal(recover_correlation(fact), _full_gram(fact))
    d = mf.dim
    assert d >= linalg.GATHER_MIN_DIM
    assert widths == [2 * d * d] * 2


def test_dense_family_takes_the_full_gemm(monkeypatch):
    """A family rotated off the chain support fills every column: the full GEMM runs."""
    widths = []
    inner = linalg.gram
    monkeypatch.setattr(factorization, "gram", lambda v: widths.append(v.shape[1]) or inner(v))
    mf = to_form_c(factorize_clifford(gen_extreme_lex(8)[0]))
    q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((mf.dim, mf.dim)))
    rotated = factorization.MatrixFactorization(q @ mf.x_mats @ q.T, mf.y_mats, mf.k)
    assert np.max(np.abs(recover_correlation(rotated) - _full_gram(rotated))) == 0.0
    assert widths == [2 * mf.dim**2]


@pytest.mark.parametrize("value", [-0.0, 1e-9])
@pytest.mark.parametrize("r", [8, 10])
def test_off_support_bit_in_one_family_takes_the_full_gemm(monkeypatch, value, r):
    """A set bit off the chain support of X alone, or of Y alone, leaves recovery where a dense
    family on the support takes it: the GEMM over all 2 d^2 columns."""
    widths = []
    inner = linalg.gram
    monkeypatch.setattr(factorization, "gram", lambda v: widths.append(v.shape[1]) or inner(v))
    e = _points(r)[1]
    mf = _dense(to_form_c(factorize_clifford(e, e.shape[0] // 2)))
    d = mf.dim
    off = np.delete(np.arange(d * d), _pauli_tables(d.bit_length() - 1)[0])[d + 1]
    recover_correlation(mf)
    assert widths == [2 * d * d]
    for side in ("x_mats", "y_mats"):
        mats = getattr(mf, side).copy()
        mats[1].reshape(-1)[off] = value
        fact = dataclasses.replace(mf, **{side: mats})
        widths.clear()
        assert np.max(np.abs(recover_correlation(fact) - _full_gram(fact))) < 1e-13, side
        assert widths == [2 * d * d], side


# ------------------------------------------------------------ extraction


@pytest.fixture
def dense_squares(monkeypatch):
    """Count the calls of extraction's batched squares."""
    calls = []
    inner = linalg.square_deviations
    monkeypatch.setattr(cpsd, "square_deviations", lambda *args: calls.append(1) or inner(*args))
    return calls


@pytest.mark.parametrize("r", range(2, 13))
def test_extraction_involutions_decided_by_square_bound(dense_squares, r):
    """Built families: the Pauli square bound decides, within 1e-13 of the batched squares."""
    for e in _points(r)[:2]:
        family = build_cpsd_factorization(e)
        mf, report = extract_matrix_factorization(family)
        _, dense = oracles.dense_extract_matrix_factorization(family)
        assert report.passed
        got, want = report.check("involutions").deviation, dense.check("involutions").deviation
        assert abs(got - want) < 1e-13
    assert dense_squares == []


@pytest.mark.parametrize("r", [4, 5])
def test_sub_unit_family_falls_back_to_the_squares(dense_squares, r):
    """Factors (I +- t G(u_i)) / (2 sqrt(d)) with t < 1 give involutions that square to t^2 I:
    the bound fails and the batched squares write the dense report."""
    mats = build_cpsd_factorization(gen_extreme_lex(r)[0]).mats
    eye = mats[:, 0] + mats[:, 1]
    shrunk = mats.copy()
    shrunk[:, 0] = eye / 2 + 0.9 * (mats[:, 0] - eye / 2)
    shrunk[:, 1] = eye / 2 + 0.9 * (mats[:, 1] - eye / 2)
    family = CpsdFactorization(shrunk)
    mf, report = extract_matrix_factorization(family)
    mf_old, report_old = oracles.dense_extract_matrix_factorization(family)
    _same_exactly(report, report_old)
    assert mf.x_mats.tobytes() == mf_old.x_mats.tobytes()
    assert not report.check("involutions").passed
    assert dense_squares == [1]


@pytest.mark.parametrize("chunk_bytes", [1, 3 * 1024 + 5, linalg.CHUNK_BYTES])
@pytest.mark.parametrize("r", [2, 5, 8])
def test_outcome_sums_match_the_index_loop(monkeypatch, chunk_bytes, r):
    """K is summed in index order across chunk borders, whatever the layout: the loop's bits."""
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    mats = build_cpsd_factorization(gen_extreme_lex(r)[0]).mats
    rng = np.random.default_rng(r)
    noisy = mats + 1e-3 * rng.standard_normal(mats.shape)
    order = rng.permutation(mats.shape[-1])
    permuted = noisy[..., order, :][..., order]  # not C-ordered
    d = mats.shape[-1]
    mirror = np.arange(d * d).reshape(d, d).T.ravel()
    for family in (mats, noisy, permuted):
        for hermitize in (False, True):
            got = cpsd._outcome_sum_check(family.reshape(len(family), 2, d * d), mirror if hermitize else None)
            want = oracles.outcome_sum_check(family, hermitize)
            assert got[0].tobytes() == want[0].ravel().tobytes() and got[1] == want[1]


def _families(r):
    """Built factors, then the same with -0.0 written off the chain support, their real parts,
    a rotation that fills every place, and a padding that needs a gather."""
    mats = build_cpsd_factorization(_points(r)[1]).mats
    d = mats.shape[-1]
    signed = mats.copy()
    off = np.delete(np.arange(d * d), _pauli_tables(d.bit_length() - 1)[0])[:3]
    signed.reshape(len(mats), 2, d * d)[0, 1, off] = -0.0
    q, _ = np.linalg.qr(np.random.default_rng(r).standard_normal((d, d)))
    padded = np.zeros(mats.shape[:2] + (d + 2, d + 2), dtype=complex)
    padded[..., 1:-1, 1:-1] = mats
    return {"built": mats, "signed_zeros": signed, "real": mats.real.copy(), "rotated": q @ mats @ q.T, "padded": padded}


@pytest.mark.parametrize("r", [8, 9, 10])
def test_kept_places_give_the_dense_bits(r):
    """K, its check and X taken at the nonzero places alone: the dense oracle's bits, the
    involutions deviation aside (a bound within 1e-13 where the Pauli span decides it)."""
    for name, mats in _families(r).items():
        family = CpsdFactorization(mats)
        mf, report = extract_matrix_factorization(family)
        mf_old, report_old = oracles.dense_extract_matrix_factorization(family)
        assert mf.x_mats.tobytes() == mf_old.x_mats.tobytes() and mf.k.tobytes() == mf_old.k.tobytes(), name
        assert abs(report.check("involutions").deviation - report_old.check("involutions").deviation) < 1e-13
        assert [c.deviation for c in report.checks[1:]] == [c.deviation for c in report_old.checks[1:]]
        witness = np.real(mats.reshape(2 * len(mats), -1) @ mats.reshape(2 * len(mats), -1).conj().T)
        checks, old = verify_cpsd_factorization(witness, family).checks, oracles.dense_verify_cpsd_factorization(witness, family).checks
        assert [c.deviation for c in checks[3:]] == [c.deviation for c in old[3:]], name


# ------------------------------------------------------------ sorted_eigh


def _eigh_inputs():
    rng = np.random.default_rng(5)
    out = []
    for n in (1, 2, 7, 40):
        a = rng.standard_normal((n, n))
        out.append(("real", a + a.T))
        b = a + 1j * rng.standard_normal((n, n))
        out.append(("complex", b + b.conj().T))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        out.append(("tied", q @ np.diag(rng.integers(0, 3, n).astype(float)) @ q.T))
        z, _ = np.linalg.qr(b)
        out.append(("tied_complex", z @ np.diag(np.repeat([2.0, -1.0], n)[:n]) @ z.conj().T))
    out.append(("identity", np.eye(6)))
    out.append(("zero", np.zeros((4, 4))))
    out.append(("empty", np.zeros((0, 0))))
    out.append(("clifford_sum", np.tensordot(np.ones(5), gamma_generators(5).generators, axes=1)))
    return out


@pytest.mark.parametrize("kind, m", _eigh_inputs(), ids=[f"{k}-{m.shape[0]}" for k, m in _eigh_inputs()])
def test_sorted_eigh_is_bit_identical_to_the_column_loop(kind, m):
    w, u = linalg.sorted_eigh(m)
    w_old, u_old = oracles.sorted_eigh_loop(m)
    assert u.dtype == u_old.dtype and w.tobytes() == w_old.tobytes() and u.tobytes() == u_old.tobytes()
    if m.size:
        pivots = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        assert np.all(np.abs(pivots.imag) < 1e-15) and np.all(pivots.real > 0)


# ------------------------------------------------------------ walkthrough script


def _walkthrough():
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline.py"
    spec = importlib.util.spec_from_file_location("run_pipeline", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("broken", [None, "verify_cpsd_factorization", "recover_correlation"])
def test_walkthrough_exits_one_on_a_failed_check(monkeypatch, capsys, broken):
    """A failed verifier or a round trip off by more than eq_tol makes the script exit 1."""
    script = _walkthrough()
    if broken == "verify_cpsd_factorization":
        monkeypatch.setattr(script, broken, lambda *args: VerificationReport((CheckResult("x", False, 1.0),)))
    elif broken == "recover_correlation":
        monkeypatch.setattr(script, broken, lambda mf: recover_correlation(mf) + 1e-6)
    monkeypatch.setattr(sys, "argv", ["run_pipeline.py", "-r", "4"])
    assert script.main() == (0 if broken is None else 1)
    assert ("failed:" in capsys.readouterr().err) == (broken is not None)
