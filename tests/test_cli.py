import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from corrfact import cli, matio
from corrfact.clifford import PAULI_X
from corrfact.cli import run
from corrfact.elliptope import gen_extreme_lex
from corrfact.errors import MatrixFormatError
from corrfact.quantum import TensorProductRep, maximally_entangled

from conftest import CHSH, CHSH_COLS, CHSH_ROWS, E3


def _write(tmp_path, name, matrix):
    path = tmp_path / name
    matio.write_matrix(path, matrix)
    return str(path)


def _details(capsys):
    report = json.loads(capsys.readouterr().out)
    return report, {d["name"]: d for d in report["details"]}


def test_matrix_io_real_bit_exact(tmp_path, rng):
    m = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-8, 8, size=(4, 3))
    path = tmp_path / "m.json"
    matio.write_matrix(path, m)
    back = matio.read_matrix(path)
    assert back.dtype == m.dtype
    assert np.array_equal(back, m)


def test_matrix_io_complex_bit_exact(tmp_path, rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = tmp_path / "m.json"
    matio.write_matrix(path, m)
    back = matio.read_matrix(path)
    assert np.iscomplexobj(back)
    assert np.array_equal(back, m)


def test_matrix_io_rejects_malformed():
    with pytest.raises(MatrixFormatError):
        matio.matrix_from_obj({"rows": 2, "cols": 2, "complex": False, "data": [1.0, 2.0]})
    with pytest.raises(MatrixFormatError):
        matio.matrix_from_obj({"rows": 1, "cols": 1, "complex": True, "data": [1.0]})
    with pytest.raises(MatrixFormatError):
        matio.matrix_text(np.array([[np.inf]]))


def test_gen_extreme_then_check_extreme(tmp_path, capsys):
    epath = str(tmp_path / "E.json")
    assert run(["elliptope", "gen-extreme", "-r", "2", "-o", epath]) == 0
    capsys.readouterr()
    assert run(["elliptope", "check-extreme", epath]) == 0
    report, details = _details(capsys)
    assert report["pass"] is True
    assert details["rank"]["value"] == 2
    assert details["required_rank"]["value"] == 3


def test_check_extreme_fails_on_identity(tmp_path, capsys):
    path = _write(tmp_path, "I3.json", np.eye(3))
    assert run(["elliptope", "check-extreme", path]) == 1
    report, _ = _details(capsys)
    assert report["pass"] is False


def test_rmax_prints_value(capsys):
    assert run(["elliptope", "rmax", "-n", "10"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_clifford_gen_verify_roundtrip(tmp_path, capsys):
    gdir = str(tmp_path / "gens")
    assert run(["clifford", "gen", "-r", "5", "-o", gdir]) == 0
    capsys.readouterr()
    assert run(["clifford", "verify", gdir]) == 0
    report, _ = _details(capsys)
    assert report["max_deviation"] < 1e-12


def test_clifford_verify_detects_tampering(tmp_path, capsys):
    gdir = tmp_path / "gens"
    assert run(["clifford", "gen", "-r", "4", "-o", str(gdir)]) == 0
    # overwrite the second generator with a copy of the first
    first = matio.read_matrix(gdir / "generator_01.json")
    matio.write_matrix(gdir / "generator_02.json", first)
    capsys.readouterr()
    assert run(["clifford", "verify", str(gdir)]) == 1


def test_factorize_build_sugar_and_verify(tmp_path, capsys):
    epath = _write(tmp_path, "E.json", E3)
    fdir = str(tmp_path / "fact")
    assert run(["factorize", epath, "-o", fdir]) == 0
    capsys.readouterr()
    assert run(["factorize", "verify", epath, fdir]) == 0
    report, _ = _details(capsys)
    assert report["max_deviation"] < 1e-10
    assert run(["factorize", "verify", epath, fdir, "--mode", "i-prime"]) == 0


def test_factorize_b_form_pipeline(tmp_path, capsys):
    epath = _write(tmp_path, "E.json", E3)
    fdir = str(tmp_path / "formb")
    assert run(["factorize", "build", epath, "-o", fdir, "--form", "b"]) == 0
    capsys.readouterr()
    assert run(["factorize", "verify", epath, fdir, "--mode", "b-form"]) == 0


def test_factorize_verify_wrong_target_fails(tmp_path, capsys):
    epath = _write(tmp_path, "E.json", E3)
    other = _write(tmp_path, "I3.json", np.eye(3))
    fdir = str(tmp_path / "fact")
    assert run(["factorize", epath, "-o", fdir]) == 0
    capsys.readouterr()
    assert run(["factorize", "verify", other, fdir]) == 1


def test_clifford_identity_requires_seed(tmp_path, capsys):
    epath = _write(tmp_path, "E.json", E3)
    fdir = str(tmp_path / "fact")
    assert run(["factorize", epath, "-o", fdir]) == 0
    apath = _write(tmp_path, "A.json", E3[:2, :2])
    assert run(["factorize", "clifford-identity", apath, fdir, "--trials", "5"]) == 2


def test_clifford_identity_seeded_byte_reproducible(tmp_path, capsys):
    epath = _write(tmp_path, "E.json", E3)
    fdir = str(tmp_path / "fact")
    assert run(["factorize", epath, "-o", fdir]) == 0
    apath = _write(tmp_path, "A.json", E3[:2, :2])
    capsys.readouterr()
    argv = ["--seed", "17", "factorize", "clifford-identity", apath, fdir, "--trials", "25"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["seed"] == 17


def test_cpsd_pipeline(tmp_path, capsys):
    epath = str(tmp_path / "E.json")
    pc_path = str(tmp_path / "PC.json")
    fdir = str(tmp_path / "factors")
    assert run(["elliptope", "gen-extreme", "-r", "3", "-o", epath]) == 0
    assert run(["cpsd", "build-pc", epath, "-o", pc_path, "--factors", fdir]) == 0
    capsys.readouterr()
    assert run(["cpsd", "verify", pc_path, fdir]) == 0
    report, _ = _details(capsys)
    assert report["max_deviation"] < 1e-10
    assert run(["cpsd", "certify", epath]) == 0
    report, details = _details(capsys)
    assert details["cpsd_rank_lower_bound"]["value"] == 2
    assert details["construction_dim"]["value"] == 2


def test_cpsd_certify_non_extreme_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "I3.json", np.eye(3))
    assert run(["cpsd", "certify", path]) == 1


def test_cpsd_extract_then_verify_doubled(tmp_path, capsys):
    epath = _write(tmp_path, "E.json", E3)
    pc_path = str(tmp_path / "PC.json")
    fdir = str(tmp_path / "factors")
    out = str(tmp_path / "extracted")
    doubled = _write(tmp_path, "doubled.json", np.block([[E3, E3], [E3, E3]]))
    assert run(["cpsd", "build-pc", epath, "-o", pc_path, "--factors", fdir]) == 0
    capsys.readouterr()
    assert run(["cpsd", "extract", fdir, "-o", out]) == 0
    capsys.readouterr()
    assert run(["factorize", "verify", doubled, out]) == 0


def test_quantum_pipeline(tmp_path, capsys):
    cpath = _write(tmp_path, "C.json", CHSH)
    upath = _write(tmp_path, "U.json", CHSH_ROWS)
    vpath = _write(tmp_path, "V.json", CHSH_COLS)
    rdir = str(tmp_path / "rep")
    rdir2 = str(tmp_path / "rep2")
    assert run(["quantum", "rep", cpath, "--gram", upath, vpath, "-o", rdir]) == 0
    capsys.readouterr()
    assert run(["quantum", "eval", rdir]) == 0
    block = matio.matrix_from_obj(json.loads(capsys.readouterr().out))
    assert_allclose(block, CHSH, atol=1e-12)
    assert run(["quantum", "reduce", rdir, "-o", rdir2]) == 0
    capsys.readouterr()
    assert run(["quantum", "eval", rdir2]) == 0
    block2 = matio.matrix_from_obj(json.loads(capsys.readouterr().out))
    assert_allclose(block2, CHSH, atol=1e-10)


def test_quantum_reduce_keeps_an_empty_bob_family(tmp_path):
    rdir, out = tmp_path / "rep", tmp_path / "reduced"
    matio.save_tensor_rep(rdir, TensorProductRep([PAULI_X], [], psi=maximally_entangled(2)))
    assert run(["--quiet", "quantum", "reduce", str(rdir), "-o", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["n_bob"] == 0


def test_unknown_command_exits_two(capsys):
    assert run(["bogus"]) == 2


def test_malformed_matrix_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 2, "cols": 2, "complex": false, "data": [1splat')
    assert run(["elliptope", "check-extreme", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: malformed JSON at line 1, column ")


def test_missing_file_exits_two(tmp_path):
    assert run(["elliptope", "check-extreme", str(tmp_path / "nope.json")]) == 2


def test_precondition_violation_exits_three(tmp_path):
    path = _write(tmp_path, "bad.json", np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert run(["factorize", path, "-o", str(tmp_path / "out")]) == 3


def test_quiet_summaries(tmp_path, capsys):
    epath = _write(tmp_path, "E.json", E3)
    fdir = str(tmp_path / "fact")
    assert run(["factorize", epath, "-o", fdir]) == 0
    capsys.readouterr()
    assert run(["--quiet", "factorize", "verify", epath, fdir]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS factorize verify")
    assert "\n" == out[-1] and out.count("\n") == 1


def test_tolerance_flags_are_honored(tmp_path, capsys):
    # A slightly perturbed extreme point fails at default eq_tol for the
    # witness entries but passes with a loose tolerance.
    e = E3.copy()
    e[0, 1] = e[1, 0] = 1e-7
    epath = _write(tmp_path, "E.json", e)
    fdir = str(tmp_path / "fact")
    assert run(["factorize", epath, "-o", fdir]) == 0
    capsys.readouterr()
    other = _write(tmp_path, "E0.json", E3)
    assert run(["factorize", "verify", other, fdir]) == 1
    capsys.readouterr()
    assert run(["--eq-tol", "1e-5", "factorize", "verify", other, fdir]) == 0


def _huge_integer_entry(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 1, "cols": 1, "complex": false, "data": [' + "9" * 400 + "]}")
    return ["elliptope", "check-extreme", str(path)], path


def _boolean_rows(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": true, "cols": 1, "complex": false, "data": [1.0]}')
    return ["elliptope", "check-extreme", str(path)], path


def _non_utf8_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"rows": 1, "cols": 1, "complex": false, "data": [1.0]}\xff\xfe')
    return ["elliptope", "check-extreme", str(path)], path


def _form_c_bundle(tmp_path, edit=None, e=E3):
    """A form-c bundle of e, optionally with its manifest edited; returns the verify argv and the manifest."""
    epath = _write(tmp_path, "E.json", e)
    fdir = tmp_path / "fact"
    assert run(["--quiet", "factorize", epath, "-o", str(fdir)]) == 0
    if edit is not None:
        manifest = json.loads((fdir / "manifest.json").read_text())
        edit(manifest)
        (fdir / "manifest.json").write_text(json.dumps(manifest))
    return ["factorize", "verify", epath, str(fdir)], fdir / "manifest.json"


def _count_not_integer(tmp_path):
    return _form_c_bundle(tmp_path, lambda m: m.update(n_x="abc"))


def _entries_not_list(tmp_path):
    return _form_c_bundle(tmp_path, lambda m: m.update(entries=5))


def _entry_file_not_string(tmp_path):
    return _form_c_bundle(tmp_path, lambda m: m["entries"][0].update(file=7))


def _member_of_wrong_shape(tmp_path):
    argv, _ = _form_c_bundle(tmp_path)
    matio.write_matrix(tmp_path / "fact" / "x_02.json", np.eye(1))
    return argv, tmp_path / "fact" / "x_02.json"


def _cpsd_factor_of_wrong_shape(tmp_path):
    epath = _write(tmp_path, "E.json", E3)
    pc, factors = str(tmp_path / "PC.json"), tmp_path / "factors"
    assert run(["--quiet", "cpsd", "build-pc", epath, "-o", pc, "--factors", str(factors)]) == 0
    matio.write_matrix(factors / "factor_02_m.json", np.array([[0.5]]))
    return ["cpsd", "verify", pc, str(factors)], factors / "factor_02_m.json"


def _weight_not_square(tmp_path):
    argv, _ = _form_c_bundle(tmp_path)
    matio.write_matrix(tmp_path / "fact" / "k.json", np.ones((2, 3)))
    return argv, tmp_path / "fact" / "k.json"


def _weight_of_another_size(tmp_path):
    """A 2 x 2 weight next to the 4 x 4 involutions of a rank-4 point."""
    argv, _ = _form_c_bundle(tmp_path, e=gen_extreme_lex(4)[0])
    matio.write_matrix(tmp_path / "fact" / "k.json", np.eye(2) / np.sqrt(2.0))
    return argv, tmp_path / "fact" / "k.json"


def _tensor_rep_with_state(tmp_path, state, stored):
    """A d=2 representation bundle whose state file is replaced by ``stored``; returns the eval argv and that file."""
    rdir = tmp_path / "rep"
    matio.save_tensor_rep(rdir, TensorProductRep([PAULI_X], [PAULI_X], **state))
    matio.write_matrix(rdir / "state.json", stored)
    return ["quantum", "eval", str(rdir)], rdir / "state.json"


def _density_not_square(tmp_path):
    return _tensor_rep_with_state(tmp_path, {"rho": np.eye(4) / 4}, np.ones((4, 3)) / 4)


def _state_not_a_column(tmp_path):
    return _tensor_rep_with_state(tmp_path, {"psi": maximally_entangled(2)}, np.eye(2) / np.sqrt(2))


def _state_of_another_length(tmp_path):
    return _tensor_rep_with_state(tmp_path, {"psi": maximally_entangled(2)}, np.ones((3, 1)) / np.sqrt(3))


def _density_of_another_size(tmp_path):
    return _tensor_rep_with_state(tmp_path, {"rho": np.eye(4) / 4}, np.eye(2) / 2)


@pytest.mark.parametrize(
    "make_input",
    [
        _huge_integer_entry,
        _boolean_rows,
        _non_utf8_file,
        _count_not_integer,
        _entries_not_list,
        _entry_file_not_string,
        _member_of_wrong_shape,
        _cpsd_factor_of_wrong_shape,
        _weight_not_square,
        _density_not_square,
        _state_not_a_column,
        _weight_of_another_size,
        _state_of_another_length,
        _density_of_another_size,
    ],
)
def test_malformed_input_exits_two(tmp_path, capsys, make_input):
    argv, offending = make_input(tmp_path)
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {offending}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cached_parser_answers_like_fresh_ones(tmp_path, capsys, monkeypatch):
    """run() keeps one parser; calls in a row print and exit as with a parser built per call."""
    epath = _write(tmp_path, "E.json", E3)
    commands = [
        ["elliptope", "check-extreme", epath],
        ["--quiet", "elliptope", "check-extreme", epath],
        ["bogus"],
        ["elliptope", "check-extreme"],
        ["--eq-tol", "-1", "elliptope", "check-extreme", epath],
        ["factorize", "clifford-identity", epath, str(tmp_path)],
        ["clifford", "--help"],
        ["elliptope", "rmax", "-n", "10"],
    ]

    def answers():
        got = []
        for argv in commands + commands:
            code = run(list(argv))
            got.append((code, *capsys.readouterr()))
        return got

    cached = answers()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert cached == answers()
    assert cli.build_parser() is not cli.build_parser()
