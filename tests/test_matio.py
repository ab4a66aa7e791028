"""The table-driven matrix and bundle codec against the per-entry codec and the
five hand-written save/load pairs it replaced (kept in ``oracles.py``).

Files must be byte-identical to the oracle's, loads must return the same
dtype and bits, and every message naming a bad ``data[idx]`` is unchanged.
Canonical files with repeated entries are read without the JSON parse, any
other valid JSON reads like the oracle, and a file JSON rejects fails with the
oracle's message.
"""

import json
import re

import numpy as np
import pytest

from corrfact import matio
from corrfact.cli import run
from corrfact.cpsd import CpsdFactorization, build_cpsd_factorization, extract_matrix_factorization
from corrfact.clifford import gamma_generators
from corrfact.elliptope import CSystem, gen_extreme_lex, gram_factors
from corrfact.errors import MatrixFormatError
from corrfact.factorization import FormBFactorization, MatrixFactorization, factorize_clifford, to_form_c
from corrfact.quantum import TensorProductRep, build_tensor_rep

import oracles

KINDS = {
    "clifford_generators": ("save_generators", "load_generators"),
    "matrix_factorization": ("save_matrix_factorization", "load_matrix_factorization"),
    "form_b_factorization": ("save_form_b", "load_form_b"),
    "cpsd_factorization": ("save_cpsd_factorization", "load_cpsd_factorization"),
    "tensor_product_rep": ("save_tensor_rep", "load_tensor_rep"),
}


def _lex(r):
    return gen_extreme_lex(r)[0]


def _tensor_rep(r):
    e = _lex(r)
    h = e.shape[0] // 2
    u = gram_factors(e)
    return build_tensor_rep(e[:h, h:], CSystem(u[:h], u[h:]))


def _bundles():
    """(id, kind, object, extra save args) for every bundle kind and its edge cases."""
    out = []
    for r in (1, 2, 3, 5):
        gens = gamma_generators(r)
        out.append((f"generators_r{r}", "clifford_generators", gens.generators, (gens.rank,)))
    for r in (1, 3, 4):
        fb = factorize_clifford(_lex(r))
        out.append((f"form_b_r{r}", "form_b_factorization", fb, ()))
        out.append((f"form_c_r{r}", "matrix_factorization", to_form_c(fb), ()))
        out.append((f"cpsd_r{r}", "cpsd_factorization", build_cpsd_factorization(_lex(r)), ()))
    mf = to_form_c(factorize_clifford(_lex(3)))
    out.append(("form_c_empty_y", "matrix_factorization", MatrixFactorization(mf.x_mats, mf.y_mats[:0], mf.k), ()))
    fb = factorize_clifford(_lex(3))
    out.append(("form_b_empty_b", "form_b_factorization", FormBFactorization(fb.a_mats, fb.b_mats[:0]), ()))
    rep = _tensor_rep(4)
    out.append(("tensor_psi", "tensor_product_rep", rep, ()))
    out.append(("tensor_density", "tensor_product_rep", TensorProductRep(rep.alice_obs, rep.bob_obs, rho=rep.density()), ()))
    out.append(("tensor_empty_bob", "tensor_product_rep", TensorProductRep(rep.alice_obs, rep.bob_obs[:0], psi=rep.psi), ()))
    out.append(("extracted_r5", "matrix_factorization", extract_matrix_factorization(build_cpsd_factorization(_lex(5)))[0], ()))
    real = CpsdFactorization(build_cpsd_factorization(_lex(2)).mats.real.copy())
    out.append(("cpsd_real_files", "cpsd_factorization", real, ()))
    return out


BUNDLES = _bundles()


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        return
    fields = [f for f in vars(want) if getattr(want, f) is not None]
    assert [f for f in vars(got) if getattr(got, f) is not None] == fields
    for field in fields:
        _assert_same_bits(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("name, kind, obj, extra", BUNDLES, ids=[b[0] for b in BUNDLES])
def test_bundle_files_and_loads_match_oracle(tmp_path, name, kind, obj, extra):
    save, load = KINDS[kind]
    getattr(matio, save)(tmp_path / "new", obj, *extra)
    getattr(oracles, save)(tmp_path / "old", obj, *extra)
    assert _files(tmp_path / "new") == _files(tmp_path / "old")
    assert json.loads((tmp_path / "new" / matio.MANIFEST_NAME).read_text())["kind"] == kind
    _assert_same_bits(getattr(matio, load)(tmp_path / "old"), getattr(oracles, load)(tmp_path / "old"))


def test_family_shared_by_two_roles_is_encoded_once(tmp_path, monkeypatch):
    """Extraction returns X as Y: the y files are the x texts, encoded once, n_x + 1 encodings with k."""
    mf = extract_matrix_factorization(build_cpsd_factorization(_lex(5)))[0]
    assert mf.y_mats is mf.x_mats
    matio.save_matrix_factorization(tmp_path / "copy", MatrixFactorization(mf.x_mats, mf.x_mats.copy(), mf.k))
    calls = []
    encode = matio.matrix_text
    monkeypatch.setattr(matio, "matrix_text", lambda m: calls.append(1) or encode(m))
    matio.save_matrix_factorization(tmp_path / "shared", mf)
    assert len(calls) == mf.sizes[0] + 1
    assert _files(tmp_path / "shared") == _files(tmp_path / "copy")


# Few distinct entries, as in generator-built factors: these files take the canonical read.
EXTREMES = [5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308, -1.7976931348623157e308, 0.0]
REPEATED = {
    "repeated_psd_factor": build_cpsd_factorization(gen_extreme_lex(8)[0]).mats[3, 1],
    "repeated_signed_zeros": np.resize([0.0, -0.0, 0.0, 1.0], (16, 16)),
    "repeated_extremes": np.resize(EXTREMES, (16, 16)),
    "repeated_integers": np.resize([-1, 0, 0, 2], (16, 16)),
    "repeated_float32": np.resize(np.float32([0.1, 0.0, -2.5]), (16, 16)),
    "repeated_complex64": np.resize(np.complex64([0.1 + 1j, 0.0, -1j]), (16, 16)),
    "repeated_same_real_parts": np.resize([1 + 0j, 1 + 1j, 1 - 1j, complex(1, -0.0), complex(-0.0, 1)], (16, 16)),
    "repeated_one_d": np.resize([0.0, 1.0, -0.5], 64),
    "repeated_strided": np.resize([0.0, 0.5, -0.0, 1 - 1j], (48, 48))[::2, 1::3],
}


def _matrices():
    rng = np.random.default_rng(5)
    scaled = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-300, 300, size=(4, 3))
    tiny = np.array([[5e-324, -5e-324], [2.2250738585072014e-308 / 3, -0.0]])
    return {
        "real": rng.standard_normal((3, 5)),
        "real_scaled": scaled,
        "complex": rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
        "negative_zero": np.array([[-0.0, 0.0], [1.0, -0.0]]),
        "complex_negative_zero": np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)]]),
        "subnormal": tiny,
        "complex_subnormal": tiny + 1j * tiny[::-1],
        "one_d": rng.standard_normal(6),
        "one_d_complex": rng.standard_normal(3) - 2j,
        "integers": np.arange(6).reshape(2, 3),
        "float32": rng.standard_normal((2, 2)).astype(np.float32),
        "complex64": (rng.standard_normal((2, 2)) + 1j).astype(np.complex64),
        "fortran_order": np.asfortranarray(rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))),
        "strided": rng.standard_normal((6, 6))[::2, 1::2],
        "empty_rows": np.zeros((0, 3)),
        "empty_rows_complex": np.zeros((0, 3), dtype=complex),
        **REPEATED,
    }


MATRICES = _matrices()


@pytest.mark.parametrize("name", list(MATRICES))
def test_matrix_files_and_reads_match_oracle(tmp_path, name):
    m = MATRICES[name]
    matio.write_matrix(tmp_path / "new.json", m)
    oracles.write_matrix(tmp_path / "old.json", m)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
    obj = json.loads((tmp_path / "old.json").read_text())
    if obj["rows"] * obj["cols"] == 0:
        return  # neither side reads an empty matrix back
    _assert_same_bits(matio.read_matrix(tmp_path / "old.json"), oracles.read_matrix(tmp_path / "old.json"))


@pytest.mark.parametrize("name", list(REPEATED))
def test_canonical_files_are_read_without_the_json_parse(tmp_path, monkeypatch, name):
    path = tmp_path / "m.json"
    oracles.write_matrix(path, REPEATED[name])
    want = oracles.read_matrix(path)

    def no_json(path, parse):
        raise AssertionError(f"{path} went through the JSON parse")

    monkeypatch.setattr(matio, "_read_json", no_json)
    _assert_same_bits(matio.read_matrix(path), want)


# Canonical texts with known first entries: 100.0 then 2.0 (real), [100.0, 2.0] then [0.0, 0.0] (complex).
REAL_TEXT = matio.matrix_text(np.resize([100.0, 2.0, -0.0, 0.0], (16, 16))) + "\n"
COMPLEX_TEXT = matio.matrix_text(np.resize([100 + 2j, 0j, complex(-0.0, -1.0)], (16, 16))) + "\n"


def _reordered(text):
    obj = json.loads(text)
    return json.dumps({key: obj[key] for key in ("data", "complex", "cols", "rows")}) + "\n"


VALID_VARIANTS = {
    "pretty": lambda text: json.dumps(json.loads(text), indent=2) + "\n",
    "reordered_keys": _reordered,
    "exponent": lambda text: text.replace("100.0", "1E+2", 1),
    "integers": lambda text: text.replace("2.0", "2"),
    "trailing_whitespace": lambda text: text[:-1] + "  \n\t\n",
    "no_final_newline": lambda text: text[:-1],
}


@pytest.mark.parametrize("text", [REAL_TEXT, COMPLEX_TEXT], ids=["real", "complex"])
@pytest.mark.parametrize("variant", list(VALID_VARIANTS))
def test_other_valid_json_reads_like_oracle(tmp_path, text, variant):
    assert matio._canonical_matrix(text) is not None
    path = tmp_path / "m.json"
    path.write_text(VALID_VARIANTS[variant](text))
    assert path.read_text() != text
    _assert_same_bits(matio.read_matrix(path), oracles.read_matrix(path))


BAD_FILES = {word: REAL_TEXT.replace("2.0", word, 1) for word in (".5", "01", "+1", "1.", "NaN", "Infinity", "nan", "-inf", "1_0", "0x10")}
BAD_FILES["trailing_comma"] = REAL_TEXT.replace("]}", ", ]}")
BAD_FILES["rows_too_many"] = REAL_TEXT.replace('"rows": 16', '"rows": 17', 1)
BAD_FILES["rows_leading_zero"] = REAL_TEXT.replace('"rows": 16', '"rows": 016', 1)
BAD_FILES["bracket_for_brace"] = REAL_TEXT[:-3] + "]]\n"
BAD_FILES["parenthesis_for_bracket"] = COMPLEX_TEXT.replace('"data": [[', '"data": [(', 1)
BAD_FILES["mis_paired"] = COMPLEX_TEXT.replace("[100.0, 2.0], [0.0, 0.0]", "[100.0, 2.0, 0.0], [0.0]", 1)
BAD_FILES["mis_paired_integers"] = COMPLEX_TEXT.replace("[100.0, 2.0], [0.0, 0.0]", "[1, 2, 3], [4]", 1)


def _oracle_message(path):
    """The message the JSON-only reader gives for a file that fails to read."""
    try:
        oracles.read_matrix(path)
    except json.JSONDecodeError as exc:
        return f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
    except MatrixFormatError as exc:
        return str(exc)
    raise AssertionError(f"the oracle read {path}")


@pytest.mark.parametrize("name", list(BAD_FILES))
def test_files_json_rejects_still_exit_two(tmp_path, capsys, name):
    text = BAD_FILES[name]
    assert text not in (REAL_TEXT, COMPLEX_TEXT)
    assert matio._canonical_matrix(text) is None
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["elliptope", "check-extreme", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {_oracle_message(path)}\n"


def test_reader_accepts_integers_and_bit_exact_floats_like_oracle():
    for data in ([1, -2, 3.5, 2**60 + 1], [[1, 0], [-3, 2.5], [0.1, 2**53 + 1]]):
        obj = {"rows": 2, "cols": 2, "complex": isinstance(data[0], list), "data": data}
        if obj["complex"]:
            obj["rows"], obj["cols"] = 3, 1
        _assert_same_bits(matio.matrix_from_obj(obj), oracles.matrix_from_obj(obj))


BAD_DATA = {
    "string": (False, [1.0, "2", 3.0]),
    "none": (False, [None, 1.0, 2.0]),
    "bool": (False, [1.0, 2.0, True]),
    "list_in_real": (False, [1.0, [2.0], 3.0]),
    "nan": (False, [1.0, float("nan"), 3.0]),
    "inf": (False, [float("-inf"), 1.0, 2.0]),
    "type_before_nan": (False, [float("inf"), "x", 3.0]),
    "nan_before_type": (False, [1.0, float("nan"), "x"]),
    "complex_number": (True, [[1.0, 0.0], 2.0, [3.0, 0.0]]),
    "complex_short": (True, [[1.0, 0.0], [2.0], [3.0, 0.0]]),
    "complex_long": (True, [[1.0, 0.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
    "complex_bool_part": (True, [[1.0, 0.0], [2.0, False], [3.0, 0.0]]),
    "complex_string_part": (True, [[1.0, "0"], [2.0, 0.0], [3.0, 0.0]]),
    "complex_nan_part": (True, [[1.0, 0.0], [2.0, 0.0], [3.0, float("nan")]]),
    "complex_tuple": (True, [[1.0, 0.0], (2.0, 0.0), [3.0, 0.0]]),
}


@pytest.mark.parametrize("name", list(BAD_DATA))
def test_bad_entry_messages_match_oracle(name):
    is_complex, data = BAD_DATA[name]
    obj = {"rows": 3, "cols": 1, "complex": is_complex, "data": data}
    with pytest.raises(MatrixFormatError) as want:
        oracles.matrix_from_obj(obj)
    with pytest.raises(MatrixFormatError) as got:
        matio.matrix_from_obj(obj)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("data[")


@pytest.mark.parametrize(
    "obj",
    [
        [1.0],
        {"rows": 1, "cols": 1, "data": [1.0]},
        {"rows": 0, "cols": 1, "complex": False, "data": []},
        {"rows": 1.0, "cols": 1, "complex": False, "data": [1.0]},
        {"rows": 2, "cols": 1, "complex": False, "data": [1.0]},
        {"rows": 1, "cols": 1, "complex": False, "data": 1.0},
    ],
)
def test_header_messages_match_oracle(obj):
    with pytest.raises(MatrixFormatError) as want:
        oracles.matrix_from_obj(obj)
    with pytest.raises(MatrixFormatError) as got:
        matio.matrix_from_obj(obj)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"rows": True, "cols": 1, "complex": False, "data": [1.0]}, "rows/cols must be positive integers"),
        ({"rows": 1, "cols": 1, "complex": False, "data": [10**400]}, "data[0] is non-finite"),
        ({"rows": 2, "cols": 1, "complex": True, "data": [[0, 0], [1, -(10**400)]]}, "data[1] is non-finite"),
    ],
)
def test_entries_the_oracle_crashed_on_are_format_errors(obj, message):
    with pytest.raises(MatrixFormatError, match=re.escape(message)):
        matio.matrix_from_obj(obj)


def _edit_manifest(directory, edit):
    path = directory / matio.MANIFEST_NAME
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def _set_entry(position, key, value):
    def edit(manifest):
        manifest["entries"][position][key] = value

    return edit


COUNT = "must be a non-negative integer"
ENTRY = "string role and a plain file name"
SLOTS = "slots once each"
MANIFEST_EDITS = {
    "count_string": (lambda m: m.update(n_x="abc"), COUNT),
    "count_bool": (lambda m: m.update(n_x=True), COUNT),
    "count_negative": (lambda m: m.update(n_y=-1), COUNT),
    "count_float": (lambda m: m.update(n_x=float(m["n_x"])), COUNT),
    "count_too_large": (lambda m: m.update(n_x=m["n_x"] + 1), SLOTS),
    "entries_not_list": (lambda m: m.update(entries=5), "list of 'entries'"),
    "entry_not_object": (lambda m: m["entries"].append("x_01.json"), ENTRY),
    "role_not_string": (_set_entry(0, "role", 1), ENTRY),
    "role_missing": (lambda m: m["entries"][0].pop("role"), ENTRY),
    "file_not_string": (_set_entry(0, "file", 1), ENTRY),
    "file_in_parent": (_set_entry(0, "file", "../E.json"), ENTRY),
    "file_in_subdirectory": (_set_entry(0, "file", "sub/x_01.json"), ENTRY),
    "file_absolute": (_set_entry(0, "file", "/x_01.json"), ENTRY),
    "file_dot_dot": (_set_entry(0, "file", ".."), ENTRY),
    "index_bool": (_set_entry(0, "index", True), SLOTS),
    "index_string": (_set_entry(0, "index", "1"), SLOTS),
    "index_duplicate": (_set_entry(1, "index", 1), SLOTS),
    "weight_missing": (lambda m: m["entries"].pop(), SLOTS),
    "weight_twice": (lambda m: m["entries"].append(dict(m["entries"][-1])), SLOTS),
    "wrong_kind": (lambda m: m.update(kind="form_b_factorization"), "expected a matrix_factorization directory"),
}


@pytest.mark.parametrize("name", list(MANIFEST_EDITS))
def test_malformed_manifest_is_a_format_error(tmp_path, name):
    edit, message = MANIFEST_EDITS[name]
    directory = tmp_path / "fact"
    matio.save_matrix_factorization(directory, to_form_c(factorize_clifford(_lex(3))))
    matio.write_matrix(tmp_path / "E.json", _lex(3))  # a real file outside the bundle
    _edit_manifest(directory, edit)
    with pytest.raises(MatrixFormatError, match=re.escape(message)):
        matio.load_matrix_factorization(directory)


def test_family_members_must_share_one_square_shape(tmp_path):
    directory = tmp_path / "fact"
    matio.save_form_b(directory, factorize_clifford(_lex(4)))
    matio.write_matrix(directory / "a_02.json", np.eye(2))
    with pytest.raises(MatrixFormatError, match="one shape"):
        matio.load_form_b(directory)
    matio.save_generators(tmp_path / "gens", np.zeros((3, 2, 3)), 3)
    with pytest.raises(MatrixFormatError, match="square"):
        matio.load_generators(tmp_path / "gens")


def test_cpsd_bundle_needs_a_factor(tmp_path):
    directory = tmp_path / "cpsd"
    matio.save_cpsd_factorization(directory, build_cpsd_factorization(_lex(2)))
    _edit_manifest(directory, lambda m: m.update(n=0, entries=[]))
    with pytest.raises(MatrixFormatError, match="n >= 1"):
        matio.load_cpsd_factorization(directory)


def test_entries_may_be_listed_in_any_order_under_any_file_name(tmp_path):
    directory = tmp_path / "rep"
    rep = _tensor_rep(3)
    matio.save_tensor_rep(directory, rep)
    (directory / "alice_obs_01.json").rename(directory / "first alice.json")

    def edit(manifest):
        manifest["entries"][0]["file"] = "first alice.json"
        manifest["entries"].reverse()

    _edit_manifest(directory, edit)
    _assert_same_bits(matio.load_tensor_rep(directory), oracles.load_tensor_rep(directory))


def test_read_errors_start_with_the_path(tmp_path):
    path = tmp_path / "E.json"
    matio.write_matrix(path, np.eye(2))
    path.write_text(path.read_text()[:30])
    with pytest.raises(MatrixFormatError, match=re.escape(f"{path}: malformed JSON at line 1, column ")):
        matio.read_matrix(path)
    path.write_bytes(b"\xff")
    with pytest.raises(MatrixFormatError, match=re.escape(f"{path}: 'utf-8' codec can't decode byte 0xff")):
        matio.read_matrix(path)
    path.write_text('{"rows": 1, "cols": 1, "complex": false, "data": [null]}')
    with pytest.raises(MatrixFormatError, match=re.escape(f"{path}: data[0] must be a number, got None")):
        matio.read_matrix(path)
    directory = tmp_path / "gens"
    matio.save_generators(directory, gamma_generators(3).generators, 3)
    (directory / matio.MANIFEST_NAME).write_text("{")
    with pytest.raises(MatrixFormatError, match=re.escape(f"{directory / matio.MANIFEST_NAME}: malformed JSON")):
        matio.load_generators(directory)
