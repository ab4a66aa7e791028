"""JSON file formats: matrices, verification reports, and factorization
directories with role manifests.

A matrix file is ``{"rows": R, "cols": C, "complex": BOOL, "data": [...]}``
with row-major data; real entries are plain numbers, complex entries are
``[re, im]`` pairs.  Numbers are serialized in shortest round-trip decimal
form, so a write/read cycle reproduces entries bit-exactly.  Non-finite
numbers are rejected on both sides.  Files are written in one canonical
layout (``matrix_text``, the text of ``json.dumps``); a file in that layout
is read without the generic JSON parse, and any other valid JSON still reads.

A factorization directory (a bundle) holds one matrix file per matrix plus a
``manifest.json`` declaring each file's role, so verifiers never infer roles
from filenames.  ``BUNDLES`` is the one place where a bundle format is
defined; one writer and one validating reader derive file names, entry
order, counts and checks from it.  The witness block convention (outcome +1
before -1 inside each 2x2 block) is recorded in the cpsd manifest.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cpsd import CpsdFactorization
from .errors import MatrixFormatError
from .factorization import FormBFactorization, MatrixFactorization
from .linalg import ToleranceConfig
from .quantum import TensorProductRep
from .report import CheckResult, VerificationReport

MANIFEST_NAME = "manifest.json"
BLOCK_ORDER_NOTE = "row of pair (i, a) is 2*(i-1) + (0 if a == +1 else 1), 1-based i"


def _words(values: list, is_complex: bool) -> list[str]:
    """The text of each value as an entry of ``data``: ``repr`` of a real, ``re, im`` of a complex."""
    return [f"{z.real!r}, {z.imag!r}" for z in values] if is_complex else list(map(repr, values))


def matrix_text(m) -> str:
    """The canonical text of a matrix file, without the final newline.

    It equals ``json.dumps`` of the matrix object, but each distinct entry is
    formatted once: entries are grouped by bit pattern (an int64 view of a
    real, a 16-byte key of a complex, so -0.0 and 0.0 stay apart) and
    ``data`` is one fancy index into the distinct words and one join.
    """
    a = np.asarray(m)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise MatrixFormatError(f"matrix must be 1-D or 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise MatrixFormatError("matrix contains non-finite entries")
    is_complex = bool(np.iscomplexobj(a))
    flat = np.asarray(a, dtype=complex if is_complex else float).ravel()
    keys, inverse = np.unique(flat.view(np.dtype((np.void, 16)) if is_complex else np.int64), return_inverse=True)
    words = _words(keys.view(flat.dtype).tolist(), is_complex)
    chosen = np.array(words, dtype=object)[inverse].tolist()
    data = f"[{'], ['.join(chosen)}]" if is_complex and chosen else ", ".join(chosen)
    flag = "true" if is_complex else "false"
    return f'{{"rows": {a.shape[0]}, "cols": {a.shape[1]}, "complex": {flag}, "data": [{data}]}}'


# sizes as JSON writes them (no leading zero), and short enough that int() cannot fail
_HEADER = re.compile(r'\{"rows": ([1-9][0-9]{0,17}), "cols": ([1-9][0-9]{0,17}), "complex": (true|false), "data": \[')


def _canonical_matrix(text: str) -> np.ndarray | None:
    """The matrix of a file that ``write_matrix`` could have written, else None.

    ``data`` is split into its entry words and each distinct word is parsed
    once.  The result is kept only if each distinct word is the writer's
    word for its finite value, that is if re-encoding the result gives the
    text back; the JSON parse then returns the same bits.  Checking a word
    costs about three JSON parses of it, so data in which more than one word
    in eight is distinct (dense data) also gives None; for most dense files
    the first 4 KiB of ``data`` decide that without splitting the rest.
    """
    head = _HEADER.match(text)
    if head is None or not text.endswith("]}\n"):
        return None
    rows, cols, is_complex = int(head[1]), int(head[2]), head[3] == "true"
    body, sep = text[head.end() : -3], ", "
    if is_complex:
        if not (body.startswith("[") and body.endswith("]")):
            return None
        body, sep = body[1:-1], "], ["
    prefix = body[:4096].split(sep)
    if 8 * len(set(prefix)) > len(prefix):
        return None
    words = body.split(sep)
    distinct = list(set(words))
    if len(words) != rows * cols or 8 * len(distinct) > len(words):
        return None
    try:
        if is_complex:
            pairs = [word.partition(", ") for word in distinct]
            values = np.array([(float(re_), float(im)) for re_, _, im in pairs]).view(complex).ravel()
        else:
            values = np.array(list(map(float, distinct)))
    except ValueError:
        return None
    if not np.isfinite(values).all() or _words(values.tolist(), is_complex) != distinct:
        return None
    index = dict(zip(distinct, range(len(distinct))))
    return values[np.fromiter(map(index.__getitem__, words), np.intp, len(words))].reshape(rows, cols)


def _check_entries(data: list, is_complex: bool) -> None:
    """Raise for the first entry that is not a finite number (a finite [re, im] pair if complex)."""
    for idx, entry in enumerate(data):
        parts = entry if is_complex else [entry]
        if (is_complex and not (isinstance(entry, list) and len(entry) == 2)) or not all(
            isinstance(part, (int, float)) and not isinstance(part, bool) for part in parts
        ):
            what = "a [re, im] pair" if is_complex else "a number"
            raise MatrixFormatError(f"data[{idx}] must be {what}, got {entry!r}")
        try:
            finite = all(math.isfinite(part) for part in parts)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise MatrixFormatError(f"data[{idx}] is non-finite")


def matrix_from_obj(obj) -> np.ndarray:
    """Parse a matrix object: entries of exact type int or float convert in one
    array, and the per-entry loop runs only to name a bad entry."""
    if not isinstance(obj, dict):
        raise MatrixFormatError("matrix object must be a JSON object")
    for key in ("rows", "cols", "complex", "data"):
        if key not in obj:
            raise MatrixFormatError(f"matrix object missing key {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not (type(rows) is int and type(cols) is int and rows > 0 and cols > 0):
        raise MatrixFormatError(f"rows/cols must be positive integers, got {rows!r}, {cols!r}")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise MatrixFormatError(f"data must hold {rows * cols} entries, got {len(data) if isinstance(data, list) else type(data).__name__}")
    is_complex = bool(obj["complex"])
    if is_complex:
        pairs = set(map(type, data)) == {list} and set(map(len, data)) == {2}
        plain = pairs and set(map(type, chain.from_iterable(data))) <= {int, float}
    else:
        plain = set(map(type, data)) <= {int, float}
    try:
        out = np.array(data, dtype=float) if plain else None
    except OverflowError:
        out = None
    if out is None or not np.isfinite(out).all():
        _check_entries(data, is_complex)
        out = np.array(data, dtype=float)
    return (out.view(complex) if is_complex else out).reshape(rows, cols)


def write_matrix(path, m) -> None:
    Path(path).write_text(matrix_text(m) + "\n", encoding="utf-8")


def _read_json(path, parse):
    """``parse`` of the JSON value in a file; decoding and format errors start with the path."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (UnicodeDecodeError, MatrixFormatError) as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc


def read_matrix(path) -> np.ndarray:
    """A canonical file is read by ``_canonical_matrix``; any other file goes through
    the JSON parse, which alone accepts other layouts and words the errors."""
    try:
        out = _canonical_matrix(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        out = None
    return _read_json(path, matrix_from_obj) if out is None else out


@dataclass(frozen=True)
class ReportFile:
    """Serializable verification outcome for one CLI command."""

    command: str
    passed: bool
    max_deviation: float
    details: tuple[CheckResult, ...]
    tolerances: ToleranceConfig
    seed: int | None = None

    @classmethod
    def from_report(
        cls,
        command: str,
        report: VerificationReport,
        tolerances: ToleranceConfig,
        seed: int | None = None,
        passed: bool | None = None,
    ) -> "ReportFile":
        return cls(
            command=command,
            passed=report.passed if passed is None else passed,
            max_deviation=report.max_deviation,
            details=report.checks,
            tolerances=tolerances,
            seed=seed,
        )

    def to_obj(self) -> dict:
        details = []
        for c in self.details:
            entry = {"name": c.name, "passed": c.passed, "deviation": c.deviation}
            if c.note:
                entry["note"] = c.note
            if c.value is not None:
                entry["value"] = c.value
            details.append(entry)
        return {
            "command": self.command,
            "pass": self.passed,
            "max_deviation": self.max_deviation,
            "details": details,
            "tolerances": {
                "eq_tol": self.tolerances.eq_tol,
                "psd_tol": self.tolerances.psd_tol,
                "rank_tol": self.tolerances.rank_tol,
            },
            "seed": self.seed,
        }


class Role(NamedTuple):
    """One role of a bundle, listed in the manifest under one of ``names``.

    With ``{i}`` in the ``file`` pattern the role is a family of square matrices
    of one shape, indexed 1..count (a (count, d, d) stack); ``{o}`` pairs each
    index with outcome +1 (``p``) then -1 (``m``) (a (count, 2, d, d) stack).
    ``count`` is the manifest key of the family size (None: count the
    entries); an empty family takes its matrix size from role ``like``.  A
    single matrix has d**``power`` rows, d being the matrix size of the
    bundle's first nonempty family.
    """

    names: tuple[str, ...]
    file: str
    count: str | None = None
    like: str | None = None
    power: int = 1


# kind -> (manifest keys after "kind", roles), both in file order
BUNDLES: dict[str, tuple[tuple[str, ...], tuple[Role, ...]]] = {
    "clifford_generators": (("rank", "dim"), (Role(("generator",), "generator_{i:02d}.json"),)),
    "matrix_factorization": (
        ("dim", "n_x", "n_y"),
        (Role(("x",), "x_{i:02d}.json", "n_x"), Role(("y",), "y_{i:02d}.json", "n_y", "k"), Role(("k",), "k.json")),
    ),
    "form_b_factorization": (
        ("dim", "n_a", "n_b"),
        (Role(("a",), "a_{i:02d}.json", "n_a"), Role(("b",), "b_{i:02d}.json", "n_b", "a")),
    ),
    "cpsd_factorization": (("n", "dim", "block_order"), (Role(("psd_factor",), "factor_{i:02d}_{o}.json", "n"),)),
    "tensor_product_rep": (
        ("local_dim", "n_alice", "n_bob"),
        (
            Role(("alice_obs",), "alice_obs_{i:02d}.json", "n_alice"),
            Role(("bob_obs",), "bob_obs_{i:02d}.json", "n_bob", "alice_obs"),
            Role(("state_vector", "density"), "state.json", power=2),
        ),
    ),
}


def _slots(role: Role, count: int) -> list[tuple]:
    """(index, outcome) of each entry of one role in file order; None where the role has no such field."""
    if "{i" not in role.file:
        return [(None, None)]
    return [(i, outcome) for i in range(1, count + 1) for outcome in ((1, -1) if "{o}" in role.file else (None,))]


def _save(dirpath, kind: str, stacks: dict[str, np.ndarray], **meta) -> None:
    """Write the matrices of each role, found in ``stacks`` by role name, then the manifest.

    A role whose stack is the very array of an earlier role (an extracted
    factorization's Y family is its X family) writes that role's texts again
    without encoding them a second time.
    """
    keys, roles = BUNDLES[kind]
    directory = Path(dirpath)
    directory.mkdir(parents=True, exist_ok=True)
    entries, encoded = [], []
    for role in roles:
        name = next(name for name in role.names if name in stacks)
        stack = stacks[name]
        slots = _slots(role, len(stack))
        if role.count:
            meta[role.count] = len(stack)
        texts = next((texts for earlier, texts in encoded if earlier is stack), None)
        if texts is None:
            texts = [matrix_text(m) for m in np.reshape(stack, (len(slots),) + np.shape(stack)[-2:])]
            encoded.append((stack, texts))
        for (index, outcome), text in zip(slots, texts):
            file = role.file.format(i=index, o={1: "p", -1: "m"}.get(outcome))
            (directory / file).write_text(text + "\n", encoding="utf-8")
            entry = {"role": name, "index": index, "outcome": outcome, "file": file}
            entries.append({key: value for key, value in entry.items() if value is not None})
    manifest = {"kind": kind, **{key: meta[key] for key in keys}, "entries": entries}
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def _role_files(kind: str, manifest) -> list[tuple[Role, str, tuple[int, ...], list[str]]]:
    """Validate a manifest against ``BUNDLES[kind]``; per role in table order, the
    role name used, the family shape (() for a single matrix) and the files in slot order."""
    if not isinstance(manifest, dict) or "kind" not in manifest or not isinstance(manifest.get("entries"), list):
        raise MatrixFormatError("manifest must carry 'kind' and a list of 'entries'")
    if manifest["kind"] != kind:
        raise MatrixFormatError(f"expected a {kind} directory, found kind {manifest['kind']!r}")
    for entry in manifest["entries"]:
        file = entry.get("file") if isinstance(entry, dict) else None
        plain = isinstance(file, str) and file not in ("", "..") and Path(file).name == file
        if not (plain and isinstance(entry.get("role"), str)):
            raise MatrixFormatError(f"manifest entry needs a string role and a plain file name: {entry!r}")
    out = []
    for role in BUNDLES[kind][1]:
        mine = [entry for entry in manifest["entries"] if entry["role"] in role.names]
        count = manifest.get(role.count, 0) if role.count else len(mine)
        if type(count) is not int or count < 0:
            raise MatrixFormatError(f"manifest {role.count} must be a non-negative integer, got {count!r}")
        # repr tells 1 from True, 1.0 and "1": only exact integers fill a slot
        slots = [repr(slot) for slot in _slots(role, count)]
        files = {repr((entry.get("index"), entry.get("outcome"))): entry["file"] for entry in mine}
        if len(files) != len(mine) or set(files) != set(slots):
            what = "/".join(role.names)
            raise MatrixFormatError(f"{what} entries must fill {len(slots)} slots once each, got {sorted(files)}")
        family = () if "{i" not in role.file else (count, 2) if "{o}" in role.file else (count,)
        out.append((role, mine[0]["role"] if mine else role.names[0], family, [files[slot] for slot in slots]))
    return out


def _load(dirpath, kind: str) -> dict[str, np.ndarray]:
    """Validate a bundle's manifest and read each role's matrices, keyed by role name in table order."""
    directory = Path(dirpath)
    if not (directory / MANIFEST_NAME).is_file():
        raise MatrixFormatError(f"no {MANIFEST_NAME} in {directory}")
    out, sized = {}, None
    for role, name, family, files in _read_json(directory / MANIFEST_NAME, lambda obj: _role_files(kind, obj)):
        mats = [read_matrix(directory / file) for file in files]
        odd = [file for file, m in zip(files, mats) if m.shape != mats[0].shape or m.shape[0] != m.shape[1]]
        if family and odd:
            shapes = sorted({m.shape for m in mats})
            raise MatrixFormatError(f"{directory / odd[0]}: {role.names[0]} matrices must be square and of one shape, got {shapes}")
        if family and mats and sized is None:
            sized = name, mats[0].shape[0]
        elif not family:
            column = name == "state_vector"  # the one single-matrix role that is not square
            rows = mats[0].shape[0] if sized is None else sized[1] ** role.power
            if mats[0].shape != (rows, 1 if column else rows):
                what = "a single column" if column else "square"
                if sized is not None:
                    what += f" of {rows} rows, as the {sized[0]} matrices are {sized[1]} x {sized[1]}"
                raise MatrixFormatError(f"{directory / files[0]}: {name} matrix must be {what}, got shape {mats[0].shape}")
        out[name] = np.stack(mats).reshape(family + mats[0].shape) if mats else np.zeros((0, 0, 0))
    for role in BUNDLES[kind][1]:
        if role.like and not len(out[role.names[0]]):
            out[role.names[0]] = np.zeros((0,) + out[role.like].shape[-2:], dtype=complex)
    return out


def save_generators(dirpath, generators: np.ndarray, rank: int) -> None:
    _save(dirpath, "clifford_generators", {"generator": generators}, rank=rank, dim=int(generators.shape[-1]))


def load_generators(dirpath) -> np.ndarray:
    return _load(dirpath, "clifford_generators")["generator"]


def save_matrix_factorization(dirpath, mf: MatrixFactorization) -> None:
    _save(dirpath, "matrix_factorization", {"x": mf.x_mats, "y": mf.y_mats, "k": mf.k}, dim=mf.dim)


def load_matrix_factorization(dirpath) -> MatrixFactorization:
    return MatrixFactorization(*_load(dirpath, "matrix_factorization").values())


def save_form_b(dirpath, fb: FormBFactorization) -> None:
    _save(dirpath, "form_b_factorization", {"a": fb.a_mats, "b": fb.b_mats}, dim=fb.dim)


def load_form_b(dirpath) -> FormBFactorization:
    return FormBFactorization(*_load(dirpath, "form_b_factorization").values())


def save_cpsd_factorization(dirpath, f: CpsdFactorization) -> None:
    _save(dirpath, "cpsd_factorization", {"psd_factor": f.mats}, dim=f.dim, block_order=BLOCK_ORDER_NOTE)


def load_cpsd_factorization(dirpath) -> CpsdFactorization:
    mats = _load(dirpath, "cpsd_factorization")["psd_factor"]
    if not len(mats):
        raise MatrixFormatError("cpsd manifest must declare n >= 1")
    return CpsdFactorization(mats.astype(complex))


def save_tensor_rep(dirpath, rep: TensorProductRep) -> None:
    state = {"density": rep.rho} if rep.psi is None else {"state_vector": rep.psi.reshape(-1, 1)}
    stacks = {"alice_obs": rep.alice_obs, "bob_obs": rep.bob_obs, **state}
    _save(dirpath, "tensor_product_rep", stacks, local_dim=rep.local_dim)


def load_tensor_rep(dirpath) -> TensorProductRep:
    roles = _load(dirpath, "tensor_product_rep")
    psi = roles["state_vector"].reshape(-1) if "state_vector" in roles else None
    return TensorProductRep(roles["alice_obs"], roles["bob_obs"], psi=psi, rho=roles.get("density"))
