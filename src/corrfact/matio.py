"""JSON file formats: matrices and factorization directories with role
manifests.

A matrix file is ``{"rows": R, "cols": C, "complex": BOOL, "data": [...]}``
with row-major data; real entries are plain numbers, complex entries are
``[re, im]`` pairs.  Numbers are serialized in shortest round-trip decimal
form, so a write/read cycle reproduces entries bit-exactly.  Non-finite
numbers are rejected on both sides.

The codec works on a family of matrix files at a time (the members of one
bundle role, or a single file) in batches of about ``linalg.BATCH_BYTES``.
The writer (``_encode``) gives every file one canonical layout, the text of
``json.dumps``, formatting each distinct value of a batch once.  The reader
(``_decode``) parses a batch of files in one byte scan and accepts it only
if re-encoding would give each text back: every file holds rows*cols
entries with canonical separators, and every entry is the writer's word for
its value.  Any other file, valid JSON in another layout or a malformed one,
is read alone through the JSON parse, which also words the errors.

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
from itertools import chain
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .cpsd import CpsdFactorization
from .errors import MatrixFormatError
from .factorization import FormBFactorization, MatrixFactorization
from .linalg import BATCH_BYTES, require_budget
from .quantum import TensorProductRep

MANIFEST_NAME = "manifest.json"
BLOCK_ORDER_NOTE = "row of pair (i, a) is 2*(i-1) + (0 if a == +1 else 1), 1-based i"

# the word of a +0.0 entry, the most bytes the word of a finite entry takes, and the
# bytes that end one complex entry and start the next
_ZERO_WORD = {False: b"0.0", True: b"[0.0, 0.0]"}
_WIDTH = 56
_SEPARATOR = int.from_bytes(b"], [", "little")
# sizes as JSON writes them (no leading zero), and short enough that int() cannot fail
_HEADER = re.compile(rb'\{"rows": ([1-9][0-9]{0,17}), "cols": ([1-9][0-9]{0,17}), "complex": (true|false), "data": \[')
# _LOW[b] keeps the first b bytes of a little-endian 8-byte window
_LOW = np.array([(1 << (8 * b)) - 1 for b in range(9)], dtype=np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier of the hash of a word's windows, key * _MIX + window


def _require_finite(a: np.ndarray) -> np.ndarray:
    if a.size and not np.all(np.isfinite(a)):
        raise MatrixFormatError("matrix contains non-finite entries")
    return a


def _encode(stack: np.ndarray) -> list[bytes]:
    """The file text, final newline included, of each matrix of a (k, rows, cols) stack of finite numbers.

    One np.unique over the bit patterns of the entries with a set bit (of
    each part, for complex data, then of the pairs of part indices) numbers
    the distinct values; +0.0 is word 0 and -0.0 keeps its own.  Each
    distinct value is formatted once (``repr``, or ``[re, im]`` of the parts'
    ``repr``), and each file's data is one gather from the word table and
    one join: the text of ``json.dumps`` of the matrix object.
    """
    k, rows, cols = stack.shape
    is_complex = bool(np.iscomplexobj(stack))
    bits = np.ascontiguousarray(stack, dtype=complex if is_complex else float).view(np.int64)
    bits = bits.reshape(-1, 2 if is_complex else 1)
    nonzero = (bits[:, 0] | bits[:, -1]) != 0
    parts, inverse = np.unique(bits[nonzero], return_inverse=True)
    words = list(map(repr, parts.view(float).tolist()))
    inverse = inverse.reshape(-1, bits.shape[1])
    if is_complex:
        pairs, inverse = np.unique(inverse[:, 0] * len(parts) + inverse[:, 1], return_inverse=True)
        words = [f"[{words[pair // len(parts)]}, {words[pair % len(parts)]}]" for pair in pairs.tolist()]
    table = np.array([_ZERO_WORD[is_complex].decode(), *words], dtype=object)
    codes = np.zeros(len(bits), dtype=np.intp)
    codes[nonzero] = inverse.reshape(-1) + 1
    head = f'{{"rows": {rows}, "cols": {cols}, "complex": {"true" if is_complex else "false"}, "data": ['
    size = rows * cols
    return [f"{head}{', '.join(table[codes[i * size : (i + 1) * size]].tolist())}]}}\n".encode() for i in range(k)]


def _family_texts(mats: np.ndarray) -> Iterator[bytes]:
    """The file texts of a (k, rows, cols) stack, encoded a batch at a time; every entry
    is checked finite before the first text is given out."""
    _require_finite(mats)
    step = max(1, BATCH_BYTES // max(mats[0:1].nbytes, 1))
    for start in range(0, len(mats), step):
        yield from _encode(mats[start : start + step])


def matrix_text(m) -> str:
    """The canonical text of a matrix file, without the final newline: ``_encode`` of one matrix."""
    a = np.asarray(m)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise MatrixFormatError(f"matrix must be 1-D or 2-D, got shape {a.shape}")
    return _encode(_require_finite(a)[None])[0][:-1].decode()


def _decode(texts: list[bytes], density: bool = True) -> list[np.ndarray] | None:
    """The matrices of a batch of file texts if ``_encode`` could have written every one, else None.

    The data of all texts is joined into one buffer and scanned once: the
    entry starts are its ``[`` bytes (complex data) or follow its ``,``
    bytes (real data), and each file must begin a new entry and hold
    rows*cols of them, separated by ``", "``.  A +0.0 entry is known by its
    length and one 8-byte window.  The other entries are keyed by their
    bytes, read as 8-byte windows with the bytes past the entry masked off,
    and grouped by a hash of the windows; every entry must equal its group's
    first byte for byte.  Each distinct number in the groups' words is
    parsed once and kept only if it is the writer's word for its finite
    value.  A batch in which more than one entry in eight is a distinct
    nonzero word (dense data, for which the JSON parse is faster) also gives
    None, unless `density` is False.
    """
    heads = [_HEADER.match(text) for text in texts]
    if None in heads or not all(text.endswith(b"]}\n") for text in texts):
        return None
    is_complex = heads[0][3] == b"true"
    if any((head[3] == b"true") != is_complex for head in heads):
        return None
    shapes = [(int(head[1]), int(head[2])) for head in heads]
    counts = [rows * cols for rows, cols in shapes]
    bodies = [memoryview(text)[head.end() : -3] for text, head in zip(texts, heads)]
    buf = b", ".join(bodies) + bytes(_WIDTH)  # the padding keeps every window inside the buffer
    end = len(buf) - _WIDTH
    arr = np.frombuffer(buf, dtype=np.uint8)
    windows = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))  # the 8 bytes at each offset
    if is_complex:
        starts = (arr == ord("[")).nonzero()[0]
        if len(starts) != sum(counts) or arr[end - 1] != ord("]"):
            return None
        ends = np.append(starts[1:] - 2, end)
        if not ((windows[ends[:-1] - 1] & _LOW[4]) == _SEPARATOR).all():
            return None
    else:
        seps = (arr[:end] == ord(",")).nonzero()[0]
        if len(seps) != sum(counts) - 1 or not (arr[seps + 1] == ord(" ")).all():
            return None
        starts = np.append(0, seps + 2)
        ends = np.append(seps, end)
    firsts = np.cumsum([0, *counts[:-1]])
    if not np.array_equal(starts[firsts], np.cumsum([0, *[len(body) + 2 for body in bodies[:-1]]])):
        return None
    lengths = ends - starts
    zero = _ZERO_WORD[is_complex]
    if is_complex:  # '[' and ']' are known: compare the 8 bytes between them
        zeros = (lengths == len(zero)) & (windows[starts + 1] == int.from_bytes(zero[1:-1], "little"))
    else:
        zeros = (lengths == len(zero)) & ((windows[starts] & _LOW[len(zero)]) == int.from_bytes(zero, "little"))
    nonzero = (~zeros).nonzero()[0]
    sizes = lengths[nonzero]
    if len(sizes) and sizes.max() > _WIDTH:
        return None
    keys = np.zeros(len(sizes), dtype=np.uint64)
    columns = []
    for offset in range(0, int(sizes.max(initial=0)), 8):
        column = windows[starts[nonzero] + offset] & _LOW[np.clip(sizes - offset, 0, 8)]
        keys = keys * _MIX + column
        columns.append(column)
    _, reps, group = np.unique(keys, return_index=True, return_inverse=True)  # reps: each group's first
    if density and 8 * len(reps) > len(starts):
        return None
    group = group.reshape(-1)
    same = sizes == sizes[reps][group]
    for column in columns:
        same &= column == column[reps][group]
    if not same.all():
        return None
    cut = 1 if is_complex else 0  # the brackets of a complex word
    words = [buf[lo + cut : hi - cut] for lo, hi in zip(starts[nonzero[reps]].tolist(), ends[nonzero[reps]].tolist())]
    try:
        numbers = b", ".join(words).decode("ascii").split(", ") if words else []
        distinct = list(dict.fromkeys(numbers))
        values = np.array(list(map(float, distinct)), dtype=float)
    except ValueError:
        return None
    if len(numbers) != (2 if is_complex else 1) * len(words) or not np.isfinite(values).all():
        return None
    if list(map(repr, values.tolist())) != distinct:
        return None
    if is_complex:  # re and im fill each word: a word with more or fewer numbers would shift the pairs
        widths = np.fromiter(map(len, numbers), np.intp, len(numbers)).reshape(-1, 2).sum(axis=1)
        if not np.array_equal(widths + 4, sizes[reps]):
            return None
    index = dict(zip(distinct, range(len(distinct))))
    parsed = values[np.fromiter(map(index.__getitem__, numbers), np.intp, len(numbers))]
    out = np.zeros(len(starts), dtype=complex if is_complex else float)
    out[nonzero] = (parsed.view(complex) if is_complex else parsed)[group]
    return [out[first : first + count].reshape(shape) for first, count, shape in zip(firsts.tolist(), counts, shapes)]


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


def _read_json(path, parse, data: bytes | None = None):
    """``parse`` of the JSON value in a file, whose bytes are ``data`` when already read;
    decoding and format errors start with the path.  Line ends are translated as in a
    file opened in text mode, which sets the positions JSON's messages give."""
    try:
        text = (Path(path).read_bytes() if data is None else data).decode("utf-8")
        return parse(json.loads(text.replace("\r\n", "\n").replace("\r", "\n")))
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (UnicodeDecodeError, MatrixFormatError) as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc


def _read_matrices(paths: list, known: dict[bytes, np.ndarray] | None = None) -> list[np.ndarray]:
    """The matrix of each file, the files read in batches of about BATCH_BYTES of text.

    Each batch goes to ``_decode`` once.  If it is not all canonical, its
    files are decoded one at a time, in order, and a file that is not
    canonical goes to the JSON parse, so the first bad file is the one
    reported.  Those one-file decodes skip the density rule: the batch was
    judged as a whole, and one small file alone holds too few entries to
    pass it.  A file that cannot be read ends the batch before it, so the
    files ahead of it are parsed first.  ``known`` maps texts parsed earlier
    in the same load to their matrices, and takes the texts read here (an
    extracted bundle's Y files repeat its X files); with None, only the
    texts of one batch are remembered.  Each remembered text is parsed once.
    """
    out: list[np.ndarray] = []
    while len(out) < len(paths):
        batch, size = [], 0
        for path in paths[len(out) :]:
            try:
                with open(path, "rb") as file:
                    data = file.read()
            except OSError:
                if batch:
                    break
                raise
            batch.append((path, data))
            size += len(data)
            if size >= BATCH_BYTES:
                break
        seen = {} if known is None else known
        fresh = list(dict.fromkeys(data for _, data in batch if data not in seen))
        mats = _decode(fresh) if fresh else []
        if mats is not None:
            seen.update(zip(fresh, mats))
        for path, data in batch:
            if data not in seen:
                one = _decode([data], density=False) if len(fresh) > 1 else None
                seen[data] = one[0] if one else _read_json(path, matrix_from_obj, data)
            out.append(seen[data])
    return out


def read_matrix(path) -> np.ndarray:
    """The matrix of one file: the codec's one-file case, with the JSON parse for a file in another layout."""
    return _read_matrices([path])[0]


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

    Each role is encoded a batch at a time (``_family_texts``); a role with a
    non-finite entry raises before any of its files is written.  A role whose
    stack is the very array of another role (an extracted factorization's Y
    family is its X family) is encoded once, and the later role writes the
    same texts.
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
            texts = _family_texts(np.reshape(stack, (len(slots),) + np.shape(stack)[-2:]))
            if sum(other is stack for other in stacks.values()) > 1:
                texts = list(texts)
                encoded.append((stack, texts))
        for (index, outcome), text in zip(slots, texts):
            file = role.file.format(i=index, o={1: "p", -1: "m"}.get(outcome))
            (directory / file).write_bytes(text)
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


def _require_family_budget(path: Path, count: int, name: str) -> None:
    """Refuse a family of `count` matrices of the size of the first, in `path`, whose stack would
    take more than the memory budget (linalg.require_budget).

    The size is taken from the file's canonical header, without decoding an entry, when the
    file is long enough for the entries the header declares (three bytes each at least); any
    other file is read through read_matrix, which reports a malformed one.
    """
    with open(path, "rb") as file:
        head = _HEADER.match(file.read(128))
        length = file.seek(0, 2)
    if head and length >= 3 * int(head[1]) * int(head[2]):
        shape, itemsize = (int(head[1]), int(head[2])), 16 if head[3] == b"true" else 8
    else:
        m = read_matrix(path)
        shape, itemsize = m.shape, m.itemsize
    require_budget(count * itemsize * math.prod(shape), f"{count} {name} matrices of {shape[0]} x {shape[1]}")


def _load(dirpath, kind: str) -> dict[str, np.ndarray]:
    """Validate a bundle's manifest and read each role's matrices, keyed by role name in table order.

    Each family role is checked against the memory budget before its files are read
    (_require_family_budget).
    """
    directory = Path(dirpath)
    if not (directory / MANIFEST_NAME).is_file():
        raise MatrixFormatError(f"no {MANIFEST_NAME} in {directory}")
    out, sized, known = {}, None, {}
    roles = _read_json(directory / MANIFEST_NAME, lambda obj: _role_files(kind, obj))
    for role, name, family, files in roles:
        # no later role can repeat the texts of the last one, so they are not kept
        paths = [directory / file for file in files]
        if family and paths:
            _require_family_budget(paths[0], len(paths), name)
        mats = _read_matrices(paths, None if role is roles[-1][0] else known)
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
    return CpsdFactorization(mats.astype(complex, copy=False))


def save_tensor_rep(dirpath, rep: TensorProductRep) -> None:
    state = {"density": rep.rho} if rep.psi is None else {"state_vector": rep.psi.reshape(-1, 1)}
    stacks = {"alice_obs": rep.alice_obs, "bob_obs": rep.bob_obs, **state}
    _save(dirpath, "tensor_product_rep", stacks, local_dim=rep.local_dim)


def load_tensor_rep(dirpath) -> TensorProductRep:
    roles = _load(dirpath, "tensor_product_rep")
    psi = roles["state_vector"].reshape(-1) if "state_vector" in roles else None
    return TensorProductRep(roles["alice_obs"], roles["bob_obs"], psi=psi, rho=roles.get("density"))
