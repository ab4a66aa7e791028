"""Span tracing from outside corrfact: wraps its modules' public functions.

A span (name, start, end, parent, pipeline id) is recorded around a call
into a corrfact module when the caller is the benchmark's pipeline or
``corrfact.cli.run``.  Calls the library makes into itself pass through
unrecorded, so each span times one public call as its outside caller sees
it, and a module's self time is its spans' time minus their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

from corrfact import cli, clifford, cpsd, elliptope, factorization, matio, quantum

MODULES = {
    "elliptope": elliptope,
    "clifford": clifford,
    "factorization": factorization,
    "cpsd": cpsd,
    "quantum": quantum,
    "matio": matio,
    "cli": cli,
}
LIBRARY_FUNCTIONS = {
    "elliptope": ("check_extreme", "gram_factors"),
    "factorization": (
        "factorize_clifford",
        "to_form_c",
        "recover_correlation",
        "verify_factorization",
        "verify_clifford_identity",
    ),
    "clifford": ("gamma_generators", "verify_clifford_relations"),
    "cpsd": (
        "build_pc",
        "build_cpsd_factorization",
        "verify_cpsd_factorization",
        "certify_lower_bound",
        "extract_matrix_factorization",
    ),
    "quantum": ("build_tensor_rep", "eval_correlations", "reduce_rank_one_rep"),
}
# matio functions that touch files, by direction; the first argument is the path
MATIO_IO = {
    "write": ("write_matrix", "save_generators", "save_matrix_factorization", "save_form_b",
              "save_cpsd_factorization", "save_tensor_rep"),
    "read": ("read_matrix", "load_generators", "load_matrix_factorization", "load_form_b",
             "load_cpsd_factorization", "load_tensor_rep"),
}
PEAK_FUNCTIONS = (
    "cpsd.build_cpsd_factorization",
    "cpsd.verify_cpsd_factorization",
    "cpsd.certify_lower_bound",
    "factorization.verify_factorization",
    "quantum.eval_correlations",
)
ROOT_SPAN = "pipeline"
_OUTSIDE_CALLERS = (ROOT_SPAN, "cli.run")

FIELDS = ("name", "start", "end", "parent", "pipeline")
NAME, START, END, PARENT, PIPELINE = range(len(FIELDS))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, functions in LIBRARY_FUNCTIONS.items():
        for fn in functions:
            units[f"{module}.{fn}.s"] = "s/pipeline"
            units[f"{module}.{fn}.calls"] = "calls/pipeline"
    for direction in MATIO_IO:
        units[f"matio.{direction}.s"] = "s/pipeline"
        units[f"matio.{direction}.calls"] = "calls/pipeline"
    units["matio.bytes_written"] = "bytes/pipeline"
    units["matio.bytes_read"] = "bytes/pipeline"
    units["cli.run.s"] = "s/pipeline"
    units["cli.run.calls"] = "calls/pipeline"
    for module in MODULES:
        units[f"{module}.self_s"] = "s/pipeline"
    for name in PEAK_FUNCTIONS:
        units[f"{name}.peak_mb"] = "MB"
    units["cpsd.factor_bytes"] = "bytes_computed"
    for module in MODULES:
        units[f"{module}.failed"] = "count"
    units["trace.overhead_s"] = "s/pipeline"
    return units


def _path_bytes(path) -> int:
    p = Path(path)
    if p.is_dir():
        return sum(q.stat().st_size for q in p.iterdir() if q.is_file())
    return p.stat().st_size if p.is_file() else 0


class Tracer:
    """Records spans in memory while installed around a pipeline.

    With ``peaks`` set, each function in PEAK_FUNCTIONS runs under
    tracemalloc and its peak allocation is kept instead of being timed
    faithfully; use a separate Tracer for that pass.
    """

    def __init__(self, peaks: bool = False):
        self.spans: list[list] = []
        self.failed: Counter = Counter()
        self.io_bytes: Counter = Counter()
        self.peak_bytes: dict[str, int] = {}
        self.pipelines = 0
        self._peaks = peaks
        self._stack: list[int] = []
        self._pipeline_id = -1
        self._wrappers = self._build_wrappers()

    def _build_wrappers(self) -> list[tuple[object, str, object, object]]:
        targets = [(m, fn, f"{m}.{fn}", None) for m, fns in LIBRARY_FUNCTIONS.items() for fn in fns]
        targets += [("matio", fn, f"matio.{fn}", d) for d, fns in MATIO_IO.items() for fn in fns]
        targets.append(("cli", "run", "cli.run", None))
        out = []
        for module_name, fn_name, span_name, direction in targets:
            module = MODULES[module_name]
            original = getattr(module, fn_name)
            out.append((module, fn_name, original, self._wrap(span_name, original, direction)))
        return out

    def _wrap(self, name: str, fn, direction: str | None):
        module = name.split(".", 1)[0]
        peak = self._peaks and name in PEAK_FUNCTIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.spans[self._stack[-1]][NAME] not in _OUTSIDE_CALLERS:
                return fn(*args, **kwargs)
            idx = self._open(name)
            if peak:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed[module] += 1
                raise
            finally:
                if peak:
                    top = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), top)
                self._close(idx)
                if direction is not None:
                    self.io_bytes[direction] += _path_bytes(args[0])

        return wrapper

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._pipeline_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def pipeline(self, pipeline_id: int):
        """Install the wrappers and open a root span for one pipeline."""
        self._pipeline_id = pipeline_id
        self.pipelines += 1
        for module, fn_name, _, wrapper in self._wrappers:
            setattr(module, fn_name, wrapper)
        idx = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(idx)
            for module, fn_name, original, _ in self._wrappers:
                setattr(module, fn_name, original)

    def metrics(self) -> dict[str, float]:
        """Per-pipeline busy time, calls, self time and bytes; peaks; failures."""
        busy: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        self_s: defaultdict[str, float] = defaultdict(float)
        direction_of = {f"matio.{fn}": d for d, fns in MATIO_IO.items() for fn in fns}
        for idx, span in enumerate(self.spans):
            name, duration = span[NAME], span[END] - span[START]
            key = f"matio.{direction_of[name]}" if name in direction_of else name
            busy[key] += duration
            calls[key] += 1
            self_s[name.split(".", 1)[0]] += duration - child_time[idx]
        per = 1.0 / max(self.pipelines, 1)
        out = {}
        for name in per_layer_units():
            base, _, stat = name.rpartition(".")
            if stat == "s":
                out[name] = busy[base] * per
            elif stat == "calls":
                out[name] = calls[base] * per
            elif stat == "self_s":
                out[name] = self_s[base] * per
            elif stat == "peak_mb":
                out[name] = self.peak_bytes.get(base, 0) / 2**20
            elif stat == "failed":
                out[name] = self.failed[base]
        out["matio.bytes_written"] = self.io_bytes["write"] * per
        out["matio.bytes_read"] = self.io_bytes["read"] * per
        return out
