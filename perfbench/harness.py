"""Timed loop, set-up timing, metrics and environment record for run.py."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from spans import FIELDS, Tracer, per_layer_units
from workloads import WORKLOADS, make_cases, reset, run_pipeline

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
SETUP_SAMPLES = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipelines_per_s": "1/s",
    "pipeline_s.p50": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one corrfact benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help="time set-up alone and print it (for setup_s)")
    return p.parse_args(argv)


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def hd_median(samples: list[float]) -> float:
    """Harrell-Davis estimate of the median of the samples.

    A mean of the sorted samples weighted by the Beta((n+1)/2, (n+1)/2)
    density over their ranks.  With the 10 to 25 pipelines that a run of
    ``ladder_high`` or ``cli_files`` completes it varies less from run to run
    than the middle sample does, because every sample counts.
    """
    x = np.sort(samples)
    n = len(x)
    grid = 1 << 14
    t = (np.arange(grid) + 0.5) / grid
    log_density = (n - 1) / 2 * np.log(t * (1 - t))  # in logs: the density underflows for large n
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_density - log_density.max()))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.arange(grid + 1) / grid, cdf / cdf[-1]))
    return float(weights @ x)


def percentile_tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, when that lies above the median."""
    n = len(samples)
    if n <= 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


class Run:
    """Attempts pipelines and counts them and their failures."""

    def __init__(self, workload, fault: bool = False):
        self.workload = workload
        self.fault = fault
        self.attempted = 0
        self.failed = 0

    def attempt(self, case, tracer: Tracer | None = None) -> float:
        """Run one pipeline on a case; return its wall time in seconds."""
        reset(case)
        scope = tracer.pipeline(self.attempted) if tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                misses = run_pipeline(self.workload, case, self.fault)
        except Exception:
            if self.failed == 0:
                traceback.print_exc(file=sys.stderr)
            misses = ["exception"]
        duration = time.perf_counter() - t0
        self.attempted += 1
        if misses:
            self.failed += 1
            if tracer is not None:
                tracer.failed.update(m for m in set(misses) if m != "exception")
        return duration


def set_up(workload, seed: int, workdir: Path):
    """Generate and check the inputs, then warm every code path once per input kind."""
    cases = make_cases(workload, seed, workdir)
    for case in first_of_each_kind(cases):
        reset(case)
        with contextlib.suppress(Exception):  # the timed pipelines count and report failures
            run_pipeline(workload, case)
    return cases


def first_of_each_kind(cases):
    seen = set()
    for case in cases:
        if case.kind not in seen:
            seen.add(case.kind)
            yield case


def setup_in_child(args) -> float:
    """Set-up time of a fresh interpreter: import, inputs and warm-up."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def timed(run: Run, cases, seconds: float, tracer: Tracer | None = None) -> tuple[list[float], list[float]]:
    """Cycle through the cases until the time is up; return pipeline durations.

    With a tracer each case runs twice, untraced and traced in alternating
    order, so both lists of durations come from the same inputs and
    neither side always finds the caches warm.
    """
    plain, traced = [], []
    t0 = time.perf_counter()
    k = 0
    while True:
        case = cases[k % len(cases)]
        if tracer is None:
            plain.append(run.attempt(case))
        elif k % 2:
            traced.append(run.attempt(case, tracer))
            plain.append(run.attempt(case))
        else:
            plain.append(run.attempt(case))
            traced.append(run.attempt(case, tracer))
        k += 1
        if time.perf_counter() - t0 >= seconds:
            return plain, traced


def end_to_end(args, run: Run, cases, setup_s: float) -> tuple[dict, str]:
    durations, _ = timed(run, cases, args.seconds)
    setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    values = {
        "setup_s": statistics.median(setups),
        "pipelines_per_s": (run.attempted - run.failed) / sum(durations),
        "pipeline_s.p50": hd_median(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = percentile_tail(durations)
    line = (
        f"{run.workload.name}: failed_ratio {run.failed / run.attempted:.4g} "
        f"({run.failed} of {run.attempted} pipelines), p50 {values['pipeline_s.p50']:.4g} s "
        f"over {len(durations)} samples, "
        + (f"tail p{tail[0]:.1f} {tail[1]:.4g} s" if tail else "tail not reported (20 samples or fewer)")
        + f", setup_s samples {[round(s, 3) for s in setups]}"
    )
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, line


def per_layer(args, run: Run, cases, env: dict) -> tuple[dict, str]:
    tracer = Tracer()
    plain, traced = timed(run, cases, args.seconds, tracer)
    peaks = Tracer(peaks=True)
    for case in first_of_each_kind(cases):
        run.attempt(case, peaks)
    values = tracer.metrics()
    values.update((k, v) for k, v in peaks.metrics().items() if k.endswith(".peak_mb"))
    values["cpsd.factor_bytes"] = max(c.factor_bytes for c in cases)
    values["trace.overhead_s"] = hd_median(traced) - hd_median(plain)
    path = SCRATCH / f"spans-{run.workload.name}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "environment": env,
        "fields": FIELDS,
        "spans": tracer.spans,
    }))
    line = (
        f"{run.workload.name}: failed_ratio {run.failed / run.attempted:.4g} "
        f"({run.failed} of {run.attempted} pipelines), tracing overhead "
        f"{values['trace.overhead_s']:.4g} s/pipeline (traced p50 {hd_median(traced):.4g} s, "
        f"untraced p50 {hd_median(plain):.4g} s), {len(tracer.spans)} spans in {path.relative_to(ROOT)}"
    )
    return {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}, line


def measure(args, workload, cases, setup_s: float, fault: bool = False) -> tuple[dict, list[str]]:
    """Timed run of one workload; returns the result object and summary lines."""
    run = Run(workload, fault)
    env = environment()
    if args.trace:
        metrics, line = per_layer(args, run, cases, env)
    else:
        metrics, line = end_to_end(args, run, cases, setup_s)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    return result, [f"env {json.dumps(env)}", line]


def main(argv, start: float) -> int:
    args = parse_args(argv)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    workload = WORKLOADS[args.workload]
    try:
        cases = set_up(workload, args.seed, workdir)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result, summary = measure(args, workload, cases, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in summary:
        print("# " + line)
    print(json.dumps(result))
    return 0
