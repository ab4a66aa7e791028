"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Checks that every workload runs traced and untraced, that every metric of
BENCHMARK.json is printed with its unit, that an injected fault shows up as
failed pipelines, and that the command fails without printing a result
when the corrfact sources are missing.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from spans import per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "ladder_high": {"ranks": (4,), "points": 2},
    "many_small": {"ranks": (2, 3), "points": 4},
    "cli_files": {"ranks": (3,), "points": 2},
}


def tiny_run(name, tmp_path, trace, fault=False, monkeypatch=None):
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 1)
    workload = dataclasses.replace(WORKLOADS[name], **TINY[name])
    cases = harness.set_up(workload, 3, tmp_path)
    args = Namespace(workload=name, seed=3, seconds=0.2, trace=trace)
    result, summary = harness.measure(args, workload, cases, 0.5, fault=fault)
    return result, summary


def expected_units(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def test_spec_matches_benchmark():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    assert expected_units(0) == harness.END_TO_END_UNITS
    assert expected_units(1) == per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path, monkeypatch):
    result, summary = tiny_run(name, tmp_path, trace, monkeypatch=monkeypatch)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected_units(trace)
    assert "failed_ratio 0 " in summary[1]
    if trace:
        io = result["metrics"]["matio.bytes_written"]["value"]
        assert (io > 0) == WORKLOADS[name].via_cli
        assert result["metrics"]["cpsd.verify_cpsd_factorization.calls"]["value"] == 1


@pytest.mark.parametrize("name", ["ladder_high", "cli_files"])
def test_injected_fault_is_counted(name, tmp_path, monkeypatch):
    result, summary = tiny_run(name, tmp_path, 0, fault=True, monkeypatch=monkeypatch)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_hd_median():
    assert harness.hd_median([4.0]) == 4.0
    assert harness.hd_median([3.0, 1.0, 2.0]) == pytest.approx(2.0)
    assert harness.hd_median([float(k) for k in range(2000)]) == pytest.approx(999.5)


def test_command_prints_result_as_last_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many_small", "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(expected_units(0))


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "many_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
