#!/usr/bin/env python3
"""corrfact benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload ladder_high --seed 1 --seconds 30 --trace 0

Run from the repository root; corrfact is imported from ``src/``.  Inputs
come from ``--seed`` alone.  Pipelines run back to back (a closed loop with
one client) until ``--seconds`` have passed, and the oracle in
``workloads.py`` checks every output.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-module metrics of
``spans.py`` with ``--trace 1``.  Lines before it start with ``#`` and give
a readable summary and the environment record.  See ``perfbench/README.md``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the same work then takes about the same time whatever
# else the machine runs.  This must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "corrfact" / "__init__.py").is_file():
        print(f"error: no corrfact sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from harness import main

    sys.exit(main(sys.argv[1:], START))
