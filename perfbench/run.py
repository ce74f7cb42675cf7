"""Benchmark of bundlegs: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bgs_battery --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See perfbench/README.md for
the workloads, the metrics and the checks.  This file only fixes the BLAS
thread count and the import path before numpy and the program are loaded.
"""

import os
import sys
from pathlib import Path

# One BLAS thread: the QPs are too small for a second thread to pay.  With
# two, the GS runs burned twice their wall time in CPU and their wall time
# ranged over 11.3-18.7 s instead of 15.2-18.6 s (2-core VM).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    if not (SRC / "bundlegs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    sys.exit(bench.main())
