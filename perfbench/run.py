"""Benchmark of the exponential Riccati integrators.

Run from the repository root:

    python3 perfbench/run.py --workload all-schemes-sym-n64 --seed 20240 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory.  With
``--trace 0`` the workload's timed passes, repeated for ``--seconds``,
give the end-to-end metrics; their times are scaled to a reference host
speed by a calibration loop timed between calls (``workloads.HostClock``),
and the raw wall-clock medians are printed on the note line.  With
``--trace 1`` one traced pass between two untraced ones gives the
per-layer metrics and writes its spans to ``perfbench/out/``.  Readable
notes go first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# One OpenBLAS thread for the whole process.  On a 2-core machine two
# threads made the n = 100 workload three times slower (30 s against
# 10 s) with a step p90 four times its median, and n = 400 only 2%
# faster: an unpinned run measures the thread scheduler rather than the
# integrators.
BLAS_THREADS = 1


def pin_blas_threads():
    """Fix the BLAS thread pools; has effect only before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Put this checkout's ``src/`` first on the path and import the package from it."""
    if not (SRC / "expriccati" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import expriccati

    if Path(expriccati.__file__).resolve().parent != SRC / "expriccati":
        raise SystemExit(f"perfbench: imported expriccati from {expriccati.__file__}")


def environment():
    import numpy
    import scipy

    def openblas(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": openblas(numpy),
        "openblas_scipy": openblas(scipy),
    }


def main(argv=None):
    pin_blas_threads()
    import_package()
    from tracing import measure_traced
    from workloads import WORKLOADS, measure

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    print("# env " + json.dumps(environment()))
    if args.trace:
        path = HERE / "out" / f"trace-{workload.name}-seed{args.seed}.json"
        result = measure_traced(workload, args.seed, trace_path=path)
    else:
        result = measure(workload, args.seed, args.seconds)
    print("# " + result.note)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
