"""Benchmark of hilproj: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a source checkout:

    python3 bench/run.py --workload derive --seed 1 --seconds 20 --trace 0

One process runs one workload, one op at a time. Each round executes the
workload's whole op list (``workloads.py``) in a freshly shuffled order and
every output is checked against ``reference.py`` or against a property the
method must have. Rounds repeat until ``--seconds`` of wall time have been
spent in them. Set-up is sampled in fresh interpreters, one at a time, at
points spread across the run while this process waits; their time is not
part of the measured seconds. Every reported time is scaled to a fixed host
speed, measured all through the run with a calibration task (``speed.py``).
The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record goes
to ``bench/out/<workload>-seed<n>-trace<t>.json``.

See bench/README.md for the workloads, the metrics and the reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One thread for numpy's OpenBLAS, here and in every child; must precede numpy.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
os.environ.pop("HILPROJ_SEED", None)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 9


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("derive", "bulk", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if not (SRC / "hilproj" / "__init__.py").is_file():
        return _fail(f"no hilproj sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hilproj

    if Path(hilproj.__file__).resolve().parent != SRC / "hilproj":
        return _fail(f"imported hilproj from {hilproj.__file__}, not from {SRC}")

    import measure

    if args.trace:
        result, record = measure.traced_run(args.workload, args.seed, args.seconds)
    else:
        result, record = measure.timed_run(args.workload, args.seed, args.seconds,
                                           SETUP_SAMPLES)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in measure.summary_lines(record):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
