"""One set-up sample: a fresh interpreter imports hilproj and builds a workload.

Usage: python3 bench/setup_probe.py <workload> <seed>

Prints "ready" once the workload's first op could run. ``measure.py`` times
the span from starting this interpreter to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
