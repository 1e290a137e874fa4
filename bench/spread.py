"""Run the benchmark over several seeds and report each metric's spread.

Usage: python3 bench/spread.py <workload> <first_seed> <n_seeds> [seconds] [trace]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and
(q3 - q1) / median, plus the failed share of the ops attempted. For a
``--trace 0`` set it does the same for the unscaled times in each run's
record, to show how much drift the speed scaling (``speed.py``) removed.
Each run's last stdout line is appended to ``bench/out/spread-<workload>.jsonl``.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    workload, first, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    seconds = sys.argv[4] if len(sys.argv) > 4 else "30"
    trace = sys.argv[5] if len(sys.argv) > 5 else "0"
    results, unscaled = [], []
    (BENCH / "out").mkdir(exist_ok=True)
    log = BENCH / "out" / f"spread-{workload}.jsonl"
    for seed in range(first, first + count):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", trace],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=900, check=True)
        last = done.stdout.strip().splitlines()[-1]
        with log.open("a") as fh:
            fh.write(last + "\n")
        results.append(json.loads(last))
        if trace == "0":
            record = BENCH / "out" / f"{workload}-seed{seed}-trace0.json"
            unscaled.append(json.loads(record.read_text())["unscaled_metrics"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.5g}" for k, m in results[-1]["metrics"].items()), flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"correct: {all(r['correct'] for r in results)}; failed shares: {sorted(shares)}")
    rows = [(name, [r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]]
    if unscaled:
        rows += [(f"{name} (unscaled)", [u[name] for u in unscaled]) for name in unscaled[0]]
    for name, values in rows:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(f"{name:40s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {(q3 - q1) / q2:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
