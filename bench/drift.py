"""Drift of this machine's speed: a fixed pure-Python loop, timed for minutes.

Usage: python3 bench/drift.py [minutes]   (default 10)

Times the same small loop back to back. For windows of 0.25, 3, 30, 60 and
120 seconds it prints the ratio of the slowest to the fastest window median
and the spread (q3 - q1) / median of the window medians. It also prints the
share of 0.25 s windows more than 1.3x slower than the fastest tenth: the
time the machine spends in its slow state. The benchmark's bounds are set
against these figures; see bench/README.md.
"""

import statistics
import sys
import time


def loop():
    acc = 0
    for i in range(2_000):
        acc += i * i % 7
    return acc


def window_medians(stamps, samples, window):
    buckets = {}
    for t, s in zip(stamps, samples):
        buckets.setdefault(int(t // window), []).append(s)
    last = int(stamps[-1] // window)
    return [statistics.median(v) for k, v in sorted(buckets.items()) if k < last]


def main() -> int:
    minutes = float(sys.argv[1]) if len(sys.argv) > 1 else 10.0
    stamps, samples = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < minutes * 60.0:
        t0 = time.perf_counter()
        loop()
        stamps.append(t0 - start)
        samples.append(time.perf_counter() - t0)
    for window in (0.25, 3.0, 30.0, 60.0, 120.0):
        medians = window_medians(stamps, samples, window)
        if len(medians) < 2:
            continue
        line = (f"{window:6.2f} s windows: {len(medians):5d}, slowest/fastest "
                f"{max(medians) / min(medians):.3f}")
        if len(medians) >= 4:
            q1, q2, q3 = statistics.quantiles(medians, n=4)
            line += f", spread {(q3 - q1) / q2:.3f}"
        print(line)
    short = window_medians(stamps, samples, 0.25)
    fast = statistics.quantiles(short, n=10)[0]
    slow = sum(1 for m in short if m > 1.3 * fast) / len(short)
    print(f"share of 0.25 s windows in the slow state (> 1.3x the fastest tenth): {slow:.3f}")
    print(f"cpu/wall {time.process_time() / (time.perf_counter() - start):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
