"""Host-speed calibration: a fixed task of the benchmark's own, timed all through a run.

The hosts this benchmark runs on share their cores, and their speed drifts:
a fixed pure-Python loop runs up to 1.8x slower in some stretches than in
others (see bench/README.md, *Drift*). ``measure.py`` times ``sample()``
every few tens of milliseconds between ops and scales every time it reports
by ``REF_NS / (median of the nearby samples)``. A reported time is thus the
time the op would have taken at the speed at which this task takes
``REF_NS``: the drift cancels, while a change to hilproj, which the task
never calls, shows in full. A set-up sample lasts longer than the host
stays in one speed state, so it is scaled by the run's mean instead
(``trimmed_mean``).

The task mixes what hilproj's ops spend their time on: interpreted Python
(calls, attribute and dict access, float arithmetic), small numpy calls on
50-element arrays, and one pass over a 2 * 10^4-element array. Its data
fits in a core's L2 cache, and ``sample()`` runs it once untimed first, so
what the program's ops leave in the caches does not change its time.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# ns that sample() takes at the reference speed. On a 2-vCPU Xeon VM at
# 2.1 GHz it took about 135 us in that machine's fast state and 240 us in its
# slow one; each vCPU switched between the two every 50-100 ms.
REF_NS = 180_000.0

_SMALL = np.linspace(-1.0, 1.0, 50)
_LARGE = np.linspace(-1.0, 1.0, 20_000)


class _Box:
    def __init__(self, value):
        self.value = value

    def scaled(self, t):
        return _Box(self.value * t)


def _task() -> float:
    acc = 0.0
    table = {}
    box = _Box(1.0)
    for i in range(200):
        box = box.scaled(1.0000001)
        table[i & 15] = box.value + i
        acc += table[i & 15] * 0.5
    for _ in range(20):
        acc += float(np.dot(_SMALL, _SMALL))
        acc += float(np.maximum(_SMALL, 0.0).sum())
    acc += float(np.abs(_LARGE).max())
    return acc


def sample() -> int:
    """ns taken by one run of the fixed task, right after an untimed run.

    The collector is off while it runs, so that the objects the program keeps
    alive cannot add a collection to the task's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _task()
        t0 = time.perf_counter_ns()
        _task()
        return time.perf_counter_ns() - t0
    finally:
        if was_enabled:
            gc.enable()


def local_medians(samples, half_width: int) -> np.ndarray:
    """Median of each sample with its ``half_width`` neighbours on either side."""
    s = np.asarray(samples, dtype=np.float64)
    return np.array([np.median(s[max(0, i - half_width): i + half_width + 1])
                     for i in range(len(s))])


def trimmed_mean(samples, cut: float = 0.01) -> float:
    """Mean of the samples without the lowest and highest ``cut`` share of them."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    k = int(len(s) * cut)
    return float(s[k: len(s) - k].mean())
