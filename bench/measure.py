"""The measuring loop: rounds of checked ops, set-up samples, and the traced run."""

from __future__ import annotations

import cProfile
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 120
CAL_EVERY_S = 0.02  # wall time between calibration samples
CAL_HALF_WIDTH = 5  # a scale is the median of 11 samples, about 0.2 s


class Tally:
    """Attempted and failed ops, with the failures counted by kind and fault."""

    def __init__(self):
        self.attempted = 0
        self.failed_by_kind: dict[str, int] = {}
        self.failed_by_fault: dict[str, int] = {}
        self.unexpected: dict[str, str] = {}

    def record(self, op, outcome):
        self.attempted += 1
        try:
            ok = not isinstance(outcome, Exception) and bool(op.check(outcome, op.expected))
        except (KeyError, IndexError, TypeError, ValueError, AttributeError):
            ok = False  # output of the wrong shape: a failed check, not a crash
        if ok:
            return
        self.failed_by_kind[op.kind] = self.failed_by_kind.get(op.kind, 0) + 1
        label = op.fault or "unexpected"
        self.failed_by_fault[label] = self.failed_by_fault.get(label, 0) + 1
        if op.fault is None and op.kind not in self.unexpected:
            self.unexpected[op.kind] = repr(outcome)[:300]

    @property
    def failed(self) -> int:
        return sum(self.failed_by_kind.values())

    @property
    def correct(self) -> bool:
        """Every op that failed is one of the documented faults F1-F3."""
        return not self.unexpected


def _run_op(op):
    """Time one call; an exception is the op's outcome, never fatal to the run."""
    t0 = time.perf_counter_ns()
    try:
        outcome = op.call()
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        outcome = exc
    return time.perf_counter_ns() - t0, outcome


def _prepare(workload: str, seed: int):
    ops = workloads.build(workload, seed)
    for op in ops:
        op.expected = op.expect()
    order = np.random.default_rng([seed, 0x5EED])
    for op in ops:  # let lazy set-up finish before anything is timed
        _run_op(op)
    return ops, order


def setup_sample(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first op being ready."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = child.communicate(timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({child.returncode}): {err.strip()[-500:]}")
    return elapsed


def timed_run(workload: str, seed: int, seconds: float, n_setup: int):
    ops, order = _prepare(workload, seed)
    kinds = sorted({op.kind for op in ops})
    kind_index = np.array([kinds.index(op.kind) for op in ops])
    tally = Tally()
    lat_rounds, idx_rounds, seg_rounds = [], [], []
    cal = []  # calibration samples (ns); op j ran after cal[seg[j]]
    marks = [(i + 0.5) / n_setup * seconds for i in range(n_setup)]
    setup_raw = []
    spent = 0.0
    next_cal = 0.0
    while spent < seconds:
        perm = order.permutation(len(ops)).astype(np.int32)
        lat = np.empty(len(ops), dtype=np.float32)  # ns; compact, so RSS stays the program's
        seg = np.empty(len(ops), dtype=np.int32)
        t0 = time.perf_counter()
        for j, i in enumerate(perm):
            if time.perf_counter() >= next_cal:
                cal.append(speed.sample())
                next_cal = time.perf_counter() + CAL_EVERY_S
            seg[j] = len(cal) - 1
            op = ops[i]
            lat[j], outcome = _run_op(op)
            tally.record(op, outcome)
        spent += time.perf_counter() - t0
        lat_rounds.append(lat)
        idx_rounds.append(perm)
        seg_rounds.append(seg)
        while marks and spent >= marks[0]:
            marks.pop(0)
            setup_raw.append(setup_sample(workload, seed))
            next_cal = 0.0  # the speed may have changed while waiting
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_ms = np.concatenate(lat_rounds).astype(np.float64) / 1e6
    scale = speed.REF_NS / speed.local_medians(cal, CAL_HALF_WIDTH)
    lat_ms = raw_ms * scale[np.concatenate(seg_rounds)]
    kind_of = kind_index[np.concatenate(idx_rounds)]
    metrics = {
        "ops_per_s": (tally.attempted / (float(lat_ms.sum()) / 1e3), "ops/s"),
        "op_p50_ms": (float(np.quantile(lat_ms, 0.5)), "ms"),
        "op_p99_ms": (float(np.quantile(lat_ms, 0.99)), "ms"),
        # a set-up sample spans many speed switches: scale it by the run's mean speed
        "setup_s": (float(np.median(setup_raw)) * speed.REF_NS / speed.trimmed_mean(cal), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw_metrics = {
        "ops_per_s": tally.attempted / (float(raw_ms.sum()) / 1e3),
        "op_p50_ms": float(np.quantile(raw_ms, 0.5)),
        "op_p99_ms": float(np.quantile(raw_ms, 0.99)),
        "setup_s": float(np.median(setup_raw)),
    }
    result = _result(tally, metrics)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "rounds": len(lat_rounds), "ops_per_round": len(ops),
        "measured_wall_s": spent, "busy_s": float(raw_ms.sum()) / 1e3,
        "calibration": {"ref_ns": speed.REF_NS, "samples": len(cal),
                        "trimmed_mean_ns": speed.trimmed_mean(cal),
                        "quartiles_ns": [float(q) for q in np.quantile(cal, [0.25, 0.5, 0.75])]},
        "unscaled_metrics": raw_metrics,
        "setup_samples_s": setup_raw,
        "failed_by_kind": tally.failed_by_kind,
        "failed_by_fault": tally.failed_by_fault,
        "unexpected_failures": tally.unexpected,
        "kinds": _kind_table(kinds, kind_of, lat_ms),
        "result": result,
    }
    return result, record


def _kind_table(kinds, kind_of, lat_ms) -> dict:
    """Per kind: share of ops and median / p99 latency, sorted by median."""
    rows = {}
    for k, name in enumerate(kinds):
        sel = lat_ms[kind_of == k]
        rows[name] = {"share": len(sel) / len(lat_ms), "p50_ms": float(np.median(sel)),
                      "p99_ms": float(np.quantile(sel, 0.99))}
    return dict(sorted(rows.items(), key=lambda kv: kv[1]["p50_ms"]))


def traced_run(workload: str, seed: int, seconds: float):
    """Profiled rounds for half the run, then the fixed-size layer probes.

    The profiler is on only inside each op call. Every round runs the same
    ops, so per-op call counts do not depend on how many rounds fit.
    """
    ops, order = _prepare(workload, seed)
    tally = Tally()
    prof = cProfile.Profile()
    spent, busy_ns = 0.0, 0
    while spent < seconds / 2 or tally.attempted == 0:
        t0 = time.perf_counter()
        for i in order.permutation(len(ops)):
            op = ops[i]
            prof.enable()
            took, outcome = _run_op(op)
            prof.disable()
            busy_ns += took
            tally.record(op, outcome)
        spent += time.perf_counter() - t0
    metrics = layers.module_metrics(prof, tally.attempted)
    metrics.update(layers.probe_metrics(seed))
    result = _result(tally, metrics)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "profiled_ops": tally.attempted,
        "profiled_ops_per_s": tally.attempted / (busy_ns / 1e9),
        "failed_by_kind": tally.failed_by_kind,
        "failed_by_fault": tally.failed_by_fault,
        "unexpected_failures": tally.unexpected,
        "result": result,
    }
    return result, record


def _result(tally: Tally, metrics: dict) -> dict:
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def summary_lines(record: dict) -> list[str]:
    result = record["result"]
    faults = ", ".join(f"{k}: {v}" for k, v in sorted(record["failed_by_fault"].items()))
    lines = [f"workload {record['workload']}: {result['attempted']} ops attempted, "
             f"{result['failed']} failed ({faults or 'none'}), correct={result['correct']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    return lines
