"""Per-layer metrics for the traced run.

Two sources, both measured from outside ``src/hilproj``:

* ``module_metrics``: a cProfile of the workload's own ops, aggregated by
  the module that defines each function. A module's self time includes the
  numpy and stdlib calls its functions make: time spent in a function defined
  outside hilproj is passed up its callers until it reaches hilproj code.
* ``probe_metrics``: fixed-size probes of single public functions, timed
  with the profiler off, each the median of several batches of calls.
"""

from __future__ import annotations

import os
import pstats
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hilproj as hp
from hilproj import jsonio

import workloads
from workloads import _function, _ortho_rows, _space, _unit

MODULES = ("core", "sets", "projection", "derivatives", "bochner", "fourier",
           "oracle", "jsonio", "cli")
PKG_DIR = str(Path(hp.__file__).resolve().parent) + os.sep


def _owner(key) -> str | None:
    path = key[0]
    if path.startswith(PKG_DIR):
        name = path[len(PKG_DIR):-3]
        return name if name in MODULES else None
    return None


def module_metrics(profile, n_ops: int) -> dict:
    """``<module>.calls_per_op`` and ``<module>.self_us_per_op`` for every module."""
    stats = pstats.Stats(profile).stats
    calls = dict.fromkeys(MODULES, 0)
    self_s = dict.fromkeys(MODULES, 0.0)
    memo: dict = {}

    def owners(key, edge) -> dict:
        """Fractions of key's time owed to each module, split over its callers.

        edge 2 splits by the callee's own time per caller, edge 3 by its total
        time; a caller outside hilproj passes its fraction on to its callers.
        """
        if (key, edge) in memo:
            return memo[(key, edge)]
        memo[(key, edge)] = {}  # a cycle through key contributes nothing
        callers = stats[key][4] if key in stats else {}
        total = sum(e[edge] for e in callers.values())
        out: dict = {}
        for caller, e in callers.items():
            if total <= 0.0:
                break
            share = e[edge] / total
            owner = _owner(caller)
            upward = {owner: 1.0} if owner is not None else owners(caller, 3)
            for m, f in upward.items():
                out[m] = out.get(m, 0.0) + share * f
        memo[(key, edge)] = out
        return out

    for key, (_, nc, tt, _, _) in stats.items():
        owner = _owner(key)
        if owner is not None:
            calls[owner] += nc
            self_s[owner] += tt
        elif tt > 0.0:
            for m, f in owners(key, 2).items():
                self_s[m] += tt * f
    out = {}
    for m in MODULES:
        out[f"{m}.calls_per_op"] = (calls[m] / n_ops, "count")
        out[f"{m}.self_us_per_op"] = (self_s[m] / n_ops * 1e6, "us")
    return out


def per_call(fn, batch_s: float = 0.01, batches: int = 7) -> float:
    """Median seconds per call over batches of calls lasting about batch_s each."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        took = time.perf_counter() - t0
        if took >= batch_s or n >= 1 << 20:
            break
        n = max(n * 2, int(n * batch_s / max(took, 1e-9)))
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return float(np.median(times))


def _import_probe(samples: int = 3) -> dict:
    """``import hilproj`` in fresh interpreters under ``-X importtime``."""
    code = ("import sys; sys.path.insert(0, %r); n = len(sys.modules); "
            "import hilproj; print(len(sys.modules) - n)" % str(Path(PKG_DIR).parent))
    pattern = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$")
    total, fourier, loaded = [], [], []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=120, check=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            m = pattern.match(line)
            if m:
                cumulative[m.group(2)] = int(m.group(1))
        total.append(cumulative["hilproj"] / 1e3)
        fourier.append(cumulative.get("hilproj.fourier", 0) / 1e3)
        loaded.append(int(done.stdout.strip()))
    return {
        "hilproj.import_ms": (float(np.median(total)), "ms"),
        "hilproj.modules_loaded": (float(np.median(loaded)), "count"),
        "fourier.import_ms": (float(np.median(fourier)), "ms"),
    }


def probe_metrics(seed: int) -> dict:
    """Fixed-size probes; sizes match the workloads that use each function."""
    rng = np.random.default_rng([seed, 0x1A7E])
    P = hp.HilbertPoint
    us = lambda fn: (per_call(fn) * 1e6, "us")  # noqa: E731
    ms = lambda fn: (per_call(fn) * 1e3, "ms")  # noqa: E731
    out = {}

    d = 50
    a, b = rng.uniform(-2, 2, d), rng.uniform(-2, 2, d)
    x, y = P(a), P(b)
    out["core.point_new_us"] = us(lambda: P(a))
    out["core.inner_us"] = us(lambda: hp.inner(x, y))

    c = rng.uniform(-1, 1, d)
    ball = hp.ClosedBall(P(c), 1.5)
    outside = P(c + 4.0 * _unit(rng, d))
    sphere = P(c + 1.5 * _unit(rng, d))
    cone = hp.PositiveCone(d)
    boundary = np.where(rng.random(d) < 0.3, 0.0, rng.uniform(0.05, 2.0, d))
    gens = _ortho_rows(rng, 25, d)
    span = hp.SubspaceSpan(tuple(P(g) for g in gens))
    in_span = P(rng.uniform(-2, 2, 25) @ gens)
    v_span = P(rng.uniform(-2, 2, 25) @ gens)
    space4 = _space(rng, 4)
    f4, h4 = rng.uniform(0.05, 2, (4, 4)), rng.uniform(-2, 2, (4, 4))
    f4.flat[::3] = 0.0
    h4[f4 == 0.0] = 0.0
    bfun, bdir = _function(space4, f4), _function(space4, h4)
    bcone4, bconst4 = hp.BochnerPointwiseCone(space4), hp.BochnerConstantSubspace(space4)
    out["derivatives.derivative_us.ball"] = us(lambda: hp.derivative(ball, outside, y))
    x_bd, v_pos = P(boundary), P(np.abs(b))
    out["derivatives.derivative_us.cone"] = us(lambda: hp.derivative(cone, x_bd, v_pos))
    out["derivatives.derivative_us.span"] = us(lambda: hp.derivative(span, in_span, v_span))
    out["derivatives.derivative_us.bochner_cone"] = us(lambda: hp.derivative(bcone4, bfun, bdir))
    out["derivatives.derivative_us.bochner_constants"] = us(
        lambda: hp.derivative(bconst4, bfun, bdir))
    g_out = _function(space4, 3.0 * f4)
    out["derivatives.bochner_ball_us"] = us(lambda: hp.bochner_ball_derivative(g_out, bdir))
    out["derivatives.classify_direction_us"] = us(lambda: hp.classify_direction(ball, sphere, y))

    ops = [op for op in workloads.build_derive(seed)
           if op.kind.startswith(("derivative.", "bochner_ball_derivative.", "F1", "F3"))]
    covered = sum(1 for op in ops if op.call().covered)
    out["derivatives.covered_per_call"] = (covered / len(ops), "ratio")

    on_ray = sphere + 0.7 * (sphere - ball.center)
    out["sets.classify_point_us"] = us(lambda: hp.classify_point(ball, sphere))
    out["sets.in_inverse_image_us"] = us(lambda: hp.in_inverse_image(ball, sphere, on_ray))

    space10 = _space(rng, 10)
    f10 = _function(space10, rng.uniform(-2, 2, (10, 5)))
    for name, s, point in (("ball", ball, outside), ("cone", cone, x), ("span", span, x),
                           ("bochner_cone", hp.BochnerPointwiseCone(space10), f10),
                           ("bochner_constants", hp.BochnerConstantSubspace(space10), f10)):
        out[f"projection.project_us.{name}"] = us(lambda s=s, p=point: hp.project(s, p))

    batches: dict = {}
    for op in workloads.build_bulk(seed):
        if op.kind.startswith("project_sequence."):
            batches.setdefault(op.kind.split(".")[1], []).append(op.call)
    for variant, calls in batches.items():  # mean over the kind's batch sizes
        whole = per_call(lambda calls=calls: [call() for call in calls])
        out[f"projection.sequence_ms.{variant}"] = (whole * 1e3 / len(calls), "ms")
    gens200 = _ortho_rows(rng, 50, 200)
    span200 = hp.SubspaceSpan(tuple(P(g) for g in gens200))
    x200 = P(rng.uniform(-2, 2, 200))
    out["sets.span_component_us"] = us(lambda: hp.span_component(span200, x200))
    space200 = _space(rng, 200)
    f200 = _function(space200, rng.uniform(-2, 2, (200, 3)))
    flat200 = hp.flatten(f200)
    out["bochner.flatten_us"] = us(lambda: hp.flatten(f200))
    out["bochner.unflatten_us"] = us(lambda: hp.unflatten(space200, flat200))

    n = 100_000
    c5 = rng.uniform(-1, 1, n)
    ball5 = hp.ClosedBall(P(c5), 70.0)
    x5 = P(c5 + 200.0 * _unit(rng, n))
    out["projection.project_d1e5_ms.ball"] = ms(lambda: hp.project(ball5, x5))
    cone5, y5 = hp.PositiveCone(n), P(rng.uniform(-2, 2, n))
    out["projection.project_d1e5_ms.cone"] = ms(lambda: hp.project(cone5, y5))

    ball8 = hp.ClosedBall(P(rng.uniform(-1, 1, 8)), 1.2)
    x8 = ball8.center + 3.0 * P(_unit(rng, 8))
    v8 = P(rng.uniform(-2, 2, 8))
    out["oracle.fd_derivative_ms"] = ms(lambda: hp.fd_derivative(ball8, x8, v8))
    span8 = hp.SubspaceSpan(tuple(P(g) for g in _ortho_rows(rng, 4, 8)))
    trial_sets = (ball8, hp.PositiveCone(8), span8,
                  hp.BochnerPointwiseCone(space4), hp.BochnerConstantSubspace(space4))
    trials = 4
    battery = per_call(lambda: [hp.property_battery(s, trials, seed) for s in trial_sets],
                       batch_s=0.05, batches=5)
    out["oracle.battery_trial_ms"] = (battery * 1e3 / (trials * len(trial_sets)), "ms")
    u8 = hp.project(ball8, x8)
    out["oracle.variational_certificate_ms"] = ms(
        lambda: hp.variational_certificate(ball8, x8, u8, samples=1000,
                                           rng=np.random.default_rng(0)))
    out["sets.sample_points_ms"] = ms(
        lambda: hp.sample_points(ball8, 1000, np.random.default_rng(0)))

    p4 = P(rng.uniform(-2, 2, 10_000))
    text = jsonio.dumps(jsonio.encode_point(p4))
    out["jsonio.encode_point_ms"] = ms(lambda: jsonio.dumps(jsonio.encode_point(p4)))
    out["jsonio.decode_point_ms"] = ms(lambda: jsonio.decode_point(jsonio.loads(text)))

    out.update(_import_probe())
    out["fourier.trig_coefficients_ms"] = ms(
        lambda: hp.trig_coefficients(lambda t: np.exp(np.sin(t)), 7))
    return out
