"""The array oracles against point-by-point references, bit for bit.

``fd_derivative`` projects its 23-step trail as one batch, and
``property_battery`` takes its residuals on coefficient arrays. Both must
give exactly what a per-step ``project`` loop and the ``inner``/``norm``
formulas on points give. A stacked span product rounds differently from the
one-point product, so the span case here fails if the span's batch kernel
stacks its products instead of taking one per row.
"""

import math
import sys

import numpy as np
import pytest

import hilproj
from hilproj import (
    BochnerConstantSubspace,
    BochnerPointwiseCone,
    ClosedBall,
    DirectionClass,
    DiscreteProbabilitySpace,
    HilbertPoint,
    PositiveCone,
    SubspaceSpan,
    ball_region_point,
    classify_direction,
    derivative,
    fd_derivative,
    inner,
    norm,
    project,
    property_battery,
    sample_points,
    sphere_direction,
    unflatten,
)
from hilproj.sets import VI_SLACK, _flat_form


def _sets():
    rng = np.random.default_rng(17)
    space = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    w = rng.uniform(0.5, 2.0, 6)
    q = np.linalg.qr(rng.standard_normal((6, 3)))[0].T
    return {
        "ball": ClosedBall(HilbertPoint(rng.uniform(-1.0, 1.0, 6), w), 1.3),
        "cone": PositiveCone(6),
        "span": SubspaceSpan(tuple(HilbertPoint(u) for u in q)),
        "bochner_cone": BochnerPointwiseCone(space),
        "bochner_constants": BochnerConstantSubspace(space),
    }


def _reference_fd(s, x, v):
    """The step sequence of a per-step project loop, and its Richardson value."""
    flat, xp, vp = _flat_form(s, x, v)
    base = project(flat, xp)
    steps = []
    for k in range(4, 27):
        t = 2.0 ** (-k)
        steps.append((t, (1.0 / t) * (project(flat, xp + t * vp) - base)))
    last = [q for _, q in steps[-3:]]
    residual = max(
        float(np.max(np.abs(a.coeffs - b.coeffs)))
        for i, a in enumerate(last)
        for b in last[i + 1:]
    )
    return steps, residual, 2.0 * last[2] - last[1]


def _bits(p):
    return p.coeffs.tobytes(), None if p.weights is None else p.weights.tobytes()


def _fd_cases():
    for name, s in _sets().items():
        rng = np.random.default_rng(3)
        for i in range(6):
            x, v = s._sample_pair(rng, False)
            yield pytest.param(s, x, v, id=f"{name}-{i}")
            if name.startswith("bochner"):
                f, g = unflatten(s.space, x), unflatten(s.space, v)
                yield pytest.param(s, f, g, id=f"{name}_function-{i}")


@pytest.mark.parametrize("s,x,v", list(_fd_cases()))
def test_fd_derivative_equals_a_per_step_projection_loop(s, x, v):
    est = fd_derivative(s, x, v, tol=1e-3)
    steps, residual, value = _reference_fd(s, x, v)
    assert [t for t, _ in est.step_sequence] == [t for t, _ in steps]
    assert all(type(t) is float for t, _ in est.step_sequence)
    assert [_bits(q) for _, q in est.step_sequence] == [_bits(q) for _, q in steps]
    assert est.residual == residual
    assert est.converged == (residual <= 1e-3)
    if est.converged:
        assert _bits(est.value) == _bits(value)


def _reference_battery(s, trials, seed):
    """The battery with every residual taken by inner and norm on points."""
    rng = np.random.default_rng(seed)
    names = ("variational", "strengthened_variational", "monotone", "nonexpansive",
             "nonexpansive_dichotomy", "idempotent", "homogeneous")
    thresholds = dict.fromkeys(names, VI_SLACK)
    thresholds["nonexpansive"] = thresholds["idempotent"] = 1e-12
    is_ball = isinstance(s, ClosedBall)
    if is_ball:
        thresholds["direction_partition"] = VI_SLACK
    residuals = {name: [] for name in thresholds}
    for _ in range(trials):
        x, _ = s._sample_pair(rng, False)
        y, _ = s._sample_pair(rng, False)
        px, py = project(s, x), project(s, y)
        zs = sample_points(s, 8, rng, include=(px,))
        wx = x - px
        residuals["variational"].append(-min(inner(wx, px - z) for z in zs))
        residuals["strengthened_variational"].append(
            -min(inner(wx, x - z) - inner(wx, wx) for z in zs))
        residuals["monotone"].append(inner(px - py, px - py) - inner(px - py, x - y))
        gap = norm(x - y) - norm(px - py)
        residuals["nonexpansive"].append(-gap)
        residuals["nonexpansive_dichotomy"].append(
            0.0 if gap > 0.0 else norm((px - py) - (x - y)))
        residuals["idempotent"].append(norm(project(s, px) - px))
        xc, vc = s._sample_pair(rng, True)
        base = derivative(s, xc, vc)
        residual = math.inf
        if base.covered:
            lam = (0.5, 2.0, 10.0)[int(rng.integers(3))]
            scaled = derivative(s, xc, lam * vc)
            if scaled.covered:
                residual = norm(scaled.value - lam * base.value) / max(1.0, lam * norm(base.value))
        residuals["homogeneous"].append(residual)
        if is_ball:
            xs = ball_region_point(s, "sphere", rng)
            klass = DirectionClass.UP if rng.integers(2) else DirectionClass.DOWN
            v = sphere_direction(s, xs, klass, rng, margin=1e-3)
            sign = -1.0 if classify_direction(s, xs, v) is DirectionClass.UP else 1.0
            r = s.radius
            residuals["direction_partition"].append(max(
                0.0, *(sign * (norm(xs + (t * r) * v - s.center) - r) / r for t in (1e-4, 1e-6))))
    out = []
    for name, rs in residuals.items():
        rs = [max(0.0, float(r)) for r in rs]
        out.append({"property": name, "trials": trials,
                    "failures": sum(r > thresholds[name] for r in rs),
                    "worst_residual": max(rs)})
    return out


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", list(_sets()))
def test_property_battery_equals_the_point_formulas(name, seed):
    s = _sets()[name]
    assert property_battery(s, 12, seed=seed) == _reference_battery(s, 12, seed)


def _count_checks(monkeypatch):
    """Count _checked_arrays calls, also through modules that import it by name."""
    calls = []
    real = hilproj.core._checked_arrays

    def counting(*args):
        calls.append(1)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("hilproj") and getattr(module, "_checked_arrays", None) is real:
            monkeypatch.setattr(module, "_checked_arrays", counting)
    return calls


def test_oracles_validate_points_at_the_boundary_only(monkeypatch):
    rng = np.random.default_rng(0)
    ball = ClosedBall(HilbertPoint(rng.uniform(-1.0, 1.0, 8)), 1.2)
    x = ball.center + 3.0 * HilbertPoint(rng.uniform(-1.0, 1.0, 8))
    v = HilbertPoint(rng.uniform(-2.0, 2.0, 8))
    calls = _count_checks(monkeypatch)
    fd_derivative(ball, x, v)
    assert len(calls) <= 5  # 190 with a checked point per arithmetic step
    calls.clear()
    property_battery(ball, 6, seed=0)
    assert len(calls) <= 100  # 424 with a checked point per arithmetic step


@pytest.mark.parametrize("name", list(_sets()))
def test_battery_compares_no_weights_element_wise(name, monkeypatch):
    # every point of a trial carries its set's own weights object
    s = _sets()[name]
    calls = []
    real = np.array_equal

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "array_equal", counting)
    property_battery(s, 6, seed=0)
    assert calls == []


def test_sphere_direction_checks_no_draw(monkeypatch):
    rng = np.random.default_rng(4)
    ball = ClosedBall(HilbertPoint(rng.uniform(-1.0, 1.0, 8), rng.uniform(0.5, 2.0, 8)), 1.2)
    xs = ball_region_point(ball, "sphere", rng)
    calls = _count_checks(monkeypatch)
    for klass in (DirectionClass.UP, DirectionClass.DOWN) * 10:
        v = sphere_direction(ball, xs, klass, rng)
        assert classify_direction(ball, xs, v) is klass
        assert v.weights is ball.center.weights
    assert calls == []
