"""The single-point projection kernels: bits, memory and arguments.

A single projection forms its result in one new array: the cone clips with
``np.maximum`` and maps -0.0 to +0.0 by adding 0.0, and the ball scales and
shifts its one ``x - c`` array in place. These tests pin the clip to
``np.where(x > 0, x, 0.0)`` bit for bit, ``project`` to ``project_sequence`` at
d = 1e5, the temporary memory of one projection, and the inputs, which must
come back untouched. An overflowing x - c is pinned by
``test_projection.py::test_project_sequence_overflow_raises_value_error``.
"""

import tracemalloc

import numpy as np
import pytest

from hilproj import ClosedBall, HilbertPoint, PositiveCone, project, project_sequence
from hilproj.sets import clip_nonnegative

D = 100_000


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _edge_values(rng) -> np.ndarray:
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 1e308, -1e308,
                      np.finfo(np.float64).max, -np.finfo(np.float64).max, 1e-310, -1e-310])
    mixed = rng.choice(edges, 1000)
    return np.concatenate([edges, mixed, rng.uniform(-2.0, 2.0, 1000)])


def test_clip_equals_the_where_rule_bit_for_bit():
    x = _edge_values(np.random.default_rng(0))
    for a in (x, x.reshape(-1, 4)):
        want = np.where(a > 0.0, a, 0.0)
        got = clip_nonnegative(a)
        assert got.shape == a.shape
        assert np.array_equal(_bits(got), _bits(want))


def test_clip_leaves_no_negative_zero():
    x = _edge_values(np.random.default_rng(1))
    assert np.signbit(x).any()
    assert not np.signbit(clip_nonnegative(x)).any()
    p = project(PositiveCone(x.size), HilbertPoint(x))
    assert not np.signbit(p.coeffs).any()
    (q,) = project_sequence(PositiveCone(x.size), [HilbertPoint(x)])
    assert not np.signbit(q.coeffs).any()


def _at(ball, rng, dist):
    u = rng.standard_normal(D)
    return HilbertPoint(ball.center.coeffs + dist * u / np.linalg.norm(u))


def _cases():
    rng = np.random.default_rng(7)
    ball = ClosedBall(HilbertPoint(rng.uniform(-1.0, 1.0, D)), 50.0)
    cone = PositiveCone(D)
    return {
        "ball_outside": (ball, _at(ball, rng, 120.0)),
        "ball_inside": (ball, _at(ball, rng, 20.0)),
        "ball_sphere_band": (ball, _at(ball, rng, 50.0 * (1.0 + 1e-13))),
        "cone": (cone, HilbertPoint(rng.uniform(-2.0, 2.0, D))),
    }


@pytest.mark.parametrize("name", ["ball_outside", "ball_inside", "ball_sphere_band", "cone"])
def test_project_equals_project_sequence_at_d_1e5(name):
    s, x = _cases()[name]
    p = project(s, x)
    (q,) = project_sequence(s, [x])
    assert np.array_equal(_bits(p.coeffs), _bits(q.coeffs))
    assert p.weights is x.weights
    assert not p.coeffs.flags.writeable
    if name in ("ball_inside", "ball_sphere_band"):
        assert p is x  # the identity band returns the point itself
    else:
        assert not np.shares_memory(p.coeffs, x.coeffs)


@pytest.mark.parametrize("name", ["ball_outside", "cone"])
def test_one_projection_allocates_one_result_array(name):
    s, x = _cases()[name]
    project(s, x)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        p = project(s, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert p.coeffs.size == D
    # the result itself is 8d bytes; its finiteness mask adds d bytes
    assert peak <= 1.25 * 8 * D


@pytest.mark.parametrize("name", ["ball_outside", "ball_inside", "cone"])
def test_projection_leaves_its_input_untouched(name):
    s, x = _cases()[name]
    before = x.coeffs.copy()
    project(s, x)
    project_sequence(s, [x, x])
    assert np.array_equal(_bits(x.coeffs), _bits(before))
    assert not x.coeffs.flags.writeable
    if isinstance(s, ClosedBall):
        assert not s.center.coeffs.flags.writeable

