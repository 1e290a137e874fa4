"""The single-point projection kernels: bits, memory and arguments.

A single projection forms its result in one new array: the cone clips with
``np.maximum`` and maps -0.0 to +0.0 by adding 0.0, and the ball scales and
shifts its one ``x - c`` array in place. These tests pin the clip to
``np.where(x > 0, x, 0.0)`` bit for bit, ``project`` to ``project_sequence`` at
d = 1e5, the temporary memory of one projection, and the inputs, which must
come back untouched. An overflowing x - c is pinned by
``test_projection.py::test_project_sequence_overflow_raises_value_error``.

``distance`` forms ||x - P(x)|| in one array as well; its bits and errors
are pinned to the two-array ``norm(x - project(s, x))``.
"""

import tracemalloc

import numpy as np
import pytest

from hilproj import (
    BochnerConstantSubspace,
    BochnerFunction,
    BochnerPointwiseCone,
    ClosedBall,
    DiscreteProbabilitySpace,
    HilbertPoint,
    PositiveCone,
    SubspaceSpan,
    bochner_distance,
    distance,
    flatten,
    norm,
    project,
    project_sequence,
)
from hilproj.core import _finite_norm
from hilproj.sets import _gap, clip_nonnegative

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



def _two_array_distance(s, x):
    """The projection, then x - P(x) as a second checked point."""
    return norm(x - project(s, x))


def _outcome(f, *args):
    try:
        return float(f(*args)).hex()
    except ValueError as e:
        return f"ValueError: {e}"


def _distance_cases():
    rng = np.random.default_rng(19)
    w = rng.uniform(0.5, 2.0, 6)
    for lam in (1e-12, 1e-6, 1.0, 1e6, 1e12):
        for weights in (None, w):
            c = HilbertPoint(lam * np.array([0.5, -0.0, -1.0, 0.25, 0.0, 2.0]), weights)
            ball = ClosedBall(c, lam * 1.5)
            wn = np.ones(6) if weights is None else weights
            for _ in range(5):
                u = rng.standard_normal(6)
                u /= np.sqrt(np.dot(u * wn, u))
                # inside, on the sphere, in the 1e-12 r band, just beyond it, outside
                for k in (0.3, 1.0, 1.0 + 1e-13, 1.0 + 1e-11, 3.0):
                    yield ball, HilbertPoint(c.coeffs + k * ball.radius * u, weights)
    # +-0.0, subnormals, +-1e308 and +-max, alone and mixed
    edges = _edge_values(rng)
    for weighted in (False, True):
        weights = rng.uniform(0.5, 2.0, edges.size) if weighted else None
        yield PositiveCone(edges.size), HilbertPoint(edges, weights)
        for _ in range(20):
            x = HilbertPoint(rng.choice(edges, 5), rng.uniform(0.5, 2.0, 5) if weighted else None)
            yield PositiveCone(5), x
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    for weights in (None, rng.uniform(0.5, 2.0, 4)):
        wn = np.ones(4) if weights is None else weights
        gens = [HilbertPoint(q[:, j] / np.sqrt(wn), weights) for j in range(4)]
        for span in (SubspaceSpan((), 4), SubspaceSpan(tuple(gens[:2])), SubspaceSpan(tuple(gens))):
            for lam in (1e-12, 1.0, 1e12):
                yield span, HilbertPoint(lam * rng.uniform(-2.0, 2.0, 4), weights)


def test_distance_equals_the_two_array_norm_bit_for_bit():
    n = 0
    with np.errstate(over="ignore"):
        for s, x in _distance_cases():
            want = _outcome(_two_array_distance, s, x)
            assert _outcome(distance, s, x) == want
            # the CLI's gap on the projection it already holds
            assert _outcome(lambda: _gap(x, project(s, x))) == want
            n += 1
    assert n >= 300


def test_bochner_distance_keeps_its_bits_in_both_forms():
    sp = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    rng = np.random.default_rng(23)
    for _ in range(20):
        f = BochnerFunction(sp, [HilbertPoint(rng.uniform(-2.0, 2.0, 3)) for _ in range(3)])
        for s in (BochnerPointwiseCone(sp), BochnerConstantSubspace(sp)):
            assert distance(s, f).hex() == bochner_distance(f, project(s, f)).hex()
            p = flatten(f)
            assert distance(s, p).hex() == _two_array_distance(s, p).hex()


def test_distance_overflow():
    with np.errstate(over="ignore"):
        # x - c overflows: the same error as project
        ball = ClosedBall(HilbertPoint([-1e308, 0.0]), 1.0)
        x = HilbertPoint([1e308, 0.0])
        for f in (distance, project, _two_array_distance):
            with pytest.raises(ValueError, match="coeffs must be finite"):
                f(ball, x)
        # a finite x - c whose norm overflows: P(x) = c, and the gap is inf
        ball = ClosedBall(HilbertPoint([0.0, 1.0]), 1.0)
        x = HilbertPoint([1e200, -1e200])
        assert distance(ball, x) == _two_array_distance(ball, x) == np.inf
        x = HilbertPoint([-1e200, 1.0, -1e200])
        assert distance(PositiveCone(3), x) == _two_array_distance(PositiveCone(3), x) == np.inf


def test_lazy_finiteness_scans_only_a_non_finite_norm():
    with np.errstate(over="ignore"):
        a = np.array([1e200, -1e200])
        assert _finite_norm(None, a) == np.inf
        assert a.flags.writeable
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="coeffs must be finite"):
                _finite_norm(np.array([1.0, 2.0]), np.array([1.0, bad]))


@pytest.mark.parametrize("name", ["ball_outside", "cone"])
def test_one_distance_allocates_one_array(name):
    s, x = _cases()[name]
    distance(s, x)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        distance(s, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # forming P(x) and then x - P(x) as a second array peaks at 2.13 x 8d bytes
    assert peak <= 1.25 * 8 * D


@pytest.mark.parametrize("name", ["ball_outside", "ball_inside", "ball_sphere_band", "cone"])
def test_distance_leaves_its_input_untouched(name):
    s, x = _cases()[name]
    before = x.coeffs.copy()
    centre = s.center.coeffs.copy() if isinstance(s, ClosedBall) else None
    assert distance(s, x).hex() == _two_array_distance(s, x).hex()
    assert np.array_equal(_bits(x.coeffs), _bits(before))
    assert not x.coeffs.flags.writeable
    if centre is not None:
        assert np.array_equal(_bits(s.center.coeffs), _bits(centre))
