"""The one-pass batch door of the ball and the cone.

``project_sequence`` on a ball or a cone gathers its batch as one (n, d)
array in one pass over the elements. A batch that this pass does not take
goes element by element through the door of ``project``. Either way a bad
element raises the type and text that ``project`` raises on it, prefixed
``element i:``, and every result equals the per-point ``project`` bit for bit.
"""

import numpy as np
import pytest

from hilproj import (
    BochnerFunction,
    ClosedBall,
    DimensionMismatch,
    DiscreteProbabilitySpace,
    HilbertPoint,
    HilprojError,
    PositiveCone,
    WeightMismatch,
    project,
    project_sequence,
)

D = 4
N = 7
W = np.array([0.5, 1.0, 2.0, 4.0])


def _sets():
    w = HilbertPoint(np.zeros(D), W).weights  # the read-only weights object the centre keeps
    return {
        "ball": ClosedBall(HilbertPoint(np.full(D, 0.25)), 1.5),
        "weighted_ball": ClosedBall(HilbertPoint(np.full(D, -0.25), w), 1.5),
        "cone": PositiveCone(D),
    }


def _good(s, rng, n=N):
    """n points of the set's dimension and weighting, half inside a ball, half outside."""
    w = s.center.weights if isinstance(s, ClosedBall) else None
    return [HilbertPoint(rng.uniform(-2.0, 2.0, D) * (0.2 if i % 2 else 1.5), w) for i in range(n)]


def _bad(kind):
    if kind == "function":
        sp = DiscreteProbabilitySpace(("a", "b"), np.array([0.5, 0.5]))
        return BochnerFunction(sp, [HilbertPoint([1.0, -1.0])] * 2)
    if kind == "list":
        return [1.0, -2.0, 3.0, -4.0]
    if kind == "wrong_dim":
        return HilbertPoint(np.ones(D + 1))
    # a weighting that neither the balls' centres nor the good points carry
    return HilbertPoint([2.0, -2.0, 2.0, -2.0], W[::-1].copy())


def _assert_bitwise(got, xs, s):
    want = [project(s, x) for x in xs]
    assert len(got) == len(want)
    for u, p, x in zip(got, want, xs):
        assert (u is x) == (p is x)
        assert u.coeffs.tobytes() == p.coeffs.tobytes()
        assert u.weights is p.weights
        assert not u.coeffs.flags.writeable


@pytest.mark.parametrize("name", ["ball", "weighted_ball", "cone"])
@pytest.mark.parametrize("kind", ["function", "list", "wrong_dim", "other_weights"])
@pytest.mark.parametrize("at", [0, N // 2, N])
def test_a_bad_element_gets_what_project_gives_it(name, kind, at):
    s = _sets()[name]
    xs = _good(s, np.random.default_rng(at))
    bad = _bad(kind)
    xs.insert(at, bad)
    try:
        project(s, bad)
    except HilprojError as e:
        with pytest.raises(type(e)) as got:
            project_sequence(s, xs)
        assert type(got.value) is type(e)
        assert str(got.value) == f"element {at}: {e}"
    else:
        # the cone takes any weighting, and each result keeps its own
        assert name == "cone" and kind == "other_weights"
        _assert_bitwise(project_sequence(s, xs), xs, s)


@pytest.mark.parametrize("name", ["ball", "weighted_ball", "cone"])
def test_dimensions_around_d_are_refused_though_their_sizes_add_up(name):
    s = _sets()[name]
    short, long = HilbertPoint(np.ones(D - 1)), HilbertPoint(np.ones(D + 1))
    good = _good(s, np.random.default_rng(9), 1)
    # n elements holding n * D coefficients in all
    for xs, at in (([short, long], 0), ([good[0], long, short], 1), ([short, long, *good], 0)):
        with pytest.raises(DimensionMismatch) as got:
            project_sequence(s, xs)
        assert str(got.value) == f"element {at}: {s._noun} of dimension {D} got {xs[at].dim}"


def test_equal_weights_in_other_arrays_are_accepted_as_same_weights_accepts_them():
    s = _sets()["weighted_ball"]
    rng = np.random.default_rng(2)
    xs = [HilbertPoint(x.coeffs, W.copy()) for x in _good(s, rng)]
    got = project_sequence(s, xs)
    _assert_bitwise(got, xs, s)
    # points in the band keep their own arrays, pulled-back points take the centre's
    assert {id(u.weights) for u in got} - {id(x.weights) for x in xs} == {id(s.center.weights)}
    with pytest.raises(WeightMismatch, match="^element 3: "):
        project_sequence(s, [*xs[:3], HilbertPoint(np.ones(D), W * 2.0), *xs[3:]])


def test_a_cone_batch_with_mixed_weightings_keeps_each_elements_weights_object():
    rng = np.random.default_rng(3)
    ws = [None, W, rng.uniform(0.5, 2.0, D), W[::-1].copy(), None]
    xs = [HilbertPoint(rng.uniform(-2.0, 2.0, D), w) for w in ws]
    got = project_sequence(PositiveCone(D), xs)
    assert [u.weights is x.weights for u, x in zip(got, xs)] == [True] * len(xs)
    _assert_bitwise(got, xs, PositiveCone(D))


@pytest.mark.parametrize("name", ["ball", "weighted_ball", "cone"])
@pytest.mark.parametrize("n", [1, 2, 40])
def test_every_result_equals_project_bit_for_bit(name, n):
    s = _sets()[name]
    rng = np.random.default_rng(n)
    xs = _good(s, rng, n)
    if isinstance(s, ClosedBall):
        # the centre, a point on the sphere (the second weight is 1) and one so far
        # out that ||x - c||^2 overflows while x - c is finite
        w = s.center.weights
        xs += [s.center, HilbertPoint(s.center.coeffs + [0.0, 1.5, 0.0, 0.0], w),
               HilbertPoint(np.full(D, 1e200), w)]
    else:
        xs += [HilbertPoint([-0.0, 0.0, -1e-300, 1e300]), HilbertPoint(np.full(D, -1e200))]
    with np.errstate(over="ignore"):
        _assert_bitwise(project_sequence(s, xs), xs, s)
