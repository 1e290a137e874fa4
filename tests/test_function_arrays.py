"""A BochnerFunction is one read-only (k, d) array.

flatten and unflatten are views of it, and expectation, bochner_inner and
bochner_distance on the array give the bits of the per-point loops over
separately built atom values.
"""

import numpy as np
import pytest

from hilproj import (
    BochnerFunction,
    DiscreteProbabilitySpace,
    HilbertPoint,
    bochner_distance,
    bochner_inner,
    expectation,
    flatten,
    inner,
    norm,
    unflatten,
)


def _space(rng, k):
    w = rng.uniform(0.5, 1.5, k)
    return DiscreteProbabilitySpace(tuple(f"s{i}" for i in range(k)), w / w.sum())


def _points(rows):
    return [HilbertPoint(r) for r in rows]


def _loop_expectation(space, xs):
    acc = np.zeros(xs[0].dim)
    for w, v in zip(space.weights, xs):
        acc += w * v.coeffs
    return acc


def _loop_inner(space, xs, ys):
    return float(sum(w * inner(a, b) for w, a, b in zip(space.weights, xs, ys)))


def _loop_distance(space, xs, ys):
    diff = [norm(a - b) ** 2 for a, b in zip(xs, ys)]
    return float(np.sqrt(max(np.dot(space.weights, diff), 0.0)))


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def test_array_is_read_only_and_values_view_its_rows():
    sp = DiscreteProbabilitySpace(("a", "b"), np.array([0.25, 0.75]))
    rows = np.array([[1.0, -2.0], [3.0, 4.0]])
    f = BochnerFunction(sp, _points(rows))
    assert f.array.dtype == np.float64 and f.array.shape == (2, 2)
    with pytest.raises(ValueError):
        f.array[0, 0] = 7.0
    rows[0, 0] = 9.0  # the constructor copied its input
    assert f.array[0, 0] == 1.0
    for v, row in zip(f.values, f.array):
        assert v.weights is None
        assert np.shares_memory(v.coeffs, f.array)
        assert np.array_equal(v.coeffs, row)
        with pytest.raises(ValueError):
            v.coeffs[0] = 7.0
    assert np.array_equal(f.value_at("b").coeffs, [3.0, 4.0])
    assert np.shares_memory(f.value_at("b").coeffs, f.array)


def test_flatten_and_unflatten_are_views():
    rng = np.random.default_rng(3)
    sp = _space(rng, 4)
    f = BochnerFunction(sp, _points(rng.uniform(-2.0, 2.0, (4, 3))))
    p = flatten(f)
    assert np.shares_memory(p.coeffs, f.array)
    assert np.array_equal(p.coeffs, f.array.ravel())
    g = unflatten(sp, p)
    assert np.shares_memory(g.array, p.coeffs)
    assert np.array_equal(g.array, f.array)
    with pytest.raises(ValueError):
        p.weights[0] = 7.0


@pytest.mark.parametrize("k", [1, 3, 200])
@pytest.mark.parametrize("d", [1, 3])
def test_kernels_equal_the_per_point_loops_bit_for_bit(k, d):
    rng = np.random.default_rng(100 * k + d)
    space = _space(rng, k)
    for _ in range(5):
        xs = _points(rng.uniform(-2.0, 2.0, (k, d)))
        ys = _points(rng.uniform(-2.0, 2.0, (k, d)))
        f, g = BochnerFunction(space, xs), BochnerFunction(space, ys)
        assert expectation(f).coeffs.tobytes() == _loop_expectation(space, xs).tobytes()
        assert _bits(bochner_inner(f, g)) == _bits(_loop_inner(space, xs, ys))
        assert _bits(bochner_distance(f, g)) == _bits(_loop_distance(space, xs, ys))
