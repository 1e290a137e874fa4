"""Coefficient-vector model: arithmetic, inner products, scalar moduli."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilproj import (
    DimensionMismatch,
    HilbertPoint,
    NotUnitVector,
    OutOfDomain,
    WeightMismatch,
    inner,
    modulus_convexity,
    modulus_smoothness,
    norm,
    norm_directional_derivative,
    zeros_like,
)
from hilproj.core import _points_from_rows


def pt(*coeffs, weights=None):
    return HilbertPoint(np.array(coeffs, dtype=float),
                        None if weights is None else np.array(weights, dtype=float))


def test_point_validation():
    with pytest.raises(ValueError):
        HilbertPoint(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        HilbertPoint(np.array([np.nan]))
    with pytest.raises(ValueError):
        HilbertPoint(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        HilbertPoint(np.array([1.0]), np.array([1.0, 2.0]))


def test_points_from_rows_checks_the_matrix_like_the_constructor():
    bad = [
        ((np.array([1.0, 2.0]), None), (np.array([[1.0, 2.0]]), None)),
        ((np.array([[1.0], [np.nan]]), None), (np.array([np.nan]), None)),
        ((np.array([[1.0], [2.0]]), np.array([0.0])), (np.array([1.0]), np.array([0.0]))),
        ((np.array([[1.0], [2.0]]), np.array([1.0, 2.0])),
         (np.array([1.0]), np.array([1.0, 2.0]))),
        ((np.array([[1.0], [2.0]]), np.array([np.inf])), (np.array([1.0]), np.array([np.inf]))),
    ]
    for (rows, w), (coeffs, pw) in bad:
        with pytest.raises(ValueError) as batch:
            _points_from_rows(rows, w)
        with pytest.raises(ValueError) as single:
            HilbertPoint(coeffs, pw)
        assert str(batch.value) == str(single.value)


def test_points_from_rows_are_read_only_copies():
    src = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = np.array([0.5, 2.0])
    points = _points_from_rows(src, w)
    src[0, 0] = 9.0
    w[0] = 9.0
    assert [p.coeffs.tolist() for p in points] == [[1.0, 2.0], [3.0, 4.0]]
    assert points[0].weights.tolist() == [0.5, 2.0]
    for p in points:
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0
        with pytest.raises(ValueError):
            p.weights[0] = 5.0
    assert inner(points[0], points[1]) == 0.5 * 3.0 + 2.0 * 8.0


def test_points_are_immutable():
    x = pt(1.0, 2.0)
    with pytest.raises(ValueError):
        x.coeffs[0] = 5.0
    src = np.array([1.0, 2.0])
    y = HilbertPoint(src)
    src[0] = 9.0
    assert y.coeffs[0] == 1.0


def test_arithmetic():
    x, y = pt(1.0, 2.0), pt(3.0, -1.0)
    assert np.array_equal((x + y).coeffs, [4.0, 1.0])
    assert np.array_equal((x - y).coeffs, [-2.0, 3.0])
    assert np.array_equal((2.0 * x).coeffs, [2.0, 4.0])
    assert np.array_equal((x * 2.0).coeffs, [2.0, 4.0])
    assert np.array_equal((-x).coeffs, [-1.0, -2.0])
    assert np.array_equal(zeros_like(x).coeffs, [0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        x + pt(1.0, 2.0, 3.0)
    with pytest.raises(WeightMismatch):
        x + pt(1.0, 2.0, weights=[1.0, 2.0])


def test_weighted_inner():
    x = pt(1.0, 2.0, weights=[0.5, 2.0])
    y = pt(3.0, -1.0, weights=[0.5, 2.0])
    assert inner(x, y) == 0.5 * 3.0 + 2.0 * 2.0 * (-1.0)
    assert norm(pt(3.0, 4.0)) == 5.0


def test_modulus_convexity_values():
    # delta(eps) = 1 - sqrt(1 - eps^2/4)
    assert modulus_convexity(0.0) == 0.0
    assert abs(modulus_convexity(1.0) - (1.0 - math.sqrt(3.0) / 2.0)) < 1e-15
    assert abs(modulus_convexity(2.0) - 1.0) < 1e-15
    for bad in (-0.1, 2.1):
        with pytest.raises(OutOfDomain):
            modulus_convexity(bad)


def test_modulus_smoothness_values():
    # rho(t) = sqrt(1 + t^2) - 1
    assert abs(modulus_smoothness(0.5) - (math.sqrt(1.25) - 1.0)) < 1e-15
    assert abs(modulus_smoothness(0.5) - 0.11803398874989485) < 1e-15
    for bad in (0.0, -1.0):
        with pytest.raises(OutOfDomain):
            modulus_smoothness(bad)


def test_modulus_convexity_matches_sampled_infimum():
    # the infimum defining delta depends only on ||x - y||, so unit pairs at
    # separation exactly eps realize it; pairs separated by more stay above
    rng = np.random.default_rng(11)
    for eps in (0.25, 1.0, 1.7):
        sampled = np.inf
        for _ in range(10_000):
            alpha = rng.uniform(0.0, 2.0 * np.pi)
            x = np.array([np.cos(alpha), np.sin(alpha)])
            beta = alpha - 2.0 * np.arcsin(eps / 2.0)
            y = np.array([np.cos(beta), np.sin(beta)])
            assert abs(np.linalg.norm(x - y) - eps) < 1e-12
            sampled = min(sampled, 1.0 - np.linalg.norm((x + y) / 2.0))
        assert abs(sampled - modulus_convexity(eps)) < 1e-6


def test_modulus_convexity_is_lower_bound_for_wider_pairs():
    rng = np.random.default_rng(12)
    eps = 0.8
    for _ in range(2000):
        a, b = rng.uniform(0.0, 2.0 * np.pi, size=2)
        x = np.array([np.cos(a), np.sin(a)])
        y = np.array([np.cos(b), np.sin(b)])
        if np.linalg.norm(x - y) >= eps:
            assert 1.0 - np.linalg.norm((x + y) / 2.0) >= modulus_convexity(eps) - 1e-12


def test_modulus_smoothness_matches_sampled_supremum():
    # the supremum is attained at orthogonal unit pairs
    rng = np.random.default_rng(13)
    for t in (0.1, 0.5, 2.0):
        sampled = -np.inf
        for _ in range(10_000):
            a = rng.uniform(0.0, 2.0 * np.pi)
            x = np.array([np.cos(a), np.sin(a)])
            y = np.array([-np.sin(a), np.cos(a)]) if rng.integers(2) else np.array(
                [np.cos(a + rng.uniform(0, 2 * np.pi)), np.sin(a + rng.uniform(0, 2 * np.pi))]
            )
            y = y / np.linalg.norm(y)
            val = (np.linalg.norm(x + t * y) + np.linalg.norm(x - t * y)) / 2.0 - 1.0
            sampled = max(sampled, val)
        assert sampled <= modulus_smoothness(t) + 1e-12
        assert abs(sampled - modulus_smoothness(t)) < 1e-6


def test_norm_directional_derivative_requires_unit_inputs():
    x = pt(1.0, 0.0)
    v = pt(0.0, 1.0)
    assert norm_directional_derivative(x, v) == inner(x, v)
    with pytest.raises(NotUnitVector):
        norm_directional_derivative(pt(2.0, 0.0), v)
    with pytest.raises(NotUnitVector):
        norm_directional_derivative(x, pt(0.3, 0.7))


def test_norm_directional_derivative_matches_one_sided_quotient():
    # (||x + tv|| - ||x||)/t = <x,v> + O(t) at unit x, unit v
    rng = np.random.default_rng(14)
    for _ in range(200):
        x = rng.standard_normal(3)
        x = x / np.linalg.norm(x)
        v = rng.standard_normal(3)
        v = v / np.linalg.norm(v)
        d = norm_directional_derivative(HilbertPoint(x), HilbertPoint(v))
        for t in (1e-3, 1e-4, 1e-5):
            q = (np.linalg.norm(x + t * v) - 1.0) / t
            assert abs(q - d) < 2.0 * t + 1e-9


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(coords, min_size=1, max_size=6), st.data())
@settings(max_examples=200, deadline=None)
def test_cauchy_schwarz(xs, data):
    ys = data.draw(st.lists(coords, min_size=len(xs), max_size=len(xs)))
    x, y = HilbertPoint(np.array(xs)), HilbertPoint(np.array(ys))
    assert abs(inner(x, y)) <= norm(x) * norm(y) + 1e-6 * max(1.0, norm(x) * norm(y))


@given(st.lists(coords, min_size=1, max_size=6), st.data())
@settings(max_examples=200, deadline=None)
def test_parallelogram_law(xs, data):
    ys = data.draw(st.lists(coords, min_size=len(xs), max_size=len(xs)))
    x, y = HilbertPoint(np.array(xs)), HilbertPoint(np.array(ys))
    lhs = norm(x + y) ** 2 + norm(x - y) ** 2
    rhs = 2.0 * (norm(x) ** 2 + norm(y) ** 2)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


@given(st.lists(coords, min_size=1, max_size=6), st.data())
@settings(max_examples=200, deadline=None)
def test_triangle_inequality(xs, data):
    ys = data.draw(st.lists(coords, min_size=len(xs), max_size=len(xs)))
    x, y = HilbertPoint(np.array(xs)), HilbertPoint(np.array(ys))
    assert norm(x + y) <= norm(x) + norm(y) + 1e-9 * max(1.0, norm(x) + norm(y))


def test_arithmetic_keeps_the_finiteness_check():
    big = pt(1e308, -1e308, weights=[1.0, 2.0])
    with np.errstate(over="ignore"):
        for overflow in (lambda: big * 10.0, lambda: 10.0 * big, lambda: big + big,
                         lambda: big - (-big)):
            with pytest.raises(ValueError, match="^coeffs must be finite$"):
                overflow()


def test_arithmetic_results_are_read_only_and_share_the_weights():
    x, y = pt(1.0, 2.0, weights=[0.5, 2.0]), pt(3.0, -1.0, weights=[0.5, 2.0])
    for r in (x + y, x - y, -x, 2.0 * x, x * 2.0, zeros_like(x)):
        assert r.weights is x.weights
        assert r.coeffs.dtype == np.float64
        with pytest.raises(ValueError):
            r.coeffs[0] = 5.0
    assert (-pt(1.0)).weights is None


def test_arithmetic_mismatch_messages():
    x = pt(1.0, 2.0, weights=[1.0, 2.0])
    with pytest.raises(DimensionMismatch, match="^dimensions 2 and 3 differ$"):
        x + pt(1.0, 2.0, 3.0, weights=[1.0, 2.0, 3.0])
    message = "^points carry different inner-product weights$"
    for other in (pt(1.0, 2.0), pt(1.0, 2.0, weights=[1.0, 3.0])):
        for a, b in ((x, other), (other, x)):
            with pytest.raises(WeightMismatch, match=message):
                a + b
            with pytest.raises(WeightMismatch, match=message):
                a - b


def _built_every_way():
    """Points from the constructor, from arithmetic and from a batch of rows."""
    c, w = np.array([1.0, -2.0]), np.array([0.5, 2.0])
    x = HilbertPoint(c, weights=w)
    return [HilbertPoint(c), x, x + x, zeros_like(x), *_points_from_rows(np.array([c, -c]), w)]


def test_construction_keeps_its_signature():
    c, w = np.array([1.0, -2.0]), np.array([0.5, 2.0])
    for p, weights in ((HilbertPoint(c), None), (HilbertPoint(c, weights=w), w),
                       (HilbertPoint(c, w), w)):
        assert p.coeffs.tolist() == [1.0, -2.0] and p.coeffs.dtype == np.float64
        if weights is None:
            assert p.weights is None
        else:
            assert p.weights.tolist() == [0.5, 2.0]
    assert HilbertPoint(coeffs=[3.0]).coeffs.tolist() == [3.0]


def test_fields_can_be_neither_assigned_nor_deleted():
    for p in _built_every_way():
        for field in ("coeffs", "weights"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, field, np.zeros(2))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(p, field)
        assert p.coeffs.shape == (2,)


def test_points_are_equal_only_to_themselves():
    x = HilbertPoint([1.0, 2.0])
    y = HilbertPoint([1.0, 2.0])
    assert x == x and not x != x
    assert x != y and not x == y
    assert (x + zeros_like(x)) != x


def test_repr_is_unchanged():
    assert repr(HilbertPoint([1.0, -2.5])) == "HilbertPoint([1.0, -2.5])"
    weighted = HilbertPoint([1.0, -2.5], [0.5, 2.0])
    assert repr(weighted) == "HilbertPoint([1.0, -2.5], weights=[0.5, 2.0])"


def test_both_arrays_are_read_only():
    for p in _built_every_way():
        assert not p.coeffs.flags.writeable
        assert p.weights is None or not p.weights.flags.writeable


def test_a_point_holds_two_slots_and_no_dict():
    for p in _built_every_way():
        assert not hasattr(p, "__dict__")
    assert HilbertPoint.__slots__ == ("coeffs", "weights")


_CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda p: pickle.loads(pickle.dumps(p))}


@pytest.mark.parametrize("name", list(_CLONES))
def test_copies_of_a_point_are_read_only_points(name):
    for p in _built_every_way():
        q = _CLONES[name](p)
        assert type(q) is HilbertPoint and q is not p
        assert q.coeffs.tobytes() == p.coeffs.tobytes()
        assert (q.weights is None) == (p.weights is None)
        assert not q.coeffs.flags.writeable
        with pytest.raises(ValueError):
            q.coeffs[0] = 9.0
        if p.weights is not None:
            assert q.weights.tobytes() == p.weights.tobytes() and not q.weights.flags.writeable
            assert (q.weights is p.weights) == (name == "copy")
            assert inner(p, q) == inner(p, p)
