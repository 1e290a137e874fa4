"""The product kernel ``core._dot`` is numpy's dot, called as the ndarray method.

``a.dot(b)`` makes the same cblas call as ``np.dot(a, b)`` without numpy's
function dispatch, so every product, norm and distance keeps its bits. A
seeded sweep over dimensions, weightings and scales compares the two bit for
bit. numpy's overflow warning is kept too: a finite point whose squared norm
overflows still warns ``overflow encountered in dot``, so under ``-W error``
``distance`` on it raises ``RuntimeWarning`` as it did (an open defect, pinned
here so that it does not change silently).
"""

import math
import warnings

import numpy as np
import pytest

from hilproj import HilbertPoint, PositiveCone, distance, inner, norm
from hilproj.core import _dot

DIMS = (1, 2, 8, 50, 1000, 100_000)
SCALES = (1e-100, 1e-5, 1.0, 1e5, 1e100)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("d", DIMS)
def test_the_kernel_equals_np_dot_bit_for_bit(d):
    rng = np.random.default_rng(d)
    trials = 40 if d <= 1000 else 4
    for scale in SCALES:
        for _ in range(trials):
            a = rng.standard_normal(d) * scale
            b = rng.standard_normal(d) * rng.choice(SCALES)
            w = rng.uniform(0.5, 2.0, d)
            assert _bits(_dot(None, a, b)) == _bits(float(np.dot(a, b)))
            assert _bits(_dot(w, a, b)) == _bits(float(np.dot(w * a, b)))
            assert _bits(_dot(w, a, a)) == _bits(float(np.dot(w * a, a)))


def test_inner_and_norm_keep_the_bits_of_np_dot():
    rng = np.random.default_rng(5)
    for d in DIMS[:5]:
        w = rng.uniform(0.5, 2.0, d)
        x = HilbertPoint(rng.standard_normal(d), w)
        y = HilbertPoint(rng.standard_normal(d), w)
        assert _bits(inner(x, y)) == _bits(float(np.dot(w * x.coeffs, y.coeffs)))
        assert _bits(norm(x)) == _bits(math.sqrt(float(np.dot(w * x.coeffs, x.coeffs))))


@pytest.mark.parametrize("w", [None, np.ones(3)], ids=["unweighted", "weighted"])
def test_an_overflowing_product_still_warns(w):
    a = np.array([1e200, 1.0, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow encountered in dot"):
            _dot(w, a, a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _dot(w, a, a) == float("inf")


def test_an_overflowing_distance_raises_under_error_warnings():
    x = HilbertPoint([-1e200, 1.0, -1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow encountered in dot"):
            distance(PositiveCone(3), x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert distance(PositiveCone(3), x) == float("inf")
