"""One weighting, one weights object: flat weightings and checked weights are shared.

Binary operations compare weightings by identity first, so a point that
carries its set's or its space's own weights array never falls back to an
element-wise comparison.
"""

import numpy as np
import pytest

from hilproj import (
    BochnerConstantSubspace,
    BochnerFunction,
    BochnerPointwiseCone,
    DiscreteProbabilitySpace,
    HilbertPoint,
    distance,
    flat_weights,
    flatten,
    project,
)
from hilproj.core import _checked_arrays

SPACE = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))


def _f():
    rows = ([1.0, -2.0, 0.5], [-3.0, 4.0, 0.0], [0.5, 0.5, -1.0])
    return BochnerFunction(SPACE, tuple(HilbertPoint(r) for r in rows))


def _count_array_equal(monkeypatch):
    calls = []
    real = np.array_equal

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "array_equal", counting)
    return calls


def test_one_flat_weighting_per_space_and_dimension():
    sp = DiscreteProbabilitySpace(("a", "b"), np.array([0.25, 0.75]))
    w = flat_weights(sp, 3)
    assert flat_weights(sp, 3) is w
    assert flat_weights(sp, 2) is not w
    assert w.tolist() == [0.25] * 3 + [0.75] * 3
    assert not w.flags.writeable


def test_flat_points_share_the_space_weighting(monkeypatch):
    f = _f()
    assert flatten(f).weights is flatten(f).weights
    p = flatten(f)
    for s in (BochnerPointwiseCone(SPACE), BochnerConstantSubspace(SPACE)):
        assert project(s, p).weights is p.weights
    calls = _count_array_equal(monkeypatch)
    distance(BochnerPointwiseCone(SPACE), p)
    assert calls == []


def test_checked_weights_are_shared_not_copied():
    w = np.array([0.5, 2.0])
    w.setflags(write=False)
    _, got = _checked_arrays([1.0, 2.0], w, 1)
    assert got is w
    assert HilbertPoint([1.0, 2.0], w).weights is w
    writeable = np.array([0.5, 2.0])
    _, got = _checked_arrays([1.0, 2.0], writeable, 1)
    assert got is not writeable and not got.flags.writeable
    view = np.array([0.5, 2.0, 3.0])[:2]
    view.setflags(write=False)
    _, got = _checked_arrays([1.0, 2.0], view, 1)
    assert got is not view and got.base is None


@pytest.mark.parametrize("weights", [[0.5, 0.0], [0.5, np.inf], [0.5, 1.0, 2.0]])
def test_shared_weights_are_still_checked(weights):
    w = np.array(weights)
    w.setflags(write=False)
    with pytest.raises(ValueError):
        HilbertPoint([1.0, 2.0], w)
