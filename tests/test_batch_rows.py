"""Every batch result comes from one row loop, and projection lives in sets.

``core._trusted_rows`` wraps the rows of a computed array with one weighting
per row, so a batch result carries its element's weights object (or, on a
ball, the centre's), never a copy. The package exports the projection
functions of ``hilproj.sets`` themselves.
"""

from itertools import repeat

import numpy as np
import pytest

import hilproj.bochner
import hilproj.sets
from hilproj import (
    BochnerConstantSubspace,
    BochnerFunction,
    BochnerPointwiseCone,
    ClosedBall,
    DiscreteProbabilitySpace,
    HilbertPoint,
    PositiveCone,
    SubspaceSpan,
    flat_weights,
    flatten,
    in_inverse_image,
    project,
    project_sequence,
)
from hilproj.core import _trusted_rows
from hilproj.errors import SpaceMismatch


def _space():
    return DiscreteProbabilitySpace(("a", "b", "c", "d"), np.array([0.1, 0.2, 0.3, 0.4]))


def _function(rng, sp, d):
    return BochnerFunction(sp, [HilbertPoint(rng.uniform(-2.0, 2.0, d)) for _ in sp.atom_ids])


@pytest.mark.parametrize("name", ["project", "distance", "project_sequence"])
def test_projection_module_is_an_alias_of_sets(name):
    assert getattr(hilproj, name) is getattr(hilproj.sets, name)


def test_trusted_rows_gives_row_i_the_i_th_weighting():
    rows = np.arange(12.0).reshape(4, 3)
    rows.setflags(write=False)
    w1, w2 = np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])
    weights = [w1, None, w2, w1]
    points = _trusted_rows(rows, weights)
    assert [p.weights is w for p, w in zip(points, weights)] == [True] * 4
    assert all(np.shares_memory(p.coeffs, rows) for p in points)
    assert [p.weights for p in _trusted_rows(rows, repeat(None))] == [None] * 4


def test_cone_batch_keeps_each_element_weights_object():
    rng = np.random.default_rng(0)
    w1, w2 = rng.uniform(0.5, 2.0, 5), rng.uniform(0.5, 2.0, 5)
    xs = [HilbertPoint(rng.uniform(-3.0, 3.0, 5), w) for w in (w1, None, w2)]
    out = project_sequence(PositiveCone(5), xs)
    assert [u.weights is x.weights for u, x in zip(out, xs)] == [True, True, True]


def test_ball_batch_shares_element_or_centre_weights():
    rng = np.random.default_rng(1)
    w = rng.uniform(0.5, 2.0, 6)
    ball = ClosedBall(HilbertPoint(np.zeros(6), w), 1.0)
    # equal weightings, each in its own array; half the points lie outside
    xs = [HilbertPoint(rng.uniform(-1.0, 1.0, 6) * s, w.copy()) for s in (0.1, 3.0, 0.1, 3.0)]
    out = project_sequence(ball, xs)
    assert [u is x for u, x in zip(out, xs)] == [True, False, True, False]
    for u, x in zip(out, xs):
        assert u.weights is x.weights or u.weights is ball.center.weights


def test_span_batch_shares_element_weights():
    w = np.array([1.0, 2.0, 4.0])
    gens = (HilbertPoint([1.0, 0.0, 0.0], w), HilbertPoint([0.0, np.sqrt(0.5), 0.0], w))
    span = SubspaceSpan(gens)
    xs = [HilbertPoint([1.0, 2.0, 3.0], w.copy()), HilbertPoint([-1.0, 0.5, 2.0], w.copy())]
    out = project_sequence(span, xs)
    for u, x in zip(out, xs):
        assert u.weights is x.weights or u.weights is span.generators[0].weights


def test_bochner_flat_batch_shares_one_weights_array():
    rng = np.random.default_rng(2)
    sp = _space()
    xs = [flatten(_function(rng, sp, 3)) for _ in range(3)]
    out = project_sequence(BochnerPointwiseCone(sp), xs)
    assert out[0].weights is out[1].weights is out[2].weights
    assert np.array_equal(out[0].weights, flat_weights(sp, 3))


@pytest.mark.parametrize("cls", [BochnerPointwiseCone, BochnerConstantSubspace])
def test_bochner_function_batch_builds_no_flat_weights(cls, monkeypatch):
    rng = np.random.default_rng(5)
    sp = _space()
    fs = [_function(rng, sp, 2) for _ in range(3)]
    calls = []
    real = hilproj.bochner.flat_weights

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hilproj.bochner, "flat_weights", counting)
    out = project_sequence(cls(sp), fs)
    assert calls == []
    for u, f in zip(out, fs):
        assert isinstance(u, BochnerFunction)
        assert np.array_equal(u.array, project(cls(sp), f).array)
        assert not u.array.flags.writeable


def test_constants_projection_is_a_real_array_that_flatten_views():
    rng = np.random.default_rng(3)
    sp = _space()
    s = BochnerConstantSubspace(sp)
    f = _function(rng, sp, 2)
    for u in (project(s, f), *project_sequence(s, [f, f])):
        assert u.array.strides[0] != 0
        assert np.shares_memory(flatten(u).coeffs, u.array)
        assert np.array_equal(u.array, np.repeat(u.array[:1], sp.n_atoms, axis=0))


@pytest.mark.parametrize("cls", [BochnerPointwiseCone, BochnerConstantSubspace])
def test_bochner_inverse_image_needs_one_per_atom_dimension(cls):
    rng = np.random.default_rng(4)
    sp = _space()
    s = cls(sp)
    y = project(s, _function(rng, sp, 2))
    with pytest.raises(SpaceMismatch, match="^per-atom dimensions 2 and 3 differ$"):
        in_inverse_image(s, y, _function(rng, sp, 3))
