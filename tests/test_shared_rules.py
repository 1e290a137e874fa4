"""Rules the set protocol states once, and the copies of the function space.

* A query's ``tol`` is checked before any argument is read: a NaN or a
  negative tol is the error even beside a non-point or a point of the wrong
  dimension, on every kind of set.
* Copies of a probability space, and of a function over it, rebuild through
  the constructor: their arrays stay read-only, and a copied space starts
  with an empty cache rather than the original's flat weights and flat sets.
* A span's covered Prop 3.1 pair moves an outside point drawn too close to
  the span off it, so its residual direction is never zero.
"""

import copy
import math
import pickle

import numpy as np
import pytest

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
    bochner_inner,
    classify_point,
    cone_inverse_check,
    cone_inverse_translation_check,
    contains,
    derivative,
    dual_cone_contains,
    flat_weights,
    flatten,
    in_inverse_image,
    norm,
    project,
    span_component,
)


def pt(*c, weights=None):
    return HilbertPoint(np.array(c, dtype=float), weights)


SPACE = DiscreteProbabilitySpace(("a", "b"), np.array([0.25, 0.75]))
SETS = {
    "ball": ClosedBall(pt(0.0, 0.0), 1.0),
    "cone": PositiveCone(2),
    "span": SubspaceSpan((pt(1.0, 0.0),)),
    "bochner_cone": BochnerPointwiseCone(SPACE),
    "bochner_constants": BochnerConstantSubspace(SPACE),
}
# a non-point, and a point whose dimension fits no set above (3 is no multiple of 2 atoms)
BAD_ARGS = {"non_point": "x", "wrong_dimension": pt(1.0, 2.0, 3.0)}
QUERIES = {
    "contains": lambda s, a, tol: contains(s, a, tol),
    "classify_point": lambda s, a, tol: classify_point(s, a, tol),
    "in_inverse_image": lambda s, a, tol: in_inverse_image(s, a, a, tol=tol),
    "in_inverse_image_bad_budget": lambda s, a, tol: in_inverse_image(s, a, a, -1, tol),
    "derivative": lambda s, a, tol: derivative(s, a, a, tol),
}
CONE_QUERIES = {
    "dual_cone_contains": lambda a, tol: dual_cone_contains(PositiveCone(2), a, tol),
    "cone_inverse_translation_check": lambda a, tol: cone_inverse_translation_check(
        PositiveCone(2), a, 2.0, a, tol),
    "cone_inverse_check": lambda a, tol: cone_inverse_check(a, a, tol),
}


def _tol_first(call):
    with pytest.raises(Exception) as e:  # the bad argument alone is an error, but not tol's
        call(1e-9)
    assert "tol" not in str(e.value)
    for tol in (math.nan, -1.0):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            call(tol)


@pytest.mark.parametrize("arg", list(BAD_ARGS))
@pytest.mark.parametrize("query", list(QUERIES))
@pytest.mark.parametrize("set_name", list(SETS))
def test_a_bad_tol_is_reported_before_a_bad_argument(set_name, query, arg):
    _tol_first(lambda tol: QUERIES[query](SETS[set_name], BAD_ARGS[arg], tol))


@pytest.mark.parametrize("arg", list(BAD_ARGS))
@pytest.mark.parametrize("query", list(CONE_QUERIES))
def test_a_bad_tol_is_reported_before_a_bad_argument_of_a_cone_helper(query, arg):
    _tol_first(lambda tol: CONE_QUERIES[query](BAD_ARGS[arg], tol))


_CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda o: pickle.loads(pickle.dumps(o))}


def _used_space():
    """A space whose cache holds flat weights and a flat set, as after a query."""
    space = DiscreteProbabilitySpace(("a", "b"), np.array([0.25, 0.75]))
    f = BochnerFunction(space, (pt(1.0, -2.0, 0.5), pt(0.0, 3.0, -1.0)))
    derivative(BochnerPointwiseCone(space), f, f)
    assert space._kept
    return space, f


@pytest.mark.parametrize("name", list(_CLONES))
def test_a_copied_space_keeps_its_weights_read_only_and_starts_an_empty_cache(name):
    space, _ = _used_space()
    q = _CLONES[name](space)
    assert type(q) is DiscreteProbabilitySpace and q is not space
    assert q.atom_ids == space.atom_ids and q.weights.tobytes() == space.weights.tobytes()
    assert q._kept == {} and q._kept is not space._kept
    assert not q.weights.flags.writeable
    w = flat_weights(q, 3)
    assert not w.flags.writeable and w.tobytes() == flat_weights(space, 3).tobytes()
    assert q.same_space(space)


@pytest.mark.parametrize("name", list(_CLONES))
def test_a_copied_function_keeps_its_array_and_flat_weights_read_only(name):
    _, f = _used_space()
    g = _CLONES[name](f)
    assert type(g) is BochnerFunction and g is not f
    assert g.array.tobytes() == f.array.tobytes() and g.array.shape == f.array.shape
    assert not g.array.flags.writeable
    with pytest.raises(ValueError):
        g.array[0, 0] = 9.0
    assert not flatten(g).weights.flags.writeable
    assert (g.space is f.space) == (name == "copy")
    assert bochner_inner(f, g) == bochner_inner(f, f)


@pytest.mark.parametrize("weights", [None, [0.5, 1.0, 2.0]], ids=["unweighted", "weighted"])
def test_an_outside_point_drawn_in_the_span_is_moved_off_it(monkeypatch, weights):
    w = np.ones(3) if weights is None else np.array(weights)
    span = SubspaceSpan(tuple(HilbertPoint(np.eye(3)[i] / math.sqrt(w[i]), weights) for i in range(2)))
    real = hilproj.sets.random_point
    # every draw lands in the span, so each Prop 3.1 pair has needed the nudge
    monkeypatch.setattr(hilproj.sets, "random_point",
                        lambda rng, dim, weights=None: span_component(span, real(rng, dim, weights)))
    rng = np.random.default_rng(3)
    tags = []
    for _ in range(16):
        x, v = span._sample_pair(rng, True)
        result = derivative(span, x, v)
        assert result.covered
        tags.append(result.case_tag)
        if result.case_tag == "Prop3.1":
            assert norm(x - project(span, x)) >= 1e-3
            assert norm(v) > 0.0
    assert "Prop3.1" in tags
