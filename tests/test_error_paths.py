"""Each rejection the rest of the suite never reaches, with its type and message.

Also the two ``_inverse_image_interior`` answers of the span and the
constants: an outside point moving off its residual is not covered.
"""

import re

import numpy as np
import pytest

from hilproj import (
    BochnerConstantSubspace,
    BochnerFunction,
    BochnerPointwiseCone,
    ClosedBall,
    DimensionMismatch,
    DirectionClass,
    DiscreteProbabilitySpace,
    EmptySubset,
    HilbertPoint,
    InputError,
    NoHalfMeasureSubset,
    NOT_COVERED_TAG,
    PositiveCone,
    SpaceMismatch,
    SubspaceSpan,
    UnknownAtom,
    cone_derivative,
    constants_subspace_derivative,
    derivative,
    find_half_measure_subset,
    generic_facts_derivative,
    orthonormal_system_report,
    sample_points,
    sphere_direction,
    subset_measure,
)
from hilproj import jsonio


def pt(*coeffs, weights=None):
    return HilbertPoint(np.array(coeffs, dtype=float), weights)


def _space():
    return DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))


def _function(sp, d, seed=0):
    rng = np.random.default_rng(seed)
    return BochnerFunction(sp, [HilbertPoint(rng.uniform(-2.0, 2.0, d)) for _ in sp.atom_ids])


def _raises(kind, message):
    return pytest.raises(kind, match="^" + re.escape(message) + "$")


def test_space_needs_an_atom():
    with _raises(ValueError, "a probability space needs at least one atom"):
        DiscreteProbabilitySpace((), np.array([]))


def test_space_needs_one_weight_per_atom():
    with _raises(ValueError, "one weight per atom required"):
        DiscreteProbabilitySpace(("a", "b"), np.array([1.0]))


def test_function_values_must_be_unweighted():
    sp = DiscreteProbabilitySpace(("a", "b"), np.array([0.5, 0.5]))
    with _raises(ValueError, "per-atom values must be unweighted"):
        BochnerFunction(sp, (pt(1.0, 2.0), pt(1.0, 2.0, weights=np.array([1.0, 2.0]))))


def test_from_dict_rejects_an_unknown_atom():
    sp = DiscreteProbabilitySpace(("a", "b"), np.array([0.5, 0.5]))
    with _raises(UnknownAtom, "values given for unknown atoms ['z']"):
        BochnerFunction.from_dict(sp, {"a": pt(1.0), "b": pt(2.0), "z": pt(3.0)})


def test_subset_measure_needs_a_nonempty_subset():
    with _raises(EmptySubset, "subset of atoms must be nonempty"):
        subset_measure(_space(), [])


def test_half_measure_search_is_bounded():
    sp = DiscreteProbabilitySpace(tuple(f"a{i}" for i in range(23)), np.full(23, 1.0 / 23))
    with _raises(NoHalfMeasureSubset, "subset search supports at most 22 atoms, got 23"):
        find_half_measure_subset(sp)


def test_orthonormal_system_report_needs_a_positive_d():
    sp = DiscreteProbabilitySpace(("a", "b"), np.array([0.5, 0.5]))
    with _raises(ValueError, "d must be a positive integer"):
        orthonormal_system_report(sp, 0)


def test_cone_derivative_needs_the_cone_dimension():
    with _raises(DimensionMismatch, "cone of dimension 3 got 2/3"):
        cone_derivative(PositiveCone(3), pt(1.0, 2.0), pt(1.0, 0.0, -1.0))


def test_constants_derivative_needs_the_given_space():
    other = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.5, 0.3, 0.2]))
    f = _function(_space(), 2)
    with _raises(SpaceMismatch, "f and h must live over the given probability space"):
        constants_subspace_derivative(other, f, f)


def test_dumps_rejects_an_unknown_object():
    with _raises(TypeError, "cannot serialize object"):
        jsonio.dumps(object())


def test_encode_set_rejects_an_unknown_object():
    with _raises(TypeError, "cannot encode set object"):
        jsonio.encode_set(object())


def test_decode_function_rejects_mixed_per_atom_dimensions():
    obj = {
        "space": {"atoms": [{"id": "a", "weight": 0.5}, {"id": "b", "weight": 0.5}]},
        "values": {"a": {"coeffs": [1.0]}, "b": {"coeffs": [1.0, 2.0]}},
    }
    with _raises(InputError, "per-atom values must share one dimension"):
        jsonio.decode_function(obj)


def test_sphere_direction_gives_up_when_no_draw_clears_the_margin():
    ball = ClosedBall(pt(0.0, 0.0), 1.0)
    with _raises(RuntimeError, "direction sampling failed to hit the requested class"):
        sphere_direction(ball, pt(1.0, 0.0), DirectionClass.UP, np.random.default_rng(0),
                         margin=10.0)


def test_empty_span_needs_a_positive_ambient_dim():
    with _raises(ValueError, "ambient_dim must be a positive integer"):
        SubspaceSpan((), ambient_dim=0)


def test_generators_share_one_weighting():
    gens = (pt(1.0, 0.0, weights=np.array([1.0, 1.0])), pt(0.0, 0.5, weights=np.array([1.0, 4.0])))
    with _raises(ValueError, "generators must share one weight vector"):
        SubspaceSpan(gens)


def test_bochner_derivative_needs_one_per_atom_dimension():
    sp = _space()
    with _raises(SpaceMismatch, "per-atom dimensions 2 and 3 differ"):
        derivative(BochnerPointwiseCone(sp), _function(sp, 2), _function(sp, 3, seed=1))


def test_bochner_sampling_needs_a_reference_point():
    with _raises(ValueError, "Bochner sampling needs a reference point for the dimension"):
        sample_points(BochnerPointwiseCone(_space()), 4, np.random.default_rng(0))


def test_span_outside_point_off_its_residual_is_not_covered():
    span = SubspaceSpan((pt(1.0, 0.0, 0.0),))
    # residual (0, 2, 0); the direction has a part along the span and one off it
    result = generic_facts_derivative(span, pt(1.0, 2.0, 0.0), pt(1.0, 0.0, 1.0))
    assert not result.covered and result.case_tag == NOT_COVERED_TAG


def test_constants_outside_point_off_its_residual_is_not_covered():
    sp = _space()
    f = BochnerFunction(sp, (pt(1.0, 0.0), pt(0.0, 0.0), pt(0.0, 0.0)))
    h = BochnerFunction(sp, (pt(0.0, 1.0), pt(0.0, -1.0), pt(1.0, 0.0)))
    result = generic_facts_derivative(BochnerConstantSubspace(sp), f, h)
    assert not result.covered and result.case_tag == NOT_COVERED_TAG
