"""The public surface: 86 names, each declared once, in the module that defines it.

Every library module lists its public names in ``__all__``; ``hilproj``
exports their union and names none of them itself.
"""

import inspect

import pytest

import hilproj

MODULES = ("bochner", "core", "derivatives", "errors", "fourier", "oracle", "sets")

PUBLIC = [
    "BochnerConstantSubspace",
    "BochnerFunction",
    "BochnerPointwiseCone",
    "ClosedBall",
    "DEFAULT_TOL",
    "DerivativeResult",
    "DimensionMismatch",
    "DirectionClass",
    "DiscreteProbabilitySpace",
    "EmptySubset",
    "HilbertPoint",
    "HilprojError",
    "InputError",
    "NOT_COVERED_TAG",
    "NoHalfMeasureSubset",
    "NotCovered",
    "NotInCone",
    "NotInSet",
    "NotOnSphere",
    "NotUnitVector",
    "OracleEstimate",
    "OrthonormalSystemReport",
    "OutOfDomain",
    "PointClass",
    "PositiveCone",
    "SpaceMismatch",
    "SubspaceSpan",
    "UnknownAtom",
    "WeightMismatch",
    "ZeroDirection",
    "ZeroVertex",
    "ball_derivative",
    "ball_inverse_ray",
    "ball_region_point",
    "basis_function",
    "bochner_ball_derivative",
    "bochner_distance",
    "bochner_inner",
    "bochner_norm",
    "check_same",
    "classify_direction",
    "classify_point",
    "cone_derivative",
    "cone_inverse_check",
    "cone_inverse_translation_check",
    "cone_region_point",
    "constant_function",
    "constants_subspace_derivative",
    "contains",
    "derivative",
    "distance",
    "dual_cone_contains",
    "evaluate",
    "expectation",
    "fd_derivative",
    "find_half_measure_subset",
    "flat_weights",
    "flatten",
    "generic_facts_derivative",
    "homogeneity_check",
    "in_inverse_image",
    "in_pointwise_cone",
    "inner",
    "is_bochner_set",
    "isometric_embedding",
    "modulus_convexity",
    "modulus_smoothness",
    "norm",
    "norm_directional_derivative",
    "orthogonal_cone",
    "orthonormal_system_report",
    "project",
    "project_constants",
    "project_pointwise_cone",
    "project_sequence",
    "property_battery",
    "random_point",
    "sample_points",
    "simple_function",
    "span_component",
    "sphere_direction",
    "subset_measure",
    "trig_coefficients",
    "unflatten",
    "variational_certificate",
    "zeros_like",
]


def test_the_public_names_are_pinned():
    assert len(PUBLIC) == 86
    assert sorted(hilproj.__all__) == PUBLIC
    assert len(set(hilproj.__all__)) == len(hilproj.__all__)


def test_module_lists_are_disjoint_and_make_up_the_package_list():
    lists = [getattr(hilproj, m).__all__ for m in MODULES]
    union = [name for names in lists for name in names]
    assert len(union) == len(set(union))
    assert sorted(union) == sorted(hilproj.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_defines_what_it_lists(module):
    mod = getattr(hilproj, module)
    for name in mod.__all__:
        obj = getattr(mod, name)
        assert getattr(hilproj, name) is obj
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == mod.__name__, name


@pytest.mark.parametrize("name", ["random_point", "cone_region_point",
                                  "ball_region_point", "sphere_direction"])
def test_the_oracle_keeps_the_samplers_of_sets(name):
    assert getattr(hilproj.oracle, name) is getattr(hilproj.sets, name)
    assert name not in hilproj.oracle.__all__


def test_derivatives_keeps_the_direction_class_of_sets():
    assert hilproj.derivatives.DirectionClass is hilproj.sets.DirectionClass
    assert "DirectionClass" not in hilproj.derivatives.__all__


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from hilproj import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
