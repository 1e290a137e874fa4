"""One door for every argument of a ball, cone or span.

``sets._flat_form`` decides whether an argument is a point of the set's
space: a non-point (a function) or a wrong dimension is one
``DimensionMismatch`` text, ``"<noun> of dimension n got a/b"``, on every
entry point, and two weightings among the arguments are one
``WeightMismatch``, raised before any rule looks at the points. Projections
make the same dimension test in one comparison per point and raise the
door's text; a batch prefixes it with ``element i:``.
"""

import json

import numpy as np
import pytest

import hilproj.sets
from hilproj import (
    BochnerFunction,
    ClosedBall,
    DimensionMismatch,
    DiscreteProbabilitySpace,
    HilbertPoint,
    PositiveCone,
    SubspaceSpan,
    WeightMismatch,
    ball_derivative,
    ball_inverse_ray,
    classify_direction,
    classify_point,
    cone_derivative,
    cone_inverse_translation_check,
    contains,
    derivative,
    dual_cone_contains,
    fd_derivative,
    generic_facts_derivative,
    in_inverse_image,
    project,
    project_sequence,
    sample_points,
    variational_certificate,
)
from hilproj.cli import main


def pt(*c, weights=None):
    return HilbertPoint(np.array(c, dtype=float), weights)


W = (1.0, 4.0)
# each set of dimension 2: its noun and the weighting of its points
SETS = {
    "ball": (ClosedBall(pt(0.0, 0.0), 1.0), "ball", None),
    "cone": (PositiveCone(2), "cone", None),
    "full_span": (SubspaceSpan((pt(1.0, 0.0), pt(0.0, 1.0))), "span", None),
    "empty_span": (SubspaceSpan((), ambient_dim=2), "span", None),
    "weighted_span": (SubspaceSpan((pt(1.0, 0.0, weights=W),)), "span", W),
}
SPACE = DiscreteProbabilitySpace(("a", "b"), np.array([0.5, 0.5]))
# a function over two atoms with values in R^2, and a point of dimension 3
BAD = {
    "dimension": (pt(1.0, 2.0, 3.0), "3"),
    "function": (BochnerFunction(SPACE, (pt(1.0, 2.0), pt(0.0, 1.0))), "BochnerFunction"),
}


def _member(name):
    """A point of the set, on its weighting."""
    return pt(0.0, 0.0, weights=SETS[name][2])


def _other_weighting(name):
    """Weights that differ from the set's own."""
    return None if SETS[name][2] is not None else (1.0, 2.0)


# entry point: (the sets it takes, call(s, member, bad), argument dimensions with b for the bad one)
CALLS = {
    "project": (SETS, lambda s, m, b: project(s, b), "b"),
    "contains": (SETS, lambda s, m, b: contains(s, b), "b"),
    "classify_point": (SETS, lambda s, m, b: classify_point(s, b), "b"),
    "in_inverse_image": (SETS, lambda s, m, b: in_inverse_image(s, m, b), "2/b"),
    "sample_points": (SETS, lambda s, m, b: sample_points(s, 4, np.random.default_rng(0),
                                                          include=(b,)), "b"),
    "derivative": (SETS, lambda s, m, b: derivative(s, m, b), "2/b"),
    "generic_facts_derivative": (SETS, lambda s, m, b: generic_facts_derivative(s, b, m), "b/2"),
    "fd_derivative": (SETS, lambda s, m, b: fd_derivative(s, m, b), "2/b"),
    "variational_certificate": (SETS, lambda s, m, b: variational_certificate(s, b, m, samples=5),
                                "b/2"),
    "ball_derivative": (("ball",), lambda s, m, b: ball_derivative(s, b, m), "b/2"),
    "classify_direction": (("ball",), lambda s, m, b: classify_direction(s, m, b), "2/b"),
    "ball_inverse_ray": (("ball",), lambda s, m, b: ball_inverse_ray(s, b, 1.0), "b"),
    "cone_derivative": (("cone",), lambda s, m, b: cone_derivative(s, m, b), "2/b"),
    "dual_cone_contains": (("cone",), lambda s, m, b: dual_cone_contains(s, b), "b"),
    "cone_inverse_translation_check": (
        ("cone",), lambda s, m, b: cone_inverse_translation_check(s, m, 2.0, b), "2/b"),
}
CASES = [(call, name) for call, (names, _, _) in CALLS.items() for name in names]


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("call,name", CASES)
def test_every_entry_point_gives_the_door_text(call, name, bad):
    s, noun, _ = SETS[name]
    point, token = BAD[bad]
    _, run, dims = CALLS[call]
    with pytest.raises(DimensionMismatch) as err:
        run(s, _member(name), point)
    assert str(err.value) == f"{noun} of dimension 2 got {dims.replace('b', token)}"


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("name", sorted(SETS))
def test_a_batch_prefixes_the_door_text(name, bad):
    s, noun, _ = SETS[name]
    point, token = BAD[bad]
    with pytest.raises(DimensionMismatch) as err:
        project_sequence(s, [_member(name), _member(name), point])
    assert str(err.value) == f"element 2: {noun} of dimension 2 got {token}"


_TWO_WEIGHTINGS = {
    # a zero direction on another weighting: the weighting is decided first
    "derivative": lambda s, m, o: derivative(s, m, 0.0 * o),
    "generic_facts_derivative": lambda s, m, o: generic_facts_derivative(s, m, 0.0 * o),
    "fd_derivative": lambda s, m, o: fd_derivative(s, m, o),
    "in_inverse_image": lambda s, m, o: in_inverse_image(s, m, o),
    "variational_certificate": lambda s, m, o: variational_certificate(s, o, m, samples=5),
    "sample_points": lambda s, m, o: sample_points(s, 4, np.random.default_rng(0), include=(m, o)),
}


@pytest.mark.parametrize("call", sorted(_TWO_WEIGHTINGS))
@pytest.mark.parametrize("name", sorted(SETS))
def test_two_weightings_are_turned_away(name, call):
    s = SETS[name][0]
    other = pt(1.0, 1.0, weights=_other_weighting(name))
    with pytest.raises(WeightMismatch, match="^points carry different inner-product weights$"):
        _TWO_WEIGHTINGS[call](s, _member(name), other)


def test_the_weighting_comes_before_the_paper_helpers_own_errors():
    ball, cone = SETS["ball"][0], SETS["cone"][0]
    weighted = pt(1.0, 1.0, weights=(1.0, 2.0))
    # the centre is off the sphere (NotOnSphere) and the vertex is zero (ZeroVertex)
    with pytest.raises(WeightMismatch):
        classify_direction(ball, pt(0.0, 0.0), weighted)
    with pytest.raises(WeightMismatch):
        cone_inverse_translation_check(cone, pt(0.0, 0.0), 2.0, weighted)


def test_the_centre_and_the_generators_keep_their_own_check():
    weighted = pt(0.5, 0.0, weights=(1.0, 2.0))
    for s in (SETS["ball"][0], SETS["full_span"][0]):
        with pytest.raises(WeightMismatch):
            project(s, weighted)
        with pytest.raises(WeightMismatch):
            contains(s, weighted)


def test_every_ball_rule_checks_the_centres_weighting():
    # the rules read x - c as one array; the centre's weighting is still compared
    cases = (
        (ClosedBall(pt(0.0, 0.0), 1.0), (1.0, 2.0)),
        (ClosedBall(pt(0.0, 0.0, weights=(1.0, 2.0)), 1.0), None),
    )
    text = "^points carry different inner-product weights$"
    for ball, w in cases:
        inside, sphere, outside = pt(0.1, 0.0, weights=w), pt(1.0, 0.0, weights=w), pt(3.0, 0.0, weights=w)
        # Thm 4.1 (i), (iii)(a)-(c) and (ii)(a)-(b)
        calls = [(derivative, ball, inside, pt(0.0, 1.0, weights=w))]
        calls += [(derivative, ball, sphere, pt(*v, weights=w)) for v in ((0.0, 1.0), (1.0, 0.0), (-1.0, 0.0))]
        calls += [(derivative, ball, outside, pt(*v, weights=w)) for v in ((0.0, 1.0), (1.0, 0.0))]
        calls += [
            (classify_direction, ball, sphere, pt(0.0, 1.0, weights=w)),
            (classify_point, ball, inside),
            (classify_point, ball, sphere),
            (contains, ball, inside),
            (contains, ball, outside),
            (in_inverse_image, ball, sphere, pt(2.0, 0.0, weights=w)),
            (in_inverse_image, ball, inside, inside),
            (ball_inverse_ray, ball, sphere, 1.0),
        ]
        for f, *args in calls:
            with pytest.raises(WeightMismatch, match=text):
                f(*args)


def test_no_second_dimension_check_is_left():
    assert not hasattr(hilproj.sets, "_check_dim")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CONE2 = '{"type":"positive_cone","dim":2}'
WEIGHTED = '{"coeffs":[1,1],"weights":[1,2]}'


@pytest.mark.parametrize("oracle", [(), ("--oracle",)])
def test_cli_derive_with_two_weightings_exits_3(capsys, oracle):
    code, out, err = run_cli(capsys, "derive", "--set", CONE2, "--point", WEIGHTED,
                             "--direction", '{"coeffs":[1,1]}', *oracle)
    assert (code, out) == (3, "")
    assert err == "error: points carry different inner-product weights\n"


def test_cli_inverse_check_with_two_weightings_exits_3(capsys):
    code, out, err = run_cli(capsys, "inverse-check", "--set", CONE2, "--member", WEIGHTED,
                             "--point", '{"coeffs":[1,1]}')
    assert (code, out) == (3, "")
    assert err == "error: points carry different inner-product weights\n"


def test_cli_dimension_error_prints_the_door_text(capsys):
    code, _, err = run_cli(capsys, "project", "--set", CONE2, "--point", '{"coeffs":[1,2,3]}')
    assert (code, err) == (3, "error: cone of dimension 2 got 3\n")
    batch = json.dumps([{"coeffs": [1, 2]}, {"coeffs": [1, 2, 3]}])
    code, _, err = run_cli(capsys, "project", "--set", CONE2, "--batch", "--point", batch)
    assert (code, err) == (3, "error: element 1: cone of dimension 2 got 3\n")


def test_cli_batch_decodes_every_element_before_projecting(capsys):
    # element 0 cannot be projected, element 1 cannot be decoded: the decode error wins
    batch = json.dumps([{"coeffs": [1, 2, 3]}, {"coeffs": "x"}])
    code, out, err = run_cli(capsys, "project", "--set", CONE2, "--batch", "--point", batch)
    assert (code, out) == (2, "")
    assert err.startswith("error: element 1: ")
