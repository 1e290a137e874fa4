"""The one door of every derivative: tol, then the set's form checks, then v != 0.

Every derivative entry point, ``classify_direction`` and ``fd_derivative``
check their arguments in that order, in one place, so one faulty input gets
one error whichever set or form it comes in.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from hilproj import (
    BochnerConstantSubspace,
    BochnerFunction,
    BochnerPointwiseCone,
    ClosedBall,
    DimensionMismatch,
    DiscreteProbabilitySpace,
    HilbertPoint,
    PositiveCone,
    SpaceMismatch,
    SubspaceSpan,
    ZeroDirection,
    ball_derivative,
    bochner_ball_derivative,
    classify_direction,
    cone_derivative,
    constants_subspace_derivative,
    derivative,
    fd_derivative,
    flat_weights,
    flatten,
    generic_facts_derivative,
)
from hilproj.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "hilproj"

SPACE = DiscreteProbabilitySpace(("a", "b"), np.array([0.25, 0.75]))
OTHER = DiscreteProbabilitySpace(("a", "c"), np.array([0.25, 0.75]))
BALL = ClosedBall(HilbertPoint([0.0, 0.0]), 1.0)
CONE = PositiveCone(2)
SPAN = SubspaceSpan((HilbertPoint([1.0, 0.0]),))
BOCHNER = {"bochner_cone": BochnerPointwiseCone(SPACE),
           "bochner_constants": BochnerConstantSubspace(SPACE)}


def fn(space, rows):
    return BochnerFunction(space, tuple(HilbertPoint(r) for r in rows))


F = fn(SPACE, [[1.0, -2.0], [0.5, 3.0]])
ZERO_F = fn(SPACE, [[0.0, 0.0], [0.0, 0.0]])
ZERO_F3 = fn(SPACE, [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # another per-atom dimension
ZERO_OTHER = fn(OTHER, [[0.0, 0.0], [0.0, 0.0]])  # another space
ZERO_FLAT3 = HilbertPoint(np.zeros(6), flat_weights(SPACE, 3))


def _forms(f, h):
    """(x, v) as functions and as flat points."""
    return [(f, h), (flatten(f), flatten(h))]


# -- the one behaviour change: the form checks come before the zero check ------


@pytest.mark.parametrize("name", sorted(BOCHNER))
@pytest.mark.parametrize("derive", [derivative, generic_facts_derivative])
@pytest.mark.parametrize("x", [F, flatten(F)], ids=["function", "flat"])
def test_zero_direction_of_another_dimension_is_a_space_mismatch(name, derive, x):
    for h in (ZERO_F3, ZERO_FLAT3):
        with pytest.raises(SpaceMismatch, match="^per-atom dimensions 2 and 3 differ$"):
            derive(BOCHNER[name], x, h)


@pytest.mark.parametrize("name", sorted(BOCHNER))
@pytest.mark.parametrize("derive", [derivative, generic_facts_derivative])
def test_zero_direction_over_another_space_is_a_dimension_mismatch(name, derive):
    with pytest.raises(DimensionMismatch):
        derive(BOCHNER[name], F, ZERO_OTHER)


@pytest.mark.parametrize("name", sorted(BOCHNER))
def test_cli_derive_reports_the_mismatch_first(name, capsys):
    space = '{"atoms":[{"id":"a","weight":0.25},{"id":"b","weight":0.75}]}'
    code = main(["derive", "--set", f'{{"type":"{name}","space":{space}}}',
                 "--point", '{"coeffs":[1,2,3,4]}', "--direction", '{"coeffs":[0,0,0,0,0,0]}'])
    out, err = capsys.readouterr()
    assert (code, out, err) == (3, "", "error: per-atom dimensions 2 and 3 differ\n")


# -- a bad tol comes before every other check ---------------------------------

# each call is faulty in every other way too: a zero direction of the wrong shape
_TOL_FIRST = {
    "derivative.ball": lambda tol: derivative(BALL, HilbertPoint([2.0, 0.0]),
                                              HilbertPoint(np.zeros(3)), tol),
    "derivative.cone": lambda tol: derivative(CONE, HilbertPoint([1.0, 0.0]),
                                              HilbertPoint(np.zeros(3)), tol),
    "derivative.bochner_cone": lambda tol: derivative(BOCHNER["bochner_cone"], F, ZERO_F3, tol),
    "derivative.bochner_constants": lambda tol: derivative(
        BOCHNER["bochner_constants"], F, ZERO_OTHER, tol),
    "ball_derivative": lambda tol: ball_derivative(BALL, HilbertPoint([2.0, 0.0]),
                                                   HilbertPoint(np.zeros(3)), tol),
    "cone_derivative": lambda tol: cone_derivative(CONE, HilbertPoint([1.0, 0.0]),
                                                   HilbertPoint(np.zeros(3)), tol),
    "generic_facts_derivative": lambda tol: generic_facts_derivative(
        BOCHNER["bochner_cone"], F, ZERO_FLAT3, tol),
    "bochner_ball_derivative": lambda tol: bochner_ball_derivative(F, ZERO_OTHER, tol),
    "classify_direction": lambda tol: classify_direction(BALL, HilbertPoint([0.0, 0.0]),
                                                         HilbertPoint(np.zeros(3)), tol),
    "fd_derivative": lambda tol: fd_derivative(BOCHNER["bochner_constants"], F, ZERO_F3, tol),
}


@pytest.mark.parametrize("name", sorted(_TOL_FIRST))
@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_a_bad_tol_is_reported_before_any_other_fault(name, tol):
    with pytest.raises(ValueError, match="^tol must be finite and nonnegative"):
        _TOL_FIRST[name](tol)


# -- a zero direction in every form each entry point accepts ------------------


def _zero_cases():
    flat_sets = {"ball": (BALL, HilbertPoint([2.0, 0.0])),
                 "cone": (CONE, HilbertPoint([1.0, -1.0])),
                 "span": (SPAN, HilbertPoint([1.0, 1.0]))}
    zero2 = HilbertPoint([0.0, 0.0])
    cases = {}
    for derive in (derivative, generic_facts_derivative, fd_derivative):
        for name, (s, x) in flat_sets.items():
            cases[f"{derive.__name__}.{name}"] = (derive, s, x, zero2)
        for name, s in BOCHNER.items():
            for form, (x, v) in zip(("function", "flat"), _forms(F, ZERO_F)):
                cases[f"{derive.__name__}.{name}.{form}"] = (derive, s, x, v)
    cases["ball_derivative"] = (ball_derivative, BALL, HilbertPoint([2.0, 0.0]), zero2)
    cases["cone_derivative"] = (cone_derivative, CONE, HilbertPoint([1.0, -1.0]), zero2)
    cases["classify_direction"] = (classify_direction, BALL, HilbertPoint([1.0, 0.0]), zero2)
    cases["constants_subspace_derivative"] = (constants_subspace_derivative, SPACE, F, ZERO_F)
    cases["bochner_ball_derivative"] = (
        lambda _, f, h: bochner_ball_derivative(f, h), None, F, ZERO_F)
    return cases


_ZERO = _zero_cases()


@pytest.mark.parametrize("name", sorted(_ZERO))
def test_a_zero_direction_is_rejected(name):
    call, s, x, v = _ZERO[name]
    with pytest.raises(ZeroDirection, match="^direction must be nonzero$"):
        call(s, x, v)


def test_zero_direction_is_raised_in_one_place():
    raises = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ZeroDirection":
                    raises.append((path.name, node.lineno))
    assert len(raises) == 1, raises
    assert raises[0][0] == "sets.py"
