"""Arguments of the set queries: each flat point is checked once, each knob is checked.

The constants subspace reads the flat points that ``_flat_args`` has
checked without checking them again, and ``in_inverse_image`` rejects a
negative ``sample_budget`` (the CLI's ``--samples``) instead of reading it
as 0.
"""

import numpy as np
import pytest

import hilproj.bochner
from hilproj import (
    BochnerConstantSubspace,
    BochnerFunction,
    DiscreteProbabilitySpace,
    HilbertPoint,
    PointClass,
    PositiveCone,
    classify_point,
    flatten,
    generic_facts_derivative,
    in_inverse_image,
)
from hilproj.cli import main

SPACE = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.25, 0.25, 0.5]))
CONSTANTS = BochnerConstantSubspace(SPACE)
Y = BochnerFunction(SPACE, (HilbertPoint([1.0, -2.0]),) * 3)
X = BochnerFunction(SPACE, tuple(HilbertPoint(r) for r in ([2.0, -3.0], [0.0, -1.0], [1.0, -2.0])))
FAR = BochnerFunction(SPACE, (HilbertPoint([2.0, -2.0]),) * 3)
CONE_ARGS = ("inverse-check", "--set", '{"type":"positive_cone","dim":2}',
             "--member", '{"coeffs":[1,0]}', "--point", '{"coeffs":[1,-1]}')


@pytest.fixture
def flat_point_dim_calls(monkeypatch):
    calls = []
    checked = hilproj.bochner._flat_point_dim

    def counting(space, p):
        calls.append(p)
        return checked(space, p)

    monkeypatch.setattr(hilproj.bochner, "_flat_point_dim", counting)
    return calls


def test_classify_point_checks_a_flat_point_once(flat_point_dim_calls):
    assert classify_point(CONSTANTS, flatten(Y)) is PointClass.CUTICLE
    assert len(flat_point_dim_calls) == 1


def test_in_inverse_image_checks_each_flat_point_once(flat_point_dim_calls):
    assert in_inverse_image(CONSTANTS, flatten(Y), flatten(X)) is True
    assert len(flat_point_dim_calls) == 2


@pytest.mark.parametrize("x, member", [(X, True), (FAR, False)])
def test_constants_give_the_same_answer_on_flat_points(x, member):
    assert in_inverse_image(CONSTANTS, Y, x) is member
    assert in_inverse_image(CONSTANTS, flatten(Y), flatten(x)) is member
    assert classify_point(CONSTANTS, flatten(Y)) is classify_point(CONSTANTS, Y)


def test_constants_segment_direction_on_flat_points():
    v = BochnerFunction(SPACE, (HilbertPoint([0.5, 1.0]),) * 3)
    for args in ((Y, v), (flatten(Y), flatten(v))):
        result = generic_facts_derivative(CONSTANTS, *args)
        assert result.case_tag == "Lem3.1"


def test_negative_sample_budget_raises():
    cone = PositiveCone(2)
    y, x = HilbertPoint([1.0, 0.0]), HilbertPoint([1.0, -1.0])
    with pytest.raises(ValueError, match="sample_budget must be nonnegative"):
        in_inverse_image(cone, y, x, sample_budget=-5)
    # tol is still checked first
    with pytest.raises(ValueError, match="tol"):
        in_inverse_image(cone, y, x, sample_budget=-5, tol=-1.0)
    assert in_inverse_image(cone, y, x, sample_budget=0) is True


def test_negative_samples_exits_2(capsys):
    assert main([*CONE_ARGS, "--samples", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sample_budget must be nonnegative" in captured.err


@pytest.mark.parametrize("samples", ["0", "200"])
def test_nonnegative_samples_keep_their_bytes(capsys, samples):
    assert main([*CONE_ARGS, "--samples", samples]) == 0
    captured = capsys.readouterr()
    assert captured.out == '{"member":true}\n'
    assert captured.err == ""
