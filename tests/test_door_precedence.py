"""Which fault each query entry point reports first, on every kind of set.

One row per entry point that reads its arguments through the door
(``derivative``, ``generic_facts_derivative``, ``classify_direction``,
``contains``, ``classify_point``, ``in_inverse_image``) and one column per
fault: an argument of the wrong dimension, a non-point, two weightings among
the arguments, arguments that share a weighting the centre or the generators
do not carry, and a zero direction on such arguments. Each cell pins the
exception type and its text. The last column pins the order as it stands:
the door's zero-direction test runs before the rules read the centre's or
the generators' weighting, so a zero direction is ``ZeroDirection``.

Cells that cannot arise are left out: a one-point query has no second
weighting and no direction, the cone and the Bochner sets carry no centre
or generators, and ``classify_direction`` reads a ball's rules alone.
"""

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
    SubspaceSpan,
    WeightMismatch,
    ZeroDirection,
    classify_direction,
    classify_point,
    contains,
    derivative,
    generic_facts_derivative,
    in_inverse_image,
)
from hilproj.bochner import flatten


def pt(*c, weights=None):
    return HilbertPoint(np.array(c, dtype=float), weights)


W = (1.0, 4.0)
SPACE = DiscreteProbabilitySpace(("a", "b"), np.array([0.5, 0.5]))
F = BochnerFunction(SPACE, (pt(1.0, 2.0), pt(0.0, 1.0)))
# every set is unweighted, of dimension 2 or over two atoms with values in R^2
SETS = {
    "ball": ClosedBall(pt(0.0, 0.0), 1.0),
    "cone": PositiveCone(2),
    "span": SubspaceSpan((pt(1.0, 0.0),)),
    "bochner_cone": BochnerPointwiseCone(SPACE),
    "bochner_constants": BochnerConstantSubspace(SPACE),
}
# entry point and the number of points it takes after the set
ROWS = {
    "derivative": (derivative, 2),
    "generic_facts_derivative": (generic_facts_derivative, 2),
    "classify_direction": (classify_direction, 2),
    "contains": (contains, 1),
    "classify_point": (classify_point, 1),
    "in_inverse_image": (in_inverse_image, 2),
}
COLUMNS = ("dimension", "non_point", "two_weightings", "centre_weighting", "zero_direction")


def _arguments(name, column, n):
    """The points of one cell: the last one carries the fault, all but the last are good."""
    bochner = name.startswith("bochner")
    good = flatten(F) if bochner else pt(1.0, 0.0)
    if column == "dimension":
        return [good] * (n - 1) + [pt(1.0, 2.0, 3.0)]
    if column == "non_point":
        return [good] * (n - 1) + ["ab"]
    if column == "two_weightings":
        other = pt(1.0, 0.0, 0.0, 1.0, weights=(1.0,) * 4) if bochner else pt(1.0, 0.0, weights=W)
        return [good] * (n - 1) + [other]
    if column == "centre_weighting":
        return [pt(1.0, 0.0, weights=W)] * n
    return [pt(1.0, 0.0, weights=W), pt(0.0, 0.0, weights=W)]


DIM = (DimensionMismatch, "{noun} of dimension 2 got {dims}")
TWO = (WeightMismatch, "points carry different inner-product weights")
ZERO = (ZeroDirection, "direction must be nonzero")
FLAT_LENGTH = (DimensionMismatch, "flattened length 3 is not a positive multiple of 2 atoms")
NON_POINT = (DimensionMismatch, "functions over 2 atoms got str")
FLAT_WEIGHTS = (WeightMismatch, "flattened weights do not match the space's atom weights")
NOT_A_CELL = None

_DIRECTION_ROWS = ("derivative", "generic_facts_derivative", "classify_direction")


def _expected(row, name):
    """The pinned cells of one row on one set, in the order of COLUMNS."""
    n = ROWS[row][1]
    if name.startswith("bochner"):
        return (FLAT_LENGTH, NON_POINT, FLAT_WEIGHTS if n == 2 else NOT_A_CELL, NOT_A_CELL, NOT_A_CELL)
    noun = SETS[name]._noun
    first = "2/" if n == 2 else ""
    carried = name == "ball" or (name == "span" and row != "classify_direction")
    return (
        (DIM[0], DIM[1].format(noun=noun, dims=first + "3")),
        (DIM[0], DIM[1].format(noun=noun, dims=first + "str")),
        TWO if n == 2 else NOT_A_CELL,
        TWO if carried else NOT_A_CELL,
        ZERO if carried and row in _DIRECTION_ROWS else NOT_A_CELL,
    )


CELLS = [
    (row, name, column, cell)
    for row in ROWS
    for name in SETS
    for column, cell in zip(COLUMNS, _expected(row, name))
    if cell is not NOT_A_CELL
]


def test_the_table_has_every_cell_that_can_arise():
    assert len(CELLS) == 96


@pytest.mark.parametrize("row,name,column,cell", CELLS,
                         ids=[f"{r}-{n}-{c}" for r, n, c, _ in CELLS])
def test_each_entry_point_reports_the_pinned_fault_first(row, name, column, cell):
    call, n = ROWS[row]
    exc, text = cell
    with pytest.raises(exc) as info:
        call(SETS[name], *_arguments(name, column, n))
    assert type(info.value) is exc
    assert str(info.value) == text
