"""The Bochner layer runs one way: the function space knows no set.

``hilproj.bochner`` imports from the package only ``core`` and ``errors``,
at module level; the pointwise-cone and constants helpers live in
``hilproj.sets`` with the set classes they apply. A probability space
compares with itself without comparing its weights.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import hilproj
import hilproj.bochner
import hilproj.sets
from hilproj import (
    BochnerFunction,
    BochnerPointwiseCone,
    DimensionMismatch,
    DiscreteProbabilitySpace,
    HilbertPoint,
    SpaceMismatch,
    bochner_ball_derivative,
    bochner_inner,
    derivative,
    distance,
    project,
    project_sequence,
)

_BOCHNER_SOURCE = Path(hilproj.bochner.__file__).read_text()


def _space(weights=(0.2, 0.3, 0.5), ids=("a", "b", "c")):
    return DiscreteProbabilitySpace(ids, np.array(weights))


def _function(sp, rows):
    return BochnerFunction(sp, [HilbertPoint(np.array(r, dtype=float)) for r in rows])


def test_bochner_imports_only_core_and_errors_at_module_level():
    tree = ast.parse(_BOCHNER_SOURCE)
    top = set(map(id, tree.body))
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert [n.lineno for n in imports if id(n) not in top] == []
    package = {n.module for n in imports if isinstance(n, ast.ImportFrom) and n.level > 0}
    assert package == {"core", "errors"}
    absolute = {a.name for n in imports if isinstance(n, ast.Import) for a in n.names}
    absolute |= {n.module for n in imports if isinstance(n, ast.ImportFrom) and n.level == 0}
    assert not any(name.startswith("hilproj") for name in absolute)


@pytest.mark.parametrize("name", ["project_pointwise_cone", "project_constants",
                                  "in_pointwise_cone", "cone_inverse_check"])
def test_set_helpers_live_in_sets(name):
    assert getattr(hilproj, name) is getattr(hilproj.sets, name)
    assert not hasattr(hilproj.bochner, name)
    tol = inspect.signature(getattr(hilproj, name)).parameters.get("tol")
    assert tol is None or tol.default == 1e-9


_ONE_SPACE_CALLS = {
    "project": lambda sp, f, g: project(BochnerPointwiseCone(sp), f),
    "distance": lambda sp, f, g: distance(BochnerPointwiseCone(sp), f),
    "derivative": lambda sp, f, g: derivative(BochnerPointwiseCone(sp), f, g),
    "bochner_inner": lambda sp, f, g: bochner_inner(f, g),
    "project_sequence": lambda sp, f, g: project_sequence(BochnerPointwiseCone(sp), [f] * 10),
    "bochner_ball_derivative": lambda sp, f, g: bochner_ball_derivative(f, g),
}


@pytest.mark.parametrize("name", sorted(_ONE_SPACE_CALLS))
def test_one_space_object_compares_no_weights(name, monkeypatch):
    sp = _space()
    f = _function(sp, [(1.0, -2.0, 0.5), (0.5, 4.0, -1.0), (-3.0, 0.25, 2.0)])
    g = _function(sp, [(0.3, 1.0, -0.5), (-0.5, 0.2, 1.0), (1.5, -0.25, 0.75)])
    calls = []
    real = np.array_equal

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "array_equal", counting)
    _ONE_SPACE_CALLS[name](sp, f, g)
    assert len(calls) == 0


def test_equal_space_objects_still_compare_equal():
    sp, twin = _space(), _space()
    assert sp is not twin and sp.same_space(twin) and twin.same_space(sp)
    f = _function(sp, [(1.0,), (-2.0,), (0.5,)])
    g = _function(twin, [(0.5,), (1.0,), (-1.0,)])
    assert bochner_inner(f, g) == pytest.approx(0.2 * 0.5 - 0.3 * 2.0 - 0.5 * 0.5)
    assert np.array_equal(project(BochnerPointwiseCone(sp), g).array, [[0.5], [1.0], [0.0]])


@pytest.mark.parametrize("other", [_space(ids=("a", "b", "z")), _space(weights=(0.3, 0.2, 0.5))])
def test_other_spaces_still_raise(other):
    sp = _space()
    f = _function(sp, [(1.0,), (-2.0,), (0.5,)])
    g = _function(other, [(0.5,), (1.0,), (-1.0,)])
    assert not sp.same_space(other)
    with pytest.raises(SpaceMismatch, match="^functions live over different probability spaces$"):
        bochner_inner(f, g)
    with pytest.raises(DimensionMismatch,
                       match="^function lives over a different probability space$"):
        project(BochnerPointwiseCone(sp), g)
