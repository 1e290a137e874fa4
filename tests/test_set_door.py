"""The one door of every set query: the flat set's rules on flat points.

``contains``, ``classify_point``, ``in_inverse_image``, the variational
certificate, ``in_pointwise_cone`` and ``cone_inverse_check`` pass
``sets._flat_form`` once, as the derivatives do, so a Bochner argument of
another per-atom dimension gets one error on every entry point, and the
pointwise cone keeps no copy of the cone rules.
"""

import numpy as np
import pytest

import hilproj.core
from hilproj import (
    BochnerConstantSubspace,
    BochnerFunction,
    BochnerPointwiseCone,
    DiscreteProbabilitySpace,
    HilbertPoint,
    SpaceMismatch,
    cone_inverse_check,
    derivative,
    fd_derivative,
    flat_weights,
    flatten,
    generic_facts_derivative,
    in_inverse_image,
    project,
    variational_certificate,
)
from hilproj.sets import _flat_form

SPACE = DiscreteProbabilitySpace(("a", "b"), np.array([0.25, 0.75]))
BOCHNER = {"bochner_cone": BochnerPointwiseCone(SPACE),
           "bochner_constants": BochnerConstantSubspace(SPACE)}


def fn(rows):
    return BochnerFunction(SPACE, tuple(HilbertPoint(r) for r in rows))


F2 = fn([[1.0, -2.0], [0.5, 3.0]])
F3 = fn([[1.0, -2.0, 0.25], [0.5, 3.0, -1.0]])

# each entry point, called with a set member of per-atom dimension 2 first
# and one of dimension 3 second
_CALLS = {
    "in_inverse_image": lambda s, a, b: in_inverse_image(s, a, b),
    "in_inverse_image_sampled": lambda s, a, b: in_inverse_image(s, a, b, sample_budget=5),
    "derivative": derivative,
    "generic_facts_derivative": generic_facts_derivative,
    "fd_derivative": fd_derivative,
    "variational_certificate": lambda s, a, b: variational_certificate(s, a, b, samples=5),
}


@pytest.mark.parametrize("name", sorted(BOCHNER))
@pytest.mark.parametrize("call", sorted(_CALLS))
@pytest.mark.parametrize("form", ["function", "flat"])
def test_one_per_atom_dimension_error_on_every_entry_point(name, call, form):
    s = BOCHNER[name]
    a, b = project(s, F2), project(s, F3)
    if form == "flat":
        a, b = flatten(a), flatten(b)
    with pytest.raises(SpaceMismatch, match="^per-atom dimensions 2 and 3 differ$"):
        _CALLS[call](s, a, b)


def test_cone_inverse_check_gives_the_same_error():
    g = project(BOCHNER["bochner_cone"], F2)
    with pytest.raises(SpaceMismatch, match="^per-atom dimensions 2 and 3 differ$"):
        cone_inverse_check(g, F3)


@pytest.mark.parametrize("name", sorted(BOCHNER))
def test_the_door_does_not_scan_checked_arrays_again(name, monkeypatch):
    p = flatten(F2)
    calls = []
    real = hilproj.core._finite

    def counting(coeffs):
        calls.append(coeffs.shape)
        return real(coeffs)

    monkeypatch.setattr(hilproj.core, "_finite", counting)
    _, fx, fp = _flat_form(BOCHNER[name], F2, p)
    assert calls == []
    for q in (fx, fp):
        assert not q.coeffs.flags.writeable
        assert q.weights is flat_weights(SPACE, 2)
        assert np.array_equal(q.coeffs, p.coeffs)


def test_the_pointwise_cone_keeps_no_cone_rules():
    own = {n for n in vars(BochnerPointwiseCone) if n.startswith("_") and not n.startswith("__")}
    assert own == {"_flat_set", "_project_atoms", "_member_rows", "_sample_pair"}


@pytest.mark.parametrize("name", sorted(BOCHNER))
def test_the_form_is_checked_before_membership(name):
    # F2 and F3 lie in neither set: the form error comes first, not NotInSet
    s = BOCHNER[name]
    with pytest.raises(SpaceMismatch, match="^per-atom dimensions 2 and 3 differ$"):
        in_inverse_image(s, F2, F3)
    with pytest.raises(SpaceMismatch, match="^per-atom dimensions 2 and 3 differ$"):
        variational_certificate(s, F2, F3)
