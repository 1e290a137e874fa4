"""Each derive or inverse-image query does each piece of work once.

Counting wrappers stand in for the set placements (``ClosedBall._offset``,
``SubspaceSpan._component``, ``PositiveCone._locate``) and for the kernels
``core._dot`` and ``core.norm`` in every module that calls them, and each
test pins how often one query runs them:

* ``in_inverse_image`` on a ball forms y - c and its norm once, and reads
  the placement that decided membership for the ray test;
* ``generic_facts_derivative`` off a ball places x once and reads x - P(x)
  from that placement;
* an uncovered cone ``derivative`` hands the Thm 5.1 placement of x on to
  the generic facts, so only x and v are placed;
* a span ``derivative`` reads Prop 3.1's x - P(x) from the placement that
  decided "outside", and both Prop 3.1 and Lem 3.1 read the ||v|| that the
  door computed;
* a singleton span answers Lem 3.2 without placing x at all.
"""

import warnings

import numpy as np
import pytest

import hilproj.core
import hilproj.derivatives
import hilproj.sets
from hilproj import (
    ClosedBall,
    HilbertPoint,
    PositiveCone,
    SubspaceSpan,
    derivative,
    generic_facts_derivative,
    in_inverse_image,
)

_KERNEL_MODULES = (hilproj.core, hilproj.sets, hilproj.derivatives)


def pt(*c):
    return HilbertPoint(np.array(c, dtype=float))


@pytest.fixture
def calls(monkeypatch):
    """A dict of call counters, one per wrapped method or kernel."""
    counts = {}

    def counted(name, f):
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for cls, name in ((ClosedBall, "_offset"), (SubspaceSpan, "_component"), (PositiveCone, "_locate")):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    for name in ("_dot", "norm"):
        wrapper = counted(name, getattr(hilproj.core, name))
        for module in _KERNEL_MODULES:
            if name in vars(module):
                monkeypatch.setattr(module, name, wrapper)
    return counts


BALL = ClosedBall(pt(0.0, 0.0), 1.0)
CONE = PositiveCone(3)
SPAN = SubspaceSpan((pt(1.0, 0.0, 0.0),))


def test_a_ball_places_the_image_point_once(calls):
    assert in_inverse_image(BALL, pt(1.0, 0.0), pt(2.0, 0.0)) is True
    assert calls["_offset"] == 1
    assert calls["_dot"] == 3


def test_the_generic_facts_place_a_point_off_a_ball_once(calls):
    result = generic_facts_derivative(BALL, pt(3.0, 0.0), pt(1.0, 0.0))
    assert result.case_tag == "Prop3.1"
    assert calls["_offset"] == 1
    assert calls["_dot"] == 5
    assert calls["norm"] == 1


def test_the_cone_hands_its_placement_on_to_the_generic_facts(calls):
    result = derivative(CONE, pt(1.0, 0.0, 2.0), pt(1.0, -1.0, 0.0))
    assert not result.covered
    assert calls["_locate"] == 2  # x once, v once


def test_the_span_reads_the_residual_of_its_placement(calls):
    result = derivative(SPAN, pt(1.0, 2.0, 0.0), pt(0.0, 1.0, 0.0))
    assert result.case_tag == "Prop3.1"
    assert calls["_component"] == 1
    assert calls["norm"] == 1


def test_the_span_reads_the_doors_norm_of_a_segment_direction(calls):
    result = derivative(SPAN, pt(1.0, 0.0, 0.0), pt(2.0, 0.0, 0.0))
    assert result.case_tag == "Lem3.1"
    assert calls["norm"] == 1
    assert calls["_component"] == 2  # x once, v once


def test_a_singleton_span_answers_without_placing_x(calls):
    # Lem 3.2 reads nothing of x, so a point whose norm overflows passes quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = derivative(SubspaceSpan((), ambient_dim=2), pt(1e200, 1e200), pt(1.0, 0.0))
    assert result.case_tag == "Lem3.2"
    assert calls["_component"] == 0
