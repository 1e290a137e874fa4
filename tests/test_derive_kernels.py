"""The ball and cone rules on arrays: bits, exceptions and the (ii)(a) overflow.

The ball's rules read ``x - c`` from ``ClosedBall._offset``, one array whose
norm proves it finite, take their inner products on arrays and build a point
only for the value they return. These tests pin them to the point formulas
they replace, written out below with ``HilbertPoint`` arithmetic (every
intermediate a checked point): the same tag, class or bool and the same
value bytes, or the same exception type and text, over an edge-value sweep.
The cone's face tests are one ``min`` or ``max`` reduction each and are
pinned to their mask forms. Thm 4.1(ii)(a) forms its value as
(r/dist)(v - (g/dist)((x - c)/dist)) where dist^3 overflows, and is pinned to
an exact rational evaluation there.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hilproj import (
    BochnerFunction,
    BochnerPointwiseCone,
    ClosedBall,
    DiscreteProbabilitySpace,
    HilbertPoint,
    NotInSet,
    NotOnSphere,
    PositiveCone,
    ZeroDirection,
    ball_derivative,
    bochner_ball_derivative,
    classify_direction,
    classify_point,
    contains,
    derivative,
    in_inverse_image,
    inner,
    norm,
)
from hilproj.cli import main
from hilproj.sets import _flat_form

MAX = 1.7976931348623157e308
EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0,
         1e150, -1e150, 1e300, -1e300, MAX, -MAX)
RADII = (1e-300, 1.0, 1e300)
# weights with exact square roots, so axis points r e_i / sqrt(w_i) lie on the sphere
WEIGHTS = (None, (1.0, 4.0))


def _place(ball, dist, tol):
    r = ball.radius
    return 1 if dist > r + tol * r else (-1 if dist < r - tol * r else 0)


def _ref_door(v):
    if norm(v) == 0.0:
        raise ZeroDirection("direction must be nonzero")


def _ref_parallel(v, d, g):
    lam = g / inner(d, d)
    return lam != 0.0 and norm(v - lam * d) <= 1e-9 * norm(v)


def _ref_derivative(ball, x, v, tol):
    """Thm 4.1 with every intermediate a checked point."""
    _ref_door(v)
    d = x - ball.center
    r = ball.radius
    dist = norm(d)
    g = inner(d, v)
    place = _place(ball, dist, tol)
    if place == 0:
        if g < 0.0 and g < -tol * r * norm(v):
            return "Thm4.1(iii)(c)", v
        if g > 0.0 and _ref_parallel(v, d, g):
            return "Thm4.1(iii)(b)", HilbertPoint(np.zeros(x.dim), v.weights)
        return "Thm4.1(iii)(a)", v - (g / (r * r)) * d
    if place < 0:
        return "Thm4.1(i)(a)", v
    if g > 0.0 and _ref_parallel(v, d, g):
        return "Thm4.1(ii)(b)", HilbertPoint(np.zeros(x.dim), v.weights)
    try:
        scale = r / dist**3
    except OverflowError:
        # dist^3 overflows: (r/dist)(v - (g/dist)(d/dist)), the one declared change
        value = (r / dist) * (v.coeffs - (g / dist) * (d.coeffs / dist))
        return "Thm4.1(ii)(a)", HilbertPoint(value, v.weights)
    return "Thm4.1(ii)(a)", scale * (dist * dist * v - g * d)


def _ref_classify_direction(ball, x, v, tol):
    _ref_door(v)
    d = x - ball.center
    if _place(ball, norm(d), tol) != 0:
        raise NotOnSphere("direction classes are defined at sphere points only")
    g = inner(d, v)
    return "Down" if g < 0.0 and g < -tol * ball.radius * norm(v) else "Up"


def _ref_contains(ball, x, v, tol):
    return _place(ball, norm(x - ball.center), tol) <= 0


def _ref_classify_point(ball, y, v, tol):
    if not _ref_contains(ball, y, v, tol):
        raise NotInSet("point to classify must belong to the set")
    return "Internal" if _place(ball, norm(y - ball.center), tol) < 0 else "Cuticle"


def _ref_in_inverse_image(ball, y, x, tol):
    if not _ref_contains(ball, y, x, tol):
        raise NotInSet("candidate image point must belong to the set")
    d = y - ball.center
    w = x - y
    t = 0.0 if _place(ball, norm(d), tol) < 0 else inner(w, d) / (ball.radius * ball.radius)
    return t >= -tol and norm(w - t * d) <= tol * ball.radius


def _encode(result):
    if isinstance(result, tuple):
        tag, p = result
        return tag, p.coeffs.tobytes(), None if p.weights is None else p.weights.tobytes()
    return result


def _lib(f, *args):
    """f's outcome in the reference's terms."""
    r = f(*args)
    if hasattr(r, "case_tag"):
        return (r.case_tag, r.value)
    return getattr(r, "value", r)


def _outcome(f, *args):
    try:
        return _encode(f(*args))
    except Exception as e:  # the type and text are what is compared
        return type(e).__name__, str(e)


# each library call and its reference, on (ball, x, v, tol); in_inverse_image reads x as y, v as x
PAIRS = (
    (ball_derivative, _ref_derivative),
    (classify_direction, _ref_classify_direction),
    (lambda b, x, v, tol: contains(b, x, tol), _ref_contains),
    (lambda b, x, v, tol: classify_point(b, x, tol), _ref_classify_point),
    (lambda b, y, x, tol: in_inverse_image(b, y, x, 0, tol), _ref_in_inverse_image),
)


def _check(ball, x, v, tol, seen):
    for lib, ref in PAIRS:
        want = _outcome(ref, ball, x, v, tol)
        assert _outcome(_lib, lib, ball, x, v, tol) == want, (ref.__name__, ball, x, v, tol)
        seen.add(want[0] if isinstance(want, tuple) else want)


def _sphere_cases(ball, w):
    """Sphere points on each axis with radial, tangent, Up and Down directions, and exact ties."""
    r = ball.radius
    root = (1.0, 1.0) if w is None else tuple(math.sqrt(a) for a in w)
    for axis in (0, 1):
        for sign in (1.0, -1.0):
            x = ball.center.coeffs.copy()
            x[axis] += sign * r / root[axis]
            x = HilbertPoint(x, w)
            out = np.eye(2)[axis] * sign
            along = np.eye(2)[1 - axis]
            for scale in (1e-300, 1.0, 1e300):
                for v in (out, -out, along, out + along, along - out):
                    for tol in (0.0, 1e-9):
                        yield x, HilbertPoint(scale * v, w), tol
            # g = -tol r ||v|| exactly at tol = 1: a tie, so Up
            yield x, HilbertPoint(-out / root[axis], w), 1.0
            yield x, HilbertPoint(-2.0 * out / root[axis], w), 1.0


def test_ball_rules_match_the_point_formulas_on_edge_values():
    rng = np.random.default_rng(41)
    seen = set()
    with np.errstate(all="ignore"):
        for r in RADII:
            for w in WEIGHTS:
                for c in ((0.0, 0.0), (-0.0, 1.0), (1e-300, -1e300)):
                    ball = ClosedBall(HilbertPoint(c, w), r)
                    for x, v, tol in _sphere_cases(ball, w):
                        _check(ball, x, v, tol, seen)
                for _ in range(300):
                    ball = ClosedBall(HilbertPoint(rng.choice(EDGES, 2), w), r)
                    x = HilbertPoint(rng.choice(EDGES, 2), w)
                    # a direction of edge values, or one of ordinary size
                    v = rng.choice(EDGES, 2) if rng.random() < 0.5 else rng.uniform(-2.0, 2.0, 2)
                    _check(ball, x, HilbertPoint(v, w), float(rng.choice([0.0, 1e-9])), seen)
                # interior and exterior points at ordinary offsets from the centre
                ball = ClosedBall(HilbertPoint((0.5, -0.5), w), r)
                for k in (0.0, 0.5, 2.0, 1e3):
                    x = HilbertPoint(ball.center.coeffs + k * r * rng.uniform(-1.0, 1.0, 2), w)
                    d = x.coeffs - ball.center.coeffs
                    for v in (rng.uniform(-2.0, 2.0, 2), d, -d, 3.0 * d):
                        if np.any(v != 0.0):
                            _check(ball, x, HilbertPoint(v, w), 1e-9, seen)
    regions = {"Thm4.1(i)(a)", "Thm4.1(ii)(a)", "Thm4.1(ii)(b)",
               "Thm4.1(iii)(a)", "Thm4.1(iii)(b)", "Thm4.1(iii)(c)"}
    assert regions <= seen, regions - seen
    assert {"Up", "Down", "Internal", "Cuticle", True, False} <= seen
    assert {"ValueError", "NotOnSphere", "NotInSet", "ZeroDirection"} <= seen, seen


def _mask_forms(x, y, v, tol):
    a, b, s = x.coeffs, y.coeffs, v.coeffs
    positive = b > tol
    face = a <= tol
    scale = max(1.0, float(np.max(np.abs(s))))
    return (
        bool(np.all(a >= -tol)),
        bool(np.all(a <= tol)),
        bool(np.all(a > tol)),
        bool(np.all(a < -tol)),
        not np.any(np.abs(a[positive] - b[positive]) > tol) and not np.any(a[~positive] > tol),
        bool(np.all(np.abs(s[face]) <= tol * scale)),
    )


def _face_tests(cone, x, y, v, tol):
    return (
        cone._contains(x, tol),
        cone._dual_contains(x, tol),
        cone._interior(x, tol),
        cone._inverse_image_interior(x, tol),
        cone._inverse_member(y, x, tol),
        cone._segment_direction(x, v, tol),
    )


def test_cone_face_tests_match_their_mask_forms():
    rng = np.random.default_rng(43)
    outcomes = set()
    for tol in (0.0, 1e-9):
        values = np.array([0.0, -0.0, tol, -tol, 2 * tol, -2 * tol, 1.0, -1.0, 5e-324, -5e-324])
        for d in (1, 2, 3, 6):
            cone = PositiveCone(d)
            for _ in range(400):
                x, y, v = (HilbertPoint(rng.choice(values, d)) for _ in range(3))
                got = _face_tests(cone, x, y, v, tol)
                assert got == _mask_forms(x, y, v, tol)
                assert all(type(b) is bool for b in got)
                outcomes.add(got)
    # each face test decides both ways
    assert all({o[i] for o in outcomes} == {True, False} for i in range(6))


def test_cone_face_tests_on_the_flat_coordinates_of_a_bochner_cone():
    sp = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    rng = np.random.default_rng(47)
    values = np.array([0.0, -0.0, 1e-9, -1e-9, 1.0, -1.0])
    for tol in (0.0, 1e-9):
        for _ in range(200):
            f, g, h = (BochnerFunction(sp, [HilbertPoint(rng.choice(values, 2)) for _ in range(3)])
                       for _ in range(3))
            cone, fx, fy, fv = _flat_form(BochnerPointwiseCone(sp), f, g, h)
            assert isinstance(cone, PositiveCone) and cone.dim == 6
            assert _face_tests(cone, fx, fy, fv, tol) == _mask_forms(fx, fy, fv, tol)


FAR = (1e103, 1e120, 1e150)


def _exact_exterior(r, dist, d_axis, v):
    """(r/dist^3)(dist^2 v - <d, v> d) in rationals, for d = dist e_axis."""
    r, dist = Fraction(r), Fraction(dist)
    vs = [Fraction(a) for a in v]
    g = dist * vs[d_axis]
    d = [dist if i == d_axis else Fraction(0) for i in range(len(vs))]
    return [r / dist**3 * (dist * dist * vi - g * di) for vi, di in zip(vs, d)]


def _close(got, want):
    """Within 1e-12 of the exact value, relative to its largest coordinate."""
    size = max(abs(b) for b in want)
    assert size > 0
    for a, b in zip(got, want):
        assert abs(Fraction(a) - b) <= Fraction(1, 10**12) * size, (a, b)


@pytest.mark.parametrize("dist", FAR)
def test_exterior_clause_where_the_cube_of_the_distance_overflows(dist):
    assert math.isinf(dist * dist * dist) and math.isfinite(dist * dist)
    ball = ClosedBall(HilbertPoint([0.0, 0.0]), 1.0)
    for v in ((0.0, 1.0), (0.5, -2.0), (-3.0, 1e-3)):
        result = derivative(ball, HilbertPoint([dist, 0.0]), HilbertPoint(v))
        assert result.case_tag == "Thm4.1(ii)(a)"
        _close(result.value.coeffs, _exact_exterior(1.0, dist, 0, v))
    # off-centre and weighted: x - c = dist e_1 / 2 in the weights (1, 4) has norm dist
    ball = ClosedBall(HilbertPoint([0.0, 1.0], (1.0, 4.0)), 2.0)
    result = derivative(ball, HilbertPoint([0.0, 1.0 + dist / 2], (1.0, 4.0)), HilbertPoint([1.0, 1.0], (1.0, 4.0)))
    assert result.case_tag == "Thm4.1(ii)(a)"
    g = Fraction(dist / 2) * 4
    d = [Fraction(0), Fraction(dist / 2)]
    D = Fraction(dist)
    _close(result.value.coeffs, [2 / D**3 * (D * D * 1 - g * di) for di in d])
    # the Bochner unit ball takes the same clause
    sp = DiscreteProbabilitySpace(("a",), np.array([1.0]))
    f = BochnerFunction(sp, [HilbertPoint([dist, 0.0])])
    h = BochnerFunction(sp, [HilbertPoint([0.5, -2.0])])
    value = bochner_ball_derivative(f, h).value
    _close(value.values[0].coeffs, _exact_exterior(1.0, dist, 0, (0.5, -2.0)))


@pytest.mark.parametrize("dist", FAR)
def test_cli_derive_far_from_the_ball_exits_0(dist, capsys):
    code = main(["derive", "--set", '{"type":"ball","center":{"coeffs":[0,0]},"radius":1}',
                 "--point", json.dumps({"coeffs": [dist, 0.0]}),
                 "--direction", '{"coeffs":[0,1]}'])
    out = capsys.readouterr()
    assert code == 0, out.err
    payload = json.loads(out.out)
    assert payload["case"] == "Thm4.1(ii)(a)"
    _close(payload["value"]["coeffs"], _exact_exterior(1.0, dist, 0, (0.0, 1.0)))


def test_exterior_clause_beyond_the_norms_range_still_raises():
    # ||x - c|| > 1.34e154 overflows the norm itself, and dist^2 v is not finite
    ball = ClosedBall(HilbertPoint([0.0, 0.0]), 1.0)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="^coeffs must be finite$"):
        derivative(ball, HilbertPoint([1e200, 0.0]), HilbertPoint([0.0, 1.0]))
