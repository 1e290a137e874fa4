"""Analytic one-sided directional derivatives of the metric projection.

Each operation returns a :class:`DerivativeResult` holding the derivative
value, a short case tag naming the closed-form clause that produced it, and
a covered flag. Case tags (e.g. "Thm4.1(ii)(a)") are stable wire-format
identifiers consumed by the CLI and tests; uncovered inputs get the tag
"NotCoveredByPaper" and no value, and callers may fall back to the
finite-difference oracle for an empirical estimate.

Every derivative, :func:`classify_direction` and ``fd_derivative`` check
``tol`` first, then the set's form checks, then that the direction is
nonzero, all in ``sets._flat_direction``. The form checks are the same door
for every set: the space, per-atom dimension and weights of a Bochner
argument, the dimension and one weighting of ball, cone or span arguments.

Covered cases:

* closed ball — interior: v; exterior: (r/d^3)(d^2 v - <x-c,v>(x-c)) with
  d = ||x-c||, reducing to theta when v points along x-c; sphere: the Up
  directions get v - (1/r^2)<x-c,v>(x-c), outward radial directions get
  theta, Down directions (<x-c,v> < -tol r ||v||, so a tie is Up) get v;
* positive cone — x and v both in the cone: v; x and v both in the dual
  cone: theta; x with all coordinates strictly positive: v for every v;
* Bochner pointwise cone — the cone cases and the generic facts of the
  positive cone of the k*d flattened coordinates, the value returned in the
  form of x;
* constants subspace — the projection is affine, so the derivative is the
  constant function at E(h) for every f;
* Bochner unit ball — the ball cases under the flattening isometry, with
  tags renamed to the vector-valued clause letters;
* generic facts valid for any closed convex set — see
  :func:`generic_facts_derivative`.

Direction classification at a sphere point is decided in closed form:
expanding ||(x-c)+tv||^2 = r^2 + 2t<x-c,v> + t^2||v||^2 shows the point
leaves the ball for all small t > 0 exactly when <x-c,v> >= 0 (class Up)
and enters it exactly when <x-c,v> < 0 (class Down).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bochner as bo
from .core import (DEFAULT_TOL, HilbertPoint, _check_tol, _dot, _finite_norm, _trusted, inner, norm,
                   zeros_like)
from .errors import NotCovered, NotOnSphere, SpaceMismatch
from .sets import BochnerConstantSubspace, ClosedBall, DirectionClass, PositiveCone, _flat_direction

__all__ = [
    "NOT_COVERED_TAG",
    "DerivativeResult",
    "ball_derivative",
    "bochner_ball_derivative",
    "classify_direction",
    "cone_derivative",
    "constants_subspace_derivative",
    "derivative",
    "generic_facts_derivative",
    "homogeneity_check",
]

NOT_COVERED_TAG = "NotCoveredByPaper"

_PARALLEL_TOL = 1e-9


@dataclass(frozen=True)
class DerivativeResult:
    """Derivative value plus the case tag of the clause that produced it."""

    covered: bool
    case_tag: str
    value: object = None

    def __post_init__(self):
        if not self.covered and self.value is not None:
            raise ValueError("uncovered results carry no value")
        if self.covered and self.value is None:
            raise ValueError("covered results need a value")


def _not_covered() -> DerivativeResult:
    return DerivativeResult(covered=False, case_tag=NOT_COVERED_TAG)


def classify_direction(ball: ClosedBall, x: HilbertPoint, v: HilbertPoint,
                       tol: float = DEFAULT_TOL) -> DirectionClass:
    """Up or Down class of a nonzero direction at a sphere point."""
    ball, x, v = _flat_direction(ball, x, v, tol)
    d, dist = ball._offset(x)
    if ball._place(dist, tol) != 0:
        raise NotOnSphere("direction classes are defined at sphere points only")
    g = _dot(x.weights, d, v.coeffs)
    return DirectionClass.DOWN if g < 0.0 and g < -tol * ball.radius * norm(v) else DirectionClass.UP


def _parallel(w, v: np.ndarray, d: np.ndarray, g: float, nv: float) -> bool:
    """Whether v = lambda * d with lambda != 0, for arrays of weighting w; g = <d, v>, nv = ||v||."""
    dd = _dot(w, d, d)
    if dd == 0.0:  # <d, d> underflowed: the same test on d scaled to max |d_i| = 1
        d = d / np.abs(d).max()
        return _parallel(w, v, d, _dot(w, d, v), nv)
    lam = g / dd
    # v - lambda d is finite only if lambda d is: its lazy norm raises where either scan would
    return lam != 0.0 and _finite_norm(w, v - lam * d) <= _PARALLEL_TOL * nv


def ball_derivative(ball: ClosedBall, x: HilbertPoint, v: HilbertPoint,
                    tol: float = DEFAULT_TOL) -> DerivativeResult:
    """Directional derivative of the ball projection; covered everywhere."""
    ball, x, v = _flat_direction(ball, x, v, tol)
    d, dist = ball._offset(x)
    w, r = x.weights, ball.radius
    g = _dot(w, d, v.coeffs)
    place = ball._place(dist, tol)
    if place < 0:
        return DerivativeResult(True, "Thm4.1(i)(a)", v)
    nv = norm(v)
    if place == 0 and g < 0.0 and g < -tol * r * nv:
        return DerivativeResult(True, "Thm4.1(iii)(c)", v)
    if g > 0.0 and _parallel(w, v.coeffs, d, g, nv):
        return DerivativeResult(True, "Thm4.1(iii)(b)" if place == 0 else "Thm4.1(ii)(b)", zeros_like(v))
    if place == 0:
        t, u = (g / (r * r), d) if r * r else (_dot(w, d / r, v.coeffs), d / r)  # r*r = 0 below 1.5e-162
        return DerivativeResult(True, "Thm4.1(iii)(a)", _trusted(v.coeffs - t * u, v.weights))
    try:
        value = (r / dist**3) * (dist * dist * v.coeffs - g * d)
    except OverflowError:  # dist^3 overflows for 5.6e102 < dist; dist^2 is finite up to 1.3e154
        value = (r / dist) * (v.coeffs - (g / dist) * (d / dist))
    return DerivativeResult(True, "Thm4.1(ii)(a)", _trusted(value, v.weights))


def cone_derivative(cone: PositiveCone, x: HilbertPoint, v: HilbertPoint,
                    tol: float = DEFAULT_TOL) -> DerivativeResult:
    """Cone cases; boundary points with outward directions are uncovered."""
    return _adapted(_cone_cases, cone, x, v, tol)


def _cone_cases(cone: PositiveCone, x: HilbertPoint, v: HilbertPoint,
                tol: float) -> DerivativeResult:
    if cone._contains(x, tol) and cone._contains(v, tol):
        return DerivativeResult(True, "Thm5.1(i)", v)
    if cone._dual_contains(x, tol) and cone._dual_contains(v, tol):
        return DerivativeResult(True, "Thm5.1(ii)", zeros_like(v))
    if cone._interior(x, tol):
        return DerivativeResult(True, "Thm5.1(iii)", v)
    return _not_covered()


def constants_subspace_derivative(space: bo.DiscreteProbabilitySpace,
                                  f: bo.BochnerFunction,
                                  h: bo.BochnerFunction) -> DerivativeResult:
    """Derivative of the expectation projection: the map is affine in f."""
    if not (f.space.same_space(space) and h.space.same_space(space)):
        raise SpaceMismatch("f and h must live over the given probability space")
    return _adapted(_clauses, BochnerConstantSubspace(space), f, h, DEFAULT_TOL)


_BOCHNER_BALL_TAGS = {
    "Thm4.1(i)(a)": "Prop7.1(i)(a)",
    "Thm4.1(ii)(b)": "Prop7.1(ii)(c)",
    "Thm4.1(iii)(b)": "Prop7.1(iii)(a)",
    "Thm4.1(iii)(c)": "Prop7.1(iii)(c)",
}


def bochner_ball_derivative(f: bo.BochnerFunction, h: bo.BochnerFunction,
                            tol: float = DEFAULT_TOL) -> DerivativeResult:
    """Unit-ball derivative in L2(S; H) via the flattening isometry.

    Tags follow the vector-valued clause letters: the orthogonal sub-cases
    ((ii)(b) off the ball, (iii)(b) on the sphere) refine the generic
    formula tags when <f, h> vanishes.
    """
    _check_tol(tol)
    bo.check_same(f, h)
    fp, hp = bo.flatten(f), bo.flatten(h)
    ball = ClosedBall(HilbertPoint(np.zeros(fp.dim), fp.weights), 1.0)
    base = ball_derivative(ball, fp, hp, tol)
    tag = base.case_tag
    orthogonal = abs(inner(fp, hp)) <= tol * norm(hp)
    if tag == "Thm4.1(ii)(a)":
        tag = "Prop7.1(ii)(b)" if orthogonal else "Prop7.1(ii)(a)"
    elif tag == "Thm4.1(iii)(a)":
        tag = "Prop7.1(iii)(b)" if orthogonal else "Prop7.1(iii)(a)"
    else:
        tag = _BOCHNER_BALL_TAGS[tag]
    return DerivativeResult(True, tag, bo.unflatten(f.space, base.value))


def _adapted(rule, s, x, v, tol: float) -> DerivativeResult:
    """rule(set, x, v, tol) in flat form, the value returned in the form of x.

    The arguments pass the door first (tol, the set's form checks, a nonzero
    v). A Bochner set checks and flattens x and v once and names the flat set
    whose rules hold on them (the positive cone of the k*d coordinates for
    the pointwise cone); other sets are their own flat form.
    """
    flat, fx, fv = _flat_direction(s, x, v, tol)
    result = rule(flat, fx, fv, tol)
    if not (result.covered and isinstance(x, bo.BochnerFunction)):
        return result
    value = result.value.coeffs.reshape(s.space.n_atoms, -1)
    return DerivativeResult(True, result.case_tag, s._like(x, value))


def _generic_facts(s, x, v, tol: float) -> DerivativeResult:
    if getattr(s, "is_singleton", False):
        return DerivativeResult(True, "Lem3.2", zeros_like(v))
    if s._contains(x, tol):
        if s._interior(x, tol):
            return DerivativeResult(True, "Prop3.3", v)
        if s._segment_direction(x, v, tol):
            return DerivativeResult(True, "Lem3.1", v)
        return _not_covered()
    w = x.coeffs - s._project(x).coeffs
    if _parallel(x.weights, v.coeffs, w, _dot(x.weights, v.coeffs, w), norm(v)):
        return DerivativeResult(True, "Prop3.1", zeros_like(v))
    if s._inverse_image_interior(x, tol):
        return DerivativeResult(True, "Prop3.2", zeros_like(v))
    return _not_covered()


def generic_facts_derivative(s, x, v, tol: float = DEFAULT_TOL) -> DerivativeResult:
    """Derivatives implied by facts valid for every closed convex set.

    In coverage order: a singleton set has a constant projection (tag
    Lem3.2, derivative theta); interior points move freely (Prop3.3, v);
    points that can travel both ways along v inside the set sit on a
    segment of fixed points (Lem3.1, v, decided by the set's exact face
    test: v vanishes on the cone's zero face, v lies in the span, and no
    sphere point is on a segment of the ball); outside the set, directions
    parallel to the projection residual leave the projection stationary
    (Prop3.1, theta); and an exterior point interior to an inverse image is
    locally mapped to one value (Prop3.2, theta). Anything else is reported
    uncovered.
    """
    return _adapted(_generic_facts, s, x, v, tol)


def _clauses(s, x, v, tol: float) -> DerivativeResult:
    """The clause of a flat set other than a ball: Thm 7.2, or Thm 5.1 then the generic facts."""
    if isinstance(s, BochnerConstantSubspace):
        # the projection onto the constants is affine, so P'(x)(h) = P(h)
        return DerivativeResult(True, "Thm7.2", s._project(v))
    if isinstance(s, PositiveCone):
        result = _cone_cases(s, x, v, tol)
        if result.covered:
            return result
    return _generic_facts(s, x, v, tol)


def derivative(s, x, v, tol: float = DEFAULT_TOL) -> DerivativeResult:
    """Best covered derivative: specialized formula first, generic facts second.

    The clause is chosen by the kind of set: ball (Thm 4.1), constants
    (Thm 7.2) or cone (Thm 5.1, the Bochner cone on its flat coordinates).
    """
    if isinstance(s, ClosedBall):
        return ball_derivative(s, x, v, tol)
    return _adapted(_clauses, s, x, v, tol)


def homogeneity_check(derive, x, v, lam: float) -> bool:
    """Whether P'(x)(lam v) = lam P'(x)(v) within 1e-9 relative."""
    if lam <= 0.0:
        raise ValueError("homogeneity scale must be positive")

    def flat(p):
        return bo.flatten(p) if isinstance(p, bo.BochnerFunction) else p

    base = derive(x, v)
    fv = flat(v)
    scaled = derive(x, lam * fv if fv is v else bo.unflatten(v.space, lam * fv))
    if not (base.covered and scaled.covered):
        raise NotCovered("homogeneity needs both derivative calls covered")
    b = flat(base.value)
    return norm(flat(scaled.value) - lam * b) <= 1e-9 * max(1.0, lam * norm(b))
