"""Analytic one-sided directional derivatives of the metric projection.

Each operation returns a :class:`DerivativeResult` holding the derivative
value, a short case tag naming the closed-form clause that produced it, and
a covered flag. Case tags (e.g. "Thm4.1(ii)(a)") are stable wire-format
identifiers consumed by the CLI and tests; uncovered inputs get the tag
"NotCoveredByPaper" and no value, and callers may fall back to the
finite-difference oracle for an empirical estimate.

Every derivative, :func:`classify_direction` and ``fd_derivative`` check
``tol``, then the set's door (the space, per-atom dimension and weights of a
Bochner argument; the dimension and one weighting of ball, cone or span
arguments), then that the direction is nonzero, in ``sets._flat_direction``.
Its ||v|| is handed on to Prop 3.1 and to Lem 3.1's scale. x is placed at most
once: Thm 5.1 and the generic facts read that placement, and Prop 3.1 its P(x).

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
* Bochner unit ball — one pass of the ball cases under the flattening
  isometry, tags renamed to the vector-valued clause letters;
* generic facts valid for any closed convex set — see
  :func:`generic_facts_derivative`.

Direction classification at a sphere point is decided in closed form:
expanding ||(x-c)+tv||^2 = r^2 + 2t<x-c,v> + t^2||v||^2 shows the point
leaves the ball for all small t > 0 exactly when <x-c,v> >= 0 (class Up)
and enters it exactly when <x-c,v> < 0 (class Down). The sign is read against
one tangent band, ``ClosedBall._side`` (Down below -tol r ||v||), which also
decides clause (iii)(c) and Prop 7.1's orthogonal sub-cases (ii)(b), (iii)(b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bochner as bo
from .core import DEFAULT_TOL, HilbertPoint, _check_tol, _dot, _finite_norm, _trusted, norm, zeros_like
from .errors import NotCovered, NotOnSphere
from .sets import BochnerConstantSubspace, ClosedBall, DirectionClass, PositiveCone, _flat_direction

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


_NOT_COVERED = DerivativeResult(covered=False, case_tag=NOT_COVERED_TAG)


def classify_direction(ball: ClosedBall, x: HilbertPoint, v: HilbertPoint,
                       tol: float = DEFAULT_TOL) -> DirectionClass:
    """Up or Down class of a nonzero direction at a sphere point."""
    ball, x, v, nv = _flat_direction(ball, x, v, tol)
    d, dist = ball._offset(x)
    if ball._place(dist, tol) != 0:
        raise NotOnSphere("direction classes are defined at sphere points only")
    return DirectionClass.DOWN if ball._side(_dot(x.weights, d, v.coeffs), nv, tol) < 0 else DirectionClass.UP


def _parallel(w, v: np.ndarray, d: np.ndarray, g: float, nv: float) -> bool:
    """Whether v = lambda * d with lambda != 0, for arrays of weighting w; g = <d, v>, nv = ||v||."""
    dd = _dot(w, d, d)
    if dd == 0.0:  # <d, d> underflowed: the same test on d scaled to max |d_i| = 1
        m = float(np.abs(d).max())  # 0 only for d = 0, of which no v is a nonzero multiple
        return m > 0.0 and _parallel(w, v, d / m, _dot(w, d / m, v), nv)
    lam = g / dd
    # v - lambda d is finite only if lambda d is: its lazy norm raises where either scan would
    return lam != 0.0 and _finite_norm(w, v - lam * d) <= _PARALLEL_TOL * nv


def _ball_clause(ball: ClosedBall, x, v, tol: float) -> tuple:
    """(Thm 4.1 tag, value, side of <x - c, v> to the ball's tangent band), after the door."""
    ball, x, v, nv = _flat_direction(ball, x, v, tol)
    d, dist = ball._offset(x)
    w, r = x.weights, ball.radius
    g = _dot(w, d, v.coeffs)
    place, side = ball._place(dist, tol), ball._side(g, nv, tol)
    if place < 0:
        return "Thm4.1(i)(a)", v, side
    if place == 0 and side < 0:
        return "Thm4.1(iii)(c)", v, side
    if g > 0.0 and _parallel(w, v.coeffs, d, g, nv):
        return ("Thm4.1(iii)(b)" if place == 0 else "Thm4.1(ii)(b)"), zeros_like(v), side
    if place == 0:
        t, u = (g / (r * r), d) if r * r else (_dot(w, d / r, v.coeffs), d / r)  # r*r = 0 below 1.5e-162
        return "Thm4.1(iii)(a)", _trusted(v.coeffs - t * u, v.weights), side
    try:
        value = (r / dist**3) * (dist * dist * v.coeffs - g * d)
    except OverflowError:  # dist^3 overflows for 5.6e102 < dist; dist^2 is finite up to 1.3e154
        value = (r / dist) * (v.coeffs - (g / dist) * (d / dist))
    return "Thm4.1(ii)(a)", _trusted(value, v.weights), side


def ball_derivative(ball: ClosedBall, x: HilbertPoint, v: HilbertPoint,
                    tol: float = DEFAULT_TOL) -> DerivativeResult:
    """Directional derivative of the ball projection; covered everywhere."""
    tag, value, _ = _ball_clause(ball, x, v, tol)
    return DerivativeResult(True, tag, value)


def cone_derivative(cone: PositiveCone, x: HilbertPoint, v: HilbertPoint,
                    tol: float = DEFAULT_TOL) -> DerivativeResult:
    """Cone cases; boundary points with outward directions are uncovered."""
    return _adapted(_cone_cases, cone, x, v, tol)


def _cone_cases(cone: PositiveCone, x: HilbertPoint, v: HilbertPoint,
                tol: float, nv: float, placed=None) -> DerivativeResult:
    place = (cone._locate(x, tol) if placed is None else placed)[0]
    if place <= 0 and cone._contains(v, tol):
        return DerivativeResult(True, "Thm5.1(i)", v)
    if cone._dual_contains(x, tol) and cone._dual_contains(v, tol):
        return DerivativeResult(True, "Thm5.1(ii)", zeros_like(v))
    if place < 0:
        return DerivativeResult(True, "Thm5.1(iii)", v)
    return _NOT_COVERED


def constants_subspace_derivative(space: bo.DiscreteProbabilitySpace,
                                  f: bo.BochnerFunction,
                                  h: bo.BochnerFunction) -> DerivativeResult:
    """Derivative of the expectation projection: the map is affine in f."""
    return derivative(BochnerConstantSubspace(space), f, h)


# each Thm 4.1 tag's Prop 7.1 tags: (general h, h within the tangent band of f)
_BOCHNER_BALL_TAGS = {
    "Thm4.1(i)(a)": ("Prop7.1(i)(a)",) * 2,
    "Thm4.1(ii)(a)": ("Prop7.1(ii)(a)", "Prop7.1(ii)(b)"),
    "Thm4.1(ii)(b)": ("Prop7.1(ii)(c)",) * 2,
    "Thm4.1(iii)(a)": ("Prop7.1(iii)(a)", "Prop7.1(iii)(b)"),
    "Thm4.1(iii)(b)": ("Prop7.1(iii)(a)",) * 2,
    "Thm4.1(iii)(c)": ("Prop7.1(iii)(c)",) * 2,
}


def bochner_ball_derivative(f: bo.BochnerFunction, h: bo.BochnerFunction,
                            tol: float = DEFAULT_TOL) -> DerivativeResult:
    """Unit-ball derivative in L2(S; H) via the flattening isometry.

    Tags follow the vector-valued clause letters: the orthogonal sub-cases
    ((ii)(b) off the ball, (iii)(b) on the sphere) refine the generic
    formula tags when |<f, h>| <= tol ||h||, the tangent band of that pass.
    """
    _check_tol(tol)
    bo.check_same(f, h)
    fp = bo.flatten(f)
    ball = bo._kept(f.space, (ClosedBall, f.point_dim), lambda: ClosedBall(zeros_like(fp), 1.0))
    tag, value, side = _ball_clause(ball, fp, bo.flatten(h), tol)
    return DerivativeResult(True, _BOCHNER_BALL_TAGS[tag][side == 0], bo.unflatten(f.space, value))


def _adapted(rule, s, x, v, tol: float) -> DerivativeResult:
    """rule(set, x, v, tol) in flat form, the value returned in the form of x.

    The arguments pass the door first (tol, the set's form checks, a nonzero
    v). A Bochner set checks and flattens x and v once and names the flat set
    whose rules hold on them (the positive cone of the k*d coordinates for
    the pointwise cone); other sets are their own flat form.
    """
    flat, fx, fv, nv = _flat_direction(s, x, v, tol)
    result = rule(flat, fx, fv, tol, nv)
    if not (result.covered and isinstance(x, bo.BochnerFunction)):
        return result
    value = result.value.coeffs.reshape(s.space.n_atoms, -1)
    return DerivativeResult(True, result.case_tag, s._like(x, value))


def _generic_facts(s, x, v, tol: float, nv: float, placed=None) -> DerivativeResult:
    if getattr(s, "is_singleton", False):
        return DerivativeResult(True, "Lem3.2", zeros_like(v))
    place, formed = s._locate(x, tol) if placed is None else placed  # x's placement, if the caller holds it
    if place < 0:
        return DerivativeResult(True, "Prop3.3", v)
    if place == 0:
        return DerivativeResult(True, "Lem3.1", v) if s._segment_direction(x, v, tol, nv) else _NOT_COVERED
    w = x.coeffs - s._project(x, formed).coeffs  # P(x) from what the placement formed
    if _parallel(x.weights, v.coeffs, w, _dot(x.weights, v.coeffs, w), nv):
        return DerivativeResult(True, "Prop3.1", zeros_like(v))
    if s._inverse_image_interior(x, tol):
        return DerivativeResult(True, "Prop3.2", zeros_like(v))
    return _NOT_COVERED


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


def _clauses(s, x, v, tol: float, nv: float) -> DerivativeResult:
    """The clause of a flat set other than a ball: Thm 7.2, or Thm 5.1 then the generic facts."""
    if isinstance(s, BochnerConstantSubspace):
        # the projection onto the constants is affine, so P'(x)(h) = P(h)
        return DerivativeResult(True, "Thm7.2", s._project(v))
    if not isinstance(s, PositiveCone):
        return _generic_facts(s, x, v, tol, nv)  # a singleton span's Lem 3.2 places nothing
    placed = s._locate(x, tol)  # the cone's Thm 5.1 cases and its generic facts read it
    result = _cone_cases(s, x, v, tol, nv, placed)
    return result if result.covered else _generic_facts(s, x, v, tol, nv, placed)


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


__all__ = ["NOT_COVERED_TAG", *sorted(n for n, obj in globals().items()
                                  if n[0] != "_" and getattr(obj, "__module__", None) == __name__)]
