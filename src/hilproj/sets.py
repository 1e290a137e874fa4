"""Closed convex sets: their metric projections and exact membership geometry.

Five set variants are supported: closed balls, the positive cone of a
truncated orthonormal basis, spans of orthonormal generators, and the two
Bochner constructions (pointwise positive cone, subspace of constant
functions). Each variant is a class that owns its rules as private methods:
projection, one placement ``_locate`` per argument (-1 interior, 0 boundary, 1
outside, and what it formed: a ball's x - c and norm, a span's P(x); ``_project``
takes that back and ``_inverse_member`` the pair: no query places a point
twice), closed-form inverse-image membership (internal points have the inverse
image {y}, cuticle points a larger one), the facts behind Lem 3.1 and Prop 3.2,
member sampling, the variational slack (1e-9 r^2 on a ball, 1e-9 elsewhere) and
the oracle's test pairs over the case regions of Thm 4.1 and Thm 5.1, with
margins relative to the radius. The public functions delegate to them. A single
projection or distance forms one array: the ball's pull-back scales and shifts
x - c in place into P(x), which the distance subtracts from x in place; the
cone clips, and its distance takes min(x, 0), x - P(x) up to signs of zero; the
span takes one product, and subtracts x from it. A ball or cone distance works
in ``core._scratch``.

* ball: the identity up to 1e-12 r beyond the sphere, the radial pull-back
  c + (r/||x-c||)(x-c) further out; at a sphere point y the inverse image is
  the outward ray y + t(y - c), t >= 0; ``_place`` and ``_side`` hold the
  sphere band tol r and the tangent band tol r ||v|| of the Up/Down test;
* cone: the coordinatewise clip at zero, which maps -0.0 to +0.0; x
  projects onto y iff x agrees with y on the strictly positive coordinates
  and is nonpositive on the zero coordinates;
* subspace span: the inverse image of y is y + D-perp;
* Bochner cone: the cone rules on the k*d flat coordinates;
* Bochner constants: x projects onto the constant y iff E(x) equals y's
  constant value.

The Bochner sets are adapters. They accept a BochnerFunction or its flattened
weighted coefficient vector, and give a non-point one text before reading it.
Projection reads either form as one (k, d) array without a copy and returns
its result in the form of the argument. Every other query (membership, point
classes, inverse images, derivatives, the variational certificate) passes
:func:`_flat_form` once, which checks the space, the per-atom dimension and
the weights and names the flat set whose rules then run on the flat points:
the positive cone of the k*d coordinates for the pointwise cone (its rules
ignore the weights), and the constants themselves, whose rules take one
mu-weighted expectation kernel. A ball, cone or span argument, of a query, a
projection or a paper helper, passes the same door, :func:`_flat_form`, before
any of it is read: a non-point or a wrong dimension gets one text, then two
weightings are turned away. A centre and generators check their own weighting.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import bochner as bo
from .core import (
    DEFAULT_TOL,
    HilbertPoint,
    _check_compatible,
    _check_tol,
    _dot,
    _finite,
    _finite_norm,
    _norm,
    _points_from_rows,
    _proven,
    _scratch,
    _trusted,
    _trusted_rows,
    inner,
    norm,
    same_weights,
)
from .errors import (
    DimensionMismatch,
    HilprojError,
    NotInCone,
    NotInSet,
    NotOnSphere,
    SpaceMismatch,
    ZeroDirection,
    ZeroVertex,
)

__all__ = [
    "BochnerConstantSubspace",
    "BochnerPointwiseCone",
    "ClosedBall",
    "DirectionClass",
    "PointClass",
    "PositiveCone",
    "SubspaceSpan",
    "ball_inverse_ray",
    "ball_region_point",
    "classify_point",
    "cone_inverse_check",
    "cone_inverse_translation_check",
    "cone_region_point",
    "contains",
    "distance",
    "dual_cone_contains",
    "in_inverse_image",
    "in_pointwise_cone",
    "is_bochner_set",
    "orthogonal_cone",
    "project",
    "project_constants",
    "project_pointwise_cone",
    "project_sequence",
    "random_point",
    "sample_points",
    "span_component",
    "sphere_direction",
]

_ORTHONORMAL_TOL = 1e-9
# slack of the sampled variational inequality <x - u, u - z> >= -VI_SLACK
VI_SLACK = 1e-9
# Points with ||x-c|| in (r, r + 1e-12 r] are projected by the identity: the
# radial formula is continuous at the sphere, both branches agree to 1e-12 r
# there, and skipping the division avoids amplifying a near-zero denominator.
_SPHERE_BAND = 1e-12


class PointClass(enum.Enum):
    INTERNAL = "Internal"
    CUTICLE = "Cuticle"


class DirectionClass(enum.Enum):
    UP = "Up"
    DOWN = "Down"


def _whole(n, what: str) -> int:
    """int(n) for an integral n (an int, a numpy integer or a float such as 2.0)."""
    try:
        d = int(n)
    except (OverflowError, ValueError):  # inf, nan
        d = None
    if d is None or d != n:
        raise ValueError(f"{what} must be an integer, got {n}")
    return d


def clip_nonnegative(coeffs: np.ndarray) -> np.ndarray:
    """Coordinates at or below zero map to +0.0, in one new array.

    On finite coeffs, bit for bit np.where(coeffs > 0, coeffs, 0.0) without
    its mask array: np.maximum keeps a -0.0, and adding 0.0 makes it +0.0.
    """
    out = np.maximum(coeffs, 0.0)
    out += 0.0
    return out


def _check_each(xs, check) -> list:
    """check(x) for every element, in order; a failure names its index."""
    out = []
    for i, x in enumerate(xs):
        try:
            out.append(check(x))
        except HilprojError as e:
            raise type(e)(f"element {i}: {e}") from e
    return out


def _gather(s, xs, check, w=...) -> np.ndarray:
    """The batch's coefficients as one fresh (n, s.dim) array: one pass takes points of
    that dimension that all carry the weights object w (any, for w = ...); check(x) on
    each element of another batch raises as project does, prefixed ``element i:``, or passes."""
    try:
        rows = np.array([x.coeffs for x in xs if w is ... or x.weights is w])
    except (AttributeError, ValueError):  # a non-point, or ragged dimensions
        rows = None
    if rows is None or rows.shape != (len(xs), s.dim):
        _check_each(xs, check)
        rows = np.array([x.coeffs for x in xs])
    return rows


def random_point(rng, dim: int, weights=None) -> HilbertPoint:
    """Coefficients uniform in [-2, 2]."""
    return HilbertPoint(rng.uniform(-2.0, 2.0, size=dim), weights)


def ball_region_point(ball: ClosedBall, region: str, rng, margin: float = 0.1) -> HilbertPoint:
    """Random point in a named region of a ball: interior, sphere, or exterior.

    The margin keeps interior and exterior points away from the sphere so
    difference quotients never straddle the kink; sphere points are placed
    by exact normalization.
    """
    c, r = ball.center, ball.radius
    u = rng.standard_normal(ball.dim)
    u = u / _norm(c.weights, u)
    direction = _trusted(u, c.weights)
    if region == "interior":
        return c + (r * rng.uniform(0.0, max(0.0, 1.0 - margin / r))) * direction
    if region == "sphere":
        return c + r * direction
    if region == "exterior":
        return c + (r + margin + rng.uniform(0.0, 2.0 * r)) * direction
    raise ValueError(f"unknown ball region {region!r}")


def sphere_direction(ball: ClosedBall, x: HilbertPoint, klass: DirectionClass, rng,
                     margin: float = 1e-3) -> HilbertPoint:
    """Random direction of the requested class at a sphere point.

    Directions with |<x - c, v>| below margin * r * max(||v||, margin) are
    resampled: quotient probes cannot resolve the Up/Down kink when the
    radial component is smaller than the probe step. The bound scales with
    r, as <x - c, v> does, so every radius rejects the same share of draws.
    """
    d, _ = ball._offset(x)
    w = ball.center.weights
    for _ in range(1000):
        # each draw is tested on its array; only the accepted one becomes a point
        v = rng.uniform(-2.0, 2.0, ball.dim)
        g = _dot(w, d, v)
        if abs(g) < margin * ball.radius * max(_norm(w, v), margin):
            continue
        if (g >= 0.0) == (klass is DirectionClass.UP):
            return _trusted(v, w)
    raise RuntimeError("direction sampling failed to hit the requested class")


def cone_region_point(cone: PositiveCone, region: str, rng) -> HilbertPoint:
    """Random point in a named cone region.

    Regions: strict_interior (all coordinates >= 0.05, so probe steps stay
    in the identity regime), boundary (a random nonempty coordinate subset
    zeroed, rest positive), dual (all coordinates <= 0), dual_interior
    (all <= -0.05), general (unconstrained).
    """
    d = cone.dim
    if region == "strict_interior":
        return HilbertPoint(rng.uniform(0.05, 2.0, size=d))
    if region == "boundary":
        x = rng.uniform(0.05, 2.0, size=d)
        n_zero = int(rng.integers(1, d + 1))
        idx = rng.choice(d, size=n_zero, replace=False)
        x[idx] = 0.0
        return HilbertPoint(x)
    if region == "dual":
        return HilbertPoint(-rng.uniform(0.0, 2.0, size=d))
    if region == "dual_interior":
        return HilbertPoint(-rng.uniform(0.05, 2.0, size=d))
    if region == "general":
        return random_point(rng, d)
    raise ValueError(f"unknown cone region {region!r}")


class _Rules:
    """What every set shares: the door, and membership and the interior test read from its one
    placement ``_locate(x, tol)``, the pair (-1 interior, 0 boundary, 1 outside; what it formed that
    ``_project`` takes back: a span's P(x), a ball's x - c and norm, the x - c array that ``_project``
    overwrites with P(x), so nothing reads it after); ``_inverse_member`` reads y's pair whole."""

    _vi_slack = VI_SLACK

    def _flat_args(self, *points) -> tuple:
        """_flat_form's (self, *points): each a point of the set's dimension, then one weighting."""
        dim = self.dim
        for p in points:
            if getattr(p, "dim", None) != dim:
                dims = "/".join(str(getattr(q, "dim", type(q).__name__)) for q in points)
                raise DimensionMismatch(f"{self._noun} of dimension {dim} got {dims}")
        for p in points[1:]:
            if not same_weights(points[0], p):
                _check_compatible(points[0], p)
        return (self, *points)

    def _contains(self, x, tol: float) -> bool:
        return self._locate(x, tol)[0] <= 0

    def _interior(self, x, tol: float) -> bool:
        return self._locate(x, tol)[0] < 0

    def _inverse_image_interior(self, x, tol: float) -> bool:
        # the cone overrides this: a ball's inverse images are rays (interior only in dimension
        # one, where Prop 3.1 matches first), a span's or the constants' proper affine subspaces
        return False


@dataclass(frozen=True, eq=False)
class ClosedBall(_Rules):
    """All points within distance radius of center."""

    center: HilbertPoint
    radius: float
    _noun = "ball"

    def __post_init__(self):
        r = float(self.radius)
        if not np.isfinite(r) or r <= 0.0:
            raise ValueError("ball radius must be finite and positive")
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.dim

    def _place(self, dist, tol: float):
        """-1 inside, 0 on the sphere, 1 outside, for dist = ||x - c|| (or an array of them).

        The sphere is the band [r - tol r, r + tol r], relative to the radius,
        so scaling x - c and r together places every point as before.
        """
        slack = tol * self.radius
        return (dist > self.radius + slack) * 1 - (dist < self.radius - slack)

    def _side(self, g: float, nv: float, tol: float) -> int:
        """-1, 0, 1 as g = <x - c, v> lies below, within, above +-tol r ||v||; nan reads 1 (Up)."""
        band = tol * self.radius * nv
        return (not g <= band) - (g < -band)

    def _check(self, x):
        """x's dimension as the door tests it, then its weighting against the centre's."""
        if getattr(x, "dim", None) != self.center.dim or not same_weights(x, self.center):
            _check_compatible(_flat_form(self, x)[1], self.center)

    def _offset(self, x, out=None) -> tuple:
        """(x - c, ||x - c||) after _check(x), in out if given: a finite norm proves x - c finite."""
        self._check(x)
        diff = np.subtract(x.coeffs, self.center.coeffs, out=out)
        return diff, _finite_norm(x.weights, diff)

    def _pull_back(self, x, at=None):
        """P(x) over the x - c array of at = _offset(x) if given, spending it; None when P(x) is x."""
        # c + (r/d)(x - c) formed in the one array x - c: scaled, then shifted,
        # in place; s*diff + c rounds as c + s*diff does. No scan of the result:
        # outside the band s = r/d < 1, so each c_i + s*diff_i lies between c_i
        # and c_i + diff_i (about x_i) and rounds finite; at d = inf it is c.
        diff, d = self._offset(x) if at is None else at
        if self._place(d, _SPHERE_BAND) <= 0:
            return None
        diff *= self.radius / d
        diff += self.center.coeffs
        return diff

    def _project(self, x, at=None):
        p = self._pull_back(x, at)
        return x if p is None else _proven(p, self.center.weights)

    def _distance(self, x) -> float:
        p = self._pull_back(x, self._offset(x, _scratch(self.dim)))
        return 0.0 if p is None else _finite_norm(x.weights, np.subtract(x.coeffs, p, out=p))

    def _project_rows(self, xs) -> list:
        c = self.center
        diff = _gather(self, xs, self._check, c.weights)
        diff -= c.coeffs
        wdiff = diff if c.weights is None else c.weights * diff
        # one np.dot per row, as norm() takes it, so the band test and the
        # radial scale agree with _project bit for bit
        dist = np.sqrt(np.maximum((wdiff[:, None, :] @ diff[:, :, None])[:, 0, 0], 0.0))
        if not math.isfinite(dist.max()):  # a finite dist proves its row finite (_finite_norm)
            _finite(diff)
        outside = np.flatnonzero(self._place(dist, _SPHERE_BAND) > 0)
        # points inside the band are their own projections, as in _project; the
        # rest are formed as _project forms them, so finite, and share the
        # centre's weights, which every row was checked against
        out = list(xs)
        rows = diff[outside]
        rows *= (self.radius / dist[outside])[:, None]
        rows += c.coeffs
        rows.setflags(write=False)
        for i, p in zip(outside, _trusted_rows(rows, repeat(c.weights))):
            out[i] = p
        return out

    def _locate(self, x, tol: float) -> tuple:
        at = self._offset(x)
        return self._place(at[1], tol), at

    def _inverse_member(self, y, x, tol: float, placed) -> bool:
        # y inside has the inverse image {y}; y on the sphere the ray y + t(y - c); placed = _locate(y)
        place, (d, _) = placed
        w, r = x.coeffs - y.coeffs, self.radius
        t = 0.0
        if place >= 0:
            g = _dot(x.weights, w, d)
            if not math.isfinite(g):  # only then can w = x - y be non-finite: raise as a point would
                _finite_norm(x.weights, w)
            if not r * r:  # r*r is 0 below r = 1.5e-162: t d is s u for u = d / r, s = <w, u>
                u = d / r
                s = _dot(x.weights, w, u)
                return s >= -tol * r and _finite_norm(x.weights, w - s * u) <= tol * r
            t = g / (r * r)
        # w - t d is finite only if w and t d are, so its lazy norm stands for their scans
        return t >= -tol and _finite_norm(x.weights, w - t * d) <= tol * r

    def _segment_direction(self, x, v, tol: float, nv: float) -> bool:
        # a sphere point is an extreme point: it lies on no segment of the ball
        return False

    def _member_rows(self, n: int, rng, anchors) -> tuple:
        c, r = self.center, self.radius
        w = np.ones(c.dim) if c.weights is None else c.weights
        g = rng.standard_normal((n, c.dim))
        norms = np.sqrt(np.einsum("ij,j,ij->i", g, w, g))
        norms[norms < 1e-12] = 1.0
        # radius law u^(1/dim) keeps mass near the sphere, where the extreme
        # points are, while still covering the interior
        radii = r * rng.uniform(0.0, 1.0, n) ** (1.0 / c.dim)
        return c.coeffs[None, :] + (radii / norms)[:, None] * g, c.weights

    def _sample_pair(self, rng, covered: bool) -> tuple:
        # Thm 4.1 covers every input: interior, sphere (Up or Down) or exterior
        region = ("interior", "sphere", "exterior")[int(rng.integers(3))]
        x = ball_region_point(self, region, rng)
        if region != "sphere":
            return x, random_point(rng, self.dim, self.center.weights)
        klass = DirectionClass.UP if rng.integers(2) else DirectionClass.DOWN
        return x, sphere_direction(self, x, klass, rng)

    @property
    def _vi_slack(self) -> float:
        # the products <x - u, u - z> scale as r^2
        return VI_SLACK * self.radius * self.radius


@dataclass(frozen=True, eq=False)
class PositiveCone(_Rules):
    """Coefficient vectors with every coordinate nonnegative."""

    dim: int
    _noun = "cone"

    def __post_init__(self):
        d = _whole(self.dim, "cone dimension")
        if d < 1:
            raise ValueError("cone dimension must be a positive integer")
        object.__setattr__(self, "dim", d)

    def _project(self, x, formed=None):
        # the clip of a checked point is finite
        return _proven(clip_nonnegative(_flat_form(self, x)[1].coeffs), x.weights)

    def _distance(self, x) -> float:
        _flat_form(self, x)
        return _finite_norm(x.weights, np.minimum(x.coeffs, 0.0, out=_scratch(x.dim)))

    def _project_rows(self, xs) -> list:
        rows = clip_nonnegative(_gather(self, xs, lambda x: _flat_form(self, x)))
        rows.setflags(write=False)  # the clip of checked points is finite
        return _trusted_rows(rows, (x.weights for x in xs))

    def _locate(self, x, tol: float) -> tuple:
        m = float(x.coeffs.min())
        return (m < -tol) * 1 - (m > tol), None

    def _dual_contains(self, x, tol: float) -> bool:
        """Every coordinate at most tol: membership in the dual cone."""
        return bool(x.coeffs.max() <= tol)

    def _inverse_member(self, y, x, tol: float, placed=None) -> bool:
        """x agrees with y where y > tol and is at most tol everywhere else."""
        positive = y.coeffs > tol
        return not ((np.abs(x.coeffs[positive] - y.coeffs[positive]) > tol).any()
                    or (x.coeffs[~positive] > tol).any())

    def _inverse_image_interior(self, x, tol: float) -> bool:
        return bool(x.coeffs.max() < -tol)

    def _segment_direction(self, x, v, tol: float, nv=None) -> bool:
        """Whether v vanishes, relative to its size, on the zero face of x."""
        face = x.coeffs <= tol
        scale = max(1.0, float(np.abs(v.coeffs).max()))
        return bool((np.abs(v.coeffs[face]) <= tol * scale).all())

    def _member_rows(self, n: int, rng, anchors) -> tuple:
        keep = rng.random((n, self.dim)) < min(1.0, 4.0 / self.dim)
        return rng.uniform(0.0, 4.0, (n, self.dim)) * keep, None

    def _sample_pair(self, rng, covered: bool) -> tuple:
        """x over the Thm 5.1 regions; a covered v stays in the clause's cone."""
        if not covered:
            region = ("strict_interior", "boundary", "dual", "general")[int(rng.integers(4))]
            return cone_region_point(self, region, rng), random_point(rng, self.dim)
        region = ("boundary", "dual", "strict_interior")[int(rng.integers(3))]
        x = cone_region_point(self, region, rng)
        if region == "strict_interior":
            return x, random_point(rng, self.dim)
        sign = 1.0 if region == "boundary" else -1.0
        return x, HilbertPoint(sign * rng.uniform(0.0, 2.0, size=self.dim))


@dataclass(frozen=True, eq=False)
class SubspaceSpan(_Rules):
    """Span of pairwise-orthonormal generators.

    An empty generator list denotes the singleton {theta}; it then needs an
    explicit ambient_dim. Generators must share dimension and weights and be
    orthonormal within 1e-9 under the weighted inner product.
    """

    generators: tuple = ()
    ambient_dim: int | None = None
    _noun = "span"

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            if self.ambient_dim is None:
                raise ValueError("empty span requires an explicit ambient_dim")
            d = _whole(self.ambient_dim, "ambient_dim")
            if d < 1:
                raise ValueError("ambient_dim must be a positive integer")
        else:
            d = gens[0].dim
            for u in gens[1:]:
                if u.dim != d:
                    raise ValueError("generators must share one dimension")
                if not same_weights(gens[0], u):
                    raise ValueError("generators must share one weight vector")
            if self.ambient_dim is not None and _whole(self.ambient_dim, "ambient_dim") != d:
                raise ValueError("ambient_dim disagrees with generator dimension")
        object.__setattr__(self, "ambient_dim", d)
        basis = np.stack([u.coeffs for u in gens]) if gens else np.zeros((0, d))
        basis.setflags(write=False)
        object.__setattr__(self, "_basis", basis)
        gram = self._coords(basis)
        bad = np.argwhere(np.abs(gram - np.eye(len(gens))) > _ORTHONORMAL_TOL)
        if len(bad):
            i, j = bad[0]
            u, w = gens[i], gens[j]
            raise ValueError(f"generators {i},{j} not orthonormal: <u,w>={inner(u, w)}")

    @property
    def dim(self) -> int:
        return self.ambient_dim

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    @property
    def is_full(self) -> bool:
        return self.n_generators == self.dim

    @property
    def is_singleton(self) -> bool:
        return self.n_generators == 0

    @property
    def _weights(self):
        return self.generators[0].weights if self.generators else None

    def _coords(self, rows: np.ndarray) -> np.ndarray:
        """X W G^T for the stacked generators G: <x, u_i> for each row and generator."""
        w = self._weights
        return (rows if w is None else rows * w) @ self._basis.T

    def _project(self, x, u=None):
        return span_component(self, _flat_form(self, x)[1]) if u is None else _trusted(u, x.weights)

    def _distance(self, x) -> float:
        u = self._component(_flat_form(self, x)[1])
        return _finite_norm(x.weights, np.subtract(x.coeffs, u, out=u))

    def _component(self, x) -> np.ndarray:
        """Sum of <x, u_i> u_i as one fresh array, after x's weighting is checked."""
        if self.generators:
            _check_compatible(x, self.generators[0])
        elif x.dim != self.dim:
            raise DimensionMismatch(f"dimensions {x.dim} and {self.dim} differ")
        return self._coords(x.coeffs) @ self._basis

    def _project_rows(self, xs) -> list:
        # point by point: a stacked X W G^T G rounds differently from _project
        return _check_each(xs, self._project)

    def _locate(self, x, tol: float) -> tuple:
        # P(x) is kept, x - P(x) normed in the work array; only the whole space has interior
        u = self._component(x)
        dist = _finite_norm(x.weights, np.subtract(x.coeffs, u, out=_scratch(self.dim)))
        return (-self.is_full if dist <= tol else 1), u

    def _inverse_member(self, y, x, tol: float, placed) -> bool:
        """x - y orthogonal to every generator: max |G W (x - y)| <= tol."""
        return bool(np.max(np.abs(self._coords(_finite(x.coeffs - y.coeffs))), initial=0.0) <= tol)

    def _segment_direction(self, x, v, tol: float, nv: float) -> bool:
        """Whether v lies in the span, relative to its size nv = ||v||."""
        return self._contains(v, tol * max(1.0, nv))

    def _member_rows(self, n: int, rng, anchors) -> tuple:
        return rng.uniform(-4.0, 4.0, (n, self.n_generators)) @ self._basis, self._weights

    def _sample_pair(self, rng, covered: bool) -> tuple:
        w, d = self._weights, self.dim
        if not covered or self.is_singleton or self.is_full:
            return random_point(rng, d, w), random_point(rng, d, w)
        x_in = span_component(self, random_point(rng, d, w))
        if rng.integers(2):
            # Lem 3.1: a member moving inside the span
            v = span_component(self, random_point(rng, d, w))
            return x_in, v if norm(v) != 0.0 else self.generators[0]
        # Prop 3.1: an outside point moving along its residual
        x_out = random_point(rng, d, w)
        u = self._project(x_out)
        if norm(x_out - u) < 1e-3:
            x_out = x_out + HilbertPoint(np.ones(d), w)
            u = self._project(x_out)
        lam = float(rng.uniform(0.5, 3.0)) * (1.0 if rng.integers(2) else -1.0)
        return x_out, lam * (x_out - u)


@dataclass(frozen=True, eq=False)
class _BochnerSet(_Rules):
    """Adapter shared by the Bochner sets: one check per argument.

    An argument is a BochnerFunction over ``space`` or its flattened point,
    whose weights repeat each atom weight d times. :meth:`_flat_args` checks
    the arguments of a query once and returns the flat set whose rules run
    on flat points viewing them. Projection runs on the (k, d) atom values
    (a function's ``array``, or the flat coefficients reshaped); its result
    is checked where it is computed, then :meth:`_like` wraps it in the
    argument's form.
    """

    space: bo.DiscreteProbabilitySpace

    def _atoms(self, x) -> np.ndarray:
        """x's values as a (k, d) array, after the non-point, space or flat-weight checks."""
        if isinstance(x, bo.BochnerFunction):
            if not x.space.same_space(self.space):
                raise SpaceMismatch("functions live over different probability spaces")
            return x.array
        if not isinstance(x, HilbertPoint):
            raise DimensionMismatch(f"functions over {self.space.n_atoms} atoms got {type(x).__name__}")
        return x.coeffs.reshape(self.space.n_atoms, bo._flat_point_dim(self.space, x))

    def _flat_args(self, *points) -> tuple:
        """The flat set whose rules apply, then each point as a flat weighted point."""
        atoms = [self._atoms(p) for p in points]
        d = atoms[0].shape[1]
        for a in atoms[1:]:
            if a.shape[1] != d:
                raise SpaceMismatch(f"per-atom dimensions {d} and {a.shape[1]} differ")
        # the arguments' arrays were checked when they were built
        w = bo.flat_weights(self.space, d)
        return (self._flat_set(d), *_trusted_rows((a.reshape(-1) for a in atoms), repeat(w)))

    def _like(self, x, atoms: np.ndarray):
        """Checked read-only (k, d) atom values in the form of x: no copy, no check.

        A flat result views them and carries the space's one flat weights array.
        """
        if isinstance(x, bo.BochnerFunction):
            return bo._function(self.space, atoms)
        return _proven(atoms.reshape(-1), bo.flat_weights(self.space, atoms.shape[1]))

    def _project(self, x, formed=None):
        return self._like(x, _finite(self._project_atoms(self._atoms(x))))

    def _distance(self, x) -> float:
        return _gap(x, self._project(x))

    def _project_rows(self, xs) -> list:
        """One (n, k, d) array for a batch of one per-atom dimension; others element by element."""
        atoms = _check_each(xs, self._atoms)
        if any(a.shape[1] != atoms[0].shape[1] for a in atoms):
            return [self._project(x) for x in xs]
        values = _finite(self._project_atoms(np.stack(atoms)))
        return [self._like(x, v) for x, v in zip(xs, values)]

    def _sample_dim(self, anchors) -> int:
        if not anchors:
            raise ValueError("Bochner sampling needs a reference point for the dimension")
        return anchors[0].dim // self.space.n_atoms

    def _sample_pair(self, rng, covered: bool) -> tuple:
        """Two flat points of per-atom dimension 3."""
        n, w = self.space.n_atoms * 3, bo.flat_weights(self.space, 3)
        return random_point(rng, n, w), random_point(rng, n, w)


@dataclass(frozen=True, eq=False)
class BochnerPointwiseCone(_BochnerSet):
    """Functions whose per-atom coefficients are all nonnegative.

    The positive cone of the k*d flat coordinates: its rules ignore the
    weights, so they apply verbatim.
    """

    def _flat_set(self, d: int) -> PositiveCone:
        return PositiveCone(self.space.n_atoms * d)

    def _project_atoms(self, values: np.ndarray) -> np.ndarray:
        return clip_nonnegative(values)

    def _member_rows(self, n: int, rng, anchors) -> tuple:
        d = self._sample_dim(anchors)
        z, _ = self._flat_set(d)._member_rows(n, rng, anchors)
        return z, bo.flat_weights(self.space, d)

    def _sample_pair(self, rng, covered: bool) -> tuple:
        """The cone's own pairs on the k*3 flat coordinates, carrying the flat weights."""
        w = bo.flat_weights(self.space, 3)
        return tuple(_trusted(p.coeffs, w) for p in self._flat_set(3)._sample_pair(rng, covered))


@dataclass(frozen=True, eq=False)
class BochnerConstantSubspace(_BochnerSet):
    """Functions taking one common value on every atom.

    Every rule goes through one kernel, the mu-weighted expectation of an
    (..., k, d) array of atom values, which :func:`hilproj.bochner.expectation`
    also takes. Its own methods take flat points, so it is its own flat set.
    """

    def _flat_set(self, d: int) -> "BochnerConstantSubspace":
        return self

    def _project_atoms(self, values: np.ndarray) -> np.ndarray:
        # a real (..., k, d) array, not a stride-0 broadcast, so flatten views a result
        mean = bo._mean(self.space.weights, values)
        return np.repeat(mean[..., None, :], self.space.n_atoms, axis=-2)

    def _spread(self, values: np.ndarray) -> float:
        """||f - E(f)||, the distance of f to the constants."""
        gap = values - bo._mean(self.space.weights, values)
        return float(np.sqrt(self.space.weights @ np.sum(gap * gap, axis=1)))

    def _locate(self, x, tol: float) -> tuple:
        # a member is interior only over one atom, where every function is constant
        k = self.space.n_atoms
        return (-(k == 1) if self._spread(x.coeffs.reshape(k, -1)) <= tol else 1), None

    def _inverse_member(self, y, x, tol: float, placed) -> bool:
        k = self.space.n_atoms
        means = bo._mean(self.space.weights, np.stack([x.coeffs, y.coeffs]).reshape(2, k, -1))
        return float(np.linalg.norm(means[0] - means[1])) <= tol

    _segment_direction = SubspaceSpan._segment_direction  # whether v is constant

    def _member_rows(self, n: int, rng, anchors) -> tuple:
        d = self._sample_dim(anchors)
        z = np.tile(rng.uniform(-4.0, 4.0, (n, d)), (1, self.space.n_atoms))
        return z, bo.flat_weights(self.space, d)


def project_pointwise_cone(f: bo.BochnerFunction) -> bo.BochnerFunction:
    """Projection onto the pointwise positive cone: clip per atom, per coordinate."""
    return BochnerPointwiseCone(f.space)._project(f)


def project_constants(f: bo.BochnerFunction) -> bo.BochnerFunction:
    """Projection onto the subspace of constant functions: 1_S (x) E(f)."""
    return BochnerConstantSubspace(f.space)._project(f)


def in_pointwise_cone(f: bo.BochnerFunction, tol: float = DEFAULT_TOL) -> bool:
    return contains(BochnerPointwiseCone(f.space), f, tol)


def cone_inverse_check(g: bo.BochnerFunction, f: bo.BochnerFunction,
                       tol: float = DEFAULT_TOL) -> bool:
    """Whether f projects onto g under the pointwise cone, with f distinct from g.

    Per atom and per coordinate: where g is strictly positive f must agree
    with g, and where g vanishes f must be nonpositive. The nonpositive
    reading (rather than strictly negative) keeps f's free coefficients at
    exactly zero admissible, consistent with the coordinate-wise clipping
    rule; f = g itself is excluded by contract.
    """
    _check_tol(tol)
    cone, fg, ff = _flat_form(BochnerPointwiseCone(g.space), g, f)
    if not cone._contains(fg, tol):
        raise NotInCone("g must lie in the pointwise positive cone")
    return bool((np.abs(ff.coeffs - fg.coeffs) > tol).any()) and cone._inverse_member(fg, ff, tol)


def is_bochner_set(s) -> bool:
    """Whether s is a set of functions over a discrete probability space."""
    return isinstance(getattr(s, "space", None), bo.DiscreteProbabilitySpace)


def _flat_form(s, *points) -> tuple:
    """The door, the one name its callers use: (flat set, flat points) from the set's _flat_args."""
    return s._flat_args(*points)


def _flat_direction(s, x, v, tol: float) -> tuple:
    """(flat set, flat x, flat v, ||v||) after tol, the set's form checks and v != 0, in that order."""
    _check_tol(tol)
    flat, fx, fv = _flat_form(s, x, v)
    if (nv := norm(fv)) == 0.0:
        raise ZeroDirection("direction must be nonzero")
    return flat, fx, fv, nv


def span_component(s: SubspaceSpan, x: HilbertPoint) -> HilbertPoint:
    """Sum of <x, u_i> u_i over the generators."""
    return _trusted(s._component(x), x.weights)


def project(s, x):
    """Nearest point of the set. Bochner results mirror the input form."""
    return s._project(x)


def _gap(x, u) -> float:
    """||x - u||, for x and its projection u in the same form; flat points in the work array."""
    if isinstance(x, bo.BochnerFunction):
        return bo.bochner_distance(x, u)
    if u is x:
        return 0.0
    return _finite_norm(x.weights, np.subtract(x.coeffs, u.coeffs, out=_scratch(x.dim)))


def distance(s, x) -> float:
    """d(x, C) = ||x - P_C(x)||, as norm(x - project(s, x)) rounds it, in one array."""
    return s._distance(x)


def project_sequence(s, xs) -> list:
    """Projection of every element; failures carry the offending index.

    A ball or cone takes points of its dimension (on a ball, carrying the
    centre's weights object) in one pass; other batches are checked as
    :func:`project` checks each element, raising its exception type and
    message prefixed ``element i:``. The result equals element-wise
    :func:`project` bit for bit on every set; its points are read-only rows of
    one array, and Bochner results mirror each element's form. A span
    projects point by point: a stacked product rounds differently.
    """
    xs = list(xs)
    return s._project_rows(xs) if xs else []


def contains(s, x, tol: float = DEFAULT_TOL) -> bool:
    """Whether x lies in the set: within tol * r on a ball of radius r, within tol elsewhere."""
    _check_tol(tol)
    flat, fx = _flat_form(s, x)
    return flat._contains(fx, tol)


def classify_point(s, y, tol: float = DEFAULT_TOL) -> PointClass:
    """Internal (inverse image is {y}) versus cuticle (strictly larger).

    A member is internal exactly when it is an interior point of the set.
    Spans classify as cuticle except in the degenerate cases where the
    projection is the identity (full span; constants over one atom) or the
    span is the singleton {theta}: a singleton's only point has inverse
    image equal to the whole space, hence cuticle.
    """
    _check_tol(tol)
    flat, fy = _flat_form(s, y)
    place = flat._locate(fy, tol)[0]
    if place > 0:
        raise NotInSet("point to classify must belong to the set")
    return PointClass.INTERNAL if place < 0 else PointClass.CUTICLE


def in_inverse_image(s, y, x, sample_budget: int = 0, tol: float = DEFAULT_TOL, rng=None) -> bool:
    """Whether x projects onto y, decided by the closed-form characterizations.

    With sample_budget > 0, additionally samples that many points z of the
    set and requires <x - y, y - z> >= -1e-9 (-1e-9 r^2 on a ball), an
    independent check of the basic variational principle. A negative
    sample_budget raises ValueError.
    """
    _check_tol(tol)
    if sample_budget < 0:
        raise ValueError("sample_budget must be nonnegative")
    flat, fy, fx = _flat_form(s, y, x)
    placed = flat._locate(fy, tol)  # y's one placement: membership, then the rule reads it
    if placed[0] > 0:
        raise NotInSet("candidate image point must belong to the set")
    exact = flat._inverse_member(fy, fx, tol, placed)
    if not exact or sample_budget <= 0:
        return exact
    rng = np.random.default_rng(0) if rng is None else rng
    return _min_variational_inner(flat, fx, fy, sample_budget, rng) >= -flat._vi_slack


def ball_inverse_ray(ball: ClosedBall, y: HilbertPoint, t: float) -> HilbertPoint:
    """Point y + t(y - c) of the inverse-image ray at a sphere point y."""
    d, dist = ball._offset(y)
    if ball._place(dist, DEFAULT_TOL) != 0:
        raise NotOnSphere("ray vertex must lie on the sphere")
    t = float(t)
    if t < 0.0:
        raise ValueError("ray parameter must be nonnegative")
    return _trusted(y.coeffs + t * d, y.weights)


def dual_cone_contains(cone: PositiveCone, z: HilbertPoint, tol: float = DEFAULT_TOL) -> bool:
    """Membership in the dual cone: all coordinates nonpositive."""
    _check_tol(tol)
    cone, z = _flat_form(cone, z)
    return cone._dual_contains(z, tol)


def orthogonal_cone(subspace: SubspaceSpan, ambient_dim: int) -> SubspaceSpan:
    """Orthonormal basis of the orthogonal complement of the span."""
    n = _whole(ambient_dim, "ambient_dim")
    if subspace.dim != n:
        raise DimensionMismatch(
            f"generators have dimension {subspace.dim}, ambient is {ambient_dim}"
        )
    if subspace.is_singleton:
        return SubspaceSpan(tuple(_points_from_rows(np.eye(n))))
    # the trailing right singular vectors of G sqrt(W), each divided by
    # sqrt(W), are orthonormal and orthogonal to the span in the weighted product
    weights = subspace._weights
    root = np.ones(n) if weights is None else np.sqrt(weights)
    _, sv, vt = np.linalg.svd(subspace._basis * root)
    rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0])))
    return SubspaceSpan(tuple(HilbertPoint(v / root, weights) for v in vt[rank:]), ambient_dim=n)


def cone_inverse_translation_check(
    cone: PositiveCone, y: HilbertPoint, t: float, x: HilbertPoint, tol: float = DEFAULT_TOL
) -> bool:
    """Whether x sits on both or neither side of y + P^-1(ty) = ty + P^-1(y).

    Membership on each side is decided by the exact cone inverse-image rule;
    the check passes when the two sides agree about x.
    """
    _check_tol(tol)
    cone, y, x = _flat_form(cone, y, x)
    if not cone._contains(y, tol):
        raise NotInSet("translation vertex must lie in the cone")
    if norm(y) <= tol:
        raise ZeroVertex("translation vertex must be nonzero")
    t = float(t)
    if t <= 0.0:
        raise ValueError("scale t must be positive")
    left = cone._inverse_member(t * y, x - y, tol)
    right = cone._inverse_member(y, x - t * y, tol)
    return left == right


def _member_matrix(s, n: int, rng, anchors=()) -> tuple:
    """n random set members as rows of an (n, flat_dim) array, plus weights.

    Rows lean toward the extreme points (sphere for balls, sparse rays for
    cones) and a random half of them is blended toward the anchors, set
    members in flat form, so the variational inequality gets probed where it
    is tight. Bochner members come back flattened; the second return value
    is the coordinate weighting shared by every row (None for unweighted sets).
    """
    z, weights = s._member_rows(n, rng, anchors)
    if anchors:
        rows = np.stack([a.coeffs for a in anchors])
        lam = rng.uniform(0.0, 1.0, (n, 1))
        lam[rng.random(n) < 0.5] = 1.0
        z = lam * z + (1.0 - lam) * rows[np.arange(n) % len(rows)]
    return z, weights


def _min_variational_inner(flat, x, u, n: int, rng) -> float:
    """Minimum of <x - u, u - z> over n sampled members z, in one product.

    flat, x and u are what :func:`_flat_form` returns. The z are the rows
    sample_points(flat, n, rng, include=(u,)) would return, drawn from rng
    in the same way; the product takes x's own weighting.
    """
    w = (x - u).coeffs
    zs, _ = _member_matrix(flat, n, rng, (u,))
    wvec = w if x.weights is None else x.weights * w
    return float(np.min((u.coeffs[None, :] - zs) @ wvec))


def sample_points(s, n: int, rng, include=()) -> list:
    """n random members of the set, biased toward its extreme points.

    Points passed in include (set members, e.g. a projection under test) are
    blended into the samples so the variational inequality gets probed where
    it is tight. Bochner members are returned flattened.
    """
    anchors = _flat_form(s, *include)[1:] if include else ()
    z, weights = _member_matrix(s, n, rng, anchors)
    return _points_from_rows(z, weights)
