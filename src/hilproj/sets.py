"""Closed convex set descriptions and their exact membership geometry.

Five set variants are supported: closed balls, the positive cone of a
truncated orthonormal basis, spans of orthonormal generators, and the two
Bochner constructions (pointwise positive cone, subspace of constant
functions). Each variant carries enough data to answer membership, to
classify points of the set as internal (the projection's inverse image is
the singleton {y}) or cuticle (strictly larger), and to decide inverse-image
membership in closed form:

* ball, y on the sphere: the inverse image is the outward ray y + t(y - c),
  t >= 0;
* cone: x projects onto y iff x agrees with y on the strictly positive
  coordinates and is nonpositive on the zero coordinates;
* subspace span: the inverse image of y is y + D-perp;
* Bochner cone: the cone rule applied per atom and per coordinate;
* Bochner constants: x projects onto the constant y iff E(x) equals y's
  constant value.

Bochner sets accept either a BochnerFunction or its flattened weighted
coefficient vector; results mirror the input form where applicable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import bochner as bo
from .core import (
    DEFAULT_TOL,
    HilbertPoint,
    _check_compatible,
    inner,
    norm,
    same_weights,
    zeros_like,
)
from .errors import (
    DimensionMismatch,
    NotInSet,
    NotOnSphere,
    ZeroVertex,
)

_ORTHONORMAL_TOL = 1e-9


class PointClass(enum.Enum):
    INTERNAL = "Internal"
    CUTICLE = "Cuticle"


@dataclass(frozen=True, eq=False)
class ClosedBall:
    """All points within distance radius of center."""

    center: HilbertPoint
    radius: float

    def __post_init__(self):
        r = float(self.radius)
        if not np.isfinite(r) or r <= 0.0:
            raise ValueError("ball radius must be finite and positive")
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.dim


@dataclass(frozen=True, eq=False)
class PositiveCone:
    """Coefficient vectors with every coordinate nonnegative."""

    dim: int

    def __post_init__(self):
        d = int(self.dim)
        if d < 1:
            raise ValueError("cone dimension must be a positive integer")
        object.__setattr__(self, "dim", d)


@dataclass(frozen=True, eq=False)
class SubspaceSpan:
    """Span of pairwise-orthonormal generators.

    An empty generator list denotes the singleton {theta}; it then needs an
    explicit ambient_dim. Generators must share dimension and weights and be
    orthonormal within 1e-9 under the weighted inner product.
    """

    generators: tuple = ()
    ambient_dim: int | None = None

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            if self.ambient_dim is None:
                raise ValueError("empty span requires an explicit ambient_dim")
            d = int(self.ambient_dim)
            if d < 1:
                raise ValueError("ambient_dim must be a positive integer")
            object.__setattr__(self, "ambient_dim", d)
            return
        d = gens[0].dim
        for u in gens[1:]:
            if u.dim != d:
                raise ValueError("generators must share one dimension")
            if not same_weights(gens[0], u):
                raise ValueError("generators must share one weight vector")
        if self.ambient_dim is not None and int(self.ambient_dim) != d:
            raise ValueError("ambient_dim disagrees with generator dimension")
        for i, u in enumerate(gens):
            for j, w in enumerate(gens):
                target = 1.0 if i == j else 0.0
                if abs(inner(u, w) - target) > _ORTHONORMAL_TOL:
                    raise ValueError(
                        f"generators {i},{j} not orthonormal: <u,w>={inner(u, w)}"
                    )
        object.__setattr__(self, "ambient_dim", d)
        basis = np.stack([u.coeffs for u in gens])
        basis.setflags(write=False)
        object.__setattr__(self, "_basis", basis)

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


@dataclass(frozen=True, eq=False)
class BochnerPointwiseCone:
    """Functions whose per-atom coefficients are all nonnegative."""

    space: bo.DiscreteProbabilitySpace


@dataclass(frozen=True, eq=False)
class BochnerConstantSubspace:
    """Functions taking one common value on every atom."""

    space: bo.DiscreteProbabilitySpace


_BOCHNER_SETS = (BochnerPointwiseCone, BochnerConstantSubspace)


def is_bochner_set(s) -> bool:
    return isinstance(s, _BOCHNER_SETS)


def as_function(s, x) -> bo.BochnerFunction:
    """Normalize a Bochner-set argument to a BochnerFunction."""
    if isinstance(x, bo.BochnerFunction):
        _check_space(s, x)
        return x
    return bo.unflatten(s.space, x)


def _atom_dim(s, x) -> int:
    """Per-atom dimension of a Bochner-set argument, checked as :func:`as_function` checks it."""
    if isinstance(x, bo.BochnerFunction):
        _check_space(s, x)
        return x.point_dim
    return bo._flat_point_dim(s.space, x)


def _check_space(s, f: bo.BochnerFunction):
    if not f.space.same_space(s.space):
        raise DimensionMismatch("function lives over a different probability space")


def _check_dim(s, x: HilbertPoint):
    if x.dim != s.dim:
        raise DimensionMismatch(f"point has dimension {x.dim}, set needs {s.dim}")


def span_component(s: SubspaceSpan, x: HilbertPoint) -> HilbertPoint:
    """Sum of <x, u_i> u_i over the generators."""
    if s.is_singleton:
        return zeros_like(x)
    _check_compatible(x, s.generators[0])
    return x.replace_coeffs(_span_rows(s, x.coeffs))


def _span_rows(s: SubspaceSpan, rows: np.ndarray) -> np.ndarray:
    """(X W G^T) G for the stacked generators G: the span component of each row."""
    w = s.generators[0].weights
    return ((rows if w is None else rows * w) @ s._basis.T) @ s._basis


def contains(s, x, tol: float = DEFAULT_TOL) -> bool:
    """Whether x lies in the set, within an absolute tolerance."""
    if isinstance(s, ClosedBall):
        _check_dim(s, x)
        return norm(x - s.center) <= s.radius + tol
    if isinstance(s, PositiveCone):
        _check_dim(s, x)
        return bool(np.all(x.coeffs >= -tol))
    if isinstance(s, SubspaceSpan):
        _check_dim(s, x)
        return norm(x - span_component(s, x)) <= tol
    if isinstance(s, BochnerPointwiseCone):
        f = as_function(s, x)
        return all(bool(np.all(v.coeffs >= -tol)) for v in f.values)
    if isinstance(s, BochnerConstantSubspace):
        f = as_function(s, x)
        g = bo.project_constants(f)
        return bo.bochner_distance(f, g) <= tol
    raise TypeError(f"unsupported set {type(s).__name__}")


def classify_point(s, y, tol: float = DEFAULT_TOL) -> PointClass:
    """Internal (inverse image is {y}) versus cuticle (strictly larger).

    Spans classify as cuticle except in the degenerate cases where the
    projection is the identity (full span; constants over one atom) or the
    span is the singleton {theta}: a singleton's only point has inverse
    image equal to the whole space, hence cuticle.
    """
    if not contains(s, y, tol):
        raise NotInSet("point to classify must belong to the set")
    if isinstance(s, ClosedBall):
        if abs(norm(y - s.center) - s.radius) <= tol:
            return PointClass.CUTICLE
        return PointClass.INTERNAL
    if isinstance(s, PositiveCone):
        if bool(np.all(y.coeffs > tol)):
            return PointClass.INTERNAL
        return PointClass.CUTICLE
    if isinstance(s, SubspaceSpan):
        if s.is_full:
            return PointClass.INTERNAL
        return PointClass.CUTICLE
    if isinstance(s, BochnerPointwiseCone):
        f = as_function(s, y)
        if all(bool(np.all(v.coeffs > tol)) for v in f.values):
            return PointClass.INTERNAL
        return PointClass.CUTICLE
    if isinstance(s, BochnerConstantSubspace):
        if s.space.n_atoms == 1:
            return PointClass.INTERNAL
        return PointClass.CUTICLE
    raise TypeError(f"unsupported set {type(s).__name__}")


def _ball_inverse_member(s: ClosedBall, y: HilbertPoint, x: HilbertPoint, tol: float) -> bool:
    d = y - s.center
    if norm(d) < s.radius - tol:
        return norm(x - y) <= tol
    w = x - y
    t = inner(w, d) / (s.radius * s.radius)
    if t < -tol:
        return False
    return norm(w - t * d) <= tol


def _cone_inverse_member(y: np.ndarray, x: np.ndarray, tol: float) -> bool:
    positive = y > tol
    if np.any(np.abs(x[positive] - y[positive]) > tol):
        return False
    return not np.any(x[~positive] > tol)


def in_inverse_image(s, y, x, sample_budget: int = 0, tol: float = DEFAULT_TOL, rng=None) -> bool:
    """Whether x projects onto y, decided by the closed-form characterizations.

    With sample_budget > 0, additionally samples that many points z of the
    set and requires <x - y, y - z> >= -1e-9, an independent check of the
    basic variational principle.
    """
    if not contains(s, y, tol):
        raise NotInSet("candidate image point must belong to the set")
    if isinstance(s, ClosedBall):
        _check_dim(s, x)
        exact = _ball_inverse_member(s, y, x, tol)
    elif isinstance(s, PositiveCone):
        _check_dim(s, x)
        exact = _cone_inverse_member(y.coeffs, x.coeffs, tol)
    elif isinstance(s, SubspaceSpan):
        _check_dim(s, x)
        w = x - y
        exact = all(abs(inner(w, u)) <= tol for u in s.generators)
    elif isinstance(s, BochnerPointwiseCone):
        fy, fx = as_function(s, y), as_function(s, x)
        if fy.point_dim != fx.point_dim:
            raise DimensionMismatch("per-atom dimensions differ")
        exact = all(
            _cone_inverse_member(yv.coeffs, xv.coeffs, tol)
            for yv, xv in zip(fy.values, fx.values)
        )
    elif isinstance(s, BochnerConstantSubspace):
        fy, fx = as_function(s, y), as_function(s, x)
        if fy.point_dim != fx.point_dim:
            raise DimensionMismatch("per-atom dimensions differ")
        target = bo.expectation(fy)
        exact = norm(bo.expectation(fx) - target) <= tol
    else:
        raise TypeError(f"unsupported set {type(s).__name__}")
    if not exact or sample_budget <= 0:
        return exact
    flat_y = bo.flatten(as_function(s, y)) if is_bochner_set(s) else y
    flat_x = bo.flatten(as_function(s, x)) if is_bochner_set(s) else x
    rng = np.random.default_rng(0) if rng is None else rng
    w = flat_x - flat_y
    for z in sample_points(s, sample_budget, rng, include=(y,)):
        if inner(w, flat_y - z) < -1e-9:
            return False
    return True


def ball_inverse_ray(ball: ClosedBall, y: HilbertPoint, t: float) -> HilbertPoint:
    """Point y + t(y - c) of the inverse-image ray at a sphere point y."""
    _check_dim(ball, y)
    if abs(norm(y - ball.center) - ball.radius) > DEFAULT_TOL:
        raise NotOnSphere("ray vertex must lie on the sphere")
    t = float(t)
    if t < 0.0:
        raise ValueError("ray parameter must be nonnegative")
    return y + t * (y - ball.center)


def dual_cone_contains(cone: PositiveCone, z: HilbertPoint, tol: float = DEFAULT_TOL) -> bool:
    """Membership in the dual cone: all coordinates nonpositive."""
    _check_dim(cone, z)
    return bool(np.all(z.coeffs <= tol))


def orthogonal_cone(subspace: SubspaceSpan, ambient_dim: int) -> SubspaceSpan:
    """Orthonormal basis of the orthogonal complement of the span."""
    if subspace.dim != int(ambient_dim):
        raise DimensionMismatch(
            f"generators have dimension {subspace.dim}, ambient is {ambient_dim}"
        )
    n = int(ambient_dim)
    k = subspace.n_generators
    if k == 0:
        eye = np.eye(n)
        return SubspaceSpan(tuple(HilbertPoint(eye[i]) for i in range(n)))
    weights = subspace.generators[0].weights
    w = np.ones(n) if weights is None else weights
    rows = np.array([u.coeffs * w for u in subspace.generators])
    _, sv, vt = np.linalg.svd(rows)
    rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0] if len(sv) else 1.0)))
    basis = vt[rank:]
    out = []
    for b in basis:
        v = b.copy()
        for q in out:
            v = v - np.dot(v * w, q) * q
        nv = np.sqrt(np.dot(v * w, v))
        if nv > 1e-12:
            out.append(v / nv)
    gens = tuple(HilbertPoint(v, weights) for v in out)
    if not gens:
        return SubspaceSpan((), ambient_dim=n)
    return SubspaceSpan(gens)


def cone_inverse_translation_check(
    cone: PositiveCone, y: HilbertPoint, t: float, x: HilbertPoint, tol: float = DEFAULT_TOL
) -> bool:
    """Whether x sits on both or neither side of y + P^-1(ty) = ty + P^-1(y).

    Membership on each side is decided by the exact cone inverse-image rule;
    the check passes when the two sides agree about x.
    """
    _check_dim(cone, y)
    _check_dim(cone, x)
    if not contains(cone, y, tol):
        raise NotInSet("translation vertex must lie in the cone")
    if norm(y) <= tol:
        raise ZeroVertex("translation vertex must be nonzero")
    t = float(t)
    if t <= 0.0:
        raise ValueError("scale t must be positive")
    left = _cone_inverse_member((t * y).coeffs, (x - y).coeffs, tol)
    right = _cone_inverse_member(y.coeffs, (x - t * y).coeffs, tol)
    return left == right


def _member_matrix(s, n: int, rng, include=()) -> tuple:
    """n random set members as rows of an (n, flat_dim) array, plus weights.

    Rows lean toward the extreme points (sphere for balls, sparse rays for
    cones) and a random half of them is blended toward the include anchors
    so the variational inequality gets probed where it is tight. Bochner
    members come back flattened; the second return value is the coordinate
    weighting shared by every row (None for unweighted sets).
    """
    reference = include[0] if include else None
    anchors = [
        bo.flatten(as_function(s, p)) if is_bochner_set(s) else p for p in include
    ]
    if isinstance(s, ClosedBall):
        c, r = s.center, s.radius
        w = np.ones(c.dim) if c.weights is None else c.weights
        g = rng.standard_normal((n, c.dim))
        norms = np.sqrt(np.einsum("ij,j,ij->i", g, w, g))
        norms[norms < 1e-12] = 1.0
        # radius law u^(1/dim) keeps mass near the sphere, where the extreme
        # points are, while still covering the interior
        radii = r * rng.uniform(0.0, 1.0, n) ** (1.0 / c.dim)
        z = c.coeffs[None, :] + (radii / norms)[:, None] * g
        weights = c.weights
    elif isinstance(s, PositiveCone):
        keep = rng.random((n, s.dim)) < min(1.0, 4.0 / s.dim)
        z = rng.uniform(0.0, 4.0, (n, s.dim)) * keep
        weights = None
    elif isinstance(s, SubspaceSpan):
        if s.is_singleton:
            z = np.zeros((n, s.dim))
        else:
            z = rng.uniform(-4.0, 4.0, (n, s.n_generators)) @ s._basis
        weights = s.generators[0].weights if s.generators else None
    elif isinstance(s, (BochnerPointwiseCone, BochnerConstantSubspace)):
        if reference is None:
            raise ValueError("Bochner sampling needs a reference point for the dimension")
        f = as_function(s, reference)
        k, d = s.space.n_atoms, f.point_dim
        if isinstance(s, BochnerPointwiseCone):
            keep = rng.random((n, k * d)) < min(1.0, 4.0 / (k * d))
            z = rng.uniform(0.0, 4.0, (n, k * d)) * keep
        else:
            z = np.tile(rng.uniform(-4.0, 4.0, (n, d)), (1, k))
        weights = bo.flat_weights(s.space, d)
    else:
        raise TypeError(f"unsupported set {type(s).__name__}")
    if anchors:
        rows = np.stack([a.coeffs for a in anchors])
        lam = rng.uniform(0.0, 1.0, (n, 1))
        lam[rng.random(n) < 0.5] = 1.0
        z = lam * z + (1.0 - lam) * rows[np.arange(n) % len(rows)]
    return z, weights


def sample_points(s, n: int, rng, include=()) -> list:
    """n random members of the set, biased toward its extreme points.

    Points passed in include (set members, e.g. a projection under test) are
    blended into the samples so the variational inequality gets probed where
    it is tight. Bochner members are returned flattened.
    """
    z, weights = _member_matrix(s, n, rng, include)
    return [HilbertPoint(row, weights) for row in z]
