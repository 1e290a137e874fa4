"""Closed convex set descriptions and their exact membership geometry.

Five set variants are supported: closed balls, the positive cone of a
truncated orthonormal basis, spans of orthonormal generators, and the two
Bochner constructions (pointwise positive cone, subspace of constant
functions). Each variant is a class that owns its rules as private methods:
projection, membership, the interior test that separates internal points
(the projection's inverse image is the singleton {y}) from cuticle points
(strictly larger), inverse-image membership in closed form, the facts
behind Lem 3.1 and Prop 3.2, and member sampling. The public functions
delegate to them.

* ball, y on the sphere: the inverse image is the outward ray y + t(y - c),
  t >= 0;
* cone: x projects onto y iff x agrees with y on the strictly positive
  coordinates and is nonpositive on the zero coordinates;
* subspace span: the inverse image of y is y + D-perp;
* Bochner cone: the cone rules applied per atom and per coordinate;
* Bochner constants: x projects onto the constant y iff E(x) equals y's
  constant value.

The Bochner sets are adapters. They accept a BochnerFunction or its
flattened weighted coefficient vector, check and flatten it once, apply the
flat rule (the cone rules, which ignore the weights, or one mu-weighted
expectation kernel) and return results in the form of the argument.
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
    _check_tol,
    _points_from_rows,
    inner,
    norm,
    same_weights,
)
from .errors import (
    DimensionMismatch,
    HilprojError,
    NotInSet,
    NotOnSphere,
    SpaceMismatch,
    ZeroVertex,
)

_ORTHONORMAL_TOL = 1e-9
# Points with ||x-c|| in (r, r+1e-12] are projected by the identity: the
# radial formula is continuous at the sphere, both branches agree to 1e-12
# there, and skipping the division avoids amplifying a near-zero denominator.
_SPHERE_BAND = 1e-12


class PointClass(enum.Enum):
    INTERNAL = "Internal"
    CUTICLE = "Cuticle"


def _check_dim(s, x: HilbertPoint, what: str = "set"):
    if x.dim != s.dim:
        raise DimensionMismatch(f"point has dimension {x.dim}, {what} needs {s.dim}")


def clip_nonnegative(coeffs: np.ndarray) -> np.ndarray:
    """Coordinates at or below zero map to zero."""
    return np.where(coeffs > 0.0, coeffs, 0.0)


def _in_cone(coeffs: np.ndarray, tol: float) -> bool:
    """Cone membership: every coordinate at least -tol."""
    return bool(np.all(coeffs >= -tol))


def _cone_inverse_member(y: np.ndarray, x: np.ndarray, tol: float) -> bool:
    positive = y > tol
    if np.any(np.abs(x[positive] - y[positive]) > tol):
        return False
    return not np.any(x[~positive] > tol)


def _check_each(xs, check) -> list:
    """check(x) for every element, in order; a failure names its index."""
    out = []
    for i, x in enumerate(xs):
        try:
            out.append(check(x))
        except HilprojError as e:
            raise type(e)(f"element {i}: {e}") from e
    return out


def _indices_by_key(keys) -> dict:
    """Positions of equal keys, grouped in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _stack(xs) -> np.ndarray:
    """The points' coefficients as the rows of one (n, d) array."""
    return np.concatenate([x.coeffs for x in xs]).reshape(len(xs), -1)


def _rows_weighted_like(rows: np.ndarray, xs) -> list:
    """Points for the rows, row i carrying the weighting of xs[i]."""
    groups = _indices_by_key(None if x.weights is None else x.weights.tobytes() for x in xs)
    out = [None] * len(xs)
    for idx in groups.values():
        for i, p in zip(idx, _points_from_rows(rows[idx], xs[idx[0]].weights)):
            out[i] = p
    return out


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

    def _project(self, x):
        d = norm(x - self.center)
        if d <= self.radius + _SPHERE_BAND:
            return x
        return self.center + (self.radius / d) * (x - self.center)

    def _project_rows(self, xs) -> list:
        c = self.center
        _check_each(xs, lambda x: _check_compatible(x, c))
        diff = _stack(xs) - c.coeffs
        wdiff = diff if c.weights is None else c.weights * diff
        # one np.dot per row, as norm() takes it, so the band test and the
        # radial scale agree with _project bit for bit
        dist = np.sqrt(np.maximum((wdiff[:, None, :] @ diff[:, :, None])[:, 0, 0], 0.0))
        outside = np.flatnonzero(dist > self.radius + _SPHERE_BAND)
        out = list(xs)
        rows = c.coeffs + (self.radius / dist[outside])[:, None] * diff[outside]
        for i, p in zip(outside, _points_from_rows(rows, c.weights)):
            out[i] = p
        return out

    def _contains(self, x, tol: float) -> bool:
        _check_dim(self, x)
        return norm(x - self.center) <= self.radius + tol

    def _interior(self, x, tol: float) -> bool:
        return norm(x - self.center) < self.radius - tol

    def _inverse_member(self, y, x, tol: float) -> bool:
        _check_dim(self, x)
        d = y - self.center
        if norm(d) < self.radius - tol:
            return norm(x - y) <= tol
        w = x - y
        t = inner(w, d) / (self.radius * self.radius)
        if t < -tol:
            return False
        return norm(w - t * d) <= tol

    def _inverse_image_interior(self, x, tol: float) -> bool:
        # the inverse images are rays, with interior only in dimension one,
        # where the residual-parallel fact has already matched
        return False

    def _segment_direction(self, x, v, tol: float) -> bool:
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


@dataclass(frozen=True, eq=False)
class PositiveCone:
    """Coefficient vectors with every coordinate nonnegative."""

    dim: int

    def __post_init__(self):
        d = int(self.dim)
        if d < 1:
            raise ValueError("cone dimension must be a positive integer")
        object.__setattr__(self, "dim", d)

    def _project(self, x):
        _check_dim(self, x, "cone")
        return x.replace_coeffs(clip_nonnegative(x.coeffs))

    def _project_rows(self, xs) -> list:
        _check_each(xs, lambda x: _check_dim(self, x, "cone"))
        return _rows_weighted_like(clip_nonnegative(_stack(xs)), xs)

    def _contains(self, x, tol: float) -> bool:
        _check_dim(self, x)
        return _in_cone(x.coeffs, tol)

    def _interior(self, x, tol: float) -> bool:
        return bool(np.all(x.coeffs > tol))

    def _inverse_member(self, y, x, tol: float) -> bool:
        _check_dim(self, x)
        return _cone_inverse_member(y.coeffs, x.coeffs, tol)

    def _inverse_image_interior(self, x, tol: float) -> bool:
        return bool(np.all(x.coeffs < -tol))

    def _segment_direction(self, x, v, tol: float) -> bool:
        """Whether v vanishes, relative to its size, on the zero face of x."""
        face = x.coeffs <= tol
        scale = max(1.0, float(np.max(np.abs(v.coeffs))))
        return bool(np.all(np.abs(v.coeffs[face]) <= tol * scale))

    def _member_rows(self, n: int, rng, anchors) -> tuple:
        keep = rng.random((n, self.dim)) < min(1.0, 4.0 / self.dim)
        return rng.uniform(0.0, 4.0, (n, self.dim)) * keep, None


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
            object.__setattr__(self, "_basis", np.zeros((0, d)))
            return
        d = gens[0].dim
        for u in gens[1:]:
            if u.dim != d:
                raise ValueError("generators must share one dimension")
            if not same_weights(gens[0], u):
                raise ValueError("generators must share one weight vector")
        if self.ambient_dim is not None and int(self.ambient_dim) != d:
            raise ValueError("ambient_dim disagrees with generator dimension")
        object.__setattr__(self, "ambient_dim", d)
        basis = np.stack([u.coeffs for u in gens])
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

    def _project(self, x):
        _check_dim(self, x, "span")
        return span_component(self, x)

    def _project_rows(self, xs) -> list:
        def check(x):
            _check_dim(self, x, "span")
            if self.generators:
                _check_compatible(x, self.generators[0])

        _check_each(xs, check)
        return _rows_weighted_like(self._coords(_stack(xs)) @ self._basis, xs)

    def _contains(self, x, tol: float) -> bool:
        _check_dim(self, x)
        return norm(x - span_component(self, x)) <= tol

    def _interior(self, x, tol: float) -> bool:
        return self.is_full

    def _inverse_member(self, y, x, tol: float) -> bool:
        """x - y orthogonal to every generator: max |G W (x - y)| <= tol."""
        _check_dim(self, x)
        w = x - y
        if self.generators:
            _check_compatible(w, self.generators[0])
        return bool(np.max(np.abs(self._coords(w.coeffs)), initial=0.0) <= tol)

    def _inverse_image_interior(self, x, tol: float) -> bool:
        return False

    def _segment_direction(self, x, v, tol: float) -> bool:
        """Whether v lies in the span, relative to its size."""
        return norm(v - span_component(self, v)) <= tol * max(1.0, norm(v))

    def _member_rows(self, n: int, rng, anchors) -> tuple:
        return rng.uniform(-4.0, 4.0, (n, self.n_generators)) @ self._basis, self._weights


@dataclass(frozen=True, eq=False)
class _BochnerSet:
    """Adapter shared by the Bochner sets: one check and flattening per argument.

    An argument is a BochnerFunction over ``space`` or its flattened point,
    whose weights repeat each atom weight d times. Rules run on the (k, d)
    atom values or on the flat points; results come back in the argument's
    form.
    """

    space: bo.DiscreteProbabilitySpace

    def _atoms(self, x) -> np.ndarray:
        """x's values as a (k, d) array, after the space or flat-weight checks."""
        if isinstance(x, bo.BochnerFunction):
            if not x.space.same_space(self.space):
                raise DimensionMismatch("function lives over a different probability space")
            return np.concatenate([v.coeffs for v in x.values]).reshape(self.space.n_atoms, -1)
        return x.coeffs.reshape(self.space.n_atoms, bo._flat_point_dim(self.space, x))

    def _flat_args(self, *points) -> tuple:
        """The flat set whose rules apply, then each point as a flat weighted point."""
        atoms = [self._atoms(p) for p in points]
        d = atoms[0].shape[1]
        for a in atoms[1:]:
            if a.shape[1] != d:
                raise SpaceMismatch(f"per-atom dimensions {d} and {a.shape[1]} differ")
        rows = np.stack([a.ravel() for a in atoms])
        return (self._flat_set(d), *_points_from_rows(rows, bo.flat_weights(self.space, d)))

    def _like(self, x, atoms: np.ndarray):
        """(k, d) atom values, or their flat vector, in the form of x."""
        atoms = np.reshape(atoms, (self.space.n_atoms, -1))
        if isinstance(x, bo.BochnerFunction):
            return bo.BochnerFunction(self.space, tuple(_points_from_rows(atoms)))
        return HilbertPoint(atoms.ravel(), bo.flat_weights(self.space, atoms.shape[1]))

    def _project(self, x):
        return self._like(x, self._project_atoms(self._atoms(x)))

    def _project_rows(self, xs) -> list:
        """The batch as one (n, k, d) array per per-atom dimension d and form."""
        atoms = _check_each(xs, self._atoms)
        keys = ((a.shape[1], isinstance(x, bo.BochnerFunction)) for a, x in zip(atoms, xs))
        out = [None] * len(xs)
        for (d, is_fn), idx in _indices_by_key(keys).items():
            stacked = np.concatenate([atoms[i] for i in idx]).reshape(len(idx), -1, d)
            values = self._project_atoms(stacked)
            if is_fn:
                points = self._functions(values)
            else:
                flat = values.reshape(len(idx), -1)
                points = _points_from_rows(flat, bo.flat_weights(self.space, d))
            for i, p in zip(idx, points):
                out[i] = p
        return out

    def _functions(self, values: np.ndarray) -> list:
        """One function per (k, d) slice of values, from one (n*k, d) point matrix."""
        k = self.space.n_atoms
        rows = _points_from_rows(values.reshape(-1, values.shape[-1]))
        return [bo.BochnerFunction(self.space, tuple(rows[m * k:(m + 1) * k]))
                for m in range(len(values))]

    def _sample_dim(self, anchors) -> int:
        if not anchors:
            raise ValueError("Bochner sampling needs a reference point for the dimension")
        return anchors[0].dim // self.space.n_atoms


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

    def _contains(self, x, tol: float) -> bool:
        return _in_cone(self._atoms(x), tol)

    def _interior(self, x, tol: float) -> bool:
        cone, fx = self._flat_args(x)
        return cone._interior(fx, tol)

    def _inverse_member(self, y, x, tol: float) -> bool:
        ay, ax = self._atoms(y), self._atoms(x)
        if ay.shape != ax.shape:
            raise DimensionMismatch("per-atom dimensions differ")
        return _cone_inverse_member(ay, ax, tol)

    def _member_rows(self, n: int, rng, anchors) -> tuple:
        d = self._sample_dim(anchors)
        z, _ = self._flat_set(d)._member_rows(n, rng, anchors)
        return z, bo.flat_weights(self.space, d)


@dataclass(frozen=True, eq=False)
class BochnerConstantSubspace(_BochnerSet):
    """Functions taking one common value on every atom.

    Every rule goes through one kernel, the mu-weighted expectation of an
    (..., k, d) array of atom values. Its own methods take flat points, so
    it is its own flat set.
    """

    def _flat_set(self, d: int) -> "BochnerConstantSubspace":
        return self

    def _mean(self, values: np.ndarray) -> np.ndarray:
        """E over the atom axis, (..., k, d) -> (..., d), summed atom by atom.

        The running sum gives the bits of :func:`hilproj.bochner.expectation`.
        """
        terms = self.space.weights[:, None] * values
        return np.add.accumulate(terms, axis=-2)[..., -1, :]

    def _project_atoms(self, values: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self._mean(values)[..., None, :], values.shape)

    def _functions(self, values: np.ndarray) -> list:
        """The constant functions at the means, from one (n, d) point matrix."""
        return [bo.constant_function(self.space, p) for p in _points_from_rows(values[:, 0])]

    def _spread(self, values: np.ndarray) -> float:
        """||f - E(f)||, the distance of f to the constants."""
        gap = values - self._mean(values)
        return float(np.sqrt(self.space.weights @ np.sum(gap * gap, axis=1)))

    def _contains(self, x, tol: float) -> bool:
        return self._spread(self._atoms(x)) <= tol

    def _interior(self, x, tol: float) -> bool:
        return self.space.n_atoms == 1

    def _inverse_member(self, y, x, tol: float) -> bool:
        ay, ax = self._atoms(y), self._atoms(x)
        if ay.shape != ax.shape:
            raise DimensionMismatch("per-atom dimensions differ")
        means = self._mean(np.stack([ax, ay]))
        return float(np.linalg.norm(means[0] - means[1])) <= tol

    def _inverse_image_interior(self, x, tol: float) -> bool:
        return False

    def _segment_direction(self, x, v, tol: float) -> bool:
        """Whether v is constant, relative to its size."""
        values = self._atoms(v)
        size = np.sqrt(self.space.weights @ np.sum(values * values, axis=1))
        return self._spread(values) <= tol * max(1.0, float(size))

    def _member_rows(self, n: int, rng, anchors) -> tuple:
        d = self._sample_dim(anchors)
        z = np.tile(rng.uniform(-4.0, 4.0, (n, d)), (1, self.space.n_atoms))
        return z, bo.flat_weights(self.space, d)


def is_bochner_set(s) -> bool:
    """Whether s is a set of functions over a discrete probability space."""
    return isinstance(getattr(s, "space", None), bo.DiscreteProbabilitySpace)


def _flat_form(s, *points) -> tuple:
    """(flat set, points in flat form): a Bochner set checks and flattens them once."""
    return s._flat_args(*points) if is_bochner_set(s) else (s, *points)


def span_component(s: SubspaceSpan, x: HilbertPoint) -> HilbertPoint:
    """Sum of <x, u_i> u_i over the generators."""
    if s.generators:
        _check_compatible(x, s.generators[0])
    return x.replace_coeffs(s._coords(x.coeffs) @ s._basis)


def contains(s, x, tol: float = DEFAULT_TOL) -> bool:
    """Whether x lies in the set, within an absolute tolerance."""
    _check_tol(tol)
    return s._contains(x, tol)


def classify_point(s, y, tol: float = DEFAULT_TOL) -> PointClass:
    """Internal (inverse image is {y}) versus cuticle (strictly larger).

    A member is internal exactly when it is an interior point of the set.
    Spans classify as cuticle except in the degenerate cases where the
    projection is the identity (full span; constants over one atom) or the
    span is the singleton {theta}: a singleton's only point has inverse
    image equal to the whole space, hence cuticle.
    """
    _check_tol(tol)
    if not s._contains(y, tol):
        raise NotInSet("point to classify must belong to the set")
    return PointClass.INTERNAL if s._interior(y, tol) else PointClass.CUTICLE


def in_inverse_image(s, y, x, sample_budget: int = 0, tol: float = DEFAULT_TOL, rng=None) -> bool:
    """Whether x projects onto y, decided by the closed-form characterizations.

    With sample_budget > 0, additionally samples that many points z of the
    set and requires <x - y, y - z> >= -1e-9, an independent check of the
    basic variational principle.
    """
    _check_tol(tol)
    if not s._contains(y, tol):
        raise NotInSet("candidate image point must belong to the set")
    exact = s._inverse_member(y, x, tol)
    if not exact or sample_budget <= 0:
        return exact
    _, flat_y, flat_x = _flat_form(s, y, x)
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
    _check_tol(tol)
    _check_dim(cone, z)
    return _in_cone(-z.coeffs, tol)


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
    _check_tol(tol)
    _check_dim(cone, y)
    _check_dim(cone, x)
    if not cone._contains(y, tol):
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
    anchors = _flat_form(s, *include)[1:] if include else ()
    z, weights = s._member_rows(n, rng, anchors)
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
    return _points_from_rows(z, weights)
