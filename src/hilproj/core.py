"""Coefficient-vector model of points in a real Hilbert space.

A point is stored as its finite list of coefficients against an implicit
orthonormal basis, optionally carrying a positive weight per coordinate.
With weights w the inner product is sum(w * x * y); without weights it is
the standard dot product. Weighted points arise when a function space over
a finite measure is flattened into one long coefficient vector, so the
weights are part of the point's identity: binary operations demand that
both operands carry exactly the same weighting.

The scalar geometry of the space lives here too: the modulus of convexity
delta(eps) = 1 - sqrt(1 - eps^2/4), the modulus of smoothness
rho(t) = sqrt(1 + t^2) - 1, and the one-sided directional derivative of the
norm on the unit sphere, which reduces to the plain inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotUnitVector, OutOfDomain, WeightMismatch

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HilbertPoint:
    """Immutable point: coefficients plus an optional coordinate weighting.

    Parameters
    ----------
    coeffs : array_like of float
        Coefficients against the implicit orthonormal basis.
    weights : array_like of float, optional
        Strictly positive weights, one per coefficient. Absent means the
        uniform (all-ones) weighting.
    """

    coeffs: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.ndim != 1:
            raise ValueError("coeffs must be one-dimensional")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        if self.weights is not None:
            weights = np.asarray(self.weights, dtype=np.float64)
            if weights.shape != coeffs.shape:
                raise ValueError("weights must match coeffs in length")
            if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
                raise ValueError("weights must be finite and strictly positive")
            weights = weights.copy()
            weights.setflags(write=False)
            object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    def replace_coeffs(self, coeffs) -> "HilbertPoint":
        """New point with the same weighting and different coefficients."""
        return HilbertPoint(coeffs, self.weights)

    def __add__(self, other: "HilbertPoint") -> "HilbertPoint":
        _check_compatible(self, other)
        return HilbertPoint(self.coeffs + other.coeffs, self.weights)

    def __sub__(self, other: "HilbertPoint") -> "HilbertPoint":
        _check_compatible(self, other)
        return HilbertPoint(self.coeffs - other.coeffs, self.weights)

    def __neg__(self) -> "HilbertPoint":
        return HilbertPoint(-self.coeffs, self.weights)

    def __mul__(self, scalar: float) -> "HilbertPoint":
        return HilbertPoint(self.coeffs * float(scalar), self.weights)

    __rmul__ = __mul__

    def __repr__(self):  # pragma: no cover - debugging aid
        if self.weights is None:
            return f"HilbertPoint({self.coeffs.tolist()})"
        return f"HilbertPoint({self.coeffs.tolist()}, weights={self.weights.tolist()})"


def _check_tol(tol: float):
    """Reject a membership or classification tolerance that is NaN, infinite or negative."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def _points_from_rows(rows, weights=None) -> list:
    """One point per row of a 2-D array, all sharing one weighting.

    Applies the checks of ``HilbertPoint.__post_init__`` once to the whole
    matrix instead of once per row, with the same messages. Every point's
    coefficients are a read-only row of one private copy of ``rows``.
    """
    rows = np.array(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("coeffs must be one-dimensional")
    if not np.all(np.isfinite(rows)):
        raise ValueError("coeffs must be finite")
    rows.setflags(write=False)
    if weights is not None:
        weights = np.array(weights, dtype=np.float64)
        if weights.shape != rows.shape[1:]:
            raise ValueError("weights must match coeffs in length")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        weights.setflags(write=False)
    new = object.__new__
    out = []
    for row in rows:
        p = new(HilbertPoint)
        fields = p.__dict__
        fields["coeffs"] = row
        fields["weights"] = weights
        out.append(p)
    return out


def zeros_like(x: HilbertPoint) -> HilbertPoint:
    return HilbertPoint(np.zeros(x.dim), x.weights)


def same_weights(x: HilbertPoint, y: HilbertPoint) -> bool:
    """Exact weighting equality: both absent, or element-wise equal."""
    if x.weights is None and y.weights is None:
        return True
    if x.weights is None or y.weights is None:
        return False
    return bool(np.array_equal(x.weights, y.weights))


def _check_compatible(x: HilbertPoint, y: HilbertPoint):
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimensions {x.dim} and {y.dim} differ")
    if not same_weights(x, y):
        raise WeightMismatch("points carry different inner-product weights")


def inner(x: HilbertPoint, y: HilbertPoint) -> float:
    """Inner product sum_n w_n <x,e_n><y,e_n> (w_n = 1 when unweighted).

    Raises
    ------
    DimensionMismatch
        If the coefficient lengths differ.
    WeightMismatch
        If one operand is weighted and the other is not, or the weight
        vectors differ anywhere.
    """
    _check_compatible(x, y)
    if x.weights is None:
        return float(np.dot(x.coeffs, y.coeffs))
    return float(np.dot(x.weights * x.coeffs, y.coeffs))


def norm(x: HilbertPoint) -> float:
    """Norm induced by :func:`inner`; always nonnegative."""
    return math.sqrt(max(inner(x, x), 0.0))


def modulus_convexity(eps: float) -> float:
    """Modulus of convexity delta(eps) = 1 - sqrt(1 - eps^2/4) on [0, 2].

    Matches the infimum definition
    inf{1 - ||(x+y)/2|| : x, y unit, ||x-y|| >= eps},
    which in a Hilbert space is attained at ||x-y|| = eps.
    """
    if not (0.0 <= eps <= 2.0):
        raise OutOfDomain(f"eps={eps} outside [0, 2]")
    return 1.0 - math.sqrt(1.0 - 0.25 * eps * eps)


def modulus_smoothness(t: float) -> float:
    """Modulus of smoothness rho(t) = sqrt(1 + t^2) - 1 for t > 0.

    Matches the supremum definition
    sup{(||x+y|| + ||x-y||)/2 - 1 : x unit, ||y|| = t},
    attained at y orthogonal to x.
    """
    if not t > 0.0:
        raise OutOfDomain(f"t={t} must be positive")
    return math.hypot(1.0, t) - 1.0


def norm_directional_derivative(x: HilbertPoint, v: HilbertPoint, tol: float = DEFAULT_TOL) -> float:
    """One-sided derivative of the norm at unit x along unit v.

    Equals lim_{t->0+} (||x + t v|| - ||x||) / t = <x, v> for unit vectors.
    Both arguments must lie on the unit sphere within ``tol``; the general
    non-unit form is deliberately not offered.

    Raises
    ------
    NotUnitVector
        If either argument is off the unit sphere by more than ``tol``.
    """
    _check_tol(tol)
    nx, nv = norm(x), norm(v)
    if abs(nx - 1.0) > tol:
        raise NotUnitVector(f"||x|| = {nx} is not 1 within {tol}")
    if abs(nv - 1.0) > tol:
        raise NotUnitVector(f"||v|| = {nv} is not 1 within {tol}")
    return inner(x, v)
