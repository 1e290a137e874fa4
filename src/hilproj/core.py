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

Points are validated at the boundary: the constructor and
``_points_from_rows`` copy and check; a read-only weights array that owns its
data is checked and shared, so the points of one weighting compare it by
identity. Arithmetic on checked points builds its fresh result with
``_trusted``: the weights shared, only the finiteness check kept, so an
overflow still raises. ``_proven`` drops the check for a fresh array finite by
construction (a clip, a ball's pull-back, zeros). The lazy rule of
``_finite_norm``, a finite norm proves finite coordinates, covers the
intermediates of the ball rules: they take ``_dot`` and ``_norm``, the kernels
of ``inner`` and ``norm``, on raw arrays and scan only the value they return.
A point holds two slots, ``coeffs`` and ``weights``, and no ``__dict__``; the
slots' own setters are their one write path, taken by ``__post_init__``, by
``_proven`` and by ``_trusted_rows``, the one row loop that wraps a batch.
``_scratch(n)`` lends a per-thread work array for a residual that is reduced
to a number and never returned, such as the x - P(x) of ``distance``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DimensionMismatch, NotUnitVector, OutOfDomain, WeightMismatch

__all__ = [
    "DEFAULT_TOL",
    "HilbertPoint",
    "inner",
    "modulus_convexity",
    "modulus_smoothness",
    "norm",
    "norm_directional_derivative",
    "zeros_like",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False, slots=True)
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
        coeffs, weights = _checked_arrays(self.coeffs, self.weights, 1)
        _set_coeffs(self, coeffs)
        _set_weights(self, weights)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    def __add__(self, other: "HilbertPoint") -> "HilbertPoint":
        _check_compatible(self, other)
        return _trusted(self.coeffs + other.coeffs, self.weights)

    def __sub__(self, other: "HilbertPoint") -> "HilbertPoint":
        _check_compatible(self, other)
        return _trusted(self.coeffs - other.coeffs, self.weights)

    def __neg__(self) -> "HilbertPoint":
        return _trusted(-self.coeffs, self.weights)

    def __mul__(self, scalar: float) -> "HilbertPoint":
        return _trusted(self.coeffs * float(scalar), self.weights)

    __rmul__ = __mul__

    def __repr__(self):  # pragma: no cover - debugging aid
        if self.weights is None:
            return f"HilbertPoint({self.coeffs.tolist()})"
        return f"HilbertPoint({self.coeffs.tolist()}, weights={self.weights.tolist()})"


_set_coeffs, _set_weights = HilbertPoint.coeffs.__set__, HilbertPoint.weights.__set__


def _check_tol(tol: float):
    """Reject a membership or classification tolerance that is NaN, infinite or negative."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def _checked_arrays(coeffs, weights, axes: int) -> tuple:
    """Checked read-only float64 coeffs (one point, or rows if axes=2) and weights.

    coeffs are copied; weights are too, unless read-only float64 owning their data.
    """
    coeffs = np.array(coeffs, dtype=np.float64)
    if coeffs.ndim != axes:
        raise ValueError("coeffs must be one-dimensional")
    coeffs = _finite(coeffs)
    if weights is not None:
        if not (type(weights) is np.ndarray and weights.dtype == np.float64
                and weights.base is None and not weights.flags.writeable):
            weights = np.array(weights, dtype=np.float64)
        if weights.shape != coeffs.shape[-1:]:
            raise ValueError("weights must match coeffs in length")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        weights.setflags(write=False)
    return coeffs, weights


def _points_from_rows(rows, weights=None) -> list:
    """One point per row of a 2-D array, all sharing one weighting.

    Applies the checks of ``HilbertPoint.__post_init__`` once to the whole
    matrix instead of once per row. Every point's coefficients are a
    read-only row of one private copy of ``rows``.
    """
    rows, weights = _checked_arrays(rows, weights, 2)
    return _trusted_rows(rows, repeat(weights))


def _trusted_rows(rows: np.ndarray, weights) -> list:
    """One point per row of a checked read-only 2-D array (or any iterable of
    such rows): no copy, no check.

    ``weights`` gives one weighting per row (an iterable): row i carries the
    i-th weights object itself, or None.
    """
    new, set_coeffs, set_weights = object.__new__, _set_coeffs, _set_weights
    out = []
    for row, w in zip(rows, weights):
        p = new(HilbertPoint)
        set_coeffs(p, row)
        set_weights(p, w)
        out.append(p)
    return out


def _finite(coeffs: np.ndarray) -> np.ndarray:
    """coeffs, made read-only, after the finiteness check."""
    if not np.isfinite(coeffs).all():
        raise ValueError("coeffs must be finite")
    coeffs.setflags(write=False)
    return coeffs


def _trusted(coeffs: np.ndarray, weights) -> HilbertPoint:
    """A point on a fresh array computed from checked points: weights shared, no copy."""
    return _proven(_finite(coeffs), weights)


def _proven(coeffs: np.ndarray, weights) -> HilbertPoint:
    """_trusted without the finiteness scan: only for a fresh array that is
    finite by construction, computed from checked points by steps that cannot
    overflow. It is made read-only and carries the weights object given."""
    coeffs.setflags(write=False)
    p = object.__new__(HilbertPoint)
    _set_coeffs(p, coeffs)
    _set_weights(p, weights)
    return p


def zeros_like(x: HilbertPoint) -> HilbertPoint:
    return _proven(np.zeros(x.dim), x.weights)


def same_weights(x: HilbertPoint, y: HilbertPoint) -> bool:
    """Exact weighting equality: both absent, or element-wise equal."""
    if x.weights is y.weights:
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
    return _dot(x.weights, x.coeffs, y.coeffs)


def _dot(w, a: np.ndarray, b: np.ndarray) -> float:
    """inner() on coefficient arrays (w None when unweighted), rounding exactly as inner does."""
    return float(np.dot(a if w is None else w * a, b))


def norm(x: HilbertPoint) -> float:
    """Norm induced by :func:`inner`; always nonnegative."""
    return _norm(x.weights, x.coeffs)


def _norm(w, a: np.ndarray) -> float:
    return math.sqrt(max(_dot(w, a, a), 0.0))


def _finite_norm(w, a: np.ndarray) -> float:
    """_norm(w, a), or ValueError for a non-finite a, scanned only when the norm is not finite."""
    n = _norm(w, a)
    if not math.isfinite(n) and not np.isfinite(a).all():
        raise ValueError("coeffs must be finite")
    return n


_work = threading.local()


def _scratch(n: int) -> np.ndarray:
    """A length-n float64 work array of the calling thread, with stale contents.

    A view at offset 0 of one buffer per thread, grown to the largest n the
    thread has asked for and kept for the thread's lifetime, so a large
    residual faults in no fresh pages. Thread-local because numpy releases
    the GIL inside ufuncs and dot. The view must not outlive the caller's
    computation: the next call in the thread hands out the same memory.
    """
    buf = getattr(_work, "buf", None)
    if buf is None or buf.size < n:
        buf = _work.buf = np.empty(n)
    return buf[:n]


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
