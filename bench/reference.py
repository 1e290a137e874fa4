"""Independent reference for the benchmark's output checks.

Written against the paper's statements and classical results, with numpy
only; nothing here imports or mirrors ``hilproj``. Points are plain float64
arrays, optionally weighted per coordinate, so the inner product is
``sum(w * x * y)``.

* Ball (Thm 4.1), centre c, radius r, d = x - c, g = <d, v>:
  interior -> v; exterior -> (r/|d|)(v - (g/|d|^2) d); sphere with g < 0
  (Down) -> v; sphere with g >= 0 (Up) -> v - (g/r^2) d. The sphere test
  is relative: | |d| - r | <= SPHERE_RTOL * r.
* Positive cone and the flattened Bochner cone: the critical-cone rule
  P'(x)(v) = P_{C(x)}(v) (Haraux 1977, Zarantonello 1971), coordinatewise
  v_i where x_i > 0, 0 where x_i < 0, max(v_i, 0) where x_i = 0.
* Span of orthonormal generators: P is linear, so P'(x) = P.
* Bochner constants: P(f) = 1 (x) E(f) is affine, so P'(f)(h) = 1 (x) E(h).
* Batch projections: radial scaling by row norms, clipping, X G^T G with
  weights, and per-atom expectation over an (n, k, d) array.
"""

from __future__ import annotations

import numpy as np

SPHERE_RTOL = 1e-12


def inner(x, y, w=None):
    """Weighted inner product along the last axis."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.sum(x * y if w is None else w * x * y, axis=-1)


def norm(x, w=None):
    return np.sqrt(inner(x, x, w))


def on_sphere(dist, r):
    return abs(dist - r) <= SPHERE_RTOL * r


# -- derivatives --------------------------------------------------------------

def ball_derivative(c, r, x, v, w=None):
    """Thm 4.1: one-sided derivative of the ball projection at x along v."""
    d = np.asarray(x, dtype=np.float64) - c
    v = np.asarray(v, dtype=np.float64)
    dist = float(norm(d, w))
    g = float(inner(d, v, w))
    if on_sphere(dist, r):
        return v.copy() if g < 0.0 else v - (g / (r * r)) * d
    if dist < r:
        return v.copy()
    return (r / dist) * (v - (g / (dist * dist)) * d)


def direction_class(c, r, x, v, w=None):
    """'Up' when <x - c, v> >= 0 at a sphere point, else 'Down'."""
    d = np.asarray(x, dtype=np.float64) - c
    if not on_sphere(float(norm(d, w)), r):
        raise ValueError("direction classes exist at sphere points only")
    return "Up" if float(inner(d, v, w)) >= 0.0 else "Down"


def cone_derivative(x, v):
    """Critical-cone rule: projection of v onto the critical cone at x."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return np.where(x > 0.0, v, np.where(x < 0.0, 0.0, np.maximum(v, 0.0)))


def span_derivative(gens, v, w=None):
    """P'(x)(v) = P(v) for the span of the rows of gens."""
    return span_project(gens, v, w)


def constants_derivative(mu, h):
    """P'(f)(h) = 1 (x) E(h) for h given as a (k, d) array over k atoms."""
    return constants_project(mu, h)


# -- projections (vectorised over a leading batch axis) -----------------------

def ball_project(c, r, xs, w=None):
    xs = np.asarray(xs, dtype=np.float64)
    d = xs - c
    dist = norm(d, w)
    scale = np.where(dist > r, r / np.where(dist > 0.0, dist, 1.0), 1.0)
    return c + d * scale[..., None] if xs.ndim > 1 else c + d * float(scale)


def cone_project(xs):
    return np.maximum(np.asarray(xs, dtype=np.float64), 0.0)


def span_project(gens, xs, w=None):
    """X G^T G with the weighted inner product; gens has orthonormal rows."""
    gens = np.asarray(gens, dtype=np.float64).reshape(-1, np.shape(xs)[-1])
    xs = np.asarray(xs, dtype=np.float64)
    weighted = xs if w is None else xs * w
    return (weighted @ gens.T) @ gens


def constants_project(mu, fs):
    """Per-atom expectation over axis -2, broadcast back to every atom."""
    fs = np.asarray(fs, dtype=np.float64)
    mean = np.tensordot(mu, fs, axes=([0], [fs.ndim - 2]))
    return np.broadcast_to(np.expand_dims(mean, fs.ndim - 2), fs.shape).copy()


def distance(xs, ps, w=None):
    return norm(np.asarray(xs) - np.asarray(ps), w)


# -- membership, point classes and inverse images -----------------------------

def ball_contains(c, r, xs, w=None, rtol=1e-12):
    return norm(np.asarray(xs) - c, w) <= r * (1.0 + rtol)


def ball_point_class(c, r, y, w=None):
    dist = float(norm(np.asarray(y) - c, w))
    if dist > r * (1.0 + SPHERE_RTOL):
        raise ValueError("point outside the ball")
    return "Cuticle" if on_sphere(dist, r) else "Internal"


def cone_point_class(y):
    y = np.asarray(y)
    if np.any(y < 0.0):
        raise ValueError("point outside the cone")
    return "Internal" if np.all(y > 0.0) else "Cuticle"


def ball_inverse_member(c, r, y, x, w=None, atol=1e-9):
    """x projects onto y: x = y inside the ball, x on the outward ray at the sphere."""
    d = np.asarray(y, dtype=np.float64) - c
    step = np.asarray(x, dtype=np.float64) - y
    if not on_sphere(float(norm(d, w)), r):
        return bool(np.max(np.abs(step), initial=0.0) <= atol)
    t = float(inner(step, d, w)) / (r * r)
    return t >= -atol and float(norm(step - t * d, w)) <= atol * max(1.0, r)


def cone_inverse_member(y, x, atol=1e-9):
    """x agrees with y where y > 0 and is nonpositive where y = 0."""
    y = np.asarray(y)
    x = np.asarray(x)
    positive = y > 0.0
    return bool(np.all(np.abs(x[positive] - y[positive]) <= atol)
                and np.all(x[~positive] <= atol))


def span_inverse_member(gens, y, x, w=None, atol=1e-9):
    """x - y is orthogonal to every generator."""
    step = np.asarray(x, dtype=np.float64) - y
    coeffs = np.asarray(gens) @ (step if w is None else step * w)
    return bool(np.all(np.abs(coeffs) <= atol))


def constants_inverse_member(mu, y, x, atol=1e-9):
    """E(x) = E(y) for (k, d) arrays over k atoms."""
    return bool(np.all(np.abs(mu @ (np.asarray(x) - np.asarray(y))) <= atol))
