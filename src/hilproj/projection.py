"""Closed-form metric projections and the distance function.

Every supported set variant admits an exact projection formula:

* closed ball: identity inside, radial pull-back c + (r/||x-c||)(x-c) outside;
* positive cone: coordinate-wise clipping at zero;
* subspace span: sum of <x, u_i> u_i over the orthonormal generators;
* Bochner pointwise cone: clipping per atom and per coordinate;
* Bochner constants: the constant function at the expectation.

Points with ||x-c|| in (r, r+1e-12] are projected by the identity: the radial
formula is continuous at the sphere, both branches agree to 1e-12 there, and
skipping the division avoids amplifying a near-zero denominator direction.

:func:`project_sequence` evaluates the same formulas on a whole batch at
once: the points are stacked into one array, projected by one array
expression per set variant, and handed back as read-only rows of the result.
"""

from __future__ import annotations

import numpy as np

from . import bochner as bo
from .core import _check_compatible, _points_from_rows, norm
from .errors import DimensionMismatch, HilprojError
from .sets import (
    BochnerConstantSubspace,
    BochnerPointwiseCone,
    ClosedBall,
    PositiveCone,
    SubspaceSpan,
    _atom_dim,
    _span_rows,
    as_function,
    is_bochner_set,
    span_component,
)

_SPHERE_BAND = 1e-12


def clip_nonnegative(coeffs: np.ndarray) -> np.ndarray:
    """Coordinates at or below zero map to zero."""
    return np.where(coeffs > 0.0, coeffs, 0.0)


def _check_dim(x, dim: int, what: str):
    if x.dim != dim:
        raise DimensionMismatch(f"point has dimension {x.dim}, {what} needs {dim}")


def project(s, x):
    """Nearest point of the set. Bochner results mirror the input form."""
    if isinstance(s, ClosedBall):
        d = norm(x - s.center)
        if d <= s.radius + _SPHERE_BAND:
            return x
        return s.center + (s.radius / d) * (x - s.center)
    if isinstance(s, PositiveCone):
        _check_dim(x, s.dim, "cone")
        return x.replace_coeffs(clip_nonnegative(x.coeffs))
    if isinstance(s, SubspaceSpan):
        _check_dim(x, s.dim, "span")
        return span_component(s, x)
    if isinstance(s, BochnerPointwiseCone):
        f = as_function(s, x)
        g = bo.project_pointwise_cone(f)
        return g if isinstance(x, bo.BochnerFunction) else bo.flatten(g)
    if isinstance(s, BochnerConstantSubspace):
        f = as_function(s, x)
        g = bo.project_constants(f)
        return g if isinstance(x, bo.BochnerFunction) else bo.flatten(g)
    raise TypeError(f"unsupported set {type(s).__name__}")


def _gap(x, u) -> float:
    """||x - u||, for x and its projection u in the same form."""
    if isinstance(x, bo.BochnerFunction):
        return bo.bochner_distance(x, u)
    return norm(x - u)


def distance(s, x) -> float:
    """d(x, C) = ||x - P_C(x)||."""
    return _gap(x, project(s, x))


def project_sequence(s, xs) -> list:
    """Projection of every element; failures carry the offending index.

    Each element is first checked as :func:`project` checks it, with the
    same exception type and message prefixed by ``element i:``. The batch is
    then stacked and projected as one array, so the result equals
    element-wise :func:`project` (bit for bit on balls and cones, to
    rounding on spans and Bochner constants). Points in the result are
    read-only rows of that array; Bochner results mirror each element's form.
    """
    xs = list(xs)
    if not xs:
        return []
    if isinstance(s, ClosedBall):
        _check_each(xs, lambda x: _check_compatible(x, s.center))
        return _project_ball_rows(s, xs)
    if isinstance(s, PositiveCone):
        _check_each(xs, lambda x: _check_dim(x, s.dim, "cone"))
        return _rows_weighted_like(clip_nonnegative(_stack(xs)), xs)
    if isinstance(s, SubspaceSpan):
        if s.is_singleton:
            _check_each(xs, lambda x: _check_dim(x, s.dim, "span"))
            return _rows_weighted_like(np.zeros((len(xs), s.dim)), xs)
        u = s.generators[0]

        def check(x):
            _check_dim(x, s.dim, "span")
            _check_compatible(x, u)

        _check_each(xs, check)
        return _points_from_rows(_span_rows(s, _stack(xs)), u.weights)
    if is_bochner_set(s):
        dims = _check_each(xs, lambda x: _atom_dim(s, x))
        return _project_bochner_rows(s, xs, dims)
    raise TypeError(f"unsupported set {type(s).__name__}")


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


def _project_ball_rows(s: ClosedBall, xs) -> list:
    c = s.center
    diff = _stack(xs) - c.coeffs
    wdiff = diff if c.weights is None else c.weights * diff
    # one np.dot per row, as norm() takes it, so the band test and the radial
    # scale agree with project() bit for bit
    dist = np.sqrt(np.maximum((wdiff[:, None, :] @ diff[:, :, None])[:, 0, 0], 0.0))
    outside = np.flatnonzero(dist > s.radius + _SPHERE_BAND)
    out = list(xs)
    rows = c.coeffs + (s.radius / dist[outside])[:, None] * diff[outside]
    for i, p in zip(outside, _points_from_rows(rows, c.weights)):
        out[i] = p
    return out


def _rows_weighted_like(rows: np.ndarray, xs) -> list:
    """Points for the rows, row i carrying the weighting of xs[i]."""
    groups = _indices_by_key(None if x.weights is None else x.weights.tobytes() for x in xs)
    out = [None] * len(xs)
    for idx in groups.values():
        for i, p in zip(idx, _points_from_rows(rows[idx], xs[idx[0]].weights)):
            out[i] = p
    return out


def _project_bochner_rows(s, xs, dims) -> list:
    """Bochner batch as (n, k, d) arrays, one per per-atom dimension d."""
    space = s.space
    k = space.n_atoms
    out = [None] * len(xs)
    for d, idx in _indices_by_key(dims).items():
        parts = []
        for i in idx:
            x = xs[i]
            if isinstance(x, bo.BochnerFunction):
                parts.extend(v.coeffs for v in x.values)
            else:
                parts.append(x.coeffs)
        values = np.concatenate(parts).reshape(len(idx), k, d)
        if isinstance(s, BochnerPointwiseCone):
            values = clip_nonnegative(values)
        else:
            values = np.broadcast_to((space.weights @ values)[:, None, :], values.shape)
        is_fn = np.array([isinstance(xs[i], bo.BochnerFunction) for i in idx])
        flat = np.flatnonzero(~is_fn)
        fn = np.flatnonzero(is_fn)
        flat_points = _points_from_rows(
            values[flat].reshape(len(flat), k * d), bo.flat_weights(space, d)
        )
        for j, p in zip(flat, flat_points):
            out[idx[j]] = p
        if isinstance(s, BochnerPointwiseCone):
            atoms = _points_from_rows(values[fn].reshape(len(fn) * k, d))
            for m, j in enumerate(fn):
                out[idx[j]] = bo.BochnerFunction(space, tuple(atoms[m * k:(m + 1) * k]))
        else:
            means = _points_from_rows(values[fn, 0])
            for j, p in zip(fn, means):
                out[idx[j]] = bo.constant_function(space, p)
    return out
