"""Independent numerical oracles for the closed-form results.

Three tools, all deliberately ignorant of the analytic derivative formulas:

* :func:`fd_derivative` estimates the one-sided directional derivative from
  difference quotients (P(x + t v) - P(x)) / t over t = 2^-k > 0, k = 4..26.
  It declares convergence when the last three agree pairwise and reports a
  Richardson-extrapolated limit; a trail that does not settle gives
  converged=False and no value, never a fabricated limit. The trail stays one
  (23, d) array: checked once, projected by the set's kernel in one call (bit
  for bit a per-step ``project`` loop); only its 23 quotients become points.
* :func:`variational_certificate` checks the projection's defining
  inequality <x - u, u - z> >= 0 against sampled members z of the set.
* :func:`property_battery` runs the operator-level properties (variational,
  strengthened variational, monotone, nonexpansive and its dichotomy,
  idempotent, positively homogeneous, the sphere direction partition) on
  seeded pairs from each set's ``_sample_pair``. It takes every residual on
  coefficient arrays through the kernels of ``inner`` and ``norm``, so its
  reports keep the point formulas' bits, and reports per property its
  trials, its failures (floored residuals above the bound in
  ``_THRESHOLDS``) and its worst floored residual. The partition probe steps
  by t r and reports drift / r, so every radius is probed alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import DEFAULT_TOL, HilbertPoint, _dot, _finite, _norm, _trusted_rows
from .derivatives import classify_direction, derivative
from .errors import NotInSet
from .sets import (  # random_point and cone_region_point: importable from here too
    ClosedBall,
    DirectionClass,
    VI_SLACK,
    _flat_direction,
    _flat_form,
    _member_matrix,
    _min_variational_inner,
    ball_region_point,
    cone_region_point,
    project,
    random_point,
    sphere_direction,
)

_STEPS = 2.0 ** -np.arange(4.0, 27.0)


@dataclass(frozen=True)
class OracleEstimate:
    """Finite-difference estimate with its full quotient trail."""

    value: HilbertPoint | None
    step_sequence: tuple
    converged: bool
    residual: float


def fd_derivative(s, x, v, tol: float = 1e-6) -> OracleEstimate:
    """Difference-quotient estimate of the directional derivative at x along v."""
    flat, xp, vp, _ = _flat_direction(s, x, v, tol)
    base = project(flat, xp)
    # the (23, d) step rows, checked once and projected by the set's kernel in one call
    quotients = flat._project_array(_finite(xp.coeffs + _STEPS[:, None] * vp.coeffs)) - base.coeffs
    quotients *= (1.0 / _STEPS)[:, None]
    steps = tuple(zip(_STEPS.tolist(), _trusted_rows(_finite(quotients), repeat(base.weights))))
    residual = float(np.ptp(quotients[-3:], axis=0).max())
    converged = residual <= tol
    value = 2.0 * steps[-1][1] - steps[-2][1] if converged else None
    return OracleEstimate(value=value, step_sequence=steps, converged=converged, residual=residual)


def variational_certificate(s, x, u, samples: int = 1000, rng=None) -> dict:
    """Minimum of <x - u, u - z> over sampled z; passes iff >= -1e-9 (-1e-9 r^2 on a ball)."""
    if samples < 1:
        raise ValueError("samples must be a positive integer")
    flat, xp, up = _flat_form(s, x, u)
    if not flat._contains(up, DEFAULT_TOL):
        raise NotInSet("candidate projection must belong to the set")
    rng = np.random.default_rng(0) if rng is None else rng
    min_inner = _min_variational_inner(flat, xp, up, samples, rng)
    return {"min_inner": min_inner, "pass": bool(min_inner >= -flat._vi_slack)}


_THRESHOLDS = {  # each property's failure bound, in report order
    "variational": VI_SLACK,
    "strengthened_variational": VI_SLACK,
    "monotone": VI_SLACK,
    "nonexpansive": 1e-12,
    "nonexpansive_dichotomy": VI_SLACK,
    "idempotent": 1e-12,
    "homogeneous": VI_SLACK,
    "direction_partition": VI_SLACK,  # balls only
}


def property_battery(s, trials: int, seed: int = 0) -> list:
    """Seeded random verification of the operator-level properties.

    Returns one report record per property; deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    rng = np.random.default_rng(seed)
    is_ball = isinstance(s, ClosedBall)
    res = {name: [] for name in _THRESHOLDS if is_ball or name != "direction_partition"}
    for _ in range(trials):
        x, _ = s._sample_pair(rng, False)
        y, _ = s._sample_pair(rng, False)
        px, py = project(s, x), project(s, y)
        zs, _ = _member_matrix(s, 8, rng, (px,))  # member rows, drawn as sample_points draws them
        _flat_form(s, x, y, px, py)  # the points share one weighting
        w, xa, pa = x.weights, x.coeffs, px.coeffs
        r, dp, dx = xa - pa, pa - py.coeffs, xa - y.coeffs
        sq = _dot(w, r, r)
        res["variational"].append(-min(_dot(w, r, pa - z) for z in zs))
        res["strengthened_variational"].append(-min(_dot(w, r, xa - z) - sq for z in zs))
        res["monotone"].append(_dot(w, dp, dp) - _dot(w, dp, dx))
        gap = _norm(w, dx) - _norm(w, dp)
        res["nonexpansive"].append(-gap)
        res["nonexpansive_dichotomy"].append(0.0 if gap > 0.0 else _norm(w, dp - dx))
        res["idempotent"].append(_norm(w, project(s, px).coeffs - pa))
        xc, vc = s._sample_pair(rng, True)
        base = derivative(s, xc, vc)
        residual = float("inf")  # an uncovered call on a covered pair fails
        if base.covered:
            lam = (0.5, 2.0, 10.0)[int(rng.integers(3))]
            scaled = derivative(s, xc, lam * vc)
            if scaled.covered:
                w, b = scaled.value.weights, base.value.coeffs
                residual = _norm(w, scaled.value.coeffs - b * lam) / max(1.0, lam * _norm(w, b))
        res["homogeneous"].append(residual)
        if is_ball:
            xs = ball_region_point(s, "sphere", rng)
            klass = DirectionClass.UP if rng.integers(2) else DirectionClass.DOWN
            v = sphere_direction(s, xs, klass, rng, margin=1e-3)
            label = classify_direction(s, xs, v)
            r, c = s.radius, s.center  # classify_direction checked v and c against xs
            sign = -1.0 if label is DirectionClass.UP else 1.0
            worst = 0.0
            for t in (1e-4, 1e-6):
                # step and drift relative to the radius, so every ball is probed alike
                drift = (_norm(xs.weights, xs.coeffs + v.coeffs * (t * r) - c.coeffs) - r) / r
                worst = max(worst, sign * drift)
            res["direction_partition"].append(worst)
    floored = {name: [max(0.0, float(r)) for r in rs] for name, rs in res.items()}
    return [
        {"property": name, "trials": len(rs),
         "failures": sum(r > _THRESHOLDS[name] for r in rs), "worst_residual": max(rs)}
        for name, rs in floored.items()
    ]


__all__ = sorted(n for n, obj in globals().items() if n[0] != "_" and getattr(obj, "__module__", None) == __name__)
