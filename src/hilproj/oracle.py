"""Independent numerical oracles for the closed-form results.

Three tools, all deliberately ignorant of the analytic derivative formulas:

* :func:`fd_derivative` estimates the one-sided directional derivative from
  difference quotients (P(x + t v) - P(x)) / t on the dyadic step schedule
  t = 2^-k, k = 4..26, declaring convergence when the last three quotients
  agree pairwise and reporting a Richardson-extrapolated limit. Quotients
  use t > 0 only, matching the one-sided limit. When the sequence does not
  settle the estimate is returned with converged=False and no value; a
  limit is never fabricated.
* :func:`variational_certificate` checks the defining inequality of the
  projection, <x - u, u - z> >= 0 against sampled members z of the set.
* :func:`property_battery` runs the operator-level properties (variational,
  strengthened variational, monotone, nonexpansive plus its dichotomy,
  idempotent, positively homogeneous, and the sphere direction partition)
  on seeded random inputs and reports failure counts and worst residuals.

Random generation conventions: coefficients uniform in [-2, 2]; sphere
points by normalization; cone boundary points by zeroing a random
coordinate subset. Identical seeds give bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bochner as bo
from .core import HilbertPoint, inner, norm
from .derivatives import DirectionClass, classify_direction, derivative
from .errors import NotInSet, ZeroDirection
from .projection import project
from .sets import (
    BochnerConstantSubspace,
    BochnerPointwiseCone,
    ClosedBall,
    PositiveCone,
    SubspaceSpan,
    VI_SLACK,
    _flat_form,
    _min_variational_inner,
    contains,
    is_bochner_set,
    sample_points,
    span_component,
)

_STEP_KS = range(4, 27)


@dataclass(frozen=True)
class OracleEstimate:
    """Finite-difference estimate with its full quotient trail."""

    value: HilbertPoint | None
    step_sequence: tuple
    converged: bool
    residual: float


def fd_derivative(s, x, v, tol: float = 1e-6) -> OracleEstimate:
    """Difference-quotient estimate of the directional derivative at x along v."""
    _, xp, vp = _flat_form(s, x, v)
    if norm(vp) == 0.0:
        raise ZeroDirection("direction must be nonzero")
    base = project(s, xp)
    steps = []
    for k in _STEP_KS:
        t = 2.0 ** (-k)
        quotient = (1.0 / t) * (project(s, xp + t * vp) - base)
        steps.append((t, quotient))
    last = [q for _, q in steps[-3:]]
    residual = max(
        float(np.max(np.abs(a.coeffs - b.coeffs)))
        for i, a in enumerate(last)
        for b in last[i + 1:]
    )
    converged = residual <= tol
    value = None
    if converged:
        value = 2.0 * last[2] - last[1]
    return OracleEstimate(
        value=value,
        step_sequence=tuple(steps),
        converged=converged,
        residual=residual,
    )


def variational_certificate(s, x, u, samples: int = 1000, rng=None) -> dict:
    """Minimum of <x - u, u - z> over sampled z; passes iff >= -1e-9."""
    if samples < 1:
        raise ValueError("samples must be a positive integer")
    if not contains(s, u, 1e-9):
        raise NotInSet("candidate projection must belong to the set")
    rng = np.random.default_rng(0) if rng is None else rng
    min_inner = _min_variational_inner(s, x, u, samples, rng)
    return {"min_inner": min_inner, "pass": bool(min_inner >= -VI_SLACK)}


def random_point(rng, dim: int, weights=None, scale: float = 2.0) -> HilbertPoint:
    """Coefficients uniform in [-scale, scale]."""
    return HilbertPoint(rng.uniform(-scale, scale, size=dim), weights)


def ball_region_point(ball: ClosedBall, region: str, rng, margin: float = 0.1) -> HilbertPoint:
    """Random point in a named region of a ball: interior, sphere, or exterior.

    The margin keeps interior and exterior points away from the sphere so
    difference quotients never straddle the kink; sphere points are placed
    by exact normalization.
    """
    c, r = ball.center, ball.radius
    u = rng.standard_normal(ball.dim)
    w = np.ones(ball.dim) if c.weights is None else c.weights
    u = u / np.sqrt(np.dot(u * w, u))
    direction = HilbertPoint(u, c.weights)
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

    Directions with |<x - c, v>| below margin * max(||v||, margin) are
    resampled: quotient probes cannot resolve the Up/Down kink when the
    radial component is smaller than the probe step.
    """
    d = x - ball.center
    for _ in range(1000):
        v = random_point(rng, ball.dim, ball.center.weights)
        g = inner(d, v)
        if abs(g) < margin * max(norm(v), margin):
            continue
        if (g >= 0.0) == (klass is DirectionClass.UP):
            return v
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


def _random_pair(s, rng):
    """Random (x, v) with x spread over the set's case regions."""
    if isinstance(s, ClosedBall):
        region = ("interior", "sphere", "exterior")[int(rng.integers(3))]
        x = ball_region_point(s, region, rng)
        if region == "sphere":
            klass = DirectionClass.UP if rng.integers(2) else DirectionClass.DOWN
            v = sphere_direction(s, x, klass, rng)
        else:
            v = random_point(rng, s.dim, s.center.weights)
        return x, v
    if isinstance(s, PositiveCone):
        region = ("strict_interior", "boundary", "dual", "general")[int(rng.integers(4))]
        return cone_region_point(s, region, rng), random_point(rng, s.dim)
    if isinstance(s, SubspaceSpan):
        w = s.generators[0].weights if s.generators else None
        return random_point(rng, s.dim, w), random_point(rng, s.dim, w)
    if is_bochner_set(s):
        d = 3
        w = bo.flat_weights(s.space, d)
        n = s.space.n_atoms * d
        return random_point(rng, n, w), random_point(rng, n, w)
    raise TypeError(f"unsupported set {type(s).__name__}")


def _covered_pair(s, rng):
    """Random (x, v) whose analytic derivative is covered."""
    if isinstance(s, (ClosedBall, BochnerConstantSubspace)):
        return _random_pair(s, rng)
    if isinstance(s, PositiveCone):
        region = ("boundary", "dual", "strict_interior")[int(rng.integers(3))]
        x = cone_region_point(s, region, rng)
        if region == "strict_interior":
            return x, random_point(rng, s.dim)
        sign = 1.0 if region == "boundary" else -1.0
        return x, HilbertPoint(sign * rng.uniform(0.0, 2.0, size=s.dim))
    if isinstance(s, SubspaceSpan):
        w = s.generators[0].weights if s.generators else None
        if s.is_singleton or s.is_full:
            return random_point(rng, s.dim, w), random_point(rng, s.dim, w)
        x_in = span_component(s, random_point(rng, s.dim, w))
        if rng.integers(2):
            v = span_component(s, random_point(rng, s.dim, w))
            if norm(v) == 0.0:
                v = s.generators[0]
            return x_in, v
        x_out = random_point(rng, s.dim, w)
        u = project(s, x_out)
        if norm(x_out - u) < 1e-3:
            x_out = x_out + HilbertPoint(np.ones(s.dim), w)
            u = project(s, x_out)
        lam = float(rng.uniform(0.5, 3.0)) * (1.0 if rng.integers(2) else -1.0)
        return x_out, lam * (x_out - u)
    if isinstance(s, BochnerPointwiseCone):
        n, w = s.space.n_atoms * 3, bo.flat_weights(s.space, 3)
        mode = int(rng.integers(3))
        low, sign = ((0.0, 1.0), (0.0, -1.0), (0.05, 1.0))[mode]
        x = HilbertPoint(sign * rng.uniform(low, 2.0, size=n), w)
        if mode == 2:
            return x, random_point(rng, n, w)
        return x, HilbertPoint(sign * rng.uniform(0.0, 2.0, size=n), w)
    raise TypeError(f"unsupported set {type(s).__name__}")


class _PropertyStat:
    def __init__(self, name: str, threshold: float):
        self.name = name
        self.threshold = threshold
        self.trials = 0
        self.failures = 0
        self.worst = 0.0

    def record(self, residual: float):
        self.trials += 1
        residual = max(0.0, float(residual))
        if residual > self.threshold:
            self.failures += 1
        self.worst = max(self.worst, residual)

    def report(self) -> dict:
        return {
            "property": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "worst_residual": self.worst,
        }


def property_battery(s, trials: int, seed: int = 0) -> list:
    """Seeded random verification of the operator-level properties.

    Returns one report record per property; deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    rng = np.random.default_rng(seed)
    stats = {
        "variational": _PropertyStat("variational", VI_SLACK),
        "strengthened_variational": _PropertyStat("strengthened_variational", VI_SLACK),
        "monotone": _PropertyStat("monotone", VI_SLACK),
        "nonexpansive": _PropertyStat("nonexpansive", 1e-12),
        "nonexpansive_dichotomy": _PropertyStat("nonexpansive_dichotomy", VI_SLACK),
        "idempotent": _PropertyStat("idempotent", 1e-12),
        "homogeneous": _PropertyStat("homogeneous", VI_SLACK),
    }
    is_ball = isinstance(s, ClosedBall)
    if is_ball:
        stats["direction_partition"] = _PropertyStat("direction_partition", VI_SLACK)
    n_z = 8
    for _ in range(trials):
        x, _ = _random_pair(s, rng)
        y, _ = _random_pair(s, rng)
        px, py = project(s, x), project(s, y)
        zs = sample_points(s, n_z, rng, include=(px,))
        wx = x - px
        stats["variational"].record(-min(inner(wx, px - z) for z in zs))
        stats["strengthened_variational"].record(
            -min(inner(wx, x - z) - inner(wx, wx) for z in zs)
        )
        stats["monotone"].record(inner(px - py, px - py) - inner(px - py, x - y))
        gap = norm(x - y) - norm(px - py)
        stats["nonexpansive"].record(-gap)
        stats["nonexpansive_dichotomy"].record(
            0.0 if gap > 0.0 else norm((px - py) - (x - y))
        )
        stats["idempotent"].record(norm(project(s, px) - px))
        xc, vc = _covered_pair(s, rng)
        base = derivative(s, xc, vc)
        if base.covered:
            lam = (0.5, 2.0, 10.0)[int(rng.integers(3))]
            scaled = derivative(s, xc, lam * vc)
            if scaled.covered:
                num = norm(scaled.value - lam * base.value)
                stats["homogeneous"].record(
                    num / max(1.0, lam * norm(base.value)) )
            else:
                stats["homogeneous"].record(float("inf"))
        else:
            stats["homogeneous"].record(float("inf"))
        if is_ball:
            xs = ball_region_point(s, "sphere", rng)
            klass = DirectionClass.UP if rng.integers(2) else DirectionClass.DOWN
            v = sphere_direction(s, xs, klass, rng, margin=1e-3)
            label = classify_direction(s, xs, v)
            worst = 0.0
            for t in (1e-4, 1e-6):
                drift = norm(xs + t * v - s.center) - s.radius
                if label is DirectionClass.UP:
                    worst = max(worst, -drift)
                else:
                    worst = max(worst, drift)
            stats["direction_partition"].record(worst)
    return [stat.report() for stat in stats.values()]
