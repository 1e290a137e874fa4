"""The three workloads: seeded inputs built with hilproj's own constructors.

``build(name, seed)`` returns the operations of one round (``verify`` is
built in ``cli_workload.py``). Every round of a run executes the same
operations in a freshly shuffled order, so the mix of kinds, and with it the
share of documented faults among the ops attempted, is identical in every
round of every run. ``Op.expect`` computes the value the output is checked
against from ``reference`` (or states the property the output must have);
it is called once per run, outside the timed region.

Multiplicities (the ``mult`` argument of ``Round.add``) and input sizes set
each kind's share of a round and its spread of latencies. They keep the
median and the 99th percentile off the step between two kinds; see
bench/README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import hilproj as hp

import reference as ref

# A value agrees with the reference when every coordinate is within
# VALUE_ATOL * max(1, scale of the inputs); faults F1 and F3 are off by 1e-4
# and more, and floating-point reordering by about 1e-15.
VALUE_ATOL = 1e-9


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    expect: Callable[[], Any]
    check: Callable[[Any, Any], bool]
    fault: str | None = None
    expected: Any = None


class Round:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.ops: list[Op] = []

    def add(self, kind, call, expect, check, mult=1, fault=None):
        for _ in range(mult):
            self.ops.append(Op(kind, call, expect, check, fault))


# -- shared helpers -------------------------------------------------------------

def _arr(value) -> np.ndarray:
    """Coefficients of a HilbertPoint or of a BochnerFunction, atom-major."""
    if isinstance(value, hp.BochnerFunction):
        return np.concatenate([p.coeffs for p in value.values])
    return value.coeffs


def _close(a, b, scale=1.0) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(
        np.max(np.abs(a - b), initial=0.0) <= VALUE_ATOL * max(1.0, scale)
    )


def _unit(rng, d) -> np.ndarray:
    u = rng.standard_normal(d)
    return u / np.linalg.norm(u)


def _check_derivative(result, expected) -> bool:
    """Covered results must equal the reference; uncovered ones are allowed."""
    value, scale, bochner = expected
    if not isinstance(result, hp.DerivativeResult):
        return False
    if not result.covered:
        return result.value is None and result.case_tag == hp.NOT_COVERED_TAG
    if bochner != isinstance(result.value, hp.BochnerFunction):
        return False
    return _close(_arr(result.value), value, scale)


def _equals(result, expected) -> bool:
    return result == expected


def _space(rng, k) -> hp.DiscreteProbabilitySpace:
    w = rng.uniform(0.5, 1.5, k)
    return hp.DiscreteProbabilitySpace(tuple(f"s{i}" for i in range(k)), w / w.sum())


def _function(space, rows) -> hp.BochnerFunction:
    return hp.BochnerFunction(space, tuple(hp.HilbertPoint(r) for r in rows))


def _boundary(rng, d) -> np.ndarray:
    """Nonnegative point (d >= 2) with exact zeros in 1 to d - 1 coordinates."""
    x = rng.uniform(0.05, 2.0, d)
    n_zero = int(rng.integers(1, d))
    x[rng.choice(d, size=n_zero, replace=False)] = 0.0
    return x


def _ortho_rows(rng, k, d) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return q.T.copy()


# -- derive -------------------------------------------------------------------

# classify_point ops run twice as often as the others. Most are faster than
# the 33-40 us band of ball derivatives and inverse images that holds the
# median; the extra ops put the median low in that band. When the machine
# spends more of a run in its slow state, the median then climbs through the
# band instead of jumping over the gap above it.
CLASSIFY = 2


def _trig_inputs(rng):
    """Ball on 7 trigonometric coefficients; points from seeded functions."""
    a = rng.uniform(0.5, 1.5, 4)

    def centre(t):
        return a[0] * np.sin(t) + a[1] * np.cos(2.0 * t)

    def make(b):
        return lambda t: b[0] + b[1] * t + b[2] * np.sin(3.0 * t) + b[3] * np.cos(t)

    c = hp.trig_coefficients(centre, 7)
    pts = [hp.trig_coefficients(make(rng.uniform(-1.0, 1.0, 4)), 7) for _ in range(4)]
    return c, pts


def _derive_ball(r: Round, tag, ball, x, v, mult):
    c, rad = ball.center.coeffs, ball.radius
    r.add(tag, lambda: hp.derivative(ball, x, v),
          lambda: (ref.ball_derivative(c, rad, x.coeffs, v.coeffs),
                   float(np.max(np.abs(v.coeffs))), False),
          _check_derivative, mult)


def _sphere_direction(rng, d, up: bool, dim) -> np.ndarray:
    """Direction with <d, v> of the requested sign, well away from zero."""
    while True:
        v = rng.uniform(-2.0, 2.0, dim)
        g = float(np.dot(d, v))
        if abs(g) >= 1e-2 * np.linalg.norm(v) * np.linalg.norm(d):
            return v if (g >= 0.0) == up else -v


def _ball_cases(r: Round, rng, dim, mult):
    c = rng.uniform(-1.0, 1.0, dim)
    rad = float(rng.uniform(0.5, 2.0))
    ball = hp.ClosedBall(hp.HilbertPoint(c), rad)
    P = hp.HilbertPoint
    u = _unit(rng, dim)
    inside = P(c + rad * rng.uniform(0.0, 0.9) * u)
    outside = P(c + rad * (1.1 + rng.uniform(0.0, 2.0)) * _unit(rng, dim))
    sphere = P(c + rad * _unit(rng, dim))
    d_out, d_sph = outside.coeffs - c, sphere.coeffs - c
    name = f"d{dim}"
    # every kind takes one code path on every seed: directions have a fixed
    # sign of <x - c, v>, cone points a fixed sign pattern
    _derive_ball(r, f"derivative.ball.{name}.i_a", ball, inside, P(rng.uniform(-2, 2, dim)), mult)
    _derive_ball(r, f"derivative.ball.{name}.ii_a", ball, outside,
                 P(_sphere_direction(rng, d_out, True, dim)), mult)
    _derive_ball(r, f"derivative.ball.{name}.ii_b", ball, outside,
                 P(rng.uniform(0.5, 3.0) * d_out), mult)
    up = P(_sphere_direction(rng, d_sph, True, dim))
    down = P(_sphere_direction(rng, d_sph, False, dim))
    _derive_ball(r, f"derivative.ball.{name}.iii_a", ball, sphere, up, mult)
    _derive_ball(r, f"derivative.ball.{name}.iii_b", ball, sphere,
                 P(rng.uniform(0.5, 3.0) * d_sph), mult)
    _derive_ball(r, f"derivative.ball.{name}.iii_c", ball, sphere, down, mult)
    for label, v in (("up", up), ("down", down)):
        r.add(f"classify_direction.{name}.{label}",
              lambda v=v: hp.classify_direction(ball, sphere, v).value,
              lambda v=v: ref.direction_class(c, rad, sphere.coeffs, v.coeffs),
              _equals, mult)
    for label, y in (("internal", inside), ("cuticle", sphere)):
        r.add(f"classify_point.ball.{name}.{label}",
              lambda y=y: hp.classify_point(ball, y).value,
              lambda y=y: ref.ball_point_class(c, rad, y.coeffs), _equals, CLASSIFY * mult)
    on_ray = P(sphere.coeffs + rng.uniform(0.1, 2.0) * d_sph)
    tangent = _sphere_direction(rng, d_sph, True, dim)
    tangent = tangent - (np.dot(tangent, d_sph) / rad**2) * d_sph
    off_ray = P(on_ray.coeffs + 0.5 * tangent / np.linalg.norm(tangent))
    for label, x in (("member", on_ray), ("nonmember", off_ray)):
        r.add(f"in_inverse_image.ball.{name}.{label}",
              lambda x=x: hp.in_inverse_image(ball, sphere, x),
              lambda x=x: ref.ball_inverse_member(c, rad, sphere.coeffs, x.coeffs),
              _equals, mult)


def _derive_cone(r: Round, tag, s, x, v, mult):
    r.add(tag, lambda: hp.derivative(s, x, v),
          lambda: (ref.cone_derivative(_arr(x), _arr(v)),
                   float(np.max(np.abs(_arr(v)))), isinstance(x, hp.BochnerFunction)),
          _check_derivative, mult)


def _cone_directions(rng, x_rows):
    """(tag, x, v) arrays shaped like x_rows, one pair per cone case region."""
    shape = x_rows.shape
    x_b = _boundary(rng, x_rows.size).reshape(shape)
    x_lem = _boundary(rng, x_rows.size).reshape(shape)
    v_lem = rng.uniform(-2.0, 2.0, shape) * (x_lem > 0.0)
    v_lem.flat[np.flatnonzero(x_lem)[0]] = -1.0  # not in the cone, so not Thm5.1(i)
    x_mix = rng.uniform(-2.0, 2.0, shape)
    x_mix.flat[:2] = (-1.0, 1.0)
    lam = rng.uniform(0.5, 3.0) * (1.0 if rng.integers(2) else -1.0)
    x_unc = _boundary(rng, x_rows.size).reshape(shape)
    v_unc = rng.uniform(-2.0, 2.0, shape)
    v_unc[x_unc == 0.0] = -rng.uniform(0.05, 2.0, int(np.sum(x_unc == 0.0)))
    v_mixed = rng.uniform(-2.0, 2.0, shape)
    v_mixed.flat[:2] = (1.0, -1.0)
    return [
        ("Thm5.1_i", x_b, rng.uniform(0.0, 2.0, shape)),
        ("Thm5.1_ii", -rng.uniform(0.0, 2.0, shape), -rng.uniform(0.0, 2.0, shape)),
        ("Thm5.1_iii", rng.uniform(0.05, 2.0, shape), v_mixed),
        ("Lem3.1", x_lem, v_lem),
        ("Prop3.1", x_mix, lam * np.minimum(x_mix, 0.0)),
        ("Prop3.2", -rng.uniform(0.05, 2.0, shape), v_mixed.copy()),
        ("uncovered", x_unc, v_unc),
    ]


def _cone_cases(r: Round, rng, dim, mult):
    s = hp.PositiveCone(dim)
    P = hp.HilbertPoint
    for tag, x, v in _cone_directions(rng, np.zeros(dim)):
        _derive_cone(r, f"derivative.cone.d{dim}.{tag}", s, P(x), P(v), mult)
    y_int = P(rng.uniform(0.05, 2.0, dim))
    y_bd = P(_boundary(rng, dim))
    for label, y in (("internal", y_int), ("cuticle", y_bd)):
        r.add(f"classify_point.cone.d{dim}.{label}",
              lambda y=y: hp.classify_point(s, y).value,
              lambda y=y: ref.cone_point_class(y.coeffs), _equals, CLASSIFY * mult)
    x_in = np.where(y_bd.coeffs > 0.0, y_bd.coeffs, -rng.uniform(0.0, 2.0, dim))
    x_out = x_in.copy()
    x_out[np.argmin(y_bd.coeffs)] = 0.5
    for label, x in (("member", P(x_in)), ("nonmember", P(x_out))):
        r.add(f"in_inverse_image.cone.d{dim}.{label}",
              lambda x=x: hp.in_inverse_image(s, y_bd, x),
              lambda x=x: ref.cone_inverse_member(y_bd.coeffs, x.coeffs), _equals, mult)


def _span_cases(r: Round, rng, dim, mult):
    k = max(1, dim // 2)
    gens = _ortho_rows(rng, k, dim)
    s = hp.SubspaceSpan(tuple(hp.HilbertPoint(g) for g in gens))
    P = hp.HilbertPoint
    x_in = rng.uniform(-2.0, 2.0, k) @ gens
    normal = rng.standard_normal(dim)
    normal -= ref.span_project(gens, normal)
    normal /= np.linalg.norm(normal)
    x_out = x_in + rng.uniform(0.5, 2.0) * normal
    cases = [
        ("Lem3.1", x_in, rng.uniform(-2.0, 2.0, k) @ gens),
        ("Prop3.1", x_out, rng.uniform(0.5, 3.0) * (x_out - ref.span_project(gens, x_out))),
        ("uncovered", x_in, rng.uniform(-2.0, 2.0, k) @ gens + normal),
    ]
    for tag, x, v in cases:
        r.add(f"derivative.span.d{dim}.{tag}",
              lambda x=P(x), v=P(v): hp.derivative(s, x, v),
              lambda v=v: (ref.span_derivative(gens, v), float(np.max(np.abs(v))), False),
              _check_derivative, mult)
    r.add(f"classify_point.span.d{dim}",
          lambda y=P(x_in): hp.classify_point(s, y).value,
          lambda: "Internal" if k == dim else "Cuticle", _equals, CLASSIFY * mult)
    y = P(x_in)
    for label, x in (("member", x_in + normal), ("nonmember", x_in + normal + gens[0])):
        r.add(f"in_inverse_image.span.d{dim}.{label}",
              lambda x=P(x): hp.in_inverse_image(s, y, x),
              lambda x=x: ref.span_inverse_member(gens, x_in, x), _equals, mult)


def _degenerate_span_cases(r: Round, rng, dim, mult):
    """Full span (Prop3.3) and the singleton {theta} (Lem3.2)."""
    P = hp.HilbertPoint
    full = hp.SubspaceSpan(tuple(P(g) for g in _ortho_rows(rng, dim, dim)))
    single = hp.SubspaceSpan((), ambient_dim=dim)
    for tag, s, target in (("Prop3.3", full, lambda v: v), ("Lem3.2", single, np.zeros_like)):
        x, v = rng.uniform(-2.0, 2.0, dim), rng.uniform(-2.0, 2.0, dim)
        r.add(f"derivative.span.d{dim}.{tag}",
              lambda s=s, x=P(x), v=P(v): hp.derivative(s, x, v),
              lambda v=v, target=target: (target(v), float(np.max(np.abs(v))), False),
              _check_derivative, mult)


def _bochner_cases(r: Round, rng, mult):
    """4 atoms x 4 coordinates: cone, constants and unit-ball derivatives."""
    k, d = 4, 4
    space = _space(rng, k)
    mu = space.weights
    w = np.repeat(mu, d)
    cone = hp.BochnerPointwiseCone(space)
    consts = hp.BochnerConstantSubspace(space)
    F = lambda a: _function(space, np.asarray(a).reshape(k, d))  # noqa: E731
    for tag, x, v in _cone_directions(rng, np.zeros((k, d))):
        _derive_cone(r, f"derivative.bochner_cone.{tag}", cone, F(x), F(v), mult)
    f, h = rng.uniform(-2.0, 2.0, (k, d)), rng.uniform(-2.0, 2.0, (k, d))
    expect = lambda: (ref.constants_derivative(mu, h).ravel(),  # noqa: E731
                      float(np.max(np.abs(h))), True)
    ff, fh = F(f), F(h)
    r.add("derivative.bochner_constants.Thm7.2", lambda: hp.derivative(consts, ff, fh),
          expect, _check_derivative, mult)
    flat_f, flat_h = hp.HilbertPoint(f.ravel(), w), hp.HilbertPoint(h.ravel(), w)
    r.add("derivative.bochner_constants.flat",
          lambda: hp.derivative(consts, flat_f, flat_h),
          lambda: (expect()[0], expect()[1], False), _check_derivative, mult)
    # unit ball of L2(S; R^4), through the flattening isometry
    fn = lambda a: a / math.sqrt(float(ref.inner(a.ravel(), a.ravel(), w)))  # noqa: E731
    inside = 0.6 * fn(rng.standard_normal((k, d)))
    outside = 2.5 * fn(rng.standard_normal((k, d)))
    sphere = fn(rng.standard_normal((k, d)))
    h_rand = _sphere_direction(rng, outside.ravel() * w, True, k * d).reshape(k, d)
    h_orth = h_rand - (ref.inner(h_rand.ravel(), outside.ravel(), w)
                       / ref.inner(outside.ravel(), outside.ravel(), w)) * outside
    h_up = _sphere_direction(rng, sphere.ravel() * w, True, k * d).reshape(k, d)
    h_down = _sphere_direction(rng, sphere.ravel() * w, False, k * d).reshape(k, d)
    for tag, x, v in (("i_a", inside, h_rand), ("ii_a", outside, h_rand),
                      ("ii_b", outside, h_orth), ("ii_c", outside, 1.7 * outside),
                      ("iii_a", sphere, h_up), ("iii_c", sphere, h_down)):
        r.add(f"bochner_ball_derivative.{tag}",
              lambda x=F(x), v=F(v): hp.bochner_ball_derivative(x, v),
              lambda x=x, v=v: (ref.ball_derivative(0.0, 1.0, x.ravel(), v.ravel(), w),
                                float(np.max(np.abs(v))), True),
              _check_derivative, mult)
    y = _boundary(rng, k * d).reshape(k, d)
    y_c = np.tile(f[0], (k, 1))
    x_in = np.where(y > 0.0, y, -rng.uniform(0.0, 2.0, (k, d)))
    x_c = y_c + h - ref.constants_project(mu, h)
    fy, fy_c, fx_in, fx_c = F(y), F(y_c), F(x_in), F(x_c)
    r.add("classify_point.bochner_cone", lambda: hp.classify_point(cone, fy).value,
          lambda: ref.cone_point_class(y), _equals, CLASSIFY * mult)
    r.add("classify_point.bochner_constants", lambda: hp.classify_point(consts, fy_c).value,
          lambda: "Cuticle", _equals, CLASSIFY * mult)
    r.add("in_inverse_image.bochner_cone", lambda: hp.in_inverse_image(cone, fy, fx_in),
          lambda: ref.cone_inverse_member(y, x_in), _equals, mult)
    r.add("in_inverse_image.bochner_constants",
          lambda: hp.in_inverse_image(consts, fy_c, fx_c),
          lambda: ref.constants_inverse_member(mu, y_c, x_c), _equals, mult)


def _trig_cases(r: Round, rng, mult):
    c, pts = _trig_inputs(rng)
    gaps = [float(hp.norm(p - c)) for p in pts]
    rad = 0.5 * min(gaps)
    ball = hp.ClosedBall(c, rad)
    far = pts[int(np.argmax(gaps))]
    near = pts[int(np.argmin(gaps))]
    inside = c + 0.25 * (near - c)
    sphere = c + (rad / hp.norm(far - c)) * (far - c)
    d = (sphere - c).coeffs
    v = pts[1] - pts[2]
    v = v if float(np.dot((far - c).coeffs, v.coeffs)) > 0.0 else -1.0 * v
    up = v if float(np.dot(d, v.coeffs)) >= 0.0 else -1.0 * v
    down = -1.0 * up
    for tag, x, direction in (("i_a", inside, v), ("ii_a", far, v),
                              ("iii_a", sphere, up), ("iii_c", sphere, down)):
        _derive_ball(r, f"derivative.ball.trig7.{tag}", ball, x, direction, mult)


def _faults(r: Round):
    """F1-F3: fixed inputs, independent of the seed, that fail at the seed commit.

    F1: the Lem3.1 containment probe accepts a small outward component.
    F2: the absolute sphere band rejects exactly normalised sphere points of
        a radius-1e9 ball.
    F3: the same band puts a point at 50 r of a radius-1e-14 ball on the
        sphere instead of in Thm 4.1(ii).
    """
    P = hp.HilbertPoint
    cone2 = hp.PositiveCone(2)
    x, v = P([1.0, 0.0]), P([1.0, -1e-4])
    r.add("F1.cone", lambda: hp.derivative(cone2, x, v),
          lambda: (ref.cone_derivative(x.coeffs, v.coeffs), 1.0, False),
          _check_derivative, fault="F1")
    gens = np.eye(3)[:2]
    span = hp.SubspaceSpan(tuple(P(g) for g in gens))
    xs, vs = P([1.0, 0.5, 0.0]), P([0.3, -0.2, 5e-4])
    r.add("F1.span", lambda: hp.derivative(span, xs, vs),
          lambda: (ref.span_derivative(gens, vs.coeffs), 1.0, False),
          _check_derivative, fault="F1")
    big = hp.ClosedBall(P(np.zeros(3)), 1e9)
    for i, u in enumerate(((1.0, 2.0, 2.0), (1.0, 1.0, 1.0))):
        u = np.array(u) / np.linalg.norm(u)
        y, dv = P(1e9 * u), P(np.array([1.0, -1.0, 0.5]) * (1 - 2 * i))
        r.add(f"F2.{i}", lambda y=y, dv=dv: hp.classify_direction(big, y, dv).value,
              lambda y=y, dv=dv: ref.direction_class(np.zeros(3), 1e9, y.coeffs, dv.coeffs),
              _equals, fault="F2")
    tiny = hp.ClosedBall(P(np.zeros(2)), 1e-14)
    xt, vt = P([5e-13, 0.0]), P([0.0, 1.0])
    r.add("F3", lambda: hp.derivative(tiny, xt, vt),
          lambda: (ref.ball_derivative(np.zeros(2), 1e-14, xt.coeffs, vt.coeffs), 1.0, False),
          _check_derivative, fault="F3")


def build_derive(seed: int) -> list[Op]:
    r = Round(seed)
    for dim, mult in ((2, 2), (8, 2), (50, 1)):
        _ball_cases(r, r.rng, dim, mult)
        _cone_cases(r, r.rng, dim, mult)
        _span_cases(r, r.rng, dim, mult)
    _degenerate_span_cases(r, r.rng, 8, 1)
    _bochner_cases(r, r.rng, 1)
    _trig_cases(r, r.rng, 2)
    _span_tail(r, r.rng)
    _faults(r)
    return r.ops


def _span_tail(r: Round, rng):
    """Four more Lem3.1 calls at d = 50, on spans of 9, 12, 16 and 20 generators.

    With the span of 25 they are the slowest ops, 1.3x apart: the 99th
    percentile falls among them, and moves smoothly when the machine's speed
    drifts instead of jumping with the share of time it spends slow.
    """
    for k in (9, 12, 16, 20):
        gens = _ortho_rows(rng, k, 50)
        s = hp.SubspaceSpan(tuple(hp.HilbertPoint(g) for g in gens))
        x = hp.HilbertPoint(rng.uniform(-2.0, 2.0, k) @ gens)
        v = rng.uniform(-2.0, 2.0, k) @ gens
        r.add("derivative.span.d50.Lem3.1", lambda s=s, x=x, v=hp.HilbertPoint(v):
              hp.derivative(s, x, v),
              lambda v=v, gens=gens: (ref.span_derivative(gens, v), float(np.max(np.abs(v))),
                                      False),
              _check_derivative)


# -- bulk ---------------------------------------------------------------------

def _check_batch(result, expected) -> bool:
    """Equal to the reference, and the reference finds it in the set and fixed."""
    want, scale, contains, reproject = expected
    got = np.array([_arr(p) for p in result])
    return (_close(got, want, scale) and bool(np.all(contains(got)))
            and _close(reproject(got), got, scale))


def _check_point(result, expected) -> bool:
    (p, dist), (want, want_dist, scale, contains, reproject) = result, expected
    got = _arr(p)
    return (_close(got, want, scale) and _close(dist, want_dist, scale)
            and bool(contains(got)) and _close(reproject(got), got, scale))


def _sizes(n: float, count: int = 10) -> list[int]:
    """count batch sizes spread evenly in log over [n / sqrt(3), n * sqrt(3)].

    A kind whose ops differ in size has latencies spread wider than the
    machine's 1.5x speed states, so its quantiles move smoothly with drift.
    """
    return [max(1, int(round(n * 3.0 ** e))) for e in np.linspace(-0.5, 0.5, count)]


def _seq(r: Round, kind, s, xs, rows, project_ref, contains, sizes):
    """project_sequence over xs[:n] for each n; rows are xs as one array."""
    for n in sizes:
        r.add(kind, lambda n=n: hp.project_sequence(s, xs[:n]),
              lambda n=n: (project_ref(rows[:n]), float(np.max(np.abs(rows[:n]))),
                           contains, project_ref),
              _check_batch)


def build_bulk(seed: int) -> list[Op]:
    r = Round(seed)
    rng = r.rng
    P = hp.HilbertPoint
    # d = 50 batches: per-point Python overhead dominates
    d = 50
    c = rng.uniform(-1.0, 1.0, d)
    rad = float(rng.uniform(2.0, 6.0))
    ball = hp.ClosedBall(P(c), rad)
    # alternately inside and outside, so every batch is half and half
    scales = np.ravel(np.column_stack([rng.uniform(0.2, 0.9, 52), rng.uniform(1.1, 2.0, 52)]))
    xb = np.array([c + t * rad * _unit(rng, d) for t in scales])
    _seq(r, "project_sequence.ball.d50", ball, [P(x) for x in xb], xb,
         lambda a: ref.ball_project(c, rad, a), lambda a: ref.ball_contains(c, rad, a),
         _sizes(60))
    xc = rng.uniform(-2.0, 2.0, (173, d))
    _seq(r, "project_sequence.cone.d50", hp.PositiveCone(d), [P(x) for x in xc], xc,
         ref.cone_project, lambda a: np.all(a >= 0.0, axis=-1), _sizes(100))
    # span of 50 generators at d = 200: a Python loop over generators
    gens = _ortho_rows(rng, 50, 200)
    span = hp.SubspaceSpan(tuple(P(g) for g in gens))
    xs = rng.uniform(-2.0, 2.0, (4, 200))
    _seq(r, "project_sequence.span.d200", span, [P(x) for x in xs], xs,
         lambda a: ref.span_project(gens, a),
         lambda a: np.all(np.abs(a - ref.span_project(gens, a)) <= 1e-9, axis=-1), _sizes(2))
    # Bochner functions on 200 atoms x 3 coordinates
    k, dd = 200, 3
    space = _space(rng, k)
    mu = space.weights
    fx = rng.uniform(-2.0, 2.0, (7, k, dd))
    fs = [_function(space, a) for a in fx]
    flat = fx.reshape(len(fx), -1)
    _seq(r, "project_sequence.bochner_cone.a200", hp.BochnerPointwiseCone(space), fs, flat,
         ref.cone_project, lambda a: np.all(a >= 0.0, axis=-1), _sizes(1.5))
    _seq(r, "project_sequence.bochner_constants.a200", hp.BochnerConstantSubspace(space), fs,
         flat, lambda a: ref.constants_project(mu, a.reshape(-1, k, dd)).reshape(len(a), -1),
         lambda a: np.all(a.reshape(-1, k, dd) == a.reshape(-1, k, dd)[:, :1], axis=(1, 2)),
         _sizes(4))
    # d = 1e5 single points: numpy kernels dominate
    n = 100_000
    c5 = rng.uniform(-1.0, 1.0, n)
    rad5 = float(rng.uniform(50.0, 100.0))
    ball5 = hp.ClosedBall(P(c5), rad5)
    x5 = P(c5 + rng.uniform(1.5, 3.0) * rad5 * _unit(rng, n))
    r.add("project_distance.ball.d1e5", lambda: (hp.project(ball5, x5), hp.distance(ball5, x5)),
          lambda: _point_expect(x5.coeffs, lambda a: ref.ball_project(c5, rad5, a),
                                lambda a: ref.ball_contains(c5, rad5, a)),
          _check_point)
    cone5 = hp.PositiveCone(n)
    y5 = P(rng.uniform(-2.0, 2.0, n))
    r.add("project_distance.cone.d1e5", lambda: (hp.project(cone5, y5), hp.distance(cone5, y5)),
          lambda: _point_expect(y5.coeffs, ref.cone_project, lambda a: np.all(a >= 0.0)),
          _check_point)
    return r.ops


def _point_expect(x, project_ref, contains):
    p = project_ref(x)
    return p, float(ref.distance(x, p)), float(np.max(np.abs(x))), contains, project_ref


def build(name: str, seed: int) -> list[Op]:
    if name == "verify":
        import cli_workload  # only the CLI workload pays for importing the CLI

        return cli_workload.build_verify(seed)
    return {"derive": build_derive, "bulk": build_bulk}[name](seed)
