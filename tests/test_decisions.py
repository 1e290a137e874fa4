"""Every threshold decision at its band edges, pinned by one SHA-256.

The library's answers turn on threshold tests: inside, on or outside a
ball's sphere (the band tol r), Up or Down at a sphere point (the tangent band
tol r ||v||), a cone coordinate against +-tol, a span or constants residual
against tol, and, on the unit ball of L2(S; H), <f, h> against tol ||h||.
This sweep places points and directions on and next to each edge, at radii
from 1e-8 to 1e8, and records every outcome: a result's type and value bytes,
or an exception's type and text. One digest pins them all, so a change to how
the decisions are made that moves any outcome shows here.
"""

import hashlib
import warnings

import numpy as np

from hilproj import (
    BochnerConstantSubspace,
    BochnerFunction,
    BochnerPointwiseCone,
    ClosedBall,
    DerivativeResult,
    DiscreteProbabilitySpace,
    HilbertPoint,
    PositiveCone,
    SubspaceSpan,
    bochner_ball_derivative,
    classify_direction,
    classify_point,
    contains,
    derivative,
    dual_cone_contains,
    generic_facts_derivative,
    in_inverse_image,
    unflatten,
)

TOLS = (1e-9, 1e-6, 0.0)
RADII = (1e-8, 1e-4, 1.0, 1e4, 1e8)


def _bytes(out) -> bytes:
    if isinstance(out, DerivativeResult):
        return b"R%d|%s|%s" % (out.covered, out.case_tag.encode(), _bytes(out.value))
    if isinstance(out, HilbertPoint):
        w = b"" if out.weights is None else out.weights.tobytes()
        return b"P" + out.coeffs.tobytes() + b"|" + w
    if isinstance(out, BochnerFunction):
        return b"F%d|" % out.point_dim + out.array.tobytes()
    return f"{type(out).__name__}:{out!r}".encode()


def _outcome(call, *args) -> bytes:
    try:
        out = call(*args)
    except Exception as e:  # noqa: BLE001 - the type and text are the outcome
        return f"!{type(e).__name__}:{e}".encode()
    return _bytes(out)


def _unit(rng, dim, w):
    u = rng.standard_normal(dim)
    return u / np.sqrt(np.dot(u if w is None else w * u, u))


def _ball_outcomes(rng):
    for r in RADII:
        for dim, weighted in ((2, False), (3, True)):
            w = rng.uniform(0.5, 2.0, dim) if weighted else None
            c = r * rng.uniform(-1.0, 1.0, dim)
            ball = ClosedBall(HilbertPoint(c, w), r)
            u = _unit(rng, dim, w)
            t = rng.standard_normal(dim)
            t -= np.dot(t if w is None else w * t, u) * u  # t orthogonal to u
            t /= np.sqrt(np.dot(t if w is None else w * t, t))
            for tol in TOLS[::2]:
                for eps in (0.0, tol, -tol, 2 * tol, -2 * tol, 1e-15, -1e-15, 1e-12, 1.0, -0.5):
                    x = HilbertPoint(c + r * (1.0 + eps) * u, w)
                    yield _outcome(contains, ball, x, tol)
                    yield _outcome(classify_point, ball, x, tol)
                    for s in (0.0, tol, -tol, tol * r, -tol * r, 1e-12, -1e-12, 1.0, -1.0):
                        for tt in (1.0, 0.0):
                            v = HilbertPoint(tt * t + s * u, w)
                            yield _outcome(classify_direction, ball, x, v, tol)
                            yield _outcome(derivative, ball, x, v, tol)
                            yield _outcome(generic_facts_derivative, ball, x, v, tol)


_CONE_VALUES = (0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-12, -1e-12, 1.0, -1.0, 2e-9, -2e-9)


def _cone_outcomes(rng):
    cone, bcone = PositiveCone(3), BochnerPointwiseCone(DiscreteProbabilitySpace(("a",), [1.0]))
    for _ in range(200):
        x = HilbertPoint(rng.choice(_CONE_VALUES, 3))
        v = HilbertPoint(rng.choice(_CONE_VALUES, 3))
        for tol in TOLS:
            yield _outcome(contains, cone, x, tol)
            yield _outcome(dual_cone_contains, cone, x, tol)
            yield _outcome(classify_point, cone, x, tol)
            yield _outcome(derivative, cone, x, v, tol)
            yield _outcome(generic_facts_derivative, cone, x, v, tol)
            yield _outcome(in_inverse_image, cone, x, v, 0, tol)
            yield _outcome(derivative, bcone, x, v, tol)


_OFFSETS = (0.0, 1e-9, -1e-9, 2e-9, 1e-6, 1e-15, 1.0)


def _span_outcomes(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    spans = (SubspaceSpan((), ambient_dim=3), SubspaceSpan((HilbertPoint(q[:, 0]),)),
             SubspaceSpan((HilbertPoint(q[:, 0]), HilbertPoint(q[:, 1]))),
             SubspaceSpan(tuple(HilbertPoint(q[:, i]) for i in range(3))))
    normal = q[:, 2]
    for s in spans:
        for _ in range(5):
            inside = rng.standard_normal(s.n_generators) @ s._basis if s.n_generators else np.zeros(3)
            along = rng.standard_normal(s.n_generators) @ s._basis if s.n_generators else np.zeros(3)
            for tol in TOLS[::2]:
                for a in _OFFSETS:
                    x = HilbertPoint(inside + a * normal)
                    yield _outcome(contains, s, x, tol)
                    yield _outcome(classify_point, s, x, tol)
                    for b in _OFFSETS:
                        v = HilbertPoint(along + b * normal)
                        yield _outcome(derivative, s, x, v, tol)
                        yield _outcome(generic_facts_derivative, s, x, v, tol)


def _constants_outcomes(rng):
    for space in (DiscreteProbabilitySpace(("a",), [1.0]),
                  DiscreteProbabilitySpace(("a", "b", "c"), [0.2, 0.3, 0.5])):
        s, k = BochnerConstantSubspace(space), space.n_atoms
        spread = rng.standard_normal((k, 2))
        spread -= space.weights @ spread  # mean zero: off the constants
        for _ in range(10):
            const = np.tile(rng.standard_normal(2), (k, 1))
            for tol in TOLS:
                for a in _OFFSETS:
                    f = BochnerFunction(space, [HilbertPoint(row) for row in const + a * spread])
                    h = BochnerFunction(space, [HilbertPoint(row) for row in rng.standard_normal((k, 2))])
                    yield _outcome(contains, s, f, tol)
                    yield _outcome(classify_point, s, f, tol)
                    yield _outcome(derivative, s, f, h, tol)
                    yield _outcome(generic_facts_derivative, s, f, h, tol)


def _bochner_ball_outcomes(rng):
    space = DiscreteProbabilitySpace(("a", "b", "c"), [0.25, 0.25, 0.5])
    w = np.repeat(space.weights, 2)
    for _ in range(10):
        u = _unit(rng, 6, w)
        t = rng.standard_normal(6)
        t -= np.dot(w * t, u) * u
        t /= np.sqrt(np.dot(w * t, t))
        for tol in TOLS:
            for eps in (0.0, tol, -tol, 2 * tol, 1e-15, 0.5, -0.5):
                f = unflatten(space, HilbertPoint((1.0 + eps) * u, w))
                for s in (0.0, 1e-9, -1e-9, 2e-9, -2e-9, 1e-12, 1.0, -1.0):
                    for tt in (1.0, 0.0):
                        h = unflatten(space, HilbertPoint(tt * t + s * u, w))
                        yield _outcome(bochner_ball_derivative, f, h, tol)


def _overflow_outcomes(rng):
    """Directions whose norm overflows, so the tangent band tol r ||v|| is inf, or nan at tol = 0."""
    ball = ClosedBall(HilbertPoint([0.0, 0.0]), 1.0)
    space = DiscreteProbabilitySpace(("a", "b"), [0.5, 0.5])
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for tol in TOLS:
            for x in ([1.0, 0.0], [0.5, 0.0], [2.0, 0.0], [0.0, 1.0 + tol]):
                x = HilbertPoint(x)
                for v in ([0.0, 1e300], [1e-300, 1e300], [-1e-300, 1e300], [1e300, 1e300],
                          [-1e300, 1e300], [1e300, 0.0], [-1e300, 0.0], [1e300, -1e300]):
                    v = HilbertPoint(v)
                    out.append(_outcome(classify_direction, ball, x, v, tol))
                    out.append(_outcome(derivative, ball, x, v, tol))
                    out.append(_outcome(generic_facts_derivative, ball, x, v, tol))
                    f, h = (unflatten(space, HilbertPoint(np.tile(p.coeffs, 2), np.full(4, 0.5)))
                            for p in (x, v))
                    out.append(_outcome(bochner_ball_derivative, f, h, tol))
    return out


def _digest() -> tuple:
    rng = np.random.default_rng(20231)
    digest, n = hashlib.sha256(), 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the same outcomes with and without -W error
        for sweep in (_ball_outcomes, _cone_outcomes, _span_outcomes, _constants_outcomes,
                      _bochner_ball_outcomes, _overflow_outcomes):
            for out in sweep(rng):
                digest.update(out + b"\n")
                n += 1
    return n, digest.hexdigest()


def test_every_band_edge_outcome_is_pinned():
    assert _digest() == (25304, "0c011979761cbf85f1ced35509023e4108a094c9cbfbbef77168e7d25d105280")
