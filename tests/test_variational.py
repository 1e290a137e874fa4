"""The sampled variational inequality in ``in_inverse_image``.

With ``sample_budget > 0`` the closed-form answer is confirmed by
<x - y, y - z> >= -1e-9 over sampled members z, computed as one product.
The answer must equal a loop that takes one inner product per sample, and
the verdict of ``variational_certificate``, on the same draws, for members
and non-members of every set variant.
"""

import numpy as np
import pytest

from hilproj import (
    BochnerConstantSubspace,
    BochnerPointwiseCone,
    ClosedBall,
    DiscreteProbabilitySpace,
    HilbertPoint,
    PositiveCone,
    SubspaceSpan,
    flat_weights,
    in_inverse_image,
    inner,
    project,
    sample_points,
    variational_certificate,
)
from hilproj.sets import VI_SLACK, _flat_form

SPACE = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
W = np.array([0.5, 1.0, 2.0, 1.5])
Q = np.linalg.qr(np.random.default_rng(11).standard_normal((4, 2)))[0].T
SETS = {
    "ball": ClosedBall(HilbertPoint([0.3, -0.2, 0.1, 0.4], W), 1.3),
    "cone": PositiveCone(4),
    "span": SubspaceSpan(tuple(HilbertPoint(u) for u in Q)),
    "bochner_cone": BochnerPointwiseCone(SPACE),
    "bochner_constants": BochnerConstantSubspace(SPACE),
}
# a loose tolerance lets the closed form accept near-members, so the
# sampled inequality also gets to say no
TOL = 0.05


def _point(name, s, coeffs):
    if name.startswith("bochner"):
        return HilbertPoint(coeffs, flat_weights(s.space, 2))
    return HilbertPoint(coeffs, W if name == "ball" else None)


def _loop(s, y, x, n, tol, rng):
    """One inner product per sampled point, stopping at the first violation."""
    if not in_inverse_image(s, y, x, tol=tol):
        return False
    _, fy, fx = _flat_form(s, y, x)
    w = fx - fy
    for z in sample_points(s, n, rng, include=(y,)):
        if inner(w, fy - z) < -VI_SLACK:
            return False
    return True


@pytest.mark.parametrize("name", list(SETS))
def test_sampled_check_equals_the_per_sample_loop(name):
    s = SETS[name]
    dim = 6 if name.startswith("bochner") else 4
    outcomes = set()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x0 = _point(name, s, rng.uniform(-2.0, 2.0, dim))
        y = project(s, x0)
        # a member, a nearby point, a point pushed past y into the set (the
        # closed form accepts it within TOL, the inequality does not), and a
        # far point
        for x in (x0, x0 + _point(name, s, rng.uniform(-0.01, 0.01, dim)),
                  y + 0.01 * (y - x0), x0 + _point(name, s, rng.uniform(-1.0, 1.0, dim))):
            exact = in_inverse_image(s, y, x, tol=TOL)
            for n in (1, 40):
                got = in_inverse_image(s, y, x, sample_budget=n, tol=TOL,
                                       rng=np.random.default_rng([seed, n]))
                want = _loop(s, y, x, n, TOL, np.random.default_rng([seed, n]))
                assert got == want, (seed, n)
                cert = variational_certificate(s, x, y, samples=n,
                                               rng=np.random.default_rng([seed, n]))
                assert got == (exact and cert["pass"]), (seed, n)
                outcomes.add((exact, got))
    assert outcomes == {(True, True), (True, False), (False, False)}



def test_certificate_weights_the_product_by_the_points():
    # cone samples carry no weights; the product takes the points' own
    cone = PositiveCone(2)
    x = HilbertPoint([1.0, -1.0], [1.0, 100.0])
    u = project(cone, x)
    zs = sample_points(cone, 50, np.random.default_rng(0), include=(u,))
    want = min(float(np.sum(x.weights * (x - u).coeffs * (u.coeffs - z.coeffs))) for z in zs)
    cert = variational_certificate(cone, x, u, samples=50)
    assert cert["min_inner"] == pytest.approx(want, rel=1e-12)
    plain = variational_certificate(cone, HilbertPoint([1.0, -1.0]), HilbertPoint([1.0, 0.0]),
                                    samples=50)
    assert cert["min_inner"] == pytest.approx(100.0 * plain["min_inner"], rel=1e-12)
    assert cert["min_inner"] > 1.0 and cert["pass"]
