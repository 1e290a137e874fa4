"""Scale invariance of the ball's decisions.

Scaling x - c, v and r by one factor lam maps Thm 4.1's picture onto itself:
every point keeps its place (inside, on the sphere, outside), every
direction keeps its class, projections scale by lam and derivatives by lam.
The sweep runs lam from 1e-12 to 1e12 and compares each decision with the
one at lam = 1, so a threshold that does not scale with the radius shows as
a changed tag, class or membership.
"""

import numpy as np
import pytest

from hilproj import (
    BochnerFunction,
    ClosedBall,
    DirectionClass,
    DiscreteProbabilitySpace,
    HilbertPoint,
    NotInSet,
    NotOnSphere,
    ball_inverse_ray,
    bochner_ball_derivative,
    classify_direction,
    classify_point,
    contains,
    derivative,
    in_inverse_image,
    inner,
    norm,
    project,
    project_sequence,
    property_battery,
    variational_certificate,
)

SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)
RELATIVE = 1e-12
W5 = np.array([0.5, 1.0, 2.0, 1.5, 0.8])


def _scaled(p, lam):
    return HilbertPoint(lam * p.coeffs, p.weights)


def _close(got, want, lam, size):
    """got equals lam * want within RELATIVE of lam * size."""
    assert norm(got - _scaled(want, lam)) <= RELATIVE * lam * size


def _unit_case(seed, weights):
    """(centre, radius, [(offset, v)]): offsets x - c over every region and direction kind."""
    rng = np.random.default_rng(seed)
    dim = 2 if weights is None else len(weights)
    c = HilbertPoint(rng.uniform(-1.0, 1.0, dim), weights)
    r = float(rng.uniform(0.5, 2.0))
    pairs = []
    for _ in range(12):
        u = HilbertPoint(rng.standard_normal(dim), weights)
        u = (1.0 / norm(u)) * u
        v = HilbertPoint(rng.uniform(-2.0, 2.0, dim), weights)
        for dist in (0.0, 0.3 * r, 0.9 * r, r, 1.1 * r, 3.0 * r):
            off = dist * u
            pairs += [(off, v), (off, -1.0 * v)]
            if dist > 0.0:
                # radial directions: parallel to x - c, outward and inward
                pairs += [(off, 0.7 * off), (off, -0.7 * off)]
    return c, r, pairs


CASES = [_unit_case(0, None), _unit_case(1, W5)]


def _at(case, lam):
    """The case scaled by lam: the ball, then (x, v) pairs with x - c and v scaled."""
    c, r, pairs = CASES[case]
    centre = _scaled(c, lam)
    return ClosedBall(centre, lam * r), [(centre + _scaled(off, lam), _scaled(v, lam))
                                         for off, v in pairs]


@pytest.mark.parametrize("lam", SCALES)
@pytest.mark.parametrize("case", range(len(CASES)))
def test_ball_derivative_tags_and_values_scale(case, lam):
    unit, base_pairs = _at(case, 1.0)
    ball, pairs = _at(case, lam)
    tags = set()
    for (x1, v1), (x, v) in zip(base_pairs, pairs):
        base = derivative(unit, x1, v1)
        got = derivative(ball, x, v)
        assert got.case_tag == base.case_tag, (x1, v1)
        _close(got.value, base.value, lam, max(norm(base.value), norm(v1)))
        tags.add(base.case_tag)
    assert len(tags) == 6


@pytest.mark.parametrize("lam", SCALES)
@pytest.mark.parametrize("case", range(len(CASES)))
def test_ball_membership_and_classes_scale(case, lam):
    unit, base_pairs = _at(case, 1.0)
    ball, pairs = _at(case, lam)
    on_sphere = 0
    for (x1, v1), (x, v) in zip(base_pairs, pairs):
        assert contains(ball, x) == contains(unit, x1)
        if contains(unit, x1):
            assert classify_point(ball, x) is classify_point(unit, x1)
        else:
            with pytest.raises(NotInSet):
                classify_point(ball, x)
        try:
            want = classify_direction(unit, x1, v1)
        except NotOnSphere:
            with pytest.raises(NotOnSphere):
                classify_direction(ball, x, v)
        else:
            assert classify_direction(ball, x, v) is want
            on_sphere += 1
    assert on_sphere == 48


@pytest.mark.parametrize("lam", SCALES)
@pytest.mark.parametrize("case", range(len(CASES)))
def test_ball_projection_scales_and_batches_bitwise(case, lam):
    c, r, pairs = CASES[case]
    u = pairs[-1][0]
    # inside the identity band beyond the sphere, and just past it
    offsets = [off for off, _ in pairs] + [(s * r / norm(u)) * u for s in (1.0 + 5e-13, 1.0 + 1e-11)]
    unit, ball = ClosedBall(c, r), ClosedBall(_scaled(c, lam), lam * r)
    base = [c + off for off in offsets]
    xs = [ball.center + _scaled(off, lam) for off in offsets]
    batch = project_sequence(ball, xs)
    for x1, x, got in zip(base, xs, batch):
        want = project(ball, x)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert (want is x) == (project(unit, x1) is x1)
        _close(want - ball.center, project(unit, x1) - c, lam, r)


@pytest.mark.parametrize("lam", SCALES)
@pytest.mark.parametrize("case", range(len(CASES)))
def test_inverse_ray_points_are_recognised(case, lam):
    c, r, _ = CASES[case]
    ball = ClosedBall(_scaled(c, lam), lam * r)
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = HilbertPoint(rng.standard_normal(c.dim), c.weights)
        y = ball.center + (ball.radius / norm(g)) * g
        x = ball_inverse_ray(ball, y, float(rng.uniform(0.0, 3.0)))
        assert in_inverse_image(ball, y, x)
        # a sideways step of 1e-3 r leaves the ray, and leaves {y} inside
        side = HilbertPoint(rng.standard_normal(c.dim), c.weights)
        side = side - (inner(side, g) / inner(g, g)) * g
        step = (1e-3 * ball.radius / norm(side)) * side
        assert not in_inverse_image(ball, y, x + step)
        inside = ball.center + 0.5 * (y - ball.center)
        assert in_inverse_image(ball, inside, inside)
        assert not in_inverse_image(ball, inside, inside + step)


SPACE = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))


def _function(rows):
    return BochnerFunction(SPACE, tuple(HilbertPoint(row) for row in rows))


def _bochner_pairs():
    """(f, h) on and off the unit ball of L2(S; R^2), h generic or orthogonal to f."""
    rng = np.random.default_rng(3)
    pairs = []
    for _ in range(10):
        g = rng.standard_normal((3, 2))
        g = g / np.sqrt(SPACE.weights @ np.sum(g * g, axis=1))
        h = rng.uniform(-2.0, 2.0, (3, 2))
        # orthogonal to f within the tolerance, with <f, h> safely positive
        ortho = h - (SPACE.weights @ np.sum(g * h, axis=1) - 1e-12) * g
        for dist in (0.5, 1.0, 2.0):
            pairs += [(_function(dist * g), _function(h)), (_function(dist * g), _function(ortho))]
    return pairs


@pytest.mark.parametrize("lam", SCALES)
def test_bochner_ball_derivative_is_homogeneous_in_h(lam):
    tags = set()
    for f, h in _bochner_pairs():
        base = bochner_ball_derivative(f, h)
        got = bochner_ball_derivative(f, _function([lam * v.coeffs for v in h.values]))
        assert got.case_tag == base.case_tag
        for a, b in zip(got.value.values, base.value.values):
            assert np.max(np.abs(a.coeffs - lam * b.coeffs)) <= RELATIVE * lam * 10.0
        tags.add(base.case_tag)
    assert len(tags) == 6


def test_radius_1e9_sphere_points_keep_their_direction_class():
    # normalised sphere points whose norms are off by one and two ulps of r
    big = ClosedBall(HilbertPoint(np.zeros(3)), 1e9)
    for i, u in enumerate(((1.0, 2.0, 2.0), (1.0, 1.0, 1.0))):
        y = HilbertPoint(1e9 * (np.array(u) / np.linalg.norm(u)))
        v = HilbertPoint(np.array([1.0, -1.0, 0.5]) * (1 - 2 * i))
        want = DirectionClass.UP if float(y.coeffs @ v.coeffs) >= 0.0 else DirectionClass.DOWN
        assert classify_direction(big, y, v) is want
        assert in_inverse_image(big, y, ball_inverse_ray(big, y, 0.5))


def test_radius_1e_14_ball_places_a_point_50_radii_out_outside():
    tiny = ClosedBall(HilbertPoint(np.zeros(2)), 1e-14)
    x, v = HilbertPoint([5e-13, 0.0]), HilbertPoint([0.0, 1.0])
    got = derivative(tiny, x, v)
    assert got.case_tag == "Thm4.1(ii)(a)"
    assert np.allclose(got.value.coeffs, [0.0, 0.02], rtol=1e-12, atol=0.0)
    assert not contains(tiny, x)
    assert project(tiny, x) is not x


@pytest.mark.parametrize("r", (1e-12, 1e-6, 1e-3, 1.0, 1e6, 1e12))
def test_property_battery_is_clean_at_every_radius(r):
    ball = ClosedBall(HilbertPoint(r * np.array([0.3, -0.2, 0.1, 0.4, -0.5]), W5), r)
    reports = property_battery(ball, 200, seed=7)
    assert len(reports) == 8
    assert [rep["property"] for rep in reports if rep["failures"]] == []


@pytest.mark.parametrize("lam", SCALES)
def test_sampled_variational_verdicts_scale(lam):
    ball = ClosedBall(HilbertPoint(np.zeros(3)), lam)
    x = HilbertPoint(lam * np.array([2.0, 0.0, 0.0]))
    y = HilbertPoint(lam * np.array([0.6, 0.8, 0.0]))  # on the sphere, not P(x)
    assert variational_certificate(ball, x, project(ball, x))["pass"]
    assert not variational_certificate(ball, x, y)["pass"]
    # 0.3 r off the ray through y: inside the loose band of the exact test,
    # but the sampled inequality sees that y is not its image
    near = HilbertPoint(lam * np.array([1.14, 1.02, 0.0]))
    assert in_inverse_image(ball, y, near, tol=0.5)
    assert not in_inverse_image(ball, y, near, sample_budget=200, tol=0.5)


def _tangent_pairs(n):
    """n sphere points in R^3 with a direction orthogonal to x - c, unit-sized."""
    rng = np.random.default_rng(15)
    for _ in range(n):
        c, r = rng.uniform(-1.0, 1.0, 3), float(rng.uniform(0.5, 2.0))
        u = rng.standard_normal(3)
        d = r * u / np.linalg.norm(u)
        g = rng.standard_normal(3)
        v = g - (g @ d) / (d @ d) * d
        yield ClosedBall(HilbertPoint(c), r), HilbertPoint(c + d), v / np.linalg.norm(v)


def test_tangent_direction_tag_does_not_depend_on_its_scale():
    # <x - c, v> of a tangent v is rounding noise, within tol r ||v|| of 0: a tie is Up
    for ball, x, v in _tangent_pairs(200):
        tags, classes = set(), set()
        for mu in 10.0 ** np.arange(-12, 13, 3):
            w = HilbertPoint(mu * v)
            tags.add(derivative(ball, x, w).case_tag)
            classes.add(classify_direction(ball, x, w))
        assert tags == {"Thm4.1(iii)(a)"}
        assert classes == {DirectionClass.UP}
