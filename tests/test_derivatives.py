"""Closed-form directional derivatives, case tags, and oracle agreement."""

import numpy as np
import pytest

from hilproj import (
    NOT_COVERED_TAG,
    BochnerConstantSubspace,
    BochnerFunction,
    BochnerPointwiseCone,
    ClosedBall,
    DerivativeResult,
    DimensionMismatch,
    DirectionClass,
    DiscreteProbabilitySpace,
    HilbertPoint,
    NotCovered,
    NotOnSphere,
    PositiveCone,
    SubspaceSpan,
    ZeroDirection,
    ball_derivative,
    bochner_ball_derivative,
    bochner_inner,
    bochner_norm,
    classify_direction,
    cone_derivative,
    constant_function,
    constants_subspace_derivative,
    derivative,
    expectation,
    generic_facts_derivative,
    homogeneity_check,
    inner,
    norm,
    project,
    project_constants,
)


def pt(*coeffs, weights=None):
    return HilbertPoint(np.array(coeffs, dtype=float),
                        None if weights is None else np.array(weights, dtype=float))


UNIT_BALL = ClosedBall(pt(0.0, 0.0), 1.0)
K2 = PositiveCone(2)


def quotient(s, x, v, t):
    return (1.0 / t) * (project(s, x + t * v) - project(s, x))


def richardson(s, x, v):
    # one-sided quotients are L + c t + O(t^2); eliminate the c t term
    q3 = quotient(s, x, v, 1e-3)
    q4 = quotient(s, x, v, 1e-4)
    q5 = quotient(s, x, v, 1e-5)
    first = (1.0 / 9.0) * (10.0 * q4 - q3)
    second = (1.0 / 9.0) * (10.0 * q5 - q4)
    return second, norm(second - first)


def test_derivative_result_shape():
    with pytest.raises(ValueError):
        DerivativeResult(covered=False, case_tag="x", value=pt(1.0))
    with pytest.raises(ValueError):
        DerivativeResult(covered=True, case_tag="x", value=None)


def test_classify_direction_golden():
    x = pt(1.0, 0.0)
    assert classify_direction(UNIT_BALL, x, pt(1.0, 0.0)) is DirectionClass.UP
    assert classify_direction(UNIT_BALL, x, pt(-1.0, 0.0)) is DirectionClass.DOWN
    # ||x+tv||^2 = 1+t^2 >= 1 for all t, so the tangent counts as Up
    assert classify_direction(UNIT_BALL, x, pt(0.0, 1.0)) is DirectionClass.UP


def test_classify_direction_errors():
    with pytest.raises(NotOnSphere):
        classify_direction(UNIT_BALL, pt(0.5, 0.0), pt(1.0, 0.0))
    with pytest.raises(ZeroDirection):
        classify_direction(UNIT_BALL, pt(1.0, 0.0), pt(0.0, 0.0))


def test_direction_partition_matches_small_t_sampling():
    # the sign of ||x+tv-c|| - r at small t agrees with the label
    rng = np.random.default_rng(31)
    ball = ClosedBall(pt(0.5, -1.0, 2.0), 1.5)
    n = 0
    while n < 1000:
        d = rng.standard_normal(3)
        d = ball.radius * d / np.linalg.norm(d)
        x = ball.center + HilbertPoint(d)
        v = HilbertPoint(rng.standard_normal(3))
        if abs(inner(x - ball.center, v)) < 1e-3 * norm(v):
            continue  # keep the radial component away from the t^2 term
        n += 1
        label = classify_direction(ball, x, v)
        for t in (1e-4, 1e-6):
            gap = norm(x + t * v - ball.center) - ball.radius
            if label is DirectionClass.UP:
                assert gap >= -1e-12
            else:
                assert gap < 1e-12


def test_ball_derivative_interior():
    res = ball_derivative(UNIT_BALL, pt(0.5, 0.0), pt(-3.0, 7.0))
    assert res.covered and res.case_tag == "Thm4.1(i)(a)"
    assert np.allclose(res.value.coeffs, [-3.0, 7.0])


def test_ball_derivative_exterior():
    res = ball_derivative(UNIT_BALL, pt(2.0, 0.0), pt(0.0, 1.0))
    assert res.case_tag == "Thm4.1(ii)(a)"
    assert np.allclose(res.value.coeffs, [0.0, 0.5])
    res = ball_derivative(UNIT_BALL, pt(2.0, 0.0), pt(2.0, 0.0))
    assert res.case_tag == "Thm4.1(ii)(b)"
    assert np.allclose(res.value.coeffs, [0.0, 0.0])


def test_ball_derivative_sphere():
    res = ball_derivative(UNIT_BALL, pt(1.0, 0.0), pt(1.0, 1.0))
    assert res.case_tag == "Thm4.1(iii)(a)"
    assert np.allclose(res.value.coeffs, [0.0, 1.0])
    res = ball_derivative(UNIT_BALL, pt(1.0, 0.0), pt(2.0, 0.0))
    assert res.case_tag == "Thm4.1(iii)(b)"
    assert np.allclose(res.value.coeffs, [0.0, 0.0])
    res = ball_derivative(UNIT_BALL, pt(1.0, 0.0), pt(-1.0, 0.3))
    assert res.case_tag == "Thm4.1(iii)(c)"
    assert np.allclose(res.value.coeffs, [-1.0, 0.3])


def test_ball_derivative_errors():
    with pytest.raises(ZeroDirection):
        ball_derivative(UNIT_BALL, pt(2.0, 0.0), pt(0.0, 0.0))
    with pytest.raises(DimensionMismatch):
        ball_derivative(UNIT_BALL, pt(2.0, 0.0, 0.0), pt(1.0, 0.0, 0.0))


def test_cone_derivative_golden():
    res = cone_derivative(K2, pt(1.0, 2.0), pt(3.0, 0.0))
    assert res.case_tag == "Thm5.1(i)" and np.allclose(res.value.coeffs, [3.0, 0.0])
    res = cone_derivative(K2, pt(-1.0, -1.0), pt(-2.0, 0.0))
    assert res.case_tag == "Thm5.1(ii)" and np.allclose(res.value.coeffs, [0.0, 0.0])
    res = cone_derivative(K2, pt(1.0, 1.0), pt(-5.0, 7.0))
    assert res.case_tag == "Thm5.1(iii)" and np.allclose(res.value.coeffs, [-5.0, 7.0])
    res = cone_derivative(K2, pt(1.0, 0.0), pt(0.0, -1.0))
    assert not res.covered and res.case_tag == NOT_COVERED_TAG and res.value is None


def test_constants_subspace_derivative_golden():
    sp = DiscreteProbabilitySpace(("s1", "s2"), np.array([0.5, 0.5]))
    f = BochnerFunction(sp, (pt(9.0, 9.0), pt(-1.0, 0.0)))
    h = BochnerFunction(sp, (pt(1.0, 0.0), pt(0.0, 1.0)))
    res = constants_subspace_derivative(sp, f, h)
    assert res.covered and res.case_tag == "Thm7.2"
    for v in res.value.values:
        assert np.allclose(v.coeffs, [0.5, 0.5])
    hc = constant_function(sp, pt(2.0, -3.0))
    res = constants_subspace_derivative(sp, f, hc)
    for v in res.value.values:
        assert np.allclose(v.coeffs, [2.0, -3.0])


def test_constants_subspace_derivative_matches_quotient():
    # the projection is affine, so the one-sided quotient is exact
    rng = np.random.default_rng(32)
    sp = DiscreteProbabilitySpace(tuple(f"s{i}" for i in range(5)),
                                  np.array([0.1, 0.2, 0.3, 0.25, 0.15]))
    f = BochnerFunction(sp, tuple(HilbertPoint(rng.standard_normal(3)) for _ in range(5)))
    h = BochnerFunction(sp, tuple(HilbertPoint(rng.standard_normal(3)) for _ in range(5)))
    res = constants_subspace_derivative(sp, f, h)
    for t, tol in ((1e-6, 1e-9), (0.5, 1e-12)):
        shifted = BochnerFunction(sp, tuple(a + t * b for a, b in zip(f.values, h.values)))
        q = [(1.0 / t) * (a - b).coeffs
             for a, b in zip(project_constants(shifted).values, project_constants(f).values)]
        for qa, va in zip(q, res.value.values):
            assert np.max(np.abs(qa - va.coeffs)) <= tol


def test_bochner_ball_derivative_golden():
    sp = DiscreteProbabilitySpace(("s1", "s2"), np.array([0.5, 0.5]))
    h = BochnerFunction(sp, (pt(1.0, 0.0), pt(0.0, 1.0)))
    inside = BochnerFunction(sp, (pt(0.5, 0.0), pt(0.0, 0.5)))
    res = bochner_ball_derivative(inside, h)
    assert res.case_tag == "Prop7.1(i)(a)"
    assert all(np.allclose(a.coeffs, b.coeffs) for a, b in zip(res.value.values, h.values))

    # ||f|| = 2, <f,h> = 0 pointwise
    f = BochnerFunction(sp, (pt(0.0, 2.0), pt(-2.0, 0.0)))
    assert bochner_norm(f) == pytest.approx(2.0, abs=1e-15)
    assert abs(bochner_inner(f, h)) <= 1e-15
    res = bochner_ball_derivative(f, h)
    assert res.case_tag == "Prop7.1(ii)(b)"
    for a, b in zip(res.value.values, h.values):
        assert np.allclose(a.coeffs, b.coeffs / 2.0)

    res = bochner_ball_derivative(f, f)
    assert res.case_tag == "Prop7.1(ii)(c)"
    assert all(np.allclose(a.coeffs, 0.0) for a in res.value.values)


def test_bochner_ball_derivative_sphere_cases():
    sp = DiscreteProbabilitySpace(("s1", "s2"), np.array([0.5, 0.5]))
    f = BochnerFunction(sp, (pt(1.0, 0.0), pt(0.0, 1.0)))  # ||f|| = 1
    assert bochner_norm(f) == pytest.approx(1.0, abs=1e-15)
    res = bochner_ball_derivative(f, f)  # radial: (iii)(a) yields theta
    assert res.case_tag == "Prop7.1(iii)(a)"
    assert all(np.allclose(a.coeffs, 0.0) for a in res.value.values)
    h = BochnerFunction(sp, (pt(0.0, 1.0), pt(-1.0, 0.0)))  # <f,h> = 0
    res = bochner_ball_derivative(f, h)
    assert res.case_tag == "Prop7.1(iii)(b)"
    assert all(np.allclose(a.coeffs, b.coeffs) for a, b in zip(res.value.values, h.values))
    down = BochnerFunction(sp, (pt(-1.0, 0.1), pt(0.1, -1.0)))
    assert bochner_inner(f, down) < 0.0
    res = bochner_ball_derivative(f, down)
    assert res.case_tag == "Prop7.1(iii)(c)"
    assert all(np.allclose(a.coeffs, b.coeffs) for a, b in zip(res.value.values, down.values))


def test_bochner_ball_matches_flattened_ball():
    rng = np.random.default_rng(33)
    sp = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    from hilproj import flat_weights, flatten

    w = flat_weights(sp, 2)
    ball = ClosedBall(HilbertPoint(np.zeros(6), w), 1.0)
    for _ in range(200):
        f = BochnerFunction(sp, tuple(HilbertPoint(rng.uniform(-2, 2, 2)) for _ in range(3)))
        h = BochnerFunction(sp, tuple(HilbertPoint(rng.uniform(-2, 2, 2)) for _ in range(3)))
        res = bochner_ball_derivative(f, h)
        base = ball_derivative(ball, flatten(f), flatten(h))
        assert np.allclose(flatten(res.value).coeffs, base.value.coeffs, atol=1e-15)


def test_generic_facts_golden():
    res = generic_facts_derivative(UNIT_BALL, pt(2.0, 0.0), pt(-1.0, 0.0))
    assert res.case_tag == "Prop3.1"
    assert np.allclose(res.value.coeffs, [0.0, 0.0])
    res = generic_facts_derivative(UNIT_BALL, pt(0.2, 0.1), pt(1.0, 1.0))
    assert res.case_tag == "Prop3.3"
    assert np.allclose(res.value.coeffs, [1.0, 1.0])
    # the inverse-image ray has empty interior in dimension >= 2
    res = generic_facts_derivative(UNIT_BALL, pt(3.0, 0.0), pt(0.0, 1.0))
    assert not res.covered


def test_generic_facts_dimension_one_ray_interior():
    # in dimension one every direction is residual-parallel, so the
    # stationarity fact fires before the inverse-image-interior fact
    ball1 = ClosedBall(pt(0.0), 1.0)
    res = generic_facts_derivative(ball1, pt(3.0), pt(1.0))
    assert res.case_tag == "Prop3.1"
    assert np.allclose(res.value.coeffs, [0.0])
    res = generic_facts_derivative(ball1, pt(3.0), pt(-2.0))
    assert res.case_tag == "Prop3.1"


def test_generic_facts_cone_dual_interior():
    res = generic_facts_derivative(K2, pt(-1.0, -2.0), pt(0.3, -0.4))
    assert res.case_tag == "Prop3.2"
    assert np.allclose(res.value.coeffs, [0.0, 0.0])


def test_generic_facts_singleton():
    s = SubspaceSpan((), ambient_dim=2)
    res = generic_facts_derivative(s, pt(1.0, 2.0), pt(3.0, 4.0))
    assert res.case_tag == "Lem3.2"
    assert np.allclose(res.value.coeffs, [0.0, 0.0])


def test_generic_facts_segment_probe():
    span = SubspaceSpan((pt(1.0, 0.0, 0.0),))
    res = generic_facts_derivative(span, pt(5.0, 0.0, 0.0), pt(1.0, 0.0, 0.0))
    assert res.case_tag == "Lem3.1"
    assert np.allclose(res.value.coeffs, [1.0, 0.0, 0.0])
    # off-span directions leave the set immediately: not a segment case
    res = generic_facts_derivative(span, pt(5.0, 0.0, 0.0), pt(0.0, 1.0, 0.0))
    assert not res.covered
    res = generic_facts_derivative(K2, pt(1.0, 0.0), pt(1.0, 0.0))
    assert res.case_tag == "Lem3.1"


def test_generic_agrees_with_specialized():
    rng = np.random.default_rng(34)
    for _ in range(300):
        x = HilbertPoint(rng.uniform(-2.0, 2.0, 3))
        v = HilbertPoint(rng.uniform(-2.0, 2.0, 3))
        ball = ClosedBall(pt(0.0, 0.0, 0.0), 1.0)
        g = generic_facts_derivative(ball, x, v)
        if g.covered:
            b = ball_derivative(ball, x, v)
            assert norm(g.value - b.value) <= 1e-12
        cone = PositiveCone(3)
        g = generic_facts_derivative(cone, x, v)
        if g.covered:
            c = cone_derivative(cone, x, v)
            if c.covered:
                assert norm(g.value - c.value) <= 1e-12


def test_derivative_dispatch():
    assert derivative(UNIT_BALL, pt(2.0, 0.0), pt(0.0, 1.0)).case_tag == "Thm4.1(ii)(a)"
    assert derivative(K2, pt(1.0, 2.0), pt(3.0, 0.0)).case_tag == "Thm5.1(i)"
    # cone boundary with outward direction: neither Thm 5.1 nor the facts
    res = derivative(K2, pt(1.0, 0.0), pt(0.0, -1.0))
    assert not res.covered
    # dual-cone interior reached through the generic fallback
    res = derivative(K2, pt(-1.0, -2.0), pt(5.0, -1.0))
    assert res.case_tag == "Prop3.2"
    span = SubspaceSpan((pt(1.0, 0.0),))
    assert derivative(span, pt(1.0, 0.0), pt(1.0, 0.0)).case_tag == "Lem3.1"
    assert not derivative(span, pt(1.0, 0.0), pt(0.0, 1.0)).covered


def test_derivative_dispatch_bochner():
    sp = DiscreteProbabilitySpace(("s1", "s2"), np.array([0.5, 0.5]))
    cone = BochnerPointwiseCone(sp)
    x = BochnerFunction(sp, (pt(1.0, 2.0), pt(0.5, 3.0)))
    v = BochnerFunction(sp, (pt(-1.0, 0.0), pt(2.0, -5.0)))
    res = derivative(cone, x, v)
    assert res.case_tag == "Thm5.1(iii)"
    assert isinstance(res.value, BochnerFunction)
    assert all(np.allclose(a.coeffs, b.coeffs) for a, b in zip(res.value.values, v.values))
    consts = BochnerConstantSubspace(sp)
    res = derivative(consts, x, v)
    assert res.case_tag == "Thm7.2"
    assert np.allclose(expectation(res.value).coeffs, expectation(v).coeffs)


def test_covered_cases_match_fd_quotient():
    # raw quotient at t=1e-6 within 1e-4; extrapolated within 1e-7
    rng = np.random.default_rng(35)
    ball = ClosedBall(pt(0.3, -0.2, 0.1), 1.25)
    cases = []
    for _ in range(60):
        region = rng.choice(["interior", "exterior", "sphere"])
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        if region == "interior":
            x = ball.center + HilbertPoint(rng.uniform(0.0, 0.85) * ball.radius * d)
        elif region == "exterior":
            x = ball.center + HilbertPoint(rng.uniform(1.15, 3.0) * ball.radius * d)
        else:
            x = ball.center + HilbertPoint(ball.radius * d)
        while True:
            v = HilbertPoint(rng.standard_normal(3))
            if abs(inner(x - ball.center, v)) >= 0.05 * norm(v):
                break
        cases.append((ball, x, v, ball_derivative(ball, x, v)))
    cone = PositiveCone(3)
    for _ in range(40):
        mode = rng.choice(["both_k", "both_dual", "k_plus"])
        if mode == "both_k":
            x = HilbertPoint(np.where(rng.random(3) < 0.4, 0.0, rng.uniform(0.1, 2.0, 3)))
            v = HilbertPoint(rng.uniform(0.0, 2.0, 3))
        elif mode == "both_dual":
            x = HilbertPoint(-rng.uniform(0.0, 2.0, 3))
            v = HilbertPoint(-rng.uniform(0.0, 2.0, 3))
        else:
            x = HilbertPoint(rng.uniform(0.1, 2.0, 3))
            v = HilbertPoint(rng.uniform(-2.0, 2.0, 3))
        if norm(v) == 0.0:
            continue
        res = cone_derivative(cone, x, v)
        if res.covered:
            cases.append((cone, x, v, res))
    assert len(cases) >= 90
    for s, x, v, res in cases:
        raw = quotient(s, x, v, 1e-6)
        assert np.max(np.abs(raw.coeffs - res.value.coeffs)) <= 1e-4
        extrapolated, _ = richardson(s, x, v)
        assert np.max(np.abs(extrapolated.coeffs - res.value.coeffs)) <= 1e-7


def test_positive_homogeneity():
    rng = np.random.default_rng(36)
    ball = ClosedBall(pt(0.0, 0.0, 0.0), 1.0)
    cone = PositiveCone(3)
    for _ in range(100):
        x = HilbertPoint(rng.uniform(-2.0, 2.0, 3))
        v = HilbertPoint(rng.uniform(-2.0, 2.0, 3))
        for lam in (0.5, 2.0, 10.0):
            assert homogeneity_check(lambda a, b: ball_derivative(ball, a, b), x, v, lam)
            if cone_derivative(cone, x, v).covered:
                assert homogeneity_check(lambda a, b: cone_derivative(cone, a, b), x, v, lam)


def test_homogeneity_golden():
    assert homogeneity_check(lambda a, b: ball_derivative(UNIT_BALL, a, b),
                             pt(2.0, 0.0), pt(0.0, 1.0), 3.0)
    assert homogeneity_check(lambda a, b: ball_derivative(UNIT_BALL, a, b),
                             pt(2.0, 0.0), pt(0.0, 1.0), 1.0)
    assert homogeneity_check(lambda a, b: cone_derivative(K2, a, b),
                             pt(1.0, 1.0), pt(-5.0, 7.0), 0.5)
    with pytest.raises(NotCovered):
        homogeneity_check(lambda a, b: cone_derivative(K2, a, b),
                          pt(1.0, 0.0), pt(0.0, -1.0), 2.0)
    with pytest.raises(ValueError):
        homogeneity_check(lambda a, b: ball_derivative(UNIT_BALL, a, b),
                          pt(2.0, 0.0), pt(0.0, 1.0), 0.0)


def test_exterior_formula_converges_to_sphere_formula():
    # radial approach x_eps = c + (1+eps)(x0-c): (ii)(a) -> (iii)(a)
    ball = ClosedBall(pt(0.5, -0.5), 2.0)
    x0 = ball.center + pt(2.0, 0.0)
    v = pt(1.0, 1.0)
    limit = ball_derivative(ball, x0, v)
    assert limit.case_tag == "Thm4.1(iii)(a)"
    for eps in (1e-2, 1e-4, 1e-7):
        x = ball.center + (1.0 + eps) * (x0 - ball.center)
        res = ball_derivative(ball, x, v)
        assert res.case_tag == "Thm4.1(ii)(a)"
        if eps <= 1e-7:
            assert norm(res.value - limit.value) <= 1e-6


def test_exterior_orthogonal_direction_scales_inverse_distance():
    # <x,v> = 0 outside the unit ball gives exactly v/||x||
    rng = np.random.default_rng(37)
    ball = ClosedBall(pt(0.0, 0.0, 0.0), 1.0)
    for _ in range(200):
        x = HilbertPoint(rng.standard_normal(3))
        x = (rng.uniform(1.2, 4.0) / norm(x)) * x
        v = HilbertPoint(rng.standard_normal(3))
        v = v - (inner(x, v) / inner(x, x)) * x
        if norm(v) < 1e-9:
            continue
        res = ball_derivative(ball, x, v)
        assert res.case_tag == "Thm4.1(ii)(a)"
        assert norm(res.value - (1.0 / norm(x)) * v) <= 1e-12


def test_orthonormal_basis_form_symbol_for_symbol():
    # the printed coefficient sums, written out as explicit loops
    rng = np.random.default_rng(38)
    ball = ClosedBall(pt(0.0, 0.0, 0.0, 0.0), 1.0)
    for _ in range(100):
        x = HilbertPoint(rng.uniform(-2.0, 2.0, 4))
        v = HilbertPoint(rng.uniform(-2.0, 2.0, 4))
        norm_sq = sum(x.coeffs[n] * x.coeffs[n] for n in range(4))
        g = sum(x.coeffs[n] * v.coeffs[n] for n in range(4))
        res = ball_derivative(ball, x, v)
        if norm_sq < 1.0 - 1e-9:
            expected = v.coeffs
        elif norm_sq > 1.0 + 1e-9:
            nx = np.sqrt(norm_sq)
            expected = (1.0 / nx**3) * (norm_sq * v.coeffs - g * x.coeffs)
        else:
            continue  # sphere points have measure zero under this sampler
        assert np.max(np.abs(res.value.coeffs - expected)) <= 1e-12
    # sphere clauses, pinned deterministically
    x = pt(0.6, 0.8, 0.0, 0.0)
    v = pt(1.0, -1.0, 2.0, 0.5)
    g = sum(x.coeffs[n] * v.coeffs[n] for n in range(4))
    res = ball_derivative(ball, x, v)
    if g >= 0.0:
        assert np.max(np.abs(res.value.coeffs - (v.coeffs - g * x.coeffs))) <= 1e-12
    orth = pt(-0.8, 0.6, 1.0, 0.0)
    assert abs(inner(x, orth)) <= 1e-12
    res = ball_derivative(ball, x, orth)
    assert np.max(np.abs(res.value.coeffs - orth.coeffs)) <= 1e-12


def test_zero_direction_rejected_everywhere():
    sp = DiscreteProbabilitySpace(("s1", "s2"), np.array([0.5, 0.5]))
    zero2 = pt(0.0, 0.0)
    with pytest.raises(ZeroDirection):
        cone_derivative(K2, pt(1.0, 1.0), zero2)
    with pytest.raises(ZeroDirection):
        generic_facts_derivative(UNIT_BALL, pt(0.0, 0.0), zero2)
    with pytest.raises(ZeroDirection):
        constants_subspace_derivative(
            sp,
            constant_function(sp, pt(1.0, 0.0)),
            constant_function(sp, pt(0.0, 0.0)),
        )
    with pytest.raises(ZeroDirection):
        bochner_ball_derivative(
            constant_function(sp, pt(1.0, 0.0)),
            constant_function(sp, pt(0.0, 0.0)),
        )


def test_generic_facts_at_a_zero_residual_are_uncovered():
    # x is outside at tol = 0 but inside project's 1e-12 r identity band, so
    # x - P(x) is exactly 0: no direction is parallel to it
    ball = ClosedBall(pt(0.0, 0.0), 1.0)
    x = pt(1.000000000000001, 0.0)
    assert project(ball, x) is x
    res = generic_facts_derivative(ball, x, pt(0.0, 1.0), 0.0)
    assert res.case_tag == NOT_COVERED_TAG and res.value is None
