"""Convex set descriptions, membership, point classes, inverse images."""

import numpy as np
import pytest

from hilproj import (
    BochnerConstantSubspace,
    BochnerFunction,
    BochnerPointwiseCone,
    ClosedBall,
    DimensionMismatch,
    DiscreteProbabilitySpace,
    HilbertPoint,
    NotInSet,
    NotOnSphere,
    PointClass,
    PositiveCone,
    SubspaceSpan,
    WeightMismatch,
    ZeroVertex,
    ball_inverse_ray,
    classify_point,
    cone_inverse_translation_check,
    contains,
    dual_cone_contains,
    expectation,
    in_inverse_image,
    inner,
    norm,
    orthogonal_cone,
    project,
    sample_points,
    span_component,
)


def pt(*coeffs, weights=None):
    return HilbertPoint(np.array(coeffs, dtype=float),
                        None if weights is None else np.array(weights, dtype=float))


UNIT_BALL = ClosedBall(pt(0.0, 0.0), 1.0)
K2 = PositiveCone(2)


def two_atom_space():
    return DiscreteProbabilitySpace(("a", "b"), np.array([0.5, 0.5]))


def fn(space, *rows):
    return BochnerFunction(space, tuple(pt(*row) for row in rows))


def test_ball_requires_positive_radius():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            ClosedBall(pt(0.0, 0.0), bad)


def test_cone_requires_positive_dim():
    with pytest.raises(ValueError):
        PositiveCone(0)


def test_dimensions_must_be_integral():
    for bad in (
        lambda: PositiveCone(2.5),
        lambda: SubspaceSpan((), ambient_dim=3.7),
        lambda: SubspaceSpan((pt(1.0, 0.0),), ambient_dim=2.5),
        lambda: orthogonal_cone(SubspaceSpan((pt(1.0, 0.0),)), 2.9),
        lambda: PositiveCone(np.inf),
        lambda: PositiveCone(np.nan),
        lambda: SubspaceSpan((), ambient_dim=np.inf),
        lambda: SubspaceSpan((pt(1.0, 0.0),), ambient_dim=np.nan),
        lambda: orthogonal_cone(SubspaceSpan((pt(1.0, 0.0),)), np.inf),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            bad()
    assert PositiveCone(2.0).dim == 2 and PositiveCone(np.int64(3)).dim == 3
    assert SubspaceSpan((), ambient_dim=np.int32(3)).dim == 3
    assert orthogonal_cone(SubspaceSpan((pt(1.0, 0.0),)), 2.0).generators[0].dim == 2


def test_span_validates_generators():
    with pytest.raises(ValueError):
        SubspaceSpan((pt(1.0, 1.0),))  # not unit
    with pytest.raises(ValueError):
        SubspaceSpan((pt(1.0, 0.0), pt(1.0, 0.0)))  # not orthogonal
    with pytest.raises(ValueError):
        SubspaceSpan((pt(1.0, 0.0), pt(0.0, 0.0, 1.0)))
    with pytest.raises(ValueError):
        SubspaceSpan(())  # singleton needs ambient_dim
    with pytest.raises(ValueError):
        SubspaceSpan((pt(1.0, 0.0),), ambient_dim=3)
    s = SubspaceSpan((), ambient_dim=3)
    assert s.is_singleton and s.dim == 3 and s.n_generators == 0
    full = SubspaceSpan((pt(1.0, 0.0), pt(0.0, 1.0)))
    assert full.is_full and not full.is_singleton


def test_contains_ball():
    assert contains(UNIT_BALL, pt(0.0, 0.0))
    assert contains(UNIT_BALL, pt(1.0, 0.0))
    assert contains(UNIT_BALL, pt(1.0 + 1e-10, 0.0))
    assert not contains(UNIT_BALL, pt(2.0, 0.0))
    with pytest.raises(DimensionMismatch):
        contains(UNIT_BALL, pt(1.0, 0.0, 0.0))


def test_contains_cone():
    assert contains(K2, pt(1.0, 0.0))
    assert contains(K2, pt(-1e-10, 5.0))
    assert not contains(K2, pt(-1.0, 2.0))


def test_contains_subspace():
    s = SubspaceSpan((pt(1.0, 0.0, 0.0),))
    assert contains(s, pt(5.0, 0.0, 0.0))
    assert contains(s, pt(5.0, 1e-12, 0.0))
    assert not contains(s, pt(5.0, 0.1, 0.0))
    assert contains(SubspaceSpan((), ambient_dim=2), pt(0.0, 0.0))
    assert not contains(SubspaceSpan((), ambient_dim=2), pt(1e-6, 0.0))


def test_contains_bochner_sets():
    sp = two_atom_space()
    cone = BochnerPointwiseCone(sp)
    assert contains(cone, fn(sp, (1.0, 0.0), (2.0, 3.0)))
    assert not contains(cone, fn(sp, (1.0, -1.0), (2.0, 3.0)))
    consts = BochnerConstantSubspace(sp)
    assert contains(consts, fn(sp, (1.0, 2.0), (1.0, 2.0)))
    assert not contains(consts, fn(sp, (1.0, 2.0), (1.0, 2.5)))


def test_classify_point_golden():
    assert classify_point(UNIT_BALL, pt(0.0, 0.0)) is PointClass.INTERNAL
    assert classify_point(UNIT_BALL, pt(1.0, 0.0)) is PointClass.CUTICLE
    span = SubspaceSpan((pt(1.0, 0.0, 0.0),))
    assert classify_point(span, pt(5.0, 0.0, 0.0)) is PointClass.CUTICLE


def test_classify_point_cone():
    assert classify_point(K2, pt(1.0, 2.0)) is PointClass.INTERNAL
    assert classify_point(K2, pt(0.0, 1.0)) is PointClass.CUTICLE
    assert classify_point(K2, pt(0.0, 0.0)) is PointClass.CUTICLE


def test_classify_point_requires_membership():
    with pytest.raises(NotInSet):
        classify_point(UNIT_BALL, pt(3.0, 0.0))
    with pytest.raises(NotInSet):
        classify_point(K2, pt(-1.0, 0.0))


def test_classify_point_degenerate_spans():
    # identity projections: every point has inverse image {y}
    full = SubspaceSpan((pt(1.0, 0.0), pt(0.0, 1.0)))
    assert classify_point(full, pt(0.3, -0.7)) is PointClass.INTERNAL
    single = DiscreteProbabilitySpace(("a",), np.array([1.0]))
    assert classify_point(BochnerConstantSubspace(single),
                          fn(single, (1.0, 2.0))) is PointClass.INTERNAL


def test_classify_point_bochner():
    sp = two_atom_space()
    cone = BochnerPointwiseCone(sp)
    assert classify_point(cone, fn(sp, (1.0, 2.0), (0.5, 3.0))) is PointClass.INTERNAL
    assert classify_point(cone, fn(sp, (1.0, 0.0), (0.5, 3.0))) is PointClass.CUTICLE
    consts = BochnerConstantSubspace(sp)
    assert classify_point(consts, fn(sp, (1.0, 2.0), (1.0, 2.0))) is PointClass.CUTICLE


def test_ball_partition_matches_distance():
    rng = np.random.default_rng(3)
    ball = ClosedBall(pt(1.0, -2.0, 0.5), 2.0)
    for y in sample_points(ball, 200, rng):
        label = classify_point(ball, y)
        d = norm(y - ball.center)
        if d < ball.radius - 1e-9:
            assert label is PointClass.INTERNAL
        elif abs(d - ball.radius) <= 1e-9:
            assert label is PointClass.CUTICLE


def test_in_inverse_image_ball_golden():
    assert in_inverse_image(UNIT_BALL, pt(1.0, 0.0), pt(3.0, 0.0))
    # projection of (1,1) is (1/sqrt2, 1/sqrt2), not (1,0)
    assert not in_inverse_image(UNIT_BALL, pt(1.0, 0.0), pt(1.0, 1.0))


def test_in_inverse_image_cone_vertex_is_dual_cone():
    assert in_inverse_image(K2, pt(0.0, 0.0), pt(-1.0, -2.0))
    assert in_inverse_image(K2, pt(0.0, 0.0), pt(0.0, 0.0))
    assert not in_inverse_image(K2, pt(0.0, 0.0), pt(1.0, -2.0))


def test_in_inverse_image_interior_is_singleton():
    assert in_inverse_image(UNIT_BALL, pt(0.0, 0.0), pt(0.0, 0.0))
    assert not in_inverse_image(UNIT_BALL, pt(0.0, 0.0), pt(0.5, 0.0))
    assert in_inverse_image(K2, pt(1.0, 2.0), pt(1.0, 2.0))
    assert not in_inverse_image(K2, pt(1.0, 2.0), pt(1.0, 2.5))


def test_in_inverse_image_subspace():
    s = SubspaceSpan((pt(1.0, 0.0, 0.0), pt(0.0, 1.0, 0.0)))
    assert in_inverse_image(s, pt(1.0, 2.0, 0.0), pt(1.0, 2.0, 7.0))
    assert not in_inverse_image(s, pt(1.0, 2.0, 0.0), pt(1.5, 2.0, 7.0))


def test_in_inverse_image_requires_member_vertex():
    with pytest.raises(NotInSet):
        in_inverse_image(UNIT_BALL, pt(2.0, 0.0), pt(3.0, 0.0))


def test_in_inverse_image_bochner():
    sp = two_atom_space()
    cone = BochnerPointwiseCone(sp)
    y = fn(sp, (1.0, 0.0), (0.0, 2.0))
    assert in_inverse_image(cone, y, fn(sp, (1.0, -3.0), (-0.5, 2.0)))
    assert not in_inverse_image(cone, y, fn(sp, (1.0, 3.0), (-0.5, 2.0)))
    consts = BochnerConstantSubspace(sp)
    c = fn(sp, (1.0, 2.0), (1.0, 2.0))
    assert in_inverse_image(consts, c, fn(sp, (0.0, 1.0), (2.0, 3.0)))
    assert not in_inverse_image(consts, c, fn(sp, (0.0, 1.0), (2.0, 4.0)))


def test_in_inverse_image_sampled_variational_mode():
    rng = np.random.default_rng(11)
    assert in_inverse_image(UNIT_BALL, pt(1.0, 0.0), pt(3.0, 0.0),
                            sample_budget=200, rng=rng)
    assert in_inverse_image(K2, pt(1.0, 0.0), pt(1.0, -4.0),
                            sample_budget=200, rng=rng)
    sp = two_atom_space()
    consts = BochnerConstantSubspace(sp)
    c = fn(sp, (1.0, 2.0), (1.0, 2.0))
    assert in_inverse_image(consts, c, fn(sp, (0.0, 1.0), (2.0, 3.0)),
                            sample_budget=100, rng=rng)


def test_inverse_image_convexity():
    # convex combinations of two members stay members
    rng = np.random.default_rng(7)
    ball = ClosedBall(pt(0.5, -1.0), 1.5)
    for _ in range(1000):
        d = rng.standard_normal(2)
        d = 1.5 * d / np.linalg.norm(d)
        y = ball.center + HilbertPoint(d)
        t1, t2, lam = rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0), rng.uniform()
        x1 = ball_inverse_ray(ball, y, t1)
        x2 = ball_inverse_ray(ball, y, t2)
        mix = lam * x1 + (1.0 - lam) * x2
        assert in_inverse_image(ball, y, mix)


def test_inverse_image_convexity_cone():
    rng = np.random.default_rng(8)
    cone = PositiveCone(4)
    for _ in range(1000):
        y = rng.uniform(0.2, 2.0, 4)
        zero = rng.random(4) < 0.5
        y[zero] = 0.0
        members = []
        for _ in range(2):
            x = y.copy()
            x[zero] = -rng.uniform(0.0, 3.0, int(zero.sum()))
            members.append(HilbertPoint(x))
        lam = rng.uniform()
        mix = lam * members[0] + (1.0 - lam) * members[1]
        yp = HilbertPoint(y)
        assert in_inverse_image(cone, yp, members[0])
        assert in_inverse_image(cone, yp, mix)


def test_inverse_image_closed_under_limits():
    y = pt(1.0, 0.0)
    xs = [ball_inverse_ray(UNIT_BALL, y, 1.0 + 1.0 / k) for k in range(1, 40)]
    limit = ball_inverse_ray(UNIT_BALL, y, 1.0)
    assert norm(xs[-1] - limit) < 0.03
    assert in_inverse_image(UNIT_BALL, y, limit)


def test_cone_inverse_members_orthogonal_to_vertex():
    # x in P_K^-1(y) differs from y only on zero coordinates of y
    rng = np.random.default_rng(9)
    cone = PositiveCone(5)
    for _ in range(500):
        y = rng.uniform(0.2, 2.0, 5)
        zero = rng.random(5) < 0.5
        y[zero] = 0.0
        x = y.copy()
        x[zero] = -rng.uniform(0.0, 3.0, int(zero.sum()))
        yp, xp = HilbertPoint(y), HilbertPoint(x)
        assert in_inverse_image(cone, yp, xp)
        assert abs(inner(xp - yp, yp)) <= 1e-9


def test_inverse_images_cover_space():
    rng = np.random.default_rng(10)
    sets = [
        UNIT_BALL,
        ClosedBall(pt(1.0, -2.0, 0.0), 0.5),
        PositiveCone(3),
        SubspaceSpan((pt(1.0, 0.0, 0.0), pt(0.0, 1.0, 0.0))),
        SubspaceSpan((), ambient_dim=2),
    ]
    for s in sets:
        for _ in range(1000):
            x = HilbertPoint(rng.uniform(-4.0, 4.0, s.dim))
            assert in_inverse_image(s, project(s, x), x)


def test_inverse_images_cover_space_bochner():
    rng = np.random.default_rng(12)
    sp = two_atom_space()
    for s in (BochnerPointwiseCone(sp), BochnerConstantSubspace(sp)):
        for _ in range(200):
            x = fn(sp, rng.uniform(-3.0, 3.0, 2), rng.uniform(-3.0, 3.0, 2))
            assert in_inverse_image(s, project(s, x), x)


def test_ball_inverse_ray_golden():
    assert np.allclose(ball_inverse_ray(UNIT_BALL, pt(1.0, 0.0), 0.0).coeffs, [1.0, 0.0])
    assert np.allclose(ball_inverse_ray(UNIT_BALL, pt(0.0, 1.0), 2.0).coeffs, [0.0, 3.0])
    ball = ClosedBall(pt(1.0, 1.0), 2.0)
    x = ball_inverse_ray(ball, pt(3.0, 1.0), 1.0)
    assert np.allclose(x.coeffs, [5.0, 1.0])
    assert np.allclose(project(ball, x).coeffs, [3.0, 1.0])


def test_ball_inverse_ray_errors():
    with pytest.raises(NotOnSphere):
        ball_inverse_ray(UNIT_BALL, pt(0.5, 0.0), 1.0)
    with pytest.raises(ValueError):
        ball_inverse_ray(UNIT_BALL, pt(1.0, 0.0), -0.5)


def test_ball_inverse_ray_projects_back():
    rng = np.random.default_rng(13)
    ball = ClosedBall(pt(-0.5, 2.0, 1.0), 1.25)
    for _ in range(300):
        d = rng.standard_normal(3)
        d = ball.radius * d / np.linalg.norm(d)
        y = ball.center + HilbertPoint(d)
        x = ball_inverse_ray(ball, y, rng.uniform(0.0, 10.0))
        assert norm(project(ball, x) - y) <= 1e-12 * max(1.0, norm(x))
        assert in_inverse_image(ball, y, x)


def test_dual_cone_contains_golden():
    assert dual_cone_contains(K2, pt(-1.0, -2.0))
    assert dual_cone_contains(K2, pt(0.0, 0.0))
    assert not dual_cone_contains(K2, pt(1.0, -1.0))
    with pytest.raises(DimensionMismatch):
        dual_cone_contains(K2, pt(1.0, 2.0, 3.0))


def test_orthogonal_cone_golden():
    out = orthogonal_cone(SubspaceSpan((pt(1.0, 0.0),)), 2)
    assert out.n_generators == 1
    assert np.allclose(np.abs(out.generators[0].coeffs), [0.0, 1.0])
    out = orthogonal_cone(SubspaceSpan((pt(1.0, 0.0, 0.0), pt(0.0, 1.0, 0.0))), 3)
    assert out.n_generators == 1
    assert np.allclose(np.abs(out.generators[0].coeffs), [0.0, 0.0, 1.0])


def test_orthogonal_cone_diagonal():
    r = 1.0 / np.sqrt(2.0)
    out = orthogonal_cone(SubspaceSpan((pt(r, r),)), 2)
    assert out.n_generators == 1
    g = out.generators[0].coeffs
    assert np.allclose(np.abs(g), [r, r]) and abs(g[0] + g[1]) < 1e-12


def test_orthogonal_cone_degenerate():
    full = SubspaceSpan((pt(1.0, 0.0), pt(0.0, 1.0)))
    out = orthogonal_cone(full, 2)
    assert out.is_singleton and out.dim == 2
    out = orthogonal_cone(SubspaceSpan((), ambient_dim=3), 3)
    assert out.n_generators == 3
    with pytest.raises(DimensionMismatch):
        orthogonal_cone(SubspaceSpan((pt(1.0, 0.0),)), 3)


def test_orthogonal_cone_complements_span():
    rng = np.random.default_rng(15)
    for n, k in ((4, 1), (5, 2), (6, 3)):
        basis, _ = np.linalg.qr(rng.standard_normal((n, k)), mode="reduced")
        span = SubspaceSpan(tuple(HilbertPoint(basis[:, i]) for i in range(k)))
        comp = orthogonal_cone(span, n)
        assert comp.n_generators == n - k
        for u in span.generators:
            for v in comp.generators:
                assert abs(inner(u, v)) <= 1e-12


def test_orthogonal_cone_weighted():
    w = np.array([4.0, 1.0])
    span = SubspaceSpan((pt(0.5, 0.0, weights=w),))
    comp = orthogonal_cone(span, 2)
    assert comp.n_generators == 1
    g = comp.generators[0]
    assert abs(inner(g, g) - 1.0) <= 1e-12
    assert abs(inner(g, span.generators[0])) <= 1e-12


def test_orthogonal_cone_weighted_multi_generator_span():
    # generators orthonormal in the weighted product: Q from QR of sqrt(W) A, divided by sqrt(W)
    rng = np.random.default_rng(17)
    for n, k in ((4, 1), (6, 2), (9, 4), (30, 7)):
        w = rng.uniform(0.25, 4.0, n)
        q, _ = np.linalg.qr(np.sqrt(w)[:, None] * rng.standard_normal((n, k)))
        span = SubspaceSpan(tuple(HilbertPoint(q[:, i] / np.sqrt(w), w) for i in range(k)))
        comp = orthogonal_cone(span, n)
        assert comp.n_generators == n - k
        g = np.stack([v.coeffs for v in comp.generators])
        assert np.max(np.abs((g * w) @ g.T - np.eye(n - k))) <= 1e-12
        u = np.stack([v.coeffs for v in span.generators])
        assert np.max(np.abs((g * w) @ u.T)) <= 1e-12
        assert all(np.array_equal(v.weights, w) for v in comp.generators)


def test_orthogonal_cone_is_theta_inverse_image():
    # P_D^-1(theta) equals the orthogonal complement of D
    rng = np.random.default_rng(16)
    span = SubspaceSpan((pt(1.0, 0.0, 0.0),))
    comp = orthogonal_cone(span, 3)
    theta = pt(0.0, 0.0, 0.0)
    for _ in range(200):
        coeffs = rng.standard_normal(comp.n_generators)
        z = HilbertPoint(sum(c * g.coeffs for c, g in zip(coeffs, comp.generators)))
        assert in_inverse_image(span, theta, z)
        assert not in_inverse_image(span, theta, z + pt(0.5, 0.0, 0.0))


def test_cone_inverse_translation_check_golden():
    # x = (2,-1)+(1,0): member on both sides
    assert cone_inverse_translation_check(K2, pt(1.0, 0.0), 2.0, pt(3.0, -1.0))
    assert in_inverse_image(K2, pt(2.0, 0.0), pt(2.0, -1.0))
    assert in_inverse_image(K2, pt(1.0, 0.0), pt(1.0, -1.0))
    # interior vertex: both sides reject 3y, so they agree
    assert cone_inverse_translation_check(K2, pt(1.0, 1.0), 3.0, pt(3.0, 3.0))
    assert not in_inverse_image(K2, pt(3.0, 3.0), pt(2.0, 2.0))
    assert not in_inverse_image(K2, pt(1.0, 1.0), pt(0.0, 0.0))
    # x = (0,5)+(1,0): non-member on both sides
    assert cone_inverse_translation_check(K2, pt(1.0, 0.0), 2.0, pt(1.0, 5.0))
    assert not in_inverse_image(K2, pt(2.0, 0.0), pt(0.0, 5.0))
    assert not in_inverse_image(K2, pt(1.0, 0.0), pt(-1.0, 5.0))


def test_cone_inverse_translation_check_errors():
    with pytest.raises(NotInSet):
        cone_inverse_translation_check(K2, pt(-1.0, 0.0), 2.0, pt(0.0, 0.0))
    with pytest.raises(ZeroVertex):
        cone_inverse_translation_check(K2, pt(0.0, 0.0), 2.0, pt(1.0, 1.0))
    for bad_t in (0.0, -1.0):
        with pytest.raises(ValueError):
            cone_inverse_translation_check(K2, pt(1.0, 0.0), bad_t, pt(1.0, 1.0))


def test_cone_inverse_translation_identity_never_fails():
    # the two translated inverse images coincide, so the check is a theorem
    rng = np.random.default_rng(17)
    cone = PositiveCone(4)
    for _ in range(300):
        y = rng.uniform(0.0, 2.0, 4)
        y[rng.integers(0, 4)] = rng.uniform(0.5, 2.0)  # keep y nonzero
        t = rng.uniform(0.1, 5.0)
        x = rng.uniform(-4.0, 4.0, 4)
        assert cone_inverse_translation_check(cone, HilbertPoint(y), t, HilbertPoint(x))


def test_span_component_and_expectation_agree():
    # projecting onto constants is the expectation, atom by atom
    sp = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.5, 0.25, 0.25]))
    f = fn(sp, (1.0, 2.0), (3.0, -1.0), (0.0, 4.0))
    e = expectation(f)
    g = project(BochnerConstantSubspace(sp), f)
    for v in g.values:
        assert np.allclose(v.coeffs, e.coeffs)


def test_span_component_orthogonal_residual():
    rng = np.random.default_rng(18)
    s = SubspaceSpan((pt(1.0, 0.0, 0.0), pt(0.0, 0.6, 0.8)))
    for _ in range(200):
        x = HilbertPoint(rng.standard_normal(3))
        p = span_component(s, x)
        for u in s.generators:
            assert abs(inner(x - p, u)) <= 1e-12


def test_span_component_weighted_generators():
    # reference: the generator loop sum of <x, u_i> u_i under the weighted inner product
    rng = np.random.default_rng(19)
    w = rng.uniform(0.5, 2.0, 6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
    s = SubspaceSpan(tuple(HilbertPoint(col / np.sqrt(w), w) for col in q.T))
    for _ in range(100):
        x = HilbertPoint(rng.uniform(-3.0, 3.0, 6), w)
        want = sum((inner(x, u) * u.coeffs for u in s.generators), np.zeros(6))
        p = span_component(s, x)
        assert np.array_equal(p.weights, w)
        assert np.max(np.abs(p.coeffs - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(x.coeffs))))
        for u in s.generators:
            assert abs(inner(x - p, u)) <= 1e-12


def test_span_component_rejects_incompatible_points():
    s = SubspaceSpan((pt(1.0, 0.0, weights=(1.0, 4.0)), pt(0.0, 0.5, weights=(1.0, 4.0))))
    with pytest.raises(DimensionMismatch, match="dimensions 3 and 2 differ"):
        span_component(s, pt(1.0, 2.0, 3.0, weights=(1.0, 4.0, 1.0)))
    with pytest.raises(WeightMismatch):
        span_component(s, pt(1.0, 2.0))
    with pytest.raises(WeightMismatch):
        span_component(s, pt(1.0, 2.0, weights=(1.0, 3.0)))
    assert np.allclose(span_component(s, pt(1.0, 2.0, weights=(1.0, 4.0))).coeffs, [1.0, 2.0])
