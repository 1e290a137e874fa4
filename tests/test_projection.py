"""Metric projection onto each set variant, distances, batch projection."""

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
    PositiveCone,
    SpaceMismatch,
    SubspaceSpan,
    contains,
    distance,
    flat_weights,
    inner,
    norm,
    project,
    project_sequence,
    sample_points,
    WeightMismatch,
)


def pt(*coeffs, weights=None):
    return HilbertPoint(np.array(coeffs, dtype=float),
                        None if weights is None else np.array(weights, dtype=float))


UNIT_BALL = ClosedBall(pt(0.0, 0.0), 1.0)


def all_variants():
    sp = DiscreteProbabilitySpace(("a", "b"), np.array([0.25, 0.75]))
    return [
        UNIT_BALL,
        ClosedBall(pt(1.0, -2.0, 0.5), 1.5),
        PositiveCone(4),
        SubspaceSpan((pt(1.0, 0.0, 0.0), pt(0.0, 0.6, 0.8))),
        SubspaceSpan((), ambient_dim=3),
        BochnerPointwiseCone(sp),
        BochnerConstantSubspace(sp),
    ]


def random_member_input(s, rng):
    if isinstance(s, (BochnerPointwiseCone, BochnerConstantSubspace)):
        d = 2
        w = flat_weights(s.space, d)
        return HilbertPoint(rng.uniform(-4.0, 4.0, s.space.n_atoms * d), w)
    return HilbertPoint(rng.uniform(-4.0, 4.0, s.dim))


def test_project_golden():
    assert np.allclose(project(UNIT_BALL, pt(2.0, 0.0)).coeffs, [1.0, 0.0])
    assert np.allclose(project(PositiveCone(3), pt(1.0, -2.0, 3.0)).coeffs, [1.0, 0.0, 3.0])
    b = ClosedBall(pt(1.0, 1.0), 2.0)
    assert np.allclose(project(b, pt(1.0, 1.0)).coeffs, [1.0, 1.0])
    assert np.allclose(project(UNIT_BALL, pt(3.0, 4.0)).coeffs, [0.6, 0.8])


def test_project_exterior_matches_grid_oracle():
    # independent oracle: brute-force minimum of ||x - z|| over the boundary
    x = np.array([3.0, 4.0])
    angles = np.linspace(0.0, 2.0 * np.pi, 1_000_000, endpoint=False)
    zs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    best = zs[np.argmin(np.linalg.norm(zs - x, axis=1))]
    assert np.allclose(best, [0.6, 0.8], atol=1e-5)
    assert np.allclose(project(UNIT_BALL, pt(*x)).coeffs, [0.6, 0.8], atol=1e-12)


def test_project_subspace():
    s = SubspaceSpan((pt(1.0, 0.0, 0.0), pt(0.0, 1.0, 0.0)))
    assert np.allclose(project(s, pt(1.0, 2.0, 7.0)).coeffs, [1.0, 2.0, 0.0])
    singleton = SubspaceSpan((), ambient_dim=3)
    assert np.allclose(project(singleton, pt(1.0, 2.0, 7.0)).coeffs, [0.0, 0.0, 0.0])
    full = SubspaceSpan((pt(1.0, 0.0), pt(0.0, 1.0)))
    assert np.allclose(project(full, pt(-3.0, 9.0)).coeffs, [-3.0, 9.0])


def test_project_bochner_flat_round_trip():
    sp = DiscreteProbabilitySpace(("a", "b"), np.array([0.5, 0.5]))
    cone = BochnerPointwiseCone(sp)
    w = flat_weights(sp, 2)
    x = HilbertPoint(np.array([1.0, -2.0, -3.0, 4.0]), w)
    out = project(cone, x)
    assert isinstance(out, HilbertPoint)
    assert np.allclose(out.coeffs, [1.0, 0.0, 0.0, 4.0])
    f = BochnerFunction(sp, (pt(1.0, -2.0), pt(-3.0, 4.0)))
    g = project(cone, f)
    assert isinstance(g, BochnerFunction)
    assert np.allclose(g.values[0].coeffs, [1.0, 0.0])
    assert np.allclose(g.values[1].coeffs, [0.0, 4.0])


def test_distance_golden():
    assert distance(UNIT_BALL, pt(2.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert distance(PositiveCone(2), pt(-3.0, 4.0)) == pytest.approx(3.0, abs=1e-15)
    assert distance(UNIT_BALL, pt(0.3, -0.4)) == 0.0
    assert distance(PositiveCone(2), pt(1.0, 2.0)) == 0.0


def test_distance_zero_iff_member():
    rng = np.random.default_rng(21)
    for s in all_variants():
        for _ in range(100):
            x = random_member_input(s, rng)
            d = distance(s, x)
            assert d >= 0.0
            assert (d <= 1e-9) == contains(s, x, 1e-9)


def test_distance_is_nonexpansive():
    # |d(x,C) - d(y,C)| <= ||x - y||, the sampled continuity check
    rng = np.random.default_rng(22)
    for s in all_variants():
        for _ in range(100):
            x = random_member_input(s, rng)
            y = random_member_input(s, rng)
            assert abs(distance(s, x) - distance(s, y)) <= norm(x - y) + 1e-12


def test_identity_band_at_the_sphere():
    x = pt(1.0 + 1e-13, 0.0)
    assert project(UNIT_BALL, x) is not None
    assert np.array_equal(project(UNIT_BALL, x).coeffs, x.coeffs)
    y = pt(1.0 + 1e-9, 0.0)
    assert norm(project(UNIT_BALL, y)) == pytest.approx(1.0, abs=1e-15)


def test_variational_principle():
    rng = np.random.default_rng(23)
    for s in all_variants():
        for _ in range(20):
            x = random_member_input(s, rng)
            u = project(s, x)
            for z in sample_points(s, 50, rng, include=(u,)):
                assert inner(x - u, u - z) >= -1e-9


def test_strengthened_variational_principle():
    # corrected reading: <x-u, x-z> >= ||x-u||^2 for z in C
    rng = np.random.default_rng(24)
    for s in all_variants():
        for _ in range(20):
            x = random_member_input(s, rng)
            u = project(s, x)
            gap = inner(x - u, x - u)
            for z in sample_points(s, 50, rng, include=(u,)):
                assert inner(x - u, x - z) >= gap - 1e-9


def test_projection_is_monotone():
    rng = np.random.default_rng(25)
    for s in all_variants():
        for _ in range(200):
            x = random_member_input(s, rng)
            y = random_member_input(s, rng)
            px, py = project(s, x), project(s, y)
            assert inner(px - py, x - y) >= inner(px - py, px - py) - 1e-9


def test_projection_is_nonexpansive_with_dichotomy():
    rng = np.random.default_rng(26)
    for s in all_variants():
        for _ in range(200):
            x = random_member_input(s, rng)
            y = random_member_input(s, rng)
            px, py = project(s, x), project(s, y)
            lhs, rhs = norm(px - py), norm(x - y)
            assert lhs <= rhs + 1e-12
            if rhs - lhs <= 1e-12:  # equality forces translation identity
                assert norm((px - py) - (x - y)) <= 1e-9


def test_projection_is_idempotent():
    rng = np.random.default_rng(27)
    for s in all_variants():
        for _ in range(200):
            x = random_member_input(s, rng)
            u = project(s, x)
            assert norm(project(s, u) - u) <= 1e-12


def test_cone_projection_commutes_with_truncation():
    rng = np.random.default_rng(28)
    for _ in range(200):
        x = rng.uniform(-4.0, 4.0, 6)
        full = project(PositiveCone(6), HilbertPoint(x)).coeffs
        trunc = project(PositiveCone(3), HilbertPoint(x[:3])).coeffs
        assert np.array_equal(full[:3], trunc)


def test_project_sequence():
    assert project_sequence(UNIT_BALL, []) == []
    out = project_sequence(UNIT_BALL, [pt(2.0, 0.0), pt(0.0, 0.0)])
    assert np.allclose(out[0].coeffs, [1.0, 0.0])
    assert np.allclose(out[1].coeffs, [0.0, 0.0])


def test_project_sequence_matches_single_calls():
    rng = np.random.default_rng(29)
    xs = [HilbertPoint(rng.uniform(-3.0, 3.0, 2)) for _ in range(100)]
    batch = project_sequence(UNIT_BALL, xs)
    for x, u in zip(xs, batch):
        assert np.array_equal(u.coeffs, project(UNIT_BALL, x).coeffs)


def test_project_sequence_reports_element_index():
    with pytest.raises(DimensionMismatch, match="element 1"):
        project_sequence(UNIT_BALL, [pt(2.0, 0.0), pt(1.0, 0.0, 0.0)])


def as_rows(points):
    """Coefficients of a project_sequence result, Bochner functions flattened."""
    return np.array([
        np.concatenate([v.coeffs for v in p.values]) if isinstance(p, BochnerFunction)
        else p.coeffs for p in points
    ])


def assert_same_point(got, want):
    assert type(got) is type(want)
    if isinstance(want, BochnerFunction):
        assert len(got.values) == len(want.values)
        for g, w in zip(got.values, want.values):
            assert_same_point(g, w)
        return
    assert np.array_equal(got.coeffs, want.coeffs)
    assert (got.weights is None) == (want.weights is None)
    if want.weights is not None:
        assert np.array_equal(got.weights, want.weights)


def test_project_sequence_ball_bitwise():
    rng = np.random.default_rng(30)
    for d, weights in ((2, None), (7, None), (50, None), (50, rng.uniform(0.2, 3.0, 50))):
        c = HilbertPoint(rng.uniform(-1.0, 1.0, d), weights)
        ball = ClosedBall(c, 1.7)
        xs = []
        for t in rng.uniform(0.0, 2.5, 60):
            g = rng.standard_normal(d)
            xs.append(c + (t * 1.7 / norm(HilbertPoint(g, weights))) * HilbertPoint(g, weights))
        # on the sphere and inside the 1e-12 identity band
        u = xs[0] - c
        for scale in (1.0, 1.0 + 1e-13, 1.0 + 5e-13, 1.0 + 1e-11):
            xs.append(c + (scale * 1.7 / norm(u)) * u)
        xs.append(c)
        batch = project_sequence(ball, xs)
        for x, got in zip(xs, batch):
            want = project(ball, x)
            assert_same_point(got, want)
            if want is x:
                assert got is x


def test_project_sequence_cone_bitwise_with_mixed_weights():
    rng = np.random.default_rng(31)
    w1, w2 = rng.uniform(0.5, 2.0, 6), rng.uniform(0.5, 2.0, 6)
    xs = [HilbertPoint(rng.uniform(-3.0, 3.0, 6), (None, w1, w2, w1.copy())[i % 4])
          for i in range(40)]
    batch = project_sequence(PositiveCone(6), xs)
    for x, got in zip(xs, batch):
        assert_same_point(got, project(PositiveCone(6), x))


def test_project_sequence_bochner_mirrors_each_form():
    rng = np.random.default_rng(32)
    sp = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    xs = []
    for i in range(12):
        d = 2 if i % 3 else 4  # two per-atom dimensions in one batch
        vals = rng.uniform(-3.0, 3.0, (3, d))
        if i % 2:
            xs.append(BochnerFunction(sp, tuple(HilbertPoint(v) for v in vals)))
        else:
            xs.append(HilbertPoint(vals.ravel(), flat_weights(sp, d)))
    cone, constants = BochnerPointwiseCone(sp), BochnerConstantSubspace(sp)
    for x, got in zip(xs, project_sequence(cone, xs)):
        assert_same_point(got, project(cone, x))
    for x, got in zip(xs, project_sequence(constants, xs)):
        want = project(constants, x)
        assert type(got) is type(want)
        assert as_rows([got]).shape == as_rows([want]).shape
        scale = max(1.0, float(np.max(np.abs(as_rows([x])))))
        assert np.max(np.abs(as_rows([got]) - as_rows([want]))) <= 1e-12 * scale
        if isinstance(want, HilbertPoint):
            assert np.array_equal(got.weights, want.weights)


def test_project_sequence_span_matches_single_calls():
    rng = np.random.default_rng(33)
    w = rng.uniform(0.5, 2.0, 8)
    q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    weighted = SubspaceSpan(tuple(HilbertPoint(col / np.sqrt(w), w) for col in q.T))
    plain = SubspaceSpan(tuple(HilbertPoint(col) for col in q.T))
    for s, weights in ((plain, None), (weighted, w)):
        xs = [HilbertPoint(rng.uniform(-5.0, 5.0, 8) * 10.0 ** rng.integers(-3, 4), weights)
              for _ in range(30)]
        for x, got in zip(xs, project_sequence(s, xs)):
            want = project(s, x)
            assert (got.weights is None) == (weights is None)
            if weights is not None:
                assert np.array_equal(got.weights, want.weights)
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * max(
                1.0, float(np.max(np.abs(x.coeffs))))
    singleton = SubspaceSpan((), ambient_dim=3)
    xs = [pt(1.0, 2.0, 3.0), pt(4.0, 5.0, 6.0, weights=(1.0, 2.0, 3.0))]
    for x, got in zip(xs, project_sequence(singleton, xs)):
        assert_same_point(got, project(singleton, x))


@pytest.mark.parametrize("n", [1, 2, 23, 50])
def test_project_sequence_weighted_span_bitwise(n):
    # a stacked X W G^T G rounds unlike one row's product; the batch takes the latter
    rng = np.random.default_rng(34)
    d, m = 200, 50
    w = rng.uniform(0.5, 2.0, d)
    q, _ = np.linalg.qr(rng.standard_normal((d, m)))
    span = SubspaceSpan(tuple(HilbertPoint(col / np.sqrt(w), w) for col in q.T))
    xs = [HilbertPoint(rng.uniform(-2.0, 2.0, d), w) for _ in range(n)]
    for x, got in zip(xs, project_sequence(span, xs)):
        assert_same_point(got, project(span, x))


def test_project_sequence_equals_project_on_every_set():
    rng = np.random.default_rng(35)
    sp = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    w = rng.uniform(0.5, 2.0, 6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    cases = [
        (ClosedBall(HilbertPoint(rng.uniform(-1.0, 1.0, 6), w), 1.3), w),
        (PositiveCone(6), None),
        (SubspaceSpan(tuple(HilbertPoint(col) for col in q.T)), None),
        (BochnerPointwiseCone(sp), flat_weights(sp, 2)),
        (BochnerConstantSubspace(sp), flat_weights(sp, 2)),
    ]
    for s, weights in cases:
        xs = [HilbertPoint(rng.uniform(-3.0, 3.0, 6), weights) for _ in range(7)]
        if weights is not None and s.__class__.__name__.startswith("Bochner"):
            xs += [BochnerFunction(sp, tuple(HilbertPoint(r) for r in x.coeffs.reshape(3, 2)))
                   for x in xs]
        for x, got in zip(xs, project_sequence(s, xs)):
            assert_same_point(got, project(s, x))


def test_project_sequence_outputs_are_read_only():
    sp = DiscreteProbabilitySpace(("a", "b"), np.array([0.25, 0.75]))
    f = BochnerFunction(sp, (pt(1.0, -2.0), pt(-3.0, 4.0)))
    flat = HilbertPoint(np.array([1.0, -2.0, -3.0, 4.0]), flat_weights(sp, 2))
    span = SubspaceSpan((pt(1.0, 0.0, 0.0), pt(0.0, 0.6, 0.8)))
    cases = [
        (UNIT_BALL, [pt(3.0, 4.0), pt(0.1, 0.2)]),
        (PositiveCone(2), [pt(-1.0, 2.0)]),
        (span, [pt(1.0, 2.0, 3.0)]),
        (SubspaceSpan((), ambient_dim=2), [pt(1.0, 2.0)]),
        (BochnerPointwiseCone(sp), [f, flat]),
        (BochnerConstantSubspace(sp), [f, flat]),
    ]
    for s, xs in cases:
        for u in project_sequence(s, xs):
            for p in (u.values if isinstance(u, BochnerFunction) else (u,)):
                with pytest.raises(ValueError):
                    p.coeffs[0] = 7.0
                if p.weights is not None:
                    with pytest.raises(ValueError):
                        p.weights[0] = 7.0


def test_project_sequence_error_types_and_indices():
    sp = DiscreteProbabilitySpace(("a", "b"), np.array([0.25, 0.75]))
    other = DiscreteProbabilitySpace(("a", "b"), np.array([0.5, 0.5]))
    good_flat = HilbertPoint(np.array([1.0, -2.0, -3.0, 4.0]), flat_weights(sp, 2))
    weighted_ball = ClosedBall(pt(0.0, 0.0, weights=(1.0, 2.0)), 1.0)
    span = SubspaceSpan((pt(1.0, 0.0, weights=(1.0, 2.0)),))
    cases = [
        (UNIT_BALL, [pt(2.0, 0.0), pt(1.0, 0.0, 0.0)], DimensionMismatch, 1),
        (weighted_ball, [pt(2.0, 0.0, weights=(1.0, 2.0)), pt(2.0, 0.0)], WeightMismatch, 1),
        (PositiveCone(2), [pt(1.0, 2.0), pt(1.0, 2.0), pt(1.0)], DimensionMismatch, 2),
        (span, [pt(1.0, 2.0, 3.0)], DimensionMismatch, 0),
        (span, [pt(1.0, 2.0, weights=(1.0, 2.0)), pt(1.0, 2.0)], WeightMismatch, 1),
        (SubspaceSpan((), ambient_dim=2), [pt(1.0, 2.0), pt(1.0)], DimensionMismatch, 1),
        (BochnerPointwiseCone(sp), [good_flat, pt(1.0, 2.0, 3.0)], DimensionMismatch, 1),
        (BochnerPointwiseCone(sp), [good_flat, pt(1.0, 2.0, 3.0, 4.0)], WeightMismatch, 1),
        (BochnerConstantSubspace(sp), [good_flat, good_flat,
                                       BochnerFunction(other, (pt(1.0), pt(2.0)))],
         SpaceMismatch, 2),
    ]
    for s, xs, error, index in cases:
        with pytest.raises(error) as batch:
            project_sequence(s, xs)
        with pytest.raises(error) as single:
            project(s, xs[index])
        assert str(batch.value) == f"element {index}: {single.value}"


def test_project_sequence_overflow_raises_value_error():
    xs = [pt(2.0, 0.0), pt(1.5e308, -1.5e308)]
    ball = ClosedBall(pt(-1.5e308, 1.5e308), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="coeffs must be finite"):
            project(ball, xs[1])
        with pytest.raises(ValueError, match="coeffs must be finite"):
            project_sequence(ball, xs)


def test_project_sequence_accepts_any_iterable():
    xs = [pt(2.0, 0.0), pt(0.0, 0.5)]
    got = project_sequence(UNIT_BALL, iter(xs))
    assert [u.coeffs.tolist() for u in got] == [[1.0, 0.0], [0.0, 0.5]]
