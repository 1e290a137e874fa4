"""Discrete Bochner space: simple functions, expectation, cone, constants."""

import numpy as np
import pytest

from hilproj import (
    BochnerFunction,
    DimensionMismatch,
    DiscreteProbabilitySpace,
    EmptySubset,
    HilbertPoint,
    NoHalfMeasureSubset,
    NotInCone,
    SpaceMismatch,
    UnknownAtom,
    WeightMismatch,
    bochner_distance,
    bochner_inner,
    bochner_norm,
    cone_inverse_check,
    constant_function,
    expectation,
    find_half_measure_subset,
    flat_weights,
    flatten,
    in_pointwise_cone,
    isometric_embedding,
    norm,
    orthonormal_system_report,
    project_constants,
    project_pointwise_cone,
    simple_function,
    subset_measure,
    unflatten,
)


def pt(*coeffs):
    return HilbertPoint(np.array(coeffs, dtype=float))


def space2():
    return DiscreteProbabilitySpace(("s1", "s2"), np.array([0.5, 0.5]))


def fn(space, *rows):
    return BochnerFunction(space, tuple(pt(*row) for row in rows))


def test_space_validation():
    with pytest.raises(ValueError):
        DiscreteProbabilitySpace(("a", "b"), np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        DiscreteProbabilitySpace(("a", "b"), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DiscreteProbabilitySpace(("a", "a"), np.array([0.5, 0.5]))
    sp = space2()
    assert sp.n_atoms == 2
    with pytest.raises(UnknownAtom):
        sp.index_of("zz")


def test_function_validation():
    sp = space2()
    with pytest.raises(ValueError):
        BochnerFunction(sp, (pt(1.0),))  # one value per atom
    with pytest.raises(ValueError):
        BochnerFunction(sp, (pt(1.0), pt(1.0, 2.0)))  # mixed dims
    f = fn(sp, (1.0, 2.0), (3.0, 4.0))
    assert f.point_dim == 2
    assert np.allclose(f.value_at("s2").coeffs, [3.0, 4.0])


def test_simple_function_golden():
    sp = space2()
    f = simple_function(sp, ("s1", "s2"), pt(1.0, 0.0))
    assert all(np.allclose(v.coeffs, [1.0, 0.0]) for v in f.values)
    f = simple_function(sp, ("s1",), pt(2.0, 0.0))
    assert np.allclose(f.value_at("s1").coeffs, [2.0, 0.0])
    assert np.allclose(f.value_at("s2").coeffs, [0.0, 0.0])
    with pytest.raises(EmptySubset):
        simple_function(sp, (), pt(1.0, 0.0))
    with pytest.raises(UnknownAtom):
        simple_function(sp, ("nope",), pt(1.0, 0.0))


def test_normalized_indicator_preserves_norm():
    # ||(1/sqrt(mu(A))) (1_A (x) x)|| = ||x|| at mu(A) = 1/4, x = (3,4)
    sp = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.25, 0.25, 0.5]))
    g = isometric_embedding(sp, ("a",), pt(3.0, 4.0))
    assert bochner_norm(g) == pytest.approx(5.0, abs=1e-12)
    assert subset_measure(sp, ("a",)) == 0.25


def test_bochner_inner_golden():
    sp = space2()
    one = constant_function(sp, pt(1.0, 0.0))
    assert bochner_inner(one, one) == pytest.approx(1.0, abs=1e-15)
    other = constant_function(sp, pt(0.0, 1.0))
    assert bochner_inner(one, other) == 0.0
    sp3 = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    f = fn(sp3, (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    assert bochner_inner(f, f) == pytest.approx(1.5, abs=1e-15)
    assert bochner_norm(f) == pytest.approx(np.sqrt(1.5), abs=1e-15)


def test_bochner_inner_space_mismatch():
    f = constant_function(space2(), pt(1.0, 0.0))
    other_space = DiscreteProbabilitySpace(("x", "y"), np.array([0.5, 0.5]))
    with pytest.raises(SpaceMismatch):
        bochner_inner(f, constant_function(other_space, pt(1.0, 0.0)))
    with pytest.raises(SpaceMismatch):
        bochner_inner(f, constant_function(space2(), pt(1.0, 0.0, 0.0)))


def test_expectation_golden():
    sp = space2()
    c = constant_function(sp, pt(2.0, -3.0))
    assert np.allclose(expectation(c).coeffs, [2.0, -3.0])
    f = fn(sp, (1.0, 0.0), (0.0, 1.0))
    assert np.allclose(expectation(f).coeffs, [0.5, 0.5])
    sp3 = DiscreteProbabilitySpace(("a", "b"), np.array([0.3, 0.7]))
    g = simple_function(sp3, ("a",), pt(1.0, 2.0))
    assert np.allclose(expectation(g).coeffs, [0.3, 0.6])


def test_expectation_is_linear():
    rng = np.random.default_rng(41)
    sp = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    for _ in range(100):
        f = fn(sp, *rng.standard_normal((3, 2)))
        h = fn(sp, *rng.standard_normal((3, 2)))
        t = rng.uniform(-2.0, 2.0)
        shifted = BochnerFunction(sp, tuple(a + t * b for a, b in zip(f.values, h.values)))
        lhs = expectation(shifted).coeffs
        rhs = expectation(f).coeffs + t * expectation(h).coeffs
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_project_pointwise_cone_golden():
    sp = space2()
    f = fn(sp, (1.0, 2.0), (0.5, 3.0))
    g = project_pointwise_cone(f)
    assert all(np.allclose(a.coeffs, b.coeffs) for a, b in zip(g.values, f.values))
    f = fn(sp, (1.0, -2.0), (-3.0, 4.0))
    g = project_pointwise_cone(f)
    assert np.allclose(g.values[0].coeffs, [1.0, 0.0])
    assert np.allclose(g.values[1].coeffs, [0.0, 4.0])
    f = fn(sp, (-1.0, -2.0), (-3.0, 0.0))
    g = project_pointwise_cone(f)
    assert all(np.allclose(v.coeffs, 0.0) for v in g.values)
    assert in_pointwise_cone(g)


def test_pointwise_cone_variational_principle():
    rng = np.random.default_rng(42)
    sp = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    for _ in range(20):
        f = fn(sp, *rng.uniform(-3.0, 3.0, (3, 2)))
        g = project_pointwise_cone(f)
        fg = [a - b for a, b in zip(f.values, g.values)]
        for _ in range(50):
            h = fn(sp, *rng.uniform(0.0, 4.0, (3, 2)))  # sampled cone element
            gap = sum(
                w * float(np.dot(d.coeffs, (a - b).coeffs))
                for w, d, a, b in zip(sp.weights, fg, g.values, h.values)
            )
            assert gap >= -1e-9


def test_project_constants_golden():
    sp = space2()
    c = constant_function(sp, pt(1.0, 2.0))
    out = project_constants(c)
    assert all(np.allclose(v.coeffs, [1.0, 2.0]) for v in out.values)
    f = fn(sp, (1.0, 0.0), (0.0, 1.0))
    out = project_constants(f)
    assert all(np.allclose(v.coeffs, [0.5, 0.5]) for v in out.values)


def test_project_constants_matches_normal_equations():
    # independent oracle: least squares onto span{1_S (x) e_n}
    rng = np.random.default_rng(43)
    sp = DiscreteProbabilitySpace(("a", "b", "c", "d"),
                                  np.array([0.1, 0.2, 0.3, 0.4]))
    d = 3
    w = flat_weights(sp, d)
    basis = np.zeros((4 * d, d))
    for n in range(d):
        col = np.tile(np.eye(d)[n], 4)
        basis[:, n] = col
    for _ in range(100):
        f = fn(sp, *rng.standard_normal((4, d)))
        flat = flatten(f).coeffs
        gram = basis.T @ (w[:, None] * basis)
        rhs = basis.T @ (w * flat)
        coef = np.linalg.solve(gram, rhs)
        oracle = basis @ coef
        ours = flatten(project_constants(f)).coeffs
        assert np.max(np.abs(ours - oracle)) <= 1e-10


def test_project_constants_residual_orthogonality():
    # <f - P_D f, 1_S (x) e_n> = 0 for every coordinate n
    rng = np.random.default_rng(44)
    sp = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    for _ in range(100):
        f = fn(sp, *rng.standard_normal((3, 3)))
        g = project_constants(f)
        residual = BochnerFunction(sp, tuple(a - b for a, b in zip(f.values, g.values)))
        for n in range(3):
            e = constant_function(sp, HilbertPoint(np.eye(3)[n]))
            assert abs(bochner_inner(residual, e)) <= 1e-12


def test_constants_representation_by_system_coefficients():
    # g(s) = sum_n <g, 1_S (x) e_n> e_n per atom, for g = P_D(f)
    rng = np.random.default_rng(45)
    sp = DiscreteProbabilitySpace(("a", "b"), np.array([0.25, 0.75]))
    for _ in range(100):
        f = fn(sp, *rng.standard_normal((2, 4)))
        g = project_constants(f)
        coeffs = np.array([
            bochner_inner(g, constant_function(sp, HilbertPoint(np.eye(4)[n])))
            for n in range(4)
        ])
        for v in g.values:
            assert np.max(np.abs(v.coeffs - coeffs)) <= 1e-12


def test_cone_inverse_check_golden():
    sp = space2()
    g = fn(sp, (1.0, 0.0), (2.0, 3.0))
    f = fn(sp, (1.0, -2.0), (2.0, 3.0))
    assert cone_inverse_check(g, f)
    assert not cone_inverse_check(g, g)  # the f != g clause
    bad = fn(sp, (1.5, -2.0), (2.0, 3.0))  # differs on a positive coefficient
    assert not cone_inverse_check(g, bad)
    with pytest.raises(NotInCone):
        cone_inverse_check(fn(sp, (-1.0, 0.0), (2.0, 3.0)), f)


def test_cone_inverse_check_accepts_zero_free_coefficients():
    # free coefficients may sit at exactly 0 as long as f != g somewhere
    sp = space2()
    g = fn(sp, (1.0, 0.0), (2.0, 0.0))
    f = fn(sp, (1.0, 0.0), (2.0, -1.0))
    assert cone_inverse_check(g, f)


def test_cone_inverse_check_agrees_with_projection():
    rng = np.random.default_rng(46)
    sp = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    hits = 0
    for _ in range(300):
        f = fn(sp, *rng.uniform(-2.0, 2.0, (3, 2)))
        g = project_pointwise_cone(f)
        if bochner_distance(f, g) <= 1e-9:
            continue
        hits += 1
        assert cone_inverse_check(g, f)
    assert hits > 100


def test_isometric_embedding_preserves_sums_and_differences():
    rng = np.random.default_rng(47)
    sp = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.25, 0.25, 0.5]))
    for subset in (("a",), ("a", "b"), ("a", "b", "c")):
        for _ in range(50):
            x = HilbertPoint(rng.standard_normal(3))
            y = HilbertPoint(rng.standard_normal(3))
            gx = isometric_embedding(sp, subset, x)
            gy = isometric_embedding(sp, subset, y)
            plus = BochnerFunction(sp, tuple(a + b for a, b in zip(gx.values, gy.values)))
            minus = BochnerFunction(sp, tuple(a - b for a, b in zip(gx.values, gy.values)))
            assert abs(bochner_norm(plus) - norm(x + y)) <= 1e-12
            assert abs(bochner_norm(minus) - norm(x - y)) <= 1e-12
            assert abs(bochner_inner(gx, gy) - np.dot(x.coeffs, y.coeffs)) <= 1e-12


def test_flatten_round_trip():
    sp = DiscreteProbabilitySpace(("a", "b"), np.array([0.25, 0.75]))
    f = fn(sp, (1.0, 2.0), (3.0, 4.0))
    p = flatten(f)
    assert np.allclose(p.coeffs, [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(p.weights, [0.25, 0.25, 0.75, 0.75])
    back = unflatten(sp, p)
    assert all(np.allclose(a.coeffs, b.coeffs) for a, b in zip(back.values, f.values))
    assert bochner_norm(f) == pytest.approx(norm(p), abs=1e-15)


def test_unflatten_validation():
    sp = DiscreteProbabilitySpace(("a", "b"), np.array([0.25, 0.75]))
    with pytest.raises(DimensionMismatch):
        unflatten(sp, pt(1.0, 2.0, 3.0))  # not a multiple of 2 atoms
    with pytest.raises(WeightMismatch):
        unflatten(sp, pt(1.0, 2.0, 3.0, 4.0))  # missing weights
    with pytest.raises(WeightMismatch):
        unflatten(sp, HilbertPoint(np.ones(4), np.array([0.3, 0.3, 0.7, 0.7])))


def test_find_half_measure_subset():
    assert find_half_measure_subset(space2()) == ("s1",)
    sp = DiscreteProbabilitySpace(("a", "b", "c", "d"),
                                  np.array([0.2, 0.3, 0.4, 0.1]))
    subset = find_half_measure_subset(sp)
    assert abs(subset_measure(sp, subset) - 0.5) <= 1e-12
    with pytest.raises(NoHalfMeasureSubset):
        find_half_measure_subset(
            DiscreteProbabilitySpace(("a", "b"), np.array([0.4, 0.6]))
        )
    with pytest.raises(NoHalfMeasureSubset):
        find_half_measure_subset(DiscreteProbabilitySpace(("a",), np.array([1.0])))


def test_orthonormal_system_report_golden():
    report = orthonormal_system_report(space2(), 4)
    assert report.subset_ids == ("s1",)
    assert np.allclose(report.gram, np.eye(4))
    assert report.orthonormality_deviation == 0.0
    # ||f||^2 = sum_{n<=4} 4^-n = 85/256
    assert report.counterexample_norm_sq == pytest.approx(0.33203125, abs=1e-15)
    assert report.max_abs_inner <= 1e-15
    # the counterexample flips sign across the half-measure split
    v1 = report.counterexample.value_at("s1").coeffs
    v2 = report.counterexample.value_at("s2").coeffs
    assert np.allclose(v1, [0.5, 0.25, 0.125, 0.0625])
    assert np.allclose(v2, -v1)


def test_orthonormal_system_gram_identity_small():
    report = orthonormal_system_report(space2(), 3)
    for n in range(3):
        for m in range(3):
            assert report.gram[n, m] == (1.0 if n == m else 0.0)


def test_orthonormal_system_report_rejects_single_atom():
    with pytest.raises(NoHalfMeasureSubset):
        orthonormal_system_report(
            DiscreteProbabilitySpace(("a",), np.array([1.0])), 4
        )


def test_a_repeated_atom_is_measured_once():
    sp = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    x = pt(3.0, 4.0)
    assert bochner_norm(isometric_embedding(sp, ["a", "a"], x)) == pytest.approx(5.0, abs=1e-12)
    assert subset_measure(sp, ["a", "b", "c", "a"]) == subset_measure(sp, ["a", "b", "c"])
    assert subset_measure(sp, ["b", "a", "b"]) == 0.3 + 0.2  # first-appearance order
