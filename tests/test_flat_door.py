"""The door of the flat sets, and the clauses that ask their set.

A ball, cone or span checks the dimension of every argument of a query once,
in ``sets._flat_form``, before any rule runs: a wrong-dimension argument is a
``DimensionMismatch`` before ``ZeroDirection`` or ``NotInSet``, with one
message on every entry point. Thm 5.1 asks the cone for membership and dual
membership, Lem 3.1 asks the span and the constants for membership at the
direction's scale, Prop 7.1 reads the flat points it hands the ball, and the
span batch is its single projection. The sweeps compare those verdicts with
the formulas they replace, at scales 1e-12..1e12.
"""

import inspect

import numpy as np
import pytest

import hilproj.sets
from hilproj import (
    BochnerConstantSubspace,
    BochnerFunction,
    ClosedBall,
    DimensionMismatch,
    DiscreteProbabilitySpace,
    HilbertPoint,
    PositiveCone,
    SubspaceSpan,
    WeightMismatch,
    ball_inverse_ray,
    ball_region_point,
    bochner_ball_derivative,
    bochner_inner,
    bochner_norm,
    classify_direction,
    classify_point,
    cone_derivative,
    contains,
    derivative,
    fd_derivative,
    generic_facts_derivative,
    in_inverse_image,
    norm,
    project,
    project_sequence,
    span_component,
    variational_certificate,
)

TOL = 1e-9


def pt(*c, weights=None):
    return HilbertPoint(np.array(c, dtype=float), weights)


# each flat set of dimension 2, its noun, and a point of dimension 2 outside it
FLAT = {
    "ball": (ClosedBall(pt(0.0, 0.0), 1.0), pt(3.0, 0.0)),
    "cone": (PositiveCone(2), pt(-1.0, 0.0)),
    "span": (SubspaceSpan((pt(1.0, 0.0),)), pt(0.0, 1.0)),
}
X3, ZERO3 = pt(1.0, 2.0, 3.0), pt(0.0, 0.0, 0.0)


def test_zero_direction_of_another_dimension_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="^ball of dimension 2 got 3/3$"):
        derivative(ClosedBall(pt(0.0, 0.0), 1.0), X3, ZERO3)


def test_candidate_outside_the_set_with_a_point_of_another_dimension():
    ball, outside = FLAT["ball"]
    with pytest.raises(DimensionMismatch, match="^ball of dimension 2 got 2/3$"):
        in_inverse_image(ball, outside, X3)


_DIRECTION_CALLS = {
    "derivative": derivative,
    "generic_facts_derivative": generic_facts_derivative,
    "fd_derivative": fd_derivative,
}


@pytest.mark.parametrize("name", sorted(FLAT))
@pytest.mark.parametrize("call", sorted(_DIRECTION_CALLS))
def test_dimension_is_checked_before_the_zero_direction(name, call):
    s, _ = FLAT[name]
    with pytest.raises(DimensionMismatch, match=f"^{name} of dimension 2 got 3/3$"):
        _DIRECTION_CALLS[call](s, X3, ZERO3)


def test_classify_direction_checks_the_dimension_before_the_zero_direction():
    ball, _ = FLAT["ball"]
    with pytest.raises(DimensionMismatch, match="^ball of dimension 2 got 3/3$"):
        classify_direction(ball, X3, ZERO3)


@pytest.mark.parametrize("name", sorted(FLAT))
@pytest.mark.parametrize("query", [contains, classify_point])
def test_membership_queries_name_the_set(name, query):
    s, _ = FLAT[name]
    with pytest.raises(DimensionMismatch, match=f"^{name} of dimension 2 got 3$"):
        query(s, X3)


@pytest.mark.parametrize("name", sorted(FLAT))
def test_dimension_is_checked_before_membership_of_the_candidate(name):
    s, outside = FLAT[name]
    with pytest.raises(DimensionMismatch, match=f"^{name} of dimension 2 got 2/3$"):
        in_inverse_image(s, outside, X3)
    with pytest.raises(DimensionMismatch, match=f"^{name} of dimension 2 got 3/2$"):
        variational_certificate(s, X3, outside, samples=5)


@pytest.mark.parametrize("name", sorted(FLAT))
def test_one_message_names_every_argument_dimension(name):
    s, _ = FLAT[name]
    x2 = pt(0.5, 0.25)
    cases = [
        (lambda: derivative(s, x2, X3), "2/3"),
        (lambda: generic_facts_derivative(s, X3, x2), "3/2"),
        (lambda: in_inverse_image(s, x2, pt(1.0)), "2/1"),
        (lambda: contains(s, pt(1.0)), "1"),
    ]
    for call, dims in cases:
        with pytest.raises(DimensionMismatch) as err:
            call()
        assert str(err.value) == f"{name} of dimension 2 got {dims}"


def test_cone_derivative_keeps_its_message():
    with pytest.raises(DimensionMismatch, match="^cone of dimension 3 got 2/3$"):
        cone_derivative(PositiveCone(3), pt(1.0, 2.0), pt(1.0, 0.0, -1.0))


def test_the_empty_span_component_checks_the_dimension():
    with pytest.raises(DimensionMismatch, match="^dimensions 2 and 3 differ$"):
        span_component(SubspaceSpan((), ambient_dim=3), pt(1.0, 2.0))


@pytest.mark.parametrize("weighted", [False, True])
def test_the_inverse_ray_is_y_plus_t_times_y_minus_c_bit_for_bit(weighted):
    rng = np.random.default_rng(26)
    for r in np.logspace(-8.0, 8.0, 17):
        w = rng.uniform(0.5, 2.0, 4) if weighted else None
        ball = ClosedBall(HilbertPoint(r * rng.uniform(-3.0, 3.0, 4), w), r)
        for _ in range(20):
            y = ball_region_point(ball, "sphere", rng)
            t = float(rng.uniform(0.0, 10.0))
            ray = ball_inverse_ray(ball, y, t)
            assert ray.coeffs.tobytes() == (y.coeffs + t * (y.coeffs - ball.center.coeffs)).tobytes()
            assert ray.weights is y.weights


def test_no_rule_checks_the_dimension_again():
    assert not hasattr(hilproj.sets, "_in_cone")
    for cls in (ClosedBall, PositiveCone, SubspaceSpan):
        for rule in (cls._contains, cls._inverse_member):
            assert "_check_dim" not in inspect.getsource(rule)


def test_cone_membership_and_dual_membership():
    cone = PositiveCone(3)
    assert cone._contains(pt(0.0, -TOL, 2.0), TOL)
    assert not cone._contains(pt(0.0, -2 * TOL, 2.0), TOL)
    assert cone._dual_contains(pt(0.0, TOL, -2.0), TOL)
    assert not cone._dual_contains(pt(0.0, 2 * TOL, -2.0), TOL)


def _weighted_span(rng, dim, k):
    """k generators orthonormal under random weights, and one unit vector orthogonal to them."""
    w = rng.uniform(0.5, 2.0, dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    cols = q / np.sqrt(w)[:, None]
    span = SubspaceSpan(tuple(HilbertPoint(cols[:, i], w) for i in range(k)))
    return span, HilbertPoint(cols[:, k], w)


def _spans():
    rng = np.random.default_rng(11)
    return {
        "empty": SubspaceSpan((), ambient_dim=4),
        "full": SubspaceSpan(tuple(pt(*row) for row in np.eye(4))),
        "weighted": _weighted_span(rng, 4, 2)[0],
    }


@pytest.mark.parametrize("name", ["empty", "full", "weighted"])
def test_span_batch_equals_single_projections_bit_for_bit(name):
    s = _spans()[name]
    rng = np.random.default_rng(5)
    xs = [HilbertPoint(rng.uniform(-3.0, 3.0, 4), s._weights) for _ in range(7)]
    batch = project_sequence(s, xs)
    for u, x in zip(batch, xs):
        single = project(s, x)
        assert u.coeffs.tobytes() == single.coeffs.tobytes()
        assert u.weights is x.weights
        assert not u.coeffs.flags.writeable


@pytest.mark.parametrize("name", ["empty", "full", "weighted"])
def test_span_batch_errors_name_the_element(name):
    s = _spans()[name]
    w = s._weights
    good = HilbertPoint(np.ones(4), w)
    bad = [(pt(1.0, 1.0, 1.0), DimensionMismatch)]
    if w is not None:
        bad.append((pt(1.0, 1.0, 1.0, 1.0), WeightMismatch))
    for x, error in bad:
        with pytest.raises(error) as batch:
            project_sequence(s, [good, good, x])
        with pytest.raises(error) as single:
            project(s, x)
        assert str(batch.value) == f"element 2: {single.value}"


def _log_uniform(rng, low, high):
    return 10.0 ** rng.uniform(low, high)


def _near_tie(rng, low=-12, high=-6):
    """1 +- a relative margin log-uniform in [10**low, 10**high]."""
    return 1.0 + rng.choice([-1.0, 1.0]) * _log_uniform(rng, low, high)


def _space(rng, k):
    w = rng.uniform(0.2, 1.0, k)
    return DiscreteProbabilitySpace(tuple(f"s{i}" for i in range(k)), w / w.sum())


def _function(sp, rows):
    return BochnerFunction(sp, tuple(HilbertPoint(r) for r in rows))


def _bochner_orthogonal(f, h):
    """The atom-by-atom orthogonality verdict that Prop 7.1 took before."""
    return abs(bochner_inner(f, h)) <= TOL * bochner_norm(h)


def _near_orthogonal(sp, f, hperp, margin):
    """hperp plus the multiple of f that puts |<f, h>| at margin * tol * ||hperp||."""
    ff = _function(sp, f)
    c = TOL * bochner_norm(_function(sp, hperp)) / bochner_inner(ff, ff) * margin
    return ff, _function(sp, hperp + c * f)


def _prop71_tag(f, h):
    """The tag an exterior f takes: (ii)(b) when h is orthogonal to f, else (ii)(a)."""
    return "Prop7.1(ii)(b)" if _bochner_orthogonal(f, h) else "Prop7.1(ii)(a)"


def test_prop71_orthogonality_matches_the_atom_sums_without_cancellation():
    # f and the orthogonal part of h on disjoint coordinates: every term of
    # <f, h> has one sign, so neither sum cancels and the verdicts agree from
    # a relative margin of 1e-12 to the tie, for f and h at any scale
    rng = np.random.default_rng(71)
    seen = set()
    for _ in range(2000):
        k, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        if k * d < 2:
            k, d = 2, 1
        sp = _space(rng, k)
        mask = np.zeros(k * d, dtype=bool)
        mask[rng.choice(k * d, size=int(rng.integers(1, k * d)), replace=False)] = True
        mask = mask.reshape(k, d)
        f = rng.uniform(0.5, 2.0, (k, d)) * rng.choice([-1.0, 1.0], (k, d)) * mask
        f *= _log_uniform(rng, 0.5, 12) / bochner_norm(_function(sp, f))
        hperp = rng.standard_normal((k, d)) * ~mask * _log_uniform(rng, -12, 12)
        ff, h = _near_orthogonal(sp, f, hperp, _near_tie(rng))
        tag = bochner_ball_derivative(ff, h).case_tag
        assert tag == _prop71_tag(ff, h)
        seen.add(tag)
    assert seen == {"Prop7.1(ii)(a)", "Prop7.1(ii)(b)"}


def test_prop71_orthogonality_matches_the_atom_sums_beyond_rounding():
    # a general h cancels in <f, h>, whose rounding error is about 1e-16 ||f|| ||h||,
    # 1e-7 ||f|| of the tie tol ||h||: nearer the tie either sum may round to
    # either side, so the margins start at 1e-5, with ||f|| at most 10
    rng = np.random.default_rng(72)
    seen = set()
    for _ in range(2000):
        k, d = int(rng.integers(1, 5)), int(rng.integers(2, 4))
        sp = _space(rng, k)
        f = rng.standard_normal((k, d))
        f *= rng.uniform(1.5, 10.0) / bochner_norm(_function(sp, f))
        h0 = rng.standard_normal((k, d)) * _log_uniform(rng, -12, 12)
        ff = _function(sp, f)
        hperp = h0 - bochner_inner(ff, _function(sp, h0)) / bochner_inner(ff, ff) * f
        ff, h = _near_orthogonal(sp, f, hperp, _near_tie(rng, -5, -2))
        tag = bochner_ball_derivative(ff, h).case_tag
        assert tag == _prop71_tag(ff, h)
        seen.add(tag)
    assert seen == {"Prop7.1(ii)(a)", "Prop7.1(ii)(b)"}


def test_prop71_orthogonality_on_the_sphere():
    rng = np.random.default_rng(73)
    seen = set()
    for _ in range(500):
        sp = _space(rng, 3)
        mask = np.array([[True, False], [False, True], [True, False]])
        f = rng.uniform(0.5, 2.0, (3, 2)) * mask
        f /= bochner_norm(_function(sp, f))
        hperp = rng.standard_normal((3, 2)) * ~mask * _log_uniform(rng, -12, 12)
        ff, h = _near_orthogonal(sp, f, hperp, _near_tie(rng))
        tag = bochner_ball_derivative(ff, h).case_tag
        assert tag == ("Prop7.1(iii)(b)" if _bochner_orthogonal(ff, h) else "Prop7.1(iii)(a)")
        seen.add(tag)
    assert seen == {"Prop7.1(iii)(a)", "Prop7.1(iii)(b)"}


def test_span_segment_verdict_matches_the_residual_formula():
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(2000):
        s, normal = _weighted_span(rng, 5, 2)
        x = span_component(s, HilbertPoint(rng.uniform(-2.0, 2.0, 5), s._weights))
        inside = span_component(s, HilbertPoint(rng.standard_normal(5), s._weights))
        inside = _log_uniform(rng, -12, 12) * inside
        size = max(1.0, float(np.sqrt(np.sum(s._weights * inside.coeffs**2))))
        v = inside + (TOL * size * _near_tie(rng)) * normal
        old = norm(v - span_component(s, v)) <= TOL * max(1.0, norm(v))
        tag = generic_facts_derivative(s, x, v).case_tag
        assert tag == ("Lem3.1" if old else "NotCoveredByPaper")
        seen.add(tag)
    assert seen == {"Lem3.1", "NotCoveredByPaper"}


def test_constants_segment_verdict_matches_the_atom_formula():
    rng = np.random.default_rng(32)
    seen = set()
    for _ in range(2000):
        k, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        sp = _space(rng, k)
        s = BochnerConstantSubspace(sp)
        level = np.tile(rng.standard_normal(d), (k, 1)) * _log_uniform(rng, -12, 12)
        gap = rng.standard_normal((k, d))
        gap -= sp.weights @ gap
        spread = s._spread(gap)
        size = float(np.sqrt(sp.weights @ np.sum(level * level, axis=1)))
        values = level + gap * (TOL * max(1.0, size) * _near_tie(rng) / spread)
        old = s._spread(values) <= TOL * max(
            1.0, float(np.sqrt(sp.weights @ np.sum(values * values, axis=1))))
        x = _function(sp, np.tile(rng.standard_normal(d), (k, 1)))
        tag = generic_facts_derivative(s, x, _function(sp, values)).case_tag
        assert tag == ("Lem3.1" if old else "NotCoveredByPaper")
        seen.add(tag)
    assert seen == {"Lem3.1", "NotCoveredByPaper"}
