"""The per-set rules: exact Lem 3.1 face tests, the span's inverse-image
product, tolerance checks, and the Bochner sets as adapters over the flat
rules."""

import math

import numpy as np
import pytest

import hilproj.sets
from hilproj import (
    BochnerConstantSubspace,
    BochnerFunction,
    BochnerPointwiseCone,
    ClosedBall,
    DiscreteProbabilitySpace,
    HilbertPoint,
    PositiveCone,
    SubspaceSpan,
    ball_derivative,
    bochner_ball_derivative,
    classify_direction,
    classify_point,
    cone_derivative,
    cone_inverse_check,
    cone_inverse_translation_check,
    contains,
    derivative,
    dual_cone_contains,
    fd_derivative,
    flat_weights,
    flatten,
    generic_facts_derivative,
    homogeneity_check,
    in_inverse_image,
    in_pointwise_cone,
    inner,
    norm_directional_derivative,
    project,
    project_sequence,
)


def pt(*coeffs, weights=None):
    return HilbertPoint(np.array(coeffs, dtype=float),
                        None if weights is None else np.array(weights, dtype=float))


# -- Lem 3.1: exact face tests instead of a containment probe ----------------


def test_cone_small_outward_component_is_not_a_segment():
    # the probe accepted v = (1, -1e-4) at x = (1, 0); the derivative there
    # is (1, 0), not v
    res = derivative(PositiveCone(2), pt(1.0, 0.0), pt(1.0, -1e-4))
    assert res.case_tag != "Lem3.1"
    assert not res.covered
    res = generic_facts_derivative(PositiveCone(2), pt(1.0, 0.0), pt(1.0, -1e-4))
    assert not res.covered


def test_span_small_normal_component_is_not_a_segment():
    span = SubspaceSpan((pt(1.0, 0.0, 0.0), pt(0.0, 1.0, 0.0)))
    res = derivative(span, pt(1.0, 0.5, 0.0), pt(0.3, -0.2, 5e-4))
    assert res.case_tag != "Lem3.1"
    assert not res.covered


def test_face_tests_accept_exact_segments():
    cone = PositiveCone(3)
    res = derivative(cone, pt(1.0, 0.0, 2.0), pt(-3.0, 0.0, 1.0))
    assert res.case_tag == "Lem3.1"
    assert np.array_equal(res.value.coeffs, [-3.0, 0.0, 1.0])
    span = SubspaceSpan((pt(1.0, 0.0, 0.0), pt(0.0, 1.0, 0.0)))
    res = derivative(span, pt(1.0, 0.5, 0.0), pt(0.3, -0.2, 0.0))
    assert res.case_tag == "Lem3.1"
    # the ball has no segment through a sphere point
    ball = ClosedBall(pt(0.0, 0.0), 1.0)
    assert not generic_facts_derivative(ball, pt(1.0, 0.0), pt(0.0, 1.0)).covered


def test_face_test_on_the_bochner_cone_and_the_constants():
    space = DiscreteProbabilitySpace(("a", "b"), np.array([0.25, 0.75]))
    fx = BochnerFunction(space, (pt(1.0, 0.0), pt(2.0, 3.0)))
    along = BochnerFunction(space, (pt(-1.0, 0.0), pt(0.5, 1.0)))
    outward = BochnerFunction(space, (pt(-1.0, -1e-4), pt(0.5, 1.0)))
    cone = BochnerPointwiseCone(space)
    res = derivative(cone, fx, along)
    assert res.case_tag == "Lem3.1"
    assert isinstance(res.value, BochnerFunction)
    assert not derivative(cone, fx, outward).covered
    consts = BochnerConstantSubspace(space)
    c = BochnerFunction(space, (pt(1.0, 2.0), pt(1.0, 2.0)))
    res = generic_facts_derivative(consts, c, BochnerFunction(space, (pt(3.0, 1.0),) * 2))
    assert res.case_tag == "Lem3.1"
    nearly = BochnerFunction(space, (pt(3.0, 1.0), pt(3.0, 1.0 + 1e-4)))
    assert not generic_facts_derivative(consts, c, nearly).covered


@pytest.mark.parametrize("lam", [1e-3, 1e3])
def test_lem31_is_positively_homogeneous_across_scales(lam):
    cone = PositiveCone(3)
    span = SubspaceSpan((pt(0.6, 0.8, 0.0), pt(-0.8, 0.6, 0.0)))
    cases = [
        (cone, pt(1.0, 0.0, 2.0), pt(-3.0, 0.0, 1.0)),
        (span, pt(1.4, 0.2, 0.0), pt(0.2, -1.1, 0.0)),
    ]
    for s, x, v in cases:
        assert derivative(s, x, v).case_tag == "Lem3.1"
        assert derivative(s, x, lam * v).case_tag == "Lem3.1"
        assert homogeneity_check(lambda a, b, s=s: derivative(s, a, b), x, v, lam)


# -- the span's inverse image as one matrix product --------------------------


def _loop_inverse_member(span, y, x, tol):
    w = x - y
    return all(abs(inner(w, u)) <= tol for u in span.generators)


def test_span_inverse_member_matches_the_generator_loop():
    rng = np.random.default_rng(71)
    tol = 1e-9
    for n_gens, dim in ((1, 3), (4, 9), (12, 30)):
        weights = rng.uniform(0.5, 2.0, dim)
        q = np.linalg.qr(rng.standard_normal((dim, n_gens)))[0]
        basis = q.T / np.sqrt(weights)  # orthonormal under the weights
        span = SubspaceSpan(tuple(HilbertPoint(u, weights) for u in basis))
        y = HilbertPoint(rng.uniform(-2.0, 2.0, n_gens) @ basis, weights)
        for factor in (0.5, 0.999, 1.001, 2.0, 0.0):
            # x - y has component factor * tol along the last generator, plus
            # an arbitrary part orthogonal to the span
            normal = rng.standard_normal(dim)
            normal -= (basis * weights) @ normal @ basis
            x = y + HilbertPoint(normal + factor * tol * basis[-1], weights)
            expected = _loop_inverse_member(span, y, x, tol)
            assert in_inverse_image(span, y, x, tol=tol) == expected
            assert expected == (factor < 1.0)


# -- tolerance checks at every public function that takes one ----------------

_BALL = ClosedBall(pt(0.0, 0.0), 1.0)
_CONE = PositiveCone(2)
_SPACE = DiscreteProbabilitySpace(("a", "b"), np.array([0.5, 0.5]))
_F = BochnerFunction(_SPACE, (pt(0.5, 0.0), pt(0.0, 0.5)))
_TOL_CALLS = {
    "contains": lambda tol: contains(_BALL, pt(0.0, 0.0), tol),
    "classify_point": lambda tol: classify_point(_BALL, pt(0.0, 0.0), tol),
    "in_inverse_image": lambda tol: in_inverse_image(_CONE, pt(1.0, 0.0), pt(1.0, -1.0),
                                                     tol=tol),
    "dual_cone_contains": lambda tol: dual_cone_contains(_CONE, pt(-1.0, 0.0), tol),
    "cone_inverse_translation_check": lambda tol: cone_inverse_translation_check(
        _CONE, pt(1.0, 0.0), 2.0, pt(1.0, -1.0), tol),
    "classify_direction": lambda tol: classify_direction(
        _BALL, pt(1.0, 0.0), pt(0.0, 1.0), tol),
    "ball_derivative": lambda tol: ball_derivative(_BALL, pt(2.0, 0.0), pt(0.0, 1.0), tol),
    "cone_derivative": lambda tol: cone_derivative(_CONE, pt(1.0, 0.0), pt(1.0, 1.0), tol),
    "generic_facts_derivative": lambda tol: generic_facts_derivative(
        _CONE, pt(1.0, 0.0), pt(1.0, 0.0), tol),
    "derivative": lambda tol: derivative(_CONE, pt(1.0, 0.0), pt(1.0, 1.0), tol),
    "derivative_ball": lambda tol: derivative(_BALL, pt(2.0, 0.0), pt(0.0, 1.0), tol),
    "bochner_ball_derivative": lambda tol: bochner_ball_derivative(_F, _F, tol),
    "norm_directional_derivative": lambda tol: norm_directional_derivative(
        pt(1.0, 0.0), pt(0.0, 1.0), tol),
    "fd_derivative": lambda tol: fd_derivative(_BALL, pt(2.0, 0.0), pt(0.0, 1.0), tol),
    "in_pointwise_cone": lambda tol: in_pointwise_cone(_F, tol),
    "cone_inverse_check": lambda tol: cone_inverse_check(
        _F, BochnerFunction(_SPACE, (pt(0.5, -1.0), pt(-2.0, 0.5))), tol),
}


@pytest.mark.parametrize("name", sorted(_TOL_CALLS))
@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_bad_tolerance_is_rejected(name, tol):
    _TOL_CALLS[name](1e-9)  # the call itself is valid
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        _TOL_CALLS[name](tol)


# -- the Bochner sets as adapters over the flat rules -------------------------


def _space(rng, k):
    w = rng.uniform(0.5, 1.5, k)
    return DiscreteProbabilitySpace(tuple(f"s{i}" for i in range(k)), w / w.sum())


def _function(space, rows):
    return BochnerFunction(space, tuple(HilbertPoint(r) for r in rows))


def _cone_inputs(rng, k, d):
    """(x, v) atom arrays over the cone's case regions: boundary, dual, mixed."""
    boundary = rng.uniform(0.05, 2.0, (k, d)) * (rng.random((k, d)) < 0.6)
    along = rng.uniform(-2.0, 2.0, (k, d)) * (boundary > 0.0)
    mixed = rng.uniform(-2.0, 2.0, (k, d))
    pairs = [
        (boundary, rng.uniform(0.0, 2.0, (k, d))),
        (-rng.uniform(0.0, 2.0, (k, d)), -rng.uniform(0.0, 2.0, (k, d))),
        (rng.uniform(0.05, 2.0, (k, d)), mixed),
        (boundary, along),
        (mixed, -0.7 * np.minimum(mixed, 0.0)),
        (-rng.uniform(0.05, 2.0, (k, d)), mixed),
        (boundary, mixed),
    ]
    return [(x, v) for x, v in pairs if np.any(v != 0.0)]


def _forms(space, a):
    """The function form and the flat form of one (k, d) array."""
    return _function(space, a), HilbertPoint(a.ravel(), flat_weights(space, a.shape[1]))


def _flat(p):
    return flatten(p) if isinstance(p, BochnerFunction) else p


def _same(a, b):
    """Bit-identical coefficients, and the form of a is the one asked for."""
    return np.array_equal(_flat(a).coeffs, _flat(b).coeffs)


@pytest.mark.parametrize("k", [1, 3, 200])
@pytest.mark.parametrize("d", [1, 3])
def test_bochner_cone_equals_the_flat_cone(k, d):
    rng = np.random.default_rng(1000 * k + d)
    space = _space(rng, k)
    s, flat_cone = BochnerPointwiseCone(space), PositiveCone(k * d)
    for x, v in _cone_inputs(rng, k, d):
        y = np.where(x > 0.0, x, 0.0)
        for form in (0, 1):
            fx, fv, fy = (_forms(space, a)[form] for a in (x, v, y))
            px, pv, py = (_forms(space, a)[1] for a in (x, v, y))
            u = project(s, fx)
            assert isinstance(u, BochnerFunction) == (form == 0)
            assert _same(u, project(flat_cone, px))
            assert contains(s, fx) == contains(flat_cone, px)
            assert classify_point(s, fy) == classify_point(flat_cone, py)
            assert in_inverse_image(s, fy, fx) == in_inverse_image(flat_cone, py, px)
            assert in_inverse_image(s, fy, fv) == in_inverse_image(flat_cone, py, pv)
            got, want = derivative(s, fx, fv), derivative(flat_cone, px, pv)
            assert got.case_tag == want.case_tag
            if want.covered:
                assert isinstance(got.value, BochnerFunction) == (form == 0)
                assert _same(got.value, want.value)
        seq = project_sequence(s, [_function(space, x), _forms(space, x)[1]])
        want = project(flat_cone, _forms(space, x)[1])
        assert isinstance(seq[0], BochnerFunction) and _same(seq[0], want)
        assert isinstance(seq[1], HilbertPoint) and _same(seq[1], want)


@pytest.mark.parametrize("k", [1, 3, 200])
@pytest.mark.parametrize("d", [1, 3])
def test_bochner_constants_match_the_expectation_loop(k, d):
    rng = np.random.default_rng(2000 * k + d)
    space = _space(rng, k)
    s = BochnerConstantSubspace(space)

    def mean(a):
        acc = np.zeros(a.shape[1])
        for mu, row in zip(space.weights, a):
            acc += mu * row
        return acc

    for _ in range(3):
        x, h = rng.uniform(-2.0, 2.0, (k, d)), rng.uniform(-2.0, 2.0, (k, d))
        bound = 1e-12 * max(1.0, float(np.max(np.abs(x))))
        want = np.tile(mean(x), k)
        want_h = np.tile(mean(h), k)
        for form in (0, 1):
            fx, fh = _forms(space, x)[form], _forms(space, h)[form]
            u = project(s, fx)
            assert isinstance(u, BochnerFunction) == (form == 0)
            assert np.max(np.abs(_flat(u).coeffs - want)) <= bound
            seq = project_sequence(s, [fx, fx])
            assert all(np.max(np.abs(_flat(p).coeffs - want)) <= bound for p in seq)
            res = derivative(s, fx, fh)
            assert res.case_tag == "Thm7.2"
            assert isinstance(res.value, BochnerFunction) == (form == 0)
            assert np.max(np.abs(_flat(res.value).coeffs - want_h)) <= 1e-12 * max(
                1.0, float(np.max(np.abs(h))))
            assert contains(s, u) and contains(s, fx) == (k == 1)
            assert in_inverse_image(s, u, fx)
            shifted = _forms(space, x + 1e-3)[form]
            assert not in_inverse_image(s, u, shifted)


def test_bochner_batch_functions_come_from_one_matrix(monkeypatch):
    rng = np.random.default_rng(5)
    k, d, n = 200, 3, 6
    space = _space(rng, k)
    xs = [_function(space, rng.uniform(-2.0, 2.0, (k, d))) for _ in range(n)]
    calls = []
    real = hilproj.sets._points_from_rows

    def counting(rows, weights=None):
        calls.append(np.shape(rows))
        return real(rows, weights)

    monkeypatch.setattr(hilproj.sets, "_points_from_rows", counting)
    # the cone's atom values form one (n*k, d) matrix; a constant function
    # repeats its mean, so the constants need only the (n, d) means
    for s, shape in ((BochnerPointwiseCone(space), (n * k, d)),
                     (BochnerConstantSubspace(space), (n, d))):
        calls.clear()
        out = project_sequence(s, xs)
        assert calls == []
        bases = {id(v.coeffs.base) for f in out for v in f.values}
        assert len(bases) == 1


# -- the private protocol and the test pairs each set draws ------------------

# called on the set itself
_PROTOCOL = ("_project", "_project_rows", "_member_rows", "_sample_pair")
# called on the flat set that _flat_form returns (the Bochner cone's is the
# positive cone of its k*d coordinates)
_FLAT_PROTOCOL = ("_contains", "_interior", "_inverse_member", "_inverse_image_interior",
                  "_segment_direction")


def _protocol_sets():
    space = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    return [
        ClosedBall(pt(0.3, -0.2, 0.1, weights=[0.5, 1.0, 2.0]), 1.3),
        PositiveCone(4),
        SubspaceSpan((pt(0.6, 0.8, 0.0), pt(-0.8, 0.6, 0.0))),
        SubspaceSpan((), ambient_dim=3),
        SubspaceSpan((pt(0.6, 0.8), pt(-0.8, 0.6))),
        BochnerPointwiseCone(space),
        BochnerConstantSubspace(space),
    ]


_SET_IDS = ["ball", "cone", "span", "singleton", "full_span", "bochner_cone",
            "bochner_constants"]


@pytest.mark.parametrize("s", _protocol_sets(), ids=_SET_IDS)
def test_every_set_class_defines_the_protocol(s):
    for name in _PROTOCOL:
        assert callable(getattr(type(s), name, None)), name
    assert isinstance(s._vi_slack, float) and s._vi_slack > 0.0
    x, _ = s._sample_pair(np.random.default_rng(0), False)
    flat = hilproj.sets._flat_form(s, x)[0]
    for name in _FLAT_PROTOCOL:
        assert callable(getattr(type(flat), name, None)), name


@pytest.mark.parametrize("s", _protocol_sets(), ids=_SET_IDS)
def test_covered_sample_pairs_are_covered(s):
    # property_battery counts an uncovered pair as a homogeneity failure
    rng = np.random.default_rng(17)
    for _ in range(200):
        x, v = s._sample_pair(rng, True)
        assert derivative(s, x, v).covered
