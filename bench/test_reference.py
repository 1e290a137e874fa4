"""Tests of the benchmark's independent reference.

Run from the root of the checkout:

    python3 -m pytest bench/test_reference.py -q

Hand-worked cases first, then agreement with hilproj's difference-quotient
oracle ``fd_derivative`` on a seeded sample of every case region.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference as ref  # noqa: E402

import hilproj as hp  # noqa: E402


# -- hand-worked cases ------------------------------------------------------------

@pytest.mark.parametrize("x, v, want", [
    ((0.5, 0.0), (3.0, -1.0), (3.0, -1.0)),   # (i) interior: v
    ((2.0, 0.0), (0.0, 1.0), (0.0, 0.5)),     # (ii) exterior: (r/|d|) tangential part
    ((2.0, 0.0), (1.0, 1.0), (0.0, 0.5)),     # (ii) the radial part drops out
    ((2.0, 0.0), (3.0, 0.0), (0.0, 0.0)),     # (ii)(b) radial direction: theta
    ((1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),     # (iii) Up: v - <d, v> d / r^2
    ((1.0, 0.0), (0.0, 1.0), (0.0, 1.0)),     # (iii) tangent counts as Up
    ((1.0, 0.0), (-1.0, 1.0), (-1.0, 1.0)),   # (iii) Down: v
])
def test_ball_derivative_unit_ball(x, v, want):
    got = ref.ball_derivative(np.zeros(2), 1.0, np.array(x), np.array(v))
    assert np.allclose(got, want, atol=1e-15)


def test_ball_derivative_shifted_weighted():
    # centre (1, 1), radius 2, weights (4, 1): x - c = (0, 4) has norm 4
    w = np.array([4.0, 1.0])
    got = ref.ball_derivative(np.array([1.0, 1.0]), 2.0, np.array([1.0, 5.0]),
                              np.array([1.0, 2.0]), w)
    # g = <(0, 4), (1, 2)>_w = 8; (2/4) * ((1, 2) - (8/16) (0, 4)) = (0.5, 0)
    assert np.allclose(got, [0.5, 0.0], atol=1e-15)


def test_sphere_band_is_relative():
    for r in (1e-14, 1.0, 1e9):
        u = np.array([1.0, 2.0, 2.0]) / 3.0
        assert ref.direction_class(np.zeros(3), r, r * u, np.array([1.0, 0.0, 0.0])) == "Up"
    # 50 r off a radius-1e-14 ball is exterior, so (ii) applies
    got = ref.ball_derivative(np.zeros(2), 1e-14, np.array([5e-13, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(got, [0.0, 0.02], atol=1e-15)


def test_cone_critical_cone_rule():
    x = np.array([1.0, 0.0, -1.0, 0.0])
    v = np.array([2.0, -3.0, 5.0, 4.0])
    assert np.array_equal(ref.cone_derivative(x, v), [2.0, 0.0, 0.0, 4.0])
    # F1: the containment probe's input; the outward component is clipped
    assert np.array_equal(ref.cone_derivative(np.array([1.0, 0.0]), np.array([1.0, -1e-4])),
                          [1.0, 0.0])


def test_span_derivative_is_the_projection():
    gens = np.eye(3)[:2]
    got = ref.span_derivative(gens, np.array([0.3, -0.2, 5e-4]))
    assert np.array_equal(got, [0.3, -0.2, 0.0])


def test_constants_expectation():
    mu = np.array([0.25, 0.75])
    h = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(ref.constants_derivative(mu, h), [[2.5, 3.5], [2.5, 3.5]])
    batch = np.stack([h, -h])
    assert np.allclose(ref.constants_project(mu, batch)[1], [[-2.5, -3.5], [-2.5, -3.5]])


def test_batch_projections():
    xs = np.array([[3.0, 4.0], [0.3, 0.4], [0.0, 0.0]])
    assert np.allclose(ref.ball_project(np.zeros(2), 1.0, xs), [[0.6, 0.8], [0.3, 0.4], [0, 0]])
    assert np.allclose(ref.ball_project(np.zeros(2), 1.0, xs[0]), [0.6, 0.8])
    assert np.array_equal(ref.cone_project([[1.0, -2.0], [-0.5, 0.0]]), [[1.0, 0.0], [0.0, 0.0]])
    gens = np.array([[0.6, 0.8]])
    assert np.allclose(ref.span_project(gens, xs[:1]), [[3.0, 4.0]])
    assert np.allclose(ref.span_project(gens, [[4.0, -3.0]]), [[0.0, 0.0]])
    assert np.allclose(ref.distance(xs, ref.ball_project(np.zeros(2), 1.0, xs)), [4.0, 0.0, 0.0])


def test_inverse_images_and_point_classes():
    c = np.zeros(2)
    assert ref.ball_inverse_member(c, 1.0, np.array([1.0, 0.0]), np.array([3.0, 0.0]))
    assert not ref.ball_inverse_member(c, 1.0, np.array([1.0, 0.0]), np.array([3.0, 0.1]))
    assert not ref.ball_inverse_member(c, 1.0, np.array([0.5, 0.0]), np.array([3.0, 0.0]))
    assert ref.cone_inverse_member(np.array([1.0, 0.0]), np.array([1.0, -2.0]))
    assert not ref.cone_inverse_member(np.array([1.0, 0.0]), np.array([1.0, 0.5]))
    assert ref.span_inverse_member(np.eye(2)[:1], np.array([1.0, 0.0]), np.array([1.0, 7.0]))
    mu = np.array([0.5, 0.5])
    y = np.array([[1.0], [1.0]])
    assert ref.constants_inverse_member(mu, y, np.array([[0.0], [2.0]]))
    assert not ref.constants_inverse_member(mu, y, np.array([[0.0], [3.0]]))
    assert ref.ball_point_class(c, 1.0, np.array([0.0, 1.0])) == "Cuticle"
    assert ref.ball_point_class(c, 1.0, np.array([0.0, 0.5])) == "Internal"
    assert ref.cone_point_class(np.array([1.0, 0.0])) == "Cuticle"
    assert ref.cone_point_class(np.array([1.0, 2.0])) == "Internal"


# -- agreement with the difference-quotient oracle -----------------------------------

def _fd(s, x, v):
    est = hp.fd_derivative(s, x, v)
    assert est.converged
    return est.value.coeffs


def _unit(rng, d):
    u = rng.standard_normal(d)
    return u / np.linalg.norm(u)


@pytest.mark.parametrize("seed", range(4))
def test_ball_matches_fd(seed):
    rng = np.random.default_rng(seed)
    for d in (2, 8, 50):
        c = rng.uniform(-1, 1, d)
        r = float(rng.uniform(0.5, 2.0))
        s = hp.ClosedBall(hp.HilbertPoint(c), r)
        for scale in (0.5, 1.0, 2.5):
            x = c + scale * r * _unit(rng, d)
            v = rng.uniform(-2, 2, d)
            if scale == 1.0 and abs(np.dot(x - c, v)) < 1e-2 * r * np.linalg.norm(v):
                continue
            want = ref.ball_derivative(c, r, x, v)
            got = _fd(s, hp.HilbertPoint(x), hp.HilbertPoint(v))
            assert np.max(np.abs(got - want)) <= 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_cone_matches_fd(seed):
    rng = np.random.default_rng(seed)
    for d in (2, 8, 50):
        x = rng.uniform(-2, 2, d)
        x[np.abs(x) < 0.05] = 0.5
        x[rng.random(d) < 0.3] = 0.0
        v = rng.uniform(-2, 2, d)
        got = _fd(hp.PositiveCone(d), hp.HilbertPoint(x), hp.HilbertPoint(v))
        assert np.max(np.abs(got - ref.cone_derivative(x, v))) <= 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_span_matches_fd(seed):
    rng = np.random.default_rng(seed)
    for d, k in ((3, 2), (8, 4), (50, 25)):
        q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        gens = q.T
        s = hp.SubspaceSpan(tuple(hp.HilbertPoint(g) for g in gens))
        x, v = rng.uniform(-2, 2, d), rng.uniform(-2, 2, d)
        got = _fd(s, hp.HilbertPoint(x), hp.HilbertPoint(v))
        assert np.max(np.abs(got - ref.span_derivative(gens, v))) <= 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_bochner_sets_match_fd(seed):
    rng = np.random.default_rng(seed)
    k, d = 4, 3
    w = rng.uniform(0.5, 1.5, k)
    mu = w / w.sum()
    space = hp.DiscreteProbabilitySpace(tuple("abcd"), mu)
    weights = np.repeat(mu, d)
    x = rng.uniform(-2, 2, (k, d))
    x[rng.random((k, d)) < 0.3] = 0.0
    v = rng.uniform(-2, 2, (k, d))
    px, pv = hp.HilbertPoint(x.ravel(), weights), hp.HilbertPoint(v.ravel(), weights)
    got = _fd(hp.BochnerPointwiseCone(space), px, pv)
    assert np.max(np.abs(got - ref.cone_derivative(x, v).ravel())) <= 1e-6
    got = _fd(hp.BochnerConstantSubspace(space), px, pv)
    assert np.max(np.abs(got - ref.constants_derivative(mu, v).ravel())) <= 1e-6
