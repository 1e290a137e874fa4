"""trig_coefficients' adaptive Gauss-Legendre pass against scipy's quad.

The reference integrates each coefficient <f, e_k> alone with quad at tight
tolerances, split at the kink of a non-smooth integrand (``points=``). The
library's pass must agree with it to 1e-12 of the coefficients' size on
smooth integrands and to 1e-10 on non-smooth ones, where it must also be no
worse than quad at its default tolerances. Integrands that never settle
stop at the panel cap with a RuntimeWarning after a bounded number of calls.
Integrands near the largest double, whose integral of |f| overflows though
every coefficient is finite, are checked against their exact coefficients.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from hilproj import HilbertPoint, basis_function, evaluate, trig_coefficients

N_TERMS = 7
# the halves of the whole interval, then the halves of both halves of at most
# 199 split panels (the whole interval one of them), each 20 Gauss-Legendre
# nodes, before the 200-panel cap stops the pass
MAX_CALLS = 20 * (2 + 4 * 199)

SMOOTH = {
    "one": lambda t: 1.0,
    "cos": lambda t: math.cos(t),
    "mixed": lambda t: 0.5 + math.cos(t) + math.sin(2.0 * t),
    "exp_sin": lambda t: math.exp(math.sin(t)),
    "exp_3t": lambda t: math.exp(3.0 * t),
    "cos_20t": lambda t: math.cos(20.0 * t),
}
NON_SMOOTH = {  # each with the point where it is not smooth
    "kink": (lambda t: abs(t - 1.0), 1.0),
    "step": (lambda t: 1.0 if t > 1.0 else 0.0, 1.0),
    "root": (lambda t: math.sqrt(abs(t - 0.3)), 0.3),
}


def quad_coefficients(f, points=None, **tols):
    out = []
    for k in range(N_TERMS):
        e_k = basis_function(k)
        out.append(quad(lambda t: f(t) * float(e_k(t)), -math.pi, math.pi, points=points, **tols)[0])
    return np.array(out)


def tight(f, points=None):
    return quad_coefficients(f, points, epsabs=1e-13, epsrel=1e-13, limit=1000)


def counted(f):
    calls = [0]

    def g(t):
        calls[0] += 1
        return f(t)
    return g, calls


@pytest.mark.parametrize("name", sorted(SMOOTH))
def test_smooth_integrands_match_a_tight_quad(name):
    f = SMOOTH[name]
    ref = tight(f)
    got = trig_coefficients(f, N_TERMS).coeffs
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("name", sorted(NON_SMOOTH))
def test_non_smooth_integrands_match_a_tight_quad_split_at_the_kink(name):
    f, kink = NON_SMOOTH[name]
    ref = tight(f, [kink])
    got = trig_coefficients(f, N_TERMS).coeffs
    err = np.abs(got - ref)
    assert np.max(err) <= 1e-10
    default = np.abs(quad_coefficients(f, limit=200) - ref)
    assert np.all(err <= np.maximum(default, 1e-13))


def test_a_scalar_only_callable_is_accepted():
    got = trig_coefficients(math.cos, 5).coeffs
    assert np.max(np.abs(got - [0.0, math.sqrt(math.pi), 0.0, 0.0, 0.0])) <= 1e-12


def test_func_is_called_with_python_floats():
    seen = set()

    def f(t):
        seen.add(type(t))
        return t * t
    trig_coefficients(f, 3)
    assert seen == {float}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_func_raises_at_once(value):
    # before any sum: an infinite value summed with the basis rows' both signs would
    # make inf - inf, numpy's invalid-value warning, instead of this ValueError
    g, calls = counted(lambda t: value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="coeffs must be finite"):
            trig_coefficients(g, N_TERMS)
    assert calls[0] == 40  # the nodes of the first round, on the halves of [-pi, pi]


def test_an_infinite_value_past_the_first_panel_raises():
    with pytest.raises(ValueError, match="coeffs must be finite"):
        trig_coefficients(lambda t: math.inf if 1.0 < t < 1.1 else 1.0 / (t - 1.0) ** 2, 3)


@pytest.mark.parametrize("f, exact", [
    (lambda t: 5e307, {0: 5e307 * math.sqrt(2.0 * math.pi)}),
    (lambda t: 1e308 * math.sin(t), {2: 1e308 * math.sqrt(math.pi)}),
    (lambda t: 5e307 * math.cos(20.0 * t), {39: 5e307 * math.sqrt(math.pi)}),
], ids=["constant", "sin", "cos_20t"])
def test_an_integrand_whose_integral_of_abs_overflows(f, exact):
    # int |func| passes the largest double, every coefficient is finite: the bound
    # stays finite, so no overflow warning and no panel accepted unchecked
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = trig_coefficients(f, 41).coeffs
    ref = np.zeros(41)
    ref[list(exact)] = list(exact.values())
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("f", [lambda t: 1.0 / abs(t - 1.0), lambda t: math.sin(1.0 / (t - 1.0))],
                         ids=["inverse_distance", "sin_inverse"])
def test_an_unsettled_integrand_stops_at_the_panel_cap(f):
    g, calls = counted(f)
    with pytest.warns(RuntimeWarning, match="200 panels"):
        got = trig_coefficients(g, N_TERMS)
    assert calls[0] <= MAX_CALLS
    assert np.isfinite(got.coeffs).all()


def test_a_smooth_integrand_takes_few_calls():
    g, calls = counted(SMOOTH["exp_sin"])
    trig_coefficients(g, N_TERMS)
    assert calls[0] <= 200


def test_evaluate_matches_the_term_by_term_sum():
    # the basis rows are one array now; the term loop they replaced is the reference,
    # equal up to the summation order's rounding
    ts = np.linspace(-4.0, 4.0, 41)
    for c in (np.random.default_rng(3).uniform(-1.0, 1.0, 9), np.array([2.0]), np.array([])):
        loop = sum((ck * basis_function(k)(ts) for k, ck in enumerate(c)), np.zeros_like(ts))
        got = evaluate(HilbertPoint(c), ts)
        assert got.shape == ts.shape
        assert np.max(np.abs(got - loop)) <= 1e-14 * max(1.0, np.abs(c).sum())


def test_trig_coefficients_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import math, sys; import hilproj, hilproj.cli; "
            "hilproj.trig_coefficients(math.cos, 7); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
