"""Divisions by a product that underflows to 0: <d, d> and the ball's r*r.

The residual test of Prop 3.1 and the ball's Thm 4.1(iii) rules divide by
<d, d> or by r*r. Both are 0 for a nonzero d below about 1.5e-162, or a
radius below 1.5e-162, which the sphere band reaches at tol >= 1. There the
rules rescale d instead of raising ZeroDivisionError; wherever the product
is nonzero they divide as before, bit for bit.
"""

import json
import subprocess
import sys

import numpy as np

from hilproj import ClosedBall, HilbertPoint, PositiveCone, derivative, in_inverse_image, inner
from hilproj.cli import main

CONE1 = '{"type":"positive_cone","dim":1}'
TINY = '{"coeffs":[-5e-324]}'
UP = '{"coeffs":[1.0]}'


def test_a_residual_whose_square_underflows_is_still_parallel():
    # x - P(x) = -5e-324: <d, d> is 0, and v = 1 is a multiple of d
    res = derivative(PositiveCone(1), HilbertPoint([-5e-324]), HilbertPoint([1.0]), tol=0.0)
    assert (res.covered, res.case_tag) == (True, "Prop3.1")
    assert res.value.coeffs.tolist() == [0.0]


def test_the_cli_answers_the_underflowing_residual(capsys):
    code = main(["derive", "--tol", "0", "--set", CONE1, "--point", TINY, "--direction", UP])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert json.loads(out.out) == {"covered": True, "case": "Prop3.1", "value": {"coeffs": [0]}}


def test_the_cli_process_exits_0_without_a_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "hilproj", "derive", "--tol", "0", "--set", CONE1,
         "--point", TINY, "--direction", UP],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip() == '{"covered":true,"case":"Prop3.1","value":{"coeffs":[0]}}'


def test_the_sphere_rules_of_a_ball_whose_radius_squared_underflows():
    ball = ClosedBall(HilbertPoint([0.0, 0.0]), 1e-200)
    x = HilbertPoint([1e-200, 0.0])
    want = {
        (0.0, 1.0): ("Thm4.1(iii)(a)", [0.0, 1.0]),  # tangent: v itself
        (1.0, 1.0): ("Thm4.1(iii)(a)", [0.0, 1.0]),  # v - <u, v> u, u = (x - c)/r
        (1.0, 0.0): ("Thm4.1(iii)(b)", [0.0, 0.0]),  # outward along x - c, whose <d, d> is 0
    }
    for v, (tag, value) in want.items():
        res = derivative(ball, x, HilbertPoint(v), tol=1.0)
        assert (res.case_tag, res.value.coeffs.tolist()) == (tag, value)
    # <u, v>/r overflows at r = 1e-300; <u, v> u does not
    res = derivative(ClosedBall(HilbertPoint([0.0, 0.0]), 1e-300), HilbertPoint([1e-300, 0.0]),
                     HilbertPoint([1e10, 1e9]), tol=1.0)
    assert (res.case_tag, res.value.coeffs.tolist()) == ("Thm4.1(iii)(a)", [0.0, 1e9])
    assert in_inverse_image(ball, x, HilbertPoint([3e-200, 0.0]), 0, 1.0)
    assert not in_inverse_image(ball, x, HilbertPoint([-3e-200, 0.0]), 0, 1.0)
    code = main(["derive", "--tol", "1", "--set", '{"type":"ball","center":{"coeffs":[0,0]},'
                 '"radius":1e-200}', "--point", '{"coeffs":[1e-200,0]}',
                 "--direction", '{"coeffs":[1,1]}'])
    assert code == 0


def test_a_nonzero_radius_squared_divides_as_before():
    # r*r = 1e-320 is subnormal but nonzero: (g / (r*r)) d, not the rescaled form
    r = 1e-160
    ball = ClosedBall(HilbertPoint([0.0, 0.0]), r)
    x, v = HilbertPoint([r, 0.0]), HilbertPoint([0.75, 1.0])
    res = derivative(ball, x, v, tol=1.0)
    d = x.coeffs
    want = v.coeffs - (inner(x, v) / (r * r)) * d
    assert res.case_tag == "Thm4.1(iii)(a)"
    assert res.value.coeffs.tobytes() == np.asarray(want).tobytes()
