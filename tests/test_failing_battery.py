"""A battery that fails: failure counts, worst residuals and the verify exit code.

Every set's projection is correct, so no other battery reports a failure.
Here the positive cone's single-point projection is replaced by twice the
clipped point, which breaks every property but positive homogeneity of the
derivative. The reports are pinned bit for bit.
"""

import io
import json
import math
from contextlib import redirect_stdout

import pytest

import hilproj.sets
from hilproj import PositiveCone, property_battery
from hilproj.cli import main
from hilproj.core import _trusted

CONE4 = '{"type":"positive_cone","dim":4}'

GOLDEN = [
    {"property": "variational", "trials": 20, "failures": 9,
     "worst_residual": 7.555248840266184},
    {"property": "strengthened_variational", "trials": 20, "failures": 9,
     "worst_residual": 7.555248840266184},
    {"property": "monotone", "trials": 20, "failures": 17,
     "worst_residual": 11.53442119963836},
    {"property": "nonexpansive", "trials": 20, "failures": 16,
     "worst_residual": 2.299452109965379},
    {"property": "nonexpansive_dichotomy", "trials": 20, "failures": 16,
     "worst_residual": 2.83802894596911},
    {"property": "idempotent", "trials": 20, "failures": 12,
     "worst_residual": 5.273346667118469},
    {"property": "homogeneous", "trials": 20, "failures": 0, "worst_residual": 0.0},
]


@pytest.fixture
def doubled_cone(monkeypatch):
    def doubled(self, x):
        return _trusted(2.0 * hilproj.sets.clip_nonnegative(x.coeffs), x.weights)

    monkeypatch.setattr(hilproj.sets.PositiveCone, "_project", doubled)


def test_failing_battery_reports(doubled_cone):
    reports = property_battery(PositiveCone(4), 20, seed=1)
    assert reports == GOLDEN
    for r in reports:
        assert type(r["trials"]) is int and type(r["failures"]) is int
        assert math.copysign(1.0, r["worst_residual"]) == 1.0  # floored to +0.0, never -0.0


@pytest.mark.parametrize("trials,failures,code", [("20", 64, 64), ("40", 135, 125)])
def test_verify_exits_with_the_failure_count_capped_at_125(doubled_cone, trials, failures, code):
    out = io.StringIO()
    with redirect_stdout(out):
        got = main(["verify", "--set", CONE4, "--trials", trials])
    payload = json.loads(out.getvalue())
    assert payload["failures"] == failures
    assert payload["failures"] == sum(r["failures"] for r in payload["reports"])
    assert got == code
