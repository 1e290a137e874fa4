"""The JSON renderer: its bytes against a per-element reference, and through the CLI.

``jsonio.dumps`` dispatches on the exact type of plain floats, dicts and
lists, quotes keys and strings with the C quoter and formats a list of plain
floats with one ``%``. The reference below renders one element at a time with
``json.dumps`` and ``format(x, ".17g")``, as the renderer did before those
shortcuts; the outputs must be equal, and so must the errors. The CLI cases at
the end pin the SHA-256 of stdout for three payload shapes, compact and pretty.
"""

import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hilproj import ClosedBall, HilbertPoint, fd_derivative
from hilproj.cli import main
from hilproj.jsonio import dumps, encode_oracle_estimate

NON_FINITE = "cannot serialize non-finite float"


def _reference(obj, pretty, indent=0):
    """The renderer one element at a time, with the stdlib quoter and format()."""
    pad = "  " * (indent + 1) if pretty else ""
    sep = ",\n" if pretty else ","
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(float(obj)):
            raise ValueError(NON_FINITE)
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = [json.dumps(str(k)) + (": " if pretty else ":") + _reference(v, pretty, indent + 1)
                 for k, v in obj.items()]
        brackets = "{}"
    else:
        items = [_reference(v, pretty, indent + 1) for v in obj]
        brackets = "[]"
    if not items:
        return brackets
    if pretty:
        return brackets[0] + "\n" + sep.join(pad + i for i in items) + "\n" + "  " * indent + brackets[1]
    return brackets[0] + sep.join(items) + brackets[1]


_finite = st.floats(allow_nan=False, allow_infinity=False)
_text = st.text(st.sampled_from('%"\\/aZ\x00\x1f\x7f\n\t\u00e9\u20ac\ud800\U0001f600'), max_size=6) | st.text(max_size=4)
_leaves = (st.none() | st.booleans() | _finite | _finite.map(np.float64)
           | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.integers() | _text)
_payloads = st.recursive(
    _leaves,
    lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=5).map(tuple)
                  | st.dictionaries(_text | st.integers(), kids, max_size=5)
                  | st.lists(_finite, max_size=8) | st.lists(_finite, max_size=8).map(tuple)
                  | st.lists(_finite | _finite.map(np.float64) | st.integers(), max_size=8)),
    max_leaves=40,
)


@seed(2201)
@settings(max_examples=400, deadline=None)
@given(_payloads)
def test_dumps_equals_the_per_element_reference(obj):
    for pretty in (False, True):
        assert dumps(obj, pretty) == _reference(obj, pretty)


def test_percent_g_equals_format_on_edge_and_random_floats():
    rng = np.random.default_rng(2202)
    bits = rng.integers(0, 2**64, 20000, dtype=np.uint64, endpoint=False).view(np.float64)
    xs = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
          -1.7976931348623157e308, 1e16, 1e17, 0.1, 1 / 3]
    xs += [float(x) for x in bits[np.isfinite(bits)]] + rng.standard_normal(2000).tolist()
    for x in xs:
        assert "%.17g" % x == format(x, ".17g")
    for pretty in (False, True):
        assert dumps(xs, pretty) == _reference(xs, pretty)
        assert dumps(tuple(xs), pretty) == _reference(xs, pretty)
    # only a list of exact floats takes the one-% path: an int keeps its digits
    assert dumps([0.5, 10**20, 2.0]) == "[0.5,100000000000000000000,2]"


def _trail():
    ball = ClosedBall(HilbertPoint([0.5, -0.25, 1.0]), 0.75)
    est = fd_derivative(ball, HilbertPoint([2.0, 1.0, -1.0]), HilbertPoint([0.3, -1.0, 0.5]))
    return {"covered": True, "case": "Thm4.1(ii)(a)", "oracle": encode_oracle_estimate(est)}


def _poisoned(bad):
    """The trail with bad placed at each kind of spot a float can sit."""
    for spot in range(7):
        payload = _trail()
        steps = payload["oracle"]["step_sequence"]
        if spot == 0:
            steps[5]["quotient"]["coeffs"][1] = bad  # a plain float list
        elif spot == 1:
            steps[22]["t"] = bad  # a lone float in a dict
        elif spot == 2:
            payload["oracle"]["residual"] = np.float64(bad)
        elif spot == 3:
            payload["oracle"]["value"]["coeffs"] = tuple([1.0, bad, 2.0])
        elif spot == 4:
            steps[0]["quotient"]["coeffs"] = [np.float64(1.0), bad]  # a mixed list
        elif spot == 5:
            payload["agreement"] = [[1.0], [[2.0, bad]]]
        else:
            payload["oracle"]["value"]["coeffs"][0] = np.float32(bad)
        yield payload


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_float_anywhere_in_a_trail_raises_one_message(bad):
    for payload in _poisoned(bad):
        for pretty in (False, True):
            with pytest.raises(ValueError) as err:
                dumps(payload, pretty)
            assert str(err.value) == NON_FINITE
            with pytest.raises(ValueError) as ref_err:
                _reference(payload, pretty)
            assert str(ref_err.value) == NON_FINITE


def test_the_clean_trail_renders_as_the_reference_does():
    payload = _trail()
    for pretty in (False, True):
        assert dumps(payload, pretty) == _reference(payload, pretty)


@pytest.mark.parametrize("obj", [object(), {1, 2}, np.bool_(True), b"bytes", np.zeros(2)])
def test_unserializable_objects_raise_type_error(obj):
    for pretty in (False, True):
        with pytest.raises(TypeError) as err:
            dumps({"a": [obj]}, pretty)
        assert str(err.value) == f"cannot serialize {type(obj).__name__}"


def _uniform(rng, n, lo, hi):
    return [rng.uniform(lo, hi) for _ in range(n)]


def _batch_argv():
    # project --batch, 10 points at d = 1000 on a ball with a 17-digit centre:
    # five well inside, returned as given with distance 0, and five outside
    # along one axis, whose norms sum one nonzero term, so the bytes do not
    # depend on the BLAS kernel's summation order
    rng = random.Random(2201)
    d = 1000
    c = _uniform(rng, d, -1.0, 1.0)
    points = []
    for i in range(10):
        if i % 2:
            x = list(c)
            x[rng.randrange(d)] += rng.choice((-1.0, 1.0)) * rng.uniform(2.0, 5.0)
        else:
            x = [ci + rng.uniform(-0.02, 0.02) for ci in c]
        points.append({"coeffs": x})
    ball = {"type": "ball", "center": {"coeffs": c}, "radius": 1.3}
    return ["project", "--set", json.dumps(ball), "--batch", "--point", json.dumps(points)]


def _derive_ball_argv():
    # derive --oracle at d = 64 from a point outside the ball along axis j, in
    # a direction on axes j and j + 1: each norm on the trail sums at most two
    # nonzero terms in two adjacent coordinates (distinct SIMD lanes)
    rng = random.Random(2202)
    d, j = 64, 2 * rng.randrange(32)
    c = _uniform(rng, d, -1.0, 1.0)
    r = rng.uniform(0.5, 2.0)
    x = list(c)
    x[j] += rng.uniform(1.2, 3.0) * r
    v = [0.0] * d
    v[j], v[j + 1] = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    ball = {"type": "ball", "center": {"coeffs": c}, "radius": r}
    return ["derive", "--set", json.dumps(ball), "--point", json.dumps({"coeffs": x}),
            "--direction", json.dumps({"coeffs": v}), "--oracle"]


def _derive_cone_argv():
    # derive --oracle at d = 64 on an uncovered cone point: the clip, the
    # quotients and the residual are coordinatewise, so no sum enters the bytes
    rng = random.Random(2203)
    d = 64
    x = _uniform(rng, d, 0.05, 2.0)
    v = _uniform(rng, d, -2.0, 2.0)
    for i in rng.sample(range(d), rng.randrange(1, d)):
        x[i], v[i] = 0.0, -1.0
    cone = {"type": "positive_cone", "dim": d}
    return ["derive", "--set", json.dumps(cone), "--point", json.dumps({"coeffs": x}),
            "--direction", json.dumps({"coeffs": v}), "--oracle"]


PIN_ARGVS = {
    "project_batch": _batch_argv(),
    "derive_oracle_ball": _derive_ball_argv(),
    "derive_oracle_cone_uncovered": _derive_cone_argv(),
}

# SHA-256 of stdout for each argv, compact and with --output pretty
PINS = {
    ("project_batch", "json"): "0cbb79951d0683c24d16f04189a7a451d44708c3bbc8eff9a624bae5b013b170",
    ("project_batch", "pretty"): "f34046ee966cf9e8b65d6bf24575a8eb96ea64dee4d66fdc777e7ba2ca303e04",
    ("derive_oracle_ball", "json"): "8c61cb03d331046dcde3414887c41ffe45765493e59e2559c312969d19741ac7",
    ("derive_oracle_ball", "pretty"): "5de11368fdd4da7b31bc4abcc1f9a9768b49de64194a45dd092ddd9d02509956",
    ("derive_oracle_cone_uncovered", "json"):
        "3a2ade1c02da1cb29ce7055f9bea0063ae09a0dd43a31c377c549a5fad893a3a",
    ("derive_oracle_cone_uncovered", "pretty"):
        "1d15fd4303e677c1b131d670807bd54b0feeb4a2530afe98e5df7fcc2e87c5eb",
}


@pytest.mark.parametrize("name, output", sorted(PINS))
def test_cli_stdout_bytes_are_pinned(capsys, name, output):
    code = main([*PIN_ARGVS[name], "--output", output])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == PINS[name, output]
