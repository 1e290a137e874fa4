"""The CLI request path: one parser per process, whole-array JSON, lazy scipy.

Repeated ``main`` calls in one process must print what separate processes
print. The whole-array renderer must give the bytes of the per-element
renderer, kept here as ``_reference_dumps``. Importing the package and its
CLI must not load scipy.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hilproj
from hilproj import HilbertPoint, InputError, cli
from hilproj.jsonio import decode_point, dumps, encode_point

SRC = str(Path(hilproj.__file__).resolve().parents[1])
CONE2 = '{"type":"positive_cone","dim":2}'
UNIT_BALL = '{"type":"ball","center":{"coeffs":[0,0]},"radius":1}'
UNCOVERED = ("derive", "--set", CONE2,
             "--point", '{"coeffs":[1,0]}', "--direction", '{"coeffs":[0,-1]}')
PROJECT = ("project", "--set", UNIT_BALL, "--point", '{"coeffs":[0.3,0.7]}')
VERIFY = ("verify", "--set", CONE2, "--trials", "3", "--seed", "3")


def _separate(argv, **env):
    """Exit code and stdout of ``python -m hilproj argv`` in a fresh process."""
    full_env = {k: v for k, v in os.environ.items() if k != "HILPROJ_SEED"}
    full_env.update(PYTHONPATH=SRC, COLUMNS="80", **env)
    done = subprocess.run([sys.executable, "-m", "hilproj", *argv],
                          capture_output=True, text=True, env=full_env)
    return done.returncode, done.stdout


def _in_process(capsys, argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def clean_env(monkeypatch):
    # argparse wraps help text to the terminal width, read at each call
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("HILPROJ_SEED", raising=False)


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_oracle_flag_does_not_stick(capsys, clean_env):
    first = _in_process(capsys, (*UNCOVERED, "--oracle"))
    second = _in_process(capsys, UNCOVERED)
    assert first[0] == 0 and second[0] == 4
    assert first == _separate((*UNCOVERED, "--oracle"))
    assert second == _separate(UNCOVERED)


def test_pretty_output_does_not_stick(capsys, clean_env):
    pretty = _in_process(capsys, (*PROJECT, "--output", "pretty"))
    compact = _in_process(capsys, PROJECT)
    assert pretty[1].count("\n") > compact[1].count("\n") == 1
    assert pretty == _separate((*PROJECT, "--output", "pretty"))
    assert compact == _separate(PROJECT)


def test_seed_variable_is_read_on_every_call(capsys, clean_env, monkeypatch):
    first = _in_process(capsys, VERIFY)
    monkeypatch.setenv("HILPROJ_SEED", "7")
    second = _in_process(capsys, VERIFY)
    assert json.loads(first[1])["seed"] == 3
    assert json.loads(second[1])["seed"] == 7
    assert first == _separate(VERIFY)
    assert second == _separate(VERIFY, HILPROJ_SEED="7")


def test_help_and_usage_errors_keep_their_exit_codes(capsys, clean_env):
    for argv in (("--help",), ("derive", "--help"), (), ("nosuch",),
                 ("project", "--set"), ("--help",)):
        assert _in_process(capsys, argv) == _separate(argv), argv
    assert _in_process(capsys, ("--help",))[0] == 0
    assert _in_process(capsys, ())[0] == 2


# --- the codec ----------------------------------------------------------------

def _reference_dumps(obj, pretty=False, indent=0):
    """The per-element renderer: every float formatted on its own."""
    pad = "  " * (indent + 1) if pretty else ""
    close_pad = "  " * indent if pretty else ""
    sep = ",\n" if pretty else ","
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError("cannot serialize non-finite float")
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_reference_dumps(v, pretty, indent + 1) for v in obj]
        if pretty:
            return "[\n" + sep.join(pad + i for i in items) + "\n" + close_pad + "]"
        return "[" + sep.join(items) + "]"
    items = [json.dumps(k) + (": " if pretty else ":") + _reference_dumps(v, pretty, indent + 1)
             for k, v in obj.items()]
    if not items:
        return "{}"
    if pretty:
        return "{\n" + sep.join(pad + i for i in items) + "\n" + close_pad + "}"
    return "{" + sep.join(items) + "}"


EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, -2.5, 1e-300, 3.0]
PAYLOADS = [
    EDGE_FLOATS,
    (0.1, -0.0),
    [1, 0.5, -0.0, 3, True],
    [0.1, np.float64(0.2), 0.3],
    {"coeffs": EDGE_FLOATS, "nested": {"rows": [EDGE_FLOATS, [1.0], [], [2, 0.25]]},
     "empty": {}, "tag": "Thm4.1(ii)(a)", "none": None},
    [{"t": 0.5, "quotient": {"coeffs": [0.1, 0.2]}}, [[0.1], [0.2, 0.3]]],
]


@pytest.mark.parametrize("pretty", [False, True])
@pytest.mark.parametrize("obj", PAYLOADS)
def test_whole_array_rendering_matches_per_element(obj, pretty):
    assert dumps(obj, pretty=pretty) == _reference_dumps(obj, pretty)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_random_float_lists_render_as_per_element(xs):
    assert dumps(xs) == _reference_dumps(xs)
    assert dumps({"a": [xs]}, pretty=True) == _reference_dumps({"a": [xs]}, True)


@pytest.mark.parametrize("pretty", [False, True])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_float_in_a_float_list_still_raises(bad, pretty):
    with pytest.raises(ValueError, match="^cannot serialize non-finite float$"):
        dumps([1.0, bad, 2.0], pretty=pretty)
    with pytest.raises(ValueError, match="^cannot serialize non-finite float$"):
        dumps({"coeffs": [bad]}, pretty=pretty)


def test_encode_point_gives_plain_floats():
    p = HilbertPoint(np.array([-0.0, 5e-324, 0.1]), np.array([1.0, 2.0, 0.5]))
    out = encode_point(p)
    assert out == {"coeffs": [float(c) for c in p.coeffs],
                   "weights": [float(w) for w in p.weights]}
    assert all(type(c) is float for c in out["coeffs"] + out["weights"])
    assert math.copysign(1.0, out["coeffs"][0]) == -1.0
    assert dumps(out) == '{"coeffs":[-0,4.9406564584124654e-324,0.10000000000000001],' \
                         '"weights":[1,2,0.5]}'


@pytest.mark.parametrize("field", ["coeffs", "weights"])
@pytest.mark.parametrize("bad", [True, False, "1", None, [1.0], {"x": 1}])
def test_decode_point_rejects_non_numbers_as_before(field, bad):
    obj = {"coeffs": [1.0, 2], "weights": [1, 1.0]}
    obj[field] = [0.5, bad]
    with pytest.raises(InputError, match=f'^"{field}" must be an array of numbers$'):
        decode_point(obj)


def test_decode_point_accepts_float_subclasses_and_ints():
    p = decode_point({"coeffs": [np.float64(0.1), 2, 3.5], "weights": [np.float64(2.0), 1, 1]})
    assert p.coeffs.tolist() == [0.1, 2.0, 3.5]
    assert p.weights.tolist() == [2.0, 1.0, 1.0]
    assert decode_point({"coeffs": []}).dim == 0


def test_importing_the_cli_leaves_scipy_unloaded():
    code = ("import hilproj, hilproj.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), check=True)
    assert done.stdout.strip() == "[]"
