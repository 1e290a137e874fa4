"""Wire-format serialization: 17-digit floats and schema validation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilproj import (
    BochnerConstantSubspace,
    BochnerFunction,
    BochnerPointwiseCone,
    ClosedBall,
    DerivativeResult,
    DiscreteProbabilitySpace,
    HilbertPoint,
    InputError,
    PositiveCone,
    SubspaceSpan,
    UnknownAtom,
    fd_derivative,
)
from hilproj.jsonio import (
    decode_function,
    decode_point,
    decode_set,
    decode_space,
    dumps,
    encode_derivative_result,
    encode_function,
    encode_oracle_estimate,
    encode_point,
    encode_set,
    encode_space,
    encode_value,
    loads,
)
from hilproj.cli import main


def pt(*coeffs, weights=None):
    w = None if weights is None else np.array(weights, dtype=float)
    return HilbertPoint(np.array(coeffs, dtype=float), w)


def two_atom_space():
    return DiscreteProbabilitySpace(("a", "b"), np.array([0.25, 0.75]))


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(finite_floats)
def test_float_roundtrip_is_exact(x):
    # .17g is the shortest fixed precision that reproduces every double.
    assert float(loads(dumps(x))) == x
    assert float(loads(dumps([x]))[0]) == x


@given(st.lists(finite_floats, min_size=1, max_size=6))
def test_point_coeffs_survive_the_wire_bit_for_bit(coeffs):
    original = pt(*coeffs)
    decoded = decode_point(loads(dumps(encode_point(original))))
    assert np.array_equal(decoded.coeffs, original.coeffs)


def test_float_rendering_uses_17_significant_digits():
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps(1.0 / 3.0) == "0.33333333333333331"
    assert dumps(5) == "5"
    assert dumps(True) == "true"
    assert dumps(None) == "null"
    assert dumps([]) == "[]"
    assert dumps({}) == "{}"


def test_nonfinite_floats_are_rejected():
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(ValueError):
        dumps(float("inf"))
    with pytest.raises(ValueError):
        dumps({"coeffs": [1.0, -math.inf]})


def test_pretty_output_parses_to_the_same_object():
    obj = {
        "projection": {"coeffs": [0.6, 0.8]},
        "distance": 4.0,
        "cases": ["Thm4.1(ii)(a)", {"nested": [1, 2.5, None, True]}],
    }
    compact = dumps(obj)
    pretty = dumps(obj, pretty=True)
    assert "\n" in pretty and "\n" not in compact
    assert loads(pretty) == loads(compact)
    assert json.loads(pretty) == obj


def test_loads_rejects_malformed_json():
    for text in ("{not json", "", "[1,", '{"a": }'):
        with pytest.raises(InputError):
            loads(text)
    assert loads('{"a": 1}') == {"a": 1}


def test_point_roundtrip_with_and_without_weights():
    plain = pt(3.0, -4.0)
    decoded = decode_point(loads(dumps(encode_point(plain))))
    assert np.array_equal(decoded.coeffs, plain.coeffs)
    assert decoded.weights is None

    weighted = pt(1.0, 2.0, weights=(0.25, 0.75))
    obj = encode_point(weighted)
    assert set(obj) == {"coeffs", "weights"}
    decoded = decode_point(loads(dumps(obj)))
    assert np.array_equal(decoded.coeffs, weighted.coeffs)
    assert np.array_equal(decoded.weights, weighted.weights)


def test_decode_point_schema_errors():
    with pytest.raises(InputError):
        decode_point({"weights": [1.0]})
    with pytest.raises(InputError):
        decode_point({"coeffs": "1,2"})
    with pytest.raises(InputError):
        decode_point({"coeffs": [1.0, True]})
    with pytest.raises(InputError):
        decode_point({"coeffs": [1.0], "weights": [False]})
    with pytest.raises(InputError):
        decode_point({"coeffs": [1.0, 2.0], "weights": [1.0]})


def test_space_roundtrip_preserves_ids_and_weights():
    space = two_atom_space()
    obj = encode_space(space)
    assert obj == {
        "atoms": [{"id": "a", "weight": 0.25}, {"id": "b", "weight": 0.75}]
    }
    decoded = decode_space(loads(dumps(obj)))
    assert decoded.atom_ids == space.atom_ids
    assert np.array_equal(decoded.weights, space.weights)


def test_decode_space_schema_errors():
    with pytest.raises(InputError):
        decode_space({"atoms": "abc"})
    with pytest.raises(InputError):
        decode_space({"atoms": [{"id": "a"}]})
    with pytest.raises(InputError):
        decode_space({"atoms": [{"id": "a", "weight": True}]})
    # weights not summing to one fails space validation, not the schema
    with pytest.raises(InputError):
        decode_space({"atoms": [{"id": "a", "weight": 0.5}, {"id": "b", "weight": 0.3}]})


def test_function_roundtrip():
    space = two_atom_space()
    f = BochnerFunction.from_dict(space, {"a": pt(1.0, -2.0), "b": pt(0.5, 4.0)})
    decoded = decode_function(loads(dumps(encode_function(f))))
    assert decoded.space.atom_ids == space.atom_ids
    for original, back in zip(f.values, decoded.values):
        assert np.array_equal(original.coeffs, back.coeffs)


def test_decode_function_errors():
    space_obj = encode_space(two_atom_space())
    with pytest.raises(InputError):
        decode_function({"space": space_obj})
    with pytest.raises(InputError):
        decode_function({"space": space_obj, "values": [1, 2]})
    with pytest.raises(UnknownAtom):
        decode_function({"space": space_obj, "values": {"a": {"coeffs": [1.0]}}})


def test_set_roundtrip_all_variants():
    space = two_atom_space()
    variants = [
        ClosedBall(pt(1.0, -1.0), 2.0),
        PositiveCone(3),
        SubspaceSpan((pt(1.0, 0.0, 0.0), pt(0.0, 1.0, 0.0))),
        SubspaceSpan((), ambient_dim=2),
        BochnerPointwiseCone(space),
        BochnerConstantSubspace(space),
    ]
    for s in variants:
        obj = encode_set(s)
        decoded = decode_set(loads(dumps(obj)))
        assert type(decoded) is type(s)
        assert encode_set(decoded) == obj


def test_set_encodings_match_the_documented_shapes():
    ball_obj = encode_set(ClosedBall(pt(0.0, 0.0), 1.0))
    assert ball_obj == {"type": "ball", "center": {"coeffs": [0.0, 0.0]}, "radius": 1.0}
    assert encode_set(PositiveCone(2)) == {"type": "positive_cone", "dim": 2}
    span_obj = encode_set(SubspaceSpan((pt(1.0, 0.0),)))
    assert span_obj == {"type": "subspace", "generators": [{"coeffs": [1.0, 0.0]}]}
    empty_obj = encode_set(SubspaceSpan((), ambient_dim=3))
    assert empty_obj["ambient_dim"] == 3


def test_decode_set_schema_errors():
    with pytest.raises(InputError):
        decode_set({"center": {"coeffs": [0.0]}})
    with pytest.raises(InputError):
        decode_set({"type": "simplex"})
    with pytest.raises(InputError):
        decode_set({"type": "ball", "center": {"coeffs": [0.0]}})
    with pytest.raises(InputError):
        decode_set({"type": "ball", "center": {"coeffs": [0.0]}, "radius": True})
    with pytest.raises(InputError):
        decode_set({"type": "positive_cone", "dim": 2.0})
    with pytest.raises(InputError):
        decode_set({"type": "positive_cone", "dim": True})
    with pytest.raises(InputError):
        decode_set({"type": "subspace"})
    with pytest.raises(InputError):
        decode_set({"type": "subspace", "generators": [], "ambient_dim": "2"})
    # domain validation surfaces as InputError too: non-orthonormal generators
    with pytest.raises(InputError):
        decode_set(
            {"type": "subspace", "generators": [{"coeffs": [2.0, 0.0]}]}
        )


def test_decode_set_rejects_a_bool_ambient_dim():
    # bool is an int subtype: true must not pass as dimension 1
    with pytest.raises(InputError, match='"ambient_dim" must be an integer'):
        decode_set({"type": "subspace", "generators": [], "ambient_dim": True})


def test_encode_value_dispatches_on_type():
    assert "coeffs" in encode_value(pt(1.0))
    f = BochnerFunction.from_dict(two_atom_space(), {"a": pt(1.0), "b": pt(2.0)})
    obj = encode_value(f)
    assert set(obj) == {"space", "values"}


def test_derivative_result_encoding():
    covered = DerivativeResult(covered=True, case_tag="Thm4.1(i)(a)", value=pt(0.0, 1.0))
    obj = encode_derivative_result(covered)
    assert obj == {
        "covered": True,
        "case": "Thm4.1(i)(a)",
        "value": {"coeffs": [0.0, 1.0]},
    }
    uncovered = DerivativeResult(covered=False, case_tag="NotCoveredByPaper")
    assert encode_derivative_result(uncovered) == {
        "covered": False,
        "case": "NotCoveredByPaper",
    }


def test_oracle_estimate_encoding_roundtrips_through_text():
    ball = ClosedBall(pt(0.0, 0.0), 1.0)
    est = fd_derivative(ball, pt(2.0, 0.0), pt(0.0, 1.0), tol=1e-6)
    loaded = loads(dumps(encode_oracle_estimate(est)))
    assert loaded["converged"] is True
    assert loaded["residual"] == est.residual
    assert loaded["value"]["coeffs"] == [float(c) for c in est.value.coeffs]
    assert len(loaded["step_sequence"]) == len(est.step_sequence)
    first = loaded["step_sequence"][0]
    assert first["t"] == 2.0**-4
    assert len(first["quotient"]["coeffs"]) == 2

    kinked = fd_derivative(ball, pt(1.0, 0.0), pt(1.0, 1.0), tol=1e-14)
    loaded = loads(dumps(encode_oracle_estimate(kinked)))
    assert loaded["converged"] is False
    assert loaded["value"] is None


def test_an_integer_too_large_for_a_double_is_an_input_error(capsys):
    big = "1" + "0" * 400  # a JSON integer literal beyond the double range
    pt_json = '{"coeffs":[1,2]}'
    ball = '{"type":"ball","center":{"coeffs":[0,0]},"radius":%s}'
    calls = {
        "coeffs": ["project", "--set", '{"type":"positive_cone","dim":2}',
                   "--point", '{"coeffs":[%s,2]}' % big],
        "weights": ["project", "--set", ball % 1,
                    "--point", '{"coeffs":[1,2],"weights":[1,%s]}' % big],
        "radius": ["project", "--set", ball % big, "--point", pt_json],
        "atom weight": ["verify", "--bochner-demo",
                        '{"atoms":[{"id":"a","weight":%s},{"id":"b","weight":1}]}' % big],
    }
    for field, argv in calls.items():
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), field
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), field
    with pytest.raises(InputError):
        decode_point(json.loads('{"coeffs":[%s]}' % big))
