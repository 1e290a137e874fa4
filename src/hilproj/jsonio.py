"""JSON encoding and decoding for the wire formats.

Floats are rendered with 17 significant digits, so every double round-trips
bit-exactly; the stdlib dumper cannot set that format. The renderer is one
module-level recursive walk that appends to one list, compact or pretty, so a
call leaves no reference cycle. It tests the exact type of plain floats, dicts
and lists before any isinstance check, quotes with the C quoter json.dumps
uses, and formats a list of plain floats with one %; a finite %.17g holds no
"n", so one scan per rendered chunk checks finiteness. Decoding checks a
coefficient array's element types in one pass and raises InputError with a
one-line reason, also for an oversized integer literal.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import bochner as bo
from .core import HilbertPoint
from .derivatives import DerivativeResult
from .errors import InputError
from .oracle import OracleEstimate
from .sets import (
    BochnerConstantSubspace,
    BochnerPointwiseCone,
    ClosedBall,
    PositiveCone,
    SubspaceSpan,
)


def _render(obj, out: list, pad: str) -> None:
    """Append obj's JSON text to out; pad is "" (compact) or the newline and indent of obj's line."""
    kind = type(obj)
    if kind is float:
        return out.append(_finite("%.17g" % obj))
    if kind is not dict and kind is not list:
        if obj is None or obj is True or obj is False:
            return out.append("null" if obj is None else "true" if obj else "false")
        if isinstance(obj, (int, np.integer)):
            return out.append(str(int(obj)))
        if isinstance(obj, (float, np.floating)):
            return out.append(_finite("%.17g" % float(obj)))
        if isinstance(obj, str):
            return out.append(_quote(obj))
        if not isinstance(obj, (dict, list, tuple)):
            raise TypeError(f"cannot serialize {type(obj).__name__}")
        kind = dict if isinstance(obj, dict) else list
    if not obj:
        return out.append("{}" if kind is dict else "[]")
    inner = pad and pad + "  "
    lead, sep = ("[" if kind is list else "{") + inner, "," + inner
    if kind is dict:
        colon = ": " if pad else ":"
        for k, v in obj.items():  # a plain float value is rendered here, without a call
            if type(v) is float:
                out.append(lead + _quote(str(k)) + colon + _finite("%.17g" % v))
            else:
                out.append(lead + _quote(str(k)) + colon)
                _render(v, out, inner)
            lead = sep
        return out.append(pad + "}")
    if set(map(type, obj)) == {float}:
        return out.append(lead + _finite(sep.join(["%.17g"] * len(obj)) % tuple(obj)) + pad + "]")
    for v in obj:
        out.append(lead)
        _render(v, out, inner)
        lead = sep
    out.append(pad + "]")


def _finite(text: str) -> str:
    """Rendered %.17g numbers, or ValueError: only inf and nan spell an n."""
    if "n" in text:
        raise ValueError("cannot serialize non-finite float")
    return text


def dumps(obj, pretty: bool = False) -> str:
    """Serialize to JSON with 17-significant-digit floats."""
    _render(obj, out := [], "\n" if pretty else "")
    return "".join(out)


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON: {e}") from None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_number_array(xs) -> bool:
    """A JSON array of numbers; plain ints and floats pass in one type pass."""
    return isinstance(xs, list) and (
        set(map(type, xs)) <= {int, float} or all(map(_is_number, xs))
    )


def encode_point(p: HilbertPoint) -> dict:
    out = {"coeffs": p.coeffs.tolist()}
    if p.weights is not None:
        out["weights"] = p.weights.tolist()
    return out


def decode_point(obj) -> HilbertPoint:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise InputError("point must be an object with a \"coeffs\" array")
    coeffs = obj["coeffs"]
    weights = obj.get("weights")
    if not _is_number_array(coeffs):
        raise InputError("\"coeffs\" must be an array of numbers")
    if weights is not None and not _is_number_array(weights):
        raise InputError("\"weights\" must be an array of numbers")
    try:
        return HilbertPoint(coeffs, weights)
    except (ValueError, OverflowError) as e:
        raise InputError(str(e)) from None


def encode_space(space: bo.DiscreteProbabilitySpace) -> dict:
    return {
        "atoms": [
            {"id": a, "weight": float(w)}
            for a, w in zip(space.atom_ids, space.weights)
        ]
    }


def decode_space(obj) -> bo.DiscreteProbabilitySpace:
    if not isinstance(obj, dict) or not isinstance(obj.get("atoms"), list):
        raise InputError("space must be an object with an \"atoms\" array")
    ids, weights = [], []
    for atom in obj["atoms"]:
        if not isinstance(atom, dict) or "id" not in atom or "weight" not in atom:
            raise InputError("each atom needs \"id\" and \"weight\"")
        if not _is_number(atom["weight"]):
            raise InputError("atom weight must be a number")
        ids.append(str(atom["id"]))
        weights.append(atom["weight"])
    try:
        return bo.DiscreteProbabilitySpace(tuple(ids), np.array(weights, dtype=np.float64))
    except (ValueError, OverflowError) as e:
        raise InputError(str(e)) from None


def encode_function(f: bo.BochnerFunction) -> dict:
    return {
        "space": encode_space(f.space),
        "values": {a: {"coeffs": row.tolist()} for a, row in zip(f.space.atom_ids, f.array)},
    }


def decode_function(obj) -> bo.BochnerFunction:
    if not isinstance(obj, dict) or "space" not in obj or "values" not in obj:
        raise InputError("function must be an object with \"space\" and \"values\"")
    space = decode_space(obj["space"])
    values = obj["values"]
    if not isinstance(values, dict):
        raise InputError("\"values\" must map atom ids to points")
    try:
        return bo.BochnerFunction.from_dict(
            space, {str(a): decode_point(v) for a, v in values.items()}
        )
    except ValueError as e:
        raise InputError(str(e)) from None


def encode_set(s) -> dict:
    if isinstance(s, ClosedBall):
        return {"type": "ball", "center": encode_point(s.center), "radius": float(s.radius)}
    if isinstance(s, PositiveCone):
        return {"type": "positive_cone", "dim": s.dim}
    if isinstance(s, SubspaceSpan):
        out = {"type": "subspace", "generators": [encode_point(u) for u in s.generators]}
        if not s.generators:
            out["ambient_dim"] = s.ambient_dim
        return out
    if isinstance(s, BochnerPointwiseCone):
        return {"type": "bochner_cone", "space": encode_space(s.space)}
    if isinstance(s, BochnerConstantSubspace):
        return {"type": "bochner_constants", "space": encode_space(s.space)}
    raise TypeError(f"cannot encode set {type(s).__name__}")


def decode_set(obj):
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("set must be an object with a \"type\" tag")
    kind = obj["type"]
    try:
        if kind == "ball":
            if "center" not in obj or "radius" not in obj:
                raise InputError("ball needs \"center\" and \"radius\"")
            if not _is_number(obj["radius"]):
                raise InputError("ball radius must be a number")
            return ClosedBall(decode_point(obj["center"]), float(obj["radius"]))
        if kind == "positive_cone":
            if type(obj.get("dim")) is not int:
                raise InputError("positive_cone needs an integer \"dim\"")
            return PositiveCone(obj["dim"])
        if kind == "subspace":
            gens = obj.get("generators")
            if not isinstance(gens, list):
                raise InputError("subspace needs a \"generators\" array")
            ambient = obj.get("ambient_dim")
            if ambient is not None and type(ambient) is not int:
                raise InputError("\"ambient_dim\" must be an integer")
            return SubspaceSpan(tuple(decode_point(g) for g in gens), ambient)
        if kind == "bochner_cone":
            return BochnerPointwiseCone(decode_space(obj.get("space")))
        if kind == "bochner_constants":
            return BochnerConstantSubspace(decode_space(obj.get("space")))
    except (ValueError, OverflowError) as e:
        raise InputError(str(e)) from None
    raise InputError(f"unknown set type {kind!r}")


def encode_value(value) -> dict:
    if isinstance(value, bo.BochnerFunction):
        return encode_function(value)
    return encode_point(value)


def encode_derivative_result(res: DerivativeResult) -> dict:
    out = {"covered": res.covered, "case": res.case_tag}
    if res.value is not None:
        out["value"] = encode_value(res.value)
    return out


def encode_oracle_estimate(est: OracleEstimate) -> dict:
    return {
        "converged": est.converged,
        "residual": float(est.residual),
        "value": None if est.value is None else encode_point(est.value),
        "step_sequence": [
            {"t": float(t), "quotient": encode_point(q)} for t, q in est.step_sequence
        ],
    }
