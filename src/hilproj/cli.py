"""Command-line front door over the projection library.

Verbs: project, derive, classify, inverse-check, verify. Every payload flag
accepts inline JSON (anything starting with "{" or "[") or a path to a JSON
file. Results go to stdout as JSON with 17-significant-digit floats; one-line
diagnostics go to stderr, never JSON.

Exit codes: 0 success; 2 malformed input; 3 dimension or space mismatch;
4 derivative not covered by a closed form and --oracle not given; 5 direction
classification requested at a point off the sphere. verify exits with the
number of failed properties, capped at 125.

The environment variable HILPROJ_SEED, when set, overrides --seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import bochner as bo
from . import jsonio
from .core import DEFAULT_TOL, HilbertPoint
from .derivatives import classify_direction, derivative
from .errors import (
    DimensionMismatch,
    HilprojError,
    InputError,
    NotOnSphere,
    SpaceMismatch,
    WeightMismatch,
)
from .oracle import fd_derivative, property_battery
from .sets import (
    ClosedBall,
    _check_each,
    _flat_form,
    _gap,
    classify_point,
    in_inverse_image,
    is_bochner_set,
    project,
    project_sequence,
)


def _load(arg: str):
    """Inline JSON when the argument looks like JSON, else a file path."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise InputError(f"cannot read payload file {arg!r}: {e}") from None
    return jsonio.loads(text)


def _decode_point_for(s, obj):
    """Decode a point payload; Bochner sets also accept function JSON."""
    if is_bochner_set(s) and isinstance(obj, dict) and "values" in obj:
        return jsonio.decode_function(obj)
    p = jsonio.decode_point(obj)
    if is_bochner_set(s) and p.weights is None:
        k = s.space.n_atoms
        if p.dim % k == 0 and p.dim > 0:
            p = HilbertPoint(p.coeffs, bo.flat_weights(s.space, p.dim // k))
    return p


def _seed(args) -> int:
    env = os.environ.get("HILPROJ_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"HILPROJ_SEED must be an integer, got {env!r}") from None
    return args.seed


def _cmd_project(args):
    s = jsonio.decode_set(_load(args.set))
    obj = _load(args.point)
    if args.batch:
        if not isinstance(obj, list):
            raise InputError("--batch expects a JSON array of points")
        xs = _check_each(obj, lambda entry: _decode_point_for(s, entry))
        us = project_sequence(s, xs)
        return 0, {"projections": [jsonio.encode_value(u) for u in us],
                   "distances": [_gap(x, u) for x, u in zip(xs, us)]}
    x = _decode_point_for(s, obj)
    u = project(s, x)
    return 0, {"projection": jsonio.encode_value(u), "distance": _gap(x, u)}


def _cmd_derive(args):
    s = jsonio.decode_set(_load(args.set))
    x = _decode_point_for(s, _load(args.point))
    v = _decode_point_for(s, _load(args.direction))
    result = derivative(s, x, v, tol=args.tol)
    payload = jsonio.encode_derivative_result(result)
    if not args.oracle:
        if not result.covered:
            print(
                "error: no closed-form derivative covers this input; "
                "rerun with --oracle for an empirical estimate",
                file=sys.stderr,
            )
            return 4, payload
        return 0, payload
    estimate = fd_derivative(s, x, v)
    payload["oracle"] = jsonio.encode_oracle_estimate(estimate)
    if not result.covered:
        payload["empirical"] = True
    elif estimate.value is not None:
        analytic = _flat_form(s, result.value)[1]
        payload["agreement"] = float(
            np.max(np.abs(analytic.coeffs - estimate.value.coeffs))
        )
    return 0, payload


def _cmd_classify(args):
    s = jsonio.decode_set(_load(args.set))
    y = _decode_point_for(s, _load(args.point))
    payload = {"point_class": classify_point(s, y, tol=args.tol).value}
    if args.direction is not None:
        if not isinstance(s, ClosedBall):
            raise InputError("--direction classification requires a ball set")
        v = jsonio.decode_point(_load(args.direction))
        try:
            payload["direction_class"] = classify_direction(s, y, v, tol=args.tol).value
        except NotOnSphere as e:
            print(f"error: {e}", file=sys.stderr)
            return 5, None
    return 0, payload


def _cmd_inverse_check(args):
    s = jsonio.decode_set(_load(args.set))
    y = _decode_point_for(s, _load(args.member))
    x = _decode_point_for(s, _load(args.point))
    rng = np.random.default_rng(_seed(args))
    member = in_inverse_image(
        s, y, x, sample_budget=args.samples, tol=args.tol, rng=rng
    )
    return 0, {"member": member}


def _cmd_verify(args):
    if args.bochner_demo is not None:
        space = jsonio.decode_space(_load(args.bochner_demo))
        report = bo.orthonormal_system_report(space, args.d)
        checks = {
            "orthonormality": report.orthonormality_deviation <= 1e-12,
            "counterexample_nonzero": report.counterexample_norm_sq > 0.0,
            "counterexample_orthogonal": report.max_abs_inner <= 1e-12,
        }
        failures = sum(1 for ok in checks.values() if not ok)
        payload = {
            "half_measure_subset": list(report.subset_ids),
            "gram": [[float(x) for x in row] for row in report.gram],
            "orthonormality_deviation": report.orthonormality_deviation,
            "counterexample": jsonio.encode_function(report.counterexample),
            "counterexample_norm_sq": report.counterexample_norm_sq,
            "max_abs_inner": report.max_abs_inner,
            "checks": checks,
            "failures": failures,
        }
        return min(failures, 125), payload
    if args.set is None:
        raise InputError("verify needs --set or --bochner-demo")
    s = jsonio.decode_set(_load(args.set))
    seed = _seed(args)
    reports = property_battery(s, args.trials, seed)
    failures = sum(r["failures"] for r in reports)
    payload = {
        "trials": args.trials,
        "seed": seed,
        "reports": reports,
        "failures": failures,
    }
    return min(failures, 125), payload


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=float, default=DEFAULT_TOL,
        help="membership/classification tolerance (default 1e-9)",
    )
    common.add_argument(
        "--output", choices=("json", "pretty"), default="json",
        help="stdout rendering (default json)",
    )
    parser = argparse.ArgumentParser(
        prog="hilproj",
        description="Metric projections onto closed convex sets and their "
        "directional derivatives.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("project", parents=[common], help="project a point onto a set")
    p.add_argument("--set", required=True, help="set JSON (inline or file)")
    p.add_argument("--point", required=True, help="point JSON (inline or file)")
    p.add_argument("--batch", action="store_true", help="point payload is an array")
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("derive", parents=[common], help="directional derivative")
    p.add_argument("--set", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--direction", required=True)
    p.add_argument(
        "--oracle", action="store_true",
        help="attach a finite-difference estimate; makes uncovered cases exit 0",
    )
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("classify", parents=[common], help="point and direction classes")
    p.add_argument("--set", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--direction", help="classify this direction at a sphere point")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "inverse-check", parents=[common],
        help="does a point project onto a given set member?",
    )
    p.add_argument("--set", required=True)
    p.add_argument("--member", required=True, help="candidate image point JSON")
    p.add_argument("--point", required=True, help="point to test")
    p.add_argument(
        "--samples", type=int, default=0,
        help="extra variational-inequality samples (default 0: closed form only)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_inverse_check)

    p = sub.add_parser("verify", parents=[common], help="run the property battery")
    p.add_argument("--set", help="set JSON to verify")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--bochner-demo", metavar="SPACE",
        help="run the orthonormal-system-not-basis report over a space JSON",
    )
    p.add_argument("--d", type=int, default=16, help="series truncation (default 16)")
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if not (np.isfinite(args.tol) and args.tol >= 0.0):
            raise InputError(f"--tol must be finite and nonnegative, got {args.tol}")
        code, payload = args.handler(args)
    except (DimensionMismatch, WeightMismatch, SpaceMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (HilprojError, ValueError) as e:  # every other library error, and bad values
        print(f"error: {e}", file=sys.stderr)
        return 2
    if payload is not None:
        print(jsonio.dumps(payload, pretty=(args.output == "pretty")))
    return code


if __name__ == "__main__":
    sys.exit(main())
