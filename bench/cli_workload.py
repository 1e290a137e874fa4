"""The ``verify`` workload: hilproj's command line, called in-process.

Each op calls ``hilproj.cli.main(argv)`` with stdout and stderr captured and
checks the exit code and the JSON it printed.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

import hilproj as hp
from hilproj import cli, jsonio

import reference as ref
from workloads import Op, Round, _boundary, _close, _ortho_rows, _space, _sphere_direction, _unit


def run_cli(argv) -> tuple[int, str, str]:
    """hilproj.cli.main in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _payload(result, code):
    got_code, out, _ = result
    if got_code != code:
        return None
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def _check_battery(result, expected) -> bool:
    n_props, trials = expected
    payload = _payload(result, 0)
    return (payload is not None and payload["failures"] == 0
            and len(payload["reports"]) == n_props
            and all(rep["failures"] == 0 and rep["trials"] == trials
                    for rep in payload["reports"]))


def _check_derive_oracle(result, expected) -> bool:
    want, scale = expected
    payload = _payload(result, 0)
    if payload is None or len(payload["oracle"]["step_sequence"]) != 23:
        return False
    if not payload["covered"]:
        return payload.get("empirical") is True
    return (_close(payload["value"]["coeffs"], want, scale)
            and payload["oracle"]["converged"] and payload["agreement"] <= 1e-6)


def _check_json(result, expected) -> bool:
    return _payload(result, 0) == expected


def _check_batch_payload(result, expected) -> bool:
    want, want_dist, scale = expected
    payload = _payload(result, 0)
    return (payload is not None
            and _close([p["coeffs"] for p in payload["projections"]], want, scale)
            and _close(payload["distances"], want_dist, scale))


def _check_exit(result, expected) -> bool:
    code, needs_stdout = expected
    got_code, out, err = result
    return got_code == code and bool(out) == needs_stdout and err.startswith("error:")


def _set_json(s) -> str:
    return jsonio.dumps(jsonio.encode_set(s))


def _point_json(p) -> str:
    return jsonio.dumps(jsonio.encode_point(p))


def build_verify(seed: int) -> list[Op]:
    r = Round(seed)
    rng = r.rng
    P = hp.HilbertPoint
    d = 8
    c = rng.uniform(-1.0, 1.0, d)
    rad = float(rng.uniform(0.5, 2.0))
    ball = hp.ClosedBall(P(c), rad)
    gens = _ortho_rows(rng, 4, d)
    space = _space(rng, 4)
    sets = {
        "ball": ball,
        "cone": hp.PositiveCone(d),
        "span": hp.SubspaceSpan(tuple(P(g) for g in gens)),
        "bochner_cone": hp.BochnerPointwiseCone(space),
        "bochner_constants": hp.BochnerConstantSubspace(space),
    }
    trials = 6
    for i, (name, s) in enumerate(sets.items()):
        argv = ["verify", "--set", _set_json(s), "--trials", str(trials),
                "--seed", str(seed * 10 + i)]
        r.add(f"cli.verify.{name}", lambda argv=argv: run_cli(argv),
              lambda name=name: (8 if name == "ball" else 7, trials), _check_battery, 6)
    # derive --oracle at d = 2 to 64. The 23-step difference-quotient trail goes
    # through jsonio, so the cost grows with d: these calls, which hold the
    # median, spread over a band wider than the machine's two speed states
    for dim in (2, 4, 8, 16, 32, 64):
        cd, rd = rng.uniform(-1.0, 1.0, dim), float(rng.uniform(0.5, 2.0))
        x_out = cd + rd * rng.uniform(1.2, 3.0) * _unit(rng, dim)
        v = rng.uniform(-2.0, 2.0, dim)
        x_b, v_b = _boundary(rng, dim), rng.uniform(0.0, 2.0, dim)
        x_c = _boundary(rng, dim)
        v_c = rng.uniform(-2.0, 2.0, dim)
        v_c[x_c == 0.0] = -1.0
        cone_json = _set_json(hp.PositiveCone(dim))
        for name, s_json, x, dv, want in (
            ("ball", _set_json(hp.ClosedBall(P(cd), rd)), x_out, v,
             lambda cd=cd, rd=rd, x=x_out, v=v: ref.ball_derivative(cd, rd, x, v)),
            ("cone", cone_json, x_b, v_b, lambda x=x_b, v=v_b: ref.cone_derivative(x, v)),
            ("cone_uncovered", cone_json, x_c, v_c, lambda: None),
        ):
            argv = ["derive", "--set", s_json, "--point", _point_json(P(x)),
                    "--direction", _point_json(P(dv)), "--oracle"]
            r.add(f"cli.derive_oracle.{name}", lambda argv=argv: run_cli(argv),
                  lambda want=want, dv=dv: (want(), float(np.max(np.abs(dv)))),
                  _check_derive_oracle, 2)
    x_u = _boundary(rng, d)  # an uncovered cone input, for the exit-code 4 case below
    v_u = rng.uniform(-2.0, 2.0, d)
    v_u[x_u == 0.0] = -1.0
    # inverse-check with sampled variational probes
    y = c + rad * _unit(rng, d)
    members = {"member": y + rng.uniform(0.1, 2.0) * (y - c),
               "nonmember": y + rng.uniform(0.1, 2.0) * (y - c) + 0.3 * _unit(rng, d)}
    for label, x in members.items():
        argv = ["inverse-check", "--set", _set_json(ball), "--member", _point_json(P(y)),
                "--point", _point_json(P(x)), "--samples", "200", "--seed", str(seed)]
        r.add(f"cli.inverse_check.ball.{label}", lambda argv=argv: run_cli(argv),
              lambda x=x: {"member": ref.ball_inverse_member(c, rad, y, x)}, _check_json, 9)
    # classify: point class and direction class
    up = _sphere_direction(rng, y - c, True, d)
    argv = ["classify", "--set", _set_json(ball), "--point", _point_json(P(y)),
            "--direction", _point_json(P(up))]
    r.add("cli.classify.ball", lambda argv=argv: run_cli(argv),
          lambda: {"point_class": ref.ball_point_class(c, rad, y),
                   "direction_class": ref.direction_class(c, rad, y, up)}, _check_json, 9)
    y_cone = _boundary(rng, d)
    argv_cone = ["classify", "--set", _set_json(sets["cone"]), "--point", _point_json(P(y_cone))]
    r.add("cli.classify.cone", lambda argv=argv_cone: run_cli(argv),
          lambda: {"point_class": ref.cone_point_class(y_cone)}, _check_json, 9)
    # project --batch, 10 points a payload, 10^3 to 10^4 coordinates. The five
    # largest are the slowest ops of the round, 7-14 % apart, so that the 99th
    # percentile, about the second slowest op, never sits on a wide step
    for dim in (100, 100, 100, 200, 200, 350, 500, 700, 800, 870, 930, 1000):
        cb = rng.uniform(-1.0, 1.0, dim)
        rb = float(rng.uniform(1.0, 5.0))
        xs = cb + rng.uniform(0.2, 3.0, (10, 1)) * rb * np.array(
            [_unit(rng, dim) for _ in range(10)])
        argv = ["project", "--set", _set_json(hp.ClosedBall(P(cb), rb)), "--batch",
                "--point", jsonio.dumps([jsonio.encode_point(P(x)) for x in xs])]

        def expect(cb=cb, rb=rb, xs=xs):
            p = ref.ball_project(cb, rb, xs)
            return p, ref.distance(xs, p), float(np.max(np.abs(xs)))
        r.add("cli.project_batch", lambda argv=argv: run_cli(argv), expect,
              _check_batch_payload)
    # documented exit codes on bad input
    cone_json = _set_json(sets["cone"])
    bad = (
        ("uncovered", ["derive", "--set", cone_json, "--point", _point_json(P(x_u)),
                       "--direction", _point_json(P(v_u))], 4, True),
        ("off_sphere", ["classify", "--set", _set_json(ball), "--point", _point_json(P(c)),
                        "--direction", _point_json(P(up))], 5, False),
        ("malformed", ["project", "--set", cone_json, "--point", '{"coeffs": [1, '], 2, False),
        ("dimension", ["project", "--set", cone_json,
                       "--point", _point_json(P(np.ones(d + 1)))], 3, False),
    )
    for name, argv, code, needs_stdout in bad:
        r.add(f"cli.exit.{name}", lambda argv=argv: run_cli(argv),
              lambda code=code, needs_stdout=needs_stdout: (code, needs_stdout), _check_exit, 6)
    return r.ops
