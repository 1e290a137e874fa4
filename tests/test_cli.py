"""Command-line verbs, exit codes, and output contracts."""

import json
import subprocess
import sys

import hilproj.cli
import hilproj.sets
from hilproj.cli import main

UNIT_BALL = '{"type":"ball","center":{"coeffs":[0,0]},"radius":1}'
CONE2 = '{"type":"positive_cone","dim":2}'
SPACE = '{"atoms":[{"id":"a","weight":0.25},{"id":"b","weight":0.75}]}'
HALF_SPACE = '{"atoms":[{"id":"a","weight":0.5},{"id":"b","weight":0.5}]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_project_golden(capsys):
    code, out, err = run_cli(
        capsys, "project", "--set", UNIT_BALL, "--point", '{"coeffs":[2,0]}'
    )
    assert code == 0
    assert out.strip() == '{"projection":{"coeffs":[1,0]},"distance":1}'
    assert err == ""


def test_project_batch(capsys):
    code, out, _ = run_cli(
        capsys, "project", "--set", UNIT_BALL, "--batch",
        "--point", '[{"coeffs":[2,0]},{"coeffs":[0.3,0.4]}]',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["projections"][0]["coeffs"] == [1, 0]
    assert payload["projections"][1]["coeffs"] == [0.3, 0.4]
    assert payload["distances"] == [1, 0]


def test_project_batch_projects_each_point_once(capsys, monkeypatch):
    calls, batches = [], []
    real = hilproj.cli.project
    real_sequence = hilproj.cli.project_sequence

    def counting(s, x):
        calls.append(x)
        return real(s, x)

    def counting_sequence(s, xs):
        batches.append(xs)
        return real_sequence(s, xs)

    # distance() would reach sets.project; count calls from either module
    monkeypatch.setattr(hilproj.cli, "project", counting)
    monkeypatch.setattr(hilproj.sets, "project", counting)
    # the batch goes through the library's batch kernel, once, and never through project
    monkeypatch.setattr(hilproj.cli, "project_sequence", counting_sequence)
    points = json.dumps([{"coeffs": [0.5 * i, 1.0 - 0.25 * i]} for i in range(10)])
    code, out, _ = run_cli(capsys, "project", "--set", UNIT_BALL, "--batch", "--point", points)
    assert code == 0
    assert [len(xs) for xs in batches] == [10]
    assert len(calls) == 0
    assert len(json.loads(out)["distances"]) == 10
    calls.clear()
    code, out, _ = run_cli(capsys, "project", "--set", UNIT_BALL, "--point", '{"coeffs":[2,0]}')
    assert code == 0
    assert len(calls) == 1
    assert out.strip() == '{"projection":{"coeffs":[1,0]},"distance":1}'


def test_invalid_tol_exits_2(capsys):
    verbs = (
        ("classify", "--point", '{"coeffs":[0,0]}'),
        ("derive", "--point", '{"coeffs":[2,0]}', "--direction", '{"coeffs":[0,1]}'),
    )
    for verb in verbs:
        for tol in ("nan", "inf", "-1"):
            code, out, err = run_cli(capsys, *verb[:1], "--set", UNIT_BALL, *verb[1:],
                                     "--tol", tol)
            assert code == 2
            assert out == ""
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert "--tol" in lines[0]
    code, out, _ = run_cli(capsys, "classify", "--set", UNIT_BALL,
                           "--point", '{"coeffs":[0,0]}', "--tol", "0")
    assert code == 0
    assert json.loads(out) == {"point_class": "Internal"}


def test_project_batch_reports_offending_element(capsys):
    code, out, err = run_cli(
        capsys, "project", "--set", UNIT_BALL, "--batch",
        "--point", '[{"coeffs":[2,0]},{"coeffs":[1,2,3]}]',
    )
    assert code == 3
    assert out == ""
    assert "element 1" in err
    assert not err.lstrip().startswith("{")


def test_project_accepts_file_payloads(tmp_path, capsys):
    set_file = tmp_path / "set.json"
    point_file = tmp_path / "point.json"
    set_file.write_text(UNIT_BALL)
    point_file.write_text('{"coeffs":[2,0]}')
    code, out, _ = run_cli(
        capsys, "project", "--set", str(set_file), "--point", str(point_file)
    )
    assert code == 0
    assert json.loads(out)["distance"] == 1
    code, _, err = run_cli(
        capsys, "project", "--set", str(tmp_path / "absent.json"), "--point", "{}"
    )
    assert code == 2
    assert "cannot read" in err


def test_project_bochner_function_payload(capsys):
    cone = '{"type":"bochner_cone","space":%s}' % SPACE
    f = (
        '{"space":%s,"values":{"a":{"coeffs":[1,-2]},"b":{"coeffs":[-3,4]}}}'
        % SPACE
    )
    code, out, _ = run_cli(capsys, "project", "--set", cone, "--point", f)
    assert code == 0
    payload = json.loads(out)
    assert payload["projection"]["values"]["a"]["coeffs"] == [1, 0]
    assert payload["projection"]["values"]["b"]["coeffs"] == [0, 4]


def test_malformed_json_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "project", "--set", UNIT_BALL, "--point", "{coeffs:[2,0]}"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert not err.lstrip().startswith("{")


def test_dimension_mismatch_exits_3(capsys):
    code, out, err = run_cli(
        capsys, "project", "--set", UNIT_BALL, "--point", '{"coeffs":[1,2,3]}'
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_derive_golden(capsys):
    code, out, _ = run_cli(
        capsys, "derive", "--set", UNIT_BALL,
        "--point", '{"coeffs":[2,0]}', "--direction", '{"coeffs":[0,1]}',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["covered"] is True
    assert payload["case"] == "Thm4.1(ii)(a)"
    assert payload["value"]["coeffs"] == [0, 0.5]


def test_derive_uncovered_exits_4_without_oracle(capsys):
    code, out, err = run_cli(
        capsys, "derive", "--set", CONE2,
        "--point", '{"coeffs":[1,0]}', "--direction", '{"coeffs":[0,-1]}',
    )
    assert code == 4
    payload = json.loads(out)  # the result is still reported
    assert payload == {"covered": False, "case": "NotCoveredByPaper"}
    assert "--oracle" in err
    assert not err.lstrip().startswith("{")


def test_derive_uncovered_with_oracle_goes_empirical(capsys):
    code, out, err = run_cli(
        capsys, "derive", "--set", CONE2,
        "--point", '{"coeffs":[1,0]}', "--direction", '{"coeffs":[0,-1]}',
        "--oracle",
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["covered"] is False
    assert payload["empirical"] is True
    assert "agreement" not in payload
    assert payload["oracle"]["converged"] is True
    assert all(abs(c) <= 1e-9 for c in payload["oracle"]["value"]["coeffs"])


def test_derive_covered_with_oracle_reports_agreement(capsys):
    code, out, _ = run_cli(
        capsys, "derive", "--set", UNIT_BALL,
        "--point", '{"coeffs":[2,0]}', "--direction", '{"coeffs":[0,1]}',
        "--oracle",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "Thm4.1(ii)(a)"
    assert payload["agreement"] <= 1e-7
    steps = payload["oracle"]["step_sequence"]
    assert [s["t"] for s in steps] == [2.0**-k for k in range(4, 4 + len(steps))]


def test_classify_point_golden(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--set", UNIT_BALL, "--point", '{"coeffs":[0,0]}'
    )
    assert code == 0
    assert json.loads(out) == {"point_class": "Internal"}

    code, out, _ = run_cli(
        capsys, "classify", "--set", CONE2, "--point", '{"coeffs":[0,1]}'
    )
    assert code == 0
    assert json.loads(out) == {"point_class": "Cuticle"}


def test_classify_direction_golden(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--set", UNIT_BALL,
        "--point", '{"coeffs":[1,0]}', "--direction", '{"coeffs":[0,1]}',
    )
    assert code == 0
    assert json.loads(out) == {"point_class": "Cuticle", "direction_class": "Up"}


def test_classify_direction_off_sphere_exits_5(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--set", UNIT_BALL,
        "--point", '{"coeffs":[0.5,0]}', "--direction", '{"coeffs":[0,1]}',
    )
    assert code == 5
    assert out == ""
    assert err.startswith("error:")


def test_classify_direction_needs_a_ball(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--set", CONE2,
        "--point", '{"coeffs":[1,1]}', "--direction", '{"coeffs":[0,1]}',
    )
    assert code == 2
    assert "ball" in err


def test_inverse_check(capsys):
    code, out, _ = run_cli(
        capsys, "inverse-check", "--set", UNIT_BALL,
        "--member", '{"coeffs":[1,0]}', "--point", '{"coeffs":[3,0]}',
    )
    assert code == 0 and json.loads(out) == {"member": True}

    code, out, _ = run_cli(
        capsys, "inverse-check", "--set", UNIT_BALL,
        "--member", '{"coeffs":[1,0]}', "--point", '{"coeffs":[1,1]}',
    )
    assert code == 0 and json.loads(out) == {"member": False}

    code, out, _ = run_cli(
        capsys, "inverse-check", "--set", UNIT_BALL,
        "--member", '{"coeffs":[1,0]}', "--point", '{"coeffs":[3,0]}',
        "--samples", "64", "--seed", "11",
    )
    assert code == 0 and json.loads(out) == {"member": True}


def test_verify_ball_battery_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--set", UNIT_BALL, "--trials", "1000", "--seed", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    assert payload["seed"] == 1
    names = {r["property"] for r in payload["reports"]}
    assert {"variational", "nonexpansive", "idempotent", "direction_partition"} <= names
    for r in payload["reports"]:
        assert set(r) == {"property", "trials", "failures", "worst_residual"}
        assert r["failures"] == 0


def test_verify_ball_battery_passes_at_small_and_large_radii(capsys):
    # sphere directions are resampled relative to the radius: no traceback
    # at r <= 1e-3, no false partition failure at r = 1e12
    for r in ("1e-12", "1e-3", "1e12"):
        ball = '{"type":"ball","center":{"coeffs":[0,0,0]},"radius":%s}' % r
        code, out, _ = run_cli(capsys, "verify", "--set", ball, "--trials", "200", "--seed", "1")
        assert code == 0, r
        assert json.loads(out)["failures"] == 0


def test_bool_ambient_dim_exits_2(capsys):
    empty = '{"type":"subspace","generators":[],"ambient_dim":true}'
    code, out, err = run_cli(capsys, "project", "--set", empty, "--point", '{"coeffs":[1]}')
    assert code == 2
    assert out == ""
    assert '"ambient_dim" must be an integer' in err


def test_verify_trials_zero_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--set", UNIT_BALL, "--trials", "0"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_needs_a_target(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    assert "--set or --bochner-demo" in err


def test_verify_bochner_demo(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--bochner-demo", HALF_SPACE, "--d", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["half_measure_subset"] == ["a"]
    assert payload["gram"] == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert payload["counterexample_norm_sq"] == 85.0 / 256.0
    assert payload["checks"] == {
        "orthonormality": True,
        "counterexample_nonzero": True,
        "counterexample_orthogonal": True,
    }
    assert payload["failures"] == 0


def test_hilproj_seed_env_overrides_flag(capsys, monkeypatch):
    monkeypatch.setenv("HILPROJ_SEED", "5")
    code, out, _ = run_cli(
        capsys, "verify", "--set", CONE2, "--trials", "10", "--seed", "3"
    )
    assert code == 0
    assert json.loads(out)["seed"] == 5

    monkeypatch.setenv("HILPROJ_SEED", "not-a-number")
    code, _, err = run_cli(
        capsys, "verify", "--set", CONE2, "--trials", "10", "--seed", "3"
    )
    assert code == 2
    assert "HILPROJ_SEED" in err


def test_pretty_output_parses_to_the_same_payload(capsys):
    args = ("project", "--set", UNIT_BALL, "--point", '{"coeffs":[0.3,0.7]}')
    _, compact, _ = run_cli(capsys, *args)
    _, pretty, _ = run_cli(capsys, *args, "--output", "pretty")
    assert pretty.count("\n") > compact.count("\n")
    assert json.loads(pretty) == json.loads(compact)


def test_output_feeds_back_in_bit_for_bit(capsys):
    code, out, _ = run_cli(
        capsys, "project", "--set", UNIT_BALL, "--point", '{"coeffs":[2.1,-0.7]}'
    )
    assert code == 0
    first = json.loads(out)["projection"]
    code, out, _ = run_cli(
        capsys, "project", "--set", UNIT_BALL, "--point", json.dumps(first)
    )
    assert code == 0
    second = json.loads(out)
    assert second["projection"] == first
    assert second["distance"] <= 1e-12


def test_usage_errors_and_help(capsys):
    assert run_cli(capsys)[0] == 2  # no verb is an argparse usage error
    assert run_cli(capsys, "--help")[0] == 0


def test_module_invocation():
    proc = subprocess.run(
        [
            sys.executable, "-m", "hilproj",
            "project", "--set", UNIT_BALL, "--point", '{"coeffs":[2,0]}',
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == '{"projection":{"coeffs":[1,0]},"distance":1}'


def test_bochner_unweighted_flat_payload_takes_the_atom_weights(capsys):
    cone = '{"type":"bochner_cone","space":%s}' % SPACE
    weighted = '{"coeffs":[1,-2,-3,4],"weights":[0.25,0.25,0.75,0.75]}'
    code, want, _ = run_cli(capsys, "project", "--set", cone, "--point", weighted)
    assert code == 0
    code, out, err = run_cli(capsys, "project", "--set", cone, "--point", '{"coeffs":[1,-2,-3,4]}')
    assert code == 0 and err == ""
    assert out == want
    assert json.loads(out)["projection"]["weights"] == [0.25, 0.25, 0.75, 0.75]
    code, out, err = run_cli(capsys, "project", "--set", cone, "--point", '{"coeffs":[1,-2,-3]}')
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_derive_oracle_on_function_payloads_reports_agreement(capsys):
    cone = '{"type":"bochner_cone","space":%s}' % SPACE
    f = '{"space":%s,"values":{"a":{"coeffs":[1,2]},"b":{"coeffs":[3,4]}}}' % SPACE
    g = '{"space":%s,"values":{"a":{"coeffs":[0.5,1]},"b":{"coeffs":[2,-1]}}}' % SPACE
    code, out, _ = run_cli(capsys, "derive", "--set", cone, "--point", f, "--direction", g,
                           "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["covered"] is True
    assert payload["case"] == "Thm5.1(iii)"
    assert payload["value"]["values"]["a"]["coeffs"] == [0.5, 1]
    assert payload["value"]["values"]["b"]["coeffs"] == [2, -1]
    assert payload["oracle"]["converged"] is True
    assert payload["agreement"] <= 1e-7


def test_project_batch_needs_an_array(capsys):
    code, out, err = run_cli(
        capsys, "project", "--set", UNIT_BALL, "--batch", "--point", '{"coeffs":[2,0]}'
    )
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "--batch" in lines[0]
