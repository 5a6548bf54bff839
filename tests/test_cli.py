"""CLI behavior: exit codes, report structure, determinism, config files."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import hartogs
from hartogs.cli import _COMMANDS, _SHARED, EXIT_BREACH, EXIT_INCONCLUSIVE, EXIT_INPUT, EXIT_OK, main
from hartogs.curvature import ClassificationResult, EinsteinReport
from hartogs.hyperbolic import CompletenessReport
from hartogs.profile import ValidationReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestValidateCommand:
    def test_valid_profile(self, capsys):
        code, report = run_json(capsys, "validate", "--F", "1 - t", "--b", "1")
        assert code == EXIT_OK
        assert report["report"]["valid"] is True
        assert report["tool"] == "hartogs"
        assert "version" in report and "seed" in report and "wall_time_s" in report
        assert report["config"]["expression"] == "1 - t"

    def test_invalid_profile(self, capsys):
        code, report = run_json(capsys, "validate", "--F", "1 + t", "--b", "1")
        assert code == EXIT_BREACH
        assert report["report"]["valid"] is False
        assert len(report["report"]["monotonicity_violations"]) > 0

    def test_parse_error(self, capsys):
        code, report = run_json(capsys, "validate", "--F", "1 -", "--b", "1")
        assert code == EXIT_INPUT
        assert "error" in report
        assert report["error"]["position"] == 3

    def test_missing_bound(self, capsys):
        code = main(["validate", "--F", "1 - t"])
        assert code == EXIT_INPUT

    def test_overflowing_literal(self, capsys):
        code, report = run_json(capsys, "validate", "--F", "1e400 - t", "--b", "1")
        assert code == EXIT_INPUT
        assert report["error"]["position"] == 0

    def test_deep_nesting(self, capsys):
        code, report = run_json(capsys, "validate", "--F", "(" * 400 + "t" + ")" * 400, "--b", "1")
        assert code == EXIT_INPUT
        assert isinstance(report["error"]["position"], int)

    @pytest.mark.parametrize(
        "expression, bound",
        [
            # parses, but too deep for the recursive walk of its jet
            ("+".join(["1"] * 1499 + ["t"]), "1"),
        ],
    )
    def test_tree_too_deep_to_derive_or_compile(self, capsys, expression, bound):
        code = main(["validate", "--F", expression, "--b", bound])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert isinstance(json.loads(captured.out)["error"]["position"], int)
        assert "Traceback" not in captured.err

    def test_nesting_past_200_parentheses_evaluates(self, capsys):
        # within the parser's depth guard, and past the 200 nested
        # parentheses that Python source compiled from the tree could take;
        # the alternating differences reduce to f = 1 - t
        expression = "1-" + "(t/9-" * 210 + "t" + ")" * 210
        code, report = run_json(capsys, "validate", "--F", expression, "--b", "0.01")
        assert code == EXIT_OK
        assert report["report"]["valid"] is True

    @pytest.mark.parametrize("expression", [
        "exp(-t - t^2)",  # f is 0.0 in float64 past t = 26.8
        "*".join(f"(1+{k / 10:.1f}*t)^(-0.05)" for k in range(1, 41)),  # 40 factors
    ])
    def test_valid_profiles_past_the_symbolic_limits(self, capsys, expression):
        code, report = run_json(capsys, "validate", "--F", expression, "--b", "inf")
        assert code == EXIT_OK
        assert report["report"]["valid"] is True

    def test_infinite_fold_is_evaluation_failure(self, capsys):
        code = main(["validate", "--F", "1e300*1e300 - t", "--b", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_BREACH
        report = json.loads(captured.out)["report"]
        assert report["evaluation_failures"][0][1] == "non-finite value"
        assert "Traceback" not in captured.err


class TestCurvatureCommand:
    def test_passes_at_tolerance(self, capsys):
        code, report = run_json(
            capsys, "curvature", "--F", "exp(-t)", "--b", "inf",
            "--points", "25", "--seed", "5",
        )
        assert code == EXIT_OK
        payload = report["report"]
        assert payload["max_deviation_from_minus_half"] < 1e-6
        assert len(payload["samples"]) == 25

    def test_csv_output(self, capsys, tmp_path):
        out = tmp_path / "curv.csv"
        code, _ = run_json(
            capsys, "curvature", "--F", "1 - t", "--b", "1",
            "--points", "10", "--out", str(out), "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "u,v,K"
        assert len(lines) == 11

    def test_sample_where_kcond_is_not_negative_is_input_error(self, capsys):
        # kcond > 0 from t ~ 96 on, past the t <= 50 the validity gate samples
        code = main(["curvature", "--F", "exp(-t) + exp(-100)", "--b", "inf", "--u-max", "12",
                     "--points", "40"])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: pseudoconvexity density positive at t=")

    def test_nan_curvature_is_inconclusive(self, capsys, monkeypatch):
        # max() would keep 0.0 against the nan and pass the run
        values = iter([-0.5, math.nan, -0.5])
        monkeypatch.setattr("hartogs.cli.gauss_curvature_slice", lambda profile, sp: next(values))
        code, report = run_json(capsys, "curvature", "--F", "1 - t", "--b", "1", "--points", "3")
        assert code == EXIT_INCONCLUSIVE
        assert report["report"]["max_deviation_from_minus_half"] == "nan"


class TestGeodesicCommand:
    def test_ball_diagonal_is_straight(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code, report = run_json(
            capsys, "geodesic", "--F", "1 - t", "--b", "1",
            "--dir", "1,1", "--length", "4", "--out", str(out), "--format", "csv",
        )
        assert code == EXIT_OK
        assert report["report"]["self_intersection"]["passed"] is True
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "s,u,v,du,dv,energy"
        data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
        # chords through the origin are geodesic traces of the ball slice
        assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-8
        assert np.max(np.abs(data[:, 5] - 1.0)) < 1e-6

    def test_full_domain_direction_reduces(self, capsys):
        code, report = run_json(
            capsys, "geodesic", "--F", "exp(-t)", "--b", "inf",
            "--dir", "1j,0.5", "--length", "2",
        )
        assert code == EXIT_OK
        reduction = report["report"]["reduction"]
        assert reduction is not None
        assert reduction["theta"] == pytest.approx(-math.pi / 2)

    def test_dimension_mismatch_rejected(self, capsys):
        code = main(
            ["geodesic", "--F", "exp(-t)", "--b", "inf", "--n", "3",
             "--dir", "1j,0.5", "--length", "1"]
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("length", ["25", "30", "60"])
    @pytest.mark.parametrize("direction", ["0.6,0.8", "0,1", "-0.3,1", "1,0"])
    @pytest.mark.parametrize("expression,bound", [
        ("1 - t", "1"), ("exp(-t)", "inf"), ("1.3*exp(-0.8*t)", "inf"), ("(1 + 0.9*t)^(-2)", "inf"),
    ])
    def test_long_origin_ray_does_not_cross_itself(self, capsys, expression, bound, direction,
                                                    length):
        # near the rim consecutive (u, v) samples round onto the same floats;
        # origin geodesics never cross themselves (Theorem mainteor1)
        code, report = run_json(capsys, "geodesic", "--F", expression, "--b", bound,
                                f"--dir={direction}", "--length", length)
        assert code == EXIT_OK
        assert report["report"]["self_intersection"]["passed"] is True

    @pytest.mark.filterwarnings("error")
    def test_ray_into_a_non_pseudoconvex_tail_is_input_error(self, capsys):
        # kcond > 0 from t ~ 96 on; no sample there may leak inf and nan
        code = main(["geodesic", "--F", "exp(-t) + exp(-100)", "--b", "inf", "--dir", "1,0",
                     "--length", "200"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: pseudoconvexity density positive at t=")
        assert err.count("\n") == 1

    def test_nan_start_is_outside_the_slice(self, capsys):
        code = main(["geodesic", "--F", "1 - t", "--b", "1", "--start", "nan,0"])
        assert code == EXIT_INPUT
        assert "not strictly inside the slice (f - v^2 = nan)" in capsys.readouterr().err

    def test_length_below_float_resolution_is_input_error(self, capsys):
        # every sample of a length-1e-20 chord rounds onto its start, which
        # the screen would read as a crossing
        argv = ["geodesic", "--F", "1 - t", "--b", "1", "--dir", "1,1", "--length"]
        assert main(argv + ["1e-20"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: length 1e-20: consecutive samples coincide in float64\n"
        code, report = run_json(capsys, *argv, "1e-12")
        assert code == EXIT_OK
        assert report["report"]["self_intersection"]["passed"] is True


@pytest.mark.parametrize("argv", [
    # each exited as noted under an absolute guard on f - v^2 of 1e-12 and
    # a metric jet in raw powers of f - v^2
    ("curvature", "--F", "1e-13*(1 - t)", "--b", "1"),  # 2
    ("curvature", "--F", "1e80*(1 - t)", "--b", "1"),  # 1
    ("geodesic", "--F", "1e-13*(1 - t)", "--b", "1", "--dir", "1,1", "--length", "5"),  # 2
    ("geodesic", "--F", "exp(-t)", "--b", "inf", "--start", "5.3,0", "--length", "1"),  # 2
    ("curvature", "--F", "exp(-t)", "--b", "inf", "--u-max", "6"),  # 2
], ids=["curvature-1e-13", "curvature-1e80", "geodesic-1e-13", "geodesic-start-5.3",
        "curvature-u-max-6"])
def test_scale_free_probes_pass(capsys, argv):
    # the domains are isometric to those of 1 - t and exp(-t), or the points
    # are inside by the relative rule, GAP_REL * f
    code, _ = run_json(capsys, *argv)
    assert code == EXIT_OK


@pytest.mark.parametrize("command, code", [
    ("completeness", EXIT_OK), ("classify", EXIT_OK), ("geodesic", EXIT_INPUT)])
def test_deep_subnormal_bound_returns(command, code):
    # a child process, so that a hang fails the test: the psi table used to
    # pull sqrt(b) inside b one ulp at a time, some 1e12 steps here
    result = subprocess.run(
        [sys.executable, "-m", "hartogs.cli", command, "--F", "1 - t", "--b", "1e-320"],
        env=_child_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == code, result.stderr
    if command == "completeness":
        report = json.loads(result.stdout)["report"]
        assert report["verdict"] == "incomplete"
        assert report["integral_value"] == pytest.approx(1e-160, rel=1e-3)
    else:
        assert "Traceback" not in result.stderr


class TestCompletenessCommand:
    def test_incomplete_with_value(self, capsys):
        code, report = run_json(
            capsys, "completeness", "--F", "(1 + t)^(-1)", "--b", "inf"
        )
        assert code == EXIT_OK
        payload = report["report"]
        assert payload["verdict"] == "incomplete"
        assert payload["integral_value"] == pytest.approx(math.pi / 2, abs=1e-6)

    def test_complete_marker(self, capsys):
        code, report = run_json(capsys, "completeness", "--F", "exp(-t)", "--b", "inf")
        assert code == EXIT_OK
        assert report["report"]["verdict"] == "complete"
        assert report["report"]["integral_value"] == "inf"

    def test_unknown_maps_to_exit_3(self, capsys, monkeypatch):
        from hartogs import cli
        from hartogs.hyperbolic import CompletenessReport

        monkeypatch.setattr(
            cli, "completeness",
            lambda profile: CompletenessReport("unknown", math.nan, {"reason": "forced"}),
        )
        code, report = run_json(capsys, "completeness", "--F", "exp(-t)", "--b", "inf")
        assert code == EXIT_INCONCLUSIVE
        assert report["report"]["integral_value"] == "nan"

    def test_finite_b_slope_between_the_bands_exits_3(self, capsys):
        # the integrand grows like eps^-0.94 at the rim: neither band decides
        code, report = run_json(capsys, "completeness", "--F", "exp((1 - t)^0.12)", "--b", "1")
        assert code == EXIT_INCONCLUSIVE
        payload = report["report"]
        assert payload["verdict"] == "unknown"
        assert payload["diagnostics"]["slopes"][-1] == pytest.approx(-0.94, abs=1e-3)


class TestClassifyAndEinstein:
    def test_dossier(self, capsys):
        code, report = run_json(capsys, "classify", "--F", "2 - 3*t", "--b", "0.6666")
        assert code == EXIT_OK
        payload = report["report"]
        assert payload["family"] == "hyperbolic"
        assert payload["params"]["c1"] == pytest.approx(2.0, rel=1e-9)
        assert payload["params"]["c2"] == pytest.approx(3.0, rel=1e-9)
        assert payload["einstein"]["is_einstein"] is True
        assert payload["completeness"]["verdict"] == "incomplete"

    def test_spring_dossier(self, capsys):
        code, report = run_json(capsys, "classify", "--F", "exp(-t)", "--b", "inf")
        assert code == EXIT_OK
        payload = report["report"]
        assert payload["family"] == "spring"
        assert payload["completeness"]["verdict"] == "complete"
        assert payload["einstein"]["is_einstein"] is False

    def test_underflowing_base_curvature_classifies(self, capsys):
        # f underflows on the classification grid; its log-derivatives,
        # taken by log-sum-exp of the two terms, do not
        code, report = run_json(capsys, "classify", "--F", "exp(-20*t) + exp(-21*t)", "--b", "inf")
        assert code == EXIT_OK
        assert report["report"]["family"] == "generic"
        assert report["report"]["completeness"]["verdict"] == "complete"

    def test_einstein_command(self, capsys):
        code, report = run_json(capsys, "einstein", "--F", "2 - 3*t", "--b", "0.66")
        assert code == EXIT_OK
        assert report["report"]["is_einstein"] is True
        assert report["report"]["mean_value"] == pytest.approx(6.0, rel=1e-9)


class TestValidityGate:
    @pytest.mark.parametrize("command, expression", [
        ("curvature", "1 + t"),
        ("einstein", "exp(t)"),
        ("completeness", "2 + t"),
        ("classify", "t"),
        ("geodesic", "1 + t"),
    ])
    def test_invalid_profile_is_a_breach(self, capsys, command, expression):
        code, report = run_json(capsys, command, "--F", expression, "--b", "1")
        assert code == EXIT_BREACH
        assert report["report"]["valid"] is False
        violations = report["report"]["violations"]
        assert set(violations) == {"positivity", "monotonicity", "pseudoconvexity", "evaluation"}
        assert sum(violations.values()) > 0

    def test_gated_run_writes_no_output_file(self, capsys, tmp_path):
        out = tmp_path / "curvature.csv"
        code = main(["curvature", "--F", "1 + t", "--b", "1", "--out", str(out), "--format", "csv"])
        assert code == EXIT_BREACH
        assert not out.exists()


class TestConfigAndDeterminism:
    def test_config_file_supplies_flags(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"expression": "1 - t", "b": 1, "points": 7}))
        code, report = run_json(capsys, "curvature", "--config", str(config))
        assert code == EXIT_OK
        assert len(report["report"]["samples"]) == 7

    def test_config_file_accepts_flag_spelling(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"F": "1 - t", "b": 1, "points": 4}))
        code, report = run_json(capsys, "curvature", "--config", str(config))
        assert code == EXIT_OK
        assert report["config"]["expression"] == "1 - t"

    def test_flags_win_over_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"expression": "1 + t", "b": 1}))
        code, report = run_json(
            capsys, "validate", "--config", str(config), "--F", "1 - t"
        )
        assert code == EXIT_OK
        assert report["config"]["expression"] == "1 - t"

    @pytest.mark.parametrize("content, message", [
        ("[1, 2]", "error: config file must contain a JSON object\n"),
        ('{"b": 1}', "error: profile expression is required (--F or config file)\n"),
    ])
    def test_config_file_without_an_object_or_f_is_input_error(self, capsys, tmp_path,
                                                               content, message):
        config = tmp_path / "run.json"
        config.write_text(content)
        assert main(["validate", "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr() == ("", message)

    def test_json_deterministic_modulo_wall_time(self, capsys):
        def strip_wall_time(text):
            return "\n".join(
                line for line in text.splitlines() if '"wall_time_s"' not in line
            )

        _, first = run(capsys, "curvature", "--F", "exp(-t)", "--b", "inf",
                       "--points", "20", "--seed", "42")
        _, second = run(capsys, "curvature", "--F", "exp(-t)", "--b", "inf",
                        "--points", "20", "--seed", "42")
        assert strip_wall_time(first) == strip_wall_time(second)

    def test_csv_byte_identical(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run(capsys, "geodesic", "--F", "1 - t", "--b", "1", "--dir", "1,0.3",
                "--length", "3", "--seed", "11", "--out", str(out), "--format", "csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_changes_samples(self, capsys):
        _, first = run_json(capsys, "curvature", "--F", "1 - t", "--b", "1",
                            "--points", "5", "--seed", "1")
        _, second = run_json(capsys, "curvature", "--F", "1 - t", "--b", "1",
                             "--points", "5", "--seed", "2")
        assert first["report"]["samples"] != second["report"]["samples"]


class TestOptionChecks:
    def test_string_u_max_in_config_is_cast(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"F": "1 - t", "b": 1, "u_max": "0.5", "points": 3}))
        code, report = run_json(capsys, "curvature", "--config", str(config))
        assert code == EXIT_OK
        assert report["config"]["options"]["u_max"] == 0.5
        assert all(abs(sample["u"]) <= 0.5 for sample in report["report"]["samples"])

    def test_integer_u_max_in_config_echoes_as_float(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"F": "1 - t", "b": 1, "u_max": 1, "points": 3}))
        _, out = run(capsys, "curvature", "--config", str(config))
        assert '"u_max": 1.0' in out

    def test_config_format_is_checked_as_the_flag_is(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        out = tmp_path / "x.out"
        config.write_text(json.dumps({"F": "1 - t", "b": 1, "format": "xml", "out": str(out)}))
        assert main(["geodesic", "--config", str(config)]) == EXIT_INPUT
        from_file = capsys.readouterr()
        assert main(["geodesic", "--F", "1 - t", "--b", "1", "--format", "xml",
                     "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr() == from_file
        assert from_file.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, out, extra", [
        *((command, "x.csv", ["--format", "csv"])  # no CSV output
          for command in ("validate", "completeness", "einstein", "classify")),
        ("validate", "missing/x.json", []),  # cannot be opened
        ("curvature", "missing/x.csv", ["--format", "csv"]),
    ])
    def test_input_error_prints_no_report(self, capsys, tmp_path, command, out, extra):
        argv = [command, "--F", "1 - t", "--b", "1", "--out", str(tmp_path / out), *extra]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not any(tmp_path.rglob("x.*"))

    def test_grid_commands_word_a_short_grid_alike(self, capsys):
        errors = set()
        for command in ("validate", "einstein", "classify"):
            assert main([command, "--F", "1 - t", "--b", "1", "--grid", "1"]) == EXIT_INPUT
            errors.add(capsys.readouterr().err)
        assert errors == {"error: grid size must be at least 2\n"}

    @pytest.mark.parametrize("command, key", [("geodesic", "lenght"), ("validate", "dir"),
                                              ("completeness", "grid")])
    def test_config_key_that_is_no_flag_of_the_command_is_named(self, capsys, tmp_path,
                                                                command, key):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"F": "1 - t", "b": 1, key: 30}))
        assert main([command, "--config", str(config)]) == EXIT_INPUT
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value, kind", [
        ("curvature", "points", True, "int"),  # not 1
        ("curvature", "points", 2.7, "int"),  # not 2
        ("curvature", "points", "2.7", "int"),
        ("curvature", "b", True, "float"),  # not 1.0
        ("validate", "allow_increasing", "false", "bool"),  # bool("false") is True
        ("validate", "allow_increasing", 0, "bool"),
    ])
    def test_config_value_of_another_type_is_input_error(self, capsys, tmp_path, command, key,
                                                         value, kind):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"F": "1 - t", "b": 1, key: value}))
        assert main([command, "--config", str(config)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key} must be a {kind}, got {value!r}\n"

    @pytest.mark.parametrize("key, value, echoed", [("points", "40", 40), ("points", 4.0, 4),
                                                    ("b", "inf", "inf")])
    def test_config_number_of_a_castable_shape_is_cast(self, capsys, tmp_path, key, value,
                                                       echoed):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"F": "exp(-t)", "b": 1, key: value}))
        code, report = run_json(capsys, "curvature", "--config", str(config))
        assert code == EXIT_OK
        merged = report["config"] if key == "b" else report["config"]["options"]
        assert repr(merged[key]) == repr(echoed)

    def test_option_of_the_wrong_shape_is_input_error(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"F": "1 - t", "b": 1, "length": [1]}))
        assert main(["geodesic", "--config", str(config)]) == EXIT_INPUT

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_points_below_one_rejected(self, capsys, points):
        code = main(["curvature", "--F", "1 - t", "--b", "1", "--points", points])
        assert code == EXIT_INPUT

    def test_negative_guard_rejected(self, capsys):
        code = main(["geodesic", "--F", "1 - t", "--b", "1", "--guard", "-1"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("length", ["inf", "nan", "0", "-2"])
    def test_length_must_be_positive_and_finite(self, capsys, length):
        # a chord on a complete domain has no end to stop at
        code = main(["geodesic", "--F", "1 - t", "--b", "1", "--dir", "1,1",
                     "--length", length])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_tol_must_be_positive(self, capsys, tol):
        # a nan tolerance would fail every deviation, and read as a breach
        code = main(["curvature", "--F", "1 - t", "--b", "1", "--points", "3", "--tol", tol])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("t_max", ["-1", "0", "nan", "inf"])
    def test_t_max_must_be_positive_and_finite(self, capsys, t_max):
        code = main(["validate", "--F", "exp(-t)", "--b", "inf", "--t-max", t_max])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("u_max, b", [("5", "1"), ("-1", "1"), ("nan", "1"),
                                          ("inf", "inf")])
    def test_u_max_must_lie_in_the_slice(self, capsys, u_max, b):
        # outside [0, sqrt(b)] the sampler failed in math or numpy, with their words
        code = main(["curvature", "--F", "exp(-t)", "--b", b, "--points", "3",
                     "--u-max", u_max])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: u_max must satisfy 0 <= u_max < inf and u_max^2 <= b, "
            f"got u_max={float(u_max)} with b={float(b)}\n")

    def test_memory_error_is_input_error(self, capsys, monkeypatch):
        # a grid too large to allocate; exit 1 would read as a property breach
        def unallocatable(profile, grid):
            raise MemoryError(f"cannot allocate a grid of {grid} points")

        monkeypatch.setattr(hartogs.cli, "einstein_check", unallocatable)
        code = main(["einstein", "--F", "exp(-t)", "--b", "inf", "--grid", "64"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: cannot allocate a grid of 64 points\n"


def _child_env() -> dict:
    """The environment of a child python that imports this hartogs."""
    src = str(Path(hartogs.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: neither the import nor a convergent
    # completeness value, in either command that reports one, loads it
    probe = (
        "import contextlib, io, sys, hartogs.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [hartogs.cli.main([command, '--F', '(1 + t)^(-2)', '--b', 'inf'])\n"
        "             for command in ('completeness', 'classify')]\n"
        "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 0] []"


@pytest.mark.parametrize("expression", ["t^1e12", "t^(1/3^3^3^3)"])
def test_huge_integral_power_ends(expression):
    # t^1e12 at t = 0 is about 40 jet products by squaring, and the parser
    # folds 3^(3^27) on the log path; a product per unit of p never ends
    result = subprocess.run(
        [sys.executable, "-m", "hartogs.cli", "validate", "--F", expression, "--b", "1"],
        env=_child_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == EXIT_BREACH, result.stderr


# a value for every option a command declares; an option without one here
# fails test_every_declared_option_is_accepted
OPTION_VALUES = {
    "grid": 32,
    "t_max": 20.0,
    "allow_increasing": True,
    "points": 5,
    "u_max": 0.5,
    "direction": "1,0.5",
    "length": 1.5,
    "start": "0.1,0.1",
    "guard": 0.4,
}


class TestCommandTable:
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_every_declared_option_is_accepted(self, capsys, tmp_path, command):
        options = _COMMANDS[command][1]
        given = {name: OPTION_VALUES[name] for name in options}
        defaults = {name: default for name, (_, _, default, _) in options.items()}
        flags = []
        for name, (flag, kind, _, _) in options.items():
            flags += [flag] if kind is bool else [flag, str(given[name])]
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({flag.lstrip("-"): given[name] for name, (flag, *_) in options.items()})
        )
        profile = ["--F", "1 - t", "--b", "1"]
        for argv, expected in (
            (profile + flags, given),
            (profile + ["--config", str(config)], given),
            (profile, defaults),
        ):
            code, report = run_json(capsys, command, *argv)
            assert code == EXIT_OK, argv
            assert report["config"]["options"] == expected

    def test_every_shared_flag_is_accepted(self, capsys, tmp_path):
        given = {"expression": "1 - t", "b": 0.5, "n": 3, "seed": 7, "tol": 0.001,
                 "out": str(tmp_path / "x.json"), "format": "json"}
        assert set(given) == set(_SHARED)
        flags = [arg for name, (flag, *_) in _SHARED.items() for arg in (flag, str(given[name]))]
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({flag.lstrip("-"): given[name] for name, (flag, *_) in _SHARED.items()}))
        for argv in (flags, ["--config", str(config)]):
            code, report = run_json(capsys, "completeness", *argv)
            assert code == EXIT_OK, argv
            assert report["config"] == {"command": "completeness", **given, "options": {}}
            assert json.loads((tmp_path / "x.json").read_text())["config"] == report["config"]

    @pytest.mark.parametrize("command, name", [
        (command, name) for command, (_, options) in sorted(_COMMANDS.items())
        for name, (_, _, default, _) in (_SHARED | options).items() if default is not None] + [
        ("geodesic", "out")])
    def test_null_or_misshapen_option_is_input_error(self, capsys, tmp_path, command, name):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({name: ["a"] if name == "out" else None}))
        assert main([command, "--F", "1 - t", "--b", "1", "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {name} must be a ")

    @pytest.mark.parametrize(
        "command, report_type, extra",
        [
            ("validate", ValidationReport, set()),
            ("completeness", CompletenessReport, set()),
            ("einstein", EinsteinReport, set()),
            ("classify", ClassificationResult, {"completeness", "einstein"}),
        ],
    )
    def test_payload_carries_the_report_fields(self, capsys, command, report_type, extra):
        _, report = run_json(capsys, command, "--F", "1 - t", "--b", "1")
        assert set(report["report"]) == {f.name for f in fields(report_type)} | extra
