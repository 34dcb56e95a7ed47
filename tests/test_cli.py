import json
import math
from fractions import Fraction

import pytest

from sud_estimate import characters, cli
from sud_estimate.asymptotics import riemann_constant
from sud_estimate.characters import haar_quadrature, min_resolution
from sud_estimate.cli import (
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from sud_estimate.weights import load_weights


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestRisk:
    def test_golden_product_risk(self, capsys):
        code, payload, _ = run_json(
            capsys, "risk", "-d", "2", "-N", "5", "--no-timestamp"
        )
        assert code == EXIT_OK
        assert payload["risk"] == "7/26"
        assert payload["numerator"] == "38/1"
        assert payload["norm_sq"] == "13/1"
        assert payload["support_size"] == 2
        assert payload["config"]["scheme"] == "product"
        assert "generated_at" not in payload

    def test_terms_flag_lists_numerator_terms(self, capsys):
        code, payload, _ = run_json(
            capsys, "risk", "-d", "2", "-N", "5", "--terms", "--no-timestamp"
        )
        assert code == EXIT_OK
        terms = {tuple(t["parts"]): t["value"] for t in payload["numerator_terms"]}
        assert terms == {
            (6, 0): "0/1",
            (5, 1): "9/1",
            (4, 2): "25/1",
            (3, 3): "4/1",
        }

    def test_uniform_scheme(self, capsys):
        code, payload, _ = run_json(
            capsys, "risk", "-d", "2", "-N", "5",
            "--scheme", "uniform", "--no-timestamp",
        )
        assert code == EXIT_OK
        assert payload["risk"] == "1/4"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "risk", "-d", "2", "-N", "5", "--format", "csv"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "d,N,scheme,risk_num,risk_den,risk_float"
        assert lines[1].startswith("2,5,product,7,26,")

    def test_infeasible_level_exits_2(self, capsys):
        code, out, err = run(capsys, "risk", "-d", "3", "-N", "4")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert json.loads(err)["type"] == "EmptySupportError"

    def test_bad_scheme_exits_2(self, capsys):
        code, _, err = run(capsys, "risk", "-d", "2", "-N", "5", "--scheme", "bogus")
        assert code == EXIT_INFEASIBLE
        assert json.loads(err)["type"] == "ValueError"

    @pytest.mark.parametrize(
        "content, names",
        [
            ('[{"parts": [4, 1], "weight": "3"}, {"parts": [3, 2]}]', "weight record 1"),
            ('{"parts": [4, 1], "weight": "3"}', "must be a JSON list"),
            (None, "cannot read weight file"),
        ],
    )
    def test_malformed_weight_file_exits_2(self, capsys, tmp_path, content, names):
        path = tmp_path / "w.json"
        if content is not None:
            path.write_text(content)
        code, out, err = run(capsys, "risk", "-d", "2", "-N", "5", "--scheme", f"file:{path}")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        error = json.loads(err)
        assert error["type"] == "ValueError"
        assert names in error["error"]

    def test_timestamp_present_by_default(self, capsys):
        _, payload, _ = run_json(capsys, "risk", "-d", "2", "-N", "5")
        assert "generated_at" in payload

    def test_arithmetic_error_exits_3(self, capsys, monkeypatch):
        def escaped(d, n, w):
            raise ArithmeticError("risk 2 escaped [0, 1]; this is a bug")

        monkeypatch.setattr("sud_estimate.cli.exact_risk", escaped)
        code, out, err = run(capsys, "risk", "-d", "2", "-N", "5")
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert json.loads(err) == {
            "error": "risk 2 escaped [0, 1]; this is a bug",
            "type": "ArithmeticError",
        }


class TestSweep:
    def test_json_rows_and_fit(self, capsys):
        code, payload, _ = run_json(
            capsys, "sweep", "-d", "2", "-N", "3:6", "--exact", "--no-timestamp"
        )
        assert code == EXIT_OK
        rows = {r["N"]: r for r in payload["rows"]}
        assert rows[5]["risk"] == "7/26"
        assert payload["skipped"] == []
        assert "fit" in payload and payload["fit"]["constant"] > 0

    def test_csv_header_and_exact_columns(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "-d", "2", "-N", "3:5", "--exact", "--format", "csv"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "N,risk_num,risk_den,risk_float,N2_risk"
        assert lines[3].startswith("5,7,26,")

    def test_float_path_leaves_exact_columns_empty(self, capsys):
        _, out, _ = run(
            capsys, "sweep", "-d", "2", "-N", "3:5", "--format", "csv"
        )
        assert out.splitlines()[1].split(",")[1] == ""

    def test_skipped_levels_reported(self, capsys):
        code, payload, _ = run_json(
            capsys, "sweep", "-d", "2", "-N", "2:4", "--no-fit", "--no-timestamp"
        )
        assert code == EXIT_OK
        assert [r["N"] for r in payload["rows"]] == [3, 4]
        assert [s["N"] for s in payload["skipped"]] == [2]

    def test_large_power_scheme_stays_finite(self, capsys):
        # power:60 coefficients reach ~200^60; squaring them as floats overflowed
        code, out, _ = run(
            capsys, "sweep", "-d", "2", "-N", "380:400:10",
            "--scheme", "power:60", "--no-timestamp",
        )
        assert code == EXIT_OK
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(name))
        assert [r["N"] for r in payload["rows"]] == [380, 390, 400]
        assert all(math.isfinite(r["risk_float"]) for r in payload["rows"])
        assert math.isfinite(payload["fit"]["constant"])

    def test_two_level_sweep_fits_both(self, capsys):
        code, payload, _ = run_json(
            capsys, "sweep", "-d", "2", "-N", "390:400:10", "--no-timestamp"
        )
        assert code == EXIT_OK
        assert payload["fit"]["window"] == [390, 400]

    def test_fully_infeasible_range_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "-d", "3", "-N", "1:4")
        assert code == EXIT_INFEASIBLE
        assert json.loads(err)["type"] == "EmptySupportError"

    def test_repeat_runs_byte_identical(self, capsys):
        args = ("sweep", "-d", "2", "-N", "5:12", "--exact", "--no-timestamp")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_workers_do_not_change_output(self, capsys):
        # identical results; only the echoed workers setting may differ
        args = ("sweep", "-d", "2", "-N", "5:12", "--exact", "--no-timestamp")
        _, solo, _ = run_json(capsys, *args, "--workers", "1")
        _, duo, _ = run_json(capsys, *args, "--workers", "2")
        solo["config"].pop("workers")
        duo["config"].pop("workers")
        assert solo == duo


    @pytest.mark.parametrize(
        "d, levels, scheme",
        [(2, "3:20", "product"), (2, "3:20", "optimal"), (3, "6:30:6", "product")],
    )
    def test_float_rows_are_the_exact_rows_rounded(self, capsys, d, levels, scheme):
        args = ("sweep", "-d", str(d), "-N", levels, "--scheme", scheme, "--no-timestamp")
        _, fast, _ = run_json(capsys, *args)
        _, exact, _ = run_json(capsys, *args, "--exact")
        got = [row["risk_float"] for row in fast["rows"]]
        want = [float(Fraction(row["risk"])) for row in exact["rows"]]
        assert got == want

    def test_non_finite_value_exits_3_with_nothing_on_stdout(self, capsys, monkeypatch):
        import sud_estimate.risk

        monkeypatch.setattr(sud_estimate.risk, "float_risk", lambda d, n, w: math.nan)
        code, out, err = run(capsys, "sweep", "-d", "2", "-N", "5:9", "--no-timestamp")
        assert code == EXIT_NUMERICAL
        assert out == ""
        error = json.loads(err)
        assert error["error"].startswith("sweep: non-finite number")


class TestConstant:
    def test_exact_value(self, capsys):
        code, payload, _ = run_json(
            capsys, "constant", "-d", "2", "--no-timestamp"
        )
        assert code == EXIT_OK
        assert payload["exact"] == "10/1"
        assert payload["float"] == 10.0
        assert payload["numerator_integral"] == "1/3"
        assert payload["denominator_integral"] == "1/30"

    def test_riemann_levels_attached(self, capsys):
        code, payload, _ = run_json(
            capsys, "constant", "-d", "2", "--riemann", "100:300:100",
            "--no-timestamp",
        )
        assert code == EXIT_OK
        assert [row["N"] for row in payload["riemann"]] == [100, 200, 300]
        for row in payload["riemann"]:
            assert row["value"] == pytest.approx(10.0, rel=0.05)
            exact = Fraction(row["exact"])
            assert exact == riemann_constant(2, row["N"])
            assert float(exact) == row["value"]

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "constant", "-d", "3", "--riemann", "50", "--format", "csv"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "kind,N,value"
        assert lines[1].startswith("exact,,")
        assert lines[2].startswith("riemann,50,")


class TestOptimal:
    def test_report_fields(self, capsys):
        code, payload, _ = run_json(
            capsys, "optimal", "-d", "2", "-N", "5", "--no-timestamp"
        )
        assert code == EXIT_OK
        assert payload["eigmax"] == pytest.approx(2 + math.sqrt(2), abs=1e-10)
        assert payload["optimal_risk"] == pytest.approx(
            math.sin(math.pi / 8) ** 2, abs=1e-10
        )
        assert payload["product_risk"] == "7/26"
        assert payload["product_gap"] >= 0
        assert payload["iterations"] >= 1
        assert payload["residual"] <= 1e-12 * payload["eigmax"]

    def test_export_round_trip(self, capsys, tmp_path):
        path = tmp_path / "opt.json"
        code, payload, _ = run_json(
            capsys, "optimal", "-d", "2", "-N", "6",
            "--export", str(path), "--no-timestamp",
        )
        assert code == EXIT_OK
        w = load_weights(path)
        assert w.d == 2 and w.level == 6
        got = {tuple(rec["parts"]): rec["weight"] for rec in payload["coefficients"]}
        want = {p: f"{v.numerator}/{v.denominator}" for p, v in w.entries.items()}
        assert got == want

    def test_exported_scheme_feeds_back_into_risk(self, capsys, tmp_path):
        path = tmp_path / "opt.json"
        run(capsys, "optimal", "-d", "2", "-N", "6", "--export", str(path))
        code, payload, _ = run_json(
            capsys, "risk", "-d", "2", "-N", "6",
            "--scheme", f"file:{path}", "--no-timestamp",
        )
        assert code == EXIT_OK
        assert payload["risk_float"] == pytest.approx(
            math.sin(math.pi / 9) ** 2, abs=1e-9
        )

    def test_strict_support(self, capsys):
        code, payload, _ = run_json(
            capsys, "optimal", "-d", "2", "-N", "5",
            "--support", "strict", "--no-timestamp",
        )
        assert code == EXIT_OK
        assert payload["strict_optimal_risk"] >= payload["full_optimal_risk"] - 1e-9
        parts = {tuple(rec["parts"]) for rec in payload["coefficients"]}
        assert parts <= {(4, 1), (3, 2)}

    def test_iteration_cap_exits_3(self, capsys):
        code, _, err = run(
            capsys, "optimal", "-d", "2", "-N", "12", "--max-iterations", "2"
        )
        assert code == EXIT_NUMERICAL
        assert json.loads(err)["type"] == "ConvergenceError"

    def test_solves_each_support_once(self, capsys, monkeypatch):
        import sud_estimate.spectral as spectral

        calls = []
        solve = spectral.max_eigenpair

        def counting(structure, **kwargs):
            calls.append((structure.support, kwargs))
            return solve(structure, **kwargs)

        monkeypatch.setattr("sud_estimate.spectral.max_eigenpair", counting)
        code, _, _ = run(
            capsys, "optimal", "-d", "2", "-N", "12",
            "--tol", "1e-11", "--max-iterations", "500",
        )
        assert code == EXIT_OK
        options = {"tol": 1e-11, "max_iterations": 500}
        assert calls == [("full", options), ("strict", options)]

    def test_builds_the_incidence_once_for_both_solves(self, capsys, monkeypatch):
        # one structure for the full and strict solves, one for the product's risk
        import sud_estimate.risk as risk

        calls = []
        build = risk._box_removal

        def counting(d, n):
            calls.append((d, n))
            return build(d, n)

        monkeypatch.setattr("sud_estimate.risk._box_removal", counting)
        monkeypatch.setattr("sud_estimate.spectral._box_removal", counting)
        code, _, _ = run(capsys, "optimal", "-d", "3", "-N", "30", "--no-timestamp")
        assert code == EXIT_OK
        assert calls == [(3, 30), (3, 30)]

    def test_coefficients_are_the_eigenvector_floats_exactly(self, capsys):
        from sud_estimate.spectral import build_incidence, max_eigenpair

        code, payload, _ = run_json(capsys, "optimal", "-d", "3", "-N", "30", "--no-timestamp")
        assert code == EXIT_OK
        result = max_eigenpair(build_incidence(3, 30))
        want = {
            tuple(parts): Fraction(x)
            for parts, x in zip(result._columns.tolist(), result._vector.tolist()) if x > 0
        }
        got = {tuple(rec["parts"]): Fraction(rec["weight"]) for rec in payload["coefficients"]}
        assert got == want

    def test_csv_lists_coefficients(self, capsys):
        code, out, _ = run(
            capsys, "optimal", "-d", "2", "-N", "5", "--format", "csv"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "parts,weight"
        assert len(lines) == 4  # all three level-5 partitions carry weight


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "-d", "2", "--n-max", "5",
            "--points", "20", "--no-timestamp",
        )
        assert code == EXIT_OK
        assert payload["pass"] is True
        names = [c["name"] for c in payload["checks"]]
        assert names == [
            "haar-normalization",
            "character-orthogonality",
            "branching-pointwise",
            "risk-oracle",
            "expansion-identities",
        ]
        assert all(c["pass"] for c in payload["checks"])
        assert EXIT_VERIFY_FAILED == 1

    @pytest.mark.parametrize("d, n_max", [(4, 4), (3, 10)])
    def test_one_quadrature_rule_per_run(self, capsys, monkeypatch, d, n_max):
        built = []

        def counting(*args):
            built.append(args)
            return haar_quadrature(*args)

        monkeypatch.setattr(characters, "haar_quadrature", counting)
        monkeypatch.setattr(cli, "haar_quadrature", counting)
        code, payload, _ = run_json(
            capsys, "verify", "-d", str(d), "--n-max", str(n_max), "--no-timestamp",
        )
        assert code == EXIT_OK and payload["pass"] is True
        assert built == [(d, min_resolution(d, n_max))]

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "-d", "2", "--n-max", "4",
            "--points", "10", "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "check,max_error,tolerance,pass"
        assert len(lines) == 6


class TestParser:
    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["risk", "-d", "2"])

    def test_bad_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "-d", "2", "-N", "3:x"])

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["sweep", "-d", "2", "-N", "10:5"], "10:5"),
            (["sweep", "-d", "2", "-N", "10:20:-1"], "10:20:-1"),
            (["constant", "-d", "2", "--riemann", "10:5"], "10:5"),
        ],
    )
    def test_empty_range_is_usage_error_naming_it(self, capsys, argv, text):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert f"empty range '{text}'" in err
        assert "min()" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "-d", "2", "-N", "10:12", "--tol", "1e-3"],
            ["constant", "-d", "2", "--tol", "5"],
            ["constant", "-d", "2", "--workers", "7"],
            ["risk", "-d", "2", "-N", "5", "--workers", "2"],
            ["optimal", "-d", "2", "-N", "5", "--workers", "2"],
            ["verify", "-d", "2", "--n-max", "2", "--workers", "2"],
        ],
    )
    def test_flag_the_command_never_reads_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INFEASIBLE
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "-d", "2", "--n-max", "2", "--points", "0"], "--points: must be >= 1"),
            (["sweep", "-d", "2", "-N", "3:5", "--workers", "0"], "--workers: must be >= 1"),
            (["sweep", "-d", "2", "-N", "3:5", "--workers", "-1"], "--workers: must be >= 1"),
            (["verify", "-d", "2", "--n-max", "-1"], "--n-max: must be >= 0"),
        ],
    )
    def test_count_out_of_range_is_usage_error_naming_the_flag(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INFEASIBLE
        assert f"argument {message}" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert "sud-estimate" in capsys.readouterr().out
