import argparse
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import fraction_records, reference_terms
from sud_estimate import characters, cli
from sud_estimate.asymptotics import exact_constant
from sud_estimate.characters import haar_quadrature, min_resolution
from sud_estimate.cli import (
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from sud_estimate.partitions import enumerate_partitions, partition_table
from sud_estimate.risk import exact_risk, risk_curve
from sud_estimate.spectral import optimality_gap
from sud_estimate.weights import (
    fraction_text,
    load_weights,
    power_weights,
    save_weights,
    scheme_weights,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


SRC = Path(__file__).resolve().parent.parent / "src"


def _child_env() -> dict:
    """This process's environment with the package on the path."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def box_removals(monkeypatch):
    """The (d, n) of every box-removal structure built while the test runs."""
    import sud_estimate.risk as risk

    calls = []
    build = risk._box_removal

    def counting(d, n):
        calls.append((d, n))
        return build(d, n)

    monkeypatch.setattr("sud_estimate.risk._box_removal", counting)
    monkeypatch.setattr("sud_estimate.spectral._box_removal", counting)
    return calls


@pytest.fixture
def level_tables(monkeypatch):
    """The (d, n, strict) of every partition table the risk and weights modules enumerate."""
    calls = []

    def counting(d, n, strict=False):
        calls.append((d, n, strict))
        return partition_table(d, n, strict)

    monkeypatch.setattr("sud_estimate.risk.partition_table", counting)
    monkeypatch.setattr("sud_estimate.weights.partition_table", counting)
    return calls


# Python's limit on int <-> decimal string conversion (3.11+, and 3.10.7+)
DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")


def big_int(text: str) -> int:
    """Parse a decimal of any length, lifting the digit limit for this call only."""
    if not DIGIT_LIMIT:
        return int(text)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


def big_fraction(text: str) -> tuple[int, int]:
    num, den = text.split("/")
    return big_int(num), big_int(den)


# power:5000 at d=2 N=5 has an exact risk of 4,772 digits over 4,772, beyond
# the 4,300 digits that str() of an int allows by default
HUGE = "power:5000"


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
            ('[{"parts": [4, 1], "weight": "1/2"}, {"parts": [4, 1], "weight": "1/3"},'
             ' {"parts": [3, 2], "weight": "1"}]', "a partition of level 5 appears twice"),
            # a RecursionError exited 1 with a traceback, an infinite weight exited 3
            pytest.param("[" * 100_000 + "]" * 100_000, "nested too deeply", id="nested"),
            pytest.param('[{"parts": [4, 1], "weight": 1e999}]', "weight record 0 is malformed",
                         id="1e999"),
            pytest.param('[{"parts": [4, 1], "weight": 1}, {"parts": [3, 2], "weight": -Infinity}]',
                         "weight record 1 is malformed", id="-Infinity"),
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

    @pytest.mark.parametrize("content, names", [
        (b'[{"parts": [4, 1], ', "Expecting property name"),
        (b"\xff\xfe[1", "can't decode byte 0xff"),
    ], ids=["truncated", "utf-16"])
    def test_undecodable_weight_file_names_its_path(self, capsys, tmp_path, content, names):
        # both exited 2 with a JSONDecodeError or UnicodeDecodeError naming no file
        path = tmp_path / "w.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "risk", "-d", "2", "-N", "5", "--scheme", f"file:{path}")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        error = json.loads(err)
        assert error["type"] == "ValueError"
        assert f"weight file {path} is not UTF-8 JSON text" in error["error"]
        assert names in error["error"]

    @pytest.mark.parametrize("alpha", ["1e400", "1e30"])
    def test_huge_integer_power_on_a_level_of_unit_products(self, capsys, alpha):
        # every gap product at d=2 N=3 is 1, so every power of it is too; numpy's
        # products**alpha raised OverflowError and exited 3
        code, out, err = run(capsys, "risk", "-d", "2", "-N", "3", "--scheme", f"power:{alpha}")
        assert (code, err) == (EXIT_OK, "")
        want = exact_risk(2, 3, scheme_weights("power:1", 2, 3)).risk
        assert Fraction(json.loads(out)["risk"]) == want

    @pytest.mark.parametrize("argv", [
        ["--scheme", "file:{path}"], ["--scheme", "power:1e999999999"],
        ["--scheme", "power:1e-999999999"],
    ], ids=["file", "power", "power-negative"])
    def test_decimal_exponent_past_the_digit_limit_is_refused_at_once(self, tmp_path, argv):
        # Fraction("1e999999999") computes 10^999999999: in a child process, so
        # that a hang fails the test instead of stalling the suite
        path = tmp_path / "w.json"
        path.write_text('[{"parts": [4, 1], "weight": "1e999999999"}]')
        argv = ["sud-estimate", "risk", "-d", "2", "-N", "5",
                *(a.format(path=path) for a in argv)]
        code = (f"import runpy, sys; sys.argv = {argv!r}; "
                "runpy.run_module('sud_estimate.cli', run_name='__main__')")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=_child_env(), timeout=30)
        assert result.returncode == EXIT_INFEASIBLE, result.stderr
        assert result.stdout == ""
        assert "exponent" in json.loads(result.stderr)["error"]

    def test_terms_with_csv_is_refused_before_any_table(self, capsys, level_tables):
        # the CSV row has no place for the terms, which it dropped without a word
        code, out, err = run(capsys, "risk", "-d", "2", "-N", "5", "--terms", "--format", "csv")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "--terms" in json.loads(err)["error"]
        assert level_tables == []

    def test_non_finite_head_exits_3_before_any_term(self, capsys, monkeypatch):
        # the terms are streamed after the head: a NaN there prints nothing
        payload = cli._payload
        monkeypatch.setattr(cli, "_payload", lambda args, command, body: {
            **payload(args, command, body), "n2_risk": math.nan})
        code, out, err = run(capsys, "risk", "-d", "3", "-N", "30", "--terms")
        assert code == EXIT_NUMERICAL
        assert out == ""
        [line] = err.splitlines()
        assert json.loads(line)["error"].startswith("risk: non-finite number")

    def test_rational_beyond_the_digit_limit_is_printed_exactly(self, capsys):
        want = exact_risk(2, 5, scheme_weights(HUGE, 2, 5)).risk
        assert want.denominator.bit_length() > 4300 * math.log2(10)  # past the limit
        code, payload, err = run_json(capsys, "risk", "-d", "2", "-N", "5", "--scheme", HUGE,
                                      "--no-timestamp")
        assert code == EXIT_OK, err
        assert big_fraction(payload["risk"]) == (want.numerator, want.denominator)
        assert payload["risk_float"] == float(want)

    def test_csv_rational_beyond_the_digit_limit_is_printed_exactly(self, capsys):
        want = exact_risk(2, 5, scheme_weights(HUGE, 2, 5)).risk
        code, out, err = run(capsys, "risk", "-d", "2", "-N", "5", "--scheme", HUGE,
                             "--format", "csv")
        assert code == EXIT_OK, err
        row = out.splitlines()[1].split(",")
        assert row[:3] == ["2", "5", HUGE]
        assert (big_int(row[3]), big_int(row[4])) == (want.numerator, want.denominator)

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python has no int digit limit")
    def test_exponent_beyond_the_digit_limit_is_refused(self, capsys):
        # user input keeps Python's parsing limit
        code, out, err = run(capsys, "risk", "-d", "2", "-N", "5",
                             "--scheme", "power:" + "1" * 5000)
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "bad exponent" in json.loads(err)["error"]

    @pytest.mark.parametrize("alpha", ["1000000", "1e400"])
    def test_huge_integer_exponent_is_refused_at_once(self, capsys, alpha):
        start = time.perf_counter()
        code, out, err = run(capsys, "risk", "-d", "2", "-N", "5", "--scheme", "power:" + alpha)
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "cap of 262144 bits" in json.loads(err)["error"]

    @pytest.mark.parametrize("d, n, risk", [(2, 3, "1/2"), (3, 6, "2/3"), (4, 10, "3/4")])
    def test_huge_exponent_of_unit_gap_products_is_accepted(self, capsys, d, n, risk):
        # the only gap product is 1, so every numerator stays 1 at any exponent
        code, payload, err = run_json(capsys, "risk", "-d", str(d), "-N", str(n),
                                      "--scheme", "power:300000", "--no-timestamp")
        assert code == EXIT_OK, err
        assert payload["risk"] == risk

    def test_timestamp_present_by_default(self, capsys):
        _, payload, _ = run_json(capsys, "risk", "-d", "2", "-N", "5")
        assert "generated_at" in payload

    def test_level_beyond_the_int64_bound_exits_2(self, capsys):
        # refused before any table is built: the strict table would have 5e9 rows
        code, out, err = run(capsys, "risk", "-d", "2", "-N", "10000000000")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        error = json.loads(err)
        assert error["type"] == "ValueError" and "int64" in error["error"]

    def test_optimal_scheme_builds_the_structure_once(self, capsys, box_removals):
        # the structure the optimum is solved on also scores it
        code, _, _ = run(capsys, "risk", "-d", "3", "-N", "30", "--scheme", "optimal",
                         "--no-timestamp")
        assert code == EXIT_OK
        assert box_removals == [(3, 30)]

    def test_arithmetic_error_exits_3(self, capsys, monkeypatch):
        def escaped(d, n, w, structure=None):
            raise ArithmeticError("risk 2 escaped [0, 1]; this is a bug")

        monkeypatch.setattr("sud_estimate.cli.exact_risk", escaped)
        code, out, err = run(capsys, "risk", "-d", "2", "-N", "5")
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert json.loads(err) == {
            "error": "risk 2 escaped [0, 1]; this is a bug",
            "type": "ArithmeticError",
        }


# JSON values a weight file may hold where a record expects parts or a weight:
# bools, floats (infinities and NaN included), nested lists and decimal
# exponents on both sides of the digit limit
_JSON_VALUES = st.recursive(
    st.one_of(st.booleans(), st.none(), st.integers(-2, 6), st.floats(),
              st.sampled_from([math.inf, -math.inf, math.nan]),
              st.builds("{}e{}".format, st.integers(0, 9), st.integers(-20_000, 20_000))),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6,
)
_WEIGHT_RECORDS = st.fixed_dictionaries({
    "parts": st.one_of(st.sampled_from([[5, 0], [4, 1], [3, 2]]), _JSON_VALUES),
    "weight": st.one_of(st.sampled_from(["1", "2/3", 4]), _JSON_VALUES),
})
_WEIGHT_FILES = st.one_of(
    st.lists(_WEIGHT_RECORDS, min_size=1, max_size=3),
    st.lists(st.one_of(_WEIGHT_RECORDS, _JSON_VALUES), max_size=3),
    _JSON_VALUES,
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=_WEIGHT_FILES)
def test_any_weight_file_exits_0_or_2_with_one_json_error_line(capsys, tmp_path, records):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(records))
    code, out, err = run(capsys, "risk", "-d", "2", "-N", "5", "--scheme", f"file:{path}")
    assert code in (EXIT_OK, EXIT_INFEASIBLE), err
    if code == EXIT_INFEASIBLE:
        assert out == ""
        assert len(err.splitlines()) == 1
        assert set(json.loads(err)) == {"error", "type"}


@pytest.mark.parametrize("argv", [["risk", "-d", "3", "-N", "30"],
                                  ["sweep", "-d", "3", "-N", "20:30:10"]],
                         ids=["risk", "sweep"])
def test_memory_error_exits_2_with_one_json_line(capsys, monkeypatch, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("sud_estimate.weights.partition_table", exhausted)
    monkeypatch.setattr("sud_estimate.risk.partition_table", exhausted)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INFEASIBLE
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err) == {"error": "out of memory", "type": "MemoryError"}


@pytest.mark.parametrize("argv, levels", [(["risk", "-d", "3", "-N", "30"], [30]),
                                          (["sweep", "-d", "3", "-N", "20:30:10"], [20, 30])],
                         ids=["risk", "sweep"])
def test_one_level_table_per_scored_level(capsys, level_tables, argv, levels):
    # box removal enumerates level N+1 and cuts the level-N table out of it;
    # the gap-product support is the strict rows of that table
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert sorted(level_tables) == [(3, n + 1, False) for n in levels]


def test_negative_level_is_refused(capsys):
    code, out, err = run(capsys, "risk", "-d", "3", "-N", "-1")
    assert code == EXIT_INFEASIBLE
    assert out == ""
    assert json.loads(err) == {"error": "level must be >= 0, got -1", "type": "ValueError"}


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
            capsys, "sweep", "-d", "2", "-N", "2:4", "--no-timestamp"
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

    @pytest.mark.parametrize(
        "d, levels, fitted",
        [(2, "2:9", True), (3, "4:7", True), (3, "1:6", False)],
    )
    def test_two_or_more_feasible_levels_always_carry_the_fit(self, capsys, d, levels, fitted):
        # skipped levels do not count: d=3 has no strict partition below N=6
        code, payload, _ = run_json(capsys, "sweep", "-d", str(d), "-N", levels, "--no-timestamp")
        assert code == EXIT_OK
        assert ("fit" in payload) == fitted == (len(payload["rows"]) >= 2)

    def test_two_level_sweep_fits_both(self, capsys):
        code, payload, _ = run_json(
            capsys, "sweep", "-d", "2", "-N", "390:400:10", "--no-timestamp"
        )
        assert code == EXIT_OK
        assert payload["fit"]["window"] == [390, 400]

    def test_rationals_beyond_the_digit_limit_are_printed_exactly(self, capsys):
        want = {p.n: p.risk for p in risk_curve(2, range(3, 10), HUGE).points}
        code, payload, err = run_json(capsys, "sweep", "-d", "2", "-N", "3:9", "--scheme", HUGE,
                                      "--exact", "--no-timestamp")
        assert code == EXIT_OK, err
        got = {row["N"]: big_fraction(row["risk"]) for row in payload["rows"]}
        assert got == {n: (r.numerator, r.denominator) for n, r in want.items()}
        code, out, err = run(capsys, "sweep", "-d", "2", "-N", "3:9", "--scheme", HUGE,
                             "--exact", "--format", "csv")
        assert code == EXIT_OK, err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        got = {int(row[0]): (big_int(row[1]), big_int(row[2])) for row in rows}
        assert got == {n: (r.numerator, r.denominator) for n, r in want.items()}

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

    @pytest.mark.parametrize("exact", [False, True])
    def test_optimal_scheme_builds_each_level_once(self, capsys, box_removals, exact):
        code, _, _ = run(capsys, "sweep", "-d", "3", "-N", "30:120:30", "--scheme", "optimal",
                         *(["--exact"] if exact else []), "--no-timestamp")
        assert code == EXIT_OK
        assert box_removals == [(3, n) for n in (30, 60, 90, 120)]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_exact_adds_only_the_exact_fields(self, capsys, fmt):
        # one exact computation either way: --exact chooses only what is printed
        args = ("sweep", "-d", "3", "-N", "60:120:30", "--format", fmt, "--no-timestamp")
        code, plain, _ = run(capsys, *args)
        assert code == EXIT_OK
        code, exact, _ = run(capsys, *args, "--exact")
        assert code == EXIT_OK
        if fmt == "csv":
            plain_rows = [line.split(",") for line in plain.splitlines()]
            exact_rows = [line.split(",") for line in exact.splitlines()]
            assert plain_rows[0] == exact_rows[0]
            assert all(row[1:3] == ["", ""] for row in plain_rows[1:])
            for a, b in zip(plain_rows[1:], exact_rows[1:], strict=True):
                assert a[0] == b[0] and a[3:] == b[3:]
                assert Fraction(int(b[1]), int(b[2])) == exact_risk(
                    3, int(b[0]), scheme_weights("product", 3, int(b[0]))).risk
            return
        plain, exact = json.loads(plain), json.loads(exact)
        assert exact["config"].pop("exact") is True and plain["config"].pop("exact") is False
        rows = [row.pop("risk") for row in exact["rows"]]
        assert rows == [fraction_text(exact_risk(3, n, scheme_weights("product", 3, n)).risk)
                        for n in (60, 90, 120)]
        assert exact == plain  # the same risk_float, n2_risk and fit

    def test_non_finite_value_exits_3_with_nothing_on_stdout(self, capsys, monkeypatch):
        import sud_estimate.risk

        fit = sud_estimate.risk.fit_constant
        monkeypatch.setattr(sud_estimate.risk, "fit_constant",
                            lambda points: dataclasses.replace(fit(points), constant=math.nan))
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
            assert exact == exact_constant(2, [row["N"]]).riemann_estimates[0][1]
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

    def test_iteration_cap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr("sud_estimate.spectral._MAX_APPLICATIONS", 2)
        code, _, err = run(capsys, "optimal", "-d", "2", "-N", "12")
        assert code == EXIT_NUMERICAL
        assert json.loads(err)["type"] == "ConvergenceError"

    @pytest.mark.parametrize("argv", [["optimal"], ["risk", "--scheme", "optimal"]],
                             ids=["optimal", "risk"])
    def test_tolerance_below_the_rounding_floor_exits_3_quickly(self, capsys, argv):
        # the solve used to run to the 10^6-application cap, 50 s, before it exited 3
        start = time.process_time()
        code, out, err = run(capsys, *argv, "-d", "3", "-N", "100", "--tol", "1e-16")
        assert time.process_time() - start < 2.0
        assert code == EXIT_NUMERICAL and out == ""
        error = json.loads(err)
        assert error["type"] == "ConvergenceError"
        assert "best residual" in error["error"]

    def test_solves_each_support_once(self, capsys, monkeypatch):
        import sud_estimate.spectral as spectral

        calls = []
        solve = spectral.max_eigenpair

        def counting(structure, **kwargs):
            calls.append((structure.support, kwargs))
            return solve(structure, **kwargs)

        monkeypatch.setattr("sud_estimate.spectral.max_eigenpair", counting)
        code, _, _ = run(capsys, "optimal", "-d", "2", "-N", "12", "--tol", "1e-11")
        assert code == EXIT_OK
        assert calls == [("full", {"tol": 1e-11}), ("strict", {"tol": 1e-11})]

    def test_builds_the_incidence_once_for_both_solves(self, capsys, box_removals):
        # one structure for the full and strict solves and the product's risk
        code, _, _ = run(capsys, "optimal", "-d", "3", "-N", "30", "--no-timestamp")
        assert code == EXIT_OK
        assert box_removals == [(3, 30)]

    def test_export_file_is_the_reported_coefficients(self, capsys, tmp_path):
        path = tmp_path / "opt.json"
        code, out, _ = run(capsys, "optimal", "-d", "3", "-N", "12",
                           "--export", str(path), "--no-timestamp")
        assert code == EXIT_OK
        assert path.read_text() == json.dumps(json.loads(out)["coefficients"], indent=2) + "\n"

    def test_non_finite_head_exits_3_before_any_coefficient(self, capsys, monkeypatch):
        # the coefficients are streamed after the head: a NaN there prints nothing
        solve = cli.optimality_gap

        def nan_residual(*args, **kwargs):
            gap = solve(*args, **kwargs)
            return dataclasses.replace(gap, full=dataclasses.replace(gap.full, residual=math.nan))

        monkeypatch.setattr(cli, "optimality_gap", nan_residual)
        code, out, err = run(capsys, "optimal", "-d", "3", "-N", "30", "--no-timestamp")
        assert code == EXIT_NUMERICAL
        assert out == ""
        [line] = err.splitlines()
        assert json.loads(line)["error"].startswith("optimal: non-finite number")

    @pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "directory"])
    def test_export_to_an_unwritable_path_exits_2(self, capsys, tmp_path, target):
        # it used to exit 1 with a FileNotFoundError or IsADirectoryError traceback
        path = tmp_path / target
        code, out, err = run(capsys, "optimal", "-d", "2", "-N", "5", "--export", str(path))
        assert code == EXIT_INFEASIBLE and out == ""
        [line] = err.splitlines()
        error = json.loads(line)
        assert error["type"] == "ValueError"
        assert str(path) in error["error"]

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


def csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class TestReportBytes:
    """The streamed reports and the exported file are the plain ``json.dumps`` and
    ``csv`` texts of records built through one Fraction per partition."""

    @pytest.mark.parametrize(
        "d, n, support",
        [(1, 5, "full"), (2, 0, "full"), (2, 403, "full"), (3, 7, "full"),
         (3, 7, "strict"), (3, 122, "full"), (4, 12, "full")],
    )
    def test_report_is_the_json_dumps_of_its_payload(self, capsys, tmp_path, d, n, support):
        path = tmp_path / "coefficients.json"
        code, out, _ = run(capsys, "optimal", "-d", str(d), "-N", str(n), "--support", support,
                           "--export", str(path), "--no-timestamp")
        assert code == EXIT_OK
        w = getattr(optimality_gap(d, n), support).eigvec
        records = fraction_records(w)
        payload = json.loads(out)
        assert list(payload)[-1] == "coefficients"
        payload["coefficients"] = records
        assert out == json.dumps(payload, indent=2, allow_nan=False) + "\n"
        assert path.read_text() == json.dumps(records, indent=2) + "\n"

    def test_export_beyond_the_digit_limit(self, tmp_path):
        # power:10000 at d=2 N=5 has 3^10000 (4,772 digits) as a numerator;
        # power:5000 stays below the 4,300 digits str() allows (2,386)
        w = power_weights(2, 5, 10000)
        records = fraction_records(w)
        assert max(len(rec["weight"]) for rec in records) > 4300
        path = tmp_path / "huge.json"
        save_weights(w, path)
        assert path.read_text() == json.dumps(records, indent=2) + "\n"

    @pytest.mark.parametrize("d, n, support", [(1, 5, "full"), (2, 0, "full"), (3, 7, "strict"),
                                               (3, 122, "full"), (4, 12, "full")])
    def test_csv_is_the_csv_writer_text(self, capsys, d, n, support):
        code, out, _ = run(capsys, "optimal", "-d", str(d), "-N", str(n), "--support", support,
                           "--format", "csv")
        assert code == EXIT_OK
        records = fraction_records(getattr(optimality_gap(d, n), support).eigvec)
        assert out == csv_text(["parts", "weight"],
                               [[" ".join(map(str, r["parts"])), r["weight"]] for r in records])

    @pytest.mark.parametrize("d, n, scheme", [
        (1, 3, "product"), (2, 5, "product"), (3, 31, "product"), (3, 12, "optimal:strict"),
        (2, 5, "file:{path}"),
    ], ids=["d=1", "d=2", "d=3", "optimal-strict", "file"])
    def test_terms_report_is_the_json_dumps_of_its_payload(self, capsys, tmp_path, d, n, scheme):
        path = tmp_path / "w.json"
        path.write_text(json.dumps([{"parts": [5, 0], "weight": "1/3"},
                                    {"parts": [4, 1], "weight": "2/7"},
                                    {"parts": [3, 2], "weight": "5"}]))
        scheme = scheme.format(path=path)
        code, out, _ = run(capsys, "risk", "-d", str(d), "-N", str(n), "--scheme", scheme,
                           "--terms", "--no-timestamp")
        assert code == EXIT_OK
        terms = reference_terms(d, n, scheme_weights(scheme, d, n))
        payload = json.loads(out)
        assert list(payload)[-1] == "numerator_terms"
        payload["numerator_terms"] = [{"parts": list(p), "value": fraction_text(v)}
                                      for p, v in terms.items()]
        assert out == json.dumps(payload, indent=2, allow_nan=False) + "\n"


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

    def test_builds_each_level_once(self, capsys, box_removals):
        # one structure per level serves the optimal solve and every scheme's exact risk
        code, payload, _ = run_json(capsys, "verify", "-d", "3", "--n-max", "10", "--no-timestamp")
        assert code == EXIT_OK and payload["pass"] is True
        assert box_removals == [(3, n) for n in range(1, 11)]

    def test_scores_each_level_on_one_set_of_run_marks(self, capsys, monkeypatch):
        # product, uniform and optimal are placed on the columns by one set of run marks
        import sud_estimate.risk as risk

        built = []
        marks = risk._run_marks
        monkeypatch.setattr(
            risk, "_run_marks", lambda table: built.append(int(table[0, 0])) or marks(table)
        )
        code, payload, _ = run_json(capsys, "verify", "-d", "3", "--n-max", "10", "--no-timestamp")
        assert code == EXIT_OK and payload["pass"] is True
        assert built == list(range(1, 11))

    def test_enumerates_no_strict_table(self, capsys, level_tables):
        # product and uniform read their support from each level's structure
        code, payload, _ = run_json(capsys, "verify", "-d", "3", "--n-max", "10", "--no-timestamp")
        assert code == EXIT_OK and payload["pass"] is True
        assert level_tables and not any(strict for _, _, strict in level_tables)

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

    def test_alternant_cache_keeps_no_level_passed(self, capsys, monkeypatch):
        # the risk check integrates level by level; once it is at level n the
        # rule holds no label below n, and every label is still evaluated once
        evaluated = []
        alternant = characters._alternant
        monkeypatch.setattr(
            characters, "_alternant", lambda parts, z: evaluated.append(parts) or alternant(parts, z)
        )
        quadrature_risk = characters.quadrature_risk
        lowest = []

        def checked(d, n, w, rule):
            risk = quadrature_risk(d, n, w, rule=rule)
            lowest.append((n, min(map(sum, rule._alternants))))
            return risk

        monkeypatch.setattr(cli, "quadrature_risk", checked)
        code, payload, _ = run_json(capsys, "verify", "-d", "4", "--n-max", "10", "--no-timestamp")
        assert code == EXIT_OK and payload["pass"] is True
        assert [n for n, _ in lowest] == sorted(n for n, _ in lowest)
        assert all(low >= n for n, low in lowest), lowest
        # the rule's 95 labels once each, plus the branching check's 38 (levels 0..7) once each
        assert len(evaluated) == 133

    @pytest.mark.parametrize("d, n_max", [(4, 10), (3, 4), (2, 3)])
    def test_branching_check_evaluates_each_label_once(self, capsys, monkeypatch, d, n_max):
        evaluated, inside = [], []
        alternant = characters._alternant
        branching_defect = cli.branching_defect

        def counting(parts, z):
            if inside:
                evaluated.append(parts)
            return alternant(parts, z)

        def tracked(*args):
            inside.append(True)
            try:
                return branching_defect(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(characters, "_alternant", counting)
        monkeypatch.setattr(cli, "branching_defect", tracked)
        code, payload, _ = run_json(capsys, "verify", "-d", str(d), "--n-max", str(n_max),
                                    "--points", "7", "--no-timestamp")
        assert code == EXIT_OK and payload["pass"] is True
        top = min(n_max, 6) + 1
        labels = [p for n in range(top + 1) for p in enumerate_partitions(d, n)]
        assert sorted(evaluated) == sorted(labels)  # one call per distinct label

    def test_branching_check_can_fail(self, capsys, monkeypatch):
        pieri_add = characters.pieri_add
        monkeypatch.setattr(characters, "pieri_add", lambda parts: pieri_add(parts)[:-1])
        points = characters.random_torus_points(3, 10, seed=1)
        assert characters.branching_defect(3, 3, points) > 1e-3
        code, payload, _ = run_json(capsys, "verify", "-d", "3", "--n-max", "4", "--no-timestamp")
        assert code == EXIT_VERIFY_FAILED and payload["pass"] is False
        assert [c["name"] for c in payload["checks"] if not c["pass"]] == ["branching-pointwise"]

    def test_n_max_below_1_is_refused_before_any_check(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "haar_quadrature", lambda *args: built.append(args))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-d", "3", "--n-max", "0"])
        assert exc.value.code == EXIT_INFEASIBLE
        assert "argument --n-max: must be >= 1" in capsys.readouterr().err
        assert built == []

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "-d", "3", "--n-max", "3", "--seed", "-1")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert json.loads(err) == {"error": "seed must be >= 0, got -1", "type": "ValueError"}

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
            ["optimal", "-d", "2", "-N", "5", "--max-iterations", "5"],
            ["sweep", "-d", "2", "-N", "3:5", "--fit"],
            ["sweep", "-d", "2", "-N", "3:5", "--no-fit"],
            ["verify", "-d", "2", "--n-max", "2", "--tol", "1e-9"],
        ],
    )
    def test_flag_the_command_never_reads_is_usage_error(self, capsys, argv):
        # the refused flag is the last one, with its value if it takes one
        flag = max(i for i, token in enumerate(argv) if token.startswith("--"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INFEASIBLE
        assert f"unrecognized arguments: {' '.join(argv[flag:])}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "-d", "2", "--n-max", "2", "--points", "0"], "--points: must be >= 1"),
            (["sweep", "-d", "2", "-N", "3:5", "--workers", "0"], "--workers: must be >= 1"),
            (["sweep", "-d", "2", "-N", "3:5", "--workers", "-1"], "--workers: must be >= 1"),
            (["verify", "-d", "2", "--n-max", "-1"], "--n-max: must be >= 1"),
        ],
    )
    def test_count_out_of_range_is_usage_error_naming_the_flag(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INFEASIBLE
        assert f"argument {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [["risk", "-d", "2", "-N", "5"], ["optimal", "-d", "2", "-N", "5"]],
        ids=["risk", "optimal"],
    )
    def test_tol_out_of_range_is_usage_error_naming_the_flag(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", value])
        assert exc.value.code == EXIT_INFEASIBLE
        assert "argument --tol: must be finite and > 0" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert "sud-estimate" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, levels",
        [("400:100:-100", [400, 300, 200, 100]), ("600:200:-200", [600, 400, 200]),
         ("5:1:-2", [5, 3, 1]), ("5:2:-2", [5, 3]), ("7:7:-1", [7]), ("3:9:3", [3, 6, 9])],
    )
    def test_range_includes_its_end_at_either_sign_of_step(self, text, levels):
        assert cli.parse_range(text) == levels

    def test_negative_step_sweep_runs_its_last_level(self, capsys):
        code, report, _ = run_json(capsys, "sweep", "-d", "2", "-N", "12:6:-3", "--no-timestamp")
        assert code == EXIT_OK
        assert report["config"]["n"] == [12, 9, 6]
        assert [row["N"] for row in report["rows"]] == [6, 9, 12]

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["sweep", "-d", "2", "-N", "3:9:0"], "3:9:0"),
            (["constant", "-d", "2", "--riemann", "10:20:0"], "10:20:0"),
        ],
    )
    def test_zero_step_is_usage_error_naming_the_range(self, capsys, argv, text):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert f"zero step in range '{text}'" in err
        assert "invalid parse_range value" not in err

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["sweep", "-d", "2", "-N", "1:10000000000000000000"], "1:10000000000000000000"),
            (["constant", "-d", "2", "--riemann", "10000000000000000000:1:-1"],
             "10000000000000000000:1:-1"),
        ],
    )
    def test_range_past_the_index_limit_is_usage_error_naming_it(self, capsys, argv, text):
        # its length does not fit a C ssize_t: OverflowError, raised inside parse_args
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert f"range '{text}' is too long" in err
        assert "Traceback" not in err

    def test_range_past_the_address_space_is_usage_error_naming_it(self):
        # 10^12 levels need an 8 TB list: MemoryError once the child caps its
        # own address space at 2 GiB, before it imports the package
        code = (
            "import resource, runpy, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "sys.argv = ['sud-estimate', 'sweep', '-d', '2', '-N', '1:1000000000000']; "
            "runpy.run_module('sud_estimate.cli', run_name='__main__')"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=_child_env(), timeout=60)
        assert result.returncode == EXIT_INFEASIBLE, result.stderr
        assert "range '1:1000000000000' is too long" in result.stderr
        assert "Traceback" not in result.stderr


def test_closed_stdout_ends_the_process_without_a_traceback():
    # `risk ... --terms | head -1` printed a BrokenPipeError traceback and exited 1,
    # the exit of a failed verify; the report is far larger than a pipe's buffer
    child = subprocess.Popen(
        [sys.executable, "-m", "sud_estimate.cli", "risk", "-d", "3", "-N", "200", "--terms"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    try:
        assert child.stdout.readline() == b"{\n"
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    finally:
        child.kill()
        child.stderr.close()
    assert err == b""
    if hasattr(signal, "SIGPIPE"):
        assert code == -signal.SIGPIPE


def _args_reads(function) -> set[str]:
    """The ``args.<name>`` attributes that ``function`` reads, and those of every
    ``cli`` helper it passes ``args`` to, by name tokens of their source.

    ``_config_echo`` reads every option through ``vars(args)`` and so proves none.
    """
    source = io.StringIO(inspect.getsource(function))
    tokens = [t for t in tokenize.generate_tokens(source.readline)
              if t.type in (tokenize.NAME, tokenize.OP)]
    read = set()
    for first, second, third in zip(tokens, tokens[1:], tokens[2:]):
        if first.string == "args" and second.string == "." and third.type == tokenize.NAME:
            read.add(third.string)
        elif (second.string == "(" and third.string == "args"
              and first.string not in ("_config_echo", function.__name__)):
            helper = getattr(cli, first.string, None)
            if inspect.isfunction(helper):
                read |= _args_reads(helper)
    return read


def test_every_option_is_read_by_its_command():
    # a flag that its command never reads is configuration with no result behind it
    [subparsers] = [a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for command, parser in subparsers.choices.items():
        read = _args_reads(parser.get_default("func"))
        unread += [f"{command} {'/'.join(a.option_strings) or a.dest}" for a in parser._actions
                   if not isinstance(a, argparse._HelpAction) and a.dest not in read]
    assert subparsers.choices.keys() == {"risk", "sweep", "constant", "optimal", "verify"}
    assert not unread, f"options that no command reads: {unread}"
