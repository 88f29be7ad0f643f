"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import imbessel
from imbessel.cli import main


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------- eval

def test_eval_zero_order_prints_j0():
    code, out = run_cli(["eval", "--kind", "osc", "--nu", "0", "--x", "1", "--tol", "1e-15"])
    assert code == 0
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert abs(float(rec["cos_part"]) - 0.7651976865579666) <= 5e-16
    assert float(rec["sin_part"]) == 0.0
    assert int(rec["terms_used"]) >= 1


def test_eval_default_tolerance_honors_bound():
    code, out = run_cli(["eval", "--kind", "osc", "--nu", "0", "--x", "1"])
    assert code == 0
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert abs(float(rec["cos_part"]) - 0.7651976865579666) <= float(rec["tail_bound"])


def test_eval_small_argument_sine():
    code, out = run_cli(["eval", "--kind", "osc", "--nu", "1", "--x", "1e-6"])
    assert code == 0
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert abs(float(rec["sin_part"]) - math.sin(math.log(1e-6))) <= 1e-11


def test_eval_domain_error_exit_code():
    code, _ = run_cli(["eval", "--x", "-1", "--nu", "1"])
    assert code == 2


def test_eval_tolerance_error_exit_code():
    code, _ = run_cli(["eval", "--nu", "1", "--x", "1", "--tol", "1e-18"])
    assert code == 3


def test_eval_tiny_x_keeps_the_exit_code_contract():
    # (x/2)^2 underflows below x ~ 3e-162; no traceback, no exit 1
    for x in ("1e-165", "1e-200", "1e-300", "5e-324"):
        for nu in ("0.5", "2.5"):
            code, _ = run_cli(["eval", "--nu", nu, "--x", x])
            assert code in (0, 2, 3), (nu, x, code)
    code, _ = run_cli(["eval", "--nu", "1", "--x", "1e-200"])
    assert code == 0


def test_eval_terms_over_the_cap_is_usage_error():
    code, _ = run_cli(["eval", "--nu", "1", "--x", "1", "--terms", "1000000"])
    assert code == 2


def test_eval_round_trips_library_value():
    from imbessel import Kind, eval_pair

    code, out = run_cli(["eval", "--kind", "mod", "--nu", "1.5", "--x", "0.7"])
    assert code == 0
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    r = eval_pair(Kind.MODIFIED, 1.5, 0.7, 1e-12)
    assert float(rec["cos_part"]) == r.cos_part
    assert float(rec["sin_part"]) == r.sin_part
    assert float(rec["d_cos"]) == r.d_cos
    assert float(rec["d_sin"]) == r.d_sin
    assert float(rec["tail_bound"]) == r.tail_bound


# --------------------------------------------------------------------- table

def test_table_row_count_and_order():
    code, out = run_cli(["table", "--x-min", "0.5", "--x-max", "1.5", "--x-steps", "3",
                         "--nu", "0,1"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "nu", "cos_part", "sin_part", "d_cos", "d_sin", "terms", "bound"]
    assert len(rows) == 6
    # nu-major ordering, x inner
    assert [(float(r[1]), float(r[0])) for r in rows] == [
        (0.0, 0.5), (0.0, 1.0), (0.0, 1.5), (1.0, 0.5), (1.0, 1.0), (1.0, 1.5),
    ]


def test_table_zero_order_sine_column_is_zero():
    code, out = run_cli(["table", "--nu", "0", "--x-steps", "4"])
    assert code == 0
    _, rows = parse_csv(out)
    assert all(float(r[3]) == 0.0 for r in rows)


def test_table_csv_round_trips_doubles():
    # a searched table prints the row's values (`_eval_row`), not
    # eval_pair's; %.17g gives each double back exactly
    from imbessel import Kind
    from imbessel._rows import _eval_row

    code, out = run_cli(["table", "--x-min", "0.3", "--x-max", "1.9", "--x-steps", "5",
                         "--nu", "0.7", "--x-scale", "log"])
    assert code == 0
    _, rows = parse_csv(out)
    xs = [float(row[0]) for row in rows]
    for row, r in zip(rows, _eval_row(Kind.OSCILLATORY, 0.7, xs, 1e-12)):
        assert float(row[2]) == r[0]
        assert float(row[3]) == r[1]


def test_table_json_matches_csv():
    args = ["table", "--x-steps", "3", "--nu", "0,1.5"]
    code_c, out_c = run_cli(args)
    code_j, out_j = run_cli(args + ["--format", "json"])
    assert code_c == code_j == 0
    _, rows = parse_csv(out_c)
    records = json.loads(out_j)
    assert len(records) == len(rows)
    for row, rec in zip(rows, records):
        assert float(row[2]) == rec["cos_part"]
        assert float(row[7]) == rec["bound"]


def test_table_deterministic_across_runs():
    args = ["table", "--x-steps", "16", "--nu", "0,0.5,1,1.5,2"]
    _, first = run_cli(args)
    _, second = run_cli(args)
    assert first == second


def test_table_rejects_empty_grid():
    code, _ = run_cli(["table", "--nu", ""])
    assert code == 2
    code, _ = run_cli(["table", "--x-steps", "0"])
    assert code == 2
    code, _ = run_cli(["table", "--x-min", "2", "--x-max", "1"])
    assert code == 2


def test_nu_list_may_start_with_a_negative_order():
    # "--nu -0.5,1" is read as "--nu=-0.5,1", not as an unknown option
    for command in ("table", "compare"):
        for nus in ("-0.5,1", "-.5", "-1e-3,2", "-0.0"):
            grid = ["--x-steps", "2", "--x-max", "1.5"]
            code, out = run_cli([command, "--nu", nus] + grid)
            assert code == 0, (command, nus)
            assert (code, out) == run_cli([command, "--nu=" + nus] + grid), (command, nus)
    code, out = run_cli(["eval", "--nu", "-0.5", "--x", "1"])
    assert (code, out) == run_cli(["eval", "--nu=-0.5", "--x", "1"])


def test_nu_without_a_value_is_still_a_usage_error(capsys):
    for args in (["table", "--nu"], ["table", "--nu", "--kind", "osc"],
                 ["compare", "--x-steps", "2", "--nu"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2, args
        assert "argument --nu: expected one argument" in capsys.readouterr().err, args


# ------------------------------------------------------------------- compare

def test_compare_default_regime_passes():
    # full default grid: x in [0.1, 2] x nu in {0, 0.5, 1, 1.5, 2}
    code, out = run_cli(["compare"])
    assert code == 0
    summary = out.strip().splitlines()[-1]
    assert summary.startswith("status=PASS")
    assert "points=40" in summary


def test_compare_deterministic_across_runs():
    args = ["compare", "--x-steps", "3", "--nu", "0.5,1.5"]
    _, first = run_cli(args)
    _, second = run_cli(args)
    assert first == second


def test_compare_json_is_one_strict_document_matching_csv():
    # rows and summary are one JSON object; an infinite bound is the
    # string "inf", as in CSV, and the CSV bytes keep their summary line
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    def as_csv(value):
        return "%.17g" % value if isinstance(value, float) else str(value)

    for args in (["compare", "--x-steps", "3", "--nu", "0,1.5"],
                 ["compare", "--nu", "1", "--x-min", "1000", "--x-max", "1000", "--x-steps", "1",
                  "--terms", "1"]):
        code_c, out_c = run_cli(args)
        code_j, out_j = run_cli(args + ["--format", "json"])
        assert code_c == code_j == 0
        doc = json.loads(out_j, parse_constant=refuse)
        assert list(doc) == ["rows", "status", "points", "max_err", "tol"]
        table, summary = out_c.rsplit("\n", 2)[:2]
        header, rows = parse_csv(table + "\n")
        assert [[as_csv(rec[f]) for f in header] for rec in doc["rows"]] == rows
        assert summary == "status=%s points=%d max_err=%s tol=%s" % (
            doc["status"], doc["points"], as_csv(doc["max_err"]), as_csv(doc["tol"]))
    assert doc["rows"][0]["bound"] == "inf"


def test_compare_forced_single_term_is_honest():
    # with one term the bound is large but remains an upper bound, so the
    # bound flag stays true while the tolerance column reports the miss
    code, out = run_cli(["compare", "--x-steps", "3", "--x-min", "1.0", "--x-max", "2.0",
                         "--nu", "1", "--terms", "1", "--tol", "1e-12"])
    assert code == 0
    header, rows = parse_csv(out.rsplit("\n", 2)[0] + "\n")
    ok_col = header.index("ok")
    tol_col = header.index("within_tol")
    assert all(r[ok_col] == "True" for r in rows)
    assert all(r[tol_col] == "False" for r in rows)


def test_compare_empty_grid_exits_2():
    code, _ = run_cli(["compare", "--nu", ","])
    assert code == 2


def test_compare_oracle_digits_out_of_range_exit_2(capsys, monkeypatch):
    # refused before the first series row runs
    from imbessel import cli

    rows = []
    monkeypatch.setattr(cli, "_eval_row", lambda *args: rows.append(args))
    for digits in ("0", "201"):
        code, out = run_cli(["compare", "--x-steps", "3", "--oracle-digits", digits])
        assert (code, out, rows) == (2, "", []), digits
        assert "digits must be in 1..200" in capsys.readouterr().err, digits


# -------------------------------------------------------------------- bounds

def test_bounds_columns_and_monotonicity():
    code, out = run_cli(["bounds", "--nu", "1", "--x", "2", "--terms", "2,4,8"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "tail_bound", "empirical_error", "bound"]
    bounds = [float(r[1]) for r in rows]
    assert bounds == sorted(bounds, reverse=True)
    assert bounds[0] > bounds[1] > bounds[2]
    # eight-step bound sits under the x <= 2 envelope
    assert bounds[2] <= 24.0 / math.factorial(8) ** 2


def test_bounds_empirical_error_regime():
    code, out = run_cli(["bounds", "--nu", "1", "--x", "1", "--terms", "8"])
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][2]) <= 1e-13


def test_bounds_empirical_below_bound():
    # nu = 20 is past the orders (|nu| = 12.82 to 13.62 for n <= 40) where
    # the paper's envelope leaves the double range; the step product the
    # bound takes does not
    for nu, x in (("0.5", "1.5"), ("20", "10")):
        code, out = run_cli(["bounds", "--nu", nu, "--x", x, "--terms", "2,4,8,16"])
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert math.isfinite(float(row[1])), (nu, x, row)
            assert float(row[2]) <= float(row[1]) + 1e-13, (nu, x, row)


def test_json_output_is_strict_json():
    # an infinite bound is written as the string "inf", as in CSV, never
    # as a bare Infinity, which RFC 8259 does not allow
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    for args, field in ((["eval", "--nu", "1", "--x", "1000", "--terms", "1"], "tail_bound"),
                        (["bounds", "--nu", "1", "--x", "1000", "--terms", "1"], "bound")):
        code, out = run_cli(args + ["--format", "json"])
        assert code == 0
        record = json.loads(out, parse_constant=refuse)[0]
        assert record[field] == "inf", record
        header, rows = parse_csv(run_cli(args)[1])
        assert rows[0][header.index(field)] == "inf"


def test_bounds_result_bound_encloses_empirical_error_without_slack():
    # tail_bound is truncation alone and falls below the double result's
    # error once round-off dominates (N = 16 here); the result's own
    # bound carries the round-off too
    code, out = run_cli(["bounds", "--nu", "1", "--x", "2"])
    assert code == 0
    header, rows = parse_csv(out)
    err, bound = header.index("empirical_error"), header.index("bound")
    assert [r[0] for r in rows] == ["2", "4", "8", "16"]
    for row in rows:
        assert float(row[err]) <= float(row[bound])


def test_bounds_evaluates_its_rows_before_the_oracle(monkeypatch):
    # a refused row exits before the gold pair is formed: at nu = 1e308
    # the oracle could only refuse too, N = 401 would be formed for nothing
    from imbessel import oracle

    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the rows")

    monkeypatch.setattr(oracle, "oracle_pair", no_oracle)
    assert run_cli(["bounds", "--nu", "1", "--x", "2", "--terms", "2,401"]) == (2, "")
    assert run_cli(["bounds", "--nu", "1e308", "--x", "1e308", "--terms", "1"]) == (3, "")


def test_bounds_has_no_tolerance_option(capsys):
    # bounds forces every term count, so a --tol would be ignored: it is
    # not an option of the command
    with pytest.raises(SystemExit) as exc:
        run_cli(["bounds", "--nu", "1", "--x", "2", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


# ------------------------------------------------------------------ classify

def test_classify_imaginary_case():
    code, out = run_cli(["classify", "--a", "2", "--b", "1", "--c", "4", "--beta", "1"])
    assert code == 0
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert rec["order_type"] == "imaginary"
    assert float(rec["prefactor_exponent"]) == -0.5
    assert float(rec["gamma"]) == 2.0
    assert abs(float(rec["nu"]) - math.sqrt(3) / 2) < 1e-15


def test_classify_real_case():
    code, out = run_cli(["classify", "--a", "1", "--b", "-4", "--c", "1", "--beta", "1"])
    assert code == 0
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert rec["order_type"] == "real"
    assert float(rec["nu"]) == 2.0


def test_classify_oscillatory_self():
    code, out = run_cli(["classify", "--a", "1", "--b", "2.25", "--c", "1", "--beta", "1",
                         "--format", "json"])
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["order_type"] == "imaginary"
    assert rec["nu"] == 1.5
    assert rec["prefactor_exponent"] == 0.0


def test_classify_rejects_zero_beta():
    code, _ = run_cli(["classify", "--a", "1", "--b", "1", "--c", "1", "--beta", "0"])
    assert code == 2


def test_classify_rejects_zero_c():
    # c = 0 leaves an Euler equation, which has no Bessel form
    code, _ = run_cli(["classify", "--a", "1", "--b", "1", "--c", "0", "--beta", "1"])
    assert code == 2


def test_classify_beyond_the_double_range_is_a_tolerance_error():
    # gamma underflows to 0 or overflows, or the discriminant overflows
    for a, b, c, beta in (("1", "1", "1e-300", "1e300"), ("1", "1", "1e300", "1e-300"),
                          ("3e154", "1", "1", "1")):
        code, out = run_cli(["classify", "--a", a, "--b", b, "--c", c, "--beta", beta])
        assert (code, out) == (3, ""), (a, b, c, beta)


def test_eval_beyond_the_double_range_is_a_tolerance_error():
    # the bound chain saturates to inf there; no traceback, no exit 1
    for nu, x in (("1", "1e8"), ("1e200", "1")):
        code, _ = run_cli(["eval", "--nu", nu, "--x", x])
        assert code == 3, (nu, x)


# ------------------------------------------------------------- output bytes
#
# The CSV writer formats a whole row through one template; these pin its
# bytes to the per-value rule: format(v, ".17g") for a float, str(v) for
# anything else (ints, bools, text).

def per_value_csv(fields, rows):
    def cell(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)

    return "".join(",".join(map(cell, row)) + "\n" for row in [fields] + rows)


TABLE_FIELDS = ["x", "nu", "cos_part", "sin_part", "d_cos", "d_sin", "terms", "bound"]


def test_table_bytes_match_the_per_value_rule():
    # the values are the rows' (`_eval_row`); the rule is `_emit`'s
    from imbessel import Kind
    from imbessel.cli import _grid_points
    from imbessel._rows import _eval_row

    nus = "-0.0,0,0.5,3"
    for kind, flag in ((Kind.OSCILLATORY, "osc"), (Kind.MODIFIED, "mod")):
        for x_min, x_max, steps, scale, terms in ((1e-300, 2.0, 9, "log", None),
                                                  (0.1, 5.0, 7, "linear", None),
                                                  (0.25, 3.0, 4, "linear", 12)):
            args = ["table", "--kind", flag, "--nu=" + nus, "--x-min", repr(x_min),
                    "--x-max", repr(x_max), "--x-steps", str(steps), "--x-scale", scale]
            if terms is not None:
                args += ["--terms", str(terms)]
            code, out = run_cli(args)
            assert code == 0, args
            rows = []
            xs = _grid_points(x_min, x_max, steps, scale)
            for nu in (-0.0, 0.0, 0.5, 3.0):
                for x, r in zip(xs, _eval_row(kind, nu, xs, 1e-12, terms)):
                    rows.append([x, nu, *r[:6]])
            assert out == per_value_csv(TABLE_FIELDS, rows), args
            assert out.splitlines()[1].split(",")[1] == "-0"


def test_compare_bytes_match_the_per_value_rule():
    # the values are the rows' (`_eval_row`); the rule is `_emit`'s
    from imbessel import Kind, oracle_pair
    from imbessel.cli import COMPARE_SLACK
    from imbessel._rows import _eval_row

    code, out = run_cli(["compare", "--kind", "mod", "--nu=-0.0,1.5", "--x-steps", "3",
                         "--tol", "1e-10"])
    assert code == 0
    rows = []
    xs = (0.1, 1.05, 2.0)
    for nu in (-0.0, 1.5):
        for x, r in zip(xs, _eval_row(Kind.MODIFIED, nu, xs, 1e-10)):
            cos_part, sin_part, bound = r[0], r[1], r[5]
            gold_cos, gold_sin = oracle_pair(Kind.MODIFIED, nu, x, digits=50)
            err_cos, err_sin = abs(cos_part - gold_cos), abs(sin_part - gold_sin)
            err = max(err_cos, err_sin)
            rows.append([x, nu, err_cos, err_sin, bound,
                         err <= bound + COMPARE_SLACK, err <= 1e-10])
    max_err = max(max(row[2], row[3]) for row in rows)
    status = "PASS" if all(row[5] for row in rows) else "FAIL"
    expected = per_value_csv(["x", "nu", "err_cos", "err_sin", "bound", "ok", "within_tol"], rows)
    expected += (f"status={status} points={len(rows)} max_err={format(max_err, '.17g')} "
                 f"tol={format(1e-10, '.17g')}\n")
    assert out == expected


def test_eval_bounds_classify_bytes_match_the_per_value_rule():
    from imbessel import ImaginaryOrder, Kind, classify, eval_pair, oracle_pair, tail_bound

    for nu, x, terms in ((-0.0, 1e-300, None), (2.5, 3.0, 9)):
        args = ["eval", "--kind", "osc", f"--nu={nu!r}", f"--x={x!r}"]
        if terms is not None:
            args += ["--terms", str(terms)]
        code, out = run_cli(args)
        assert code == 0
        r = eval_pair(Kind.OSCILLATORY, nu, x, 1e-12, terms=terms)
        fields = ["cos_part", "sin_part", "d_cos", "d_sin", "terms_used", "tail_bound"]
        row = [r.cos_part, r.sin_part, r.d_cos, r.d_sin, r.terms_used, r.tail_bound]
        assert out == per_value_csv(fields, [row])

    code, out = run_cli(["bounds", "--nu", "1", "--x", "2", "--terms", "1,4,16"])
    assert code == 0
    gold_cos, gold_sin = oracle_pair(Kind.OSCILLATORY, 1.0, 2.0, digits=50)
    rows = []
    for n in (1, 4, 16):
        r = eval_pair(Kind.OSCILLATORY, 1.0, 2.0, terms=n)
        empirical = max(abs(r.cos_part - gold_cos), abs(r.sin_part - gold_sin))
        rows.append([n, tail_bound(1.0, 2.0, n), empirical, r.tail_bound])
    assert out == per_value_csv(["N", "tail_bound", "empirical_error", "bound"], rows)

    fields = ["a", "b", "c", "beta", "prefactor_exponent", "gamma", "order_type", "nu"]
    for a, b, c, beta in ((1.0, 2.25, 1.0, 1.0), (2.0, -3.0, 4.0, -0.5)):
        code, out = run_cli(["classify", "--a", repr(a), "--b", repr(b), "--c", repr(c),
                             "--beta", repr(beta)])
        assert code == 0
        sol = classify(a, b, c, beta)
        order_type = "imaginary" if isinstance(sol.order, ImaginaryOrder) else "real"
        row = [a, b, c, beta, sol.prefactor_exponent, sol.gamma, order_type, sol.order.nu]
        assert out == per_value_csv(fields, [row])


# ------------------------------------------------------------- grid rows
#
# `table` and `compare` evaluate each order through one row call and
# write nothing until the whole grid has evaluated.

def test_grid_failing_only_in_its_last_order_writes_nothing(capsys):
    from imbessel import Kind, ToleranceError, eval_pair

    with pytest.raises(ToleranceError) as exc:
        eval_pair(Kind.OSCILLATORY, 1e200, 0.1, 1e-12)
    for command in ("table", "compare"):
        for fmt in ("csv", "json"):
            code, out = run_cli([command, "--nu=0,1e200", "--x-steps", "3", "--format", fmt])
            assert (code, out) == (3, ""), (command, fmt)
            assert capsys.readouterr().err == str(exc.value) + "\n"


def test_log_grid_reaches_the_bottom_of_the_double_range(capsys):
    # x-max / x-min overflows for these grids; the points are still
    # finite and increasing, from x-min to x-max
    from imbessel.cli import _grid_points

    for x_min, x_max in ((1e-310, 10.0), (1e-300, 1e10)):
        points = _grid_points(x_min, x_max, 4, "log")
        assert points[0] == x_min
        assert all(math.isfinite(x) for x in points)
        assert all(a < b for a, b in zip(points, points[1:]))
        assert points[-1] == x_max
        code, _ = run_cli(["table", "--x-min", repr(x_min), "--x-max", repr(x_max),
                           "--x-scale", "log"])
        assert code == 3
        assert "nan" not in capsys.readouterr().err
    code, out = run_cli(["table", "--nu", "0", "--x-min", "1e-310", "--x-max", "10",
                         "--x-scale", "log", "--x-steps", "4"])
    assert code == 0
    header, rows = parse_csv(out)
    assert [float(row[0]) for row in rows] == _grid_points(1e-310, 10.0, 4, "log")


_GRID_MIN = st.floats(5e-324, 1e300)


@st.composite
def _grid_bounds(draw):
    x_min = draw(_GRID_MIN)
    if draw(st.booleans()):
        x_max = draw(st.floats(x_min, 1e308))
    else:  # a few ulps above x-min, where the points crowd together
        x_max = x_min
        for _ in range(draw(st.integers(0, 40))):
            x_max = math.nextafter(x_max, math.inf)
    return x_min, x_max


@settings(max_examples=400, deadline=None)
@given(bounds=_grid_bounds(), steps=st.integers(1, 2000), scale=st.sampled_from(["log", "linear"]))
@example(bounds=(1e-300, 1e8), steps=5, scale="log")
@example(bounds=(6.219732926352284e+236, 6.2197329263523115e+236), steps=1385, scale="log")
def test_grid_points_stay_within_x_min_and_x_max(bounds, steps, scale):
    # the last point rounded past x-max (1e8 came out as 100000000.00000136)
    # and, in a grid a few ulps wide, the points before it did too
    from imbessel.cli import _grid_points

    x_min, x_max = bounds
    points = _grid_points(x_min, x_max, steps, scale)
    assert len(points) == steps and points[0] == x_min
    assert all(x_min <= x <= x_max for x in points)
    assert all(a <= b for a, b in zip(points, points[1:]))


def test_grid_points_below_x_max_keep_their_values():
    # only points past x-max move: the benchmark's grid still ends just
    # below 10, and a grid that ended at x-max still does
    from imbessel.cli import _grid_points

    assert _grid_points(1e-2, 10.0, 500, "log")[-1] == 9.999999999999998
    assert _grid_points(1e-300, 1e8, 5, "log")[-1] == 1e8
    assert _grid_points(0.1, 5.0, 7, "linear") == [0.1 + i * (4.9 / 6) for i in range(7)]


_CLI_PROBE = """
import contextlib, io, json, sys
from imbessel.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv, out=out)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_one_process_runs_commands_like_separate_processes():
    # main reuses one parser: nothing of one call's flags reaches the next
    src = str(Path(imbessel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argvs = [["table", "--kind", "mod", "--nu=-0.5,2", "--x-steps", "3", "--format", "json",
              "--terms", "9"],
             ["eval", "--nu", "1", "--x", "2"],
             ["table", "--x-steps", "3"],
             ["table", "--x-steps", "two"]]

    def run(batch):
        done = subprocess.run([sys.executable, "-c", _CLI_PROBE, json.dumps(batch)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    together = run(argvs)
    assert together == [result for argv in argvs for result in run([argv])]
    assert [code for code, _, _ in together] == [0, 0, 0, 2]
    assert "argument --x-steps: invalid int value: 'two'" in together[3][2]


def test_bounds_with_a_term_count_beyond_the_double_range_is_a_domain_error(capsys):
    code, out = run_cli(["bounds", "--nu", "1", "--x", "2", "--terms", "1" + "0" * 400])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "N must be finite, got an int of 1329 bits\n"


def test_table_with_an_order_that_is_not_finite_is_a_domain_error(capsys):
    # the order is checked where its row is evaluated, before a byte is written
    code, out = run_cli(["table", "--nu", "0,inf"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "nu must be finite, got inf\n"


@pytest.mark.parametrize("argv, message", [
    (["table", "--nu", "1,abc"],
     "bad --nu list '1,abc': could not convert string to float: 'abc'\n"),
    (["bounds", "--nu", "1", "--x", "2", "--terms", "2,x"],
     "bad --terms list '2,x': invalid literal for int() with base 10: 'x'\n"),
    (["bounds", "--nu", "1", "--x", "2", "--terms", ","], "empty --terms list\n"),
])
def test_a_list_that_does_not_parse_is_a_domain_error(capsys, argv, message):
    code, out = run_cli(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == message


def test_a_reader_that_closes_the_pipe_gets_status_1_and_no_traceback():
    # `imbessel table ... | head -1`: 2 000 rows outgrow the pipe's buffer,
    # so the writes after the reader leaves fail with EPIPE
    src = str(Path(imbessel.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "imbessel.cli", "table", "--nu", "1",
                             "--x-steps", "2000"], env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"x,nu,")
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (1, b"")
