"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import math

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
    from imbessel import Kind, eval_pair

    code, out = run_cli(["table", "--x-min", "0.3", "--x-max", "1.9", "--x-steps", "5",
                         "--nu", "0.7", "--x-scale", "log"])
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        x = float(row[0])
        r = eval_pair(Kind.OSCILLATORY, 0.7, x, 1e-12)
        assert float(row[2]) == r.cos_part
        assert float(row[3]) == r.sin_part


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


def test_table_deterministic_across_runs_and_threads(monkeypatch):
    args = ["table", "--x-steps", "16", "--nu", "0,0.5,1,1.5,2"]
    monkeypatch.setenv("IMBESSEL_THREADS", "1")
    _, first = run_cli(args)
    _, second = run_cli(args)
    assert first == second
    monkeypatch.setenv("IMBESSEL_THREADS", "8")
    _, threaded = run_cli(args)
    assert threaded == first


def test_table_rejects_empty_grid():
    code, _ = run_cli(["table", "--nu", ""])
    assert code == 2
    code, _ = run_cli(["table", "--x-steps", "0"])
    assert code == 2
    code, _ = run_cli(["table", "--x-min", "2", "--x-max", "1"])
    assert code == 2


# ------------------------------------------------------------------- compare

def test_compare_default_regime_passes():
    # full default grid: x in [0.1, 2] x nu in {0, 0.5, 1, 1.5, 2}
    code, out = run_cli(["compare"])
    assert code == 0
    summary = out.strip().splitlines()[-1]
    assert summary.startswith("status=PASS")
    assert "points=40" in summary


def test_compare_deterministic_across_threads(monkeypatch):
    args = ["compare", "--x-steps", "3", "--nu", "0.5,1.5"]
    monkeypatch.setenv("IMBESSEL_THREADS", "1")
    _, serial = run_cli(args)
    monkeypatch.setenv("IMBESSEL_THREADS", "8")
    _, threaded = run_cli(args)
    assert serial == threaded


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


# -------------------------------------------------------------------- bounds

def test_bounds_columns_and_monotonicity():
    code, out = run_cli(["bounds", "--nu", "1", "--x", "2", "--terms", "2,4,8"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "tail_bound", "empirical_error"]
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
    code, out = run_cli(["bounds", "--nu", "0.5", "--x", "1.5", "--terms", "2,4,8,16"])
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        assert float(row[2]) <= float(row[1]) + 1e-13


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


# ------------------------------------------------------------------- threads

def test_bad_thread_env_is_usage_error(monkeypatch):
    for value in ("many", "0", "-3"):
        monkeypatch.setenv("IMBESSEL_THREADS", value)
        code, _ = run_cli(["table", "--x-steps", "2", "--nu", "1"])
        assert code == 2, value


def test_eval_beyond_the_double_range_is_a_tolerance_error():
    # the bound chain saturates to inf there; no traceback, no exit 1
    for nu, x in (("1", "1e8"), ("1e200", "1")):
        code, _ = run_cli(["eval", "--nu", nu, "--x", x])
        assert code == 3, (nu, x)
