"""Command-line surface: eval, table, compare, bounds, classify.

Output is deterministic byte for byte for identical flags: floats are
printed with 17 significant digits (which round-trips doubles exactly),
CSV uses '.' decimals, ',' separators and Unix newlines, and each CSV
row goes through one `%` template made from the first row's types
(`%.17g` for a float, else `%s`), so a column keeps one type.

Grid rows come in order, outer loop over the nu list, inner over x.
`table` and `compare` evaluate one order at a time through
`_rows._eval_row`, which checks the order once.  With `--terms` it
runs `eval_pair`'s per-point body at each x, so a row holds
`eval_pair`'s values bit for bit; a searched row sums each x from the
order's series coefficients, formed once, and differs from `eval_pair`
by round-off within both bounds, with its term counts and refusals
unless a term's last ulps decide them; a point whose sum runs past the
order's coefficient table, or whose row sums `_point` refuses, takes
`eval_pair`'s kernel, bit for bit.  `compare` checks its grid and
`--oracle-digits` first, then runs every series row, and then the
oracle once for the whole grid (`oracle._gold_grid`, which shares each
x's work across the orders), so a refusal comes from the arguments
before any row is run, else from the first order whose row fails.
Both evaluate the whole grid before they write a byte, so a refusal
anywhere writes nothing; `compare --format json` prints one object, its
rows and the summary that CSV prints as a `status=` line.  `table`'s
CSV formats each x once per grid and each nu once per order, into a
per-order template that follows the same rule.  Evaluation is serial:
the work is pure Python and holds the interpreter lock, so threads
could not overlap it.

Imports are lazy where a command alone needs them: `compare` and
`bounds` import the oracle, and with it mpmath, when they run, and
`bounds` imports `error_bounds`; `eval`, `table` and `classify` load
neither, and `compare` leaves `error_bounds` unloaded.

Exit codes: 0 success, 2 usage or domain error, 3 tolerance failure, 1
when the reader closes stdout before the output ends (`| head`); the
console script then writes nothing to stderr.
"""

import argparse
import functools
import json
import math
import os
import sys

from ._rows import _eval_row
from .errors import DomainError, ToleranceError, check_count
from .lommel import ImaginaryOrder, classify
from .series_core import _MODIFIED, _OSCILLATORY, Kind, eval_pair

DEFAULT_TOL = 1e-12
DEFAULT_NUS = "0,0.5,1,1.5,2"
#: round-off allowance used by the compare PASS/FAIL flag, matching the
#: double-precision slack of the oracle-equivalence guarantee
COMPARE_SLACK = 1e-13
#: how a negative number starts
_NEGATIVE_STARTS = frozenset("-" + c for c in "0123456789.")


def __getattr__(name):
    # the lazy imports of the module docstring: `oracle_pair` and
    # `tail_bound` resolve here on first access (PEP 562)
    if name == "oracle_pair":
        from .oracle import oracle_pair

        return oracle_pair
    if name == "tail_bound":
        from .error_bounds import tail_bound

        return tail_bound
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _parse_kind(text: str) -> Kind:
    return _MODIFIED if text == "mod" else _OSCILLATORY


def _parse_nu_list(text: str):
    # each order is checked where it is evaluated
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise DomainError(f"bad --nu list {text!r}: {exc}") from None


def _grid_points(x_min, x_max, x_steps, scale):
    if not 0.0 < x_min <= x_max < math.inf:
        raise DomainError("x grid must satisfy 0 < x-min <= x-max")
    if x_steps < 1:
        raise DomainError(f"x-steps must be >= 1, got {x_steps}")
    if x_steps == 1:
        return [x_min]
    if scale == "log":
        quotient = x_max / x_min
        if quotient < math.inf:
            ratio = math.log(quotient)
            points = [x_min * math.exp(i * ratio / (x_steps - 1)) for i in range(x_steps)]
        else:
            # the quotient overflows (x-min near the bottom of the double
            # range), so step the logarithm itself; exp(i * ratio) alone
            # could overflow where x-min times it would not
            log_min = math.log(x_min)
            ratio = math.log(x_max) - log_min
            points = [x_min] + [math.exp(log_min + i * ratio / (x_steps - 1))
                                for i in range(1, x_steps - 1)] + [x_max]
    else:
        step = (x_max - x_min) / (x_steps - 1)
        points = [x_min + i * step for i in range(x_steps)]
    # rounding can carry the last point past x-max, and in a log grid
    # whose x-max is a few ulps above x-min the points before it too
    return [x if x <= x_max else x_max for x in points]


def _json_value(value):
    # JSON (RFC 8259) has no Infinity or NaN: write such a float as CSV does
    if isinstance(value, float) and not math.isfinite(value):
        return "%.17g" % value
    return value


def _emit(out, fields, rows, fmt, summary=None):
    # in JSON a summary makes the document one object, its rows under "rows"
    if fmt == "json":
        records = [{f: _json_value(v) for f, v in zip(fields, row)} for row in rows]
        if summary is not None:
            records = {"rows": records, **{k: _json_value(v) for k, v in summary.items()}}
        out.write(json.dumps(records, indent=2))
        out.write("\n")
        return
    out.write(",".join(fields))
    out.write("\n")
    # %.17g is format(v, ".17g"); rows go out one by one, never joined
    template = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
    for row in rows:
        out.write(template % tuple(row))


def cmd_eval(args, out) -> int:
    kind = _parse_kind(args.kind)
    result = eval_pair(kind, args.nu, args.x, args.tol, terms=args.terms)
    fields = ["cos_part", "sin_part", "d_cos", "d_sin", "terms_used", "tail_bound"]
    _emit(out, fields, [result[:6]], args.format)
    return 0


def _grid_from_args(args):
    nus = _parse_nu_list(args.nu)
    xs = _grid_points(args.x_min, args.x_max, args.x_steps, args.x_scale)
    if not nus:
        raise DomainError("empty nu list")
    return nus, xs


def cmd_table(args, out) -> int:
    kind = _parse_kind(args.kind)
    nus, xs = _grid_from_args(args)
    # the whole grid evaluates before a byte is written
    orders = [_eval_row(kind, nu, xs, args.tol, args.terms) for nu in nus]
    fields = ["x", "nu", "cos_part", "sin_part", "d_cos", "d_sin", "terms", "bound"]
    if args.format == "json":
        rows = [(x, nu) + r[:6] for nu, row in zip(nus, orders) for x, r in zip(xs, row)]
        _emit(out, fields, rows, "json")
        return 0
    # `_emit`'s per-value rule, with each x formatted once per grid and
    # each nu once per order
    out.write(",".join(fields))
    out.write("\n")
    x_texts = ["%.17g" % x for x in xs]
    for nu, row in zip(nus, orders):
        template = ",%.17g,%%.17g,%%.17g,%%.17g,%%.17g,%%s,%%.17g\n" % nu
        for x_text, r in zip(x_texts, row):
            out.write(x_text + template % r[:6])
    return 0


def cmd_compare(args, out) -> int:
    from . import oracle

    kind = _parse_kind(args.kind)
    nus, xs = _grid_from_args(args)
    check_count(args.oracle_digits, "digits", oracle.MAX_DIGITS)
    orders = [_eval_row(kind, nu, xs, args.tol, args.terms) for nu in nus]
    golds = oracle._gold_grid(kind, nus, xs, args.oracle_digits)
    rows = []
    for nu, row, gold in zip(nus, orders, golds):
        for x, r, (gold_cos, gold_sin) in zip(xs, row, gold):
            cos_part, sin_part, _, _, _, bound, _ = r
            err_cos = abs(cos_part - gold_cos)
            err_sin = abs(sin_part - gold_sin)
            ok = max(err_cos, err_sin) <= bound + COMPARE_SLACK
            within_tol = max(err_cos, err_sin) <= args.tol
            rows.append([x, nu, err_cos, err_sin, bound, ok, within_tol])
    fields = ["x", "nu", "err_cos", "err_sin", "bound", "ok", "within_tol"]
    max_err = max(max(row[2], row[3]) for row in rows)
    status = "PASS" if all(row[5] for row in rows) else "FAIL"
    summary = {"status": status, "points": len(rows), "max_err": max_err, "tol": args.tol}
    _emit(out, fields, rows, args.format, summary)
    if args.format == "csv":
        out.write("status=%(status)s points=%(points)d max_err=%(max_err).17g tol=%(tol).17g\n"
                  % summary)
    return 0


def cmd_bounds(args, out) -> int:
    from .error_bounds import tail_bound

    kind = _parse_kind(args.kind)
    try:
        n_list = [int(part) for part in args.terms_list.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"bad --terms list {args.terms_list!r}: {exc}") from None
    if not n_list:
        raise DomainError("empty --terms list")
    # tail_bound is the a-priori truncation bound alone; bound is the
    # forced result's own, truncation plus round-off, which encloses
    # empirical_error.  Every row is formed, or refused, before the oracle
    # runs
    forced = [(n, tail_bound(args.nu, args.x, n), eval_pair(kind, args.nu, args.x, terms=n))
              for n in n_list]
    from . import oracle

    gold_cos, gold_sin = oracle.oracle_pair(kind, args.nu, args.x, digits=args.oracle_digits)
    rows = []
    for n, apriori, r in forced:
        empirical = max(abs(r.cos_part - gold_cos), abs(r.sin_part - gold_sin))
        rows.append([n, apriori, empirical, r.tail_bound])
    _emit(out, ["N", "tail_bound", "empirical_error", "bound"], rows, args.format)
    return 0


def cmd_classify(args, out) -> int:
    sol = classify(args.a, args.b, args.c, args.beta)
    order_type = "imaginary" if isinstance(sol.order, ImaginaryOrder) else "real"
    fields = ["a", "b", "c", "beta", "prefactor_exponent", "gamma", "order_type", "nu"]
    row = [args.a, args.b, args.c, args.beta,
           sol.prefactor_exponent, sol.gamma, order_type, sol.order.nu]
    _emit(out, fields, [row], args.format)
    return 0


def _add_common(p, searched=True):
    p.add_argument("--kind", choices=["osc", "mod"], default="osc",
                   help="equation kind: oscillatory (osc) or modified (mod)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    if searched:  # `bounds` forces its term counts, so it has neither
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help=f"guaranteed truncation tolerance (default {DEFAULT_TOL:g})")
        p.add_argument("--terms", type=int, default=None,
                       help="force the term count instead of deriving it from --tol")


def _add_grid(p):
    p.add_argument("--x-min", type=float, default=0.1)
    p.add_argument("--x-max", type=float, default=2.0)
    p.add_argument("--x-steps", type=int, default=8)
    p.add_argument("--x-scale", choices=["linear", "log"], default="linear")
    p.add_argument("--nu", default=DEFAULT_NUS,
                   help="comma-separated list of orders")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imbessel",
        description="Bessel-type basis functions of pure imaginary order "
                    "with guaranteed truncation bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the basis pair at one point")
    _add_common(p)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("table", help="tabulate the pair over a grid")
    _add_common(p)
    _add_grid(p)
    p.set_defaults(run=cmd_table)

    p = sub.add_parser("compare", help="compare against the extended-precision oracle")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--oracle-digits", type=int, default=50)
    p.set_defaults(run=cmd_compare)

    p = sub.add_parser("bounds", help="tail bounds vs empirical error at one point")
    _add_common(p, searched=False)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--terms", dest="terms_list", default="2,4,8,16",
                   help="comma-separated term counts")
    p.add_argument("--oracle-digits", type=int, default=50)
    p.set_defaults(run=cmd_bounds)

    p = sub.add_parser("classify", help="classify x^2 y'' + a x y' + (b + c x^(2 beta)) y = 0")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(run=cmd_classify)

    return parser


def _glue_nu(argv):
    # argparse takes a value such as "-0.5,1" for an option (it is not one
    # negative number), so "--nu -0.5,1" is passed on as "--nu=-0.5,1"
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--nu" and argv[i][:2] in _NEGATIVE_STARTS:
            argv[i - 1:i + 1] = ["--nu=" + argv[i]]
    return argv


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves them all
    return build_parser()


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    args = _parser().parse_args(_glue_nu(argv))
    try:
        return args.run(args, out)
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(str(exc), file=sys.stderr)
        return 3


def entry() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point it at devnull, so the
        # interpreter's last flush stays silent, and exit 1 (the Python
        # docs' recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)


if __name__ == "__main__":
    entry()
