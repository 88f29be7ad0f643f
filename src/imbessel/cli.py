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
per-order template that follows the same rule.

`table` splits a large grid across CPUs.  The work is pure Python and
holds the interpreter lock, so threads could not overlap it; forked
processes can.  With k = min(usable CPUs, orders, points //
`_SPLIT_POINTS`) of at least 2, the orders are cut into k contiguous
chunks: this process evaluates and formats the first, and a forked child
each other, sending it back over a pipe.  A table stays in this process
where k < 2 (one usable CPU, one order, or fewer than 2 `_SPLIT_POINTS`
points), where `os.fork` is missing, and where the process runs a second
thread.  The chunks are read in order, and nothing is written until
every chunk is in.  A chunk whose child does not answer (it refused, or
failed otherwise) is evaluated in this process, so the bytes, the exit
code and the refusal are the serial loop's; a refused chunk is thus
evaluated twice.  `compare` is serial.

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
import marshal
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
#: least points per forked chunk of a `table` (see `_chunks`).  Measured
#: on a 2-vCPU VM, Python 3.11, in a 36 MB process, 2 orders, medians of
#: 60-100 interleaved calls: a fork, a 300 KB reply and waitpid took
#: 2.2-2.5 ms; split against serial, 500 points took 5.35 against 5.20 ms,
#: 1 000 points 6.6-7.4 against 7.4-7.7 ms and 2 000 points 12.3-15.0
#: against 14.3-19.2 ms.  A split pays from about 500 points a chunk;
#: 1 000 keeps it clear of that edge
_SPLIT_POINTS = 1000


def __getattr__(name):
    # the lazy imports of the module docstring: `oracle_pair` and
    # `tail_bound` resolve here on first access (PEP 562).  Only the
    # benchmark's tracer reads these names; ROADMAP 1a removes them
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


def _chunks(nus, points):
    # the orders cut into k contiguous chunks, k = min(usable CPUs, orders,
    # points // _SPLIT_POINTS); one chunk where forking is unavailable or
    # unsafe: a child of a process with a second thread may inherit a
    # lock that thread held (and Python 3.12+ warns on stderr)
    k = min(len(nus), points // _SPLIT_POINTS)
    if k > 1 and hasattr(os, "fork"):
        import threading

        try:
            threads = len(os.listdir("/proc/self/task"))
        except OSError:
            threads = threading.active_count()
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = os.cpu_count() or 1
        k = min(k, cpus) if threads == 1 else 1
    else:
        k = 1
    size, extra = divmod(len(nus), k)
    ends = [i * size + min(i, extra) for i in range(k + 1)]
    return [nus[a:b] for a, b in zip(ends, ends[1:])]


def _forked_map(fn, parts):
    # [fn(part) for part in parts], the first part here and each other in
    # a forked child that sends its result back over a pipe (marshal).  A
    # child that does not answer (it refused, or failed otherwise) or a
    # fork that fails leaves its part to this process, so the results, or
    # the first refusal in part order, are the serial loop's.  No child
    # outlives the call: each is reaped, killed first if abandoned
    children = []  # [pid, read end] per forked part, in part order
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if not pid:  # the child replies, then ends here whatever happens
                status = 1
                try:
                    os.close(r)
                    with open(w, "wb") as pipe:
                        pipe.write(marshal.dumps(fn(part)))
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append([pid, open(r, "rb")])
        results = [fn(parts[0])]
        for child, part in zip(children, parts[1:]):
            with child[1] as pipe:
                data = pipe.read()
            status = os.waitpid(child[0], 0)[1]
            child[0] = None
            results.append(marshal.loads(data) if status == 0 else fn(part))
        return results + [fn(part) for part in parts[len(results):]]
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid is not None:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _table_block(kind, xs, x_texts, args, nus):
    # one chunk of a table's orders, each order's row through `_eval_row`:
    # for CSV one string per order, each x formatted once per grid and
    # the order once, by `_emit`'s per-value rule; for JSON the row tuples
    if args.format == "json":
        return [(x, nu) + r[:6] for nu in nus
                for x, r in zip(xs, _eval_row(kind, nu, xs, args.tol, args.terms))]
    blocks = []
    for nu in nus:
        template = ",%.17g,%%.17g,%%.17g,%%.17g,%%.17g,%%s,%%.17g\n" % nu
        row = _eval_row(kind, nu, xs, args.tol, args.terms)
        blocks.append("".join([x_text + template % r[:6] for x_text, r in zip(x_texts, row)]))
    return blocks


def cmd_table(args, out) -> int:
    kind = _parse_kind(args.kind)
    nus, xs = _grid_from_args(args)
    x_texts = None if args.format == "json" else ["%.17g" % x for x in xs]
    block = functools.partial(_table_block, kind, xs, x_texts, args)
    # the whole grid evaluates before a byte is written
    parts = _forked_map(block, _chunks(nus, len(nus) * len(xs)))
    fields = ["x", "nu", "cos_part", "sin_part", "d_cos", "d_sin", "terms", "bound"]
    if args.format == "json":
        _emit(out, fields, [row for part in parts for row in part], "json")
        return 0
    out.write(",".join(fields))
    out.write("\n")
    # an order's rows go out in pieces of at most 8 KiB: one large write
    # to a pipe whose reader has left can lose its EPIPE in the buffer
    for part in parts:
        for text in part:
            for i in range(0, len(text), 8192):
                out.write(text[i:i + 8192])
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
