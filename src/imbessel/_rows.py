"""The grid path: `_eval_row` evaluates one order over a row of x.

A searched row forms the order's series coefficients once and sums each
x from them: `row_sums` runs the loop of `_backend.series_sums` with its
terms formed as fl(c_k fl(w^k)) from the order's coefficient table
instead of by the recurrence; the stop screen, `carried_tails`, the m
and j bookkeeping and the closing, `_backend.round_off`, are the
kernel's.  The rounding argument, and why `_DRIFT` still covers the
terms' drift, is "Order-major rows" in `_backend`.  `_eval_row` hands
those sums to `series_core._point`, the one place that rotates, refuses
and bounds a point, and that alone decides where r_N has left the normal
range; the row hands back only what its table cannot sum.  `cli`
imports this module; `import imbessel` does not.
"""

from itertools import islice, repeat

from ._backend import MAX_TERMS, RHO_UP, S_FLOOR, _INF, _U, carried_tails, round_off
from .errors import _MAX, ToleranceError, check_positive, check_real, refuse
from .series_core import Kind, _check_order, _is_modified, _point

#: Least l1 size of a tabled coefficient (see "Order-major rows").
_C_MIN = 2.0 ** -969
#: Steps a coefficient table grows by at a time.
_CHUNK = 8


def grow_coefficients(table, modified, nu, nu2, v):
    """Append up to `_CHUNK` steps to an order's coefficient table; False
    where it cannot grow: at `MAX_TERMS`, or where the next coefficient's
    l1 size falls below `_C_MIN`.

    Entry k - 1 holds, for c_k = A + i B, ``(A, B, fl(k A), fl(k B), S,
    fl(k S), k, fl(k + 1 + |nu|), den_(k+1))`` with S = fl(|A| + |B|)
    and k a float; the stop screen's e is fl(w (1 + 16u)) times the
    eighth field, as in `series_sums`.  `nu2` = nu^2 and `v` = |nu|.
    """
    if table:
        a, b, _, _, _, _, fk = table[-1][:7]
    else:
        a, b, fk = 1.0, 0.0, 0.0
    last = min(fk + _CHUNK, MAX_TERMS)
    grew = False
    while fk < last:
        fk = fk + 1.0
        den = fk * (fk * fk + nu2)
        if not modified:
            den = -den
        a, b = (fk * a - nu * b) / den, (nu * a + fk * b) / den
        s = abs(a) + abs(b)
        if not s >= _C_MIN:  # also a zero or NaN from an infinite den
            break
        f1 = fk + 1.0
        table.append((a, b, fk * a, fk * b, s, fk * s, fk, f1 + v, f1 * (f1 * f1 + nu2)))
        grew = True
    return grew


def row_sums(modified, nu, xs, tol):
    """`series_sums` for a searched count at each x in `xs`, one order,
    with the terms formed from the order's coefficient table, grown as
    the sums need it.  Yields the same ten fields per x, or None where
    that x must take `series_sums`: the table ended before the stop, or
    s2 overflowed.  A w^k or r_N below the normal range is `_point`'s
    to bound (see "Order-major rows" in `_backend`).  Each x is read
    only when its sums are asked for.
    """
    nu2 = nu * nu
    v = abs(nu)
    table = []
    for x in xs:
        half = 0.5 * x
        w = half * half
        wu = w * RHO_UP
        ww = p = s = m = 1.0
        q = dp = dq = s1 = s2 = 0.0
        lo = -1.0
        um = _U
        j = k = 0.0
        steps = table
        while True:  # one pass over the table, resumed after each growth
            for a, b, ka, kb, sa, ks, k, ek, den in steps:
                ww = ww * w
                p = p + a * ww
                q = q + b * ww
                dp = dp + ka * ww
                dq = dq + kb * ww
                s = sa * ww
                g = ks * ww
                s1 = s1 + g
                s2 = s2 + k * g
                if p > m or p < lo or q > m or q < lo:
                    m = max(abs(p), abs(q), m)
                    lo = -m
                    um = m * _U
                if s > um:
                    j = k
                # the screen of `series_sums` (see "The stop"), with its
                # two comparisons the other way round
                if s * (wu * ek) <= tol * den and wu * ek < den:
                    tail, d_tail = carried_tails(s + S_FLOOR, k + 1.0, nu2, v, wu)
                    if tail <= tol:
                        break
            else:
                if grow_coefficients(table, modified, nu, nu2, v):
                    steps = islice(table, int(k), None)
                    continue
                k = 0.0  # the table ended before the stop
            break
        if not (k > 0.0 and s2 < _INF):
            yield None
            continue
        err, d_err = round_off(k, j, um, s1, s2, nu2, v, wu)
        yield p, q, dp, dq, m, int(k), tail, d_tail, err, d_err


def _eval_row(kind: Kind, nu: float, xs, tol: float = 1e-12,
              terms: int | None = None) -> list:
    """`eval_pair` of one order at each x of the sequence `xs`, as plain
    7-tuples.

    The order's checks run once, before any x: kind, nu, tol, terms and
    nu^2, with `eval_pair`'s messages; each x then gets its own checks.
    With `terms` given every x runs `eval_pair`'s per-point body, so each
    tuple equals `tuple(eval_pair(kind, nu, x, tol, terms))` bit for bit.
    A searched row sums each x from coefficients formed once for the
    order (`row_sums`) and hands those sums to the same body,
    `series_core._point`, for the rotation, refusals and bounds, so it
    differs from `eval_pair` by round-off within both bounds and takes
    the same counts but where a term's last ulps decide the stop.  A
    point the row cannot sum (a sum past the coefficient table, or one
    that overflows) or whose sums `_point` refuses runs on the kernel
    instead, bit for bit: the rerun keeps a table from refusing a point
    `eval_pair` answers, where `tol` is within an ulp of m eps.  The
    first refusal is raised, as `eval_pair` raises it at that point.
    """
    modified = _is_modified(kind)
    check_real(nu, "nu")
    try:
        nu2 = _check_order(nu, tol, terms)
        row = []
        sums_at = row_sums(modified, nu, xs, tol) if terms is None else repeat(None)
        for x, sums in zip(xs, sums_at):
            if not 0.0 < x <= _MAX:
                check_positive(x, "x")
            if sums is not None:
                try:
                    row.append(_point(modified, nu, nu2, x, tol, None, sums))
                    continue
                except ToleranceError:
                    pass  # rerun on the kernel, which raises or answers
            row.append(_point(modified, nu, nu2, x, tol, terms))
        return row
    except (TypeError, OverflowError):
        refuse(("tol", tol), *(("x", x) for x in xs))
        raise
