"""The grid path: `_eval_row` evaluates one order over a row of x.

A searched row forms the order's series coefficients once and sums each
x from them: `row_sums` runs the loop of `_backend.series_sums` with its
terms formed as fl(c_k fl(w^k)) from the order's coefficient table
instead of by the recurrence; the stop screen, `carried_tails`, the m
and j bookkeeping and the partial-sum bound are the kernel's.  The
rounding argument, and why `_DRIFT` still covers the terms' drift, is
"Order-major rows" in `_backend`.  `_eval_row` gives those sums
`series_core._point`'s rotation and bounds.  `cli` imports this module;
`import imbessel` does not.
"""

import math
from itertools import islice

from ._backend import (MAX_TERMS, RHO_UP, S_FLOOR, TAIL_FACTOR, _DRIFT, _INF, _NORMAL, _R_MIN,
                       _TINY6, _U, carried_tails)
from .errors import _MAX, check_positive, check_real, refuse
from .series_core import _EPS, Kind, _check_order, _is_modified, _point

#: Least l1 size of a tabled coefficient (see "Order-major rows").
_C_MIN = 2.0 ** -969
#: Steps a coefficient table grows by at a time.
_CHUNK = 8
_log = math.log
_cos = math.cos
_sin = math.sin
_isfinite = math.isfinite


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
    that x must take `series_sums`: the table ended before the stop, a
    w^k or r_N left the normal range, or a sum overflowed.  Each x is
    read only when its sums are asked for.
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
        # w^N >= 2^-1022 holds every w^k, k <= N, in the normal range: the
        # powers fall or rise with k
        if not (k > 0.0 and ww >= _NORMAL and w >= _R_MIN * k * (k * k + nu2)
                and s2 < _INF):
            yield None
            continue
        # the partial-sum bound of `series_sums`, with n = N = k
        fk = k + 1.0
        sums = 1.5 * k * um
        d_sums = fk * _U * s1
        if j < k:
            f2 = j + 2.0
            rho = wu * (f2 + v) / (f2 * (f2 * f2 + nu2))
            rd = f2 * rho / (j + 1.0)
            if rd < 1.0:
                split = 1.5 * j * um + um * TAIL_FACTOR / (1.0 - rho)
                if split < sums:
                    sums = split
                split = (j + 1.0) * (_U * s1 + um * TAIL_FACTOR / (1.0 - rd))
                if split < d_sums:
                    d_sums = split
        yield (p, q, dp, dq, m, int(k), tail, d_tail, _DRIFT * s1 + sums + k * k * _TINY6,
               _DRIFT * s2 + d_sums + k * k * k * _TINY6)


def _eval_row(kind: Kind, nu: float, xs, tol: float = 1e-12,
              terms: int | None = None) -> list:
    """`eval_pair` of one order at each x of the sequence `xs`, as plain
    7-tuples.

    The order's checks run once, before any x: kind, nu, tol, terms and
    nu^2, with `eval_pair`'s messages; each x then gets its own checks.
    With `terms` given every x runs `eval_pair`'s per-point body, so each
    tuple equals `tuple(eval_pair(kind, nu, x, tol, terms))` bit for bit.
    A searched row sums each x from coefficients formed once for the
    order (`row_sums`) and gives those sums `eval_pair`'s rotation and
    bounds, so it differs from `eval_pair` by round-off within both
    bounds and takes the same counts but where a term's last ulps decide
    the stop.  A point the row cannot sum (w^k or r_N below the normal
    range, a sum past the coefficient table or overflowing) or would
    refuse runs `eval_pair`'s body instead, bit for bit.  The first
    refusal is raised, as `eval_pair` raises it at that point.
    """
    modified = _is_modified(kind)
    check_real(nu, "nu")
    try:
        nu2 = _check_order(nu, tol, terms)
        if terms is not None:
            return [_point(modified, nu, nu2, x, tol, terms) for x in xs]
        v = abs(nu)
        row = []
        for x, sums in zip(xs, row_sums(modified, nu, xs, tol)):
            if not 0.0 < x <= _MAX:
                check_positive(x, "x")
            if sums is not None:
                # `_point`'s rotation, checks and bounds (r_N is normal
                # here); a refusal reruns the point there
                p, q, dp, dq, m, n, tail, d_tail, err, d_err = sums
                phase = nu * _log(x)
                c = _cos(phase)
                s = _sin(phase)
                cos_part = p * c + q * s
                sin_part = (0.0 - q) * c + p * s
                d_cos = (2.0 * (dp * c + dq * s) + nu * (q * c - p * s)) / x
                d_sin = (2.0 * ((0.0 - dq) * c + dp * s) + nu * (p * c - (0.0 - q) * s)) / x
                if (_isfinite(cos_part) and _isfinite(sin_part) and _isfinite(d_cos)
                        and _isfinite(d_sin) and tol >= m * _EPS):
                    size = abs(p) + abs(q)
                    ph = 3.0 * abs(phase)
                    r_val = (ph + 4.0) * _U * size + err
                    r_der = (2.0 * (ph + 6.0) * _U * (abs(dp) + abs(dq))
                             + v * (ph + 7.0) * _U * size + 2.0 * d_err)
                    if v:
                        r_der += v * err
                    d_bound = (2.0 * d_tail + (v * tail if v else 0.0) + r_der) / x
                    row.append((cos_part, sin_part, d_cos, d_sin, n, tail + r_val, d_bound))
                    continue
            row.append(_point(modified, nu, nu2, x, tol, None))
        return row
    except (TypeError, OverflowError):
        refuse(("tol", tol), *(("x", x) for x in xs))
        raise
