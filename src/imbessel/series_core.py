"""Real-valued basis pairs for the Bessel equations of pure imaginary order.

Both target equations,

    oscillatory:  x^2 y'' + x y' + (x^2 + nu^2) y = 0,
    modified:     x^2 y'' + x y' + (-x^2 + nu^2) y = 0,

admit solutions of the form

    y(x) = P(x) cos(nu ln x) + Q(x) sin(nu ln x),

where P and Q are even power series in x whose coefficients follow a
two-term linear recurrence in the half-index n.  Seeding the recurrence
with (1, 0) gives the cosine-type solution, seeding with (0, 1) the
sine-type solution; at nu = 0 they reduce to J0 / I0 and the zero
function.  The normalized pair is one complex series,

    cos_sol + i sin_sol = x^(i nu) sum_n c_n (x/2)^(2n),   c_n = a_n + i b_n,

where (a_n, b_n) is the (1, 0)-seeded sequence, and equals
Gamma(1 + i nu) 2^(i nu) J_{i nu}(x) (oscillatory; I_{i nu} in the
modified case), the identity the oracle module validates against.  The
recurrence is multiplication of c_n by a complex number, so the
(0, 1)-seeded sequence is i c_n = (-b_n, a_n): `eval_pair` runs the
kernel once and rotates its sums to get the sine-type solution.

All recurrence denominators are n (n^2 + nu^2) >= n^3 >= 1, so the
recurrence needs no special casing at nu = 0; the bounds guard their
product |nu| * inf there (`_point`, `error_bounds.derivative_tail_bound`).
Every function here is pure and thread-safe.
"""

import enum
import math
import sys
from typing import NamedTuple

from . import _backend
from ._backend import MAX_TERMS
from .errors import (_MAX, DomainError, ToleranceError, check_count, check_positive,
                     check_real, check_tol, refuse)

_EPS = sys.float_info.epsilon
_U = 0.5 * _EPS
#: smallest subnormal double
_TINY = 2.0 ** -1074
#: w / (N (N^2 + nu^2)) below this leaves the normal range
_R_MIN = 2.0 ** -1021
_log = math.log
_cos = math.cos
_sin = math.sin
_isfinite = math.isfinite
_new = tuple.__new__


def __getattr__(name):
    # Nothing here uses the a-priori bounds (eval_pair's kernel chooses N),
    # but the benchmark's tracer binds these names on this module; they
    # resolve, loading error_bounds, on first access (PEP 562)
    if name in ("derivative_tail_bound", "required_terms", "tail_bound"):
        from . import error_bounds

        return getattr(error_bounds, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Kind(enum.Enum):
    """Which of the two equations a table or evaluation refers to."""

    OSCILLATORY = "oscillatory"
    MODIFIED = "modified"


class PairResult(NamedTuple):
    """Evaluated basis pair with derivatives and guaranteed error bounds.

    `tail_bound` bounds the error of cos_part and sin_part against the
    exact functions at the given (nu, x): the truncation bound for
    `terms_used` steps plus a proved first-order bound on the round-off
    of the double-precision evaluation.  `d_tail_bound` is the analogous
    bound for d_cos and d_sin; the derivative series carries an extra
    n * 2/x weight per term, so a single bound cannot serve both.  With
    a searched term count the truncation part is <= the requested `tol`;
    the round-off part is reported on top of it (see `eval_pair`).  A
    named tuple: fields by name or by index in this order, assignment
    raises AttributeError, and `terms_used` is always an int.
    """

    cos_part: float
    sin_part: float
    d_cos: float
    d_sin: float
    terms_used: int
    tail_bound: float
    d_tail_bound: float


# Module constants for the members: on Python 3.11 a member read such as
# Kind.MODIFIED goes through the enum machinery and costs ~0.13 us, a
# module global ~0.01 us, and `_is_modified` runs on every evaluation.
_MODIFIED = Kind.MODIFIED
_OSCILLATORY = Kind.OSCILLATORY


def _is_modified(kind):
    # The recurrence variant for `kind`; anything that is not a Kind is
    # refused rather than read as the oscillatory equation.
    if kind is _MODIFIED:
        return True
    if kind is _OSCILLATORY:
        return False
    raise DomainError(f"kind must be a Kind, got {kind!r}")


def eval_pair(kind: Kind, nu: float, x: float, tol: float = 1e-12,
              terms: int | None = None) -> PairResult:
    """Evaluate the (cosine-type, sine-type) solution pair at x.

    One kernel pass sums the series and stops at the first step past
    rho < 1 (the kernel's term ratio) whose returned tail (see
    `_backend`) meets `tol`; pass `terms` to force
    a count instead, e.g. for bound studies (the reported bounds then
    refer to that count, and a searched result and the same count forced
    give identical bytes).  Derivatives come from the term-differentiated
    series: no numerical differentiation is involved.

    Contract: `tol` bounds the truncation error.  The reported
    `tail_bound` is that truncation bound plus R, a proved first-order
    bound on the round-off (u = 2^-53; S = p + i q and D = dp + i dq the
    kernel's sums, P = |p| + |q|, Pd = |dp| + |dq|, phi = nu ln x):

        R   = err + (3 |phi| + 4) u P,
        R_d = 2 (d_err + (3 |phi| + 6) u Pd) + |nu| (R + 3u P).

    `err` and `d_err` are the kernel's bounds on the round-off of S and D
    (term drift, partial sums, underflow; see `_backend`).  The value is
    S e^(-i phi), read as (cos_part, -sin_part): the phase carries
    3u |phi| (a one-ulp log and the product), cos and sin one ulp each
    (2u), and p c + q s two roundings (2u P).  The derivatives are
    (2 D e^(-i phi) - i nu V) / x, V = cos_part - i sin_part the value
    just formed.  The 2 D part carries the same phase error, cos and sin
    and the two roundings of its rotation, on Pd, and its share of the
    final sum and of the division: 2 (3 |phi| + 6) u Pd.  The nu V part
    carries V's own R, and its product, its share of the sum and the
    division, 3u |nu| P; the error of S reaches the derivatives through
    V.  `d_tail_bound` is (2 d_tail + |nu| tail + R_d) / x, with
    d_tail the kernel's bound on the discarded sum_k k |t_k|.  Each of
    the four outputs is one component of a rotated complex number, so it
    inherits the bound of that number's modulus.

    Where the kernel's derivative ratio is not below 1/2 (a forced count
    with few terms for its x), the kernel carries its step bound on from
    the last term until the ratio falls (see `_backend`), and the same
    formulas take its tails; they are inf only where that chain leaves
    the double range.  Where r_N = w / (N (N^2 + nu^2)) falls below the
    normal range (x below about 1e-150, or a huge order), the terms past the
    seed are not computed to relative accuracy, so all of them count as
    lost: their exact sums are bounded by the ratio chain from the seed,
    their computed ones are S - 1 and D.

    Raises DomainError for x <= 0, a `kind` that is not a Kind, a nu, x
    or tol that is not a real number (see `errors`), or a `terms` that is
    not an int in 1..MAX_TERMS, and ToleranceError when
    `tol` lies below the double-precision round-off floor m * eps at
    this point (m the largest partial sum), is unreachable within
    MAX_TERMS steps, nu^2 or a value overflows the double range; the
    refusal uses m * eps, not R, so large arguments (oscillatory x over
    roughly 20) stay computable with a forced count, and their bound
    carries the round-off honestly.  The arguments are checked in the
    order kind, nu, x, tol, terms, nu^2, and the first that fails is
    raised; `_rows._eval_row` runs the same checks, with x's last.
    """
    modified = _is_modified(kind)
    try:
        if not _isfinite(nu):
            check_real(nu, "nu")  # raises, with the message
        # x before tol and terms, as documented, and only here: `_point`
        # takes a checked x (`_rows._eval_row` checks each x last)
        if not 0.0 < x <= _MAX:  # also an int past the double range
            check_positive(x, "x")
        nu2 = _check_order(nu, tol, terms)
        # what PairResult._make does, without its Python frame
        return _new(PairResult, _point(modified, nu, nu2, x, tol, terms))
    except (TypeError, OverflowError):
        refuse(("nu", nu), ("x", x), ("tol", tol))
        raise


def _check_order(nu, tol, terms):
    # the checks that do not depend on x; returns nu^2
    if not (tol > 0.0):
        check_tol(tol)  # raises, with the message
    if terms is not None and not (type(terms) is int and 1 <= terms <= MAX_TERMS):
        check_count(terms, "terms", MAX_TERMS)
    nu2 = nu * nu
    if nu2 > _MAX:  # inf, or the exact square of a large int
        raise ToleranceError(f"nu={nu} is beyond the double range (nu^2 overflows)")
    return nu2


def _point(modified, nu, nu2, x, tol, terms, sums=None):
    # The per-point body of `eval_pair` (see there) for an x and an order
    # whose checks have passed: the kernel pass, or a searched row's
    # `sums` (`_rows.row_sums`) in its place, then the rotation, the
    # refusals and both bounds.  Returns the seven PairResult fields.
    half = 0.5 * x
    w = half * half
    if sums is None:
        if terms is None:
            cap, stop = MAX_TERMS, tol
        else:
            cap, stop = terms, -1.0
        # cap and stop by keyword: perfbench's tracer books the kernel's
        # steps as args[5], or else kwargs["n_terms"]
        sums = _backend.series_sums(modified, nu, w, n_terms=cap, tol=stop)
    p, q, dp, dq, m, n, tail, d_tail, err, d_err = sums
    if terms is None and not tail <= tol:
        raise ToleranceError(
            f"tolerance {tol:g} unreachable within {MAX_TERMS} terms at nu={nu}, x={x}"
        )

    # One pass for the (1, 0) seed; the (0, 1) sums are its quarter turn
    # (-q, p, -dq, dp).  `0.0 - q` keeps q = +0.0 (nu = 0) at +0.0.
    phase = nu * _log(x)
    c, s = _cos(phase), _sin(phase)

    cos_part = p * c + q * s
    sin_part = (0.0 - q) * c + p * s
    # (2 D e^(-i phase) - i nu V) / x, V = cos_part - i sin_part the value
    # just formed; divided by x last: 2/x alone overflows below x ~ 1e-308
    d_cos = (2.0 * (dp * c + dq * s) + nu * (0.0 - sin_part)) / x
    d_sin = (2.0 * ((0.0 - dq) * c + dp * s) + nu * cos_part) / x
    if not (_isfinite(cos_part) and _isfinite(sin_part)
            and _isfinite(d_cos) and _isfinite(d_sin)):
        raise ToleranceError(f"values overflow the double range at nu={nu}, x={x}")

    floor = m * _EPS
    if terms is None and tol < floor:
        raise ToleranceError(
            f"tol={tol:g} below the round-off floor {floor:.3g} at nu={nu}, x={x}"
        )

    v = abs(nu)
    size = abs(p) + abs(q)
    d_size = abs(dp) + abs(dq)
    ph = 3.0 * abs(phase)
    # the phase and the final combinations
    r_val = (ph + 4.0) * _U * size
    r_der = 2.0 * (ph + 6.0) * _U * d_size + v * (ph + 7.0) * _U * size

    # The regime sets the parts of both bounds: the tails, the sums'
    # round-off and a derivative share lost outright; one assembly follows
    d_lost = 0.0
    if w < _R_MIN * n * (n * n + nu2):
        # r_N below the normal range, whether the kernel or a row summed
        # the terms: past the seed they are not computed to relative
        # accuracy, so count them all as lost.  Their exact sums are at
        # most rho_1 / (1 - rho_1) and, weighted by k, rho_1 / (1 - 2 rho_2),
        # from an upper bound on w; their computed sums are p + i q - 1 and
        # dp + i dq, so the tails hold the sums' round-off too.  w / x =
        # x / 4 keeps the derivative's share finite where w underflows.
        g1 = (1.0 + v) / (1.0 + nu2) * _backend.RHO_UP
        w_up = w * (1.0 + 4.0 * _U) + _TINY
        rho1 = w_up * g1
        rho2 = w_up * (2.0 + v) / (2.0 * (4.0 + nu2)) * _backend.RHO_UP
        w_over_x = 0.25 * x * (1.0 + 4.0 * _U) + _TINY
        tail = (rho1 / (1.0 - rho1) + abs(p - 1.0) + abs(q)) * _backend.TAIL_FACTOR
        d_tail, err, d_err = d_size, 0.0, 0.0
        d_lost = 2.0 * w_over_x * g1 / (1.0 - 2.0 * rho2) * _backend.TAIL_FACTOR
    # the round-off of the sums; S's reaches the derivatives through nu
    r_val += err
    r_der += 2.0 * d_err
    if v:  # v * inf would be NaN at nu = 0 (here and for the tail)
        r_der += v * err
    d_bound = d_lost + (2.0 * d_tail + (v * tail if v else 0.0) + r_der) / x
    return cos_part, sin_part, d_cos, d_sin, n, tail + r_val, d_bound


def wronskian_residual(kind: Kind, nu: float, x: float, tol: float = 1e-12) -> float:
    """cos_sol * sin_sol' - sin_sol * cos_sol' - nu/x; identically zero.

    The returned value measures only floating-point conditioning: the
    normalized pair has Wronskian exactly nu/x for either equation kind.
    """
    r = eval_pair(kind, nu, x, tol)
    return r.cos_part * r.d_sin - r.sin_part * r.d_cos - nu / x


def gamma_modulus_imag(nu: float) -> float:
    """|Gamma(i nu)| = sqrt(pi / (|nu| sinh(pi |nu|))), even in nu.

    Follows from the reflection formula Gamma(z) Gamma(1-z) = pi/sin(pi z)
    at z = i nu together with Gamma(1 - i nu) = -i nu Gamma(-i nu).
    Computed in log space so large |nu| underflows gracefully instead of
    overflowing sinh.  nu = 0 is a pole.
    """
    check_real(nu, "nu")
    if nu == 0.0:
        raise DomainError("Gamma(i nu) has a pole at nu = 0")
    v = abs(nu)
    pv = math.pi * v
    # ln sinh(pv) = pv - ln 2 + ln(1 - e^(-2 pv)); the last factor goes
    # through expm1 so it survives pv near the rounding threshold
    log_sinh = pv - math.log(2.0) + math.log(-math.expm1(-2.0 * pv))
    arg = 0.5 * (math.log(math.pi) - math.log(v) - log_sinh)
    if arg > 709.0:  # |Gamma(i nu)| ~ 1/|nu| exceeds the double range
        return math.inf
    return math.exp(arg)
