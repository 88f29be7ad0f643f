"""A-priori truncation control for the even-coefficient series.

The coefficient pairs of both equation kinds obey, step for step,

    |a_n| + |b_n|  <=  (n + |nu|) / (n (n^2 + nu^2)) * (|a_{n-1}| + |b_{n-1}|),

which telescopes into the explicit envelope

    |a_n| + |b_n|  <  m(nu) * n^|nu| / (n!)^2,        n >= 1,

with m(nu) = (1+|nu|)/(1+nu^2) * exp(0.6449 nu^2 + 0.2021 F(nu)).  The
constants are the tails sum_{n>=2} 1/n^2 and sum_{n>=2} 1/n^3 to four
decimals, and F(nu) is a piecewise cubic-correction factor.  Summing the
envelope over the discarded indices yields a guaranteed bound on the
truncation error of any of the four basis functions.

For |nu| <= 2 the discarded tail after keeping indices 0..N collapses to
the closed form

    eps_N  <=  m(nu) * (x/2)^(2N+1) * I1(x) / (N!)^2,

where I1 is the order-one modified Bessel function (evaluated here by
its classical series and inflated by 1.0001 to stay an upper bound).
For |nu| > 2 no closed form is used; the envelope tail is summed
directly with a geometric-ratio cutoff and a 1% inflation.
"""

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, ToleranceError

# sum_{n>=2} 1/n^2 = pi^2/6 - 1 and sum_{n>=2} 1/n^3 = zeta(3) - 1,
# both to the four decimals used by the envelope's derivation.
SUM_INV_SQUARES = 0.6449
SUM_INV_CUBES = 0.2021

#: Hard ceiling on the admissible number of series terms.
MAX_TERMS = 400



@dataclass(frozen=True)
class BoundReport:
    """Snapshot of the bound chain at a given order, point and term count."""

    F: float
    m_nu: float
    N: int
    tail: float


def _check_finite(value, name):
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


def _exp_sat(arg: float) -> float:
    # exp with saturation instead of OverflowError; huge bounds stay
    # honest as +inf, tiny ones underflow to a clean zero
    if arg > 709.0:
        return math.inf
    if arg < -745.0:
        return 0.0
    return math.exp(arg)


def factor_F(nu: float) -> float:
    """Piecewise cubic-correction factor of the coefficient envelope."""
    _check_finite(nu, "nu")
    v = abs(nu)
    if v <= 2.0:
        return nu * nu * abs(v - 1.0) * 2.0 ** (1.0 - v)
    if v <= 3.0:
        return v * abs(v - 1.0) * (3.0 * v + (v - 2.0) * (1.0 + v / 2.0) * 2.0 ** (3.0 - v)) / 6.0
    return v * abs(v - 1.0) * (nu * nu / 2.0 + 3.0 * v - 2.0) / 6.0


def _log_m_of_nu(nu: float) -> float:
    v = abs(nu)
    return math.log1p(v) - math.log1p(nu * nu) + SUM_INV_SQUARES * nu * nu + SUM_INV_CUBES * factor_F(nu)


def m_of_nu(nu: float) -> float:
    """Envelope constant m(nu); equals 1 at nu = 0 and grows with |nu|."""
    _check_finite(nu, "nu")
    v = abs(nu)
    return (1.0 + v) / (1.0 + nu * nu) * _exp_sat(SUM_INV_SQUARES * nu * nu + SUM_INV_CUBES * factor_F(nu))


def majorant_bound(nu: float, n: int) -> float:
    """Envelope m(nu) * n^|nu| / (n!)^2 on |a_n| + |b_n| for n >= 1.

    Switches to log-space past n = 20 so the factorial cannot overflow.
    """
    _check_finite(nu, "nu")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    v = abs(nu)
    if n <= 20:
        return m_of_nu(nu) * float(n) ** v / float(math.factorial(n)) ** 2
    return _exp_sat(_log_m_of_nu(nu) + v * math.log(n) - 2.0 * math.lgamma(n + 1.0))


def _i1_upper(x: float) -> float:
    # Classical series for I1, summed to relative 1e-12 and inflated by
    # 1.0001 so the result stays an upper bound.
    half = 0.5 * x
    w = half * half
    term = half
    total = term
    k = 1
    while True:
        term *= w / (k * (k + 1))
        total += term
        if term <= 1e-13 * total:
            break
        k += 1
        if k > 10000:  # unreachable for finite x in double range
            raise ToleranceError(f"I1 series failed to converge at x={x}")
    return total * 1.0001


def _envelope_term_log(power: float, n: int, log_w: float) -> float:
    # log of m(nu)-free envelope piece n^power / (n!)^2 * w^n
    return power * math.log(n) - 2.0 * math.lgamma(n + 1.0) + n * log_w


def _envelope_tail_sum(nu: float, power: float, x: float, start: int) -> float:
    """Upper bound on sum_{n>=start} m(nu) n^power / (n!)^2 (x/2)^(2n).

    Sums terms directly; once the term ratio r drops below 1 and the
    geometric remainder t*r/(1-r) falls under 0.1% of the partial sum,
    the remainder is added and the total inflated by 1.01.  The ratio
    only falls with n, so a first term below the normal range takes the
    whole geometric sum t/(1-r) at once.
    """
    w = (0.5 * x) * (0.5 * x)
    if w >= sys.float_info.min:
        log_w = math.log(w)
    else:  # (x/2)^2 underflows or loses digits below x ~ 3e-154
        log_w = 2.0 * (math.log(x) - math.log(2.0))
    log_t = _log_m_of_nu(nu) + _envelope_term_log(power, start, log_w)
    if log_t < -708.0:
        r = ((start + 1.0) / start) ** power * w / ((start + 1.0) * (start + 1.0))
        # r >= 1 would put `start` before the envelope's peak, where the
        # term is at least m(nu) 2^-power with power <= |nu| + 1; m(nu)'s
        # exp(0.6449 nu^2) keeps that far above e^-708.
        if r < 1.0:
            # Summing would lose the term to gradual underflow.  Every
            # later ratio is below r, and 1.01 plus one subnormal ulp
            # cover the rounding of the exponential.
            return _exp_sat(log_t - math.log1p(-r)) * 1.01 + 5e-324
    t = _exp_sat(log_t)
    if t == math.inf:
        # envelope constant beyond the double range (very large |nu|);
        # the bound is honestly infinite, nothing can be certified
        return math.inf
    total = t
    n = start
    while True:
        r = ((n + 1.0) / n) ** power * w / ((n + 1.0) * (n + 1.0))
        if r < 1.0:
            remainder = t * r / (1.0 - r)
            if remainder < 1e-3 * total:
                return (total + remainder) * 1.01
        n += 1
        t *= ((n / (n - 1.0)) ** power) * w / (n * n)
        total += t
        if total == math.inf:
            return math.inf
        if n > start + 100000:  # ratio < 1 long before this for finite x
            raise ToleranceError(f"envelope tail failed to converge at nu={nu}, x={x}")


def _closed_form_tail(nu: float, x: float, N: int, i1: float) -> float:
    if N <= 20:
        return m_of_nu(nu) * (0.5 * x) ** (2 * N + 1) * i1 / float(math.factorial(N)) ** 2
    if i1 == 0.0:  # x/2 rounds to zero, as the power form above does
        return 0.0
    log_val = (
        _log_m_of_nu(nu)
        + (2.0 * N + 1.0) * math.log(0.5 * x)
        + math.log(i1)
        - 2.0 * math.lgamma(N + 1.0)
    )
    return _exp_sat(log_val) * (1.0 + 1e-12)


def tail_bound(nu: float, x: float, N: int) -> float:
    """Guaranteed bound on the series error after N recurrence steps.

    The partial sum keeps coefficient indices 0..N; the bound covers the
    discarded indices N+1, N+2, ...  It applies to each of the four basis
    functions and is nonincreasing in N: a deeper tail is a subset of a
    shallower one, so when the raw |nu| <= 2 closed form still grows with
    N (possible while N < x/2) the shallower bound is substituted.
    """
    _check_finite(nu, "nu")
    _check_finite(x, "x")
    if x <= 0.0:
        raise DomainError(f"x must be > 0, got {x}")
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    v = abs(nu)
    if v > 2.0:
        return _envelope_tail_sum(nu, v, x, N)
    i1 = _i1_upper(x)
    raw = _closed_form_tail(nu, x, N, i1)
    if x > 2.0:
        # the raw form is unimodal in N with its peak near x/2, so the
        # running minimum over 1..N is min(raw(1), raw(N))
        raw = min(raw, _closed_form_tail(nu, x, 1, i1))
    if raw < sys.float_info.min:
        # below the normal range each rounding can lose a subnormal ulp
        # (5e-324); 20 of them stay above the exact tail, which is > 0
        raw += 1e-322
    return raw


def derivative_tail_bound(nu: float, x: float, N: int) -> float:
    """Guaranteed truncation bound for the first-derivative outputs.

    The derivative series carries an extra factor n * 2/x per term plus
    the nu/x rotation term, so its tail is bounded by

        (2/x) * sum_{n>N} n * M_n (x/2)^(2n)  +  (|nu|/x) * tail_bound(N).
    """
    _check_finite(nu, "nu")
    _check_finite(x, "x")
    if x <= 0.0:
        raise DomainError(f"x must be > 0, got {x}")
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    v = abs(nu)
    s = _envelope_tail_sum(nu, v + 1.0, x, N + 1)
    return (2.0 / x) * s + (v / x) * tail_bound(nu, x, N)


def required_terms(nu: float, x: float, tol: float) -> int:
    """Smallest N <= 400 whose tail bound meets `tol`.

    Nondecreasing in x, nonincreasing in tol.  Raises ToleranceError when
    even 400 terms cannot reach the tolerance (absurd x / tol pairings).
    """
    if not (tol > 0.0):
        raise DomainError(f"tol must be > 0, got {tol}")
    for n in range(1, MAX_TERMS + 1):
        if tail_bound(nu, x, n) <= tol:
            return n
    raise ToleranceError(
        f"tolerance {tol:g} unreachable within {MAX_TERMS} terms at nu={nu}, x={x}"
    )


def bound_report(nu: float, x: float, N: int) -> BoundReport:
    """Bundle F(nu), m(nu) and the tail bound for reporting."""
    return BoundReport(F=factor_F(nu), m_nu=m_of_nu(nu), N=N, tail=tail_bound(nu, x, N))
