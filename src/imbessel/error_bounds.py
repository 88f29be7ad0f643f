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

Both branches bound the discarded indices N+1, N+2, ... after N steps.

This chain is the certified a-priori API: `tail_bound`,
`derivative_tail_bound` and `required_terms` (and the `bounds` command)
give bounds from (nu, N, x) alone, before any term is computed, and the
oracle sizes its extended-precision series with `required_terms`.
`eval_pair` does not search with it: its kernel stops on the
a-posteriori ratio tail of the terms it computes (see `_backend`), which
follows the true error instead of the envelope.  It falls back on this
chain only for a forced term count whose ratio has not dropped below 1.

Everything above that depends only on the point (nu, x) -- log m(nu),
(x/2)^2 and its log, and for |nu| <= 2 also m(nu), the I1 majorant and
the N = 1 closed form -- is computed once per point in `_PointBounds`;
the public functions are thin wrappers over it.  Bounds beyond the
double range saturate to +inf rather than raising or turning into NaN.
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


def _pow_sat(base: float, exponent) -> float:
    # base ** exponent with saturation instead of OverflowError
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


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
    if nu * nu == math.inf:  # log1p(v) - log1p(nu^2) would be inf - inf
        return math.inf
    return math.log1p(v) - math.log1p(nu * nu) + SUM_INV_SQUARES * nu * nu + SUM_INV_CUBES * factor_F(nu)


def m_of_nu(nu: float) -> float:
    """Envelope constant m(nu); equals 1 at nu = 0 and grows with |nu|."""
    _check_finite(nu, "nu")
    v = abs(nu)
    if nu * nu == math.inf:  # the prefactor would be 0 against exp's inf
        return math.inf
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
        return m_of_nu(nu) * _pow_sat(float(n), v) / float(math.factorial(n)) ** 2
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


class _PointBounds:
    """The bound chain at one point (nu, x), its constants computed once.

    The term search (`terms`), the value bound (`tail`) and the
    derivative bound (`d_tail`) all read the same log m(nu), (x/2)^2 and
    its log; for |nu| <= 2 also m(nu), the I1(x) majorant and the N = 1
    closed form that caps the running minimum.
    """

    __slots__ = ("nu", "x", "v", "log_m", "w", "log_w", "half", "m", "i1", "tail1")

    def __init__(self, nu: float, x: float):
        _check_finite(nu, "nu")
        _check_finite(x, "x")
        if x <= 0.0:
            raise DomainError(f"x must be > 0, got {x}")
        self.nu = nu
        self.x = x
        self.v = v = abs(nu)
        self.log_m = _log_m_of_nu(nu)
        self.half = half = 0.5 * x
        self.w = w = half * half
        if w >= sys.float_info.min:
            self.log_w = math.log(w)
        else:  # (x/2)^2 underflows or loses digits below x ~ 3e-154
            self.log_w = 2.0 * (math.log(x) - math.log(2.0))
        if v <= 2.0:
            self.m = m_of_nu(nu)
            self.i1 = _i1_upper(x)
            # the raw closed form is unimodal in N with its peak near x/2,
            # so for x > 2 the running minimum over 1..N is
            # min(raw(1), raw(N)); below that raw(N) is already decreasing
            self.tail1 = self._closed_form(1) if x > 2.0 else math.inf

    def tail(self, N: int) -> float:
        """`tail_bound` after N steps (N >= 1, unchecked)."""
        if self.v > 2.0:
            return self._envelope(self.v, N + 1)
        raw = self._closed_form(N)
        if self.tail1 < raw:
            raw = self.tail1
        if raw < sys.float_info.min:
            # below the normal range each rounding can lose a subnormal ulp
            # (5e-324); 20 of them stay above the exact tail, which is > 0
            raw += 1e-322
        return raw

    def _closed_form(self, N: int) -> float:
        # m(nu) (x/2)^(2N+1) I1(x) / (N!)^2, for |nu| <= 2
        if N <= 20:
            return self.m * _pow_sat(self.half, 2 * N + 1) * self.i1 / float(math.factorial(N)) ** 2
        if self.i1 == 0.0:  # x/2 rounds to zero, as the power form above does
            return 0.0
        log_val = (
            self.log_m
            + (2.0 * N + 1.0) * math.log(self.half)
            + math.log(self.i1)
            - 2.0 * math.lgamma(N + 1.0)
        )
        return _exp_sat(log_val) * (1.0 + 1e-12)

    def d_tail(self, N: int, tail: float) -> float:
        """`derivative_tail_bound` after N steps, given `tail` = tail(N)."""
        d = (2.0 / self.x) * self._envelope(self.v + 1.0, N + 1)
        if tail == math.inf:
            # the nu/x rotation term is absent at nu = 0 and unbounded
            # otherwise; (v/x) * inf would be NaN where v/x is zero
            return d if self.v == 0.0 else math.inf
        return d + (self.v / self.x) * tail

    def terms(self, tol: float) -> tuple:
        """(N, tail(N)) for the smallest N <= MAX_TERMS with tail(N) <= tol."""
        for n in range(1, MAX_TERMS + 1):
            eps = self.tail(n)
            if eps <= tol:
                return n, eps
        raise ToleranceError(
            f"tolerance {tol:g} unreachable within {MAX_TERMS} terms at nu={self.nu}, x={self.x}"
        )

    def _envelope(self, power: float, start: int) -> float:
        """Upper bound on sum_{n>=start} m(nu) n^power / (n!)^2 (x/2)^(2n).

        Sums terms directly; once the term ratio r drops below 1 and the
        geometric remainder t*r/(1-r) falls under 0.1% of the partial
        sum, the remainder is added and the total inflated by 1.01.  The
        ratio only falls with n, so a first term below the normal range
        takes the whole geometric sum t/(1-r) at once.
        """
        w = self.w
        log_t = self.log_m + _envelope_term_log(power, start, self.log_w)
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
                raise ToleranceError(
                    f"envelope tail failed to converge at nu={self.nu}, x={self.x}"
                )


def _check_terms(N):
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")


def tail_bound(nu: float, x: float, N: int) -> float:
    """Guaranteed bound on the series error after N recurrence steps.

    The partial sum keeps coefficient indices 0..N; the bound covers the
    discarded indices N+1, N+2, ...  It applies to each of the four basis
    functions and is nonincreasing in N: a deeper tail is a subset of a
    shallower one, so when the raw |nu| <= 2 closed form still grows with
    N (possible while N < x/2) the shallower bound is substituted.
    """
    bounds = _PointBounds(nu, x)
    _check_terms(N)
    return bounds.tail(N)


def derivative_tail_bound(nu: float, x: float, N: int) -> float:
    """Guaranteed truncation bound for the first-derivative outputs.

    The derivative series carries an extra factor n * 2/x per term plus
    the nu/x rotation term, so its tail is bounded by

        (2/x) * sum_{n>N} n * M_n (x/2)^(2n)  +  (|nu|/x) * tail_bound(N).
    """
    bounds = _PointBounds(nu, x)
    _check_terms(N)
    return bounds.d_tail(N, bounds.tail(N))


def required_terms(nu: float, x: float, tol: float) -> int:
    """Smallest N <= 400 whose tail bound meets `tol`.

    Nondecreasing in x, nonincreasing in tol.  Raises ToleranceError when
    even 400 terms cannot reach the tolerance (absurd x / tol pairings).
    """
    if not (tol > 0.0):
        raise DomainError(f"tol must be > 0, got {tol}")
    return _PointBounds(nu, x).terms(tol)[0]


def bound_report(nu: float, x: float, N: int) -> BoundReport:
    """Bundle F(nu), m(nu) and the tail bound for reporting."""
    return BoundReport(F=factor_F(nu), m_nu=m_of_nu(nu), N=N, tail=tail_bound(nu, x, N))
