"""A-priori truncation control for the even-coefficient series.

The coefficient pairs of both equation kinds obey, step for step,

    |a_n| + |b_n|  <=  (n + |nu|) / (n (n^2 + nu^2)) * (|a_{n-1}| + |b_{n-1}|),

which telescopes into the explicit envelope

    |a_n| + |b_n|  <  m(nu) * n^|nu| / (n!)^2,        n >= 1,

with m(nu) = (1+|nu|)/(1+nu^2) * exp(0.6449 nu^2 + 0.2021 F(nu)).  The
constants are the tails sum_{n>=2} 1/n^2 and sum_{n>=2} 1/n^3 to four
decimals, and F(nu) is a piecewise cubic-correction factor.  Summing the
envelope over the discarded indices N+1, N+2, ... after N steps gives a
guaranteed bound on the truncation error of any of the four basis
functions.  One sum serves every order and every scale: it is taken
term by term relative to its first term until a geometric-ratio cutoff,
then the first term, with any outside factor such as the derivative's
2/x, is applied once in log space and the result inflated by 1%.  For
|nu| <= 2 the paper collapses the same sum into the corollary

    eps_N  <=  m(nu) * (x/2)^(2N+1) * I1(x) / (N!)^2,

with I1 the order-one modified Bessel function.  The summed envelope
is at most 1.01 times that (the 1% inflation; one subnormal step more
where both underflow) and often far below it, which the tests check
against I1 in extended precision.

This chain is the certified a-priori API: `tail_bound`,
`derivative_tail_bound` and `required_terms` (and the `bounds` command)
give bounds from (nu, N, x) alone, before any term is computed.
`eval_pair` does not search with it: its kernel stops on the
a-posteriori ratio tail of the terms it computes (see `_backend`), which
follows the true error instead of the envelope.  It falls back on this
chain only for a forced term count whose ratio has not dropped below 1.

Everything above that depends only on the point (nu, x) -- log m(nu),
(x/2)^2 and its log -- is computed once per point in `_PointBounds`;
the public functions are thin wrappers over it.  Bounds beyond the
double range saturate to +inf rather than raising or turning into NaN.
"""

import math
import sys

from .errors import DomainError, ToleranceError

# sum_{n>=2} 1/n^2 = pi^2/6 - 1 and sum_{n>=2} 1/n^3 = zeta(3) - 1,
# both to the four decimals used by the envelope's derivation.
SUM_INV_SQUARES = 0.6449
SUM_INV_CUBES = 0.2021

#: Hard ceiling on the admissible number of series terms.
MAX_TERMS = 400


def _check_finite(value, name):
    try:
        finite = math.isfinite(value)
    except TypeError:
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if not finite:
        raise DomainError(f"{name} must be finite, got {value!r}")


def _exp_sat(arg: float) -> float:
    # exp with saturation instead of OverflowError; huge bounds stay
    # honest as +inf, tiny ones underflow to a clean zero
    try:
        return math.exp(arg)
    except OverflowError:
        return math.inf


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
    return _exp_sat(_log_m_of_nu(nu))


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


class _PointBounds:
    """The bound chain at one point (nu, x), its constants computed once.

    The term search (`terms`), the value bound (`tail`) and the
    derivative bound (`d_tail`) all read the same log m(nu), (x/2)^2 and
    its log, and all three sum the one envelope (`_envelope`).
    """

    __slots__ = ("nu", "x", "v", "log_m", "w", "log_w")

    def __init__(self, nu: float, x: float):
        _check_finite(nu, "nu")
        _check_finite(x, "x")
        if x <= 0.0:
            raise DomainError(f"x must be > 0, got {x}")
        self.nu = nu
        self.x = x
        self.v = abs(nu)
        self.log_m = _log_m_of_nu(nu)
        half = 0.5 * x
        self.w = w = half * half
        if w >= sys.float_info.min:
            self.log_w = math.log(w)
        else:  # (x/2)^2 underflows or loses digits below x ~ 3e-154
            self.log_w = 2.0 * (math.log(x) - math.log(2.0))

    def tail(self, N: int) -> float:
        """`tail_bound` after N steps (N >= 1, unchecked)."""
        return self._envelope(self.v, N + 1)

    def d_tail(self, N: int, tail: float | None = None) -> float:
        """`derivative_tail_bound` after N steps.

        The rotation term (|nu|/x) sum_{n>N} M_n w^n is its own envelope
        sum at scale log|nu| - log x.  Given a value `tail` instead (what
        `eval_pair` passes where the kernel's value tail is finite but its
        derivative tail is not), it is that tail times |nu|/x.
        """
        d = self._envelope(self.v + 1.0, N + 1, math.log(2.0) - math.log(self.x))
        if self.v == 0.0:  # no nu/x rotation term
            return d
        # in log space: v/x overflows below x ~ 1e-308
        scale = math.log(self.v) - math.log(self.x)
        if tail is None:
            return d + self._envelope(self.v, N + 1, scale)
        # inf stays inf
        return d + _exp_sat(scale + math.log(tail)) * 1.01 + 5e-324

    def terms(self, tol: float) -> int:
        """The smallest N <= MAX_TERMS with tail(N) <= tol, by bisection.

        Valid because tail(N) crosses the tolerance once (see
        `tail_bound`).  The bracket grows by doubling steps from a first
        guess near e x/2, past the envelope's peak at ~x/2.
        """
        lo, hi = 0, MAX_TERMS + 1  # sentinels: tail(lo) > tol >= tail(hi)
        n = int(min(1.36 * self.x, MAX_TERMS)) + 1
        step = n // 4 + 1
        while n < hi and self.tail(n) > tol:
            lo, n, step = n, n + step, 2 * step
        hi = min(n, hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.tail(mid) <= tol:
                hi = mid
            else:
                lo = mid
        if hi > MAX_TERMS:
            raise ToleranceError(
                f"tolerance {tol:g} unreachable within {MAX_TERMS} terms at nu={self.nu}, x={self.x}"
            )
        return hi

    def _envelope(self, power: float, start: int, log_scale: float = 0.0) -> float:
        """Upper bound on e^log_scale sum_{n>=start} m(nu) n^power / (n!)^2 (x/2)^(2n).

        Sums the terms relative to the first (t = 1 at `start`); once the
        term ratio r drops below 1 and the geometric remainder t*r/(1-r)
        falls under 0.1% of the partial sum, the remainder is added (the
        ratio only falls with n).  The first term and the scale enter
        once, as exp(log t_start + log_scale + log(total)), so neither
        overflows or underflows on its own at any x.  The factor 1.01
        covers the rounding of the sum and the exponential, and one
        subnormal step keeps the bound above a positive exact sum where
        the exponential underflows.
        """
        w = self.w
        log_t = self.log_m + (power * math.log(start) - 2.0 * math.lgamma(start + 1.0)
                              + start * self.log_w) + log_scale
        if log_t > 710.0:
            # the first term alone is beyond the double range (m(nu) for
            # |nu| above ~33), where the ratio's power could overflow too
            return math.inf
        t = total = 1.0
        n = start
        while True:
            r = ((n + 1.0) / n) ** power * w / ((n + 1.0) * (n + 1.0))
            if r < 1.0:
                remainder = t * r / (1.0 - r)
                if remainder < 1e-3 * total:
                    return _exp_sat(log_t + math.log(total + remainder)) * 1.01 + 5e-324
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
    functions.

    The exact tail falls strictly with N.  The computed bound is
    nonincreasing in N past the envelope's peak (the first index whose
    term ratio is below 1, near x/2).  Before the peak it exceeds the
    envelope's largest term, which is above 1e12 wherever the rounding
    of the final exponential lifts consecutive values: by at most
    1.2e-13 relative for x <= 100 and 1.1e-12 for x up to 1500.  Any
    tolerance below 1e12 is therefore crossed once, as the bisection in
    `required_terms` needs.
    """
    bounds = _PointBounds(nu, x)
    _check_terms(N)
    return bounds.tail(N)


def derivative_tail_bound(nu: float, x: float, N: int) -> float:
    """Guaranteed truncation bound for the first-derivative outputs.

    The derivative series carries an extra factor n * 2/x per term plus
    the nu/x rotation term, so its tail is bounded by

        (2/x) * sum_{n>N} n * M_n (x/2)^(2n)  +  (|nu|/x) * sum_{n>N} M_n (x/2)^(2n),

    each sum taken as one envelope with its factor in log space, so
    neither 2/x nor |nu|/x scales a rounded or underflowed tail.
    """
    bounds = _PointBounds(nu, x)
    _check_terms(N)
    return bounds.d_tail(N)


def required_terms(nu: float, x: float, tol: float) -> int:
    """Smallest N <= 400 whose tail bound meets `tol`.

    Nondecreasing in x, nonincreasing in tol.  Raises ToleranceError when
    even 400 terms cannot reach the tolerance (absurd x / tol pairings).
    """
    if not (tol > 0.0):
        raise DomainError(f"tol must be > 0, got {tol}")
    return _PointBounds(nu, x).terms(tol)
