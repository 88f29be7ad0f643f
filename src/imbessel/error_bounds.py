"""A-priori truncation control for the even-coefficient series.

The terms t_n = (a_n, b_n) w^n, w = (x/2)^2, of both equation kinds obey
the step inequality `_backend` proves, |t_n|_1 <= rho_n |t_(n-1)|_1 with
rho_n = w (n + |nu|) / (n (n^2 + nu^2)), so for a seed of l1 size 1,
|t_n|_1 <= P_n = prod_{i<=n} rho_i.  The paper loosens P_n into the
envelope

    |a_n| + |b_n|  <  m(nu) * n^|nu| / (n!)^2,        n >= 1,

with m(nu) = (1+|nu|)/(1+nu^2) * exp(0.6449 nu^2 + 0.2021 F(nu)), the
constants being sum_{n>=2} 1/n^2 and sum_{n>=2} 1/n^3 to four decimals
and F(nu) a piecewise cubic-correction factor.  That is the paper's
stated result (`majorant_bound`, `m_of_nu`, `factor_F`); for |nu| <= 2 it
sums to eps_N <= m(nu) (x/2)^(2N+1) I1(x) / (N!)^2.  No bound uses it: at
n = 40 it is 10^0.3 (nu = 0.5) to 10^265 (nu = 12) above P_n, and inf
from |nu| ~ 19.

After N steps the discarded terms and their n-weighted sizes sum to at
most P_(N+1) (1 + c) and P_(N+1) (N + 1 + c_d), with c and c_d the chain
`_backend.carried_tails` runs from M = 1 at index N + 1 (see "Carried
tails" there): the kernel's closing, carried until the derivative
ratio is below 1/2 and closed with a geometric tail; a chain that takes
no step is that tail alone, with `TAIL_FACTOR`.
log P_(N+1) is one running sum of log w + log((i + |nu|) / i /
(i^2 + nu^2)), with log w from log x where w is not normal, so no factor
leaves the double range.  Then

    tail_bound            = exp(log P_(N+1) + log(1 + c)) 1.01 + 5e-324,
    derivative_tail_bound = exp(log P_(N+1) - log x
                                + log(2 (N + 1 + c_d) + |nu| (1 + c))) 1.01 + 5e-324,

the second being (2/x) sum_{n>N} n P_n + (|nu|/x) sum_{n>N} P_n with
both scales in the exponent, where they can neither overflow nor scale
an underflowed tail.

Tightness.  Over the exact tails of the step product (the sums above)
only the chain's geometric closing, at a ratio below 1/2, and the 1.01
add anything: less than 2.03x.  Measured, the excess peaks just below
an x where the closing index moves, at most 1.10x for `tail_bound`
(1.095 at nu = 0, N = 4, x -> sqrt(60)) and 1.23x for
`derivative_tail_bound` (1.227 at nu = 0, N = 1, x -> 2 sqrt(3)), and
falls with |nu| (1.06x and 1.07x at |nu| = 40).  At nu = 0,
P_n = w^n / (n!)^2 is the paper's envelope.

Rounding.  For N <= 401 and x >= 5e-324 the log sum is within 1e-7 of
its exact value, and 1.01 covers that and the exponential.  Each term
is at most 1 853 in size (|log w| <= 1 491; the quotient, five roundings
from nu, lies in [2^-523, 1.21] while nu^2 is finite) and is formed
within 1e-12; each of the at most 401 running sums is below 7.5e5 and
rounds by at most 8.3e-11.  So log P_(N+1) is within 4e-8, and the
exponent, after log x and the log of the chain's total (an upper bound
already), within 1e-7.  The exponential, 2u more, is then at most a
factor e^(1e-7) (1 + 2u) below the exact bound, which the 1.01 (rounded
once more) outweighs; below the normal range it loses at most the one
subnormal step that 5e-324 restores.  Where w is below the normal range
the chain's multipliers are not accurate to a relative u, but there
rho_K <= 2 w < 2^-1021, so the computed 1 + c and N + 1 + c_d, at least
1 and N + 1, are within a factor 1 + 2^-1000 of the exact ones.

These are the certified a-priori API (`tail_bound`,
`derivative_tail_bound`, `required_terms` and the `bounds` command):
bounds from (nu, N, x) alone, before any term is computed.  `eval_pair`
does not use them; its kernel bounds the tail from the terms it
computes.  Counts N are ints in 1..MAX_TERMS.  Beyond the double range
a bound is +inf, never an error or NaN, and so is the bound of an order
whose square overflows: there every log P_n is taken as +inf, so each
bound is inf and `required_terms` meets only tol = inf, at N = 1.
"""

import math
import sys
from itertools import accumulate, islice, repeat

from ._backend import MAX_TERMS, RHO_UP, carried_tails
from .errors import ToleranceError, check_count, check_positive, check_real, check_tol

# sum_{n>=2} 1/n^2 = pi^2/6 - 1 and sum_{n>=2} 1/n^3 = zeta(3) - 1,
# both to the four decimals used by the envelope's derivation.
SUM_INV_SQUARES = 0.6449
SUM_INV_CUBES = 0.2021

def _exp_sat(arg: float) -> float:
    # exp with saturation instead of OverflowError; huge bounds stay
    # honest as +inf, tiny ones underflow to a clean zero
    try:
        return math.exp(arg)
    except OverflowError:
        return math.inf


def factor_F(nu: float) -> float:
    """Piecewise cubic-correction factor of the coefficient envelope."""
    nu = check_real(nu, "nu")
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
    nu = check_real(nu, "nu")
    return _exp_sat(_log_m_of_nu(nu))


def majorant_bound(nu: float, n: int) -> float:
    """Envelope m(nu) * n^|nu| / (n!)^2 on |a_n| + |b_n|, n in 1..MAX_TERMS.

    Formed in log space, so it is finite wherever the envelope is, even
    where m(nu) n^|nu| or (n!)^2 alone leaves the double range.
    """
    nu = check_real(nu, "nu")
    check_count(n, "n", MAX_TERMS)
    return _exp_sat(_log_m_of_nu(nu) + abs(nu) * math.log(n) - 2.0 * math.lgamma(n + 1.0))


def _point(nu, x):
    # The checked point's |nu|, nu^2, x, w = (x/2)^2 and one lazy running
    # sum of log P_n, n = 1..MAX_TERMS + 1, which every bound reads (so a
    # count has the same bytes in each); each log P_n is +inf where nu^2
    # overflows, so every bound there is inf.
    nu = check_real(nu, "nu")
    x = check_positive(x, "x")
    half = 0.5 * x
    w = half * half
    if w >= sys.float_info.min:
        log_w = math.log(w)
    else:  # (x/2)^2 underflows or loses digits below x ~ 3e-154
        log_w = 2.0 * (math.log(x) - math.log(2.0))
    v, nu2 = abs(nu), nu * nu
    if nu2 == math.inf:  # each quotient would underflow to log(0)
        log_products = repeat(math.inf, MAX_TERMS + 1)
    else:
        log_products = accumulate(log_w + math.log((i + v) / i / (i * i + nu2))
                                  for i in range(1, MAX_TERMS + 2))
    return v, nu2, x, w, log_products


def _totals(v, nu2, w, N):
    # 1 + c and N + 1 + c_d: the tails after N steps over P_(N+1)
    c, c_d = carried_tails(1.0, N + 2.0, nu2, v, w * RHO_UP)
    return 1.0 + c, N + 1.0 + c_d


def _bound(log_scale, total):
    # e^log_scale * total, rounded up (see "Rounding")
    return _exp_sat(log_scale + math.log(total)) * 1.01 + 5e-324


def _tails(nu, x, N):
    # log P_(N+1), log x, |nu| and the totals after N steps
    v, nu2, x, w, log_products = _point(nu, x)
    check_count(N, "N", MAX_TERMS)
    for log_p in islice(log_products, N + 1):
        pass
    return (log_p, math.log(x), v) + _totals(v, nu2, w, N)


def tail_bound(nu: float, x: float, N: int) -> float:
    """Guaranteed bound on the series error after N recurrence steps.

    The partial sum keeps coefficient indices 0..N; the bound covers the
    discarded indices N+1, N+2, ...  It applies to each of the four basis
    functions.  The majorant falls strictly with N (by P_(N+1), or by a
    factor below 1/2 where the chain's closing index moves); the computed
    bound can rise only by its rounding.
    """
    log_p, _, _, total, _ = _tails(nu, x, N)
    return _bound(log_p, total)


def derivative_tail_bound(nu: float, x: float, N: int) -> float:
    """Guaranteed truncation bound for the first-derivative outputs.

    The derivative series carries an extra factor n * 2/x per term plus
    the nu/x rotation term, so its tail is bounded by

        (2/x) * sum_{n>N} n P_n  +  (|nu|/x) * sum_{n>N} P_n,

    taken as one exponential with 1/x in log space.
    """
    log_p, log_x, v, total, d_total = _tails(nu, x, N)
    d_total = 2.0 * d_total
    if v:  # 0 * inf would be NaN at nu = 0
        d_total += v * total
    return _bound(log_p - log_x, d_total)


def required_terms(nu: float, x: float, tol: float) -> int:
    """Smallest N <= MAX_TERMS whose `tail_bound` meets `tol`.

    A linear scan over the same computation, which skips a count whose
    bound it can show is above `tol` without running its chain: while
    0.99 S_N > tol, with S_N = sum_{N<K<=MAX_TERMS+1} P_K formed in one
    backward pass over exp(log P_K).  The bound after N steps is at
    least the exact sum of the P_K, K > N, which S_N exceeds by at most
    the 1e-7 of the log sums and 401 roundings, so by less than its
    factor 1.01 (and it is inf where S_N is).  Every call forms all
    MAX_TERMS + 1 log P_K first, some 0.2 ms of work whatever the
    answer.  Raises ToleranceError when even MAX_TERMS terms cannot
    reach the tolerance (absurd x / tol pairings).
    """
    v, nu2, x, w, log_products = _point(nu, x)
    check_tol(tol)
    logs = list(islice(log_products, 1, None))  # log P_(N+1), N = 1..MAX_TERMS
    sums = list(accumulate(map(_exp_sat, reversed(logs))))
    for N, log_p in enumerate(logs, start=1):
        if 0.99 * sums[MAX_TERMS - N] <= tol and _bound(log_p, _totals(v, nu2, w, N)[0]) <= tol:
            return N
    raise ToleranceError(
        f"tolerance {tol:g} unreachable within {MAX_TERMS} terms at nu={float(nu)}, x={x}"
    )
