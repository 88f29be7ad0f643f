"""Hand-written extended-precision references the tests compare against.

They are independent of both the gold pair (`imbessel.oracle`) and the
double-precision series path: the complex Gamma function by an
argument-shifted Stirling series, the imaginary-order Bessel and
modified Bessel functions by direct complex summation of their defining
series (a posteriori stop, rerun at higher precision when cancellation
eats the guard digits), and the Macdonald function by adaptive panel
quadrature of its exponential integral representation.  `hp_gamma`
times `hp_bessel_imag` is therefore a second, independent code for the
gold pair.  `coefficients_hp` runs the series' coefficient recurrence
and `truncated_pair_hp` its N-step partial sums in extended precision.
The values are the oracle's `OracleValue`, with its digit declaration,
its `MAX_DIGITS` and its mpmath lock.

Cost, measured on one core of a 2-vCPU VM (Python 3.11.7):
`hp_bessel_imag` takes ~5-50 ms at x up to 700 and |nu| up to 100, and
~250 ms at oscillatory x = 300, where it reruns with ~130 more digits.
The references refuse, with ToleranceError and before the work, an
argument shift, a series or a quadrature past the caps below
(`MAX_SHIFT`, `MAX_SERIES_X`, `MAX_PANELS`, `KL_MAX_DIGITS`).
"""

import math

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_float, mpf_cos_sin, mpf_log, mpf_mul, round_nearest

from imbessel._backend import MAX_TERMS
from imbessel.errors import DomainError, ToleranceError, check_count, check_positive, check_real
from imbessel.oracle import MAX_DIGITS, OracleValue, _locked
from imbessel.series_core import Kind, _is_modified

#: The most digits `kl_macdonald` delivers: its quadrature took ~0.9 s
#: at 30 digits, ~3 s at 40 and ~36 s at 60, and failed to converge
#: after 16-37 s at 100-200 (one core of a 2-vCPU VM).  `hp_gamma`'s
#: Stirling series meets its target up to ~300 digits, past MAX_DIGITS.
KL_MAX_DIGITS = 30
#: Cost caps, each checked before the work it bounds: `hp_gamma`'s
#: argument shift (~0.2 s at 50 digits); the defining series' x, where
#: it sums ~x/2 terms before its ratio falls below 1 (at orders below
#: x/2) and the oscillatory kind reruns with ~0.44 x more digits (~3 s
#: at the cap); and `kl_macdonald`'s panels at 13 digits (~2 s), a panel
#: at d > 13 digits counting as (d/13)^4 of them.
MAX_SHIFT = 20_000
MAX_SERIES_X = 1000.0
MAX_PANELS = 400


def _stirling_log_gamma(w, wp):
    # Asymptotic series for ln Gamma, valid once Re(w) is comfortably
    # above ~0.37 * wp (set by the caller through argument shifting).
    target = mpf(10) ** (-(wp + 5))
    s = (w - mpf(1) / 2) * mp.log(w) - w + mp.log(2 * mp.pi) / 2
    w2 = w * w
    wpow = w
    correction = mpf(0)
    for j in range(1, 400):
        term = mpmath.bernoulli(2 * j) / ((2 * j) * (2 * j - 1) * wpow)
        correction += term
        if abs(term) < target:
            break
        wpow *= w2
    else:
        raise ToleranceError(f"Stirling series did not reach target at w={w}")
    return s + correction


@_locked
def hp_gamma(z_re: float, z_im: float, digits: int = 50) -> OracleValue:
    """Gamma(z) for complex z to `digits` decimal digits.

    Shifts the argument upward through Gamma(z) = Gamma(z+k) / prod(z+m)
    until the Stirling series converges below the working precision.
    Nonpositive real integers are poles and rejected (DomainError); a
    shift k above MAX_SHIFT (Re z below about -20 000) raises
    ToleranceError before the product is formed.  The working digits
    grow by log10 of the larger part of z, so the declared digits hold
    at large |z|.
    """
    check_real(z_re, "z_re")
    check_real(z_im, "z_im")
    check_count(digits, "digits", MAX_DIGITS)
    if z_im == 0.0 and z_re <= 0.0 and z_re == math.floor(z_re):
        raise DomainError(f"Gamma pole at z = {z_re}")
    return _gamma(z_re, z_im, digits)


def _magnitude_digits(v: float) -> int:
    # ceil(log10 |v|), or 0 where |v| <= 1
    return math.ceil(math.log10(abs(v))) if abs(v) > 1.0 else 0


def _gamma(z_re, z_im, digits):
    # `hp_gamma` for checked arguments, also at MAX_DIGITS + 5 digits.
    # exp(ln Gamma(w)) carries the absolute error of ln Gamma(w), about
    # |w ln w| units of the working precision (at |Im z| = 1e60 some 60
    # digits), so the working digits grow by log10 of the larger part of
    # z; the 15 guard digits cover the factor ln |w| < 710.
    wp = digits + 15 + _magnitude_digits(max(abs(z_re), abs(z_im)))
    with mp.workdps(wp):
        z = mpc(z_re, z_im)
        threshold = 0.37 * wp + 8.0
        k = max(0, int(math.ceil(threshold - z_re)))
        if k > MAX_SHIFT:
            raise ToleranceError(f"Gamma at Re z = {z_re} needs {k} argument shifts, "
                                 f"more than {MAX_SHIFT}")
        w = z + k
        g = mp.exp(_stirling_log_gamma(w, wp))
        if k:
            prod = mpc(1)
            for m_shift in range(k):
                prod *= z + m_shift
            g = g / prod
        return OracleValue(re=g.real, im=g.imag, digits=digits)


def _norm_series(kind: Kind, order, x: float):
    # x^order sum_k t_k with t_k = t_{k-1} (+-w) / (k (k + order)) and
    # w = (x/2)^2, i.e. Gamma(1 + order) 2^order J_order(x) (I_order when
    # modified), summed at the current precision.  The modulus ratio
    # |t_{k+1} / t_k| = w / ((k+1) |k+1 + order|) is exact and decreasing
    # in k (order imaginary or >= 0), so once it is below 1 the tail after
    # t_k is at most |t_k| rho / (1 - rho); the sum stops when that is
    # below one unit of the working precision relative to |sum| (or to
    # eps max|t_k| when the sum has cancelled further than the precision
    # can see).  Also returns the decimal digits the sum may have lost,
    # log10(10 N^2 max|t_k| / |sum|): each term carries O(k) roundings,
    # so N^2 max|t_k| majorizes the error.
    sign = 1 if _is_modified(kind) else -1
    w = (mpf(x) / 2) ** 2
    eps = mpf(10) ** -mp.dps
    t = total = mpc(1)
    top = mpf(1)
    k = 0
    while True:
        rho = w / ((k + 1) * abs(k + 1 + order))
        if rho < 1 and abs(t) * rho / (1 - rho) <= eps * max(abs(total), eps * top):
            break
        k += 1
        t = t * sign * w / (k * (k + order))
        total += t
        top = max(top, abs(t))
    lost = float(mp.log10(10 * (k + 1) ** 2 * top / abs(total)))
    return mp.power(mpf(x), order) * total, lost


def _defining_series(kind: Kind, order, x: float, digits: int, extra: int = 0):
    # `_norm_series` to max(50, digits) + extra digits: run with 15 guard
    # digits, and where the digits it may have lost to cancellation
    # exceed them, rerun at that + 5 plus the digits lost.  Its length
    # and the digits it loses grow with x, so x past MAX_SERIES_X is
    # refused before any term is summed.
    check_positive(x, "x")
    check_count(digits, "digits", MAX_DIGITS)
    if x > MAX_SERIES_X:
        raise ToleranceError(f"x={x} is above the defining series' cap {MAX_SERIES_X:g}")
    declared = max(50, digits) + extra
    wp = declared + 15
    while True:
        with mp.workdps(wp):
            norm, lost = _norm_series(kind, order, x)
        if declared + lost <= wp:
            return norm
        wp = declared + 5 + math.ceil(lost)


@_locked
def hp_bessel_imag(nu: float, x: float, kind: Kind, digits: int = 50) -> OracleValue:
    """J_{i nu}(x) (oscillatory) or I_{i nu}(x) (modified) by direct
    complex summation of the defining series.

    The series stops a posteriori on its exact ratio tail, and is rerun
    at a higher precision where cancellation would eat into the declared
    digits, so they hold at large x as well.  x above MAX_SERIES_X
    (1000) raises ToleranceError before any term is summed: the series
    would sum some x/2 terms before its ratio falls below 1, and the
    oscillatory one rerun with some 0.44 x more digits.  The working
    digits grow by log10 |nu|, so the declared digits hold at large |nu|.
    """
    # x^(i nu) and 2^(i nu) are exp(i nu ln x) and exp(i nu ln 2), which
    # carry the absolute error of nu ln x, |nu ln x| units of the working
    # precision; so the working digits grow by log10 |nu| (15 guard
    # digits cover |ln x| <= ln MAX_SERIES_X)
    extra = _magnitude_digits(check_real(nu, "nu"))
    norm = _defining_series(kind, mpc(0, nu), x, digits, extra)
    with mp.workdps(max(50, digits) + extra + 15):
        g = _gamma(1.0, nu, max(50, digits) + 5)
        j = norm / (mpc(g.re, g.im) * mp.exp(mpc(0, nu) * mp.log(mpf(2))))
        return OracleValue(re=j.real, im=j.imag, digits=digits)


def _phase(nu: float, x: float, prec: int):
    # cos and sin of nu ln x to `prec` bits, as raw mpf values.  cos and
    # sin carry the angle's absolute error, and an angle rounded to p
    # bits is off by up to |nu ln x| 2^-p: at |nu| = 1e60 a fixed p
    # leaves some 200 bits fewer than p.  So ln x and the product are
    # rounded to prec + mag(nu) + 12 bits: |ln x| < 745 < 2^10 for every
    # positive double x, so |nu ln x| < 2^(mag(nu) + 10), and the two
    # roundings move the angle by less than 2^-prec.
    nu_f = from_float(nu)
    wp = prec + max(0, nu_f[2] + nu_f[3]) + 12
    angle = mpf_mul(nu_f, mpf_log(from_float(x), wp, round_nearest), wp, round_nearest)
    return mpf_cos_sin(angle, prec, round_nearest)


@_locked
def coefficients_hp(kind: Kind, nu: float, seed, n_terms: int, digits: int = 50):
    """The coefficient pairs (a_n, b_n), n = 1..n_terms, of one seed.

    The recurrence `truncated_pair_hp` sums, run at `digits` + 10
    working digits and returned as mpf pairs: exact enough for checks of
    the coefficient envelope, which must not see double rounding.
    """
    sign = 1 if _is_modified(kind) else -1
    check_count(digits, "digits", MAX_DIGITS)
    with mp.workdps(max(50, digits) + 10):
        nu_m = mpf(nu)
        a, b = mpf(seed[0]), mpf(seed[1])
        pairs = []
        for n in range(1, n_terms + 1):
            denom = n * (n * n + nu_m * nu_m)
            a, b = sign * (n * a - nu_m * b) / denom, sign * (nu_m * a + n * b) / denom
            pairs.append((a, b))
        return pairs


@_locked
def truncated_pair_hp(kind: Kind, nu: float, x: float, n_terms: int, digits: int = 50):
    """The exact N-step partial sums of both basis functions.

    Runs the coefficient recurrence and the series fold in extended
    precision, so comparing against the full oracle isolates pure
    truncation error (double-precision round-off would otherwise swamp
    tail bounds that sit far below 1e-16).

    Returns (cos_val, sin_val, d_cos, d_sin) as mpf values.
    """
    nu = check_real(nu, "nu")
    x = check_positive(x, "x")
    check_count(n_terms, "n_terms", MAX_TERMS)
    check_count(digits, "digits", MAX_DIGITS)
    with mp.workdps(max(50, digits) + 10):
        nu_m = mpf(nu)
        w = (mpf(x) / 2) ** 2
        # the (1, 0) seed; the (0, 1) seed's sums are its exact quarter
        # turn (-q, p, -dq, dp), as in `eval_pair`
        p, q = mpf(1), mpf(0)
        dp = dq = mpf(0)
        t = mpf(1)
        for n, (a, b) in enumerate(coefficients_hp(kind, nu, (1, 0), n_terms, digits), start=1):
            t = t * w
            p += a * t
            q += b * t
            dp += n * a * t
            dq += n * b * t
        c, s = (mp.make_mpf(v) for v in _phase(nu, x, mp.prec))
        cos_val = p * c + q * s
        sin_val = p * s - q * c
        d_cos = (2 / mpf(x)) * (dp * c + dq * s) + (nu_m / mpf(x)) * (q * c - p * s)
        d_sin = (2 / mpf(x)) * (dp * s - dq * c) + (nu_m / mpf(x)) * (p * c + q * s)
        return cos_val, sin_val, d_cos, d_sin


def _romberg(f, a, b, tol, max_levels=16):
    # Trapezoid refinement with Richardson extrapolation; the integrands
    # here are analytic on each panel, so convergence is fast.
    h = b - a
    rows = [[h * (f(a) + f(b)) / 2]]
    for k in range(1, max_levels + 1):
        h = h / 2
        mids = mpf(0)
        for i in range(1, 2 ** (k - 1) + 1):
            mids += f(a + (2 * i - 1) * h)
        row = [rows[-1][0] / 2 + h * mids]
        for j in range(1, k + 1):
            row.append(row[j - 1] + (row[j - 1] - rows[-1][j - 1]) / (4 ** j - 1))
        if k >= 3 and abs(row[k] - rows[-1][k - 1]) < tol:
            return row[k]
        rows.append(row)
    raise ToleranceError("panel quadrature failed to converge")


@_locked
def kl_macdonald(tau: float, x: float, digits: int = 13) -> OracleValue:
    """K_{i tau}(x) via the integral of exp(-x cosh t) cos(tau t) over
    t >= 0.

    The upper limit T is chosen so the discarded integrand is below
    1e-25 of its t = 0 value; [0, T] is cut into panels no wider than
    pi / (4 max(|tau|, 1)) so each panel sees less than an eighth of a
    cosine period, and each panel is integrated adaptively.  Reliable
    only away from 0: x below 0.05 is refused (the integrand then decays
    too slowly for this truncation to represent the function well).

    Cost caps, checked before the quadrature: `digits` above
    KL_MAX_DIGITS (30) raises ToleranceError, and so does a panel count
    n with n (max(digits, 13) / 13)^4 above MAX_PANELS (400), i.e. about
    |tau| > 65 at x = 1 and 13 digits: the cost of a panel grows like
    the fourth power of the digits (measured from 13 to 40).
    """
    check_real(tau, "tau")
    check_positive(x, "x")
    check_count(digits, "digits", MAX_DIGITS)
    if x < 0.05:
        raise ToleranceError("kl_macdonald is declared unreliable for x < 0.05")
    if digits > KL_MAX_DIGITS:
        raise ToleranceError(f"kl_macdonald delivers at most {KL_MAX_DIGITS} digits, "
                             f"got {digits}")
    t_abs = abs(tau)
    wp = 2 * digits + 14
    with mp.workdps(wp):
        xm = mpf(x)
        tm = mpf(t_abs)
        T = mp.acosh(1 + 25 * mp.log(10) / xm)
        width = mp.pi / (4 * max(t_abs, 1.0))
        n_panels = int(mp.ceil(T / width))
        if n_panels * (max(digits, 13) / 13) ** 4 > MAX_PANELS:
            raise ToleranceError(f"kl_macdonald at tau={tau}, x={x} and {digits} digits "
                                 f"needs more than {MAX_PANELS} 13-digit panels")
        edges = [T * i / n_panels for i in range(n_panels + 1)]

        def f(t):
            return mp.exp(-xm * mp.cosh(t)) * mp.cos(tm * t)

        tol = mpf(10) ** (-(digits + 4)) * mp.exp(-xm) / n_panels
        total = mpf(0)
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += _romberg(f, lo, hi, tol)
        return OracleValue(re=total, im=mpf(0), digits=digits)
