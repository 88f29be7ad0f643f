"""Extended-precision reference implementations for test-time validation.

Everything here is deliberately independent of the double-precision
series path: the complex Gamma function is evaluated by an argument-
shifted Stirling series, the imaginary-order Bessel and modified Bessel
functions by direct complex summation of their defining series, and the
Macdonald function by adaptive panel quadrature of its exponential
integral representation.  Arithmetic runs on mpmath's arbitrary-
precision floats; every returned value declares the number of decimal
digits it guarantees, and doubling the working precision must not move
any result past that declaration (tests enforce this).

Speed is a non-goal; this module may be orders of magnitude slower than
the double-precision path it certifies.
"""

import functools
import math
import threading
from dataclasses import dataclass

from mpmath import mp, mpc, mpf
import mpmath

from .error_bounds import required_terms
from .errors import DomainError, ToleranceError
from .series_core import Kind, _is_modified

# mpmath precision is process-global state; serializing oracle entry
# points keeps them safe to call from concurrent threads (speed is a
# non-goal here).  Reentrant because the operations compose.
_MP_LOCK = threading.RLock()


def _locked(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _MP_LOCK:
            return fn(*args, **kwargs)

    return wrapper


@dataclass(frozen=True)
class OracleValue:
    """Extended-precision complex value with its guaranteed digit count."""

    re: mpf
    im: mpf
    digits: int

    def as_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


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
    Nonpositive real integers are poles and rejected.
    """
    if z_im == 0.0 and z_re <= 0.0 and z_re == math.floor(z_re):
        raise DomainError(f"Gamma pole at z = {z_re}")
    wp = digits + 15
    with mp.workdps(wp):
        z = mpc(z_re, z_im)
        threshold = 0.37 * wp + 8.0
        k = max(0, int(math.ceil(threshold - z_re)))
        w = z + k
        g = mp.exp(_stirling_log_gamma(w, wp))
        if k:
            prod = mpc(1)
            for m_shift in range(k):
                prod *= z + m_shift
            g = g / prod
        return OracleValue(re=g.real, im=g.imag, digits=digits)


def _series_terms(nu: float, x: float) -> int:
    # Twice the double-precision term count for a 1e-40 tail, which puts
    # the extended-precision truncation far below the declared digits.
    return 2 * required_terms(nu, x, 1e-40) + 10


def _norm_series(kind: Kind, nu: float, x: float, n_terms: int):
    # Returns (value, derivative) of x^(i nu) * sum_n c_n (x/2)^(2n) with
    # c_n = c_{n-1} * (+-1) / (n (n + i nu)), i.e. the normalized pair
    # Gamma(1 + i nu) 2^(i nu) J_{i nu}(x) (or I_{i nu} when modified)
    # without routing through Gamma at all.
    sign = 1 if _is_modified(kind) else -1
    w = (mpf(x) / 2) ** 2
    c = mpc(1)  # running term c_n (x/2)^(2n), accumulated via the ratio
    val = mpc(1)
    der = mpc(0, nu)  # n = 0 term of sum c_n (x/2)^(2n) (i nu + 2n)
    for n in range(1, n_terms + 1):
        c = c * sign * w / (n * (n + mpc(0, nu)))
        val += c
        der += c * (mpc(0, nu) + 2 * n)
    pref = mp.exp(mpc(0, nu) * mp.log(mpf(x)))
    return pref * val, pref * der / mpf(x)


@_locked
def hp_bessel_imag(nu: float, x: float, kind: Kind, digits: int = 50) -> OracleValue:
    """J_{i nu}(x) (oscillatory) or I_{i nu}(x) (modified) by direct
    complex summation of the defining series at >= 50 working digits."""
    if x <= 0.0:
        raise DomainError("x must be > 0")
    wp = max(50, digits) + 15
    with mp.workdps(wp):
        n_terms = _series_terms(nu, x)
        norm, _ = _norm_series(kind, nu, x, n_terms)
        g = hp_gamma(1.0, nu, digits=wp - 10)
        denom = mpc(g.re, g.im) * mp.exp(mpc(0, nu) * mp.log(mpf(2)))
        j = norm / denom
        return OracleValue(re=j.real, im=j.imag, digits=digits)


@_locked
def oracle_pair_hp(kind: Kind, nu: float, x: float, digits: int = 50) -> OracleValue:
    """Gold value of (cos_sol + i sin_sol) at full oracle precision.

    The pair is the normalized series x^(i nu) sum_n c_n (x/2)^(2n)
    itself, equal to Gamma(1 + i nu) 2^(i nu) J_{i nu}(x) (I_{i nu} when
    modified); `hp_bessel_imag` and `hp_gamma` stay separate references
    for that identity.
    """
    if x <= 0.0:
        raise DomainError("x must be > 0")
    wp = max(50, digits) + 15
    with mp.workdps(wp):
        v, _ = _norm_series(kind, nu, x, _series_terms(nu, x))
        return OracleValue(re=v.real, im=v.imag, digits=digits)


@_locked
def oracle_pair(kind: Kind, nu: float, x: float, digits: int = 50):
    """Gold (cos_part, sin_part) rounded to double precision."""
    v = oracle_pair_hp(kind, nu, x, digits=digits)
    return float(v.re), float(v.im)


@_locked
def oracle_pair_derivs_hp(kind: Kind, nu: float, x: float, digits: int = 50) -> OracleValue:
    """d/dx of the gold pair, from the term-differentiated oracle series."""
    if x <= 0.0:
        raise DomainError("x must be > 0")
    wp = max(50, digits) + 15
    with mp.workdps(wp):
        n_terms = _series_terms(nu, x)
        _, der = _norm_series(kind, nu, x, n_terms)
        return OracleValue(re=der.real, im=der.imag, digits=digits)


@_locked
def truncated_pair_hp(kind: Kind, nu: float, x: float, n_terms: int, digits: int = 50):
    """The exact N-step partial sums of both basis functions.

    Runs the coefficient recurrence and the series fold in extended
    precision, so comparing against the full oracle isolates pure
    truncation error (double-precision round-off would otherwise swamp
    tail bounds that sit far below 1e-16).

    Returns (cos_val, sin_val, d_cos, d_sin) as mpf values.
    """
    modified = _is_modified(kind)
    if x <= 0.0:
        raise DomainError("x must be > 0")
    wp = max(50, digits) + 10
    with mp.workdps(wp):
        nu_m = mpf(nu)
        w = (mpf(x) / 2) ** 2
        sums = []
        for a0, b0 in ((mpf(1), mpf(0)), (mpf(0), mpf(1))):
            a, b = a0, b0
            p, q = a0, b0
            dp = mpf(0)
            dq = mpf(0)
            t = mpf(1)
            for n in range(1, n_terms + 1):
                denom = n * (n * n + nu_m * nu_m)
                if modified:
                    a, b = (n * a - nu_m * b) / denom, (nu_m * a + n * b) / denom
                else:
                    a, b = -(n * a - nu_m * b) / denom, -(nu_m * a + n * b) / denom
                t = t * w
                p += a * t
                q += b * t
                dp += n * a * t
                dq += n * b * t
            sums.append((p, q, dp, dq))
        lnx = mp.log(mpf(x))
        c = mp.cos(nu_m * lnx)
        s = mp.sin(nu_m * lnx)
        (p1, q1, dp1, dq1), (p0, q0, dp0, dq0) = sums
        cos_val = p1 * c + q1 * s
        sin_val = p0 * c + q0 * s
        d_cos = (2 / mpf(x)) * (dp1 * c + dq1 * s) + (nu_m / mpf(x)) * (q1 * c - p1 * s)
        d_sin = (2 / mpf(x)) * (dp0 * c + dq0 * s) + (nu_m / mpf(x)) * (q0 * c - p0 * s)
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
    """
    if x <= 0.0:
        raise DomainError("x must be > 0")
    if x < 0.05:
        raise ToleranceError("kl_macdonald is declared unreliable for x < 0.05")
    t_abs = abs(tau)
    wp = 2 * digits + 14
    with mp.workdps(wp):
        xm = mpf(x)
        tm = mpf(t_abs)
        T = mp.acosh(1 + 25 * mp.log(10) / xm)
        width = mp.pi / (4 * max(t_abs, 1.0))
        n_panels = int(mp.ceil(T / width))
        edges = [T * i / n_panels for i in range(n_panels + 1)]

        def f(t):
            return mp.exp(-xm * mp.cosh(t)) * mp.cos(tm * t)

        tol = mpf(10) ** (-(digits + 4)) * mp.exp(-xm) / n_panels
        total = mpf(0)
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += _romberg(f, lo, hi, tol)
        return OracleValue(re=total, im=mpf(0), digits=digits)


@_locked
def hp_bessel_j_int(n: int, x: float, digits: int = 50) -> OracleValue:
    """Classical integer-order J_n(x), for real-order cross checks."""
    if n < 0:
        raise DomainError("order must be >= 0")
    wp = digits + 10
    with mp.workdps(wp):
        w = (mpf(x) / 2) ** 2
        term = (mpf(x) / 2) ** n / mp.factorial(n)
        total = term
        for k in range(1, 5 * digits + 200):
            term = -term * w / (k * (k + n))
            total += term
            if abs(term) < abs(total) * mpf(10) ** (-(wp + 2)):
                break
        return OracleValue(re=total, im=mpf(0), digits=digits)
