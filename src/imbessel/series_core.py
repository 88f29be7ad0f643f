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

All recurrence denominators are n (n^2 + nu^2) >= n^3 >= 1, so nu = 0
needs no special casing anywhere.  Every function here is pure and
thread-safe; tables are immutable once built.
"""

import enum
import math
import sys
from dataclasses import dataclass

from . import _backend
from .error_bounds import MAX_TERMS, derivative_tail_bound, required_terms, tail_bound
from .errors import DomainError, ToleranceError

_EPS = sys.float_info.epsilon


class Kind(enum.Enum):
    """Which of the two equations a table or evaluation refers to."""

    OSCILLATORY = "oscillatory"
    MODIFIED = "modified"


@dataclass(frozen=True)
class CoeffPair:
    """Coefficient pair (a, b) at half-index n of one recurrence sequence."""

    a: float
    b: float
    n: int


@dataclass(frozen=True)
class CoeffTable:
    """Seed plus the coefficient pairs for n = 0..N of one sequence."""

    kind: Kind
    nu: float
    seed: tuple
    entries: tuple


@dataclass(frozen=True)
class PairResult:
    """Evaluated basis pair with derivatives and guaranteed error bounds.

    `tail_bound` covers cos_part and sin_part: the a-priori truncation
    bound for `terms_used` steps plus a round-off (cancellation)
    allowance max_partial * eps for the forward summation.
    `d_tail_bound` is the analogous (larger) bound for d_cos and d_sin;
    the derivative series carries an extra n * 2/x weight per term, so a
    single bound cannot serve both.
    """

    cos_part: float
    sin_part: float
    d_cos: float
    d_sin: float
    terms_used: int
    tail_bound: float
    d_tail_bound: float


def _check_nu(nu):
    if not math.isfinite(nu):
        raise DomainError(f"nu must be finite, got {nu!r}")


def _check_x(x):
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x <= 0.0:
        raise DomainError("x must be > 0")


def _is_modified(kind):
    # The recurrence variant for `kind`; anything that is not a Kind is
    # refused rather than read as the oscillatory equation.
    if kind is Kind.MODIFIED:
        return True
    if kind is Kind.OSCILLATORY:
        return False
    raise DomainError(f"kind must be a Kind, got {kind!r}")


def _advance(a, b, n, nu, modified):
    # One recurrence step to half-index n; expression order matches
    # `_backend.series_sums` exactly so tables and evaluations agree bit
    # for bit.
    f = float(n)
    denom = f * (f * f + nu * nu)
    if modified:
        return (f * a - nu * b) / denom, (nu * a + f * b) / denom
    return (-(f * a - nu * b)) / denom, (-(nu * a + f * b)) / denom


def advance_oscillatory(prev: CoeffPair, nu: float) -> CoeffPair:
    """Step the oscillatory-equation recurrence from half-index n to n+1.

    a' = -(n a - nu b) / (n (n^2 + nu^2)),
    b' = -(nu a + n b) / (n (n^2 + nu^2)),   with n = prev.n + 1.
    """
    _check_nu(nu)
    if prev.n < 0:
        raise DomainError(f"half-index must be >= 0, got {prev.n}")
    n = prev.n + 1
    a, b = _advance(prev.a, prev.b, n, nu, modified=False)
    return CoeffPair(a=a, b=b, n=n)


def advance_modified(prev: CoeffPair, nu: float) -> CoeffPair:
    """Step the modified-equation recurrence; signs flip relative to the
    oscillatory case (the series argument rotates by a quarter turn).

    a' = (n a - nu b) / (n (n^2 + nu^2)),
    b' = (nu a + n b) / (n (n^2 + nu^2)).
    """
    _check_nu(nu)
    if prev.n < 0:
        raise DomainError(f"half-index must be >= 0, got {prev.n}")
    n = prev.n + 1
    a, b = _advance(prev.a, prev.b, n, nu, modified=True)
    return CoeffPair(a=a, b=b, n=n)


def build_table(kind: Kind, seed, nu: float, N: int) -> CoeffTable:
    """Materialize coefficient pairs n = 0..N for one seed."""
    modified = _is_modified(kind)
    _check_nu(nu)
    a0, b0 = float(seed[0]), float(seed[1])
    if not (math.isfinite(a0) and math.isfinite(b0)):
        raise DomainError(f"seed must be finite, got {seed!r}")
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    advance = advance_modified if modified else advance_oscillatory
    entries = [CoeffPair(a=a0, b=b0, n=0)]
    for _ in range(N):
        entries.append(advance(entries[-1], nu))
    return CoeffTable(kind=kind, nu=nu, seed=(a0, b0), entries=tuple(entries))


def eval_pair(kind: Kind, nu: float, x: float, tol: float = 1e-12,
              terms: int | None = None) -> PairResult:
    """Evaluate the (cosine-type, sine-type) solution pair at x.

    The term count is chosen so the a-priori tail bound meets `tol`
    (pass `terms` to force a count instead, e.g. for bound studies; the
    reported bounds then refer to that count).  Derivatives come from the
    term-differentiated series: no numerical differentiation is involved.

    Raises DomainError for x <= 0, a `kind` that is not a Kind, or a
    `terms` that is not an int in 1..MAX_TERMS, and ToleranceError
    when `tol` lies below the double-precision round-off floor at this
    point or a value overflows the double range; large arguments
    (oscillatory x over roughly 20) stay computable, but the bound then
    carries the cancellation allowance honestly.
    """
    modified = _is_modified(kind)
    _check_nu(nu)
    _check_x(x)
    if not (tol > 0.0):
        raise DomainError(f"tol must be > 0, got {tol}")
    if terms is not None:
        if isinstance(terms, bool) or not isinstance(terms, int):
            raise DomainError(f"terms must be an int, got {terms!r}")
        if not 1 <= terms <= MAX_TERMS:
            raise DomainError(f"terms must be in 1..{MAX_TERMS}, got {terms}")
        n_terms = terms
    else:
        n_terms = required_terms(nu, x, tol)

    half = 0.5 * x
    w = half * half
    # One pass for the (1, 0) seed; the (0, 1) sums are its quarter turn
    # (-q, p, -dq, dp).  `0.0 - q` keeps q = +0.0 (nu = 0) at +0.0.
    p, q, dp, dq, m = _backend.series_sums(modified, 1.0, 0.0, nu, w, n_terms)

    lnx = math.log(x)
    c = math.cos(nu * lnx)
    s = math.sin(nu * lnx)

    cos_part = p * c + q * s
    sin_part = (0.0 - q) * c + p * s
    d_cos = (2.0 / x) * (dp * c + dq * s) + (nu / x) * (q * c - p * s)
    d_sin = (2.0 / x) * ((0.0 - dq) * c + dp * s) + (nu / x) * (p * c - (0.0 - q) * s)
    if not (math.isfinite(cos_part) and math.isfinite(sin_part)
            and math.isfinite(d_cos) and math.isfinite(d_sin)):
        raise ToleranceError(f"values overflow the double range at nu={nu}, x={x}")

    cancel = m * _EPS
    if terms is None and tol < cancel:
        raise ToleranceError(
            f"tol={tol:g} below the round-off floor {cancel:.3g} at nu={nu}, x={x}"
        )
    eps_n = tail_bound(nu, x, n_terms)
    d_cancel = cancel * (2.0 * n_terms + 2.0 + abs(nu)) / x
    return PairResult(
        cos_part=cos_part,
        sin_part=sin_part,
        d_cos=d_cos,
        d_sin=d_sin,
        terms_used=n_terms,
        tail_bound=eps_n + cancel,
        d_tail_bound=derivative_tail_bound(nu, x, n_terms) + d_cancel,
    )


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
    _check_nu(nu)
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
