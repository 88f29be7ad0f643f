"""The extended-precision gold pair that validates the double-precision
series.

The gold pair `oracle_pair_hp` (and its derivative) is the normalized
series written as a confluent hypergeometric function,
x^(i nu) 0F1(; 1 + i nu; -+x^2/4), summed in fixed point below x = 22.63
from per-order weights prod_{j<=k} j / (j + i nu) times (x/2)^(2k) /
(k!)^2, with more bits where it cancels, and past it by mpmath's
`hyp0f1`, which takes its asymptotic expansion, or else its series.
There it raises ToleranceError where neither can finish (see
`_hyp0f1`), before `hyp0f1` runs where that is known: |nu| >= 3 000 with
x from ~180 sqrt(|nu|) up to ~1e3 |nu|, and most x past that for the
oscillatory kind at |nu| >= 1e4; every |nu| <= 100 answers.  The phase
x^(i nu) is a rotation by the angle nu ln x, formed with guard bits that
grow with |nu|.  One function, `_gold_grid`, evaluates it over a grid of
orders and x, one x at a time: z, the power terms (x/2)^(2k) / (k!)^2,
where the sums stop, and ln x are decided once per x for all the orders,
and each part of an order's sum is one integer dot product of its
weights with those terms, rounded once; the public pair functions are its
one-point calls.  Every returned value declares the number of decimal
digits it guarantees (`digits`, an int in 1..MAX_DIGITS), relative to
its modulus |re + i im|: a part far smaller than the modulus (the
sine-type part at |nu| below ~1e-60) may have none.  Doubling the
working precision must not move any result past that declaration
(tests enforce this).  The independent second code for the gold pair
that the tests compare it with is in `tests/references.py`.
The working precision is an argument of every call: the oracle never
reads or sets mpmath's global precision and takes no lock, so mpmath
code on other threads and the oracle do not disturb each other.
`hyp0f1` runs on an instance of a private mpmath context class, one
per thread, built at that thread's first x past 22.63: mpmath's
constructor sets its special functions on that class, not on the one
`mp` shares.  That call takes ~1.7 ms longer than the next (the context
and the series summers mpmath compiles into it), and the context holds
~50-80 KB.

Cost, measured on one core of a 2-vCPU VM (Python 3.11.7): the gold
pair at 50 digits takes ~0.031-0.034 ms per point in a grid (the
`compare` benchmark's grids, 4 orders |nu| < 3.5 times 12 x <= 10,
least and median time over 5 seeds and both kinds; 0.074-0.085 ms one
point at a time), about 60% of it in the sums, a quarter in the
rotation's cos and sin and the rest in ln x, the angle and the one
rounding of each part; 0.9-1.0 ms through `hyp0f1` (the same orders,
x from 22.63 to 30), and 0.1-1.3 ms at large x or order (x up to 700,
|nu| up to 100); up to 0.8 s (1.3 s for the derivative) next to the
refused region, where mpmath's series peaks near its 8 000th term.
"""

import math
import threading
from operator import mul
from typing import NamedTuple

from mpmath import MPContext, mp, mpf
from mpmath.libmp import (dps_to_prec, from_float, from_man_exp, fzero, mpf_cos_sin, mpf_div,
                          mpf_log, mpf_mul, mpf_neg, mpf_pos, mpf_shift, round_nearest)
from mpmath.libmp.libelefun import cos_sin_basecase, mod_pi2
from mpmath.libmp.libhyper import NoConvergence

from .errors import ToleranceError, check_count, check_positive, check_real
from .series_core import Kind, _is_modified

#: The most decimal digits the gold pair accepts.
MAX_DIGITS = 200
# the furthest term at which mpmath's 0F1 series may peak (`_hyp0f1`)
_PEAK_TERMS = 8000

# each thread's own mpmath context for `_hyp0f1`, built at its first
# call there: mpmath's global context `mp` is shared with every thread
_THREAD = threading.local()


class _Context(MPContext):
    """`_hyp0f1`'s per-thread contexts: mpmath's constructor sets its
    special functions on the instance's class, so on this one, not on the
    class that `mp` shares."""


class OracleValue(NamedTuple):
    """Extended-precision complex value with its guaranteed digit count.

    `digits` is relative to the modulus |re + i im|, not to each part.
    A named tuple: fields by name or index, and assignment raises
    AttributeError.
    """

    re: mpf
    im: mpf
    digits: int

    def as_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


def _series_0f1(weights, powers, nu: float, z, prec: int, derivative: bool):
    # S = sum_k d_k u_k = 0F1(; 1 + i nu; z) with u_k = z^k / (k!)^2, or
    # i nu S + 2 D, D = sum_k k d_k u_k = z S'(z), when `derivative`, as
    # exact parts (re, im, e), two integers times 2^e.  `powers` keeps,
    # per working precision wp, the u_0..u_K of z at wp bits (rounded
    # down), formed once for all of z's orders: past k^2 > 2|z| a power
    # is at most half the one before, so K is the first such k with
    # |u_K| below 2^(25-wp) (2^-(prec+25) at the first guard, as in
    # mpmath), and as |d_k| <= 1 every order's tail after K is below
    # that too.  `weights` keeps, per wp, the order's Re d_k and Im d_k
    # as two lists, d_k = d_(k-1) k den (k den - i num) / (k^2 den^2 +
    # num^2) (nu = num / den), integers at wp bits rounded to nearest:
    # |d_k| <= 1 with an absolute error below k/2 units.  They are grown
    # to len(u) first, as a dot product stops at its shorter list; each
    # part is then one integer dot product with the powers, rounded down
    # once.  The weights' errors being absolute, the bits lost are
    # measured on max |u_k| (times |nu| + 2K for the derivative), not on
    # the terms; past the guard less 20 bits, the sums rerun 50 bits
    # above them.  A result of a few units (the derivative at tiny z and
    # |nu|) reads 0: it is then near i nu + 2 z, of modulus at least
    # about 2 |z|, so the rerun is sized by mag(z) instead, and takes its
    # bits at once.
    num, den = nu.as_integer_ratio()
    nn = num * num
    sign, man, exp, bc = z
    z_man, z_shift = (man << exp, 0) if exp > 0 else (man, -exp)
    lim, peak = 2 * z_man >> z_shift, z_man >> z_shift
    z_man = -z_man if sign else z_man
    guard, stop = 50, 1 << 25
    while True:
        wp = prec + guard
        us = powers.get(wp)
        if us is None:
            us = powers[wp] = [1 << wp]
            k = 0
            while True:
                k += 1
                u = (us[-1] * z_man >> z_shift) // (k * k)
                us.append(u)
                if k * k > lim and -stop < u < stop:
                    break
        n = len(us)
        w_re, w_im = weights.setdefault(wp, ([1 << wp], [0]))
        re, im = w_re[-1], w_im[-1]
        for kd in range(len(w_re) * den, n * den, den):
            q = kd * kd + nn
            h = q >> 1
            re, im = (kd * (re * kd + im * num) + h) // q, (kd * (im * kd - re * num) + h) // q
            w_re.append(re)
            w_im.append(im)
        if derivative:  # in units den times finer, den a power of 2
            t_re, t_im = list(map(mul, w_re, us)), list(map(mul, w_im, us))
            s_re, s_im = sum(t_re) >> wp, sum(t_im) >> wp
            d_re, d_im = sum(map(mul, range(n), t_re)) >> wp, sum(map(mul, range(n), t_im)) >> wp
            e, scale = -wp - den.bit_length() + 1, (int(abs(nu)) + 2 * (n - 1)).bit_length()
            s_re, s_im = 2 * den * d_re - num * s_im, 2 * den * d_im + num * s_re
        else:
            s_re, s_im = sum(map(mul, w_re, us)) >> wp, sum(map(mul, w_im, us)) >> wp
            e, scale = -wp, 0
        size = max(s_re.bit_length() + e if s_re else -wp, s_im.bit_length() + e if s_im else -wp)
        # max |u_k| is u_k at the largest k with k^2 <= |z|
        lost = us[math.isqrt(peak)].bit_length() - wp + scale - size
        if lost <= guard - 20:
            return s_re, s_im, e
        if size <= 32 - wp:  # reads 0: size the rerun by z
            lost += max(0, size - exp - bc)
        guard = lost + 50


def _fixed(a, b):
    # raw mpf values a and b as integers times one 2^e: (A, B, e), e the
    # least exponent of a nonzero part (a zero's exponent, 0, would shift
    # a huge value by all of its own)
    e = min([v[2] for v in (a, b) if v[1]] or [0])
    a_man, b_man = (v[1] << v[2] - e if v[1] else 0 for v in (a, b))
    return -a_man if a[0] else a_man, -b_man if b[0] else b_man, e


def _cos_sin(nu_f, ln_x, wp: int, prec: int):
    # cos and sin of the angle nu ln x, its factors and product rounded to
    # wp bits, as integers times one 2^e: the steps of mpf_cos_sin at
    # prec + 10 bits, without its rounding of each to prec.  A zero angle,
    # and one below 2^-(prec + 10), where the reduction would run at
    # prec + 10 - mag bits, take mpf_cos_sin itself
    angle = mpf_mul(nu_f, mpf_pos(ln_x, wp, round_nearest), wp, round_nearest)
    sign, man, exp, bc = angle
    if not man or bc + exp < -(prec + 10):
        return _fixed(*mpf_cos_sin(angle, prec, round_nearest))
    t, n, wp = mod_pi2(man, exp, bc + exp, prec + 10)
    c, s = cos_sin_basecase(t, wp)
    c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[n & 3]
    return c, -s if sign else s, -wp


def _hyp0f1(nu: float, x: float, z_f, derivative: bool, prec: int):
    # 0F1(; b; z) (i nu 0F1 + 2 z 0F1'(z) when `derivative`) past
    # mag(z) = 8 by mpmath's hyp0f1, as exact parts (re, im, e), at the
    # working precision `prec`, on this thread's own mpmath context.
    # hyp0f1 sums the asymptotic 2F0 first, with at most
    # P = prec + 22 + mag(z) // 2 terms (its own and hypercomb's guard
    # bits), whose ratio is ((k + 1/2)^2 + nu^2) / (2 x (k + 1)): where
    # nu^2 > 2 x (P + 42) every term rises, so it cannot converge and is
    # skipped.  Then it sums the 0F1 series, whose terms rise while
    # |z| > k |b + k - 1|; where they still rise at k = _PEAK_TERMS it is
    # cut at its first term, as its cost grows with the square of that
    # peak (~1 s per call at 8 000 terms, 4-8 s to fail at ~25 000).
    # Where neither can run, the pair is refused before hyp0f1 is called;
    # mpmath's own failures are refusals too.  Both tests are in
    # logarithms: nu^2 and x^2 may overflow.
    v = abs(nu)
    log_x = math.log(x)
    mag = z_f[2] + z_f[3]
    no_2f0 = v > 0.0 and 2.0 * math.log(v) > math.log(2.0 * (prec + 64 + mag // 2)) + log_x
    no_0f1 = 2.0 * log_x > math.log(4.0 * _PEAK_TERMS) + math.log(math.hypot(_PEAK_TERMS, v))
    if no_2f0 and no_0f1:
        raise ToleranceError(f"the gold pair is out of reach at nu={nu}, x={x}")
    caps = {"force_series": no_2f0}
    if no_0f1:
        caps["maxterms"] = 0
    ctx = getattr(_THREAD, "ctx", None)
    if ctx is None:
        ctx = _THREAD.ctx = _Context()
    ctx.prec = prec
    z, b = ctx.make_mpf(z_f), ctx.mpc(1, nu)
    try:
        f = ctx.hyp0f1(b, z, **caps)
        if derivative:
            f = ctx.mpc(0, nu) * f + 2 * z * ctx.hyp0f1(b + 1, z, **caps) / b
    except (NoConvergence, ValueError) as exc:
        raise ToleranceError(f"the gold pair does not converge at nu={nu}, x={x}") from exc
    return _fixed(*((f._mpf_, fzero) if isinstance(f, ctx.mpf) else f._mpc_))


def _double(man, ex) -> float:
    # man 2^ex rounded once to the nearest double, ties to even
    man = int(man)  # a gmpy2 mpz divides into an mpfr
    if man.bit_length() + ex < -1074:  # below half the least subnormal
        return -0.0 if man < 0 else 0.0
    try:  # a shift past 2^1024 overflows whatever it shifts
        return man / (1 << -ex) if ex < 0 else float(man << min(ex, 1024))
    except OverflowError:  # rounds to 2^1024 or more
        return -math.inf if man < 0 else math.inf


def _gold_grid(kind: Kind, nus, xs, digits: int, derivative=False, hp=False):
    # The gold pair (its d/dx when `derivative`) of each order of `nus` at
    # each x of `xs`, one row per order: doubles (cos_part, sin_part), or
    # OracleValue when `hp`.  The pair is x^(i nu) 0F1(; b; z) with
    # b = 1 + i nu and z = -x^2/4 (+x^2/4 when modified), DLMF 10.16.9
    # with 10.39.9, and z is exact; its derivative x^(i nu) (i nu 0F1 +
    # 2 z 0F1'(z)) / x.  `_series_0f1` sums both where mag(z) < 8
    # (x < 22.63), as mpmath's 0F1 would, and mpmath (`_hyp0f1`)
    # the rest.  The derivative's two terms cannot cancel to zero: the
    # first is 0 at nu = 0, and otherwise the real solutions' Wronskian
    # nu / x keeps the complex derivative away from 0.  Measured, they
    # cancel by a factor ~|nu|^(1/3), at the modified kind's turning
    # point x ~ |nu| (23 at |nu| = 1e4), far inside the 15 guard digits.
    # x^(i nu) is the rotation by nu ln x.  Its cos and sin carry the
    # angle's absolute error, so the angle is formed at p = prec + mag(nu)
    # + 12 bits, |nu| < 2^mag(nu).  mpf_log gives ln x at q = prec + 12 +
    # max(mag(nu), 8) >= p bits, within a unit of its last place, and it
    # is rounded to p bits (exactly where q = p): together a relative
    # error of at most 2^(1-p).  The product nu ln x, rounded to p bits,
    # adds 2^-p, so the angle is off by under 3 |nu ln x| 2^-p; as |ln x|
    # < 745 < 2^10 for every positive double x, |nu ln x| < 2^(mag(nu) +
    # 10), and that is under 3/4 2^-prec.  `_cos_sin` gives cos and sin as
    # integers at 2^-wp, wp >= prec + 10: mod_pi2 reduces the angle by
    # multiples of pi/2 to within a unit of 2^-wp (it keeps 20 or more
    # bits against cancellation) and cos_sin_basecase is off by a few
    # units of 2^-wp, under 2^-prec together.  An angle of 0 or below
    # 2^-(prec + 10) takes mpf_cos_sin, whose cos 1 and sin the angle,
    # rounded to prec bits, are off by less than 2^-prec too.  So the
    # rotation moves the pair by less than 2^(1-prec) of its modulus
    # before the last rounding.  The 0F1 parts times cos and sin are
    # summed exactly in integers and rounded once: to a double, or to
    # prec bits for an OracleValue.  The loop is x-major:
    # z, its power terms, the term the sums stop at and ln x depend on x
    # alone, so each x forms them once for all the orders and drops them
    # when it is done; an order's two weight lists are kept across the x
    # and grown to each x's terms.  q depends on the order alone, so an
    # order's ln x is the one its one-point call forms, bit for bit; each
    # x forms it once per distinct q, one mpf_log for every |nu| < 256.
    # prec, the bits of max(50, digits) + 15 decimal digits, is passed to
    # every call that rounds: nothing reads mpmath's global precision.
    nus = [check_real(nu, "nu") for nu in nus]
    check_count(digits, "digits", MAX_DIGITS)
    xs = [check_positive(x, "x") for x in xs]
    modified = _is_modified(kind)
    nu_fs = [from_float(nu) for nu in nus]
    mags = [max(0, nu_f[2] + nu_f[3]) for nu_f in nu_fs]
    weights = [{} for _ in nus]
    rows = [[] for _ in nus]
    prec = dps_to_prec(max(50, digits) + 15)
    ln_precs = [prec + 12 + max(mag, 8) for mag in mags]
    distinct = set(ln_precs)
    for x in xs:
        x_f = from_float(x)
        z_f = mpf_shift(mpf_mul(x_f, x_f), -2)
        z_f = z_f if modified else mpf_neg(z_f)
        ln_xs = {q: mpf_log(x_f, q, round_nearest) for q in distinct}
        powers = {}
        for nu, nu_f, mag, ln_prec, ws, row in zip(nus, nu_fs, mags, ln_precs, weights, rows):
            if z_f[2] + z_f[3] < 8:
                f_re, f_im, e = _series_0f1(ws, powers, nu, z_f, prec, derivative)
            else:
                f_re, f_im, e = _hyp0f1(nu, x, z_f, derivative, prec)
            if derivative:
                f_re, f_im, e = _fixed(*(mpf_div(from_man_exp(v, e), x_f, prec, round_nearest)
                                         for v in (f_re, f_im)))
            c, s, ce = _cos_sin(nu_f, ln_xs[ln_prec], prec + mag + 12, prec)
            re, im, e = f_re * c - f_im * s, f_re * s + f_im * c, e + ce
            if hp:
                re, im = (mp.make_mpf(from_man_exp(v, e, prec, round_nearest)) for v in (re, im))
            row.append(OracleValue(re, im, digits) if hp else (_double(re, e), _double(im, e)))
    return rows


def oracle_pair_hp(kind: Kind, nu: float, x: float, digits: int = 50) -> OracleValue:
    """Gold value of (cos_sol + i sin_sol) at full oracle precision.

    The pair x^(i nu) sum_n c_n (x/2)^(2n) is x^(i nu) 0F1(; 1 + i nu;
    -+x^2/4), summed at `max(50, digits) + 15` working digits (mpmath's
    `hyp0f1` from x = 22.63 on).  It equals
    Gamma(1 + i nu) 2^(i nu) J_{i nu}(x) (I_{i nu} when modified); the
    tests check that identity against the independent references
    `hp_bessel_imag` and `hp_gamma` in `tests/references.py`.
    """
    return _gold_grid(kind, (nu,), (x,), digits, hp=True)[0][0]


def oracle_pair(kind: Kind, nu: float, x: float, digits: int = 50):
    """Gold (cos_part, sin_part) rounded to double precision."""
    return _gold_grid(kind, (nu,), (x,), digits)[0][0]


def oracle_pair_derivs_hp(kind: Kind, nu: float, x: float, digits: int = 50) -> OracleValue:
    """d/dx of the gold pair, x^(i nu) (i nu 0F1 + 2 z 0F1'(z)) / x."""
    return _gold_grid(kind, (nu,), (x,), digits, derivative=True, hp=True)[0][0]
