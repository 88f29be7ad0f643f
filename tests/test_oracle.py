"""Tests for the extended-precision gold pair (`imbessel.oracle`) and
the hand-written references it is checked against (`references.py`).

The identity suite (recurrence, reflection) is the contract for the
Gamma reference; the Bessel and Macdonald references are additionally
cross-checked against mpmath's independent hypergeometric machinery,
and the gold pair against Gamma times the Bessel reference.
"""

import hashlib
import io
import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest
from mpmath import mp, mpc, mpf
import mpmath

import imbessel
from imbessel import (
    DomainError,
    Kind,
    ToleranceError,
    eval_pair,
    oracle_pair,
    oracle_pair_derivs_hp,
    oracle_pair_hp,
)
from imbessel.oracle import OracleValue, _double, _gold_grid, _series_0f1
from references import hp_bessel_imag, hp_gamma, kl_macdonald, truncated_pair_hp

OSC = Kind.OSCILLATORY
MOD = Kind.MODIFIED


def _as_mpc(v):
    return mpc(v.re, v.im)


def _rel_err(got, want):
    with mp.workdps(80):
        return float(abs(got - want) / (abs(want) if abs(want) != 0 else mpf(1)))


# Points where cancellation (large x) or the order (large |nu|) defeats
# a fixed-precision, a-priori-sized series.
LARGE_POINTS = [
    (OSC, 0.5, 60.0), (OSC, 1.5, 100.0), (OSC, 3.0, 300.0), (OSC, 60.0, 30.0),
    (MOD, 2.0, 100.0), (MOD, 0.5, 700.0), (MOD, 100.0, 3.0),
]


# -------------------------------------------------------------------- gamma

def test_gamma_factorial_values():
    assert _rel_err(_as_mpc(hp_gamma(1.0, 0.0)), mpf(1)) < 1e-45
    assert _rel_err(_as_mpc(hp_gamma(5.0, 0.0)), mpf(24)) < 1e-45


def test_gamma_recurrence_identity_grid():
    # Gamma(z + 1) = z Gamma(z) to at least 28 digits; real parts are
    # dyadic so the +1 shift is exact in double precision
    with mp.workdps(70):
        for z_re, z_im in ((0.25, 0.7), (-1.25, 2.5), (4.0, -0.3), (0.0, 0.7)):
            g = _as_mpc(hp_gamma(z_re, z_im))
            g1 = _as_mpc(hp_gamma(z_re + 1.0, z_im))
            assert _rel_err(g1, mpc(z_re, z_im) * g) < 1e-28


def test_gamma_argument_shift_two_steps():
    # Gamma(i nu + 2) = Gamma(i nu) * (i nu)(i nu + 1) at nu = 0.7
    with mp.workdps(70):
        z = mpc(0, 0.7)
        g = _as_mpc(hp_gamma(0.0, 0.7))
        g2 = _as_mpc(hp_gamma(2.0, 0.7))
        assert _rel_err(g2, g * z * (z + 1)) < 1e-28


def test_gamma_reflection_identity():
    # Gamma(i nu) Gamma(1 - i nu) = pi / sin(pi i nu)
    with mp.workdps(70):
        for nu in (0.3, 1.0, 2.5):
            left = _as_mpc(hp_gamma(0.0, nu)) * _as_mpc(hp_gamma(1.0, -nu))
            right = mp.pi / mp.sin(mp.pi * mpc(0, nu))
            assert _rel_err(left, right) < 1e-28


def test_gamma_modulus_one_plus_i():
    with mp.workdps(70):
        g = _as_mpc(hp_gamma(1.0, 1.0))
        want = mp.pi / mp.sinh(mp.pi)
        assert _rel_err(abs(g) ** 2, want) < 1e-40
        assert float(abs(g) ** 2) == pytest.approx(0.2720290549821331, rel=1e-15)


def test_gamma_against_mpmath():
    with mp.workdps(70):
        for z_re, z_im in ((0.5, 0.0), (2.3, -1.1), (-0.7, 0.4), (10.0, 3.0)):
            got = _as_mpc(hp_gamma(z_re, z_im))
            want = mpmath.gamma(mpc(z_re, z_im))
            assert _rel_err(got, want) < 1e-45


def test_gamma_pole_rejected():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(DomainError):
            hp_gamma(z, 0.0)


def test_gamma_precision_honesty():
    lo = hp_gamma(0.0, 1.3, digits=50)
    hi = hp_gamma(0.0, 1.3, digits=100)
    with mp.workdps(120):
        assert abs(_as_mpc(lo) - _as_mpc(hi)) < abs(_as_mpc(hi)) * mpf(10) ** -50


# ------------------------------------------------------------------- bessel

def test_bessel_zero_order_is_j0_and_i0():
    with mp.workdps(60):
        j = hp_bessel_imag(0.0, 1.0, OSC)
        assert _rel_err(_as_mpc(j), mpmath.besselj(0, 1)) < 1e-45
        assert abs(float(j.im)) < 1e-45
        i = hp_bessel_imag(0.0, 1.0, MOD)
        assert _rel_err(_as_mpc(i), mpmath.besseli(0, 1)) < 1e-45


@pytest.mark.parametrize("nu,x", [(0.5, 0.3), (1.0, 1.0), (2.0, 2.0), (1.5, 5.0)])
def test_bessel_against_mpmath(nu, x):
    with mp.workdps(60):
        j = _as_mpc(hp_bessel_imag(nu, x, OSC))
        assert _rel_err(j, mpmath.besselj(mpc(0, nu), x)) < 1e-40
        i = _as_mpc(hp_bessel_imag(nu, x, MOD))
        assert _rel_err(i, mpmath.besseli(mpc(0, nu), x)) < 1e-40


def test_bessel_conjugate_symmetry():
    with mp.workdps(60):
        for kind in (OSC, MOD):
            plus = _as_mpc(hp_bessel_imag(0.8, 1.7, kind))
            minus = _as_mpc(hp_bessel_imag(-0.8, 1.7, kind))
            assert _rel_err(minus, mpmath.conj(plus)) < 1e-45


def test_bessel_precision_honesty():
    lo = hp_bessel_imag(1.2, 1.5, OSC, digits=50)
    hi = hp_bessel_imag(1.2, 1.5, OSC, digits=100)
    with mp.workdps(120):
        assert abs(_as_mpc(lo) - _as_mpc(hi)) < abs(_as_mpc(hi)) * mpf(10) ** -50


@pytest.mark.parametrize("kind,nu,x", [
    (OSC, 0.5, 60.0), (OSC, 1.5, 100.0), (OSC, 20.0, 10.0), (OSC, 25.0, 1.0), (MOD, 40.0, 5.0),
])
def test_bessel_declared_digits_at_large_x_and_order(kind, nu, x):
    # cancellation reruns the series with the digits it lost; the stop is
    # a posteriori, so large orders are summed rather than refused
    lo = hp_bessel_imag(nu, x, kind, digits=50)
    hi = hp_bessel_imag(nu, x, kind, digits=100)
    with mp.workdps(300):
        lo, hi = _as_mpc(lo), _as_mpc(hi)
        order = mpc(0, nu)
        want = mpmath.besseli(order, x) if kind is MOD else mpmath.besselj(order, x)
        assert abs(lo - hi) < abs(hi) * mpf(10) ** -50
        assert abs(lo - want) < abs(want) * mpf(10) ** -50


def test_bessel_domain():
    with pytest.raises(DomainError):
        hp_bessel_imag(1.0, 0.0, OSC)


# -------------------------------------------------------------- oracle pair

def test_oracle_pair_zero_order():
    cos_v, sin_v = oracle_pair(OSC, 0.0, 1.0)
    assert cos_v == pytest.approx(0.7651976865579666, abs=2e-16)
    assert sin_v == 0.0
    cos_v, sin_v = oracle_pair(MOD, 0.0, 1.0)
    assert cos_v == pytest.approx(1.2660658777520084, abs=2e-16)
    assert sin_v == 0.0


def test_oracle_pair_small_argument_is_log_trig():
    x = 1e-8
    for kind in (OSC, MOD):
        cos_v, sin_v = oracle_pair(kind, 0.7, x)
        with mp.workdps(40):
            want_c = float(mp.cos(mpf("0.7") * mp.log(mpf(x))))
            want_s = float(mp.sin(mpf("0.7") * mp.log(mpf(x))))
        assert cos_v == pytest.approx(want_c, abs=1e-14)
        assert sin_v == pytest.approx(want_s, abs=1e-14)


def test_oracle_pair_matches_series_at_unit_point():
    r = eval_pair(OSC, 1.0, 1.0, 1e-14)
    cos_v, sin_v = oracle_pair(OSC, 1.0, 1.0)
    assert abs(r.cos_part - cos_v) <= r.tail_bound + 1e-13
    assert abs(r.sin_part - sin_v) <= r.tail_bound + 1e-13


def test_oracle_pair_is_gamma_normalized_bessel():
    """The normalization: the pair is Gamma(1 + i nu) 2^(i nu) J_{i nu}(x)
    (I_{i nu} when modified).

    mpmath's `besselj` and `besseli` sum the series through mpmath's own
    `hyp0f1`, which the oracle calls only from |z| = x^2/4 = 128 on, so
    at these x this checks the Gamma and 2^(i nu) factors, the argument
    scaling and the oracle's fixed-point summation; the two tests below
    compare the pair with code that shares nothing with mpmath's
    Bessel functions.
    """
    with mp.workdps(60):
        for nu, x in ((0.5, 1.0), (1.5, 2.0)):
            want = (
                mpmath.gamma(mpc(1, nu))
                * mpmath.power(2, mpc(0, nu))
                * mpmath.besselj(mpc(0, nu), x)
            )
            got = oracle_pair_hp(OSC, nu, x)
            assert _rel_err(_as_mpc(got), want) < 1e-40
            want = (
                mpmath.gamma(mpc(1, nu))
                * mpmath.power(2, mpc(0, nu))
                * mpmath.besseli(mpc(0, nu), x)
            )
            got = oracle_pair_hp(MOD, nu, x)
            assert _rel_err(_as_mpc(got), want) < 1e-40


def test_oracle_pair_is_gamma_times_hp_bessel():
    # oracle_pair_hp sums 0F1 from per-order weights; hp_bessel_imag sums
    # the defining series and divides by Gamma(1 + i nu) 2^(i nu), so two
    # independent codes must agree far below the declared 50 digits
    with mp.workdps(70):
        for kind in (OSC, MOD):
            for nu, x in ((0.0, 0.8), (-1.3, 0.4), (0.5, 1.0), (2.5, 3.0)):
                gamma = _as_mpc(hp_gamma(1.0, nu))
                want = gamma * mpmath.power(2, mpc(0, nu)) * _as_mpc(hp_bessel_imag(nu, x, kind))
                got = _as_mpc(oracle_pair_hp(kind, nu, x))
                assert _rel_err(got, want) < 1e-45


@pytest.mark.parametrize("kind,nu,x", LARGE_POINTS + [(OSC, 20.0, 10.0), (OSC, 25.0, 1.0)])
def test_oracle_pair_matches_explicit_sum_at_large_x_and_order(kind, nu, x):
    bessel = hp_bessel_imag(nu, x, kind, digits=60)
    gamma = hp_gamma(1.0, nu, digits=60)
    got = oracle_pair_hp(kind, nu, x)
    with mp.workdps(80):
        want = _as_mpc(gamma) * mpmath.power(2, mpc(0, nu)) * _as_mpc(bessel)
        got = _as_mpc(got)
        assert abs(got - want) < abs(want) * mpf(10) ** -50


@pytest.mark.parametrize("kind,nu,x", LARGE_POINTS)
def test_oracle_pair_precision_honesty(kind, nu, x):
    for fn in (oracle_pair_hp, oracle_pair_derivs_hp):
        lo = fn(kind, nu, x, digits=50)
        hi = fn(kind, nu, x, digits=100)
        with mp.workdps(120):
            lo, hi = _as_mpc(lo), _as_mpc(hi)
            assert abs(lo - hi) < abs(hi) * mpf(10) ** -50


@pytest.mark.parametrize("kind", [OSC, MOD])
@pytest.mark.parametrize("nu", [0.0, -0.0, -1.3, 0.5, 2.5, 7.0])
def test_oracle_derivs_match_term_differentiated_recurrence(kind, nu):
    # the 0F1 contiguous relation against the real recurrence of
    # truncated_pair_hp, differentiated term by term; 80 steps leave a
    # tail below 1e-100 at x = 12
    for x in (1e-3, 0.8, 3.0, 12.0):
        _, _, d_cos, d_sin = truncated_pair_hp(kind, nu, x, 80)
        got = oracle_pair_derivs_hp(kind, nu, x)
        with mp.workdps(80):
            scale = abs(d_cos) + abs(d_sin)
            assert abs(got.re - d_cos) <= mpf(10) ** -45 * scale
            assert abs(got.im - d_sin) <= mpf(10) ** -45 * scale


# Orders whose phase nu ln x is far above 1: an angle held to a fixed
# number of bits loses log10 |nu ln x| digits of cos and sin.
HUGE_ORDERS = [(kind, nu, x) for kind in (OSC, MOD) for nu in (1e20, 1e60, 1e150)
               for x in (0.5, 2.0)]


def _agree_to_50_digits(lo, hi):
    # lo, hi: (re, im) pairs of mpf
    with mp.workdps(250):
        lo, hi = mpc(*lo), mpc(*hi)
        return abs(lo - hi) < abs(hi) * mpf(10) ** -50


@pytest.mark.parametrize("kind,nu,x", HUGE_ORDERS)
def test_gold_pair_holds_its_digits_at_huge_order(kind, nu, x):
    # at nu = 1e60 a phase without guard bits for |nu ln x| was wrong in
    # the 7th digit, at nu = 1e150 in the first
    for fn in (oracle_pair_hp, oracle_pair_derivs_hp):
        lo, hi = fn(kind, nu, x, digits=50), fn(kind, nu, x, digits=200)
        assert _agree_to_50_digits(lo[:2], hi[:2]), fn.__name__
    lo = truncated_pair_hp(kind, nu, x, 8, digits=50)
    hi = truncated_pair_hp(kind, nu, x, 8, digits=200)
    assert _agree_to_50_digits(lo[:2], hi[:2])
    assert _agree_to_50_digits(lo[2:], hi[2:])


# ln Gamma(1 + i nu) and nu ln x are ~|nu| in size, so their exponentials
# need log10 |nu| more working digits

@pytest.mark.parametrize("kind,nu,x", HUGE_ORDERS)
def test_bessel_holds_its_digits_at_huge_order(kind, nu, x):
    lo, hi = hp_bessel_imag(nu, x, kind, digits=50), hp_bessel_imag(nu, x, kind, digits=200)
    assert _agree_to_50_digits(lo[:2], hi[:2])


@pytest.mark.parametrize("nu", [1e20, 1e60, 1e150])
def test_gamma_holds_its_digits_at_huge_order(nu):
    lo, hi = hp_gamma(1.0, nu, digits=50), hp_gamma(1.0, nu, digits=200)
    assert _agree_to_50_digits(lo[:2], hi[:2])


# x from 1e-3 to 30: from x = 22.63 on, |z| = x^2/4 >= 128 and the row
# calls mpmath's 0F1, which takes its asymptotic branch; below it the row
# sums the series itself
ROW_XS = [1e-3, 0.01, 0.3, 1.0, 2.5, 7.0, 15.0, 22.0, 22.62, 22.63, 23.0, 26.5, 30.0]


@pytest.mark.parametrize("kind", [OSC, MOD])
@pytest.mark.parametrize("nu", [0.0, -0.0, 1.5, 40.0])
def test_gold_row_is_oracle_pair_at_each_x(kind, nu):
    row = _gold_grid(kind, [nu], ROW_XS, 50)[0]
    assert row == [oracle_pair(kind, nu, x) for x in ROW_XS]
    # and the pair in plain mpmath arithmetic, x^(i nu) 0F1(; 1 + i nu;
    # -+x^2/4) at 90 digits, rounds to the same doubles
    with mp.workdps(90):
        for x, got in zip(ROW_XS, row):
            z = (mpf(x) / 2) ** 2 * (1 if kind is MOD else -1)
            v = mp.exp(mpc(0, nu) * mp.log(mpf(x))) * mp.hyp0f1(mpc(1, nu), z)
            assert got == (float(v.real), float(v.imag)), x


@pytest.mark.parametrize("kind", [OSC, MOD])
def test_gold_grid_is_its_points_bit_for_bit(kind):
    # a grid shares z, the power terms and ln x across its orders, so its
    # values, hp values and derivatives are checked against one-point
    # calls; a small order comes first, so a ln x rounded to its angle
    # precision would fail the huge orders.  Those stay below x = 22.63,
    # where mpmath's 0F1 takes seconds at such orders.  In the last grid
    # the ln x of the wider order, not rounded to the first's angle
    # precision, moves the first's oscillatory hp value by 2 units.
    grids = [([0.0, 1e60, -0.0, 1e-300, 2.5, 1e150, -2.5, 40.0], [1e-3, 0.7, 9.5, 22.62]),
             ([1.5, 0.0, -2.5, 40.0], [3.0, 22.0, 22.63, 26.5]),
             ([2.9075010946266886, -47.73176480958007], [1.761862313235363e-4])]
    for nus, xs in grids:
        _assert_grid_is_its_points(kind, nus, xs)


def _assert_grid_is_its_points(kind, nus, xs):
    grid = (_gold_grid(kind, nus, xs, 50), _gold_grid(kind, nus, xs, 50, hp=True),
            _gold_grid(kind, nus, xs, 50, derivative=True, hp=True))
    for nu, *rows in zip(nus, *grid):
        for x, *got in zip(xs, *rows):
            want = [fn(kind, nu, x) for fn in (oracle_pair, oracle_pair_hp, oracle_pair_derivs_hp)]
            assert got == want, (nu, x)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from([OSC, MOD]),
       nus=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150]),
                              st.floats(-100, 100)), min_size=2, max_size=5),
       xs=st.lists(st.one_of(st.floats(5e-324, 22.62), st.floats(15.0, 22.62)),
                   min_size=1, max_size=4))
@example(kind=OSC, nus=[1e150, 0.0, -1e-300, 1e-300, 2.5], xs=[22.62, 1e-3, 9.5])
@example(kind=MOD, nus=[-2.5, 1e150, 0.0], xs=[9.5, 1e-3, 22.62, 1e-3])
# orders of two magnitudes below 256: ln x once formed at the wider
# order's angle precision and rounded to each order's own moved these
@example(kind=MOD, nus=[32.0, 16.840378905261716], xs=[16.0])
@example(kind=OSC, nus=[32.0, 64.0], xs=[1.7829862414866318e-209])
def test_gold_grid_equals_its_points(kind, nus, xs):
    # any mix of orders over any x below 22.63, in any order: each row
    # of values, hp values and hp derivatives is its one-point calls
    _assert_grid_is_its_points(kind, nus, xs)


@pytest.mark.parametrize("kind", [OSC, MOD])
@pytest.mark.parametrize("nus", [[1.5, 3.0], [32.0, 64.0]])
def test_gold_grid_of_two_magnitudes_equals_its_points(kind, nus):
    # the same property on a fixed draw: 150 x in [1e-5, 20] for two
    # orders of different magnitudes; with ln x rounded twice, 6 of 16
    # such draws (4 seeds, both grids and kinds) missed 1 or 2 points,
    # these 2 of their 4
    rng = random.Random(f"two-magnitudes/{nus}")
    _assert_grid_is_its_points(kind, nus, [rng.uniform(1e-5, 20.0) for _ in range(150)])


def _sum_past_stop(w_re, w_im, us, nu, z, wp, extra=30):
    # sum_k d_k u_k in units of 2^-2wp over the series' own weights and
    # powers, both carried `extra` terms past the stop by their
    # recurrences: the weights from wherever their lists end
    num, den = nu.as_integer_ratio()
    sign, man, exp, _ = z._mpf_
    z_man = -man if sign else man
    n = len(us) + extra
    w_re, w_im, us = w_re[:n], w_im[:n], list(us)
    for k in range(len(w_re), n):
        kd, re, im = k * den, w_re[-1], w_im[-1]
        q = kd * kd + num * num
        w_re.append((kd * (re * kd + im * num) + q // 2) // q)
        w_im.append((kd * (im * kd - re * num) + q // 2) // q)
    for k in range(len(us), n):
        u = us[-1] * z_man
        us.append((u << exp if exp >= 0 else u >> -exp) // (k * k))
    return sum(a * u for a, u in zip(w_re, us)), sum(b * u for b, u in zip(w_im, us))


@pytest.mark.parametrize("kind", [OSC, MOD])
def test_series_stops_once_per_x(kind):
    # the power terms of an x end at u_K, K the first k with k^2 > 2|z|
    # and |u_k| below 2^25 units of 2^-wp, whichever order forms them;
    # each order's weights, kept across the x as in a grid, are grown to
    # them, so each part is within 2^26 units of the same sum carried 30
    # terms on (a short weight list would drop terms of the sum)
    nus = [0.0, 1.5, -40.0, 1e-300, 1e150]
    seen = []
    with mp.workdps(65):
        for order in (nus, nus[::-1]):
            weights = [{} for _ in order]
            per_x = []
            for x in (1e-3, 1.0, 10.0, 22.62):
                z = mpf(x) ** 2 / 4 * (1 if kind is MOD else -1)
                powers = {}
                for nu, ws in zip(order, weights):
                    re, im, e = _series_0f1(ws, powers, nu, z._mpf_, mp.prec, False)
                    want = _sum_past_stop(*ws[-e], powers[-e], nu, z, -e)
                    for got, ref in zip((re, im), want):
                        assert abs((got << -e) - ref) < 1 << (26 - e), (nu, x)
                for wp, us in powers.items():
                    stops = [k * k > 2 * abs(z) and abs(u) < 1 << 25 for k, u in enumerate(us)]
                    assert stops.index(True) == len(us) - 1, (x, wp)
                per_x.append(powers)
            seen.append(per_x)
    assert seen[0] == seen[1]


def _error_to_plain_mpmath(got, kind, nu, x, derivative):
    # |got - want| / |want| for want = x^(i nu) 0F1(; 1 + i nu; z), or its
    # d/dx through the contiguous relation, in plain mpmath arithmetic at
    # 100 digits, plus the digits of |nu| that the angle nu ln x needs
    with mp.workdps(100 + (max(0, math.ceil(math.log10(abs(nu)))) if nu else 0)):
        xm = mpf(x)
        z = xm * xm / 4 * (1 if kind is MOD else -1)
        b = mpc(1, nu)
        f = mp.hyp0f1(b, z)
        if derivative:
            f = mpc(0, nu) * f / xm + 2 * z / xm * mp.hyp0f1(b + 1, z) / b
        want = mp.exp(mpc(0, nu) * mp.log(xm)) * f
        return abs(mpc(got.re, got.im) - want) / abs(want)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from([OSC, MOD]),
       nu=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e150]), st.floats(-100, 100)),
       x=st.one_of(st.floats(5e-324, 22.62), st.floats(20.0, 22.62)),
       derivative=st.booleans())
# oscillatory x near 22.63 loses some 30-35 bits to cancellation, past
# the 30 the first guard allows, and reruns with more
@example(kind=OSC, nu=0.0, x=22.62, derivative=True)
@example(kind=OSC, nu=0.5, x=22.0, derivative=True)
@example(kind=OSC, nu=15.0, x=22.62, derivative=True)
# at nu = 0 the derivative is 2 z 0F1'(z) / x ~ x / 2: below the first
# fixed point's unit, it reruns until the sum can see it
@example(kind=OSC, nu=0.0, x=1e-100, derivative=True)
@example(kind=MOD, nu=-0.0, x=5e-324, derivative=True)
def test_series_row_matches_plain_mpmath(kind, nu, x, derivative):
    # below |z| = 128 the row sums 0F1 itself; values and derivatives
    # hold to 1e-55 of the modulus at 50 declared digits
    got = _gold_grid(kind, [nu], [x], 50, derivative=derivative, hp=True)[0][0]
    assert _error_to_plain_mpmath(got, kind, nu, x, derivative) <= 1e-55


@pytest.mark.parametrize("kind", [OSC, MOD])
@pytest.mark.parametrize("x", [1e-100, 5e-324])
def test_zero_order_derivative_at_tiny_x_takes_one_rerun(kind, x):
    # 2 z 0F1'(z) ~ z lies below the first fixed point's unit, so the sum
    # reads 0; the rerun is sized by mag(z), and the weights are kept for
    # the two working precisions only.  The value is -+x/2 to far more
    # than the working precision, so it rounds to that exactly.
    z = mpf(x) ** 2 / 4
    z = z if kind is MOD else -z
    weights, powers = {}, {}
    with mp.workdps(65):
        _series_0f1(weights, powers, 0.0, z._mpf_, mp.prec, True)
    assert len(weights) == 2, sorted(weights)
    assert sorted(powers) == sorted(weights)
    got = oracle_pair_derivs_hp(kind, 0.0, x)
    assert (got.re, got.im) == ((mpf(x) / 2 if kind is MOD else -mpf(x) / 2), 0)


@pytest.mark.parametrize("derivative", [False, True])
def test_gold_row_calls_hyp0f1_only_from_mag_z_8(monkeypatch, derivative):
    # x <= 22.62 (|z| < 128) is summed in the row, x = 22.63 by mpmath's
    # 0F1: once for the value, twice (b and b + 1) for the derivative
    # mpmath's contexts share their class's hyp0f1; this thread's own one
    # is built first, as building a context resets the class's functions
    calls = []
    oracle_pair(OSC, 1.5, 30.0)
    real = type(mp).hyp0f1
    monkeypatch.setattr(type(mp), "hyp0f1",
                        lambda ctx, *args, **kwargs: calls.append(args) or real(ctx, *args, **kwargs))
    for kind in (OSC, MOD):
        _gold_grid(kind, [1.5], [1e-3, 1.0, 10.0, 20.0, 22.62], 50, derivative=derivative)
        assert calls == []
        _gold_grid(kind, [1.5], [22.63], 50, derivative=derivative)
        assert len(calls) == (2 if derivative else 1)
        calls.clear()


@pytest.mark.parametrize("kind", [OSC, MOD])
@pytest.mark.parametrize("nu", [1e-300, 1e-70])
def test_gold_pair_holds_its_digits_at_tiny_order(kind, nu):
    # the sine-type part is ~nu, below the working precision of the
    # modulus, so the declared digits are relative to the modulus
    for x in (0.5, 9.69, 22.0):
        for fn in (oracle_pair_hp, oracle_pair_derivs_hp):
            lo, hi = fn(kind, nu, x, digits=50), fn(kind, nu, x, digits=200)
            assert _agree_to_50_digits(lo[:2], hi[:2]), (fn.__name__, x)


def test_gold_pair_hp_returns_oracle_values():
    for fn in (oracle_pair_hp, oracle_pair_derivs_hp):
        for kind, nu in ((OSC, 0.0), (MOD, 1.5)):
            v = fn(kind, nu, 2.0, digits=60)
            assert isinstance(v, OracleValue), fn.__name__
            assert type(v.re) is mpf and type(v.im) is mpf, fn.__name__
            assert v.digits == 60
            z = v.as_complex()
            assert type(z) is complex and z == complex(float(v.re), float(v.im)), fn.__name__


def _exact_double(man, ex):
    # man 2^ex rounded by Fraction's correctly rounded division, +-inf
    # where that overflows
    try:
        return float(Fraction(man) * Fraction(2) ** ex)
    except OverflowError:
        return -math.inf if man < 0 else math.inf


def test_double_rounds_once_to_the_nearest_double():
    rng = random.Random("double-rounding")
    cases = [(0, 0), (0, -5000), (0, 5000), (1, -1074), (1, -1075), (3, -1076), (1, -1076),
             (-1, -1075), (-3, -1076), (2 ** 53 - 1, 971), (2 ** 54 - 1, 970),
             (2 ** 54 - 3, 970), (-(2 ** 54 - 1), 970), (1, 1024), (1, 1023)]
    for _ in range(1000):
        bits = rng.choice((1, 2, 53, 54, 55, 64, 200, 700, 2000))
        man = rng.getrandbits(bits) | 1 << bits - 1
        tie = (rng.getrandbits(52) | 1 << 52) << 1 | 1  # halfway between two 53-bit doubles
        for m, ex in ((man, rng.randint(-1200 - bits, 1100 - bits)),
                      (man, -1074 - bits + rng.randint(-2, 2)),  # subnormal or none
                      (man, -1022 - bits - rng.randint(1, 3)),  # subnormal, 49-51 bits
                      (man, 1024 - bits + rng.randint(-2, 1)),  # near the top
                      (tie, rng.randint(-1074, 970)),
                      (tie >> rng.randint(1, 53) | 1, -1075)):  # halfway between subnormals
            cases.append((-m if rng.random() < 0.5 else m, ex))
    for man, ex in cases:
        got, want = _double(man, ex), _exact_double(man, ex)
        assert got.hex() == want.hex(), (man, ex)
    # ex = +-10^12 builds no 10^12-bit integer: in a child limited to
    # 1 GiB of address space, one would raise MemoryError
    probe = ("import resource\n"
             "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
             "soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)\n"
             "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
             "from imbessel.oracle import _double\n"
             "print(*(_double(m, e).hex() for e in (10 ** 12, -10 ** 12) for m in (3, -3)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(imbessel.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.stdout.split() == ["inf", "-inf", "0x0.0p+0", "-0x0.0p+0"], done.stderr


def test_oracle_pair_past_the_double_range_is_inf():
    assert oracle_pair(MOD, 1.5, 720.0) == (math.inf, math.inf)
    assert oracle_pair(MOD, 0.5, 1e5) == (math.inf, math.inf)


def test_a_zero_part_does_not_set_the_exponent():
    # at nu = 0 hyp0f1 returns a real value, paired with a zero whose
    # exponent is 0; aligning the two to it would shift I_0(1e10) ~
    # 2^(1.4e10) by all of its own exponent, which a child limited to
    # 1 GiB of address space cannot hold
    probe = ("import math, resource\n"
             "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
             "soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)\n"
             "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
             "from mpmath import mag\n"
             "from imbessel import Kind, oracle_pair, oracle_pair_derivs_hp, oracle_pair_hp\n"
             "for x in (1e10, 1e300):\n"
             "    assert oracle_pair(Kind.MODIFIED, 0.0, x) == (math.inf, 0.0), x\n"
             "    for fn in (oracle_pair_hp, oracle_pair_derivs_hp):\n"
             "        v = fn(Kind.MODIFIED, 0.0, x)\n"
             "        assert v.re > 0 and mag(v.re) > 2 ** 33 and v.im == 0, (fn.__name__, x)\n"
             "print('ok')\n")
    env = dict(os.environ, PYTHONPATH=str(Path(imbessel.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.stdout.split() == ["ok"], done.stderr


#: oracle_pair at zero and tiny orders, both kinds: nu -> x -> (OSC, MOD)
TINY_ANGLE_PAIRS = {
    0.0: {1.0: ((0.7651976865579666, 0.0), (1.2660658777520084, 0.0)),
          1.0000000000000002: ((0.7651976865579665, 0.0), (1.2660658777520084, 0.0)),
          0.5: ((0.9384698072408129, 0.0), (1.0634833707413236, 0.0)),
          3.0: ((-0.26005195490193345, 0.0), (4.8807925858650245, 0.0))},
    5e-324: {1.0: ((0.7651976865579666, 0.0), (1.2660658777520084, 0.0)),
             1.0000000000000002: ((0.7651976865579665, 0.0), (1.2660658777520084, 0.0)),
             0.5: ((0.9384698072408129, -5e-324), (1.0634833707413236, -5e-324)),
             3.0: ((-0.26005195490193345, -0.0), (4.8807925858650245, 2.5e-323))},
    1e-320: {1.0: ((0.7651976865579666, 0.0), (1.2660658777520084, 0.0)),
             1.0000000000000002: ((0.7651976865579665, 0.0), (1.2660658777520084, 0.0)),
             0.5: ((0.9384698072408129, -6.507e-321), (1.0634833707413236, -7.37e-321)),
             3.0: ((-0.26005195490193345, -2.856e-321), (4.8807925858650245, 5.362e-320))},
    1e-300: {1.0: ((0.7651976865579666, 0.0), (1.2660658777520084, 0.0)),
             1.0000000000000002: ((0.7651976865579665, 1.6990802e-316),
                                  (1.2660658777520084, 2.81123096e-316)),
             0.5: ((0.9384698072408129, -6.504977009296048e-301),
                   (1.0634833707413236, -7.371505000017355e-301)),
             3.0: ((-0.26005195490193345, -2.8569627334742916e-301),
                   (4.8807925858650245, 5.3620987132715155e-300))},
    1e-60: {1.0: ((0.7651976865579666, 2.2734424278502986e-61),
                  (1.2660658777520084, -2.7424750210951968e-61)),
            1.0000000000000002: ((0.7651976865579665, 2.2734424278503013e-61),
                                 (1.2660658777520084, -2.742475021095195e-61)),
            0.5: ((0.9384698072408129, -5.894501666307686e-61),
                  (1.0634833707413236, -8.011278321801069e-61)),
            3.0: ((-0.26005195490193345, 5.618063941989969e-61),
                  (4.8807925858650245, 5.310981777073951e-61))},
}

#: sha256 of the hp values and hp derivatives at the orders of
#: TINY_ANGLE_PAIRS whose angle is 0 or below 2^-(prec + 10)
_TINY_ANGLE_HP_DIGEST = "5335808153d279b4e6d8a9045b0f6da4b638e2c044a53e7c826a3f982aa4aa9e"


def test_zero_and_tiny_angles_keep_their_bytes():
    # a zero angle and one below 2^-(prec + 10) take mpf_cos_sin, whose
    # reduction would otherwise run at prec + 10 - mag bits; the doubles
    # carry their signed zeros and subnormals
    for nu, row in TINY_ANGLE_PAIRS.items():
        for x, want in row.items():
            got = (oracle_pair(OSC, nu, x), oracle_pair(MOD, nu, x))
            assert [[v.hex() for v in p] for p in got] == [[v.hex() for v in p] for p in want], (nu, x)
    digest = hashlib.sha256()
    for nu in (0.0, 5e-324, 1e-320, 1e-300):
        for x in TINY_ANGLE_PAIRS[nu]:
            for kind in Kind:
                for fn in (oracle_pair_hp, oracle_pair_derivs_hp):
                    v = fn(kind, nu, x)
                    digest.update(repr([tuple(map(int, p._mpf_)) for p in v[:2]]).encode())
    assert digest.hexdigest() == _TINY_ANGLE_HP_DIGEST


# ---------------------------------------------------------------- threads

def _failing_on_mp(prop):
    # an mpmath context's precision property whose getter and setter
    # fail on the global context `mp`, and work on any other context
    def checked(fn):
        def access(ctx, *args):
            if ctx is mp:
                raise AssertionError("mpmath's global precision was read or set")
            return fn(ctx, *args)

        return access

    return property(checked(prop.fget), checked(prop.fset))


def test_the_oracle_never_reads_or_sets_mpmaths_global_precision(monkeypatch):
    # on both sides of x = 22.63, where the fixed-point sums hand over to
    # mpmath's hyp0f1, and through the CLI commands that call the oracle
    from imbessel import cli

    for name in ("prec", "dps"):
        monkeypatch.setattr(type(mp), name, _failing_on_mp(getattr(type(mp), name)))
    for kind in (OSC, MOD):
        for x in (2.0, 30.0):
            oracle_pair(kind, 1.5, x)
            oracle_pair_hp(kind, 1.5, x)
            oracle_pair_derivs_hp(kind, 1.5, x)
        out = io.StringIO()
        argv = ["compare", "--kind", "mod" if kind is MOD else "osc", "--x-min", "20",
                "--x-max", "26", "--x-steps", "4", "--nu", "0,1.5", "--terms", "400"]
        assert cli.main(argv, out) == 0
        assert out.getvalue().splitlines()[-1].startswith("status=PASS")
    assert cli.main(["bounds", "--nu", "1", "--x", "30"], io.StringIO()) == 0


def _beside(work, calls):
    # runs `work(stop)` on a second thread while the main thread makes
    # `calls()`, then stops and joins it; the threads switch every 0.1 ms
    # meanwhile, not every 5 ms, so they interleave within an oracle call
    stop = threading.Event()
    thread = threading.Thread(target=work, args=(stop,))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    thread.start()
    try:
        calls()
    finally:
        stop.set()
        thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()


def test_the_oracle_leaves_the_precision_of_other_threads_alone():
    # a division at mpmath's global 53 bits on another thread keeps its
    # 53 bits while the oracle runs at its 219
    assert mp.prec == 53
    third = mpf(1) / 3
    counts = {"done": 0, "wrong": 0}

    def divide(stop):
        while not stop.is_set():
            counts["wrong"] += mpf(1) / 3 != third
            counts["done"] += 1

    _beside(divide, lambda: [oracle_pair(OSC, 1.5, 2.0) for _ in range(300)])
    assert counts["done"] > 0
    assert counts["wrong"] == 0, counts


def test_another_threads_precision_leaves_the_oracle_alone():
    # mpmath's global precision flipping between 30 and 53 bits on another
    # thread moves no bit of the gold pair where mpmath's hyp0f1 sums it
    points = [(0.5, 100.0)] * 8 + [(1.5, 30.0)] * 40
    quiet = {p: oracle_pair_hp(OSC, *p) for p in set(points)}
    got = []

    def flip(stop):
        while not stop.is_set():
            mp.prec = 30
            mp.prec = 53

    try:
        _beside(flip, lambda: got.extend((p, oracle_pair_hp(OSC, *p)) for p in points))
    finally:
        mp.prec = 53
    assert [p for p, v in got if v != quiet[p]] == []


# ------------------------------------------------------------- lazy import

def test_package_import_leaves_mpmath_unloaded():
    # dir() lists the oracle's names before they are loaded, and does
    # not load them
    assert set(imbessel.__all__) <= set(dir(imbessel))
    src = str(Path(imbessel.__file__).resolve().parents[1])
    probe = (
        "import sys, imbessel\n"
        "assert set(imbessel.__all__) <= set(dir(imbessel))\n"
        "assert 'mpmath' not in sys.modules, 'imported eagerly'\n"
        "for name in imbessel.__all__:\n"
        "    getattr(imbessel, name)\n"
        "assert 'mpmath' in sys.modules\n"
        "from imbessel import *\n"
        "assert oracle_pair_hp is imbessel.oracle.oracle_pair_hp\n"
        "for name in ('no_such_name', 'hp_bessel_imag', 'hp_bessel_j_int', 'hp_gamma',\n"
        "             'kl_macdonald', 'truncated_pair_hp'):\n"
        "    try:\n"
        "        getattr(imbessel, name)\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit('no AttributeError for ' + name)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_package_import_leaves_dataclasses_unloaded():
    # `dataclasses` pulls in inspect, ast, dis and tokenize; nothing on
    # the import path or behind classify and eval_pair may need it, and
    # nothing behind the CLI either (mpmath alone loads neither).  -S
    # keeps site hooks of the environment out of the module list, so
    # mpmath's directory is put on the path by hand.
    src = str(Path(imbessel.__file__).resolve().parents[1])
    mpmath_dir = str(Path(mpmath.__file__).resolve().parents[1])
    probe = (
        "import io, sys, imbessel\n"
        "imbessel.classify(2.0, 1.0, 4.0, 1.0)\n"
        "imbessel.eval_pair(imbessel.Kind.OSCILLATORY, 1.0, 1.0)\n"
        "loaded = {'dataclasses', 'inspect', 'mpmath'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
        "import imbessel.cli\n"
        "imbessel.cli.main(['table', '--x-steps', '2'], out=io.StringIO())\n"
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, mpmath_dir)))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_evaluation_paths_leave_error_bounds_unloaded():
    # no evaluation path uses the a-priori bounds; the package, series_core
    # and the CLI resolve their names on first access (the benchmark's
    # tracer binds them on series_core and cli), and `bounds` loads them
    src = str(Path(imbessel.__file__).resolve().parents[1])
    probe = (
        "import io, sys, imbessel\n"
        "imbessel.classify(2.0, 1.0, 4.0, 1.0)\n"
        "imbessel.eval_pair(imbessel.Kind.OSCILLATORY, 1.0, 1.0)\n"
        "loaded = {m for m in sys.modules if m.split('.')[0] == 'imbessel'}\n"
        "assert loaded == {'imbessel', 'imbessel.errors', 'imbessel._backend',\n"
        "                  'imbessel.series_core', 'imbessel.lommel'}, sorted(loaded)\n"
        "import imbessel.cli as cli\n"
        "for argv in (['eval', '--nu', '1', '--x', '1'], ['table', '--x-steps', '2'],\n"
        "             ['classify', '--a', '1.5', '--b', '3', '--c', '2', '--beta', '1'],\n"
        "             ['compare', '--x-steps', '2']):\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
        "    assert 'imbessel.error_bounds' not in sys.modules, argv\n"
        "assert cli.main(['bounds', '--nu', '1', '--x', '2', '--terms', '2'],\n"
        "                out=io.StringIO()) == 0\n"
        "assert 'imbessel.error_bounds' in sys.modules\n"
        "missing = [n for n in imbessel.__all__ if not hasattr(imbessel, n)]\n"
        "assert not missing, missing\n"
        "assert set(imbessel.__all__) <= set(dir(imbessel))\n"
        "from imbessel import error_bounds, series_core\n"
        "for name in ('derivative_tail_bound', 'required_terms', 'tail_bound'):\n"
        "    assert getattr(series_core, name) is getattr(error_bounds, name), name\n"
        "assert imbessel.tail_bound is cli.tail_bound is error_bounds.tail_bound\n"
        "for module in (imbessel, series_core, cli):\n"
        "    try:\n"
        "        module.no_such_name\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit(f'{module.__name__}: no AttributeError')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_mpmath_unloaded():
    # `eval`, `table` and `classify` never call the oracle; `compare` and
    # `bounds` import it when they run, and `imbessel.cli.oracle_pair`
    # still resolves (the benchmark's tracer binds it)
    src = str(Path(imbessel.__file__).resolve().parents[1])
    probe = (
        "import io, sys, imbessel.cli as cli\n"
        "for argv in (['table', '--x-steps', '2'], ['eval', '--nu', '1', '--x', '1'],\n"
        "             ['classify', '--a', '1.5', '--b', '3', '--c', '2', '--beta', '1']):\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
        "assert 'mpmath' not in sys.modules, 'imported eagerly'\n"
        "assert cli.main(['bounds', '--nu', '1', '--x', '2', '--terms', '2'],\n"
        "                out=io.StringIO()) == 0\n"
        "import imbessel.oracle\n"
        "assert cli.oracle_pair is imbessel.oracle.oracle_pair\n"
        "try:\n"
        "    cli.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------- macdonald

def test_macdonald_zero_order():
    v = kl_macdonald(0.0, 1.0)
    assert float(v.re) == pytest.approx(0.42102443824070834, rel=1e-13)
    with mp.workdps(40):
        assert _rel_err(v.re, mpmath.besselk(0, 1)) < 1e-12


def test_macdonald_connects_to_modified_bessel():
    # K_{i tau}(x) = -pi Im(I_{i tau}(x)) / sinh(tau pi)
    with mp.workdps(60):
        for tau in (0.5, 1.0, 2.0):
            for x in (1.0, 5.0):
                got = kl_macdonald(tau, x)
                i_val = hp_bessel_imag(tau, x, MOD)
                want = -mp.pi * i_val.im / mp.sinh(tau * mp.pi)
                assert _rel_err(got.re, want) < 1e-11


def test_macdonald_against_mpmath():
    with mp.workdps(40):
        for tau, x in ((0.5, 1.0), (1.0, 2.0), (2.0, 5.0)):
            got = kl_macdonald(tau, x)
            want = mpmath.besselk(mpc(0, tau), x).real
            assert _rel_err(got.re, want) < 1e-12


def test_macdonald_even_in_tau():
    a = kl_macdonald(1.3, 2.0)
    b = kl_macdonald(-1.3, 2.0)
    assert a.re == b.re


def test_macdonald_domain_and_reliability():
    with pytest.raises(DomainError):
        kl_macdonald(1.0, 0.0)
    with pytest.raises(DomainError):
        kl_macdonald(1.0, -2.0)
    with pytest.raises(ToleranceError):
        kl_macdonald(1.0, 0.01)


def test_macdonald_precision_honesty():
    lo = kl_macdonald(1.0, 1.0, digits=13)
    hi = kl_macdonald(1.0, 1.0, digits=26)
    with mp.workdps(60):
        assert abs(lo.re - hi.re) < abs(hi.re) * mpf(10) ** -13
    assert lo.digits >= 12
