"""Tests for the extended-precision reference implementations.

The identity suite (recurrence, reflection) is the contract for the
Gamma evaluation; the Bessel and Macdonald routines are additionally
cross-checked against mpmath's independent hypergeometric machinery.
"""

import pytest
from mpmath import mp, mpc, mpf
import mpmath

from imbessel import (
    DomainError,
    Kind,
    ToleranceError,
    eval_pair,
    hp_bessel_imag,
    hp_bessel_j_int,
    hp_gamma,
    kl_macdonald,
    oracle_pair,
    oracle_pair_hp,
)

OSC = Kind.OSCILLATORY
MOD = Kind.MODIFIED


def _as_mpc(v):
    return mpc(v.re, v.im)


def _rel_err(got, want):
    with mp.workdps(80):
        return float(abs(got - want) / (abs(want) if abs(want) != 0 else mpf(1)))


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
    # the pair is Gamma(1 + i nu) 2^(i nu) J_{i nu}(x) exactly
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
    # oracle_pair_hp sums the normalized series directly; hp_bessel_imag
    # divides the same series by Gamma(1 + i nu) 2^(i nu), so multiplying
    # back must agree far below the declared 50 digits
    with mp.workdps(70):
        for kind in (OSC, MOD):
            for nu, x in ((0.0, 0.8), (-1.3, 0.4), (0.5, 1.0), (2.5, 3.0)):
                gamma = _as_mpc(hp_gamma(1.0, nu))
                want = gamma * mpmath.power(2, mpc(0, nu)) * _as_mpc(hp_bessel_imag(nu, x, kind))
                got = _as_mpc(oracle_pair_hp(kind, nu, x))
                assert _rel_err(got, want) < 1e-45


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


# ----------------------------------------------------- integer-order helper

def test_integer_order_j_series():
    with mp.workdps(60):
        for n, x in ((0, 1.0), (1, 2.0), (3, 0.7)):
            got = hp_bessel_j_int(n, x)
            assert _rel_err(got.re, mpmath.besselj(n, x)) < 1e-45
    with pytest.raises(DomainError):
        hp_bessel_j_int(-1, 1.0)
