"""Tests for the truncation-bound chain."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from imbessel import (
    DomainError,
    Kind,
    ToleranceError,
    derivative_tail_bound,
    eval_pair,
    factor_F,
    m_of_nu,
    majorant_bound,
    oracle_pair,
    oracle_pair_derivs_hp,
    oracle_pair_hp,
    required_terms,
    tail_bound,
)
from imbessel.cli import COMPARE_SLACK
from imbessel.error_bounds import MAX_TERMS, SUM_INV_CUBES, SUM_INV_SQUARES
from references import coefficients_hp, truncated_pair_hp


def test_factor_F_vanishes_at_unit_and_zero_order():
    assert factor_F(1.0) == 0.0
    assert factor_F(-1.0) == 0.0
    assert factor_F(0.0) == 0.0


def test_factor_F_large_branch_value():
    # hand evaluation of the |nu| > 3 branch at nu = 4
    assert factor_F(4.0) == pytest.approx(36.0, rel=1e-15)


def test_factor_F_branches_are_continuous():
    for edge in (2.0, 3.0):
        below = factor_F(edge - 1e-9)
        above = factor_F(edge + 1e-9)
        assert abs(below - above) < 1e-7


def test_factor_F_even():
    for nu in (0.3, 1.7, 2.5, 5.0):
        assert factor_F(nu) == factor_F(-nu)


def test_m_of_nu_values():
    assert m_of_nu(0.0) == 1.0
    # F(1) = 0, so m(1) = exp(0.6449)
    assert m_of_nu(1.0) == pytest.approx(math.exp(0.6449), rel=1e-15)
    assert m_of_nu(1.0) == pytest.approx(1.9058, abs=5e-5)


def test_m_of_nu_dominates_m2():
    for nu in (0.0, 0.3, 1.0, 1.9, 2.5, 4.0):
        m2 = (1 + abs(nu)) / (1 + nu * nu)
        assert m_of_nu(nu) >= m2


def test_envelope_constants_match_partial_sums():
    # direct partial sums with integral brackets on the missing tails
    K = 200_000
    sq = sum(1.0 / (n * n) for n in range(2, K + 1))
    assert sq + 1.0 / (K + 1) <= SUM_INV_SQUARES + 5e-5
    assert sq + 1.0 / K >= SUM_INV_SQUARES - 5e-5
    K = 2000
    cu = sum(1.0 / (n * n * n) for n in range(2, K + 1))
    assert abs(cu + 0.5 / (K * K) - SUM_INV_CUBES) < 5e-5


def test_majorant_bound_simple_values():
    assert majorant_bound(0.0, 3) == pytest.approx(1.0 / 36.0, rel=1e-15)
    assert majorant_bound(1.0, 2) == pytest.approx(m_of_nu(1.0) * 2.0 / 4.0, rel=1e-15)
    with pytest.raises(DomainError):
        majorant_bound(1.0, 0)


def test_majorant_bound_log_space_is_consistent_and_finite():
    # the log-space form agrees with the direct product at small n
    for nu in (0.5, 2.0):
        direct = m_of_nu(nu) * 20.0 ** abs(nu) / math.factorial(20) ** 2
        assert majorant_bound(nu, 20) == pytest.approx(direct, rel=1e-13)
        assert majorant_bound(nu, 21) == pytest.approx(direct * 21 ** abs(nu) / (20 ** abs(nu) * 441), rel=1e-12)
    val = majorant_bound(1.5, 60)
    assert val > 0.0 and math.isfinite(val)
    # past the double range the envelope underflows to a clean zero
    # instead of tripping on factorial overflow
    assert majorant_bound(1.5, 300) == 0.0
    # m(12.7) n^12.7 alone overflows for these n, the envelope does not
    # (2.7722208e297 at n = 10, from mpmath at 40 digits)
    for n in range(7, 22):
        assert math.isfinite(majorant_bound(12.7, n)), n
    assert majorant_bound(12.7, 10) == pytest.approx(2.7722208e297, rel=1e-7)


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("seed", [(1.0, 0.0), (0.0, 1.0)])
def test_majorant_dominates_coefficients(nu, seed):
    # the envelope is a claim about the exact coefficients, so they come
    # from the extended-precision recurrence and are compared unrounded
    for kind in (Kind.OSCILLATORY, Kind.MODIFIED):
        with mp.workdps(60):
            for n, (a, b) in enumerate(coefficients_hp(kind, nu, seed, 50), start=1):
                assert abs(a) + abs(b) <= majorant_bound(nu, n)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 4.0])
def test_envelope_ratio_inequality(nu):
    # The per-step envelope ratio recovered from the exact coefficients
    # obeys (1 + |nu|/n)(1 - 1/n)^|nu| for n >= 2.
    v = abs(nu)
    prev = None
    with mp.workdps(60):
        for n, (a, b) in enumerate(coefficients_hp(Kind.OSCILLATORY, nu, (1.0, 0.0), 40), start=1):
            m_emp = (abs(a) + abs(b)) * mp.factorial(n) ** 2 / mpf(n) ** v
            if prev is not None:
                limit = (1 + v / n) * (1 - mpf(1) / n) ** v
                assert m_emp / prev <= limit * (1 + 1e-12)
            prev = m_emp


def test_tail_bound_eight_terms_at_x2():
    # at x <= 2, |nu| <= 2 the paper's closed form is at most 24/(N!)^2,
    # and the summed envelope stays below it
    assert tail_bound(0.0, 2.0, 8) <= 24.0 / math.factorial(8) ** 2
    assert tail_bound(1.0, 2.0, 8) <= 24.0 / math.factorial(8) ** 2


def test_tail_bound_monotone_in_N():
    for nu in (0.0, 1.0, 1.9, 2.5, 4.0):
        for x in (0.1, 1.0, 2.0, 5.0):
            bounds = [tail_bound(nu, x, n) for n in range(1, 25)]
            assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))
    # strictly decreasing in the factorial-decay regime x <= 2
    for nu in (0.0, 1.0, 1.9):
        for x in (0.1, 1.0, 2.0):
            bounds = [tail_bound(nu, x, n) for n in range(1, 20)]
            assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_tail_bound_domain_checks():
    with pytest.raises(DomainError):
        tail_bound(1.0, -1.0, 4)
    with pytest.raises(DomainError):
        tail_bound(1.0, 1.0, 0)
    # an order or argument that is not a real number is named, not a TypeError
    for args, message in (((1j, 1.0, 4), "nu must be a real number, got 1j"),
                          ((1.0, None, 4), "x must be a real number, got None")):
        with pytest.raises(DomainError) as exc:
            tail_bound(*args)
        assert str(exc.value) == message


@settings(max_examples=60, deadline=None)
@given(
    nu=st.floats(-4.0, 4.0),
    x=st.floats(0.05, 6.0),
    n=st.integers(1, 30),
)
def test_tail_bound_positive_and_decreasing(nu, x, n):
    b1 = tail_bound(nu, x, n)
    b2 = tail_bound(nu, x, n + 1)
    assert b1 >= 0.0
    assert b2 <= b1


def test_required_terms_examples():
    assert required_terms(1.0, 2.0, 1e-8) <= 12
    assert required_terms(0.0, 0.1, 1e-15) <= 6


def test_required_terms_monotone():
    ns = [required_terms(1.0, x, 1e-10) for x in (0.1, 0.5, 1.0, 2.0, 4.0)]
    assert ns == sorted(ns)
    ms = [required_terms(1.0, 1.0, tol) for tol in (1e-4, 1e-8, 1e-12)]
    assert ms == sorted(ms)


def test_required_terms_unreachable_raises():
    with pytest.raises(ToleranceError):
        required_terms(1.0, 800.0, 1e-12)
    with pytest.raises(DomainError):
        required_terms(1.0, 1.0, 0.0)


def _exact_tails(nu, x, N):
    """sum_{n>N} P_n and sum_{n>N} n P_n, for the step product P_n and
    then for the paper's envelope, summed in mpmath (call under workdps)."""
    v, nu2 = abs(mpf(nu)), mpf(nu) ** 2
    w = (mpf(x) / 2) ** 2
    m = mp.e ** (SUM_INV_SQUARES * nu2 + SUM_INV_CUBES * factor_F(nu)) * (1 + v) / (1 + nu2)
    p = q = mpf(1)  # P_n and w^n / (n!)^2
    s = s_d = e = e_d = mpf(0)
    n = 0
    while True:
        n += 1
        p *= w * (n + v) / (n * (n * n + nu2))
        q *= w / (n * n)
        if n > N:
            env = m * mpf(n) ** v * q
            s, s_d, e, e_d = s + p, s_d + n * p, e + env, e_d + n * env
            # both ratios fall with n: once below 1/2, the rest is below
            # twice the last term
            if (w * (n + 1 + v) / ((n + 1) * ((n + 1) ** 2 + nu2)) < 0.5
                    and (mpf(n + 1) / n) ** v * w / (n + 1) ** 2 < 0.5
                    and n * env <= mpf(10) ** -40 * e_d and n * p <= mpf(10) ** -40 * s_d):
                return s, s_d, e, e_d


def _check_apriori_tails(nu, x, N):
    # Both bounds enclose the exact step-product sums, and stay within
    # the paper's envelope sum (the 1.0101 is the bounds' 1.01 rounding
    # allowance).  The chain closes with a geometric tail at a ratio
    # below 1/2, at most twice the exact remainder; from |nu| = 0.8 on the
    # envelope is over 2.2 times the product term by term (n >= 2), so the
    # bounds stay below it.  Nearer nu = 0 the two meet (at nu = 0 they
    # are equal), and the bounds are held to twice the exact sums.
    value, d_value = tail_bound(nu, x, N), derivative_tail_bound(nu, x, N)
    s, s_d, e, e_d = _exact_tails(nu, x, N)
    v = abs(nu)
    d_exact = (2 * s_d + v * s) / mpf(x)
    assert mpf(value) >= s and mpf(d_value) >= d_exact, (nu, x, N, value, d_value)
    limits = (e, (2 * e_d + v * e) / mpf(x)) if v >= 0.8 else (2 * s, 2 * d_exact)
    for bound, limit in zip((value, d_value), limits):
        assert mpf(bound) <= mpf("1.0101") * limit + mpf(5e-324), (nu, x, N, bound, limit)


def test_huge_order_bound_is_finite_and_encloses():
    # m(nu) grows like exp(0.6449 nu^2) and leaves the double range from
    # |nu| ~ 19, but the step product the bounds take does not: the bound
    # is finite, encloses the exact tail, and term selection answers
    with mp.workdps(30):
        _check_apriori_tails(40.0, 1.0, 8)
    assert 0.0 < tail_bound(40.0, 1.0, 8) < 1e-20
    assert required_terms(40.0, 1.0, 1e-10) == 3


def test_apriori_tails_enclose_the_step_product_within_the_envelope():
    # 160 seeded points with |nu| <= 20, x in [1e-300, 300] (half of them
    # log-uniform, half uniform from 0.5) and N in 1..400 (a third of
    # them at most x, where the tails are not negligible)
    rng = random.Random(20261020)
    cases = []
    for i in range(160):
        nu = rng.uniform(-20.0, 20.0)
        if i % 2:
            x = math.exp(rng.uniform(math.log(1e-300), math.log(300.0)))
        else:
            x = rng.uniform(0.5, 300.0)
        cases.append((nu, x, rng.randint(1, MAX_TERMS if i % 3 else max(1, int(x)))))
    # where the chain closes at once with its derivative ratio just below
    # 1/2, its geometric tail is loosest: up to 1.10 (values) and 1.23
    # (derivatives) times the exact sums, which at nu = 0 are the envelope's
    for nu in (0.0, 0.3, 0.8, 3.0):
        for n in (1, 3, 30):
            k = n + 2
            w = 0.999 * 0.5 * (k - 1) * (k * k + nu * nu) / (k + abs(nu))
            cases.append((nu, 2.0 * math.sqrt(w), n))
    with mp.workdps(30):
        for case in cases:
            _check_apriori_tails(*case)


def test_apriori_excess_over_the_envelope_at_order_zero_is_as_stated():
    # The "Tightness" of `error_bounds`: at nu = 0, where the step product
    # is the paper's envelope, the bounds exceed its exact sums by at
    # most 1.10x (values) and 1.23x (derivatives), and the peaks just
    # below an x where the chain's closing index moves (N = 4 at
    # sqrt(60), N = 1 at 2 sqrt(3)) come within 1% of those factors.
    # Below an exact tail of 1e-290 the bounds' one-subnormal floor
    # dominates, so such points are skipped.
    xs = [10.0 ** (i / 6.0) for i in range(-12, 14)]
    xs += [math.sqrt(60.0) * (1.0 - 1e-9), 2.0 * math.sqrt(3.0) * (1.0 - 1e-9)]
    peak = d_peak = 0.0
    with mp.workdps(20):
        for x in xs:
            # sums over n < k <= 520 of P_k = w^k / (k!)^2 and k P_k, past
            # which they change by less than 1e-80 relative (x < 150)
            w, p, sizes = (mpf(x) / 2) ** 2, mpf(1), []
            for k in range(1, 521):
                p *= w / (k * k)
                sizes.append(p)
            tails, s, s_d = {}, mpf(0), mpf(0)
            for k in range(520, 0, -1):
                tails[k] = s, s_d
                s, s_d = s + sizes[k - 1], s_d + k * sizes[k - 1]
            for n in (1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 64, 400):
                s, s_d = tails[n]
                if s < mpf(10) ** -290:
                    continue
                peak = max(peak, float(tail_bound(0.0, x, n) / s))
                d_peak = max(d_peak, float(derivative_tail_bound(0.0, x, n) * x / (2 * s_d)))
    assert 1.09 < peak <= 1.10 and 1.22 < d_peak <= 1.23, (peak, d_peak)


@pytest.mark.parametrize("nu", [2.5, 4.0])
def test_bound_validity_above_two(nu):
    # Above |nu| = 2 the paper gives no closed form for the tail; the
    # summed envelope must still enclose the true truncation error.
    for kind in (Kind.OSCILLATORY, Kind.MODIFIED):
        for x in (0.1, 0.5, 1.0, 2.0):
            gold = oracle_pair_hp(kind, nu, x, digits=90)
            for n in (2, 4, 8, 16):
                c, s, _, _ = truncated_pair_hp(kind, nu, x, n, digits=90)
                err = max(abs(c - gold.re), abs(s - gold.im))
                assert float(err) <= tail_bound(nu, x, n)


def test_derivative_tail_bound_encloses():
    for kind in (Kind.OSCILLATORY, Kind.MODIFIED):
        for nu in (0.0, 1.0, 1.9):
            for x in (0.1, 1.0, 2.0):
                gold = oracle_pair_derivs_hp(kind, nu, x, digits=90)
                for n in (2, 4, 8):
                    _, _, dc, ds = truncated_pair_hp(kind, nu, x, n, digits=90)
                    err = max(abs(dc - gold.re), abs(ds - gold.im))
                    assert float(err) <= derivative_tail_bound(nu, x, n)


def test_envelope_tail_survives_underflowing_terms():
    # At such small x the envelope term underflows to zero while the
    # partial sum is too small for the relative cutoff ever to fire.
    assert math.isfinite(derivative_tail_bound(2.5, 0.013883533099290456, 48))
    bounds = [tail_bound(2.5, 0.013883533099290456, n) for n in range(40, 56)]
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))
    for nu, x in ((2.5, 0.013883533099290456), (0.347979287802042, 0.018105232860621302)):
        r = eval_pair(Kind.OSCILLATORY, nu, x, terms=48)
        values = (r.cos_part, r.sin_part, r.d_cos, r.d_sin, r.tail_bound, r.d_tail_bound)
        assert all(math.isfinite(v) for v in values)
        gold_cos, gold_sin = oracle_pair(Kind.OSCILLATORY, nu, x)
        err = max(abs(r.cos_part - gold_cos), abs(r.sin_part - gold_sin))
        assert err <= r.tail_bound + COMPARE_SLACK


def test_envelope_tail_below_normal_range_is_monotone_and_encloses():
    # Where the tail is below the normal range: no bump when N crosses
    # into it, never below the exact step-product sum and never above
    # the envelope sum.  After N steps the tail starts at index N + 1,
    # so tail_bound(N - 1) sums from `start` = N.
    bounds = [tail_bound(2.01, 0.4687, n) for n in range(60, 101)]
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))
    with mp.workdps(40):
        for nu, x, start in ((2.01, 0.4687, 78), (2.5, 0.013883533099290456, 48),
                             (3.7, 1e-3, 60), (2.5, 1e-100, 4), (6.0, 0.05, 90)):
            for first in (start, start + 1):
                product, _, envelope, _ = _exact_tails(nu, x, first - 1)
                assert envelope < mpf(1e-300)
                bound = mpf(tail_bound(nu, x, first - 1))
                assert product <= bound <= mpf("1.0101") * envelope + mpf(5e-324)


def test_derivative_tail_bound_is_positive_and_encloses_at_extreme_scales():
    # The derivative's 2/x and the rotation term's |nu|/x are applied
    # inside the bound's exponential: a tail below the double range can
    # no longer round to 0 after the product, and neither scale can
    # overflow to inf below x ~ 1e-308.  The bound encloses the exact
    # step-product sums and stays within the envelope's.
    cases = [(0.0, 5.0, 128), (1.0, 10.0, 400), (0.0, 1e-308, 1), (0.0, 1e-300, 1)]
    cases += [(nu, x, N) for nu in (0.5, 1.0, 3.0) for x in (1e-300, 1e-309, 5e-324)
              for N in (1, 5)]
    cases += [(8.0, 1.0, 1), (8.0, 1e-309, 1)]  # |nu| > 2 (N + 1): the rotation term dominates
    with mp.workdps(30):
        for nu, x, N in cases:
            bound = derivative_tail_bound(nu, x, N)
            assert 0.0 < bound < math.inf, (nu, x, N, bound)
            s, s_d, e, e_d = _exact_tails(nu, x, N)
            exact = (2 * s_d + abs(nu) * s) / mpf(x)
            envelope = (2 * e_d + abs(nu) * e) / mpf(x)
            assert exact <= mpf(bound) <= mpf("1.0101") * envelope + mpf(5e-324), (nu, x, N, bound)


def test_derivative_rotation_term_is_tight_at_tiny_x():
    # the rotation term is summed as its own envelope at scale |nu|/x, so
    # the value tail's one-subnormal floor is no longer multiplied by 1/x
    # (it read 1.01 and 5.0e-15 here); the exact tails are far below 5e-324
    assert derivative_tail_bound(1.0, 5e-324, 1) <= 1e-320
    assert derivative_tail_bound(1.0, 1e-309, 1) <= 1e-320


def test_tail_bound_is_continuous_at_order_two():
    # one summed envelope serves every order, so nothing jumps at |nu| = 2
    for x in (0.1, 1.0, 5.0, 20.0, 50.0):
        for n in range(1, 31):
            ratio = tail_bound(2.0 + 1e-9, x, n) / tail_bound(2.0, x, n)
            assert abs(ratio - 1.0) <= 1e-7, (x, n, ratio)


def test_tail_bound_is_within_the_papers_closed_form():
    # For |nu| <= 2 the paper collapses the envelope tail into
    # m(nu) (x/2)^(2N+1) I1(x) / (N!)^2; the summed envelope is at most
    # its 1.01 inflation above that, plus one subnormal step (5e-324)
    # where the closed form is below the double range.
    with mp.workdps(40):
        for nu in (0.0, 0.3, 1.0, 1.5, 1.9, 2.0):
            m = mpf(m_of_nu(nu))
            for x in (1e-8, 1e-4, 0.01, 0.3, 1.0, 2.0, 5.0, 12.0, 25.0, 50.0):
                i1 = mp.besseli(1, x)
                for n in range(1, 41):
                    closed = m * (mpf(x) / 2) ** (2 * n + 1) * i1 / mp.factorial(n) ** 2
                    assert mpf(tail_bound(nu, x, n)) <= mpf("1.0101") * closed + mpf(5e-324), (nu, x, n)


def test_required_terms_is_the_first_count_of_a_linear_scan():
    rng = random.Random(20)
    cases = []
    for i in range(120):
        nu = rng.uniform(-8.0, 8.0)
        if i % 3 == 0:
            x = rng.uniform(35.0, 120.0)
        else:
            x = math.exp(rng.uniform(math.log(1e-4), math.log(35.0)))
        cases.append((nu, x, 10.0 ** rng.uniform(-16.0, -1.0)))
    # the bracket grows from a first guess near e x/2: answers below, at
    # and above the guess, and guesses past MAX_TERMS
    cases += [(nu, x, tol) for nu in (0.0, 2.5)
              for x in (1e-4, 0.01, 1.0, 5.0, 50.0, 150.0, 290.0, 300.0)
              for tol in (1e-16, 1e-10, 1e-3, 1.0, 1e3, 1e9)]
    # an order whose square overflows: every bound is inf
    cases += [(1e200, 1.0, 1e-12), (1e200, 1.0, math.inf)]
    for nu, x, tol in cases:
        first = next((n for n in range(1, MAX_TERMS + 1) if tail_bound(nu, x, n) <= tol), None)
        if first is None:
            with pytest.raises(ToleranceError):
                required_terms(nu, x, tol)
        else:
            assert required_terms(nu, x, tol) == first, (nu, x, tol)


def test_required_terms_skips_counts_before_the_peak_only_where_the_scan_does():
    # Tolerances from the largest bound down past the product's peak
    # P_peak: below P_peak the counts before the peak are skipped (by the
    # sums of the later P_K, each at least P_peak), above it they may be
    # tried; the answer is the linear scan's either way.
    for nu, x in ((0.0, 100.0), (20.0, 150.0), (-3.5, 40.0), (7.0, 12.0)):
        bounds = [tail_bound(nu, x, n) for n in range(1, MAX_TERMS + 1)]
        for k in range(40):
            tol = max(bounds) * 10.0 ** (-0.25 * k)
            first = next((n for n in range(1, MAX_TERMS + 1) if bounds[n - 1] <= tol), None)
            assert required_terms(nu, x, tol) == first, (nu, x, tol)


def test_required_terms_runs_a_bounded_number_of_chains(monkeypatch):
    # Tolerances between P_peak and the largest bound, at large x: each
    # count's chain runs to where the ratio falls, so a scan that ran
    # one per count did O(N L) steps (161 and 317 chains here).  The
    # suffix sums of P_K skip the counts whose bound they prove too large.
    from imbessel import error_bounds

    runs = []
    chain_of = error_bounds.carried_tails

    def counting(*args):
        runs.append(args)
        return chain_of(*args)

    cases = (((0.0, 300.0, 4.5e127), 161), ((2.5, 600.0, 1.8e261), 317))
    for (nu, x, tol), answer in cases:
        assert tail_bound(nu, x, answer) <= tol < tail_bound(nu, x, answer - 1)
    monkeypatch.setattr(error_bounds, "carried_tails", counting)
    for (nu, x, tol), answer in cases:
        runs.clear()
        assert required_terms(nu, x, tol) == answer
        assert len(runs) <= 10, (nu, x, tol, len(runs))


def test_tail_bound_rises_only_by_rounding_before_the_envelope_peak():
    # At large x the first discarded term is many digits below the sum
    # before the envelope's peak, so the rounding of its exponential can
    # lift the next bound a little; past the peak the bound never rises.
    nu, x = 7.024188878877824, 46.657801752659765
    v, w = abs(nu), (0.5 * x) ** 2
    peak = next(n for n in range(1, MAX_TERMS) if ((n + 1.0) / n) ** v * w / (n + 1.0) ** 2 < 1.0)
    bounds = [tail_bound(nu, x, n) for n in range(1, 121)]
    for n, (b1, b2) in enumerate(zip(bounds, bounds[1:]), start=1):
        if n + 1 >= peak:
            assert b2 <= b1, n
        else:
            assert b2 <= b1 * (1.0 + 1e-13), n
        if b2 > b1:
            assert b1 > 1e12, n
    for tol in (1e-14, 1e-8, 1e-2, 1e6):
        first = next(n for n in range(1, 121) if bounds[n - 1] <= tol)
        assert required_terms(nu, x, tol) == first


@pytest.mark.parametrize("x", [1e-165, 1e-200, 1e-300, 1e-308, 5e-324])
@pytest.mark.parametrize("nu", [0.5, 2.5])
def test_tiny_x_never_leaks_a_bare_error(nu, x):
    # (x/2)^2 underflows here; the bounds work from log x instead
    for n in (1, 8, 30):
        for b in (tail_bound(nu, x, n), derivative_tail_bound(nu, x, n)):
            assert b > 0.0  # inf is an honest bound here; NaN is not
    for kind in (Kind.OSCILLATORY, Kind.MODIFIED):
        for terms in (None, 30):
            try:
                r = eval_pair(kind, nu, x, terms=terms)
            except ToleranceError:
                continue
            values = (r.cos_part, r.sin_part, r.d_cos, r.d_sin)
            assert all(math.isfinite(v) for v in values)
            assert r.tail_bound > 0.0 and r.d_tail_bound > 0.0


def test_bound_chain_saturates_instead_of_overflowing():
    # (x/2)^(2N+1) beyond the double range, nu^2 overflowing inside
    # log m(nu), and (0/x) * inf in the nu = 0 derivative bound: each is
    # +inf or a ToleranceError, never an OverflowError or NaN
    with pytest.raises(ToleranceError):
        required_terms(0.5, 1e8, 1e-12)
    with pytest.raises(ToleranceError):  # the first guess e x/2 overflows
        required_terms(0.5, 1.7e308, 1e-12)
    assert tail_bound(1.5, 1e200, 5) == math.inf
    assert tail_bound(1.5, 1e104, 30) == math.inf
    assert m_of_nu(1e200) == math.inf
    assert m_of_nu(-1.4e154) == math.inf
    assert tail_bound(1e200, 1.0, 5) == math.inf
    assert majorant_bound(300.0, 20) == math.inf
    assert majorant_bound(1e200, 2) == math.inf
    for nu in (0.0, 5e-324, 1e200):
        for x in (1000.0, 1e8):
            assert derivative_tail_bound(nu, x, 1) == math.inf
    for nu, x in ((1e200, 1.0), (0.5, 1e8)):
        assert not any(math.isnan(v) for v in (factor_F(nu), m_of_nu(nu), tail_bound(nu, x, 5)))
        for kind in (Kind.OSCILLATORY, Kind.MODIFIED):
            with pytest.raises(ToleranceError):
                eval_pair(kind, nu, x)
    for kind in (Kind.OSCILLATORY, Kind.MODIFIED):
        for nu in (0.0, 5e-324, 1.0):
            r = eval_pair(kind, nu, 1000.0, terms=1)
            values = (r.cos_part, r.sin_part, r.d_cos, r.d_sin, r.tail_bound, r.d_tail_bound)
            assert not any(math.isnan(v) for v in values), (kind, nu, r)
            assert r.tail_bound == r.d_tail_bound == math.inf
