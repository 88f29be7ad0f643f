"""Tests for the recurrence, evaluation, Wronskian and limit behavior."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbessel import (
    MAX_TERMS,
    CoeffPair,
    DomainError,
    Kind,
    ToleranceError,
    advance_modified,
    advance_oscillatory,
    _backend,
    build_table,
    eval_pair,
    gamma_modulus_imag,
    hp_gamma,
    oracle_pair,
    oracle_pair_derivs_hp,
    oracle_pair_hp,
    truncated_pair_hp,
    wronskian_residual,
)

OSC = Kind.OSCILLATORY
MOD = Kind.MODIFIED


# ---------------------------------------------------------------- recurrence

@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.5, -1.7])
def test_first_oscillatory_step_from_sine_seed(nu):
    nxt = advance_oscillatory(CoeffPair(0.0, 1.0, 0), nu)
    assert nxt.n == 1
    assert nxt.a == pytest.approx(nu / (1 + nu * nu), rel=1e-15)
    assert nxt.b == pytest.approx(-1.0 / (1 + nu * nu), rel=1e-15)


def test_oscillatory_zero_order_reproduces_alternating_squares():
    # seed (1, 0), nu = 0: a_n = (-1)^n / (n!)^2, b stays zero
    pair = CoeffPair(1.0, 0.0, 0)
    pair = advance_oscillatory(pair, 0.0)
    assert (pair.a, pair.b) == (-1.0, 0.0)
    for n in range(2, 8):
        pair = advance_oscillatory(pair, 0.0)
        assert pair.a == pytest.approx((-1.0) ** n / math.factorial(n) ** 2, rel=1e-14)
        assert pair.b == 0.0


def test_oscillatory_step_unit_order():
    nxt = advance_oscillatory(CoeffPair(1.0, 0.0, 0), 1.0)
    assert nxt.a == pytest.approx(-0.5, rel=1e-15)
    assert nxt.b == pytest.approx(-0.5, rel=1e-15)


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.5, -1.7])
def test_first_modified_step_from_sine_seed(nu):
    nxt = advance_modified(CoeffPair(0.0, 1.0, 0), nu)
    assert nxt.a == pytest.approx(-nu / (1 + nu * nu), rel=1e-15)
    assert nxt.b == pytest.approx(1.0 / (1 + nu * nu), rel=1e-15)


def test_modified_zero_order_loses_alternating_sign():
    pair = CoeffPair(1.0, 0.0, 0)
    for n in range(1, 8):
        pair = advance_modified(pair, 0.0)
        assert pair.a == pytest.approx(1.0 / math.factorial(n) ** 2, rel=1e-14)


def test_modified_two_steps_unit_order():
    pair = advance_modified(CoeffPair(0.0, 1.0, 0), 1.0)
    assert (pair.a, pair.b) == (pytest.approx(-0.5), pytest.approx(0.5))
    pair = advance_modified(pair, 1.0)
    assert pair.a == pytest.approx(-3.0 / 20.0, rel=1e-15)
    assert pair.b == pytest.approx(1.0 / 20.0, rel=1e-15)


def test_build_table_zero_order_cosine_seed():
    table = build_table(OSC, (1.0, 0.0), 0.0, 3)
    assert [p.a for p in table.entries] == pytest.approx([1.0, -1.0, 0.25, -1.0 / 36.0])
    assert table.entries[0] == CoeffPair(1.0, 0.0, 0)


def test_build_table_modified_example():
    table = build_table(MOD, (0.0, 1.0), 1.0, 2)
    got = [(p.a, p.b) for p in table.entries]
    assert got[0] == (0.0, 1.0)
    assert got[1] == (pytest.approx(-0.5), pytest.approx(0.5))
    assert got[2] == (pytest.approx(-3.0 / 20.0), pytest.approx(1.0 / 20.0))


def test_build_table_oscillatory_order_two():
    table = build_table(OSC, (0.0, 1.0), 2.0, 1)
    assert table.entries[1].a == pytest.approx(2.0 / 5.0, rel=1e-15)
    assert table.entries[1].b == pytest.approx(-1.0 / 5.0, rel=1e-15)


def test_build_table_rejects_bad_input():
    with pytest.raises(DomainError):
        build_table(OSC, (float("nan"), 0.0), 1.0, 4)
    with pytest.raises(DomainError):
        build_table(OSC, (1.0, 0.0), float("inf"), 4)
    with pytest.raises(DomainError):
        build_table(OSC, (1.0, 0.0), 1.0, -1)


def test_table_entries_satisfy_recurrence_exactly():
    # entries are produced by the same float expressions the checker uses,
    # so the residual is identically zero (well under the 2-ulp budget)
    for kind, advance in ((OSC, advance_oscillatory), (MOD, advance_modified)):
        table = build_table(kind, (0.0, 1.0), 1.3, 30)
        for prev, cur in zip(table.entries, table.entries[1:]):
            again = advance(prev, 1.3)
            assert (again.a, again.b) == (cur.a, cur.b)


@settings(max_examples=50, deadline=None)
@given(nu=st.floats(-4.0, 4.0), n=st.integers(0, 60))
def test_parity_of_tables_in_nu(nu, n):
    # cosine seed: a even in nu, b odd; sine seed: a odd, b even.
    # Exact float equality holds because negation is exact.
    for kind in (OSC, MOD):
        plus = build_table(kind, (1.0, 0.0), nu, n)
        minus = build_table(kind, (1.0, 0.0), -nu, n)
        for p, m in zip(plus.entries, minus.entries):
            assert p.a == m.a and p.b == -m.b
        plus = build_table(kind, (0.0, 1.0), nu, n)
        minus = build_table(kind, (0.0, 1.0), -nu, n)
        for p, m in zip(plus.entries, minus.entries):
            assert p.a == -m.a and p.b == m.b


@settings(max_examples=50, deadline=None)
@given(nu=st.floats(-4.0, 4.0), n=st.integers(0, 60))
def test_quarter_turn_links_the_two_kinds(nu, n):
    # with equal seeds, modified entries are (-1)^n times oscillatory ones
    osc = build_table(OSC, (1.0, 0.0), nu, n)
    mod = build_table(MOD, (1.0, 0.0), nu, n)
    for o, m in zip(osc.entries, mod.entries):
        sign = -1.0 if o.n % 2 else 1.0
        assert m.a == sign * o.a and m.b == sign * o.b


# ---------------------------------------------------------------- evaluation

def test_eval_zero_order_is_j0():
    r = eval_pair(OSC, 0.0, 1.0, 1e-15)
    assert r.cos_part == pytest.approx(0.7651976865579666, abs=5e-16)
    assert r.sin_part == 0.0
    assert r.d_sin == 0.0


def test_eval_zero_order_is_i0():
    r = eval_pair(MOD, 0.0, 1.0, 1e-15)
    assert r.cos_part == pytest.approx(1.2660658777520084, abs=5e-16)
    assert r.sin_part == 0.0


def test_eval_matches_normalized_oracle_value():
    r = eval_pair(OSC, 1.0, 1.0, 1e-14)
    gold_cos, gold_sin = oracle_pair(OSC, 1.0, 1.0)
    assert abs(r.cos_part - gold_cos) <= r.tail_bound + 1e-13
    assert abs(r.sin_part - gold_sin) <= r.tail_bound + 1e-13


@pytest.mark.parametrize("kind", [OSC, MOD])
@pytest.mark.parametrize("nu", [-2.0, -0.5, 0.7, 2.0])
@pytest.mark.parametrize("x", [0.2, 1.0, 2.0])
def test_oracle_equivalence_grid(kind, nu, x):
    r = eval_pair(kind, nu, x, 1e-13)
    gold_cos, gold_sin = oracle_pair(kind, nu, x)
    assert abs(r.cos_part - gold_cos) <= r.tail_bound + 1e-13
    assert abs(r.sin_part - gold_sin) <= r.tail_bound + 1e-13


@pytest.mark.parametrize("kind", [OSC, MOD])
def test_derivatives_enclosed_by_their_bound(kind):
    for nu in (0.0, 1.0, 1.9):
        for x in (0.3, 1.0, 2.0):
            r = eval_pair(kind, nu, x, 1e-13)
            gold = oracle_pair_derivs_hp(kind, nu, x)
            assert abs(r.d_cos - float(gold.re)) <= r.d_tail_bound + 1e-11 * (1 + abs(r.d_cos))
            assert abs(r.d_sin - float(gold.im)) <= r.d_tail_bound + 1e-11 * (1 + abs(r.d_sin))


def test_eval_symmetry_in_nu():
    # cosine-type even in nu, sine-type odd
    for kind in (OSC, MOD):
        for nu in (0.5, 1.7):
            for x in (0.3, 1.5):
                plus = eval_pair(kind, nu, x, 1e-13)
                minus = eval_pair(kind, -nu, x, 1e-13)
                assert minus.cos_part == pytest.approx(plus.cos_part, rel=1e-14, abs=1e-15)
                assert minus.sin_part == pytest.approx(-plus.sin_part, rel=1e-14, abs=1e-15)


def test_eval_domain_and_tolerance_errors():
    with pytest.raises(DomainError):
        eval_pair(OSC, 1.0, 0.0, 1e-12)
    with pytest.raises(DomainError):
        eval_pair(OSC, 1.0, -1.0, 1e-12)
    with pytest.raises(DomainError):
        eval_pair(OSC, 1.0, 1.0, 0.0)
    with pytest.raises(ToleranceError):
        eval_pair(OSC, 1.0, 1.0, 1e-18)


def test_eval_terms_override():
    r = eval_pair(OSC, 1.0, 1.0, terms=5)
    assert r.terms_used == 5
    with pytest.raises(DomainError):
        eval_pair(OSC, 1.0, 1.0, terms=0)


def test_eval_rejects_a_kind_that_is_not_a_kind():
    # nothing but a Kind may select an equation (no oscillatory default)
    for bad in ("modified", "mod", None, 1):
        with pytest.raises(DomainError):
            eval_pair(bad, 1.0, 1.0)
        with pytest.raises(DomainError):
            build_table(bad, (1.0, 0.0), 1.0, 4)
        with pytest.raises(DomainError):
            oracle_pair_hp(bad, 1.0, 1.0)
        with pytest.raises(DomainError):
            truncated_pair_hp(bad, 1.0, 1.0, 4)


def test_eval_rejects_bad_term_counts():
    # a forced count is an int in 1..MAX_TERMS, never a bool or a float
    for bad in (True, False, 3.5, 4.0, "4", MAX_TERMS + 1, 10 ** 6):
        with pytest.raises(DomainError):
            eval_pair(OSC, 1.0, 1.0, terms=bad)
    assert eval_pair(OSC, 1.0, 1.0, terms=MAX_TERMS).terms_used == MAX_TERMS


def test_eval_never_returns_non_finite_values():
    # w^n overflows against an underflowed coefficient (inf * 0 = NaN)
    with pytest.raises(ToleranceError):
        eval_pair(MOD, 1.0, 1000.0, terms=400)
    # nu/x and 2/x overflow the derivatives
    for x in (1e-309, 5e-324):
        with pytest.raises(ToleranceError):
            eval_pair(OSC, 1.0, x)


def test_searched_count_is_the_first_that_meets_tol():
    # The kernel chooses N: forcing the count it chose gives the same
    # result byte for byte, and the kernel capped one step earlier has
    # not yet met tol.
    def pack(r):
        return struct.pack("<7d", r.cos_part, r.sin_part, r.d_cos, r.d_sin,
                           r.terms_used, r.tail_bound, r.d_tail_bound)

    checked = 0
    for kind, modified in ((OSC, False), (MOD, True)):
        for nu in (0.0, -0.0, 0.5, 2.0, 2.0000001, -2.5, 3.4):
            for x in (1e-12, 0.03, 0.7, 2.0, 2.0001, 9.5, 17.0, 40.0):
                for tol in (1e-6, 1e-12):
                    try:
                        r = eval_pair(kind, nu, x, tol)
                    except ToleranceError:
                        continue
                    n = r.terms_used
                    case = (kind, nu, x, tol)
                    assert pack(eval_pair(kind, nu, x, tol, terms=n)) == pack(r), case
                    if n > 1:
                        w = (0.5 * x) * (0.5 * x)
                        out = _backend.series_sums(modified, 1.0, 0.0, nu, w, n - 1, tol)
                        assert out[5] == n - 1 and out[6] > tol, case
                    checked += 1
    assert checked >= 150


def test_large_argument_refuses_tight_tol_but_computes_with_terms():
    with pytest.raises(ToleranceError):
        eval_pair(OSC, 1.0, 30.0, 1e-12)
    r = eval_pair(OSC, 1.0, 30.0, terms=60)
    assert math.isfinite(r.cos_part)
    assert r.tail_bound > 1e-8  # cancellation allowance dominates here


def test_ode_residual_across_grid():
    # second derivative by central-differencing the analytic first
    # derivative; step scales below x = 1 to stay in the asymptotic range
    xs = [0.1 * 50 ** (i / 11) for i in range(12)]
    for kind in (OSC, MOD):
        sign = 1.0 if kind is OSC else -1.0
        for nu in (-3.0, -1.0, 0.0, 0.5, 2.0, 3.0):
            for x in xs:
                h = 1e-4 * min(x, 1.0)
                r = eval_pair(kind, nu, x, 1e-12)
                rp = eval_pair(kind, nu, x + h, 1e-12)
                rm = eval_pair(kind, nu, x - h, 1e-12)
                for y, dy, dyp, dym in (
                    (r.cos_part, r.d_cos, rp.d_cos, rm.d_cos),
                    (r.sin_part, r.d_sin, rp.d_sin, rm.d_sin),
                ):
                    ypp = (dyp - dym) / (2 * h)
                    res = x * x * ypp + x * dy + (sign * x * x + nu * nu) * y
                    assert abs(res) <= 1e-6 * (1 + abs(y)), (kind, nu, x, res)


# ----------------------------------------------------------------- Wronskian

def test_wronskian_zero_order_is_exact():
    for kind in (OSC, MOD):
        for x in (0.2, 1.0, 4.0):
            assert wronskian_residual(kind, 0.0, x) == 0.0


def test_wronskian_unit_order():
    assert abs(wronskian_residual(OSC, 1.0, 1.0, 1e-14)) <= 1e-10


def test_wronskian_value_against_nu_over_x():
    r = eval_pair(OSC, 2.0, 0.5, 1e-13)
    w = r.cos_part * r.d_sin - r.sin_part * r.d_cos
    assert w == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("kind", [OSC, MOD])
def test_wronskian_residual_grid(kind):
    xs = [0.1 * 50 ** (i / 19) for i in range(20)]
    for nu in (0.1, 1.0, 2.0, 3.0):
        for x in xs:
            res = wronskian_residual(kind, nu, x, 1e-12)
            assert abs(res) <= 1e-10 * (1 + nu / x)


# ------------------------------------------------------------------- limits

def test_small_order_limits():
    nu = 1e-4
    xs = [0.1 * 20 ** (i / 19) for i in range(20)]
    for x in xs:
        osc = eval_pair(OSC, nu, x, 1e-12)
        mod = eval_pair(MOD, nu, x, 1e-12)
        j0 = oracle_pair(OSC, 0.0, x)[0]
        i0 = oracle_pair(MOD, 0.0, x)[0]
        assert abs(osc.cos_part - j0) <= 1e-6
        assert abs(mod.cos_part - i0) <= 1e-6
        # the sine-type solutions vanish linearly in nu, with both a
        # log term and a bounded series term in the slope
        assert abs(osc.sin_part) <= 3 * nu * (1 + abs(math.log(x)))
        assert abs(mod.sin_part) <= 3 * nu * (1 + abs(math.log(x)))


def test_small_argument_asymptotics():
    x = 1e-6
    for nu in (0.5, 1.0, 2.0):
        for kind in (OSC, MOD):
            r = eval_pair(kind, nu, x, 1e-12)
            assert abs(r.sin_part - math.sin(nu * math.log(x))) <= 1e-11
            assert abs(r.cos_part - math.cos(nu * math.log(x))) <= 1e-11


# ------------------------------------------------------------ gamma modulus

def test_gamma_modulus_unit_order():
    # sqrt(pi / sinh(pi)), frozen from the extended-precision oracle
    assert gamma_modulus_imag(1.0) == pytest.approx(0.5215640468649398, rel=1e-13)


def test_gamma_modulus_order_two():
    # sqrt(pi / (2 sinh(2 pi))), frozen from the extended-precision oracle
    assert gamma_modulus_imag(2.0) == pytest.approx(0.0765948093956173, rel=1e-13)


def test_gamma_modulus_matches_oracle():
    for nu in (0.3, 1.0, 2.5):
        g = hp_gamma(0.0, nu)
        mod_oracle = float((g.re * g.re + g.im * g.im) ** 0.5)
        assert gamma_modulus_imag(nu) == pytest.approx(mod_oracle, rel=1e-12)


def test_gamma_modulus_small_order_growth():
    nu = 1e-6
    assert gamma_modulus_imag(nu) * nu == pytest.approx(1.0, abs=1e-8)
    # stays stable far below the exp(-2 pi nu) rounding threshold
    assert gamma_modulus_imag(1e-18) * 1e-18 == pytest.approx(1.0, rel=1e-12)
    assert gamma_modulus_imag(1e-300) * 1e-300 == pytest.approx(1.0, rel=1e-12)
    assert gamma_modulus_imag(5e-324) == math.inf


def test_gamma_modulus_even_and_pole():
    assert gamma_modulus_imag(-1.3) == gamma_modulus_imag(1.3)
    with pytest.raises(DomainError):
        gamma_modulus_imag(0.0)
