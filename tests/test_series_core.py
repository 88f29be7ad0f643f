"""Tests for the recurrence, evaluation, Wronskian and limit behavior."""

import hashlib
import math
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from imbessel import (
    MAX_TERMS,
    DomainError,
    Kind,
    PairResult,
    ToleranceError,
    _backend,
    _rows,
    eval_pair,
    gamma_modulus_imag,
    oracle_pair,
    oracle_pair_derivs_hp,
    oracle_pair_hp,
    wronskian_residual,
)
from imbessel.error_bounds import derivative_tail_bound, tail_bound
from references import coefficients_hp, hp_gamma, truncated_pair_hp
from imbessel._rows import _eval_row

OSC = Kind.OSCILLATORY
MOD = Kind.MODIFIED


# ---------------------------------------------------------------- recurrence
#
# Coefficients come from the extended-precision recurrence of the oracle
# (the one `truncated_pair_hp` sums); the kernel is checked against it in
# tests/test_backend.py.

def first_step(kind, nu, seed):
    return tuple(float(v) for v in coefficients_hp(kind, nu, seed, 1)[0])


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.0, 2.5, -1.7])
def test_first_oscillatory_step_from_sine_seed(nu):
    a, b = first_step(OSC, nu, (0.0, 1.0))
    assert a == pytest.approx(nu / (1 + nu * nu), rel=1e-15)
    assert b == pytest.approx(-1.0 / (1 + nu * nu), rel=1e-15)


def test_oscillatory_zero_order_reproduces_alternating_squares():
    # seed (1, 0), nu = 0: a_n = (-1)^n / (n!)^2, b stays zero
    pairs = coefficients_hp(OSC, 0.0, (1.0, 0.0), 7)
    assert pairs[0] == (-1, 0)
    assert pairs[1] == (mpf(1) / 4, 0)
    for n, (a, b) in enumerate(pairs, start=1):
        assert float(a) == pytest.approx((-1.0) ** n / math.factorial(n) ** 2, rel=1e-15)
        assert b == 0


def test_oscillatory_step_unit_order():
    a, b = first_step(OSC, 1.0, (1.0, 0.0))
    assert a == pytest.approx(-0.5, rel=1e-15)
    assert b == pytest.approx(-0.5, rel=1e-15)


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.5, -1.7])
def test_first_modified_step_from_sine_seed(nu):
    a, b = first_step(MOD, nu, (0.0, 1.0))
    assert a == pytest.approx(-nu / (1 + nu * nu), rel=1e-15)
    assert b == pytest.approx(1.0 / (1 + nu * nu), rel=1e-15)


def test_modified_zero_order_loses_alternating_sign():
    for n, (a, b) in enumerate(coefficients_hp(MOD, 0.0, (1.0, 0.0), 7), start=1):
        assert float(a) == pytest.approx(1.0 / math.factorial(n) ** 2, rel=1e-15)
        assert b == 0


def test_modified_two_steps_unit_order():
    (a1, b1), (a2, b2) = coefficients_hp(MOD, 1.0, (0.0, 1.0), 2)
    assert (a1, b1) == (-0.5, 0.5)
    assert float(a2) == pytest.approx(-3.0 / 20.0, rel=1e-15)
    assert float(b2) == pytest.approx(1.0 / 20.0, rel=1e-15)


def coefficient_table(kind, seed, nu, n_terms):
    """The seed followed by its first `n_terms` exact steps, as floats."""
    steps = coefficients_hp(kind, nu, seed, n_terms)
    return [tuple(seed)] + [(float(a), float(b)) for a, b in steps]


def test_build_table_zero_order_cosine_seed():
    table = coefficient_table(OSC, (1.0, 0.0), 0.0, 3)
    assert [a for a, _ in table] == pytest.approx([1.0, -1.0, 0.25, -1.0 / 36.0])
    assert table[0] == (1.0, 0.0)


def test_build_table_modified_example():
    got = coefficient_table(MOD, (0.0, 1.0), 1.0, 2)
    assert got[0] == (0.0, 1.0)
    assert got[1] == (pytest.approx(-0.5), pytest.approx(0.5))
    assert got[2] == (pytest.approx(-3.0 / 20.0), pytest.approx(1.0 / 20.0))


@settings(max_examples=50, deadline=None)
@given(nu=st.floats(-4.0, 4.0), n=st.integers(1, 60))
def test_parity_of_tables_in_nu(nu, n):
    # cosine seed: a even in nu, b odd; sine seed: a odd, b even.  Exact
    # equality holds because negation is exact (compared at a precision
    # above the coefficients', so that the negation does not round).
    with mp.workdps(100):
        for kind in (OSC, MOD):
            plus = coefficients_hp(kind, nu, (1.0, 0.0), n)
            minus = coefficients_hp(kind, -nu, (1.0, 0.0), n)
            for (pa, pb), (ma, mb) in zip(plus, minus):
                assert pa == ma and pb == -mb
            plus = coefficients_hp(kind, nu, (0.0, 1.0), n)
            minus = coefficients_hp(kind, -nu, (0.0, 1.0), n)
            for (pa, pb), (ma, mb) in zip(plus, minus):
                assert pa == -ma and pb == mb


@settings(max_examples=50, deadline=None)
@given(nu=st.floats(-4.0, 4.0), n=st.integers(1, 60))
def test_quarter_turn_links_the_two_kinds(nu, n):
    # with equal seeds, modified coefficients are (-1)^n times oscillatory ones
    with mp.workdps(100):
        osc = coefficients_hp(OSC, nu, (1.0, 0.0), n)
        mod = coefficients_hp(MOD, nu, (1.0, 0.0), n)
        for k, ((oa, ob), (ma, mb)) in enumerate(zip(osc, mod), start=1):
            sign = -1 if k % 2 else 1
            assert ma == sign * oa and mb == sign * ob


@settings(max_examples=200, deadline=None)
@given(nu=st.floats(-20.0, 20.0), x=st.floats(1e-6, 60.0), n=st.integers(1, 120),
       stop=st.sampled_from([-1.0, 1e-6, 1e-12]))
def test_negating_nu_conjugates_the_kernel_sums(nu, x, n, stop):
    # -nu gives (p, -q, dp, -dq), with the step count, tails and
    # round-off bounds unchanged: the recurrence only changes signs, so
    # every field is the same double (a zero may change sign)
    w = (0.5 * x) * (0.5 * x)
    for modified in (0, 1):
        plus = _backend.series_sums(modified, nu, w, n, stop)
        minus = _backend.series_sums(modified, -nu, w, n, stop)
        assert minus == (plus[0], -plus[1], plus[2], -plus[3]) + plus[4:], modified


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


def test_pair_result_is_an_immutable_named_tuple():
    # the CLI writes r[:6] through a row template that takes terms_used
    # as an int, so the field order and that type are part of the contract
    fields = ("cos_part", "sin_part", "d_cos", "d_sin", "terms_used", "tail_bound",
              "d_tail_bound")
    assert PairResult._fields == fields
    r = eval_pair(OSC, 1.5, 2.0, 1e-12)
    assert r[:6] == (r.cos_part, r.sin_part, r.d_cos, r.d_sin, r.terms_used, r.tail_bound)
    assert tuple(r) == tuple(getattr(r, name) for name in fields)
    with pytest.raises(AttributeError):
        r.cos_part = 0.0
    again = eval_pair(OSC, 1.5, 2.0, 1e-12)
    assert again == r and hash(again) == hash(r)
    # searched, forced, forced before the ratio falls below 1 (a-priori
    # fallback) and below the normal range, searched and forced
    for kind in (OSC, MOD):
        for x, terms in ((2.0, None), (2.0, 7), (30.0, 3), (1e-200, None), (1e-200, 3)):
            assert type(eval_pair(kind, 1.0, x, 1e-12, terms=terms).terms_used) is int


def test_eval_rejects_a_kind_that_is_not_a_kind():
    # nothing but a Kind may select an equation (no oscillatory default)
    for bad in ("modified", "mod", None, 1):
        with pytest.raises(DomainError):
            eval_pair(bad, 1.0, 1.0)
        with pytest.raises(DomainError):
            coefficients_hp(bad, 1.0, (1.0, 0.0), 4)
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


def test_eval_pair_checks_its_arguments_in_order():
    # several bad arguments at once: the first in the order kind, nu, x,
    # tol, terms, nu^2 is the one reported, with its own message
    cases = (
        (("osc", math.nan, -1.0, -1.0, 0), DomainError, "kind must be a Kind, got 'osc'"),
        ((OSC, math.nan, -1.0, -1.0, 0), DomainError, "nu must be finite, got nan"),
        ((OSC, 1e200, math.inf, -1.0, 0), DomainError, "x must be finite, got inf"),
        ((OSC, 1e200, -1.0, -1.0, 0), DomainError, "x must be > 0"),
        ((OSC, 1e200, 1.0, -1.0, 0), DomainError, "tol must be > 0, got -1.0"),
        ((OSC, 1e200, 1.0, 1e-12, 0), DomainError, f"terms must be in 1..{MAX_TERMS}, got 0"),
        ((OSC, 1e200, 1.0, 1e-12, 2.0), DomainError, "terms must be an int, got 2.0"),
        ((OSC, 1e200, 1.0, 1e-12, None), ToleranceError,
         "nu=1e+200 is beyond the double range (nu^2 overflows)"),
    )
    for (kind, nu, x, tol, terms), error, message in cases:
        with pytest.raises(error) as exc:
            eval_pair(kind, nu, x, tol, terms=terms)
        assert str(exc.value) == message
        # the row checks the order first and then each x
        if x == 1.0:
            with pytest.raises(error) as exc:
                _eval_row(kind, nu, [math.nan, x], tol, terms=terms)
            assert str(exc.value) == message
    _assert_rows_refuse_x_as_eval_pair((-1.0, 0.0, -0.0, math.inf, -math.inf, 10 ** 400))


def _assert_rows_refuse_x_as_eval_pair(bad_xs):
    # each bad x at every position of a row of good ones, both kinds,
    # searched and forced: the row raises eval_pair's refusal of that x
    good = [0.5, 2.0, 7.0]
    for bad in bad_xs:
        with pytest.raises(DomainError) as want:
            eval_pair(OSC, 1.0, bad)
        for kind in (OSC, MOD):
            for i in range(len(good) + 1):
                xs = good[:i] + [bad] + good[i:]
                for terms in (None, 12):
                    with pytest.raises(DomainError) as exc:
                        _eval_row(kind, 1.0, xs, 1e-12, terms=terms)
                    assert str(exc.value) == str(want.value), (kind, bad, i, terms)


def test_eval_pair_names_an_argument_that_is_not_a_real_number():
    # in the check order nu, x, tol; a row checks nu and tol, then each x
    cases = (
        ((OSC, "1", 1.0), "nu must be a real number, got '1'"),
        ((OSC, 1.0, None), "x must be a real number, got None"),
        ((OSC, 1j, 1.0), "nu must be a real number, got 1j"),
        ((OSC, 1.0, 1.0, "1e-8"), "tol must be a real number, got '1e-8'"),
        ((OSC, 1.0, "1", math.nan), "x must be a real number, got '1'"),
        ((OSC, math.nan, "1"), "nu must be finite, got nan"),
        ((OSC, 1.0, -1.0, "1e-8"), "x must be > 0"),
    )
    for args, message in cases:
        with pytest.raises(DomainError) as exc:
            eval_pair(*args)
        assert str(exc.value) == message
    for args, message in (
        ((OSC, "1", [1.0]), "nu must be a real number, got '1'"),
        ((OSC, 1.0, [1.0, None, "1"]), "x must be a real number, got None"),
        ((OSC, 1.0, [math.nan, None]), "x must be finite, got nan"),
        ((OSC, 1.0, [None], "1e-8"), "tol must be a real number, got '1e-8'"),
    ):
        with pytest.raises(DomainError) as exc:
            _eval_row(*args)
        assert str(exc.value) == message
    _assert_rows_refuse_x_as_eval_pair((math.nan, None, "1", 1j))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (DomainError, ToleranceError) as exc:
        return exc


def _bits(values):
    return tuple(struct.pack("<q", v) if type(v) is int else struct.pack("<d", v)
                 for v in values)


# ---------------------------------------------------------------- rows
#
# A searched row sums each x from the order's coefficients (see
# "Order-major rows" in `_backend`), so its values are not `eval_pair`'s
# bytes: they must enclose the oracle on their own bounds, agree with
# `eval_pair` within both bounds and take its counts.  Forced rows, and
# the points a row cannot sum, are `eval_pair`'s bit for bit.

ROW_TOLS = (1e-6, 1e-10, 1e-12)


def _row_requests():
    # both kinds, |nu| <= 20, x log-uniform on [1e-3, 20], each tolerance;
    # 2 x 3 x 6 rows of 10 points, with the points eval_pair refuses
    # (large x at small tol) left out so that each row answers
    rng = random.Random("row-requests")
    rows = []
    for kind in (OSC, MOD):
        for tol in ROW_TOLS:
            for _ in range(6):
                nu = rng.choice((0.0, rng.uniform(-20.0, 20.0), rng.uniform(-3.0, 3.0)))
                xs = [math.exp(rng.uniform(math.log(1e-3), math.log(20.0))) for _ in range(10)]
                xs = [x for x in xs if not isinstance(_outcome(eval_pair, kind, nu, x, tol),
                                                      Exception)]
                rows.append((kind, nu, xs, tol))
    return rows


_ROWS = _row_requests()


def test_searched_rows_enclose_the_oracle_without_slack():
    from imbessel.oracle import _gold_grid

    # the sample keeps enough answered points across its ranges
    assert sum(len(xs) for *_, xs, _ in _ROWS) >= 300
    assert max(abs(nu) for _, nu, _, _ in _ROWS) > 15.0
    assert max(x for _, _, xs, _ in _ROWS for x in xs) > 10.0
    misses = []
    for kind, nu, xs, tol in _ROWS:
        row = _eval_row(kind, nu, xs, tol)
        gold = _gold_grid(kind, [nu], xs, 50, hp=True)[0]
        d_gold = _gold_grid(kind, [nu], xs, 50, derivative=True, hp=True)[0]
        for x, r, g, d in zip(xs, row, gold, d_gold):
            err = max(abs(mpf(r[0]) - g.re), abs(mpf(r[1]) - g.im))
            d_err = max(abs(mpf(r[2]) - d.re), abs(mpf(r[3]) - d.im))
            if not (err <= mpf(r[5]) and d_err <= mpf(r[6])):
                misses.append((kind.value, nu, x, tol, float(err), r[5], float(d_err), r[6]))
    assert misses == []


def test_searched_rows_agree_with_eval_pair_within_both_bounds():
    for kind, nu, xs, tol in _ROWS:
        row = _eval_row(kind, nu, xs, tol)
        for x, r in zip(xs, row):
            single = eval_pair(kind, nu, x, tol)
            assert type(r) is tuple and type(r[4]) is int
            for i, b in ((0, 5), (1, 5), (2, 6), (3, 6)):
                assert abs(r[i] - single[i]) <= r[b] + single[b], (kind, nu, x, tol, i)


def test_searched_rows_take_eval_pairs_counts():
    for kind, nu, xs, tol in _ROWS:
        counts = [r[4] for r in _eval_row(kind, nu, xs, tol)]
        assert counts == [eval_pair(kind, nu, x, tol).terms_used for x in xs], (kind, nu, tol)


def test_row_rotation_and_bounds_are_eval_pairs_on_the_rows_sums(monkeypatch):
    # `_eval_row` hands the row's sums to `_point` in place of the
    # kernel's, regime test included; given those sums from the kernel
    # instead, eval_pair returns the row's bytes
    for kind, nu, xs, tol in _ROWS[::4]:
        row = _eval_row(kind, nu, xs, tol)
        for x, r, sums in zip(xs, row, _rows.row_sums(kind is MOD, nu, xs, tol)):
            monkeypatch.setattr(_backend, "series_sums", lambda *args, **kwargs: sums)
            assert _bits(eval_pair(kind, nu, x, tol)) == _bits(r), (kind, nu, x, tol)


def _row_fallbacks(kind, nu, xs, tol):
    # which points `row_sums` hands back to the scalar path
    return [sums is None for sums in _rows.row_sums(kind is MOD, nu, xs, tol)]


# x reaches down to the least subnormal: below ~1e-150 w^k leaves the
# normal range, and `eval_pair` takes the branch where r_N does
_ROW_X = st.one_of(st.floats(5e-324, 1e-150), st.floats(1e-150, 40.0))


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from([OSC, MOD]),
       nu=st.one_of(st.sampled_from([0.0, -0.0, 1e150, -1e150]), st.floats(-30.0, 30.0)),
       xs=st.lists(_ROW_X, min_size=1, max_size=6),
       tol=st.sampled_from([1e-6, 1e-12, 1e-17]),
       terms=st.one_of(st.none(), st.integers(1, MAX_TERMS)))
# x = 1e-300 among ordinary points; orders of 1e150, whose table ends
# after c_1 and whose r_N leaves the normal range at small x; forced
# counts, which never take the row
@example(kind=OSC, nu=1.5, xs=[0.25, 1e-300, 3.0, 1e-300, 7.5], tol=1e-12, terms=None)
@example(kind=OSC, nu=1e150, xs=[1e-5, 1.0, 1e73, 3.0], tol=1e-12, terms=None)
@example(kind=MOD, nu=-1e150, xs=[1e73, 1e-5, 0.5], tol=1e-12, terms=None)
@example(kind=OSC, nu=2.5, xs=[0.01, 1e-300, 4.0, 25.0], tol=1e-12, terms=12)
@example(kind=MOD, nu=-0.0, xs=[5e-324, 1e-200, 1e-160, 0.5, 3.0], tol=1e-12, terms=None)
# refusals after points that answer: an unreachable tolerance
# (oscillatory x = 40 at 1e-12), and one below the round-off floor
@example(kind=OSC, nu=0.5, xs=[1.0, 3.0, 40.0, 0.5], tol=1e-12, terms=None)
@example(kind=MOD, nu=2.0, xs=[0.1, 40.0, 1e-300], tol=1e-12, terms=None)
@example(kind=OSC, nu=1.5, xs=[1e-3, 2.0], tol=1e-17, terms=None)
@example(kind=MOD, nu=-3.0, xs=[0.5, 1e-300, 2.0], tol=1e-17, terms=None)
def test_rows_fall_back_to_eval_pair_bit_for_bit(kind, nu, xs, tol, terms):
    # a forced row, and each point a searched row hands to the scalar
    # path, is `eval_pair`'s bytes; the other points take its counts and
    # agree within both bounds; a row raises the refusal `eval_pair`
    # raises at its first failing point
    singles = [_outcome(eval_pair, kind, nu, x, tol, terms=terms) for x in xs]
    row = _outcome(_eval_row, kind, nu, xs, tol, terms=terms)
    first = next((r for r in singles if isinstance(r, Exception)), None)
    if first is not None:
        assert type(row) is type(first) and str(row) == str(first)
        return
    scalar = [True] * len(xs) if terms else _row_fallbacks(kind, nu, xs, tol)
    for r, single, fallback in zip(row, singles, scalar):
        assert type(r) is tuple and type(r[4]) is int
        if fallback:
            assert _bits(r) == _bits(single)
        else:
            assert r[4] == single.terms_used
            for i, b in ((0, 5), (1, 5), (2, 6), (3, 6)):
                assert abs(r[i] - single[i]) <= r[b] + single[b]


def test_rows_hand_only_sums_past_the_table_to_the_scalar_path():
    # the row sums w^k below the normal range, and an order whose c_2 is
    # below `_C_MIN` at an x whose r_N is below the normal range; only a
    # sum past the table goes back: x = 1e73 past c_1 of nu = 1e150, and
    # x = 80 past the 93 coefficients of nu = 0
    assert _row_fallbacks(OSC, 1.5, [0.25, 1e-300], 1e-12) == [False, False]
    assert _row_fallbacks(OSC, 1e150, [1e-5, 1.0, 1e73], 1e-12) == [False, False, True]
    assert _row_fallbacks(MOD, 0.0, [40.0, 80.0], 1e-12) == [False, True]


@pytest.mark.parametrize("kind", [OSC, MOD])
def test_rows_answer_below_the_normal_range_like_eval_pair(kind):
    # x down to the least subnormal and orders up to 1e150, where w^N or
    # r_N leaves the normal range: the row sums every point `eval_pair`
    # answers, takes its counts, and its bounds enclose the oracle with
    # no slack (`_point`'s below-normal-range bound on the row's sums)
    from imbessel.oracle import _gold_grid

    points = 0
    for nu in (0.0, -0.0, 1.5, -1e100, 1e150):
        singles = [(x, _outcome(eval_pair, kind, nu, x, 1e-12))
                   for x in (5e-324, 1e-300, 1e-160, 1e-140, 1e-5)]
        xs = [x for x, r in singles if not isinstance(r, Exception)]
        points += len(xs)
        assert None not in list(_rows.row_sums(kind is MOD, nu, xs, 1e-12)), nu
        row = _eval_row(kind, nu, xs, 1e-12)
        gold = _gold_grid(kind, [nu], xs, 50, hp=True)[0]
        d_gold = _gold_grid(kind, [nu], xs, 50, derivative=True, hp=True)[0]
        for x, r, g, d in zip(xs, row, gold, d_gold):
            assert r[4] == eval_pair(kind, nu, x, 1e-12).terms_used, (nu, x)
            err = max(abs(mpf(r[0]) - g.re), abs(mpf(r[1]) - g.im))
            d_err = max(abs(mpf(r[2]) - d.re), abs(mpf(r[3]) - d.im))
            assert err <= mpf(r[5]) and d_err <= mpf(r[6]), (nu, x, r)
    assert points == 19


#: sha256 of all seven fields over `_pinned_requests()`, or of a refusal's
#: class name: any change to a returned byte in the benchmark's scalar
#: ranges, or below the normal range, shows here
_PAIR_DIGEST = "fba1a651403a68b4de95dd749a10c4678e8646c4e2ef35e8483a6085a4876feb"


def _pinned_requests():
    # the benchmark's scalar ranges: both kinds, nu in [0, 3.5], x
    # log-uniform on [1e-2, 10], the `point` tolerances searched and the
    # `sweep` counts 8, 16, ..., 64 forced
    rng = random.Random("pair-result-pin")
    requests = []
    for i in range(1200):
        kind = (OSC, MOD)[i % 2]
        nu = rng.uniform(0.0, 3.5)
        x = math.exp(rng.uniform(math.log(1e-2), math.log(10.0)))
        if i % 4 < 2:
            requests.append((kind, nu, x, (1e-6, 1e-10, 1e-12)[rng.randrange(3)], None))
        else:
            requests.append((kind, nu, x, 1e-12, 8 * rng.randint(1, 8)))
    # and the below-normal-range regime of `_point`: x log-uniform on
    # [5e-324, 1e-150], orders 0, -0, the least subnormal, log-uniform on
    # 1e-300..1e154 of either sign, or uniform on [-40, 40], searched at
    # 1e-16..10 and forced at 1..400 terms
    for i in range(1200):
        kind = (OSC, MOD)[i % 2]
        nu = (0.0, -0.0, 5e-324,
              math.copysign(10.0 ** rng.uniform(-300.0, 154.0), rng.uniform(-1.0, 1.0)),
              rng.uniform(-40.0, 40.0))[rng.randrange(5)]
        x = math.exp(rng.uniform(math.log(5e-324), math.log(1e-150)))
        if i % 4 < 2:
            requests.append((kind, nu, x, 10.0 ** rng.uniform(-16.0, 1.0), None))
        else:
            requests.append((kind, nu, x, 1e-12, rng.randint(1, MAX_TERMS)))
    return requests


def test_pair_result_bytes_are_pinned():
    # all seven fields, where the benchmark's `point` digest covers only
    # terms_used, cos_part and sin_part
    digest = hashlib.sha256()
    for kind, nu, x, tol, terms in _pinned_requests():
        r = _outcome(eval_pair, kind, nu, x, tol, terms=terms)
        digest.update(type(r).__name__.encode() if isinstance(r, Exception)
                      else struct.pack("<ddddqdd", *r))
    assert digest.hexdigest() == _PAIR_DIGEST


#: sha256 of both doubles of `oracle_pair` over `_pinned_oracle_points()`:
#: the gold values every accuracy test is held to
_ORACLE_DIGEST = "9631cf81be7c3c5190b2e00058b1d7980bbd37258d1fd74ff9b630bed5a534bf"


def _pinned_oracle_points():
    # both kinds; orders uniform on [0, 3.5] (the benchmark's) and on
    # [-40, 40], and log-uniform on 1e-40..1e150 of either sign, where
    # the sine-type part still holds digits; x log-uniform on [1e-3,
    # 22.62], where the oracle sums 0F1 itself, and for one point in
    # four of the first two, uniform on [22.63, 30], where mpmath's
    # hyp0f1 does
    rng = random.Random("oracle-pin")
    points = []
    for i in range(200):
        kind = (OSC, MOD)[i % 2]
        if i % 4 == 0:
            nu = rng.uniform(0.0, 3.5)
        elif i % 4 == 1:
            nu = rng.uniform(-40.0, 40.0)
        else:
            nu = math.copysign(10.0 ** rng.uniform(-40.0, 150.0), rng.uniform(-1.0, 1.0))
        if i % 8 < 2:
            x = rng.uniform(22.63, 30.0)
        else:
            x = math.exp(rng.uniform(math.log(1e-3), math.log(22.62)))
        points.append((kind, nu, x))
    # and past 22.63 up to 1e300, orders uniform on [-100, 100] or on
    # [0, 3.5], x log-uniform on [22.63, 1e4] or on [22.63, 1e300]
    for i in range(48):
        kind = (OSC, MOD)[i % 2]
        nu = rng.uniform(-100.0, 100.0) if i % 4 < 2 else rng.uniform(0.0, 3.5)
        x = math.exp(rng.uniform(math.log(22.63), math.log((1e4, 1e300)[i % 3 == 0])))
        points.append((kind, nu, x))
    return points


def test_oracle_pair_bytes_are_pinned():
    digest = hashlib.sha256()
    for kind, nu, x in _pinned_oracle_points():
        digest.update(struct.pack("<dd", *oracle_pair(kind, nu, x)))
    assert digest.hexdigest() == _ORACLE_DIGEST


#: sha256 of all seven fields of every `_eval_row` tuple over
#: `_pinned_rows()`: the grid path's own bytes, which the agreement
#: tests above hold only within both bounds
_ROW_DIGEST = "0ae9b442742ea42b746f56d38f0e088fc2a9a13afb2e10acc691464ae5296ce6"


def _pinned_rows():
    # both kinds, orders in [0, 3.5] and [-20, 20], 40 x log-uniform on
    # [1e-2, 10], each row searched (tol 1e-6 or 1e-12) and forced (8,
    # 16, ..., 64 terms); then rows at the edges of the row path:
    # x = 1e-300, orders of 1e150 (the table ends after c_1; r_N leaves
    # the normal range at small x), and a forced row with x = 1e-300
    rng = random.Random("row-pin")
    rows = []
    for kind in (OSC, MOD):
        for i in range(12):
            nu = rng.uniform(0.0, 3.5) if i % 2 else rng.uniform(-20.0, 20.0)
            xs = [math.exp(rng.uniform(math.log(1e-2), math.log(10.0))) for _ in range(40)]
            rows.append((kind, nu, xs, (1e-6, 1e-12)[i % 3 == 0], None))
            rows.append((kind, nu, xs, 1e-12, 8 * rng.randint(1, 8)))
    rows += [
        (OSC, 1.5, [0.25, 1e-300, 3.0, 1e-300, 7.5], 1e-12, None),
        (OSC, 1e150, [1e-5, 1.0, 1e73, 3.0], 1e-12, None),
        (MOD, -1e150, [1e73, 1e-5, 0.5], 1e-6, None),
        (MOD, 0.0, [20.0, 1e-300, 2.0], 1e-6, None),
        (OSC, 2.5, [0.01, 1e-300, 4.0, 25.0], 1e-12, 12),
    ]
    return rows


def test_row_bytes_are_pinned():
    # searched rows are not eval_pair's bytes, so the PairResult pin does
    # not cover them
    digest = hashlib.sha256()
    scalar = 0
    for kind, nu, xs, tol, terms in _pinned_rows():
        if terms is None:
            scalar += sum(_row_fallbacks(kind, nu, xs, tol))
        for r in _eval_row(kind, nu, xs, tol, terms=terms):
            digest.update(struct.pack("<ddddqdd", *r))
    assert scalar == 1  # the searched points the scalar path takes
    assert digest.hexdigest() == _ROW_DIGEST


@pytest.mark.parametrize("kind", [OSC, MOD])
def test_forced_count_before_the_crossing_is_within_envelope(kind):
    # Where a forced count stops before the kernel's ratio falls below 1,
    # its tails are the step inequality carried on from the last term,
    # which the paper's envelope loosens.  Both bounds enclose the
    # oracle, and neither exceeds 1.1 times the a-priori bound plus the
    # round-off, taken as the bound at MAX_TERMS (no truncation left,
    # and more terms summed).  The a-priori bounds carry the same chain
    # from the product P_(N+1): over 400 seeded points with |nu| <= 20
    # and x <= 50 the largest ratio was 0.990, their 1.01 allowance.
    for nu, x, n in ((1.0, 20.0, 3), (-2.5, 12.0, 2), (0.0, 30.0, 5), (0.5, 40.0, 8),
                     (0.0, 7.635667033409572, 3), (12.0, 10.0, 1)):
        r = eval_pair(kind, nu, x, terms=n)
        full = eval_pair(kind, nu, x, terms=MAX_TERMS)
        gold = oracle_pair_hp(kind, nu, x)
        d_gold = oracle_pair_derivs_hp(kind, nu, x)
        err = max(abs(mpf(r.cos_part) - gold.re), abs(mpf(r.sin_part) - gold.im))
        d_err = max(abs(mpf(r.d_cos) - d_gold.re), abs(mpf(r.d_sin) - d_gold.im))
        assert err <= r.tail_bound and d_err <= r.d_tail_bound, (nu, x, n)
        assert r.tail_bound <= 1.1 * tail_bound(nu, x, n) + full.tail_bound, (nu, x, n)
        assert r.d_tail_bound <= 1.1 * derivative_tail_bound(nu, x, n) + full.d_tail_bound
    # past |nu| = 12.82, where the paper's m(nu) overflows
    r = eval_pair(kind, 20.0, 10.0, terms=1)
    full = eval_pair(kind, 20.0, 10.0, terms=MAX_TERMS)
    assert r.tail_bound <= 1.1 * tail_bound(20.0, 10.0, 1) + full.tail_bound
    assert r.d_tail_bound <= 1.1 * derivative_tail_bound(20.0, 10.0, 1) + full.d_tail_bound
    assert math.isfinite(r.tail_bound) and math.isfinite(r.d_tail_bound)


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
                        out = _backend.series_sums(modified, nu, w, n - 1, tol)
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
