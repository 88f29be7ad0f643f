"""No-slack enclosure: every reported bound covers the double-precision error.

`eval_pair` reports `tail_bound` and `d_tail_bound` as guaranteed bounds
on the error of the values it returns, round-off included.  These tests
measure that error exactly, as the difference between the returned
double and the extended-precision oracle, and require `err <= bound`
with no allowance on top.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from imbessel import (
    MAX_TERMS,
    DomainError,
    Kind,
    ToleranceError,
    derivative_tail_bound,
    eval_pair,
    oracle_pair_derivs_hp,
    oracle_pair_hp,
    tail_bound,
)

KINDS = (Kind.OSCILLATORY, Kind.MODIFIED)
FORCED = (1, 4, 8, 16, 32, 64)
TOLS = (1e-6, 1e-10, 1e-12)
SPECIAL_NUS = (0.0, -0.0, 2.0, -2.0)
TINY_XS = (1e-160, 1e-200, 1e-300)


def _points(seed, count):
    # (kind, nu, x) with nu uniform on [-6, 6] or one of the special
    # orders, x log-uniform on [1e-3, 30] or below the normal range of w
    rng = random.Random(seed)
    lo, hi = math.log(1e-3), math.log(30.0)
    points = []
    for i in range(count):
        kind = KINDS[i % 2]
        nu = rng.choice(SPECIAL_NUS) if rng.random() < 0.15 else rng.uniform(-6.0, 6.0)
        x = rng.choice(TINY_XS) if rng.random() < 0.06 else math.exp(rng.uniform(lo, hi))
        points.append((kind, nu, x))
    return points


def _misses(kind, nu, x, requests):
    """Evaluate each (tol, terms) request; return (misses, refusals)."""
    gold = oracle_pair_hp(kind, nu, x)
    d_gold = oracle_pair_derivs_hp(kind, nu, x)
    misses = []
    refusals = 0
    for tol, terms in requests:
        try:
            r = eval_pair(kind, nu, x, tol, terms=terms)
        except ToleranceError:
            refusals += 1
            continue
        err = max(abs(mpf(r.cos_part) - gold.re), abs(mpf(r.sin_part) - gold.im))
        d_err = max(abs(mpf(r.d_cos) - d_gold.re), abs(mpf(r.d_sin) - d_gold.im))
        case = (kind.value, nu, x, tol, terms, r.terms_used)
        if not err <= mpf(r.tail_bound):
            misses.append(("value", case, float(err), r.tail_bound))
        if not d_err <= mpf(r.d_tail_bound):
            misses.append(("derivative", case, float(d_err), r.d_tail_bound))
    return misses, refusals


def test_bounds_enclose_the_oracle_without_slack():
    # 200 seeded points, each with one searched and two forced counts:
    # 600 evaluations, values and derivatives
    rng = random.Random(20261018)
    misses = []
    evaluated = 0
    for kind, nu, x in _points(20261018, 200):
        requests = [(rng.choice(TOLS), None)]
        requests += [(1e-12, n) for n in rng.sample(FORCED, 2)]
        found, refused = _misses(kind, nu, x, requests)
        misses += found
        evaluated += len(requests) - refused
    assert evaluated >= 500
    assert not misses, f"{len(misses)} misses, first: {misses[:3]}"


def _rd(nu, x, n):
    # the exact derivative ratio (N + 1) rho_(N+1) / N after N steps; the
    # kernel carries its tails on where it is not below 1/2
    v = abs(nu)
    return (0.5 * x) ** 2 * (n + 1 + v) / (n * ((n + 1) ** 2 + nu * nu))


def test_forced_counts_before_the_crossing_are_enclosed_without_slack():
    # 60 seeded points (both kinds, |nu| <= 20, x <= 50), each with up to
    # three forced counts whose ratio has not fallen below 1
    rng = random.Random(20261019)
    misses = []
    evaluated = 0
    for i in range(60):
        kind = KINDS[i % 2]
        nu = rng.uniform(-20.0, 20.0)
        x = rng.uniform(2.5, 50.0)
        counts = [n for n in range(1, MAX_TERMS) if _rd(nu, x, n) >= 1.001]
        if not counts:
            continue
        requests = [(1e-12, n) for n in rng.sample(counts, min(3, len(counts)))]
        found, refused = _misses(kind, nu, x, requests)
        assert refused == 0
        misses += found
        evaluated += len(requests)
        for _, n in requests:  # m(nu) made the envelope inf from |nu| = 12.82
            r = eval_pair(kind, nu, x, terms=n)
            assert math.isfinite(r.tail_bound) and math.isfinite(r.d_tail_bound), (nu, x, n)
    assert evaluated >= 150
    assert not misses, f"{len(misses)} misses, first: {misses[:3]}"


@pytest.mark.parametrize("kind", KINDS)
def test_bounds_do_not_jump_at_the_crossing(kind):
    # N is the last count whose derivative ratio is not below 1, and then
    # the last whose ratio is not below 1/2: from N + 1 on the kernel no
    # longer carries its step bound as far (rd_(N+1) < 1) or at all
    # (rd_(N+1) < 1/2).  The chain is the one closing on both sides, so
    # neither bound rises across either crossing.  The bounds before it
    # stay within 1.1 times the a-priori bound of the count (truncation)
    # plus the bound at MAX_TERMS (round-off).
    for nu in (0.0, 0.5, 3.0, 8.0, 12.0, 20.0):
        for x in (10.0, 20.0, 40.0):
            full = eval_pair(kind, nu, x, terms=MAX_TERMS)
            for limit in (1.0, 0.5):
                n = max(k for k in range(1, MAX_TERMS) if _rd(nu, x, k) >= limit)
                before = eval_pair(kind, nu, x, terms=n)
                after = eval_pair(kind, nu, x, terms=n + 1)
                case = (nu, x, limit, n)
                assert after.tail_bound <= before.tail_bound, case
                assert after.d_tail_bound <= before.d_tail_bound, case
                assert before.tail_bound <= 1.1 * tail_bound(nu, x, n) + full.tail_bound, case
                assert (before.d_tail_bound
                        <= 1.1 * derivative_tail_bound(nu, x, n) + full.d_tail_bound), case
    # around the first count past rd = 1 at an oscillatory order, where
    # rd_13 = 0.9995 and the closed form's 1 / (1 - rd) would blow up
    bounds = [eval_pair(Kind.OSCILLATORY, -19.3, 28.36, terms=n) for n in range(10, 15)]
    for b, a in zip(bounds, bounds[1:]):
        assert a.tail_bound <= b.tail_bound and a.d_tail_bound <= b.d_tail_bound, (b, a)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("nu, x", [(0.0, x) for x in (1e-160, 1e-200, 1e-300, 1e-308, 1e-320)]
                         + [(0.7, 1e-160), (0.7, 1e-300)])
def test_tiny_x_derivatives_are_finite_and_enclosed(kind, nu, x):
    # (x/2)^2 underflows: the kept terms past the seed vanish, and 2/x
    # alone would overflow against them
    found, refused = _misses(kind, nu, x, [(1e-12, None), (1e-12, 8)])
    assert refused == 0
    assert not found, found
    r = eval_pair(kind, nu, x)
    assert all(math.isfinite(v) for v in (r.cos_part, r.sin_part, r.d_cos, r.d_sin))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    nu=st.floats(allow_nan=False, allow_infinity=False),
    x=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    tol=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    terms=st.one_of(st.none(), st.integers(1, MAX_TERMS)),
)
def test_every_call_returns_finite_values_or_a_library_error(kind, nu, x, tol, terms):
    # Over the whole double range: finite values with bounds that are
    # not NaN, or DomainError / ToleranceError; never NaN, never a bare
    # exception.
    try:
        r = eval_pair(kind, nu, x, tol, terms=terms)
    except (DomainError, ToleranceError):
        return
    assert all(math.isfinite(v) for v in (r.cos_part, r.sin_part, r.d_cos, r.d_sin))
    assert not math.isnan(r.tail_bound) and not math.isnan(r.d_tail_bound)
    assert r.tail_bound >= 0.0 and r.d_tail_bound >= 0.0
