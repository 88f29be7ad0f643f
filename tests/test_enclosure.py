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
    eval_pair,
    oracle_pair_derivs_hp,
    oracle_pair_hp,
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
