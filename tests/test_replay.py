"""Exact replays of the two lemmas a searched stop rests on.

The stop returns the tails `carried_tails` computes from the last term,
so it is sound if (1) the ratio the kernel forms from w (1 + 16u) is at
least the exact rho_K (the "Multipliers" bullet of `_backend`) and
(2) every closing it returns is at least the same closing evaluated
exactly from the exact last term.  Each test reruns that piece from the
same doubles w and nu, in `fractions.Fraction` (the ratio) or in mpmath
at 2 000 bits (the terms, whose exact rationals grow by ~100 bits a
step), and checks its inequality on its own, not through the bounds it
feeds.
"""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from imbessel import MAX_TERMS, _backend
from imbessel._backend import _U, RHO_UP

# both kinds over orders from 0 to 38 and x from 0.3 to 78; and named
# counts: a search that stops in the rd band (modified 13.23, 9.45,
# N = 3) and the three counts with rd_(N+1) in [1/2, 1) whose tails
# `test_backend` checks against the oracle coefficients
ORDERS = (0.0, 0.7, -3.3, 13.23, -19.3, 37.9)
XS = (0.3, 2.0, 9.45, 28.36, 77.7)
CASES = [(modified, nu, x) for modified in (False, True) for nu in ORDERS for x in XS]
COUNTS = (1, 2, 5, 12, 30, 80, 200, MAX_TERMS)
NAMED = [(True, 13.23, 9.45, 3), (False, -19.3, 28.36, 12), (True, 0.0, 7.0, 4),
         (True, 3.5, 210.0, 120)]


def _exact_rho(w, nu, k):
    # rho_k = w (k + |nu|) / (k (k^2 + nu^2)) for the doubles w and nu
    w, v = Fraction(w), abs(Fraction(nu))
    return w * (k + v) / (k * (k * k + v * v))


@pytest.mark.parametrize("nu", ORDERS)
@pytest.mark.parametrize("x", XS)
def test_computed_ratio_is_at_least_the_exact_ratio(nu, x):
    # e = fl(fl(w (1 + 16u)) fl(K + |nu|)) and den = fl(K fl(K^2 + nu^2))
    # as the kernel forms them; their float quotient, one rounding more
    # than the multiplier M e / den takes, is at least rho_K (1 + 7u)
    w = (0.5 * x) * (0.5 * x)
    wu, v, nu2 = w * RHO_UP, abs(nu), nu * nu
    for k in range(1, 2 * MAX_TERMS):
        fk = float(k)
        rho = wu * (fk + v) / (fk * (fk * fk + nu2))
        assert Fraction(rho) >= _exact_rho(w, nu, k) * (1 + Fraction(7) * Fraction(_U)), (k, rho)


def _exact_closing(m, w, nu, n):
    # the chain `carried_tails` runs from M_N = m, evaluated exactly: its
    # closing index L is the kernel's (the first K >= N whose computed
    # rd_(K+1) is below 1/2), every product and quotient at the working
    # precision
    v, mw, mnu = abs(nu), mpf(w), mpf(nu)

    def rho(k):
        return mw * (k + abs(mnu)) / (k * (k * k + mnu * mnu))

    fk = n + 1.0
    while not fk * (w * RHO_UP * (fk + v)) / (fk - 1.0) < 0.5 * (fk * (fk * fk + nu * nu)):
        fk += 1.0
    tail = d_tail = mpf(0)
    for k in range(n + 1, int(fk)):
        m = m * rho(k)
        tail += m
        d_tail += k * m
    last = rho(int(fk))
    rd = fk * last / (fk - 1)
    return tail + m * last / (1 - last), d_tail + fk * m * last / (1 - rd)


def _replay(modified, nu, x, calls):
    # each call (cap, tol) of `series_sums` against the exact closing at
    # the count it returns, from the terms recomputed at 2 000 bits
    w = (0.5 * x) * (0.5 * x)
    with mp.workprec(2000):
        sw, mnu = mpf(w if modified else -w), mpf(nu)
        steps = max(cap for cap, _ in calls)
        a, b, sizes = mpf(1), mpf(0), [mpf(1)]
        for k in range(1, steps + 1):
            r = sw / (k * (k * k + mnu * mnu))
            a, b = (k * a - mnu * b) * r, (mnu * a + k * b) * r
            sizes.append(abs(a) + abs(b))
        for cap, tol in calls:
            n, tail, d_tail = _backend.series_sums(modified, 1.0, 0.0, nu, w, cap, tol)[5:8]
            exact, d_exact = _exact_closing(sizes[n], w, nu, n)
            assert mpf(tail) >= exact, (n, tail, exact)
            assert mpf(d_tail) >= d_exact, (n, d_tail, d_exact)


@pytest.mark.parametrize("modified, nu, x", CASES)
def test_each_closing_is_at_least_the_exact_closing(modified, nu, x):
    # tol = 0 runs every step to the cap and closes there; the searched
    # tolerances close where they stop
    calls = [(n, 0.0) for n in COUNTS] + [(MAX_TERMS, tol) for tol in (1e-15, 1e-6, 0.93)]
    _replay(modified, nu, x, calls)


@pytest.mark.parametrize("modified, nu, x, n", NAMED)
def test_named_closings_are_at_least_the_exact_closing(modified, nu, x, n):
    _replay(modified, nu, x, [(n, 0.0), (MAX_TERMS, 0.93)])
