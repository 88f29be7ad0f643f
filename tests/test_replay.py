"""Exact replays of lemmas of the series kernel, one at a time.

The stop returns the tails `carried_tails` computes from the last term,
so it is sound if (1) the ratio the kernel forms from w (1 + 16u) is at
least the exact rho_K (the "Multipliers" bullet of `_backend`) and
(2) every closing it returns is at least the same closing evaluated
exactly from the exact last term.  The round-off bounds rest on (3) the
drift sum (the "Term drift" bullet): the computed terms sum to within
`_DRIFT` s1 of the exact terms, and their k-weighted sum to within
`_DRIFT` s2.  A searched row forms its terms from the order's
coefficients instead ("Order-major rows"), so (4) each of its terms is
within k `_DRIFT` of the exact one, its k-weighted term within
k (k `_DRIFT` + u), and its l1 size s within 13 k u.  Each test reruns
that piece from the same doubles w (x, for the row) and nu, in
`fractions.Fraction` (the ratio) or in mpmath at 2 000 bits (the terms,
whose exact rationals grow by ~100 bits a step; 400 bits for the row's
terms, whose reference then drifts by far less than 2^-300 relative),
and checks its inequality on its own, not through the bounds it feeds.
"""

from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from imbessel import MAX_TERMS, _backend, _rows
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


def _exact_terms(modified, nu, w, steps):
    # t_0 = 1, ..., t_steps from w (a double, or exact) and the double nu,
    # at the caller's working precision
    sw, mnu = mpf(w) if modified else -mpf(w), mpf(nu)
    terms = [mpc(1)]
    for k in range(1, steps + 1):
        terms.append(terms[-1] * mpc(k, mnu) * sw / (k * (k * k + mnu * mnu)))
    return terms


def _replay(modified, nu, x, calls):
    # each call (cap, tol) of `series_sums` against the exact closing at
    # the count it returns, from the terms recomputed at 2 000 bits
    w = (0.5 * x) * (0.5 * x)
    with mp.workprec(2000):
        steps = max(cap for cap, _ in calls)
        sizes = [abs(t.real) + abs(t.imag) for t in _exact_terms(modified, nu, w, steps)]
        for cap, tol in calls:
            n, tail, d_tail = _backend.series_sums(modified, nu, w, cap, tol)[5:8]
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


def _drift(modified, nu, x, n):
    # The kernel's n steps in doubles, with its operations, from the (1, 0)
    # seed, next to the exact terms from the same w and nu at 2 000 bits.
    # Returns the computed sums p, q, dp, dq, the running sums s1 and s2,
    # and the exact sums of computed minus exact terms, plain and
    # k-weighted.
    w = (0.5 * x) * (0.5 * x)
    sw = w if modified else -w
    nu2 = nu * nu
    a, b, p, q, dp, dq, s1, s2 = 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0
    fk, den = 1.0, 1.0 + nu2
    with mp.workprec(2000):
        exact = _exact_terms(modified, nu, w, n)
        drift = d_drift = mpc(0)
        for k in range(1, n + 1):
            r = sw / den
            a, b = (fk * a - nu * b) * r, (nu * a + fk * b) * r
            p, q, dp, dq = p + a, q + b, dp + fk * a, dq + fk * b
            g = fk * (abs(a) + abs(b))
            s1, s2 = s1 + g, s2 + fk * g
            fk = fk + 1.0
            den = fk * (fk * fk + nu2)
            step = mpc(a, b) - exact[k]
            drift += step
            d_drift += k * step
        return (p, q, dp, dq), s1, s2, abs(drift), abs(d_drift)


@pytest.mark.parametrize("modified", (False, True))
@pytest.mark.parametrize("nu", ORDERS)
@pytest.mark.parametrize("x", XS)
def test_drift_sum_is_within_drift_s1_and_s2(modified, nu, x):
    # |sum (computed - exact) t_k| <= _DRIFT s1 and
    # |sum k (computed - exact) t_k| <= _DRIFT s2, with s1 and s2 the
    # running sums of the computed terms; the replayed sums are the
    # kernel's, so the replay takes the kernel's operations
    w = (0.5 * x) * (0.5 * x)
    for n in (5, 30, 120):
        sums, s1, s2, drift, d_drift = _drift(modified, nu, x, n)
        assert _backend.series_sums(modified, nu, w, n)[:4] == sums, n
        assert drift <= mpf(_backend._DRIFT) * mpf(s1), (n, drift, s1)
        assert d_drift <= mpf(_backend._DRIFT) * mpf(s2), (n, d_drift, s2)


def _row_terms(modified, nu, x):
    # the row's terms at x from every entry of the order's whole table,
    # with its operations: (k, a, b, ka, kb, s)
    table = []
    while _rows.grow_coefficients(table, modified, nu, nu * nu, abs(nu)):
        pass
    w = (0.5 * x) * (0.5 * x)
    ww = 1.0
    terms = []
    for a, b, ka, kb, sa, _, k, _, _ in table:
        ww = ww * w
        terms.append((k, a * ww, b * ww, ka * ww, kb * ww, sa * ww))
    return terms


# and x where w or w^2 is already below the normal range, for the row
# alone: the kernel lemmas above exclude that regime
ROW_CASES = CASES + [(modified, nu, x) for modified in (False, True) for nu in (0.0, 1.5, -3.3)
                     for x in (1e-160, 1e-300)]


@pytest.mark.parametrize("modified, nu, x", ROW_CASES)
def test_row_terms_are_within_the_drift_of_the_exact_terms(modified, nu, x):
    # exact terms from the double x, so the rounding of w = (x/2)^2 is
    # charged as well; a term that falls below the normal range may add
    # an absolute 2^-1075 per component, which `_TINY6` and `S_FLOOR`
    # cover, so 2^-1074 is allowed on top
    terms = _row_terms(modified, nu, x)
    tiny = mpf(2) ** -1074
    with mp.workprec(400):
        exact = _exact_terms(modified, nu, (mpf(x) / 2) ** 2, len(terms))
        drift = mpf(_backend._DRIFT)
        for (k, a, b, ka, kb, s), t in zip(terms, exact[1:]):
            size = abs(t)
            l1 = abs(t.real) + abs(t.imag)
            assert abs(mpc(a, b) - t) <= k * drift * size + tiny, (k, a, b)
            assert abs(mpc(ka, kb) - k * t) <= k * (k * drift + mpf(_U)) * size + tiny, k
            assert abs(s - l1) <= 13 * k * mpf(_U) * l1 + tiny, (k, s)
    # the replay takes the row's operations: its sums up to the row's
    # count are `row_sums`'
    sums = next(_rows.row_sums(modified, nu, [x], 1e-12))
    if sums is not None:
        n = sums[5]
        p, q, dp, dq = 1.0, 0.0, 0.0, 0.0
        for k, a, b, ka, kb, _ in terms[:n]:
            p, q, dp, dq = p + a, q + b, dp + ka, dq + kb
        assert (p, q, dp, dq) == sums[:4], n
