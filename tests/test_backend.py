"""Tests of the series kernel and of the bindings the benchmark traces."""

import importlib.util
import math
import struct
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from imbessel import MAX_TERMS, DomainError, Kind, ToleranceError, _backend, _rows, eval_pair
from imbessel._backend import (_DRIFT, _INF, _NORMAL, _Q, _TINY6, _U, _UNDER, RHO_UP, S_FLOOR,
                               TAIL_FACTOR)
from imbessel.oracle import coefficients_hp

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def reference_series_sums(modified, a0, b0, nu, w, n_terms, tol=-1.0):
    # The kernel as it was before forced counts finished on the bare
    # recurrence: every step adds its term to every sum, and the tails
    # come from the last term; closed-form tails below the normal range
    # are raised by 2^-1073, as in the kernel.  A search stops where the
    # tail `carried_tails` returns meets tol, as in the kernel, but with
    # no screen before it.  Kept as the reference the kernel must
    # reproduce byte for byte, apart from the tails named in
    # `test_series_sums_equal_the_full_loop_byte_for_byte`.
    sw = w if modified else -w
    # e / den is rho_{k+1}; e = inf turns the stop test off
    wr = w * RHO_UP if tol >= 0.0 else _INF
    factor = TAIL_FACTOR
    nu2 = nu * nu
    v = abs(nu)
    a = a0
    b = b0
    p = a0
    q = b0
    dp = 0.0
    dq = 0.0
    s1 = 0.0
    s2 = 0.0
    m = max(abs(a0), abs(b0))
    lo = -m
    um = m * _U
    j = 0
    s = abs(a0) + abs(b0)
    fk = 1.0
    den = 1.0 + nu2
    k = 0
    for k in range(1, n_terms + 1):
        r = sw / den
        a, b = (fk * a - nu * b) * r, (nu * a + fk * b) * r
        p = p + a
        q = q + b
        dp = dp + fk * a
        dq = dq + fk * b
        s = abs(a) + abs(b)
        g = fk * s
        s1 = s1 + g
        s2 = s2 + fk * g
        if p > m or p < lo or q > m or q < lo:
            m = max(abs(p), abs(q), m)
            lo = -m
            um = m * _U
        if s > um:
            j = k
        fk = fk + 1.0
        den = fk * (fk * fk + nu2)
        e = wr * (fk + v)
        # a search stops at the first step past rho < 1 whose returned
        # tail meets tol, with no screen on the first discarded term
        if e < den and _backend.carried_tails(s + S_FLOOR, fk, nu2, v, w * RHO_UP)[0] <= tol:
            break
    # fk = N + 1 and den = (N + 1)((N + 1)^2 + nu^2) here
    e = w * RHO_UP * (fk + v)
    tail = d_tail = _INF
    if e < den:
        s = s + S_FLOOR
        tail = s * e / (den - e) * factor
        if k:
            ed = fk * e / k  # rd = (N + 1) rho / N = ed / den
            if ed < den:
                d_tail = fk * s * e / (den - ed) * factor
                if tail < _NORMAL:  # an operation may have underflowed
                    tail = tail + _UNDER
                    d_tail = d_tail + _UNDER

    err, d_err = _reference_round_off(fk - 1.0, j, um, s1, s2, w, nu)
    return p, q, dp, dq, m, k, tail, d_tail, err, d_err


def _reference_round_off(n, j, um, s1, s2, w, nu):
    # err and d_err after n steps, from the loop's j, um = u m, s1, s2.
    # Partial sums: adding a term rounds by at most u |sum| and at most
    # the term itself.  Up to step j (the last term above u m) take u m
    # per addition; the terms after it are <= u m and fall off with the
    # ratio from step j + 2 on.
    fk = n + 1.0
    sums = 1.5 * n * um
    d_sums = fk * _U * s1
    if j < n:
        f2 = j + 2.0
        rho = w * RHO_UP * (f2 + abs(nu)) / (f2 * (f2 * f2 + nu * nu))
        rd = f2 * rho / (j + 1.0)
        if rd < 1.0:  # then rho < 1 as well
            split = 1.5 * j * um + um * TAIL_FACTOR / (1.0 - rho)
            if split < sums:
                sums = split
            split = (j + 1.0) * (_U * s1 + um * TAIL_FACTOR / (1.0 - rd))
            if split < d_sums:
                d_sums = split
    return (_DRIFT * s1 + sums + n * n * _TINY6,
            _DRIFT * s2 + d_sums + n * n * n * _TINY6)


def reference_row_sums(modified, nu, x, tol):
    # A searched row's sums at x as `_rows.row_sums` forms them, from the
    # order's whole coefficient table: each term fl(c_k fl(w^k)) goes
    # into every sum, the search stops where the tail `carried_tails`
    # returns meets tol, with no screen before it, and the partial-sum
    # bound is the reference kernel's.  None where the row hands x to
    # `series_sums`.
    nu2, v = nu * nu, abs(nu)
    table = []
    while _rows.grow_coefficients(table, modified, nu, nu2, v):
        pass
    w = (0.5 * x) * (0.5 * x)
    ww = p = m = 1.0
    q = dp = dq = s1 = s2 = 0.0
    um = _U
    j = 0.0
    for a, b, ka, kb, sa, ks, k, ek, den in table:
        ww = ww * w
        p, q, dp, dq = p + a * ww, q + b * ww, dp + ka * ww, dq + kb * ww
        s = sa * ww
        g = ks * ww
        s1, s2 = s1 + g, s2 + k * g
        m = max(abs(p), abs(q), m)
        um = m * _U
        if s > um:
            j = k
        if w * RHO_UP * ek < den:
            tail, d_tail = _backend.carried_tails(s + S_FLOOR, k + 1.0, nu2, v, w * RHO_UP)
            if tail <= tol:
                break
    else:
        return None
    if not (ww >= _NORMAL and w >= 2.0 * _NORMAL * k * (k * k + nu2) and s2 < _INF):
        return None
    err, d_err = _reference_round_off(k, j, um, s1, s2, w, nu)
    return p, q, dp, dq, m, int(k), tail, d_tail, err, d_err


def test_series_sums_match_tables():
    # The kernel's sums lie within its own reported round-off bounds
    # `err` (p + i q) and `d_err` (dp + i dq) of the sums of the exact
    # coefficient table (the extended-precision recurrence).
    for kind, modified in ((Kind.OSCILLATORY, 0), (Kind.MODIFIED, 1)):
        for nu in (0.0, 1.3, -2.1):
            table = coefficients_hp(kind, nu, (1.0, 0.0), 64)
            for x in (0.05, 0.4, 1.7, 9.0):
                for n in (12, 64):
                    w = (0.5 * x) * (0.5 * x)
                    p, q, dp, dq, _, steps, _, _, err, d_err = _backend.series_sums(
                        modified, nu, w, n)
                    assert steps == n
                    with mp.workdps(50):
                        value, deriv = mpc(1, 0), mpc(0)
                        for k, (a, b) in enumerate(table[:n], start=1):
                            t = mpc(a, b) * mpf(w) ** k
                            value += t
                            deriv += k * t
                        assert abs(mpc(p, q) - value) <= err, (kind, nu, x, n)
                        assert abs(mpc(dp, dq) - deriv) <= d_err, (kind, nu, x, n)


def test_one_kernel_pass_equals_two_seed_formulas():
    # The (0, 1)-seeded sums are the quarter turn (-q, p, -dq, dp) of the
    # (1, 0)-seeded ones; eval_pair's single pass must reproduce, byte for
    # byte, the pair assembled from one reference pass per seed (the
    # kernel runs the (1, 0) seed only).
    def two_seed(modified, nu, x, n):
        w = (0.5 * x) * (0.5 * x)
        p1, q1, dp1, dq1 = reference_series_sums(modified, 1.0, 0.0, nu, w, n)[:4]
        p0, q0, dp0, dq0 = reference_series_sums(modified, 0.0, 1.0, nu, w, n)[:4]
        lnx = math.log(x)
        c = math.cos(nu * lnx)
        s = math.sin(nu * lnx)
        return (
            p1 * c + q1 * s,
            p0 * c + q0 * s,
            (2.0 * (dp1 * c + dq1 * s) + nu * (q1 * c - p1 * s)) / x,
            (2.0 * (dp0 * c + dq0 * s) + nu * (q0 * c - p0 * s)) / x,
        )

    def pack(values):
        return b"".join(struct.pack("<d", v) for v in values)

    for kind, modified in ((Kind.OSCILLATORY, 0), (Kind.MODIFIED, 1)):
        for nu in (0.0, -0.0, -1.3, 0.5, 2.5):
            for x in (1e-9, 0.03, 0.7, 2.0, 9.5, 17.0):
                for terms in (None, 1, 7, 64):
                    r = eval_pair(kind, nu, x, 1e-6, terms=terms)
                    got = (r.cos_part, r.sin_part, r.d_cos, r.d_sin)
                    want = two_seed(modified, nu, x, r.terms_used)
                    assert pack(got) == pack(want), (kind, nu, x, terms)


def test_benchmark_trace_bindings_resolve(monkeypatch):
    # The benchmark's tracer replaces these module attributes; one that a
    # rename leaves behind would silently drop its layer from the trace.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, _, bindings, _ in spans.TARGETS:
        for module_name, attr in bindings:
            module = importlib.import_module(module_name)
            assert hasattr(module, attr), f"{module_name}.{attr}"

    # eval_pair must reach the kernel through the module attribute
    calls = []
    kernel = _backend.series_sums

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return kernel(*args, **kwargs)

    expected = eval_pair(Kind.OSCILLATORY, 1.0, 1.0)
    monkeypatch.setattr(_backend, "series_sums", counting)
    assert eval_pair(Kind.OSCILLATORY, 1.0, 1.0) == expected
    assert len(calls) == 1
    # the tracer books the kernel's steps as args[5], or else
    # kwargs["n_terms"]
    args, kwargs = calls[0]
    assert len(args) > 5 or "n_terms" in kwargs, calls


def _pack(values):
    return b"".join(struct.pack("<d", v) if isinstance(v, float) else struct.pack("<q", v)
                    for v in values)


def _carries(nu, w, n):
    # whether the kernel's closing carries its step bound on after n
    # steps: the computed derivative ratio rd_(n+1) = ed / den is not
    # below 1/2 (see "Carried tails")
    fk = n + 1.0
    den = fk * (fk * fk + nu * nu)
    ed = fk * (w * RHO_UP * (fk + abs(nu))) / n
    return not ed < 0.5 * den


_X = st.one_of(st.floats(5e-324, 40.0),
               st.floats(-323.3, 1.6).map(lambda e: max(10.0 ** e, 5e-324)))
_NU = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300]), st.floats(-40.0, 40.0))


@settings(max_examples=600, deadline=None)
@given(modified=st.booleans(), nu=_NU, x=_X, n_terms=st.integers(1, 400),
       tol=st.one_of(st.just(-1.0), st.floats(-323.0, -1.0).map(lambda e: 10.0 ** e)))
# forced counts whose sums freeze after a few steps
@example(modified=False, nu=1.3, x=0.01, n_terms=64, tol=-1.0)
@example(modified=True, nu=-0.7, x=0.01, n_terms=64, tol=-1.0)
# p near a zero of J0 (-8.3e-17), so its threshold (u/4)|p| is tiny
@example(modified=False, nu=1e-8, x=2.404825557695773, n_terms=400, tol=-1.0)
# at nu = 0, q and dq stay +0.0: no freeze
@example(modified=False, nu=0.0, x=2.404825557695773, n_terms=400, tol=-1.0)
# the last terms are subnormal
@example(modified=True, nu=0.5, x=1e-3, n_terms=400, tol=-1.0)
@example(modified=False, nu=2.5, x=1e-3, n_terms=400, tol=-1.0)
# counts before the ratios fall, whose tails are carried
@example(modified=False, nu=8.0, x=20.0, n_terms=9, tol=-1.0)
@example(modified=True, nu=0.0, x=40.0, n_terms=3, tol=1e-300)
# frozen counts whose tails are absorbed at the freeze step itself
@example(modified=False, nu=1.3, x=0.01, n_terms=400, tol=-1.0)
@example(modified=True, nu=3.4, x=9.9, n_terms=64, tol=-1.0)
# a frozen count whose tails are not absorbed before its last step
@example(modified=False, nu=3.4, x=2.0, n_terms=16, tol=-1.0)
# frozen counts absorbed only after further steps (3 and 6 absorption tests)
@example(modified=False, nu=4.954360521929658, x=9.40072577096749, n_terms=32, tol=-1.0)
@example(modified=True, nu=-4.481365411079379, x=4.8476912441085025, n_terms=24, tol=-1.0)
# a freeze one step before N (N - K = 1): absorbed there, and not
@example(modified=False, nu=-9.03940580654222, x=0.002261013973943247, n_terms=5, tol=-1.0)
@example(modified=False, nu=-31.616969090520328, x=1.3590391498131118, n_terms=10, tol=-1.0)
# rho_(K+1)^(N - K) below the normal range while s_K is 6.8e-4
@example(modified=True, nu=1.2972216255443954, x=37.20002452086645, n_terms=400, tol=-1.0)
# nu = 0 never freezes; its closed-form tails underflow and are raised
@example(modified=False, nu=0.0, x=0.01, n_terms=400, tol=-1.0)
# counts with rd_(N+1) in [1/2, 1), whose tails are carried and tighter:
# the first past rd = 1 (0.9995) at an oscillatory order, a forced count
# and its searched twin at nu = 0, and a search that stops in the band
@example(modified=False, nu=-19.3, x=28.36, n_terms=12, tol=-1.0)
@example(modified=False, nu=0.0, x=7.0, n_terms=4, tol=-1.0)
@example(modified=False, nu=0.0, x=7.0, n_terms=4, tol=0.1)
@example(modified=True, nu=18.66, x=8.68, n_terms=400, tol=1.0)
def test_series_sums_equal_the_full_loop_byte_for_byte(modified, nu, x, n_terms, tol):
    # A forced count stops adding once its sums are frozen; every value it
    # returns must still be the full loop's, bit for bit.  Two kinds of
    # call return other tails:
    # * where the computed rd_(N+1) is not below 1/2, the kernel carries
    #   its step bound on (see "Carried tails"), never above the full
    #   loop's closed forms (inf where rd >= 1);
    # * where a frozen count stops once its tails are absorbed (see
    #   "Absorbed tails"), it returns majorants of the full loop's tails,
    #   small enough that no round-off bound they are added to moves.
    w = (0.5 * x) * (0.5 * x)
    got = _backend.series_sums(modified, nu, w, n_terms, tol)
    want = reference_series_sums(modified, 1.0, 0.0, nu, w, n_terms, tol)
    assert type(got[5]) is type(want[5]) is int
    assert _pack(got[:6] + got[8:]) == _pack(want[:6] + want[8:]), (got, want)
    tail, d_tail, err, d_err = got[6:]
    if _carries(nu, w, got[5]):
        # x <= 40 keeps every majorant far inside the double range, so
        # the chain cannot overflow
        assert tail < _INF and d_tail < _INF, got
        assert tail <= want[6] and d_tail <= want[7], (got, want)
    elif got[6:8] != want[6:8]:
        assert tol < 0.0, (got, want)
        assert tail >= want[6] and d_tail >= want[7], (got, want)
        # the absorption conditions, against err and d_err, which bound
        # the round-off bounds of `eval_pair` from below
        assert tail + _NORMAL <= _Q * err, got
        assert 2.0 * d_tail + abs(nu) * tail + _NORMAL <= _Q * (2.0 * d_err), got


@settings(max_examples=100, deadline=None)
@given(modified=st.booleans(), nu=st.one_of(_NU, st.sampled_from([1e150, -3e100])),
       xs=st.lists(st.one_of(_X, st.floats(40.0, 1e80)), min_size=1, max_size=4),
       tol=st.floats(-16.0, 0.0).map(lambda e: 10.0 ** e))
@example(modified=False, nu=0.0, xs=[40.0, 7.0, 1e-300, 2.404825557695773], tol=1e-12)
@example(modified=True, nu=1e150, xs=[1e-5, 1.0, 1e73], tol=1e-12)
@example(modified=True, nu=13.23, xs=[9.45], tol=0.93)
def test_row_sums_equal_the_reference_row_byte_for_byte(modified, nu, xs, tol):
    # every field of every x, the count, the tails and the round-off
    # bounds included, or None at the same points; the row grows its
    # table as it goes, the reference forms it whole
    got = list(_rows.row_sums(modified, nu, xs, tol))
    for x, sums in zip(xs, got):
        want = reference_row_sums(modified, nu, x, tol)
        if want is None:
            assert sums is None, (x, sums)
        else:
            assert sums is not None and type(sums[5]) is int, x
            assert _pack(sums) == _pack(want), (x, sums, want)


_KERNEL = _backend.series_sums


def _full_loop(modified, nu, w, n_terms, tol=-1.0):
    # The reference; where the kernel carries its step bound on (the
    # computed rd_(N+1) is not below 1/2), its carried tails stand in
    # (they are not what the freeze and the absorption change).
    want = reference_series_sums(modified, 1.0, 0.0, nu, w, n_terms, tol)
    if not _carries(nu, w, want[5]):
        return want
    return want[:6] + _KERNEL(modified, nu, w, n_terms, tol)[6:8] + want[8:]


def _eval_outcome(kind, nu, x, tol, terms):
    try:
        return _pack(eval_pair(kind, nu, x, tol, terms))
    except (DomainError, ToleranceError) as exc:
        return repr(exc)


@settings(max_examples=800, deadline=None)
@given(kind=st.sampled_from(list(Kind)), nu=_NU, x=_X,
       terms=st.one_of(st.none(), st.integers(1, 400)),
       tol=st.floats(-16.0, 0.0).map(lambda e: 10.0 ** e))
@example(kind=Kind.OSCILLATORY, nu=1.3, x=0.01, terms=400, tol=1e-12)
@example(kind=Kind.MODIFIED, nu=3.4, x=9.9, terms=64, tol=1e-12)
@example(kind=Kind.OSCILLATORY, nu=3.4, x=2.0, terms=16, tol=1e-12)
@example(kind=Kind.OSCILLATORY, nu=4.954360521929658, x=9.40072577096749, terms=32, tol=1e-12)
@example(kind=Kind.MODIFIED, nu=-4.481365411079379, x=4.8476912441085025, terms=24, tol=1e-12)
@example(kind=Kind.OSCILLATORY, nu=-9.03940580654222, x=0.002261013973943247, terms=5,
         tol=1e-12)
@example(kind=Kind.OSCILLATORY, nu=-31.616969090520328, x=1.3590391498131118, terms=10,
         tol=1e-12)
@example(kind=Kind.MODIFIED, nu=1.2972216255443954, x=37.20002452086645, terms=400, tol=1e-12)
@example(kind=Kind.OSCILLATORY, nu=0.0, x=0.01, terms=400, tol=1e-12)
@example(kind=Kind.OSCILLATORY, nu=-19.3, x=28.36, terms=12, tol=1e-12)
def test_eval_pair_bytes_equal_the_full_loop(kind, nu, x, terms, tol):
    # Whatever tails the kernel returns for a frozen count, `eval_pair`
    # must answer with the full loop's bytes in all seven fields, or
    # raise the same refusal.
    got = _eval_outcome(kind, nu, x, tol, terms)
    _backend.series_sums = _full_loop
    try:
        want = _eval_outcome(kind, nu, x, tol, terms)
    finally:
        _backend.series_sums = _KERNEL
    assert got == want, (got, want)


def test_tails_below_the_normal_range_stay_bounds():
    # Where the closed-form tails fall below the normal range their
    # operations round by absolute steps, and the kernel raises both by
    # 2^-1073: a positive discarded sum never reads 0.0, and each tail
    # still encloses the exact one, from the extended-precision
    # coefficients, across the band where it turns subnormal.
    assert _backend.series_sums(False, 0.0, 2.5e-5, 400)[6:8] == (_UNDER, _UNDER)
    for kind, modified in ((Kind.OSCILLATORY, 0), (Kind.MODIFIED, 1)):
        for nu, x in ((0.0, 0.01), (1.3, 0.01), (-2.5, 0.03)):
            table = coefficients_hp(kind, nu, (1.0, 0.0), 130)
            w = (0.5 * x) * (0.5 * x)
            # forced counts (which freeze unless nu = 0) and searched stops
            calls = [(n, -1.0) for n in range(30, 61)]
            calls += [(MAX_TERMS, tol) for tol in (1e-300, 1e-310, 1e-316, 1e-320, 5e-324)]
            for cap, tol in calls:
                n, tail, d_tail = _backend.series_sums(modified, nu, w, cap, tol)[5:8]
                assert tail >= 2.0 ** -1074 and d_tail >= tail, (kind, nu, x, n)
                with mp.workdps(30):
                    sizes = [(k, (abs(a) + abs(b)) * mpf(w) ** k)
                             for k, (a, b) in enumerate(table, start=1) if k > n]
                    assert mpf(tail) >= sum(t for _, t in sizes), (kind, nu, x, n)
                    assert mpf(d_tail) >= sum(k * t for k, t in sizes), (kind, nu, x, n)


@pytest.mark.parametrize("kind, nu, x, n", [
    (Kind.OSCILLATORY, -19.3, 28.36, 12),  # rd_(N+1) = 0.9995
    (Kind.MODIFIED, 0.0, 7.0, 4),  # 0.61
    (Kind.MODIFIED, 3.5, 210.0, 120),  # 0.78
])
def test_tails_carried_from_the_band_stay_bounds(monkeypatch, kind, nu, x, n):
    # Counts whose derivative ratio rd_(N+1) lies in [1/2, 1): the chain
    # starts there (see "Carried tails"), from a normal M_N (its "Normal
    # range" bullet: above 2^-229), takes at least one step, so its tails
    # lie below the closed forms at N (which are positive only for
    # rd < 1), and they still enclose the exact discarded sums, from the
    # extended-precision coefficients at 30 digits.
    w = (0.5 * x) * (0.5 * x)
    assert _carries(nu, w, n)
    starts = []
    chain = _backend.carried_tails

    def recording(*args):
        starts.append(args)
        return chain(*args)

    monkeypatch.setattr(_backend, "carried_tails", recording)
    steps, tail, d_tail = _backend.series_sums(kind is Kind.MODIFIED, nu, w, n)[5:8]
    assert steps == n and len(starts) == 1
    s, fk = starts[0][:2]
    assert fk == n + 1.0 and s > 2.0 ** -229, starts  # M_N is normal
    e = w * RHO_UP * (fk + abs(nu))
    den = fk * (fk * fk + nu * nu)
    assert tail < s * e / (den - e) * TAIL_FACTOR, (tail, s)
    assert d_tail < fk * s * e / (den - fk * e / n) * TAIL_FACTOR, (d_tail, s)
    table = coefficients_hp(kind, nu, (1.0, 0.0), n + 400)
    with mp.workdps(30):
        sizes = [(k, (abs(a) + abs(b)) * mpf(w) ** k)
                 for k, (a, b) in enumerate(table, start=1) if k > n]
        exact = sum(t for _, t in sizes)
        assert sizes[-1][1] < mpf(10) ** -40 * exact  # the rest is beyond 30 digits
        assert mpf(tail) >= exact, (tail, exact)
        assert mpf(d_tail) >= sum(k * t for k, t in sizes), d_tail


def test_carried_tails_end_finite_or_saturate():
    # Beyond the double range the chain stops with inf in both tails,
    # never NaN, and within its bounded step count at any x
    for x in (60.0, 1e3, 1e10, 1e100, 1.7e308):
        w = (0.5 * x) * (0.5 * x)
        for nu in (0.0, 20.0, 1e6, 1e150):
            for n in (1, 400):
                tail, d_tail = _backend.series_sums(False, nu, w, n)[6:8]
                assert tail <= d_tail, (x, nu, n, tail, d_tail)
                assert (tail < _INF) == (d_tail < _INF), (x, nu, n, tail, d_tail)


@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from(list(Kind)), nu=st.floats(-40.0, 40.0), x=st.floats(0.5, 80.0),
       tol=st.floats(-16.0, 2.0).map(lambda e: 10.0 ** e))
# rd_4 lies in [1/2, 1): the closed form at N = 3 is above 0.93, the
# carried tail returned there (0.836) is not, so the search stops at 3
@example(kind=Kind.MODIFIED, nu=13.23, x=9.45, tol=0.93)
def test_search_stops_at_the_first_count_whose_tail_meets_tol(kind, nu, x, tol):
    # A searched count N is the first count past rho < 1 whose own
    # returned tail meets tol: if the step before it was past rho < 1,
    # the kernel capped one step earlier returns a tail above tol.
    try:
        n = eval_pair(kind, nu, x, tol).terms_used
    except ToleranceError:
        return
    w = (0.5 * x) * (0.5 * x)
    if n > 1 and w * RHO_UP * (n + abs(nu)) < n * (n * n + nu * nu):  # rho_N < 1
        got = _backend.series_sums(kind is Kind.MODIFIED, nu, w, n - 1, tol)
        assert got[5] == n - 1 and got[6] > tol, got
