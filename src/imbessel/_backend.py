"""Series kernel: the coefficient recurrence, the partial sums and the stop.

`series_core` calls `series_sums` through this module's attribute, so
the kernel can be replaced or wrapped (for tracing, or by a test) at
run time without touching its callers.

The loop carries the running term t_k = c_k w^k = (a, b) itself, so
each step is one complex multiplication

    t_k = r_k (k a - nu b, nu a + k b),    r_k = +-w / (k (k^2 + nu^2)),

(+ for the modified equation, - for the oscillatory one) and no power
of w is formed apart from the coefficient.  The step inequality of the
coefficient envelope,

    |a_k| + |b_k|  <=  rho_k (|a_{k-1}| + |b_{k-1}|),
    rho_k = w (k + |nu|) / (k (k^2 + nu^2)),

has a ratio that decreases in k, so once rho_{N+1} < 1 the terms
discarded after step N sum to at most

    (|a_N| + |b_N|) rho_{N+1} / (1 - rho_{N+1}),

and those of the derivative series sum_k k t_k to at most
(N+1)(|a_N| + |b_N|) rho_{N+1} / (1 - rd),  rd = (N+1) rho_{N+1} / N,
because k rho_k / (k-1) decreases as well (Gil, Segura & Temme,
*Numerical Methods for Special Functions*, SIAM 2007, ch. 2).  The loop
stops at the first step whose value tail is <= `tol`.

Rounding (u = 2^-53, first order; the constants are rounded up, which
also covers the second-order remainder for N <= MAX_TERMS).

* Term drift.  Each step rounds r_k in five operations (w, nu^2, the
  sum, the product, the quotient: 5u), the products in k a - nu b and
  nu a + k b (a vector error of at most u (k + |nu|) |t|, i.e.
  sqrt(2) u relative to |r_k (k + i nu) t|), and the final sum and
  product of each component (2u).  A complex scalar multiplication
  has no cancellation, so the computed term is
  t_k prod_{i<=k} (1 + eta_i) with |eta_i| <= 8.414 u: it is off by at
  most 8.5 k u |t_k|, and its l1 size by at most sqrt(2) 8.5 k u,
  below 13 k u.  Summed, the drift of p + i q is at most
  8.5 u s1 and that of dp + i dq at most 8.5 u s2, with
  s1 = sum k (|a_k| + |b_k|) and s2 = sum k^2 (|a_k| + |b_k|) over the
  computed terms (the two running sums the loop keeps).
* Partial sums.  An addition rounds by at most u |partial sum| and by
  at most the term added.  With j the last step whose term exceeds
  u m, p and q lose at most u m per addition up to j (sqrt(2) < 1.5 for
  the pair) and the terms themselves after it; those are <= u m and
  fall off at least like rho_{j+2}.  dp + i dq loses at most u s1 per
  addition and u s1 in the products k a_k, or up to j that and the
  weighted terms after it.  The smaller of the two readings is taken.
* Tails.  Both tails are multiplied by `TAIL_FACTOR` =
  1 + (13 MAX_TERMS + 8) u, which covers the l1 drift of the last term
  for every N <= MAX_TERMS and the rounding of the tail arithmetic; rho
  is computed from w (1 + 16u), which keeps it above the exact ratio.
* Gradual underflow.  A product that falls below the normal range adds
  an absolute 2^-1075 instead of a relative error.  Before the largest
  term every term is >= 1 (for a seed of modulus 1), so such an error
  is relative there, below 2^-1074, and rounding 8.414 up to 8.5 covers
  it; past it the term ratio w /
  (k |k + i nu|) is < 1 and r_k < 1, so each step adds at most 6
  2^-1075 and nothing grows.  The last term is then off by at most
  6 N 2^-1075 (`S_FLOOR` covers sqrt(2) times that), the sums by
  6 N^2 2^-1074.  r_k itself must stay normal: `series_core.eval_pair`
  treats w / (N (N^2 + nu^2)) below the normal range separately.

Frozen sums.  A forced count (`tol` < 0, N <= MAX_TERMS) runs every
step, but past some step no addition can change a sum; from there the
loop runs the recurrence alone, and every returned byte is the one the
full loop gives.  The argument, in round to nearest:

* An addition X + d with |d| <= (u/4)|X| returns X for a normal X.
  With 2^e <= |X| < 2^(e+1), the floats next to X lie 2^(e-52) away,
  or 2^(e-53) below X = +-2^e; |d| < 2^(e-54) is under half of either
  gap, so X + d rounds to X, with no tie for ties-to-even to break.  An
  infinite X absorbs a finite d.
* Zero sums.  No accumulator is ever -0.0: each starts at +0.0 or at a
  seed component, the seeds being (1, 0) (`series_core`) and (0, 1)
  (the tests), and in round to nearest a sum is -0.0 only when both
  addends are.  A zero sum has threshold 0 and fails the test.  At
  nu = 0 the seed's zero component stays zero at every step, so such a
  call never freezes and runs the full loop.
* The test.  It runs only in the `else` of ``if s > um``, so it costs
  nothing while the terms exceed u m.  With s, g = k s and h = k g the
  computed addends of step k, which bound all of its additions (|a|,
  |b| <= s and |fl(k a)| <= g, rounding being monotone), it asks for
  s + 2^-1022 <= (u/4)|p| and (u/4)|q|, g + 2^-1022 <= (u/4)|dp|,
  (u/4)|dq| and (u/4) s1, h + 2^-1022 <= (u/4) s2, a finite m, and
  (k + 1)^2 rho_{k+1} / k^2 <= 1/2, computed from w (1 + 16u) like the
  stop test's rho, so that the exact ratio meets it.  The 2^-1022 puts
  every threshold (u/4)|X| in the normal range, where it is exact, and
  keeps it above any subnormal noise.
* Later steps.  K^2 rho_K / (K - 1)^2 decreases in K (its log
  derivative, 1/(K + |nu|) + 1/K - 2/(K - 1) - 2K/(K^2 + nu^2), is
  negative), so it stays <= 1/2.  By the term drift above, a step
  multiplies the l1 size of the term by at most rho_K (1 + 12u), and
  forming s by (1 + u) / (1 - u).  Gradual underflow adds at most
  6 2^-1075 to the l1 size per step, and a subnormal r_K an absolute
  2^-1075, below 2^-50 of the term since K + |nu| < 2^1025.  So
  E_K = K^2 s_K obeys E_K <= 0.51 E_(K-1) + 2^-1054 (K^2 < 2^18), and
  every later E_K is below 0.51 E_k + 2^-1052.  Each later s, g and h,
  with its own roundings, is then below 0.6 times the step-k value plus
  2^-1045, so below the test's left side and its threshold.  By
  induction no later addition moves p, q, dp, dq, s1 or s2, and the
  thresholds stay as they are.  m is finite, so s is, and so is every
  later addend: an infinite sum absorbs them, and a NaN sum fails its
  comparison.  Where den overflows (|nu| above ~1e152), r_K is 0 and
  the later terms are zeros.
* m, um and j.  p and q do not move, so neither do m and um; every
  later s is below s_k + 2^-1022 <= (u/4) m < u m, so j stays.
* The end.  The loop after the freeze repeats r_k, the (a, b) update,
  k + 1 and den in the same operations and order, and s is recomputed
  as |a| + |b| of the last term, so the tails and the round-off bounds
  see the same values.  A searched call never tests for a freeze:
  `eval_pair` asks for tol >= m eps, and the ratio stop fires first.
"""

from .error_bounds import MAX_TERMS

_U = 2.0 ** -53
#: Inflation of w in the ratio rho, which keeps the computed ratio above
#: the exact one.
RHO_UP = 1.0 + 16.0 * _U
#: Drift of the last term and rounding of the tail, for N <= MAX_TERMS.
TAIL_FACTOR = 1.0 + (13.0 * MAX_TERMS + 8.0) * _U
#: Absolute error of the last term from gradual underflow, times sqrt(2):
#: 2^-1063 >= 1.5 * 6 * MAX_TERMS * 2^-1075.
S_FLOOR = 2.0 ** -1063
#: Drift of the computed terms, 8.414 u per step rounded up.
_DRIFT = 8.5 * _U
#: Gradual underflow, 6 * 2^-1074 per N^2 (values) or N^3 (derivatives).
_TINY6 = 6.0 * 2.0 ** -1074
_INF = float("inf")
#: The frozen-sums test: an addend <= _Q |X| leaves X unchanged, and
#: every threshold _Q |X| must be at least _NORMAL (see "Frozen sums").
_Q = 0.25 * _U
_NORMAL = 2.0 ** -1022


def series_sums(modified, a0, b0, nu, w, n_terms, tol=-1.0):
    """Advance the recurrence and sum the series until the tail meets `tol`.

    Arguments: `modified` selects the recurrence variant (truthy for the
    modified equation), `(a0, b0)` is the seed pair, `nu` the order
    parameter, `w = (x/2)**2`, `n_terms` the most steps to take past the
    seed, and `tol` the target for the value tail: the loop stops after
    the first step N whose tail bound is <= `tol`.  A negative `tol` (the
    default) runs all `n_terms` steps; once its sums are frozen (see
    "Frozen sums") the rest of them advance only the recurrence, so the
    cost follows the steps until the freeze and the result is the same.

    Returns ``(p, q, dp, dq, m, n, tail, d_tail, err, d_err)`` where, with
    t_k = (a_k, b_k) w^k and N = n the steps taken,

    * ``p = sum_{k=0..N} a_k w^k``  (cosine-factor series),
    * ``q = sum_{k=0..N} b_k w^k``  (sine-factor series),
    * ``dp = sum_{k=1..N} k a_k w^k`` and ``dq`` likewise (times 2/x these
      are the term-differentiated series),
    * ``m`` is the largest magnitude reached by the running partial sums
      of p and q,
    * ``tail`` bounds sum_{k>N} (|a_k| + |b_k|) w^k and ``d_tail`` bounds
      sum_{k>N} k (|a_k| + |b_k|) w^k; each is +inf where its ratio is not
      below 1,
    * ``err`` bounds the round-off |(p + i q) - sum_{k<=N} t_k| and
      ``d_err`` that of dp + i dq against sum_{k<=N} k t_k, for a seed of
      modulus 1 and w / (N (N^2 + nu^2)) in the normal range.
    """
    sw = w if modified else -w
    wu = w * RHO_UP
    # e / den is rho_{k+1}; e = inf turns the stop test off
    if tol >= 0.0:
        wr = wu
        freeze = False
    else:  # a forced count, which may freeze its sums
        wr = _INF
        freeze = n_terms <= MAX_TERMS
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
    aa = abs(a0)
    ab = abs(b0)
    m = max(aa, ab)
    lo = -m
    um = m * _U
    j = 0
    s = aa + ab
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
        fk = fk + 1.0
        den = fk * (fk * fk + nu2)
        if s > um:
            j = k
        elif (freeze and (fk - 1.0) * g + _NORMAL <= _Q * s2 and g + _NORMAL <= _Q * s1
              and s + _NORMAL <= _Q * abs(p) and s + _NORMAL <= _Q * abs(q)
              and g + _NORMAL <= _Q * abs(dp) and g + _NORMAL <= _Q * abs(dq)
              and wu * (fk + v) * fk * fk <= 0.5 * (k * k) * den and m < _INF):
            break  # the sums are frozen (see "Frozen sums")
        e = wr * (fk + v)
        # the tail below without S_FLOOR, which only raises it: a step
        # that fails this test reports a tail > tol
        if e < den and s * e / (den - e) * factor <= tol:
            break
    if freeze and k < n_terms:
        # no later addition can change a sum, m or j: run the recurrence
        # alone to the last term, with the loop's operations in its order
        for k in range(k + 1, n_terms + 1):
            r = sw / den
            a, b = (fk * a - nu * b) * r, (nu * a + fk * b) * r
            fk = fk + 1.0
            den = fk * (fk * fk + nu2)
        s = abs(a) + abs(b)
    # fk = N + 1 and den = (N + 1)((N + 1)^2 + nu^2) here
    e = wu * (fk + v)
    tail = d_tail = _INF
    if e < den:
        s = s + S_FLOOR
        tail = s * e / (den - e) * factor
        if k:
            ed = fk * e / k  # rd = (N + 1) rho / N = ed / den
            if ed < den:
                d_tail = fk * s * e / (den - ed) * factor

    # Partial sums: adding a term rounds by at most u |sum| and at most
    # the term itself.  Up to step j (the last term above u m) take u m
    # per addition; the terms after it are <= u m and fall off with the
    # ratio from step j + 2 on.
    n = fk - 1.0
    sums = 1.5 * n * um
    d_sums = fk * _U * s1
    if j < k:
        f2 = j + 2.0
        rho = wu * (f2 + v) / (f2 * (f2 * f2 + nu2))
        rd = f2 * rho / (j + 1.0)
        if rd < 1.0:  # then rho < 1 as well
            split = 1.5 * j * um + um * factor / (1.0 - rho)
            if split < sums:
                sums = split
            split = (j + 1.0) * (_U * s1 + um * factor / (1.0 - rd))
            if split < d_sums:
                d_sums = split
    err = _DRIFT * s1 + sums + n * n * _TINY6
    d_err = _DRIFT * s2 + d_sums + n * n * n * _TINY6
    return p, q, dp, dq, m, k, tail, d_tail, err, d_err
