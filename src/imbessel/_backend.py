"""Series kernel: the coefficient recurrence, the partial sums and the stop.

`series_core` calls `series_sums` through this module's attribute, so
the kernel can be replaced or wrapped (for tracing, or by a test) at
run time without touching its callers.  The kernel runs the (1, 0) seed
only: the (0, 1) seed's sums are their quarter turn (see `series_core`).
`_rows.row_sums` gives the same sums for a searched row of x at one
order, from coefficients formed once per order (see "Order-major
rows").

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
*Numerical Methods for Special Functions*, SIAM 2007, ch. 2).  The tails
the loop returns are these closed forms only where rd < 1/2; elsewhere
it first carries the step bound on (see "Carried tails").

The stop.  A search stops at the first step N past rho < 1 (computed,
rho_(N+1) = e / den) whose value tail from `carried_tails` is <= `tol`,
or closes at its cap.  Its screen, fl(s e) <= fl(tol den) with
s = |a_N| + |b_N|, only saves chains: every value tail `carried_tails`
returns contains M_N e / den (M_N = s + S_FLOOR) times at least
`TAIL_FACTOR`, whose 5 208 u outweighs the few roundings between the
two sides (below the normal range, so does the 2^-1073 such a tail
gets against their 2^-1075s), so a step that fails it returns a tail
> `tol`.  The guard rho < 1 keeps a search from running a chain at
each step before the ratios fall.

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
  A chain that takes a step (see "Carried tails") uses `CARRY_FACTOR`
  instead.
* Gradual underflow.  A product that falls below the normal range adds
  an absolute 2^-1075 instead of a relative error.  Before the largest
  term every term is >= 1 (the seed's is 1), so such an error is
  relative there, below 2^-1074, and rounding 8.414 up to 8.5 covers
  it; past it the term ratio w / (k |k + i nu|) is < 1 and r_k < 1,
  so each step adds at most 6 2^-1075 and nothing grows.  The last term is then off by at most
  6 N 2^-1075 (`S_FLOOR` covers sqrt(2) times that), the sums by
  6 N^2 2^-1074.  r_k itself must stay normal: `series_core.eval_pair`
  treats w / (N (N^2 + nu^2)) below the normal range separately.
* Tails below the normal range.  The closed forms are evaluated only
  where the computed rd is below 1/2, so e <= ed < den / 2 and they
  divide by den - e >= den - ed > den / 2 >= 4 (den >= 8 at N >= 1).
  An operation of theirs that lands below the normal range rounds by
  an absolute 2^-1075, not a relative u, and the later divisions, the
  factor e / (den - ed) < 1 and C carry that on: less than
  1.6 2^-1074 on either tail.  A tail >= 2^-1022 rounds
  only relatively: its products and quotients are then normal (the sums
  and fk s are exact where subnormal).  The derivative tail is at least
  the value tail (fk >= 1 and ed >= e, rounding being monotone).  So
  where the value tail is below 2^-1022 the kernel raises both by
  2^-1073 (`_UNDER`), exactly or, for a normal derivative tail, upward,
  and a positive discarded sum never reads 0.0.

Carried tails.  Every count whose tails are not absorbed (below) is
closed by one chain, `carried_tails`.  Where rd >= 1 after step N (a
forced count before the ratios fall, or a search that reached its cap
or met a huge `tol`) the closed forms above do not hold, and where rd
is near 1 they are loose by 1/(1 - rd).  So from the last term,
M_N = |a_N| + |b_N| + S_FLOOR, the chain carries the majorant
M_K = rho_K M_(K-1), which bounds |a_K| + |b_K| for every K > N by the
step inequality.  It sums M_K and K M_K up to the first L >= N whose
computed derivative ratio rd = (L + 1) rho_(L+1) / L is below 1/2, and
adds the closed forms from step L:

    tail   = (sum_{N<K<=L} M_K + M_L rho_(L+1) / (1 - rho_(L+1))) C,
    d_tail = (sum_{N<K<=L} K M_K + (L + 1) M_L rho_(L+1) / (1 - rd)) C,

with C = `TAIL_FACTOR` where L = N (the chain takes no step and is the
closed forms alone) and C = `CARRY_FACTOR` where L > N, or +inf for
both once K M_K overflows (or is NaN after the recurrence overflowed).
The step inequality gives M_K <= M_N rho_(N+1)^(K-N), so the chain's
exact sums are at most the closed forms at N, and the bound does not
jump where rd crosses 1.  `error_bounds` runs the chain a priori too,
from M = 1 (for P_(N+1)) at index N + 1 <= 401, with w rounded once.
The bullets cover both starts.

* Multipliers.  Each step forms fl(fl(M e) / den), e and den as in the
  stop test.  e = fl(fl(w (1 + 16u)) fl(K + |nu|)) has three roundings,
  den = fl(K fl(K^2 + fl(nu^2))) three (K^2 is exact for K < 2^26), the
  product and the quotient two: eight against the 16u of w (1 + 16u),
  so while the results are normal each computed multiplier is at least
  rho_K (1 + 7u), and each computed M_K at least the exact majorant
  (rho_K (1 + 6u) with the a-priori start's rounded w; `error_bounds`
  covers a w below the normal range).
* Normal range.  A chain that takes a step starts where the computed
  rd_(N+1) is >= 1/2, so the exact one is above (1 - 2^-40) / 2 and
  rho_(N+1) > c N / (2 (N + 1)), c = 1 - 2^-40.  With
  g(K) = w / (K (K + |nu|)) (see "Length"), rho_(N+1) <= 2 g(N + 1),
  and for k <= N, g(k) / g(N + 1) = (N + 1)(N + 1 + |nu|) /
  (k (k + |nu|)) >= (N + 1) / k.  The modulus ratio of consecutive
  terms, w / (k |k + i nu|), is at least g(k), so above c N / (4 k),
  and, from |t_0| = 1, every |t_k|, k <= N, is above
  prod_{i<=N} c N / (4 i) = c^N N^N / (4^N N!) (the factors fall, so
  the partial products are smallest at k = N): above 2^-229 for
  N <= 400.  So the terms up to N are normal and M_N > 2^-229; the
  a-priori start is M = 1.  While rho_K >= 1, M does not fall, so no
  product leaves the normal range.  Past that, rho_K < 1, and each
  operation below the normal range takes at most 2^-1075 off: at most
  24 600 2^-1074 < 2^-1059 off any M_K, and less than 2^-1028 off either
  tail, the closed forms included (K < 2^15).  That is below 2^-796 of
  the first term M_(N+1) > 2^-232, which each tail of the kernel
  contains, and of 1 and N + 1, to which `error_bounds` adds its tails:
  far below the 2^-32 that `CARRY_FACTOR` adds.
* Length.  While rho_K >= 4 each computed multiplier is at least 3.99
  (at least 4 (1 - 2^-11) if M is subnormal, since M >= 2^-1063), so M
  overflows within 1 046 such steps whatever M_N: rho_K < 4 from
  some K1 <= N + 1 046 <= 1 446 on (from M = 1 within 513 steps:
  K1 <= 401 + 513 = 914 a priori).  Since (K + |nu|)^2 <= 2 (K^2 +
  nu^2), rho_K lies between g(K) = w / (K (K + |nu|)) and 2 g(K), and
  g(17 K) <= g(K) / 17, so rho_(17 K1) < 8/17 and, with K1 >= 2, rd
  there is below 0.485 even as computed.  The chain ends before
  K = 17 K1 <= 24 582: fewer than 24 600 steps.  A scan of x up to
  1.7e308 and |nu| up to 1e150 at N = 1, 50 and 400 took at most 1 510.
* Rounding of the chain.  Each term M_K reaches its sum through at most
  L - N + 1 additions and, weighted, one product, each rounding down by
  at most u: less than 24 602 u relative, which with the underflow
  above is far below the 2^-32 that `CARRY_FACTOR` adds to
  `TAIL_FACTOR`.  `TAIL_FACTOR` keeps covering the drift of M_N and the
  closed forms.

Frozen sums.  A forced count (`tol` < 0, N <= MAX_TERMS) runs every
step, but past some step no addition can change a sum.  The loop tests
for that (the freeze), and where the test passes, whether the tails are
absorbed (below); until they are it takes its ordinary steps, and every
returned byte but those tails is the one the full loop gives.  The
argument, in round to nearest:

* An addition X + d with |d| <= (u/4)|X| returns X for a normal X.
  With 2^e <= |X| < 2^(e+1), the floats next to X lie 2^(e-52) away,
  or 2^(e-53) below X = +-2^e; |d| < 2^(e-54) is under half of either
  gap, so X + d rounds to X, with no tie for ties-to-even to break.  An
  infinite X absorbs a finite d.
* Zero sums.  No accumulator is ever -0.0: each starts at +0.0 or 1.0,
  and in round to nearest a sum is -0.0 only when both addends are.  A
  zero sum has threshold 0 and fails the test.  At nu = 0 every b_k and
  so q and dq stay +0.0, so such a call never freezes and runs the
  full loop.
* The test.  It runs only in the `else` of ``if s > um``, so it costs
  nothing while the terms exceed u m.  With s, g = k s and h = k g the
  computed addends of step k, which bound all of its additions (|a|,
  |b| <= s and |fl(k a)| <= g, rounding being monotone), it asks for
  s + 2^-1022 <= (u/4)|p| and (u/4)|q|, g + 2^-1022 <= (u/4)|dp|,
  (u/4)|dq| and (u/4) s1, h + 2^-1022 <= (u/4) s2, a finite m, and
  (k + 1)^2 rho_{k+1} / k^2 <= 1/2, computed from w (1 + 16u) like the
  stop test's rho, so that the exact ratio meets it.  The 2^-1022 puts
  every threshold (u/4)|X| in the normal range, where it is exact, and
  keeps it above any subnormal noise.  A searched call never tests for
  a freeze: `eval_pair` asks for tol >= m eps, and the stop fires
  first.
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

Absorbed tails.  Past the freeze the steps change nothing but the last
term, for the two tails, and `eval_pair` adds those to round-off bounds
many orders larger.  So at a step K < N whose freeze test passed, the
loop bounds the tails at N from the current term K, in the operations
of the tails at N (C = `TAIL_FACTOR`, rho and rd from w (1 + 16u),
P = fl(rho_(K+1)^(N-K)) one `**`),

    S_K = s_K (2 P + 2^-1022) + S_FLOOR,
    t_K = 2 S_K rho_(K+1) / (1 - rho_(K+1)) C + 2^-1022,
    d_K = 4 (K + 1) S_K rho_(K+1) / (1 - rd_(K+1)) C + 2^-1022,

and stops with them, k = N and fk = N + 1 (exact, as in the loop),
once t_K <= (u/4) L and 2 d_K + |nu| t_K <= (u/4) L_d, with
L = fl(8.5u s1) and L_d = 2 fl(8.5u s2); otherwise the loop takes its
next step, and the tails at N come from its last term where no test
holds.  den is not read again, and err and d_err read nothing else the
loop skips, so every other field keeps its bytes.

* Majorants.  Let N > K >= k, the first step whose freeze test
  passed.  By "Later steps" every rho_i, i > K, is at most
  rho_(K+1) <= 1/2, and a step multiplies the l1 size of the term by
  at most rho_i (1 + 12u) and adds at most 7 2^-1075 below the normal
  range; so, forming s included,
  s_N <= (1 + 14u)^(N-K) rho_(K+1)^(N-K) s_K + 2^-1070.  The computed
  rho_(K+1) is above the exact one, and `pow` is within a few ulps of
  its power: where P is normal, 2 P covers that and
  (1 + 14u)^400 < 1 + 2^-40.  A subnormal or zero P has no relative
  accuracy, but it is within a few 2^-1074 of the power, and the
  2^-1022 covers the rest.  With one rounding each for the product and
  the sum, s_N + S_FLOOR <= 1.008 S_K.  rho and rd decrease, so the
  exact value tail at N is at most 1.008 times the one at K for S_K.
  rho lies between g(K) = w / (K (K + |nu|)) and 2 g(K) (see "Length"),
  and K g(K) = w / (K + |nu|) decreases, so (N + 1) rho_(N+1) <=
  2 (K + 1) rho_(K+1): the exact derivative tail at N is at most 2.016
  times the one at K.  By "Later steps" rd_(N+1) <= N / (2 (N + 1)),
  which keeps the computed rd below 1/2 (N <= 400), so `carried_tails`
  takes no step at N: the full loop's tails at N are the closed forms.
  rd <= 1/2 keeps den - e and den - ed above den / 2, so the roundings
  of e and den (three each) move those differences by at most 12u
  relative, and every other operation by u: about 20u on either tail,
  40u on a ratio of two.  Below the normal
  range each tail also rounds by less than 1.6 2^-1074 (see "Tails
  below the normal range"), and the full loop's gets 2^-1073 more.  So
  the full loop's tails at N are below 1.01 and 2.02 times the closed
  forms at K for S_K plus 2^-1072, while t_K and d_K are at least 2 and
  4 times those less 2^-1072, plus 2^-1022: no smaller.
* Absorbed.  Every addend of err and d_err, and of `eval_pair`'s
  round-off bounds R >= err and R_d >= 2 d_err, is >= 0, so with
  monotone rounding R >= L and R_d >= L_d.  Each threshold is at least
  t_K >= 2^-1022, so, as in the freeze test, it is exact and L and L_d
  are normal.  Then t_K <= (u/4) R, and D = fl(2 d_K) + fl(|nu| t_K),
  the first sum of `eval_pair`'s derivative bound, is <= (u/4) R_d: by
  the first lemma of "Frozen sums", t_K + R returns R and D + R_d
  returns R_d.  The full loop's tails are at most t_K and d_K, so its
  own sums are no larger and return R and R_d as well: every
  `eval_pair` byte is the full loop's.  (At nu = 0 nothing freezes, so
  |nu| t_K is never 0 * inf; where r_N leaves the normal range
  `eval_pair` does not read the kernel's tails.)

Order-major rows.  The coefficients c_k = A_k + i B_k depend on nu
alone; x enters only through w^k.  `_rows.grow_coefficients` forms
them once per order, from c_0 = (1, 0), in division form,

    A_k = fl(fl(fl(k A) - fl(nu B)) / D_k),  B_k = fl(fl(fl(nu A) + fl(k B)) / D_k),
    D_k = +-fl(k fl(k^2 + fl(nu^2))),

(A, B = A_(k-1), B_(k-1); + for the modified equation, - for the
oscillatory one, an exact sign), with their k-weighted copies
fl(k A_k), fl(k B_k), the l1 size S_k = fl(|A_k| + |B_k|), fl(k S_k),
and the screen's x-free fl(k + 1 + |nu|) and den_(k+1).
`_rows.row_sums` then runs, at each x, the loop of `series_sums` with
the terms formed
from the table instead of by the recurrence: W_k = fl(W_(k-1) w)
(W_1 = w = fl((x/2)^2)), t_k = (fl(A_k W_k), fl(B_k W_k)), the weighted
terms fl(fl(k A_k) W_k) and fl(fl(k B_k) W_k), s = fl(S_k W_k) in place
of fl(|a| + |b|), and g = fl(fl(k S_k) W_k) for s1 and s2.  The m and j
bookkeeping, the screen (the same e and den, its two comparisons the
other way round, which changes no outcome), `carried_tails` and the
partial-sum bound are the kernel's, so a row's count is `series_sums`'
except where some s differs from the kernel's by its few ulps right at
a screen or chain decision.  The bullets of "Rounding" hold for the
row with these changes:

* Term drift.  A coefficient step rounds D_k three times (nu^2, the
  sum, the product), the products in k A - nu B and nu A + k B
  (sqrt(2) u, as above), and the sum and the quotient of each
  component (2u): 6.414u against the scalar step's 8.414u, which also
  rounds w and the product by r_k.  W_k carries the rounding of w
  k times and its k - 1 products, and forming t_k rounds once more:
  2k u.  So the computed term is t_k prod (1 + eta) with the etas
  summing to at most 8.414 k u, the scalar bound, and `_DRIFT` covers
  it: the drift of p + i q is at most `_DRIFT` s1.  The l1 size s is
  within sqrt(2) 6.414 k u (the coefficient), u (S_k), (2k - 1) u
  (W_k) and u (the product) of the exact term's: (11.1 k + 1) u, below
  the 13 k u that `TAIL_FACTOR` allows.
* Weighted terms.  fl(fl(k A_k) W_k) rounds k A_k twice where the
  scalar kernel rounds fl(k a) once: the coefficient and W_k drift by
  (8.414 k - 1) u, and the two roundings add 2u, so the weighted term
  is off by at most 8.414 k u + u relative.  The first part is the
  drift `_DRIFT` s2 charges; the u left is the one rounding of the
  products k a_k that `d_sums` charges, u sum k (|a_k| + |b_k|) <= u s1.
  `d_sums` = (N + 1) u s1 (N additions and the products) and its split
  at j therefore stand as derived for the kernel.
* Normal range.  The table stops before the first S_k below
  `_rows._C_MIN` = 2^-969 (or at `MAX_TERMS`), so |c_k| >= 2^-969.5
  for every tabled coefficient: an operation of a step that lands
  below the normal range adds at most 2^-1075 to a component, at most
  8 2^-1075 per step (four operations, two components), below
  2^-102 |c_k|, far inside the rounding of 8.414 up to 8.5.  The powers fall (w < 1) or rise
  (w >= 1) with k, so a computed W_N >= 2^-1022 keeps every W_k, k <= N,
  normal and each product fl(W w) relative.  The term products and s
  then add at most an absolute 2^-1075 per component each, formed
  afresh at every k, so the kernel's `_TINY6` N^2 (and N^3) and
  `S_FLOOR` cover them.  A point whose sum runs past the table's end,
  whose W_N or r_N = w / (N (N^2 + nu^2)) is below the normal range
  (r_N as in `series_core.eval_pair`), or whose s2 overflows gets None,
  and its caller takes `series_sums` there.
* Partial sums and tails.  The additions, m, j and the closing are the
  kernel's, so "Partial sums", "Tails" and "Carried tails" hold as
  stated, with the row's s as the last term's l1 size.
"""

#: Hard ceiling on the admissible number of series terms.
MAX_TERMS = 400

_U = 2.0 ** -53
#: Inflation of w in the ratio rho, which keeps the computed ratio above
#: the exact one.
RHO_UP = 1.0 + 16.0 * _U
#: Drift of the last term and rounding of the tail, for N <= MAX_TERMS.
TAIL_FACTOR = 1.0 + (13.0 * MAX_TERMS + 8.0) * _U
#: TAIL_FACTOR and the rounding of a carried chain's own sums: at most
#: (steps + 2) u over its fewer than 24 600 steps, rounded up to 2^-32.
CARRY_FACTOR = TAIL_FACTOR + 2.0 ** -32
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
#: What the closed-form tails can lose below the normal range, rounded
#: up from 1.6 * 2^-1074 (see "Tails below the normal range").
_UNDER = 2.0 ** -1073
#: w / (N (N^2 + nu^2)) below this leaves the normal range.
_R_MIN = 2.0 * _NORMAL


def series_sums(modified, nu, w, n_terms, tol=-1.0):
    """Advance the recurrence and sum the series until the tail meets `tol`.

    Arguments: `modified` selects the recurrence variant (truthy for the
    modified equation), `nu` the order parameter, `w = (x/2)**2`,
    `n_terms` the most steps to take past the (1, 0) seed, and `tol` the
    target for the value tail: the loop stops after the first step past
    rho < 1 whose returned tail meets `tol` (see "The stop").  The
    caller keeps 1 <= `n_terms` <= `MAX_TERMS`: `TAIL_FACTOR` and the
    freeze are proved for those counts only.  A negative `tol` (the
    default) runs all `n_terms` steps, or stops where its sums are
    frozen (see "Frozen sums") and the tails at `n_terms` are absorbed
    (see "Absorbed tails"), which is mostly at the freeze step, so the
    cost follows the steps until the freeze.
    Every field is the full loop's, except that absorbed tails are
    majorants of its tails, too small to move a round-off bound of
    `eval_pair`.

    Returns ``(p, q, dp, dq, m, n, tail, d_tail, err, d_err)`` where, with
    t_k = (a_k, b_k) w^k, (a_0, b_0) = (1, 0) and N = n the steps taken,

    * ``p = sum_{k=0..N} a_k w^k``  (cosine-factor series),
    * ``q = sum_{k=0..N} b_k w^k``  (sine-factor series),
    * ``dp = sum_{k=1..N} k a_k w^k`` and ``dq`` likewise (times 2/x these
      are the term-differentiated series),
    * ``m`` is the largest magnitude reached by the running partial sums
      of p and q,
    * ``tail`` bounds sum_{k>N} (|a_k| + |b_k|) w^k and ``d_tail`` bounds
      sum_{k>N} k (|a_k| + |b_k|) w^k; both are +inf only where a carried
      chain (see "Carried tails") overflows,
    * ``err`` bounds the round-off |(p + i q) - sum_{k<=N} t_k| and
      ``d_err`` that of dp + i dq against sum_{k<=N} k t_k, for
      w / (N (N^2 + nu^2)) in the normal range.
    """
    sw = w if modified else -w
    wu = w * RHO_UP
    # e / den is rho_{k+1}; e = inf turns the stop test off for a forced
    # count, which may freeze its sums instead
    freeze = not tol >= 0.0
    wr = _INF if freeze else wu
    factor = TAIL_FACTOR
    nu2 = nu * nu
    v = abs(nu)
    # the (1, 0) seed
    a = p = s = m = 1.0
    b = q = dp = dq = s1 = s2 = 0.0
    lo = -1.0
    um = _U
    j = 0
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
        elif (freeze and k < n_terms and (fk - 1.0) * g + _NORMAL <= _Q * s2
              and g + _NORMAL <= _Q * s1
              and s + _NORMAL <= _Q * abs(p) and s + _NORMAL <= _Q * abs(q)
              and g + _NORMAL <= _Q * abs(dp) and g + _NORMAL <= _Q * abs(dq)
              and wu * (fk + v) * fk * fk <= 0.5 * (k * k) * den and m < _INF):
            # the sums are frozen (see "Frozen sums"): bound the tails at
            # N from this term and stop if they are absorbed (see
            # "Absorbed tails"); if not, the next step changes no sum
            e = wu * (fk + v)
            sn = s * (2.0 * (e / den) ** (n_terms - k) + _NORMAL) + S_FLOOR
            t = 2.0 * (sn * e / (den - e) * factor) + _NORMAL
            dt = 4.0 * (fk * sn * e / (den - fk * e / k) * factor) + _NORMAL
            if t <= _Q * (_DRIFT * s1) and 2.0 * dt + v * t <= _Q * (2.0 * (_DRIFT * s2)):
                tail, d_tail = t, dt
                k = n_terms
                fk = n_terms + 1.0
                break
        e = wr * (fk + v)
        # screen on the first discarded term (see "The stop")
        if e < den and s * e <= tol * den:
            tail, d_tail = carried_tails(s + S_FLOOR, fk, nu2, v, wu)
            if tail <= tol:
                break
    else:  # the tails from the last term (see "Carried tails")
        tail, d_tail = carried_tails(s + S_FLOOR, fk, nu2, v, wu)
    # fk = N + 1 here
    #
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


def carried_tails(s, fk, nu2, v, wu):
    """Bounds on sum_{K>=fk} M_K and sum_{K>=fk} K M_K, M_K = rho_K M_(K-1),
    from M = `s` at index `fk` - 1 (see "Carried tails"); `nu2` = nu^2,
    `v` = |nu|, `wu` = w (1 + 16u).  Both are +inf past the double range."""
    den = fk * (fk * fk + nu2)
    e = wu * (fk + v)
    ed = fk * e / (fk - 1.0)
    tail = d_tail = 0.0
    factor = TAIL_FACTOR
    while not ed < 0.5 * den and d_tail < _INF:
        factor = CARRY_FACTOR
        s = s * e / den  # M_K = rho_K M_(K-1), with K = fk
        tail = tail + s
        d_tail = d_tail + fk * s
        fk = fk + 1.0
        den = fk * (fk * fk + nu2)
        e = wu * (fk + v)
        ed = fk * e / (fk - 1.0)
    if d_tail < _INF:
        tail = (tail + s * e / (den - e)) * factor
        d_tail = (d_tail + fk * s * e / (den - ed)) * factor
        if tail < _NORMAL:  # an operation may have underflowed
            tail = tail + _UNDER
            d_tail = d_tail + _UNDER
    else:  # M overflowed, or is NaN after a term did
        tail = d_tail = _INF
    return tail, d_tail
