"""Series kernel: the coefficient recurrence and the partial-sum loop.

`series_core` calls `series_sums` through this module's attribute, so
the kernel can be replaced or wrapped (for tracing, or by a test) at
run time without touching its callers.
"""


def series_sums(modified, a0, b0, nu, w, n_terms):
    """Advance the even-coefficient recurrence and accumulate partial sums.

    Arguments: `modified` selects the recurrence variant (truthy for the
    modified equation), `(a0, b0)` is the seed pair, `nu` the order
    parameter, `w = (x/2)**2`, and `n_terms` the number of recurrence
    steps past the seed.

    Returns ``(p, q, dp, dq, max_abs)`` where

    * ``p = sum_{n=0..N} a_n w^n``  (cosine-factor series),
    * ``q = sum_{n=0..N} b_n w^n``  (sine-factor series),
    * ``dp = sum_{n=1..N} n a_n w^n`` and ``dq`` likewise (times 2/x these
      are the term-differentiated series),
    * ``max_abs`` is the largest magnitude reached by the running partial
      sums of p and q, used for the round-off (cancellation) allowance.
    """
    a = a0
    b = b0
    p = a0
    q = b0
    dp = 0.0
    dq = 0.0
    t = 1.0
    m = abs(a0)
    if abs(b0) > m:
        m = abs(b0)
    for k in range(1, n_terms + 1):
        fk = float(k)
        denom = fk * (fk * fk + nu * nu)
        if modified:
            na = (fk * a - nu * b) / denom
            nb = (nu * a + fk * b) / denom
        else:
            na = (-(fk * a - nu * b)) / denom
            nb = (-(nu * a + fk * b)) / denom
        a = na
        b = nb
        t = t * w
        ta = a * t
        tb = b * t
        p = p + ta
        q = q + tb
        dp = dp + fk * ta
        dq = dq + fk * tb
        if abs(p) > m:
            m = abs(p)
        if abs(q) > m:
            m = abs(q)
    return p, q, dp, dq, m
