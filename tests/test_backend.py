"""Tests of the series kernel and of the bindings the benchmark traces."""

import importlib.util
import math
import struct
from pathlib import Path

from mpmath import mp, mpc, mpf

from imbessel import Kind, _backend, build_table, eval_pair

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_series_sums_match_tables():
    # The kernel folds w into the running term, so it matches the table
    # recurrence to rounding only: both lie within their proved drift of
    # the exact recurrence, and the kernel's sums within its own reported
    # round-off bounds `err` (p + i q) and `d_err` (dp + i dq).
    u = 2.0 ** -53
    for kind, modified in ((Kind.OSCILLATORY, 0), (Kind.MODIFIED, 1)):
        sign = 1 if modified else -1
        for nu in (0.0, 1.3, -2.1):
            table = build_table(kind, (0.0, 1.0), nu, 64)
            for x in (0.05, 0.4, 1.7, 9.0):
                for n in (12, 64):
                    w = (0.5 * x) * (0.5 * x)
                    p, q, dp, dq, _, steps, _, _, err, d_err = _backend.series_sums(
                        modified, 0.0, 1.0, nu, w, n)
                    assert steps == n
                    with mp.workdps(50):
                        a, b = mpf(0), mpf(1)
                        value, deriv = mpc(a, b), mpc(0)
                        for k, entry in enumerate(table.entries[1:n + 1], start=1):
                            den = k * (k * k + mpf(nu) ** 2)
                            a, b = sign * (k * a - nu * b) / den, sign * (nu * a + k * b) / den
                            drift = abs(entry.a - a) + abs(entry.b - b)
                            assert drift <= 12 * k * u * (abs(entry.a) + abs(entry.b))
                            t = mpc(a, b) * mpf(w) ** k
                            value += t
                            deriv += k * t
                        assert abs(mpc(p, q) - value) <= err, (kind, nu, x, n)
                        assert abs(mpc(dp, dq) - deriv) <= d_err, (kind, nu, x, n)


def test_one_kernel_pass_equals_two_seed_formulas():
    # The (0, 1)-seeded sums are the quarter turn (-q, p, -dq, dp) of the
    # (1, 0)-seeded ones; eval_pair's single pass must reproduce, byte for
    # byte, the pair assembled from one kernel pass per seed.
    def two_seed(modified, nu, x, n):
        w = (0.5 * x) * (0.5 * x)
        p1, q1, dp1, dq1 = _backend.series_sums(modified, 1.0, 0.0, nu, w, n)[:4]
        p0, q0, dp0, dq0 = _backend.series_sums(modified, 0.0, 1.0, nu, w, n)[:4]
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

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    expected = eval_pair(Kind.OSCILLATORY, 1.0, 1.0)
    monkeypatch.setattr(_backend, "series_sums", counting)
    assert eval_pair(Kind.OSCILLATORY, 1.0, 1.0) == expected
    assert len(calls) == 1
