"""Tests of the series kernel and of the bindings the benchmark traces."""

import importlib.util
from pathlib import Path

from imbessel import Kind, _backend, build_table, eval_pair

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_series_sums_match_tables():
    # the kernel's accumulated sums equal the table-based fold exactly
    for kind, modified in ((Kind.OSCILLATORY, 0), (Kind.MODIFIED, 1)):
        for nu in (0.0, 1.3, -2.1):
            for x in (0.4, 1.7):
                n = 12
                w = (0.5 * x) * (0.5 * x)
                table = build_table(kind, (0.0, 1.0), nu, n)
                p = q = 0.0
                t = 1.0
                first = table.entries[0]
                p, q = first.a, first.b
                for pair in table.entries[1:]:
                    t = t * w
                    p = p + pair.a * t
                    q = q + pair.b * t
                kp, kq, _, _, _ = _backend.series_sums(modified, 0.0, 1.0, nu, w, n)
                assert (kp, kq) == (p, q)


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
    assert len(calls) == 2
