"""Span tracing around imbessel's layer boundaries, installed from outside.

`Tracer.install()` replaces each module attribute that callers resolve at
call time (see `TARGETS`) with a wrapper that records a span: layer,
name, start, end and the span that caused it.  Spans are aggregated in
memory as they close, so a long run keeps only one duration per span
plus the child intervals of the spans still open.  `Tracer.restore()`
puts the original functions back.

A span's self time is its duration minus the union of its children's
intervals, where a child's interval includes its wrapper, so tracing
cost is not booked to the caller; a layer's share is its spans' self
time over the phase's thread time (`busy_time`).  Children normally nest on one thread's
stack; a span that opens on a worker thread with an empty stack (the
CLI thread pool) is a child of the outermost span open on the main
thread, so `cli.main` self time excludes the evaluation work its pool
did, however it overlapped.  Calls made inside an `oracle` span are not
traced: the oracle's own term search is oracle time.  A binding that a
later change removes is listed in `Tracer.missing`, and the run that
installed the tracer counts as incorrect until `TARGETS` follows.
"""

import functools
import importlib
import statistics
import threading
import time
from array import array

# (layer, span name, bindings, per-call quantity).  Each binding is a
# (module, attribute) that some caller resolves at call time: series_core
# and cli import these functions by name, and error_bounds calls its own
# tail_bound through its module globals.  The quantity, if given, is
# summed over the calls that return: the kernel's step count and the
# terms eval_pair used.
TARGETS = (
    ("cli", "main", (("imbessel.cli", "main"),), None),
    ("lommel", "classify", (("imbessel.lommel", "classify"),), None),
    ("series_core", "eval_pair", (("imbessel.series_core", "eval_pair"),
                                  ("imbessel.cli", "eval_pair")),
     lambda args, kwargs, result: result.terms_used),
    ("error_bounds", "required_terms", (("imbessel.error_bounds", "required_terms"),
                                        ("imbessel.series_core", "required_terms")), None),
    ("error_bounds", "tail_bound", (("imbessel.error_bounds", "tail_bound"),
                                    ("imbessel.series_core", "tail_bound"),
                                    ("imbessel.cli", "tail_bound")), None),
    ("error_bounds", "derivative_tail_bound", (("imbessel.error_bounds", "derivative_tail_bound"),
                                               ("imbessel.series_core", "derivative_tail_bound")),
     None),
    ("kernel", "series_sums", (("imbessel._backend", "series_sums"),),
     lambda args, kwargs, result: args[5] if len(args) > 5 else kwargs["n_terms"]),
    ("oracle", "oracle_pair", (("imbessel.oracle", "oracle_pair"),
                               ("imbessel.cli", "oracle_pair")), None),
)


class SpanStats:
    """Aggregate of every closed span of one traced function."""

    def __init__(self, layer):
        self.layer = layer
        self.durations = array("d")
        self.self_time = 0.0
        self.child_time = 0.0  # summed child durations, overlap counted twice
        self.failures = 0      # spans that raised, counted where the layer is left
        self.measure = 0.0     # sum of the per-call quantity named in TARGETS

    @property
    def calls(self):
        return len(self.durations)

    def p50(self):
        return statistics.median(self.durations) if self.durations else 0.0


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _Frame:
    __slots__ = ("layer", "children")

    def __init__(self, layer):
        self.layer = layer
        self.children = []  # (start, end) of closed child spans


class Tracer:
    """Records spans for the functions in `TARGETS` while installed."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._root = None  # outermost open frame of the main thread
        self._saved = []
        self.stats = {}
        self.missing = []  # "module.attr" of TARGETS bindings that do not exist
        self.root_time = 0.0  # summed wall time of the main thread's outermost spans

    def install(self):
        for layer, name, bindings, measure in TARGETS:
            stats = self.stats.setdefault(f"{layer}.{name}", SpanStats(layer))
            for module_name, attr in bindings:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(stats, original, measure))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, stats, fn, measure):
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            stack = tracer._stack()
            if stack and stack[-1].layer == "oracle":  # its term search is oracle time
                return fn(*args, **kwargs)
            on_main = threading.current_thread() is tracer._main
            parent = stack[-1] if stack else (None if on_main else tracer._root)
            frame = _Frame(stats.layer)
            stack.append(frame)
            if parent is None and on_main:
                tracer._root = frame
            start = clock()
            failed = False
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                covered = _union_length(frame.children)
                value = measure(args, kwargs, result) if measure and not failed else 0
                with tracer._lock:  # pool threads update the same stats
                    stats.durations.append(duration)
                    stats.child_time += sum(e - s for s, e in frame.children)
                    stats.self_time += duration - covered
                    stats.measure += value
                    if failed and (parent is None or parent.layer != stats.layer):
                        stats.failures += 1
                    # the wrapper's own time, from `enter` to `leave`, is
                    # nobody's self time
                    leave = clock()
                    if tracer._root is frame:
                        tracer._root = None
                        tracer.root_time += leave - enter
                    if parent is not None:
                        parent.children.append((enter, leave))
            return result

        return traced

    def layer_self_time(self, layer):
        return sum(s.self_time for s in self.stats.values() if s.layer == layer)

    def busy_time(self, wall):
        """Thread time of a traced phase whose main thread ran `wall` seconds.

        The main thread's time outside any span plus the self time of
        every span on every thread, so layer shares of it add up to at
        most 1 even when pool threads overlap.  The wrappers' own time
        is left out.
        """
        return wall - self.root_time + sum(s.self_time for s in self.stats.values())

    def layer_failures(self, layer):
        return sum(s.failures for s in self.stats.values() if s.layer == layer)
