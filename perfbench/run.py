#!/usr/bin/env python3
"""imbessel benchmark: run one seeded workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload point --seed 1 --seconds 22 --trace 0

Workloads are `point`, `grid`, `sweep` and `compare` (see NOTES.md).
With `--trace 0` the run measures the end-to-end metrics with tracing
off; with `--trace 1` it runs the workload untraced and then traced for
half the time each and reports per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  `attempted` and `failed` count the points of one pass, the
seed's input set: every later pass must repeat the first pass's
outputs, so the counts depend on the seed alone and not on how many
passes fit into the time.  The package is imported from `src/` of the
checkout this file sits in; nothing needs building.
"""

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15     # fresh interpreters timed per run; the median is reported
IMPORTTIME_REPEATS = 5
WARMUP_REQUESTS = 64   # library requests run before timing starts
IMPORT_PROBE = ("import time; t = time.perf_counter(); import imbessel; "
                "print(time.perf_counter() - t)")


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


@contextlib.contextmanager
def one_cpu():
    """Pin the calling thread, and the processes it starts, to one CPU.

    The two CPUs of a shared machine drift apart in speed, so work that
    a single thread can do is kept on the CPU the reference loop runs on.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def measure_setup(speedometer):
    """Median time of `import imbessel` in fresh interpreters, at reference speed."""
    raw = []
    with one_cpu():
        for i in range(SETUP_REPEATS + 1):  # the first run writes bytecode caches
            speedometer.sample()
            done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                                  cwd=ROOT, capture_output=True, text=True, timeout=60,
                                  check=True)
            if i:
                raw.append((float(done.stdout), len(speedometer.samples)))
        speedometer.sample()
    return statistics.median(t * speedometer.scale(mark) for t, mark in raw), len(raw)


def measure_importtime():
    """Median cumulative `-X importtime` seconds of imbessel and of mpmath."""
    found = {"imbessel": [], "mpmath": []}
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import imbessel"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        for line in done.stderr.splitlines():
            # "import time: self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(v) if v else 0.0 for name, v in found.items()}


def git_commit():
    # read .git directly: the checkout may not be a repository, and git
    # itself would search parent directories
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(imbessel, cli):
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "not installed"
    workers = getattr(cli, "_workers", None)
    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "backend": getattr(imbessel, "BACKEND", "unknown"),
        "cli_workers": workers() if workers else 0,  # 0: no thread pool to size
    }


class Phase:
    """Counters and request latencies of one timed phase.

    `peak_rss_mb` is read after the first pass: every later pass repeats
    its inputs, so the program's memory has peaked by then, while the
    latencies kept here grow with the number of passes.
    """

    def __init__(self, n_requests):
        self.n_requests = n_requests
        self.latencies = array("d")  # every request of every pass, in order
        self.marks = array("q")      # speedometer samples taken before each one
        self.attempted = 0
        self.failed = 0
        self.failed_first_pass = 0
        self.passes = 0
        self.elapsed = 0.0
        self.reference_s = 0.0  # time spent in the speedometer during the phase
        self.errors = Counter()
        self.first_error = {}
        self.changed = 0  # requests whose output differed from the first pass
        self.peak_rss_mb = 0.0

    @property
    def points_per_pass(self):
        return self.attempted // self.passes

    def request_latencies(self, speedometer):
        """Each request's median latency over the passes, at reference speed."""
        scaled = array("d", (latency * speedometer.scale(mark)
                             for latency, mark in zip(self.latencies, self.marks)))
        n = self.n_requests
        return [statistics.median(scaled[i::n]) for i in range(n)]


def _same(output, reference):
    if isinstance(output, Exception) or isinstance(reference, Exception):
        return type(output) is type(reference) and str(output) == str(reference)
    return output == reference or repr(output) == repr(reference)  # NaN != NaN


def run_phase(workload, budget, speedometer, reference=None):
    """Run whole passes over the workload's requests for about `budget` s.

    The speedometer samples its reference loop between requests, and
    once before and after the phase, so every latency is bracketed by
    two samples.  Without `reference` the first pass's outputs are kept
    and returned; every later output is compared with the output of
    the same request in that pass (or in `reference`).
    """
    clock = time.perf_counter
    phase = Phase(len(workload.requests))
    outputs = [] if reference is None else None
    speedometer.sample()
    first_sample = len(speedometer.samples)
    start = clock()
    while True:
        for i, request in enumerate(workload.requests):
            speedometer.tick(clock())
            t0 = clock()
            try:
                output = workload.call(request)
            except Exception as exc:  # a failed request: count it and go on
                output = exc
            phase.latencies.append(clock() - t0)
            phase.marks.append(len(speedometer.samples))
            phase.attempted += workload.points(request)
            phase.failed += workload.failed_points(request, output)
            if isinstance(output, Exception):
                name = type(output).__name__
                phase.errors[name] += 1
                phase.first_error.setdefault(name, f"{output} (request {request!r})")
            if outputs is not None:
                outputs.append(output)
            elif not _same(output, reference[i]):
                phase.changed += 1
        phase.passes += 1
        if phase.passes == 1:
            phase.failed_first_pass = phase.failed
            phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if outputs is not None:
            reference, outputs = outputs, None
        phase.elapsed = clock() - start
        phase.reference_s = math.fsum(speedometer.samples[first_sample:])
        # stop when another pass would end mostly past the budget
        if phase.elapsed * (1.0 + 0.5 / phase.passes) >= budget:
            speedometer.sample()
            return phase, reference


def summarize(phase, speedometer):
    """Throughput and p50/p99 latency of a phase, at reference speed."""
    latencies = phase.request_latencies(speedometer)
    throughput = phase.points_per_pass / math.fsum(latencies)
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return throughput, statistics.median(latencies), cuts[98]


def layer_metrics(tracer, traced, imports, workers, overhead):
    """Per-layer metrics of the traced phase, keyed by their BENCHMARK.json names."""
    st = tracer.stats
    passes = traced.passes
    busy = tracer.busy_time(traced.elapsed - traced.reference_s)

    def per_pass(key):
        return st[key].calls / passes

    def share(layer):
        return tracer.layer_self_time(layer) / busy

    evals = st["series_core.eval_pair"]
    kernel = st["kernel.series_sums"]
    cli_main = st["cli.main"]
    cli_wall = sum(cli_main.durations)
    evals_ok = evals.calls - evals.failures
    return {
        "setup.import_s": (imports["imbessel"], "s"),
        "setup.mpmath_import_s": (imports["mpmath"], "s"),
        "lommel.classify.calls": (per_pass("lommel.classify"), "count"),
        "lommel.classify.p50_us": (st["lommel.classify"].p50() * 1e6, "us"),
        "series_core.eval_pair.calls": (per_pass("series_core.eval_pair"), "count"),
        "series_core.eval_pair.p50_us": (evals.p50() * 1e6, "us"),
        "series_core.self_share": (share("series_core"), "ratio"),
        "error_bounds.required_terms.p50_us": (st["error_bounds.required_terms"].p50() * 1e6, "us"),
        "error_bounds.tail_bound.calls": (per_pass("error_bounds.tail_bound"), "count"),
        "error_bounds.tail_bound.per_point": (
            st["error_bounds.tail_bound"].calls / traced.attempted, "calls/point"),
        "error_bounds.derivative_tail_bound.p50_us": (
            st["error_bounds.derivative_tail_bound"].p50() * 1e6, "us"),
        "error_bounds.terms_used.mean": (evals.measure / evals_ok if evals_ok else 0.0, "terms"),
        "error_bounds.self_share": (share("error_bounds"), "ratio"),
        "error_bounds.failures": (tracer.layer_failures("error_bounds") / passes, "count"),
        "kernel.series_sums.calls": (per_pass("kernel.series_sums"), "count"),
        "kernel.steps": (kernel.measure / passes, "count"),
        "kernel.ns_per_step": (sum(kernel.durations) / kernel.measure * 1e9
                               if kernel.measure else 0.0, "ns"),
        "kernel.self_share": (share("kernel"), "ratio"),
        "cli.workers": (workers, "count"),
        "cli.self_share": (share("cli"), "ratio"),
        "cli.parallel_overlap": (cli_main.child_time / cli_wall if cli_wall else 0.0, "ratio"),
        "oracle.oracle_pair.calls": (per_pass("oracle.oracle_pair"), "count"),
        "oracle.oracle_pair.p50_ms": (st["oracle.oracle_pair"].p50() * 1e3, "ms"),
        "oracle.self_share": (share("oracle"), "ratio"),
        "trace.overhead": (overhead, "ratio"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "imbessel" / "__init__.py").is_file():
        print(f"imbessel sources not found under {SRC}", file=sys.stderr)
        return 2
    # the documented default environment: no thread or backend override
    for var in ("IMBESSEL_THREADS", "IMBESSEL_BACKEND"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))

    import imbessel
    from imbessel import cli
    import calibration
    import spans
    import workloads

    if Path(imbessel.__file__).resolve().parent != SRC / "imbessel":
        print(f"imported imbessel from {imbessel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = environment(imbessel, cli)
    setup_s, setup_n = measure_setup(calibration.Speedometer())
    imports = measure_importtime() if args.trace else None

    workload = workloads.WORKLOADS[args.workload](args.seed)
    library = isinstance(workload, workloads.LibraryWorkload)
    speedometer = calibration.Speedometer()
    budget = args.seconds / 2 if args.trace else args.seconds
    # single-threaded workloads stay on one CPU; the CLI's pool may use all
    with one_cpu() if library else contextlib.nullcontext():
        if library:
            for request in workload.requests[:WARMUP_REQUESTS]:
                try:
                    workload.call(request)
                except Exception:  # counted when the timed loop meets it
                    pass
        untraced, reference = run_phase(workload, budget, speedometer)
        phases = [untraced]
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, _ = run_phase(workload, budget, speedometer, reference)
            finally:
                tracer.restore()
            phases.append(traced)

    check = workload.verify(reference, args.seed)
    # every pass of both phases repeats the first pass's outputs (else
    # `changed` makes the run incorrect), so one pass holds every outcome
    attempted = untraced.points_per_pass
    failed = untraced.failed_first_pass + check.failed_per_pass
    changed = sum(p.changed for p in phases)
    problems = list(check.problems)
    if changed:
        problems.append(f"{changed} outputs differed from the first pass")
    if args.trace:
        problems += [f"trace target {name} not found" for name in tracer.missing]

    throughput, p50, p99 = summarize(untraced, speedometer)
    per_request = (f"n={untraced.n_requests} requests, each the median of {untraced.passes} "
                   f"passes")
    end_to_end = {
        "setup_s": (setup_s, "s", f"n={setup_n} fresh interpreters, median"),
        "throughput_pps": (throughput, "1/s",
                           f"{untraced.points_per_pass} points/pass over the summed latencies"),
        "latency_p50_us": (p50 * 1e6, "us", per_request),
        "latency_p99_us": (p99 * 1e6, "us", per_request),
        "peak_rss_mb": (untraced.peak_rss_mb, "MB", "n=1 process, after the first pass"),
    }

    print(f"imbessel benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    samples = speedometer.samples
    print(f"passes={untraced.passes} requests/pass={untraced.n_requests} "
          f"points/pass={untraced.points_per_pass} wall={untraced.elapsed:.3f} s "
          f"(raw wall-clock {untraced.attempted / untraced.elapsed:.6g} points/s); "
          f"reference loop {min(samples) * 1e3:.3g}..{max(samples) * 1e3:.3g} ms "
          f"in {len(samples)} samples, reference {calibration.REFERENCE_S * 1e3:g} ms")
    for name, (value, unit, note) in end_to_end.items():
        print(f"  {name:<18} {value:>14.6g} {unit:<5} {note}")
    print(f"  {'error_rate':<18} {failed / attempted:>14.6g} {'ratio':<5} "
          f"n={attempted} points of one pass, failed={failed}")
    for name, count in sorted(sum((p.errors for p in phases), Counter()).items()):
        print(f"    raised {name} x{count}: {untraced.first_error.get(name, '')}")
    print(f"  oracle checks: {check.oracle_checked} outputs, "
          f"{len(check.oracle_mismatches)} outside bound + COMPARE_SLACK")
    for line in check.oracle_mismatches:
        print(f"    mismatch {line}")
    for name, digest in sorted(check.digests.items()):
        print(f"  digest {name} sha256={digest}")
    for line in problems:
        print(f"  PROBLEM {line}")

    if args.trace:
        traced_throughput = summarize(traced, speedometer)[0]
        layers = layer_metrics(tracer, traced, imports, env["cli_workers"],
                               throughput / traced_throughput)
        print(f"traced phase: passes={traced.passes} points={traced.attempted} "
              f"wall={traced.elapsed:.3f} s; untraced {throughput:.6g} vs traced "
              f"{traced_throughput:.6g} points/s")
        for name, (value, unit) in layers.items():
            print(f"  {name:<42} {value:>14.6g} {unit}")
        metrics = layers
    else:
        metrics = {name: (value, unit) for name, (value, unit, _) in end_to_end.items()}

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
