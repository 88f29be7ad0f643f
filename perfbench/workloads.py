"""Seeded workloads of the imbessel benchmark and their correctness checks.

Every workload is a closed loop with one caller.  Its seeded input set
is one *pass*; a run repeats whole passes, so the same seed always runs
the same inputs and per-pass call counts repeat exactly.  Inputs are
stratified (Latin hypercube for `point`, jittered strata elsewhere, with
a stratum edge at |nu| = 2 where the bound switches branch) so that the
cost of a pass varies little from seed to seed.

`call` runs one request inside the timed region.  `verify` runs after
it on the first pass's outputs: finiteness of every value and bound,
CLI exit codes and CSV shape, `compare` status, and a seeded subsample
checked against the extended-precision oracle.  Content failures found
there repeat on every pass (outputs are compared across passes), so
they are counted once per pass.
"""

import hashlib
import io
import math
import random
import struct

from imbessel import cli, lommel, oracle, series_core
from imbessel.cli import COMPARE_SLACK
from imbessel.lommel import ImaginaryOrder
from imbessel.series_core import Kind

X_MIN, X_MAX = 1e-2, 10.0
NU_MAX = 3.5
NU_SPLIT = 2.0  # |nu| above this takes the summed-envelope bound branch
TOLS = (1e-6, 1e-10, 1e-12)
ORACLE_SAMPLE = 24  # outputs per run checked against the oracle
ORACLE_DIGITS = 50
KINDS = (Kind.OSCILLATORY, Kind.MODIFIED)
CLI_KIND = {Kind.OSCILLATORY: "osc", Kind.MODIFIED: "mod"}


def _log_uniform(u):
    return math.exp(math.log(X_MIN) + u * (math.log(X_MAX) - math.log(X_MIN)))


def _orders(rng, below, above):
    # jittered strata: `below` orders in [0, 2), `above` in [2, 3.5)
    lo = [NU_SPLIT * (i + rng.random()) / below for i in range(below)]
    hi = [NU_SPLIT + (NU_MAX - NU_SPLIT) * (i + rng.random()) / above for i in range(above)]
    return lo + hi


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _pair_finite(r):
    return _finite(r.cos_part, r.sin_part, r.d_cos, r.d_sin, r.tail_bound, r.d_tail_bound)


class Check:
    """Outcome of `verify` for one run."""

    def __init__(self):
        self.failed_per_pass = 0   # content failures, repeated on every pass
        self.oracle_checked = 0
        self.oracle_mismatches = []
        self.problems = []         # anything that makes the run incorrect
        self.digests = {}


def _oracle_check(check, kind, nu, x, cos_part, sin_part, bound):
    gold_cos, gold_sin = oracle.oracle_pair(kind, nu, x, digits=ORACLE_DIGITS)
    err = max(abs(cos_part - gold_cos), abs(sin_part - gold_sin))
    check.oracle_checked += 1
    if not err <= bound + COMPARE_SLACK:
        check.oracle_mismatches.append(
            f"{CLI_KIND[kind]} nu={nu!r} x={x!r} err={err:.3g} bound={bound:.3g}")
        return False
    return True


class LibraryWorkload:
    """Requests answered by one library call each, one point per request."""

    def points(self, request):
        return 1

    def failed_points(self, request, output):
        return 1 if isinstance(output, Exception) else 0


class Point(LibraryWorkload):
    """Scalar requests: classify a Lommel-form equation, then evaluate.

    Each request is (a, b, c, beta, x, kind, tol), built so that the
    equation has imaginary order nu in [0, 3.5] and the Bessel argument
    gamma * x^beta is log-uniform on [1e-2, 10].
    """

    name = "point"
    size = 20000

    def __init__(self, seed):
        rng = random.Random(f"point/{seed}")
        n = self.size
        nu_strata = rng.sample(range(n), n)
        arg_strata = rng.sample(range(n), n)
        kinds = [KINDS[i % 2] for i in range(n)]
        tols = [TOLS[i % len(TOLS)] for i in range(n)]
        rng.shuffle(kinds)
        rng.shuffle(tols)
        self.requests = []
        for i in range(n):
            while True:
                nu = NU_MAX * (nu_strata[i] + rng.random()) / n
                beta = rng.choice((0.5, 1.0, 2.0, 3.0, -1.0))
                a = rng.uniform(-2.0, 4.0)
                s = (a - 1.0) / 2.0
                b = s * s + (nu * abs(beta)) ** 2
                if s * s - b < 0.0:  # imaginary order (fails only for nu ~ 0)
                    break
            x = rng.uniform(0.5, 2.0)
            gamma = _log_uniform((arg_strata[i] + rng.random()) / n) / x ** beta
            c = (gamma * abs(beta)) ** 2
            self.requests.append((a, b, c, beta, x, kinds[i], tols[i], nu))

    def call(self, request):
        a, b, c, beta, x, kind, tol, _ = request
        sol = lommel.classify(a, b, c, beta)
        return sol, series_core.eval_pair(kind, sol.order.nu, sol.gamma * x ** beta, tol)

    def verify(self, outputs, seed):
        check = Check()
        digest = hashlib.sha256()
        good = []
        for i, (request, output) in enumerate(zip(self.requests, outputs)):
            if isinstance(output, Exception):
                continue
            sol, r = output
            b, beta, nu = request[1], request[3], request[7]
            digest.update(struct.pack("<idd", r.terms_used, r.cos_part, r.sin_part))
            # the order comes from b - s^2, so it is exact to rounding of b
            if not (isinstance(sol.order, ImaginaryOrder)
                    and abs(sol.order.nu ** 2 - nu ** 2) * beta ** 2 <= 1e-12 * max(b, 1.0)):
                check.problems.append(f"classify gave {sol.order!r} for order {nu!r}")
            if _pair_finite(r):
                good.append(i)
            else:
                check.failed_per_pass += 1
        check.digests["point.terms_cos_sin"] = digest.hexdigest()
        rng = random.Random(f"point-oracle/{seed}")
        for i in sorted(rng.sample(good, min(ORACLE_SAMPLE, len(good)))):
            sol, r = outputs[i]
            _, _, _, beta, x, kind, _, _ = self.requests[i]
            arg = sol.gamma * x ** beta
            if not _oracle_check(check, kind, sol.order.nu, arg, r.cos_part, r.sin_part,
                                 r.tail_bound):
                check.failed_per_pass += 1
        return check


class Sweep(LibraryWorkload):
    """Bound study: `eval_pair` with a forced term count, no term search.

    The term counts 8, 16, ..., 64 are crossed with five seeded orders
    (three below and two above |nu| = 2) and a log-spaced x grid on
    [1e-2, 10] whose offset is seeded per cell; kinds alternate along
    the grid.
    """

    name = "sweep"
    term_counts = range(8, 65, 8)
    x_points = 320

    def __init__(self, seed):
        rng = random.Random(f"sweep/{seed}")
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        nus = _orders(rng, 3, 2)
        u = rng.random()
        self.requests = []
        cell = 0
        for n_terms in self.term_counts:
            for nu in nus:
                # golden-ratio steps spread the cells' grid offsets evenly
                offset = (u + cell * golden) % 1.0
                first_kind = rng.randrange(2)
                cell += 1
                for j in range(self.x_points):
                    x = _log_uniform((j + offset) / self.x_points)
                    kind = KINDS[(first_kind + j) % 2]
                    self.requests.append((kind, nu, x, n_terms))

    def call(self, request):
        kind, nu, x, n_terms = request
        return series_core.eval_pair(kind, nu, x, terms=n_terms)

    def verify(self, outputs, seed):
        check = Check()
        good = []
        for i, output in enumerate(outputs):
            if isinstance(output, Exception):
                continue
            if _pair_finite(output):
                good.append(i)
            else:
                check.failed_per_pass += 1
        rng = random.Random(f"sweep-oracle/{seed}")
        for i in sorted(rng.sample(good, min(ORACLE_SAMPLE, len(good)))):
            kind, nu, x, _ = self.requests[i]
            r = outputs[i]
            if not _oracle_check(check, kind, nu, x, r.cos_part, r.sin_part, r.tail_bound):
                check.failed_per_pass += 1
        return check


class CliWorkload:
    """Requests are `imbessel` command lines run in-process via `cli.main`."""

    def call(self, request):
        buffer = io.StringIO()
        code = cli.main(list(request), out=buffer)
        return code, buffer.getvalue()

    def points(self, request):
        return self.points_per_call

    def failed_points(self, request, output):
        if isinstance(output, Exception) or output[0] != 0:
            return self.points_per_call
        return 0

    def _grid_args(self):
        return ["--x-min", repr(X_MIN), "--x-max", repr(X_MAX),
                "--x-steps", str(self.x_steps), "--x-scale", "log",
                "--nu", ",".join(repr(nu) for nu in self.nus)]


class Grid(CliWorkload):
    """`imbessel table` over a log x grid and ~10 seeded orders, both kinds."""

    name = "grid"
    x_steps = 500
    tol = 1e-12
    fields = ["x", "nu", "cos_part", "sin_part", "d_cos", "d_sin", "terms", "bound"]

    def __init__(self, seed):
        rng = random.Random(f"grid/{seed}")
        self.nus = _orders(rng, 6, 4)
        self.points_per_call = self.x_steps * len(self.nus)
        self.requests = [
            tuple(["table", "--kind", CLI_KIND[kind], "--tol", repr(self.tol)] + self._grid_args())
            for kind in KINDS
        ]

    def verify(self, outputs, seed):
        check = Check()
        rng = random.Random(f"grid-oracle/{seed}")
        per_call = ORACLE_SAMPLE // len(self.requests)
        for kind, output in zip(KINDS, outputs):
            if isinstance(output, Exception) or output[0] != 0:
                continue
            text = output[1]
            check.digests[f"grid.{CLI_KIND[kind]}.stdout"] = hashlib.sha256(text.encode()).hexdigest()
            lines = text.splitlines()
            if lines[:1] != [",".join(self.fields)] or len(lines) != self.points_per_call + 1:
                check.problems.append(f"table {CLI_KIND[kind]}: unexpected CSV shape")
                continue
            good = []
            for line in lines[1:]:
                row = [float(v) for v in line.split(",")]
                if len(row) == len(self.fields) and _finite(*row) and 1 <= row[6] <= 400:
                    good.append(row)
                else:
                    check.failed_per_pass += 1
            for x, nu, cos_part, sin_part, *_, bound in rng.sample(good, min(per_call, len(good))):
                if not _oracle_check(check, kind, nu, x, cos_part, sin_part, bound):
                    check.failed_per_pass += 1
        return check


class Compare(CliWorkload):
    """`imbessel compare` on a small log grid: the oracle does the work."""

    name = "compare"
    x_steps = 12
    tol = 1e-10
    fields = ["x", "nu", "err_cos", "err_sin", "bound", "ok", "within_tol"]

    def __init__(self, seed):
        rng = random.Random(f"compare/{seed}")
        self.nus = _orders(rng, 2, 2)
        self.points_per_call = self.x_steps * len(self.nus)
        self.requests = [
            tuple(["compare", "--kind", CLI_KIND[kind], "--tol", repr(self.tol),
                   "--oracle-digits", str(ORACLE_DIGITS)] + self._grid_args())
            for kind in KINDS
        ]

    def verify(self, outputs, seed):
        check = Check()
        for kind, output in zip(KINDS, outputs):
            if isinstance(output, Exception) or output[0] != 0:
                continue
            lines = output[1].splitlines()
            rows = lines[1:-1]
            status = lines[-1].split() if lines else []
            if (lines[:1] != [",".join(self.fields)] or len(rows) != self.points_per_call
                    or status[:1] not in (["status=PASS"], ["status=FAIL"])
                    or status[1:2] != [f"points={self.points_per_call}"]):
                check.problems.append(f"compare {CLI_KIND[kind]}: unexpected output shape")
                continue
            bad = 0
            for line in rows:
                values = line.split(",")
                if not (_finite(*(float(v) for v in values[:5])) and values[5] == "True"):
                    bad += 1
            if (bad == 0) != (status[0] == "status=PASS"):
                check.problems.append(f"compare {CLI_KIND[kind]}: status line disagrees with rows")
            check.failed_per_pass += bad
            check.oracle_checked += len(rows)
        return check


WORKLOADS = {cls.name: cls for cls in (Point, Grid, Sweep, Compare)}
