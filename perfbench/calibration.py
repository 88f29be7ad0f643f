"""Machine-speed reference for timing on a shared CPU.

On a shared virtual machine the speed of pure-Python code drifts by a
factor of 2 to 5, in spells from milliseconds to minutes, so raw times
from two runs of the same code can differ by more than any useful
regression bound.  A `Speedometer` times a fixed reference loop between requests,
at most every `INTERVAL_S` seconds.  The loop is benchmark code that no
program change touches, so its time measures only how fast the machine
ran just then.  A latency is brought to the reference speed, at which
the loop takes `REFERENCE_S`, by the mean of the loop's samples taken
just before and just after it.
"""

import math
import time
from array import array

#: about the fastest time of `reference_loop` on the 2-vCPU Python 3.11
#: machine the benchmark was written on; a constant that sets the scale
#: of the results
REFERENCE_S = 0.005
INTERVAL_S = 0.2
CHUNKS = 100


def _step(a, b, k, nu):
    d = k * (k * k + nu * nu)
    return (k * a - nu * b) / d, (nu * a + k * b) / d


def _chunk(index):
    total = 0.0
    for rep in range(4):
        a, b = 1.0, 0.0
        nu = 0.5 + (4 * index + rep) * 0.005
        for k in range(1, 40):
            a, b = _step(a, b, float(k), nu)
            total += abs(a) + math.log1p(abs(b))
    return total


def reference_loop():
    """About 5 ms of float arithmetic, calls and tuple traffic."""
    return sum(map(_chunk, range(CHUNKS)))


class Speedometer:
    """Samples `reference_loop` at most every `INTERVAL_S` seconds."""

    def __init__(self):
        self.samples = array("d")
        self._next = 0.0

    def sample(self):
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._next = end + INTERVAL_S

    def tick(self, now):
        if now >= self._next:
            self.sample()

    def scale(self, mark):
        """Factor bringing a time measured between samples `mark - 1` and
        `mark` to the reference speed."""
        before = self.samples[mark - 1]
        after = self.samples[mark] if mark < len(self.samples) else before
        return 2.0 * REFERENCE_S / (before + after)
