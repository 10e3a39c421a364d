"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by 10-30 % over
minutes, as neighbours load the same cores and caches. The drift moves
every timing of a run together, so the benchmark measures it: between
cases it runs a fixed reference kernel and times it. A round's host
factor is ``REFERENCE_S`` divided by the median time of the kernel in
that round, and the reported times are the measured ones multiplied by
that factor: seconds at the speed the host had when ``REFERENCE_S`` was
taken. The raw times are printed beside them.

The kernel does what pbwdegen's hot loops do: fraction-free elimination of
sparse tuple-keyed integer rows, and lookups in a tuple-keyed dict larger
than a core's own caches, followed by a sort. The lookups make it slow down
with the program when neighbours crowd the shared cache; a kernel that fits
in the core's caches tracked the drift less well. The dict holds
about 9 MiB for the whole run, which peak_rss_mb includes. The kernel does
not call pbwdegen, so a change to the package cannot change it. Changing the
kernel or ``REFERENCE_S`` rescales every reported time, so neither may
change without measuring the parent again.
"""

import gc
import random
import statistics
from time import perf_counter

# Median time of reference() on a 2-vCPU Intel Xeon VM under Python 3.11.7.
REFERENCE_S = 0.025

# Run the kernel at most this often between cases: about 7 % of a run.
INTERVAL_S = 0.35

_rng = random.Random(20171102)
_TABLE = {(_rng.randrange(10**6), _rng.randrange(100)): i for i in range(50000)}
_PROBES = _rng.sample(sorted(_TABLE), 10000)
_COLS = [tuple(sorted(_rng.sample(range(12), 3))) for _ in range(200)]
_ROWS = [{_COLS[_rng.randrange(200)]: _rng.randint(1, 3) for _ in range(8)} for _ in range(80)]


def _lookup():
    total = 0
    for key in _PROBES:
        total += _TABLE[key]
    swapped = sorted((b, a) for a, b in _PROBES)
    return total + swapped[len(swapped) // 2][1]


def _eliminate():
    pivots = {}
    for source in _ROWS:
        row = dict(source)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            a, b = pivot[col], row[col]
            new = {key: value * a for key, value in row.items()}
            for key, value in pivot.items():
                entry = new.get(key, 0) - value * b
                if entry:
                    new[key] = entry % 1000003
                else:
                    new.pop(key, None)
            row = new
    return len(pivots)


def reference():
    """The fixed kernel; returns a checksum that never changes."""
    return _lookup(), _eliminate()


_EXPECTED = reference()


class HostClock:
    """Times the reference kernel at most every INTERVAL_S seconds.

    ``spent`` is the total time ticks took, so a caller can take it out of
    the interval it measures.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._last = float("-inf")

    def tick(self, force=False):
        begin = perf_counter()
        if not force and begin - self._last < INTERVAL_S:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            result = reference()
            took = perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        if result != _EXPECTED:
            raise RuntimeError("reference kernel gave a different result")
        self.samples.append(took)
        self._last = perf_counter()
        self.spent += self._last - begin

    def factor(self):
        """Nominal over measured speed: multiply a measured time by it."""
        return REFERENCE_S / statistics.median(self.samples)
