"""How fast the machine runs now, measured with a fixed kernel.

The benchmark shares a few cores of a host with other tenants, and their
load slows every instruction down in stretches of a fraction of a second to
minutes (see NOTES.md, "Steadiness").  ``run.py`` therefore samples the
machine's speed *while* each timed command runs: ``Sampler`` interrupts the
command 20 times a second (SIGALRM) and times one run of a fixed kernel of
about a millisecond.  The command's wall time, less the time spent in the
kernel, is rescaled by the machine's mean speed over the command:

    rescaled = (wall - kernel time) * mean(REFERENCE_S / kernel seconds)

so a stretch that slows the command and the kernel alike cancels out.  It is
the mean of speeds, not the median of times, because the host switches
between a fast and a slow mode within one command and the command's time
averages over both.  The kernel is fixed code that calls nothing of bspde,
so a change to the program moves the command's wall time and never the
kernel's.  Its mix follows the program's: interpreter work on strings and
small containers (the CLI writer, scenario parsing, tree walks), elementwise
numpy on short arrays (field evaluation and assembly) and small dense LAPACK
solves (the node solves).

    python3 bench/calibrate.py       # prints ten kernel times
"""

from __future__ import annotations

import os
import signal
import statistics
import time

if __name__ == "__main__":   # run.py pins BLAS before it imports this module
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

# Kernel seconds in the fast mode of the machine the benchmark was built on
# (2-vCPU Intel Xeon VM, one BLAS thread); rescaled times are seconds on a
# machine where one kernel run takes exactly this long.
REFERENCE_S = 0.0011
INTERVAL_S = 0.05           # one kernel run per interval while a command runs
# A command spent in one long C call gets fewer than MIN_INSIDE runs inside;
# then the EDGE_RUNS runs just before and just after it count too.
MIN_INSIDE = 5
EDGE_RUNS = 10

_RNG = np.random.default_rng(20090101)
_X = _RNG.uniform(-3.0, 3.0, 400)
_SYSTEMS = []
for _n in (17, 169):
    _a = _RNG.standard_normal((_n, _n))
    _SYSTEMS.append((_a @ _a.T + _n * np.eye(_n), _RNG.standard_normal(_n)))
del _n, _a


def kernel() -> float:
    """The fixed work the machine's speed is measured with."""
    rows = [f"{i * 0.5:.17g},{i / 3.0:.17g}" for i in range(150)]
    table = {row[:6]: row.split(",") for row in rows}
    for k in range(20):
        y = 0.6 + 0.08 * np.sin(_X + 0.01 * k) * np.cos(0.5 * _X)
    (small_a, small_b), (big_a, big_b) = _SYSTEMS
    for _ in range(6):
        np.linalg.solve(small_a, small_b)
    np.linalg.solve(big_a, big_b)
    return len(table) + float(y[0])


def measure(runs: int = 100) -> float:
    """Mean seconds of one kernel run over a burst of ``runs`` runs."""
    t0 = time.perf_counter()
    for _ in range(runs):
        kernel()
    return (time.perf_counter() - t0) / runs


def speed(kernel_s: float) -> float:
    """Reference seconds per wall second when one kernel run takes
    ``kernel_s``."""
    return REFERENCE_S / kernel_s


class Sampler:
    """Times one kernel run every ``INTERVAL_S`` of wall time inside the
    ``with`` block (``inside``), and ``EDGE_RUNS`` runs on entering and on
    leaving it (``edges``).

    Inside the block the kernel runs in a SIGALRM handler, so in the main
    thread between two Python bytecodes; a signal that arrives during a long
    C call waits for it to return.  ``overhead`` is the wall time spent in
    the handler, to be taken off the wall time of the work in the block;
    ``cost`` adds the runs on entering and leaving.
    """

    def __init__(self):
        self.inside: list[float] = []
        self.edges: list[float] = []
        self.overhead = 0.0
        self.cost = 0.0
        self._previous = None

    def _run(self, into: list) -> float:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        into.append(t1 - t0)
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        spent = self._run(self.inside)
        self.overhead += spent
        self.cost += spent

    def _edge(self):
        for _ in range(EDGE_RUNS):
            self.cost += self._run(self.edges)

    def __enter__(self):
        self._edge()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._edge()
        return False

    def speed(self) -> float:
        """Mean reference seconds per wall second over the block: over the
        runs inside it, and over the runs at its edges too when there are
        fewer than ``MIN_INSIDE`` inside."""
        runs = self.inside if len(self.inside) >= MIN_INSIDE else self.inside + self.edges
        return statistics.fmean(speed(k) for k in runs)


if __name__ == "__main__":
    for _ in range(10):
        print(repr(measure()))
