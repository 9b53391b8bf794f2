"""Host-speed references for the timing metrics.

The cores this benchmark runs on change speed with the load on the rest of
the host: an exact (5,5) analysis timed in 10-s windows ranged from 4.9 to
6.3 ms within three minutes, and the median start of ``gramsep analyze``
over eight processes from 0.79 to 1.04 s, with CPU time tracking wall
time, so the host slows the core rather than descheduling the process.
Such spells cover whole runs, and no choice of inputs or run length
averages them out.

So every run also times a fixed reference task next to the work it
measures, and scales the measured times by the reference's speed: a time
is reported as it would read at the speed where the reference takes its
nominal time.  There are two references, because the two kinds of work did
not follow the same one:

- in-process operations: a kernel of small complex eigendecompositions,
  matrix products and a pure-Python loop, the kinds of work ``gramsep``
  does, run at least every ``EVERY_S`` seconds between operations; the
  median over the run scales every operation of the run.  In the windows
  above the (5,5) analysis took 5.1-5.9 kernel times.
- fresh interpreters (``setup_s``, CLI operations): a ``python -c "import
  numpy"`` process started just before and just after each.  In the
  windows above a CLI process took 4.4-5.1 of those; the in-process kernel
  did not follow it (0.82-1.32 s per kernel millisecond).  Medians of six
  consecutive CLI processes ranged over 0.74-0.95 s as measured and
  0.86-0.95 s scaled by the mean of their two neighbouring references.

Both references depend on Python and numpy alone, so a change to the
program cannot change them.  Times as measured are printed on standard
error.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

EVERY_S = 0.05

# Bound at import, so a traced run's wrappers never see the probes.
_eigh = np.linalg.eigh
_rng = np.random.default_rng(20070718)
_H = _rng.normal(size=(10, 8, 8)) + 1j * _rng.normal(size=(10, 8, 8))
_H = _H + _H.conj().transpose(0, 2, 1)


def _kernel() -> float:
    acc = 0.0
    for h in _H:
        w, v = _eigh(h)
        acc += float((v @ (w[:, None] * v.conj().T)).real.trace())
    x = 0
    for i in range(4000):
        x = (x * 31 + i) % 1000003
    return acc + x


class Speed:
    """Times of one reference task, kept with the moment each was taken.

    ``nominal_s`` (about the task's median time on the 2-core x86-64 VM of
    the reference figures in README.md) fixes the scale of the reported
    times, nothing else.
    """

    def __init__(self, task, nominal_s: float, nearest: int | None):
        self.task = task
        self.nominal_s = nominal_s
        self.nearest = nearest        # probes whose median gives the speed; None: all
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        self.task()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def tick(self) -> None:
        """Probe if the last probe is more than EVERY_S seconds old."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """Nominal time over the median of the ``nearest`` probe times
        closest to the middle of [start, end] (of all of them when
        ``nearest`` is None): multiply a time taken then by it."""
        at = np.asarray(self.at)
        closest = np.argsort(np.abs(at - (start + end) / 2))[:self.nearest]
        return self.nominal_s / float(np.median(np.asarray(self.took)[closest]))

    def raw_median(self) -> float:
        return float(np.median(self.took))


def in_process() -> Speed:
    # One factor for the whole run: scaling each operation by the probes
    # next to it doubled the spread of analyze_ms_p90 between runs of one
    # seed while the host held its speed, since the program's paths and the
    # kernel follow short changes of speed by different amounts.
    return Speed(_kernel, 1.0e-3, nearest=None)


def interpreter(env: dict, cwd: str, timeout: float) -> Speed:
    cmd = [sys.executable, "-c", "import numpy"]

    def start():
        subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, timeout=timeout,
                       check=True)
    return Speed(start, 0.2, nearest=2)
