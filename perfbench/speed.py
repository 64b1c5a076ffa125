"""The machine's speed, measured next to each op, to scale op times.

A shared host runs this benchmark's one thread at a speed that drifts
with its neighbours' load: a fixed pure-Python loop on the reference
machine (2 vCPUs) flips between two speeds 1.45x apart, for stretches
of a tenth of a second to minutes.  Runs minutes apart then differ by
that factor whatever the code does.

So the benchmark times a fixed reference computation, exact Fraction
elimination of a constant 8 x 8 matrix (the arithmetic relfan spends
its time on), right before and right after every timed stretch of
work, and scales the stretch's time by ``REF_S`` over the mean of the
two.  A scaled time is the time the work would take at the speed at
which the reference takes ``REF_S``.  The reference is the benchmark's
own code, so a change to relfan moves scaled times as it moves wall
times.  The probes themselves lie outside the stretches they scale.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# seconds the reference computation takes on the reference machine at
# its faster speed; it only sets the scale of the reported times
REF_S = 0.75e-3

_N = 8
_MATRIX = [[Fraction(1, i + j + 1) + (i == j) for j in range(_N)] for i in range(_N)]


def _eliminate():
    rows = [row[:] for row in _MATRIX]
    for col in range(_N):
        pivot = rows[col]
        for i in range(col + 1, _N):
            f = rows[i][col] / pivot[col]
            rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
    return rows[-1][-1]


def probe() -> float:
    """Seconds the reference computation takes now."""
    t = perf_counter()
    _eliminate()
    return perf_counter() - t


class Stopwatch:
    """Times one stretch of work at a time, in wall and scaled seconds."""

    def start(self, t0=None):
        """Probe, then start the stretch now, or at the earlier t0."""
        self._before = probe()
        self._t0 = perf_counter() if t0 is None else t0

    def stop(self):
        """End the stretch and probe; returns (wall, scaled) seconds."""
        wall = perf_counter() - self._t0
        after = probe()
        return wall, wall * 2 * REF_S / (self._before + after)
