"""Host speed: scaling timings of this thread's Python work.

On a shared host the CPU's speed drifts with its neighbours' load.  On
the 2-vCPU VM the seed numbers come from, a fixed pure-Python loop ran
anywhere from 44 to 68 iterations a second over half-second windows,
and its CPU time tracked its wall time: the host steals no time, each
instruction is slower.  Runs of pure-Python work there read up to twice
as slow in one stretch of minutes as in another, whatever the program
did.

:func:`probe` times a fixed unit of interpreter work on the calling
thread.  Wall seconds of work done on the same thread right after it
are scaled to seconds at the reference speed, at which the unit takes
:data:`REFERENCE_S`.  The unit mixes what the program does (tokenizing
a SQL string, object arithmetic, dict and sequence work) because
neighbours slow different instruction mixes differently: a unit of
integer formatting alone over-corrected the optimizer's latency.  In
noisy stretches, scaled ``optimize-embedded`` latencies spread about a
third as much between runs as wall-clock ones (9-14% against 31-43%).

Only work done on the probing thread is scaled: a request served by
another process (the HTTP workloads) also waits on that process and on
kernel timers, which the probe does not see.
"""

from __future__ import annotations

import difflib
import shlex
import time
from fractions import Fraction

#: Seconds one :func:`_unit` takes at the reference speed (the seed host
#: while busy, Python 3.11).
REFERENCE_S = 190e-6

#: Units per probe.  A probe reports their mean, not the fastest: the
#: host's speed flickers faster than a unit lasts, and the timed work
#: runs at the average speed.
UNITS = 3

_SQL = (
    "SELECT SUM(a1), SUM(a2) FROM t1000000_100 JOIN sp_dim40000 ON "
    "t1000000_100.a1 = sp_dim40000.a1 AND (t1000000_100.a1 + sp_dim40000.z) < 31000 "
    "GROUP BY a20"
)


def _unit() -> float:
    words = shlex.split(_SQL)
    columns = {f"{word}.{i}": i for i, word in enumerate(words)}
    total = sum((Fraction(i, i + 1) for i in range(1, 8)), Fraction(0))
    ratio = difflib.SequenceMatcher(None, _SQL[:48], _SQL[12:60]).ratio()
    return len(sorted(columns)) + float(total) + ratio


def probe() -> float:
    """Wall seconds one unit takes on this thread now."""
    started = time.perf_counter()
    for _ in range(UNITS):
        _unit()
    return (time.perf_counter() - started) / UNITS


def factor() -> float:
    """Reference seconds per wall second at this thread's current speed."""
    return REFERENCE_S / probe()


class Stopwatch:
    """Times a block of this thread's work, probing before and after it.

    ``wall`` is its wall seconds; ``seconds`` the same work at the
    reference speed."""

    def __enter__(self) -> "Stopwatch":
        self._before = probe()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall = time.perf_counter() - self._started
        self.seconds = self.wall * 2 * REFERENCE_S / (self._before + probe())

    @property
    def scale(self) -> float:
        """Reference seconds per wall second over the block."""
        return self.seconds / self.wall if self.wall > 0 else 1.0
