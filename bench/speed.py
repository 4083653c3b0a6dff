"""The host's speed, sampled while a run goes on, so that op times can be
given in a unit that does not move with it.

The benchmark's host is shared: its speed swings by 20-40 % over seconds
and minutes, and a whole run can fall into a slow stretch.  So between ops
the runner times ``reference()``, a fixed slice of pure-Python work of the
kind tck does (frozensets, tuples, sorting, dicts).  An op's time divided by
the reference time measured around it is the op's cost in reference units.
``REF_MS`` turns that back into milliseconds: a "ms" of the benchmark is a
millisecond on a host that runs ``reference()`` in ``REF_MS`` ms, about the
median speed of the VM described in README.md.  The reference is part of the
benchmark, not of tck, so a change to tck moves only the numerator.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

REF_MS = 1.4
REF_EVERY_S = 0.025  # sample at most this often (about 4 % of a run)
REF_NEAREST = 2  # samples taken on each side of an interval
# A process start-up is timed against a bare interpreter start-up made right
# after it, and given as that ratio times the bare start-up of the VM.
BARE_START_MS = 50.0

_SETS = tuple(frozenset(range(i, i + 12)) for i in range(0, 80, 2))


def reference() -> float:
    """Run the fixed reference work once; returns its wall time in seconds.
    The garbage collector is off meanwhile: a collection would scan the
    program's heap, and the reference must not depend on it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict[tuple[int, ...], int] = {}
        for a in _SETS:
            for b in _SETS:
                key = tuple(sorted(a & b))
                seen[key] = seen.get(key, 0) + 1
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Speed:
    """Reference samples taken during a run, with the time each was taken."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        took = reference()
        self.at.append(time.perf_counter())
        self.took.append(took)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= REF_EVERY_S

    def ms(self, start: float, end: float) -> float:
        """The wall time from start to end in the benchmark's ms: divided by
        the median reference time of the REF_NEAREST samples taken before
        start and the REF_NEAREST taken after end."""
        lo = bisect.bisect_right(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        near = self.took[max(0, lo - REF_NEAREST):lo] + self.took[hi:hi + REF_NEAREST]
        return (end - start) / statistics.median(near) * REF_MS
